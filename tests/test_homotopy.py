import random

import pytest

from finspace import (
    GuardExceeded,
    HeightExceeded,
    Poset,
    UnknownLabel,
    antichain,
    are_homotopy_equivalent,
    are_isomorphic,
    chain,
    contains_crown,
    contractible_height1,
    crown,
    fence,
    homotopy,
    is_contractible,
    reduction,
    spider,
)
from finspace.cli import EXIT_NEGATIVE, EXIT_OK, document_from_poset, dump_document, run
from finspace.generators import random_poset

from helpers import (
    against_extensions, brute_force_homotopy_equivalent, crown_union, iso_by_backtrack, layered,
    random_core, random_height1_poset, time_limit, with_beat_points,
)
from finspace.homotopy import _cover_count


def _relabelled(p, rng):
    """p under shuffled ids, labels and cover order, with the map from p's
    ids to the copy's ids."""
    labels = list(p.labels)
    rng.shuffle(labels)
    covers = [(p.labels[a], p.labels[b]) for a, b in p.covers]
    rng.shuffle(covers)
    q = Poset.from_covers(labels, covers)
    return q, [q.index(lab) for lab in p.labels]


def _cover_moved(p, rng):
    """p with one cover dropped and one pair i < j added; p's ids must be
    a linear extension, as random_poset's are."""
    covers = sorted(p.covers)
    del covers[rng.randrange(len(covers))]
    covers.append(tuple(sorted(rng.sample(range(p.n), 2))))
    return Poset.from_covers(p.labels, [(p.labels[a], p.labels[b]) for a, b in covers])


def _random_pairs(count):
    """Seeded (p, q, fix, known) cases: shuffled relabellings with and
    without a matching basepoint pair, near misses with one cover moved,
    and random basepoint pairs.  ``known`` is True where q is a relabelled
    copy respecting fix, else None."""
    rng = random.Random(2014)
    for seed in range(count):
        p = random_poset(rng.randint(2, 10), rng.choice((0.15, 0.3, 0.5)), seed)
        q, perm = _relabelled(p, rng)
        x = rng.randrange(p.n)
        yield p, q, None, True
        yield p, q, (x, perm[x]), True
        yield p, q, (x, rng.randrange(p.n)), None
        if p.covers:
            yield p, _relabelled(_cover_moved(p, rng), rng)[0], None, None


def _assert_witness(p, q, w, fix=None):
    """An independent check: w is a bijection with a <= b iff w(a) <= w(b)."""
    m = w.mapping
    assert sorted(m) == list(range(q.n))
    assert fix is None or m[fix[0]] == fix[1]
    for a in range(p.n):
        for b in range(p.n):
            assert p.leq(a, b) == q.leq(m[a], m[b])


def _decide(p, q, fix=None):
    """are_isomorphic's verdict, checked against the backtracking oracle,
    with its witness verified."""
    w = are_isomorphic(p, q, fix=fix)
    assert (w is None) == (iso_by_backtrack(p, q, fix=fix) is None)
    if w is not None:
        _assert_witness(p, q, w, fix)
    return w is not None


class TestIsomorphism:
    def test_relabelled_chain(self):
        p = chain(3)
        q = Poset.from_covers(["z", "y", "x"], [("x", "y"), ("y", "z")])
        w = are_isomorphic(p, q)
        assert w is not None
        assert w.mapping[0] == q.index("x")

    def test_chain_vs_fence(self):
        assert are_isomorphic(chain(3), fence(3)) is None

    def test_rotated_crown(self):
        c = crown(3)
        rot = Poset.from_covers(
            list(c.labels),
            [(f"a{(i+1) % 3}", f"b{(i+1) % 3}") for i in range(3)]
            + [(f"a{(i+1) % 3}", f"b{(i+2) % 3}") for i in range(3)],
        )
        assert are_isomorphic(c, rot) is not None

    def test_witness_is_bijective_both_ways(self):
        for seed in range(6):
            p = random_poset(6, 0.4, seed)
            perm = sorted(range(p.n), key=lambda i: (i * 7) % p.n)
            q = Poset.from_covers(
                [p.labels[perm[i]] for i in range(p.n)],
                [(p.labels[a], p.labels[b]) for a, b in p.covers],
            )
            w = are_isomorphic(p, q)
            assert w is not None
            inv = w.inverse()
            assert sorted(w.mapping) == list(range(p.n))
            assert all(inv.mapping[w.mapping[i]] == i for i in range(p.n))


def _swap_pair():
    """P and Q of height 1 with the same degrees: minimal points a0..a5,
    maximal points b0..b4 and 13 covers each, Q being P with a0 < b4 and
    a1 < b0 swapped to a0 < b0 and a1 < b4.  They are not isomorphic, and
    the first refinement meets a pair class whose two points have
    unequal cover counts into a colour."""
    covers = [(0, 3), (0, 4), (1, 0), (1, 1), (1, 3), (2, 1), (2, 3), (2, 4), (3, 0),
              (3, 1), (3, 3), (4, 2), (5, 4)]
    swapped = [c for c in covers if c not in ((0, 4), (1, 0))] + [(0, 0), (1, 4)]
    labels = [f"a{i}" for i in range(6)] + [f"b{j}" for j in range(5)]
    return [Poset.from_covers(labels, [(f"a{i}", f"b{j}") for i, j in cs])
            for cs in (covers, swapped)]


def _pair_splits(monkeypatch, settle=False):
    """Count the splits of a two-element class touched by both its points
    with unequal counts; with ``settle``, leave such a class as it is
    instead of comparing the counts."""
    original = homotopy._Colouring.split
    hits = []

    def split(self, c, vs, count):
        if len(self.cells[c]) == 2 and len(vs) == 2 and count[vs[0]] != count[vs[1]]:
            hits.append(c)
            if settle:
                return True
        return original(self, c, vs, count)

    monkeypatch.setattr(homotopy._Colouring, "split", split)
    return hits


def _core_pairs():
    """(p, q, fix) cases for matching cores: the ``_random_pairs`` corpus
    and random cores against copies with beat points hung on, one side or
    both, with and without a fixed pair; fix names ids of p and q."""
    cases = [(p, q, fix) for p, q, fix, _ in _random_pairs(160)]
    for seed in range(10):
        rng = random.Random(seed)
        p = random_core(rng, rng.randint(8, 24))
        q = against_extensions(with_beat_points(p, rng, rng.randint(1, p.n)))
        r = with_beat_points(p, rng, rng.randint(1, p.n))
        x = rng.randrange(p.n)
        for a, b in ((p, q), (q, p), (r, q)):
            cases.append((a, b, None))
            cases.append((a, b, (a.index(p.labels[x]), b.index(p.labels[x]))))
        cases.append((r, q, (r.index(p.labels[x]), q.index(p.labels[(x + 1) % p.n]))))
        other = with_beat_points(random_core(rng, p.n), rng, rng.randint(1, p.n))
        cases += [(other, q, None), (other, q, (0, q.index(p.labels[x])))]
    for k in range(4, 8):
        rng = random.Random(k)
        whole = with_beat_points(crown(k), rng, k)
        for j in range(2, k - 1):
            cases.append((whole, with_beat_points(crown_union(j, k - j), rng, k), None))
    return cases


class TestMaskedMatch:
    """``are_isomorphic`` on CoreResults reads their kept masks and cover
    masks and gives exactly the witness of the match on their core
    Posets."""

    def test_same_witness_as_on_core_posets(self):
        verdicts = [0, 0]
        for p, q, fix in _core_pairs():
            bp, bq = fix or (None, None)
            rp, rq = reduction.core(p, bp), reduction.core(q, bq)
            on_masks = are_isomorphic(rp, rq, None)
            on_cores = are_isomorphic(rp.core, rq.core, None)
            assert on_masks == on_cores
            assert are_isomorphic(rp.core, rq, None) == on_cores == are_isomorphic(rp, rq.core)
            verdicts[on_masks is not None] += 1
            if fix is not None:
                cfix = (rp.relabel[bp], rq.relabel[bq])
                on_masks = are_isomorphic(rp, rq, cfix)
                assert on_masks == are_isomorphic(rp.core, rq.core, cfix)
                verdicts[on_masks is not None] += 1
        assert min(verdicts) > 100  # both verdicts are well represented

    def test_pair_class_with_unequal_counts(self, monkeypatch):
        hits = _pair_splits(monkeypatch)
        p, q = _swap_pair()
        assert _cover_count(p) == _cover_count(q) == 13
        assert are_isomorphic(p, q) is None
        assert iso_by_backtrack(p, q) is None
        assert hits

    def test_pair_class_comparison_only_prunes_earlier(self, monkeypatch):
        # split's docstring: without the comparison the same refine fails
        # later, so every verdict and witness stays the same
        p, q = _swap_pair()
        cases = [(p, q, None), (q, p, None)] + _core_pairs()
        want = [are_isomorphic(a, b, fix) for a, b, fix in cases]
        hits = _pair_splits(monkeypatch, settle=True)
        assert [are_isomorphic(a, b, fix) for a, b, fix in cases] == want
        assert hits


def _recording_core(monkeypatch):
    """Every CoreResult that ``core`` returns from now on, in a list; both
    bindings, ``reduction.core`` and the one ``homotopy`` imports, record."""
    made = []
    original = reduction.core

    def record(*args):
        made.append(original(*args))
        return made[-1]

    monkeypatch.setattr(reduction, "core", record)
    monkeypatch.setattr(homotopy, "core", record)
    return made


class TestCoreBuiltOnRead:
    """No verb that only decides, counts or lists closes a core into a
    Poset; read, ``core`` and ``relabel`` are what they were."""

    def inputs(self):
        rng = random.Random(37)
        p = random_core(rng, 14)
        q = against_extensions(with_beat_points(p, rng, 8))
        x = 5
        return p, q, x, q.index(p.labels[x])

    def assert_unread_then_read(self, made):
        assert made and all("core" not in r.__dict__ for r in made)
        for r in made:
            p = r.trace.start
            kept = sorted(r.core_elements)
            assert r.core.same_order(p.restrict(kept)[0])
            assert r.relabel == {old: new for new, old in enumerate(kept)}
            assert r.is_point == (len(kept) == 1)

    def test_library(self, monkeypatch):
        made = _recording_core(monkeypatch)
        p, q, bp, bq = self.inputs()
        for args in ((p, q), (q, p), (p, q, bp, bq), (q, q, bq, bq)):
            assert are_homotopy_equivalent(*args)
        assert not is_contractible(q) and is_contractible(with_beat_points(chain(1),
                                                                          random.Random(1), 5))
        assert len(made) == 10
        self.assert_unread_then_read(made)

    def test_cli(self, monkeypatch, tmp_path, capsys):
        made = _recording_core(monkeypatch)
        p, q, bp, bq = self.inputs()
        fp, fq = tmp_path / "p.poset", tmp_path / "q.poset"
        fp.write_text(dump_document(document_from_poset(p, "p", bp)))
        fq.write_text(dump_document(document_from_poset(q, "q", bq)))
        for pointed in ([], ["--pointed"]):
            assert run(pointed + ["core", str(fq)]) == EXIT_OK
            assert run(pointed + ["--json", "homotopy-eq", str(fp), str(fq)]) == EXIT_OK
            assert run(pointed + ["dot", "--core-trace", str(fq)]) == EXIT_OK
        assert run(["contractible", str(fq)]) == EXIT_NEGATIVE
        assert len(made) == 9
        self.assert_unread_then_read(made)


class TestIsomorphismDifferential:
    def test_random_relabellings_and_near_misses(self):
        verdicts = [0, 0]
        for p, q, fix, known in _random_pairs(320):
            found = _decide(p, q, fix)
            assert known is None or found
            verdicts[found] += 1
        assert min(verdicts) > 100  # both verdicts are well represented

    def test_against_networkx_cover_digraphs(self):
        nx = pytest.importorskip("networkx")

        def digraph(x, base):
            g = nx.DiGraph()
            g.add_nodes_from(range(x.n), base=False)
            g.add_edges_from(x.covers)
            if base is not None:
                g.nodes[base]["base"] = True
            return g

        for p, q, fix, _ in _random_pairs(320):
            bp, bq = fix if fix else (None, None)
            expected = nx.is_isomorphic(digraph(p, bp), digraph(q, bq),
                                        node_match=lambda a, b: a["base"] == b["base"])
            assert (are_isomorphic(p, q, fix=fix) is not None) == expected

    def test_families(self):
        rng = random.Random(5)
        family = ([crown(k) for k in range(2, 6)]
                  + [crown_union(2, 2), crown_union(2, 3), crown_union(4), crown_union(3, 2)]
                  + [fence(n) for n in range(1, 9)]
                  + [layered(w, d) for w, d in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2))])
        for i, p in enumerate(family):
            q, perm = _relabelled(p, rng)
            assert _decide(p, q)
            assert _decide(p.dual(), q.dual())
            assert _decide(p, q, fix=(0, perm[0]))
            assert _decide(p, q, fix=(p.n - 1, perm[p.n - 1]))
            for x in range(p.n):
                _decide(p, q, fix=(0, perm[x]))
            for other in family[i + 1:]:
                if other.n == p.n:
                    _decide(p, other)

    def test_refinement_blind_components(self):
        # K(5,5) minus a 10-cycle and K(5,5) minus a 4-cycle and a 6-cycle
        # are connected, cubic and not isomorphic: colour refinement cannot
        # split them, so matching their union to a copy needs a search that
        # backs out of branches pairing elements of different components
        def k55_minus(removed, tag):
            mins = [f"{tag}a{i}" for i in range(5)]
            maxs = [f"{tag}b{j}" for j in range(5)]
            return mins + maxs, [(mins[i], maxs[j]) for i in range(5) for j in range(5)
                                 if (i, j) not in removed]

        ten = {(i, j) for i in range(5) for j in (i, (i + 1) % 5)}
        four_six = {(0, 0), (0, 1), (1, 0), (1, 1),
                    (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 2)}
        la, ca = k55_minus(ten, "x")
        lb, cb = k55_minus(four_six, "y")
        assert not _decide(Poset.from_covers(la, ca), Poset.from_covers(lb, cb))
        both = Poset.from_covers(la + lb, ca + cb)
        rng = random.Random(10)
        for k in range(24):
            copy, _ = _relabelled(both, rng)
            if k < 3:
                assert _decide(both, copy)
            w = are_isomorphic(both, copy)
            assert w is not None
            _assert_witness(both, copy, w)

    def test_random_regular_height1_copies(self):
        # unions of random 3-regular bipartite cover graphs: refinement
        # alone splits little, and some wrong first choices only fail a few
        # levels down, so the search must back out of more than one level
        rng = random.Random(3)
        for _ in range(60):
            labels, covers = [], []
            for c in range(rng.randint(1, 3)):
                m = rng.randint(4, 7)
                edges = set()
                while len(edges) != 3 * m:
                    edges = {(i, j) for _ in range(3)
                             for i, j in enumerate(rng.sample(range(m), m))}
                labels += [f"{c}a{i}" for i in range(m)] + [f"{c}b{j}" for j in range(m)]
                covers += [(f"{c}a{i}", f"{c}b{j}") for i, j in sorted(edges)]
            p = Poset.from_covers(labels, covers)
            copy, _ = _relabelled(p, rng)
            w = are_isomorphic(p, copy)
            assert w is not None
            _assert_witness(p, copy, w)

    def test_crown_family_to_sixty_elements(self):
        rng = random.Random(60)
        for k in range(2, 16):
            whole = crown(2 * k)
            assert are_isomorphic(whole, crown_union(k, k)) is None
            copy, _ = _relabelled(whole, rng)
            w = are_isomorphic(whole, copy)
            assert w is not None
            _assert_witness(whole, copy, w)

    def test_large_antichains(self):
        # antichain(1200) takes one search node per pair and crown(1500)
        # two; a kernel with quadratic work per node runs past the limit
        whole = crown(1500)
        copy, _ = _relabelled(whole, random.Random(1500))
        with time_limit(5, "isomorphisms of antichain(1200) and crown(1500)"):
            w = are_isomorphic(antichain(1200), antichain(1200))
            pinned = are_isomorphic(antichain(1200), antichain(1200), fix=(5, 700))
            c = are_isomorphic(whole, copy)
        assert w is not None and sorted(w.mapping) == list(range(1200))
        assert pinned.mapping[5] == 700
        # a bijection onto the covers of the copy is an order isomorphism
        m = c.mapping
        assert sorted(m) == list(range(copy.n))
        assert {(m[a], m[b]) for a, b in whole.covers} == copy.covers

    def test_basepoint_orbits_of_a_fence(self):
        # the ends of fence(5) are swapped by its one symmetry; its middle
        # point is fixed, and an end cannot go to the middle
        p = fence(5)
        assert are_isomorphic(p, p, fix=(0, 4)).mapping == (4, 3, 2, 1, 0)
        assert are_isomorphic(p, p, fix=(2, 2)) is not None
        assert are_isomorphic(p, p, fix=(0, 2)) is None

    def test_empty(self):
        assert are_isomorphic(chain(0), chain(0)).mapping == ()


class TestHomotopyEquivalence:
    def test_fence_vs_point(self):
        ev = are_homotopy_equivalent(fence(5), chain(1))
        assert ev and ev.core_p.core.n == 1 and ev.iso is not None

    def test_crowns_differ(self):
        ev = are_homotopy_equivalent(crown(2), crown(3))
        assert not ev
        assert ev.core_p.core.n == 4 and ev.core_q.core.n == 6

    def test_chain_vs_fence_both_contractible(self):
        assert are_homotopy_equivalent(chain(4), fence(7))

    def test_pointed(self):
        sp = spider([2, 2])
        ev = are_homotopy_equivalent(
            sp.poset, chain(1), basepoint_p=sp.basepoint, basepoint_q=0
        )
        assert ev

    def test_random_core_against_inflated_copy(self):
        # p is its own core; q's core is closed along the covers core leaves
        for seed in range(12):
            rng = random.Random(seed)
            p = random_core(rng, rng.randint(8, 30))
            q = against_extensions(with_beat_points(p, rng, rng.randint(1, p.n)))
            x = rng.randrange(p.n)
            for bp, bq in ((None, None), (x, q.index(p.labels[x]))):
                ev = are_homotopy_equivalent(p, q, bp, bq)
                assert ev and ev.core_p.core is p and ev.core_q.core is not q
                fix = None if bp is None else (ev.core_p.relabel[bp], ev.core_q.relabel[bq])
                _assert_witness(ev.core_p.core, ev.core_q.core, ev.iso, fix)

    def test_mixed_basepoints_rejected(self):
        with pytest.raises(ValueError):
            are_homotopy_equivalent(chain(2), chain(2), basepoint_p=0)

    def test_basepoint_outside_poset_rejected(self):
        p = fence(5)
        for bp, bq in ((9, 0), (0, 9), (-1, 0)):
            with pytest.raises(UnknownLabel):
                are_homotopy_equivalent(p, p, bp, bq)

    def test_mixed_basepoints_rejected_before_dismantling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(homotopy, "core", lambda *args: calls.append(args))
        for kwargs in ({"basepoint_p": 0}, {"basepoint_q": 1}):
            with pytest.raises(ValueError):
                are_homotopy_equivalent(chain(2), chain(2), **kwargs)
        assert calls == []


class TestBruteForce:
    def test_singleton_vs_two_chain(self):
        assert brute_force_homotopy_equivalent(chain(1), chain(2))

    def test_crown_vs_singleton(self):
        assert not brute_force_homotopy_equivalent(crown(2), chain(1))

    def test_self(self):
        for p in [chain(3), crown(2), fence(4), antichain(2)]:
            assert brute_force_homotopy_equivalent(p, p)

    def test_empty(self):
        assert brute_force_homotopy_equivalent(chain(0), chain(0))
        assert not brute_force_homotopy_equivalent(chain(0), chain(1))

    def test_candidate_pair_guard(self):
        # C(chain(3), chain(3)) has 10 maps, each under the guard of 50,
        # but the 10 x 10 candidate pairs are not
        with pytest.raises(GuardExceeded, match="too many candidate pairs"):
            brute_force_homotopy_equivalent(chain(3), chain(3), guard=50)

    def test_independent_of_core(self, monkeypatch):
        import finspace.reduction

        rng = random.Random(11)
        pairs = [(chain(1), fence(5)), (crown(2), chain(1)), (crown(3), crown(2)),
                 (with_beat_points(crown(2), rng, 3), crown(2)),
                 (with_beat_points(antichain(2), rng, 2), antichain(2)),
                 (with_beat_points(crown(2), rng, 2), with_beat_points(antichain(2), rng, 2))]
        expected = [bool(are_homotopy_equivalent(p, q)) for p, q in pairs]
        assert True in expected and False in expected

        def refuse(*args, **kwargs):
            raise AssertionError("core called")

        monkeypatch.setattr(finspace.reduction, "core", refuse)
        monkeypatch.setattr(homotopy, "core", refuse)
        assert [brute_force_homotopy_equivalent(p, q) for p, q in pairs] == expected


class TestContractibility:
    def test_fences(self):
        assert all(is_contractible(fence(n)) for n in range(1, 12))

    def test_crowns(self):
        assert not any(is_contractible(crown(n)) for n in range(2, 6))

    def test_chains(self):
        assert all(is_contractible(chain(n)) for n in range(1, 8))

    def test_empty(self):
        assert not is_contractible(chain(0))


class TestHeightOneCriterion:
    def test_fence(self):
        assert contractible_height1(fence(6))

    def test_crown(self):
        assert not contractible_height1(crown(2))

    def test_disconnected(self):
        two_fences = Poset.from_covers(
            ["a0", "a1", "b0", "b1"], [("a0", "a1"), ("b0", "b1")]
        )
        assert not contractible_height1(two_fences)

    def test_height_exceeded(self):
        with pytest.raises(HeightExceeded):
            contractible_height1(chain(3))

    def test_height_exceeded_on_a_long_chain_in_linear_time(self):
        with time_limit(2, "contractible_height1(chain(3000))"):
            with pytest.raises(HeightExceeded, match="height 2999 > 1"):
                contractible_height1(chain(3000))

    def test_agrees_with_core_criterion(self):
        import random

        rng = random.Random(7)
        for _ in range(80):
            p = random_height1_poset(rng, 8)
            if p.height() > 1:
                continue
            assert contractible_height1(p) == is_contractible(p)


class TestContainsCrown:
    def test_crown3_six_cycle(self):
        cyc = contains_crown(crown(3))
        assert cyc is not None and len(cyc) == 6

    def test_fence_none(self):
        assert contains_crown(fence(5)) is None

    def test_crown_with_pendant(self):
        p = Poset.from_covers(
            ["a0", "a1", "b0", "b1", "p"],
            [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1"), ("p", "b0")],
        )
        cyc = contains_crown(p)
        assert cyc is not None and len(cyc) == 4

    def test_cycle_is_in_cover_graph(self):
        cyc = contains_crown(crown(4))
        undirected = {frozenset(e) for e in crown(4).covers}
        for i, v in enumerate(cyc):
            assert frozenset({v, cyc[(i + 1) % len(cyc)]}) in undirected


class TestUniqueSpath:
    """The unique s-path condition, a tree cover graph, which
    ``contractible_height1`` tests, implies contractibility."""

    def test_implies_contractible(self):
        rng = random.Random(3)
        for _ in range(60):
            p = random_height1_poset(rng, 7)
            if p.n and contractible_height1(p):
                assert is_contractible(p)
