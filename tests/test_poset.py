import math

import pytest
from hypothesis import given, settings, strategies as st

from finspace import (
    CycleError,
    DuplicateLabel,
    EmptyPoset,
    Poset,
    Preorder,
    UnknownLabel,
    antichain,
    chain,
    classify,
    crown,
    fence,
    kolmogorov_quotient,
)
from finspace.poset import bits

from helpers import (
    assert_same_poset, classify_by_dfs, closure_by_warshall, poset_by_closure, random_pairs,
    time_limit, transitive_closure_oracle,
)


class TestFromCovers:
    def test_single_cover(self):
        p = Poset.from_covers(["a", "b"], [("a", "b")])
        assert p.leq(p.index("a"), p.index("b"))
        assert p.covers == {(0, 1)}

    def test_reflexive_pairs_ignored(self):
        p = Poset.from_covers(["a"], [("a", "a")])
        assert p.n == 1 and not p.covers

    def test_redundant_pair_re_reduced(self):
        p = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert p.covers == {(0, 1), (1, 2)}
        # oracle: closure by triple scan, reduction by middle-element scan
        closure = transitive_closure_oracle(3, [(0, 1), (1, 2), (0, 2)])
        reduced = {
            (a, b) for (a, b) in closure
            if not any((a, c) in closure and (c, b) in closure for c in range(3))
        }
        assert p.covers == reduced

    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    def test_unknown_and_duplicate_labels(self):
        with pytest.raises(UnknownLabel):
            Poset.from_covers(["a"], [("a", "z")])
        with pytest.raises(DuplicateLabel):
            Poset.from_covers(["a", "a"], [])


class TestOrderQueries:
    def test_leq_reflexive_and_antisymmetric(self):
        p = chain(2)
        assert p.leq(0, 0)
        assert p.leq(0, 1) and not p.leq(1, 0)

    def test_crown_cross_relation(self):
        c = crown(2)
        assert c.leq(c.index("a0"), c.index("b1"))

    def test_down_up_sets(self):
        p = chain(3)
        assert p.down_set(1) == {0, 1}
        a = antichain(3)
        assert a.down_set(1) == {1}

    def test_fence_up_set_exact(self):
        f = fence(4)  # x0 < x1 > x2 < x3
        assert f.up_set(f.index("x2")) == {f.index("x2"), f.index("x1"), f.index("x3")}

    def test_comparable(self):
        assert chain(2).comparable(0, 1)
        assert not antichain(2).comparable(0, 1)
        c = crown(2)
        assert not c.comparable(c.index("b0"), c.index("b1"))

    def test_max_min_antichain(self):
        c = crown(2)
        assert c.max_elements() == {c.index("b0"), c.index("b1")}
        assert c.is_antichain({c.index("a0"), c.index("a1")})
        assert not c.is_antichain({c.index("a0"), c.index("b0")})

    def test_height(self):
        assert chain(3).height() == 2
        assert crown(4).height() == 1
        with pytest.raises(EmptyPoset):
            chain(0).height()

    def test_height_of_a_long_chain_in_linear_time(self):
        with time_limit(2, "chain(5000).height()"):
            assert chain(5000).height() == 4999


class TestConnectivity:
    def test_components(self):
        assert len(antichain(3).components()) == 3
        assert len(fence(5).components()) == 1
        # disjoint union of a 2-chain and a crown
        p = Poset.from_covers(
            ["a", "b", "c0", "c1", "d0", "d1"],
            [("a", "b"), ("c0", "d0"), ("c0", "d1"), ("c1", "d0"), ("c1", "d1")],
        )
        assert len(p.components()) == 2

    def test_spath_distance(self):
        f = fence(4)
        assert f.spath_distance(0, 3) == 3
        assert f.spath_distance(2, 2) == 0
        assert antichain(2).spath_distance(0, 1) == math.inf

    def test_spath_metric_properties(self):
        import random

        from finspace.generators import random_poset

        for seed in range(5):
            p = random_poset(7, 0.35, seed)
            for x in range(p.n):
                for y in range(p.n):
                    d = p.spath_distance(x, y)
                    assert d == p.spath_distance(y, x)
                    assert (d == 0) == (x == y)
                    for z in range(p.n):
                        d2 = p.spath_distance(x, z) + p.spath_distance(z, y)
                        assert d <= d2

    def test_ball(self):
        f = fence(5)
        assert f.ball(2, 0) == {2}
        assert f.ball(2, 1) == {1, 2, 3}
        assert f.ball(0, f.n) == set(range(5))

    def test_components_match_bfs_oracle(self):
        from finspace.generators import random_poset

        for seed in range(10):
            p = random_poset(6, 0.3, seed)
            # oracle: BFS on the comparability graph using ball exhaustion
            for part in p.components():
                x = min(part)
                assert p.ball(x, p.n) == part


class TestKolmogorov:
    def test_total_collapse(self):
        q = Preorder.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])
        p, proj = kolmogorov_quotient(q)
        assert p.n == 1 and proj == [0, 0]

    def test_poset_input_identity_like(self):
        p0 = fence(4)
        q = Preorder.from_poset(p0)
        p, proj = kolmogorov_quotient(q)
        assert p.n == p0.n
        assert p.up == p0.up
        assert proj == list(range(p0.n))

    def test_partial_collapse(self):
        q = Preorder.from_pairs(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "a"), ("a", "c"), ("a", "d")],
        )
        p, proj = kolmogorov_quotient(q)
        assert p.n == 3
        assert proj[0] == proj[1]
        # projection is order-preserving and surjective
        assert set(proj) == set(range(3))
        for x in range(q.n):
            for y in range(q.n):
                if q.leq(x, y):
                    assert p.leq(proj[x], proj[y])


class TestPreorderFromPairs:
    """``Preorder.from_pairs`` checks its label pairs as ``from_covers`` does."""

    @pytest.mark.parametrize("labels, pairs, error, message", [
        (["a", "b", "a"], [], DuplicateLabel, "duplicate label 'a'"),
        (["a", "b"], [("a", "z")], UnknownLabel, "unknown label 'z'"),
        (["a", "b"], [("z", "a")], UnknownLabel, "unknown label 'z'"),
        (["a", "b"], [("y", "z")], UnknownLabel, "unknown label 'y'"),
    ])
    def test_errors_match_from_covers(self, labels, pairs, error, message):
        for build in (Poset.from_covers, Preorder.from_pairs):
            with pytest.raises(error) as err:
                build(labels, pairs)
            assert str(err.value) == message

    def test_self_pairs_and_two_cycles(self):
        labels = ["a", "b", "c"]
        q = Preorder.from_pairs(labels, [("a", "a"), ("a", "b"), ("b", "a"), ("c", "c")])
        assert q.rel == [0b011, 0b011, 0b100]
        assert Preorder.from_pairs(labels, [("a", "b"), ("b", "a")]).rel == q.rel


class TestRestrict:
    def test_ids_out_of_range(self):
        for keep in ([0, 5], [-1, 0], [3], [0, 1, 2, 3]):
            with pytest.raises(UnknownLabel):
                chain(3).restrict(keep)


class TestClassify:
    def test_examples(self):
        assert classify(chain(3)).bp_step_bound == 2
        assert classify(crown(2)).bp_step_bound == 3
        rec = classify(antichain(5))
        assert rec.bp_step_bound == 0 and rec.bp_element_bound == 1
        assert rec.comparability_degree == 1 and not rec.approximate

    def test_truncated_flag(self):
        rec = classify(chain(30))
        assert rec.approximate and rec.bp_step_bound == 29


@given(st.integers(2, 7), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_invariants_random(n, seed):
    from finspace.generators import random_poset

    p = random_poset(n, 0.4, seed)
    # antisymmetry: down  up = {x}
    for x in range(p.n):
        assert p.down_set(x) & p.up_set(x) == {x}
    # covers regenerate leq under closure (round trip)
    q = Poset.from_covers(p.labels, [(p.labels[a], p.labels[b]) for a, b in p.covers])
    assert q.up == p.up and q.covers == p.covers
    # no cover pair has an intermediate element
    for a, b in p.covers:
        assert not any(p.lt(a, c) and p.lt(c, b) for c in range(p.n))
    # kolmogorov quotient of a poset is the poset
    pq, proj = kolmogorov_quotient(Preorder.from_poset(p))
    assert pq.up == p.up


def assert_names_a_cycle_element(err, labels, pairs):
    """The element x a CycleError names has some other y with x <= y <= x
    in the Warshall closure of the pairs."""
    x = labels.index(str(err).split("'")[1])
    assert str(err) == f"cycle through element {labels[x]!r}"
    adj = [1 << i for i in range(len(labels))]
    for a, b in pairs:
        adj[labels.index(a)] |= 1 << labels.index(b)
    reach = closure_by_warshall(adj)
    assert any(y != x and reach[x] >> y & 1 and reach[y] >> x & 1
               for y in range(len(labels))), labels[x]


class TestBuilderAgainstClosure:
    """The Kahn's-order builder and everything built on it against the
    Warshall closure and full cover scan."""

    CASES = 300

    def cases(self):
        import random

        for seed in range(self.CASES):
            rng = random.Random(seed)
            n = rng.randint(0, 24)
            labels = [f"e{i}" for i in range(n)]
            yield rng, labels, random_pairs(rng, n, rng.choice((0.05, 0.15, 0.3, 0.6)))

    def test_from_covers(self):
        for _, labels, pairs in self.cases():
            p = Poset.from_covers(labels, pairs)
            assert_same_poset(p, poset_by_closure(labels, pairs))
            # the pair set is read off the masks, and either mask gives it
            from_lower = {(a, b) for b, m in enumerate(p.lower_covers) for a in bits(m)}
            from_upper = {(a, b) for a, m in enumerate(p.upper_covers) for b in bits(m)}
            assert p.covers == from_lower == from_upper

    def test_restrict(self):
        for rng, labels, pairs in self.cases():
            p = Poset.from_covers(labels, pairs)
            keep = [i for i in range(p.n) if rng.random() < rng.random()]
            rng.shuffle(keep)
            sub, old_to_new = p.restrict(keep)
            kept = sorted(keep)
            assert old_to_new == {old: new for new, old in enumerate(kept)}
            induced = [(p.labels[a], p.labels[b]) for a in kept for b in kept if p.lt(a, b)]
            assert_same_poset(sub, poset_by_closure([p.labels[i] for i in kept], induced))

    def test_dual(self):
        for _, labels, pairs in self.cases():
            p = Poset.from_covers(labels, pairs)
            assert_same_poset(p.dual(), poset_by_closure(labels, [(b, a) for a, b in pairs]))
            assert p.dual().covers == {(b, a) for a, b in p.covers}

    def test_kolmogorov_quotient(self):
        for rng, labels, pairs in self.cases():
            # back edges make cycles, which the quotient collapses
            pairs = pairs + [(b, a) for a, b in pairs if rng.random() < 0.05]
            q = Preorder.from_pairs(labels, pairs)
            adj = [1 << i for i in range(len(labels))]
            for a, b in pairs:
                adj[labels.index(a)] |= 1 << labels.index(b)
            assert q.rel == closure_by_warshall(adj)
            p, proj = kolmogorov_quotient(q)
            reps = [proj.index(c) for c in range(p.n)]
            between = [(q.labels[a], q.labels[b]) for a in reps for b in reps
                       if a != b and q.leq(a, b)]
            assert_same_poset(p, poset_by_closure([q.labels[r] for r in reps], between))

    def test_cycles_agree(self):
        import random

        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 12)
            labels = [f"e{i}" for i in range(n)]
            pairs = random_pairs(rng, n, 0.3) + [(f"e{rng.randrange(n)}", f"e{rng.randrange(n)}")]
            try:
                expected = poset_by_closure(labels, pairs)
            except CycleError:
                with pytest.raises(CycleError) as err:
                    Poset.from_covers(labels, pairs)
                assert_names_a_cycle_element(err.value, labels, pairs)
            else:
                assert_same_poset(Poset.from_covers(labels, pairs), expected)

    def test_cycle_error_names_an_element_on_a_cycle(self):
        # a -> b <-> c, with a tail c -> t whose id is the lowest left unordered
        labels = ["t", "a", "b", "c", "s"]
        pairs = [("s", "a"), ("a", "b"), ("b", "c"), ("c", "b"), ("c", "t")]
        with pytest.raises(CycleError) as err:
            Poset.from_covers(labels, pairs)
        assert str(err.value) in ("cycle through element 'b'", "cycle through element 'c'")

    def test_cycle_error_walks_past_tails_and_a_second_cycle(self):
        # left unordered: cycles a0 -> a1 -> a2 -> a0 and b0 <-> b1, the tail
        # a2 -> j0 -> j1 -> b0 joining them and the tail b1 -> h0 -> h1 above
        # b1, with h1 the lowest id; s0 -> s1 -> a0 below a cycle is ordered
        labels = ["h1", "s0", "h0", "b1", "a2", "j0", "b0", "j1", "a0", "s1", "a1"]
        pairs = [("a0", "a1"), ("a1", "a2"), ("a2", "a0"), ("b0", "b1"), ("b1", "b0"),
                 ("a2", "j0"), ("j0", "j1"), ("j1", "b0"), ("b1", "h0"), ("h0", "h1"),
                 ("s0", "s1"), ("s1", "a0")]
        with pytest.raises(CycleError) as err:
            Poset.from_covers(labels, pairs)
        assert_names_a_cycle_element(err.value, labels, pairs)

    def test_duplicate_successors(self):
        # every pair given twice or three times, so the successor lists hold
        # repeats of covers and of non-covers alike
        for rng, labels, pairs in self.cases():
            repeated = pairs + pairs + [ab for ab in pairs if rng.random() < 0.5]
            rng.shuffle(repeated)
            assert_same_poset(Poset.from_covers(labels, repeated), poset_by_closure(labels, pairs))

    def test_reverse_topological_pairs(self):
        # shuffled ids, pairs listed from the top of a hidden linear extension
        # down, so every successor list runs highest first and no reached
        # successor is skipped before it is expanded
        for rng, labels, _ in self.cases():
            n = len(labels)
            rank = list(range(n))
            rng.shuffle(rank)
            pairs = [(a, b) for a in range(n) for b in range(n)
                     if rank[a] < rank[b] and rng.random() < 0.3]
            pairs.sort(key=lambda ab: (-rank[ab[0]], -rank[ab[1]]))
            pairs = [(labels[a], labels[b]) for a, b in pairs]
            assert_same_poset(Poset.from_covers(labels, pairs), poset_by_closure(labels, pairs))

    def test_chain_from_all_comparable_pairs_shuffled(self):
        import random

        rng = random.Random(38)
        n = 80
        place = list(range(n))
        rng.shuffle(place)  # place[k] is the id of the k-th point up the chain
        labels = [f"c{i}" for i in range(n)]
        pairs = [(labels[place[i]], labels[place[j]]) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        p = Poset.from_covers(labels, pairs)
        assert_same_poset(p, poset_by_closure(labels, pairs))
        assert p.covers == {(place[k], place[k + 1]) for k in range(n - 1)}


# (n, seed) -> (comparability degree, longest simple path in steps) of
# random_poset(n, 0.3, seed), frozen from the exhaustive search
CLASSIFY_GOLDENS = {
    (10, 7): (9, 9),
    (11, 6): (8, 10),
    (11, 8): (10, 10),
    (12, 4): (11, 11),
    (13, 2): (8, 11),
    (13, 5): (9, 11),
}


class TestClassifyAgainstDFS:
    def test_random_small(self):
        import random

        from finspace.generators import random_poset

        rng = random.Random(0)
        for seed in range(300):
            n = rng.randint(0, 12)
            p = random_poset(n, rng.choice((0.1, 0.2, 0.3, 0.5)), seed)
            assert classify(p) == classify_by_dfs(p)

    def test_families(self):
        for p in (chain(12), antichain(9), fence(12), crown(6)):
            assert classify(p) == classify_by_dfs(p)

    def test_goldens(self):
        from finspace.generators import random_poset

        for (n, seed), (degree, steps) in CLASSIFY_GOLDENS.items():
            rec = classify(random_poset(n, 0.3, seed))
            assert (rec.comparability_degree, rec.bp_step_bound) == (degree, steps)
            assert rec.bp_element_bound == steps + 1 and not rec.approximate

    def test_state_budget_gives_the_approximate_record(self):
        # K(8, 10) has no Hamiltonian path, so the search would expand
        # about n * 2^n states; it stops at CLASSIFY_STATE_BUDGET pushes
        # and reports the trivial bound instead.
        import time

        labels = [f"a{i}" for i in range(8)] + [f"b{j}" for j in range(10)]
        k = Poset.from_covers(labels, [(a, b) for a in labels[:8] for b in labels[8:]])
        start = time.process_time()
        rec = classify(k)
        assert time.process_time() - start < 1
        assert rec.approximate and (rec.bp_step_bound, rec.bp_element_bound) == (17, 18)
        assert rec.comparability_degree == 11

    def test_sixteen_elements_within_a_time_bound(self):
        # A Hamiltonian path exists, but the plain DFS from element 0 runs
        # for minutes before it finds one; with each state expanded once
        # the search takes well under a second.
        from finspace.generators import random_poset

        with time_limit(30, "classify(random_poset(16, 0.3, 1))"):
            rec = classify(random_poset(16, 0.3, 1))
        assert (rec.comparability_degree, rec.bp_step_bound) == (14, 15)
