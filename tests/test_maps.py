import random

import pytest

from finspace import (
    FunctionPoset,
    GuardExceeded,
    MonotoneMap,
    UnknownLabel,
    antichain,
    chain,
    compose,
    constant,
    crown,
    enumerate_monotone,
    fence,
    has_fpp,
    homotopy_classes,
    identity,
    is_homotopic,
    is_retraction,
    min_contraction_chain,
)
from finspace.generators import random_poset
from finspace.maps import (
    _count_partial_maps, _iter_assignments, count_monotone, function_space_counts,
)
from finspace.poset import Poset
from finspace.reduction import core, is_core, remove_beat_point

from helpers import (
    assert_same_poset,
    assignments_by_predecessors,
    brute_force_monotone,
    components_by_comparability,
    count_by_enumeration,
    crown_union,
    fpp_by_enumeration,
    pointwise_order,
    poset_by_closure,
    posets_up_to_iso,
    with_beat_points,
)


def random_pairs_of_posets(seed, count, max_size):
    rng = random.Random(seed)
    for _ in range(count):
        x = random_poset(rng.randint(0, max_size), rng.choice([0.2, 0.4, 0.6]),
                         rng.randrange(1 << 30))
        y = random_poset(rng.randint(0, max_size), rng.choice([0.2, 0.4, 0.6]),
                         rng.randrange(1 << 30))
        yield x, y


class TestEnumeration:
    def test_two_chain_self_maps(self):
        c = enumerate_monotone(chain(2), chain(2))
        assert c.assignments == [(0, 0), (0, 1), (1, 1)]
        assert pointwise_order(c).covers == {(0, 1), (1, 2)}  # a 3-chain

    def test_antichain_to_chain_grid(self):
        c = enumerate_monotone(antichain(2), chain(2))
        assert len(c) == 4
        assert len(pointwise_order(c).covers) == 4  # the 2x2 grid has 4 covers

    def test_crown_to_point(self):
        c = enumerate_monotone(crown(2), chain(1))
        assert len(c) == 1

    def test_matches_brute_force_filter(self):
        posets = [chain(3), fence(3), antichain(3), crown(2).restrict([0, 1, 2])[0]]
        for x in posets:
            for y in posets:
                c = enumerate_monotone(x, y)
                assert c.assignments == brute_force_monotone(x, y)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_monotone(antichain(8), antichain(8), guard=1000)
        assert count_monotone(chain(2), chain(2)) == 3

    def test_kernel_matches_predecessor_search(self):
        for x, y in random_pairs_of_posets(8, 300, 6):
            assert list(_iter_assignments(x, y)) == list(assignments_by_predecessors(x, y))
        empty, point = chain(0), chain(1)
        for x, y in [(empty, empty), (empty, fence(3)), (fence(3), empty), (point, empty)]:
            assert list(_iter_assignments(x, y)) == list(assignments_by_predecessors(x, y))
        assert list(_iter_assignments(empty, fence(3))) == [()]
        assert list(_iter_assignments(fence(3), empty)) == []

    def test_kernel_restricted_domains(self):
        # the fixed-point-free self-maps of a crown, against a filter
        p = crown(3)
        domains = [p.full_mask & ~(1 << i) for i in range(p.n)]
        expected = [a for a in brute_force_monotone(p, p) if all(a[i] != i for i in range(p.n))]
        assert list(_iter_assignments(p, p, domains)) == expected

    def test_kernel_node_guard(self):
        p = crown(4)
        domains = [p.full_mask & ~(1 << i) for i in range(p.n)]
        assert next(_iter_assignments(p, p, domains, node_guard=100)) is not None
        with pytest.raises(GuardExceeded, match="more than 3 search nodes"):
            next(_iter_assignments(p, p, domains, node_guard=3))

    @pytest.mark.parametrize("x, y, own_point_removed, nodes, count", [
        (crown(3), crown(3), False, 690, 234),
        (fence(6), fence(6), False, 495, 275),
        (crown(4), crown(4), True, 320, 3),
        (chain(1), chain(4), False, 4, 4),
        (antichain(3), chain(5), False, 155, 125),
    ], ids=["crown3-self", "fence6-self", "crown4-fixed-point-free", "point-chain4",
            "antichain3-chain5"])
    def test_kernel_node_count(self, x, y, own_point_removed, nodes, count):
        # the smallest node_guard that lets the search finish is its node count
        domains = [x.full_mask & ~(1 << i) for i in range(x.n)] if own_point_removed else None
        assert len(list(_iter_assignments(x, y, domains, node_guard=nodes))) == count
        with pytest.raises(GuardExceeded):
            list(_iter_assignments(x, y, domains, node_guard=nodes - 1))

    def test_count_matches_enumeration(self):
        for x, y in random_pairs_of_posets(9, 400, 7):
            assert count_monotone(x, y) == count_by_enumeration(x, y)
        assert count_monotone(chain(0), fence(3)) == 1
        assert count_monotone(fence(3), chain(0)) == 0
        assert count_monotone(fence(9), fence(9)) == 6187

    def test_count_guard(self):
        assert count_monotone(antichain(6), chain(3), guard=729) == 729
        with pytest.raises(GuardExceeded, match="more than 728 monotone maps"):
            count_monotone(antichain(6), chain(3), guard=728)
        # in id order the open positions of antichain(3) below a top element
        # took 4**3 values before the top was assigned; the frontier order
        # places the top second, so the table never holds more than 4 entries
        x = poset_by_closure(["a", "b", "c", "t"], [("a", "t"), ("b", "t"), ("c", "t")])
        assert count_monotone(x, antichain(4), guard=4) == 4
        # every order of K(3,3) keeps three positions open: 100 entries into
        # chain(4), while the count is 442
        mins, maxs = ["a1", "a2", "a3"], ["b1", "b2", "b3"]
        k33 = poset_by_closure(mins + maxs, [(a, b) for a in mins for b in maxs])
        with pytest.raises(GuardExceeded, match="more than 20 partial-map states"):
            count_monotone(k33, chain(4), guard=20)
        assert count_monotone(k33, chain(4)) == 442

    def test_lexicographic_order(self):
        c = enumerate_monotone(fence(3), fence(3))
        assert c.assignments == sorted(c.assignments)


    def test_helper_checks_survive_python_O(self):
        # helpers is registered for assertion rewriting in conftest.py
        with pytest.raises(AssertionError):
            assert_same_poset(chain(2), chain(3))


class TestAlgebra:
    def test_compose_identity(self):
        p = fence(4)
        f = constant(p, p, 1)
        assert compose(identity(p), f).assignment == f.assignment
        assert compose(f, identity(p)).assignment == f.assignment

    def test_constant_always_monotone(self):
        for p in [chain(3), crown(2), antichain(4)]:
            for y in range(p.n):
                constant(p, p, y)  # no exception

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match=r"^not monotone: 0 <= 1 but images are "
                                             r"incomparable-or-reversed$"):
            MonotoneMap(chain(2), chain(2), (1, 0))

    @pytest.mark.parametrize("n_dom, n_cod, values", [
        (1, 2, (5,)),  # past the last point
        (2, 3, (-1, 2)),  # would wrap to the last point
        (2, 3, (-1, -1)),  # would reach a negative shift
    ])
    def test_values_outside_codomain_rejected(self, n_dom, n_cod, values):
        with pytest.raises(ValueError, match=r"outside the codomain 0\.\.%d$" % (n_cod - 1)):
            MonotoneMap(chain(n_dom), chain(n_cod), values)

    def test_compose_fence_shifts(self):
        p = fence(4)
        # fold the end of the zigzag, then push the first minimum up
        f = MonotoneMap(p, p, (1, 1, 2, 1))
        g = MonotoneMap(p, p, (1, 1, 2, 3))
        assert compose(f, g).assignment == (1, 1, 2, 1)


class TestHomotopy:
    def test_reflexive(self):
        c = enumerate_monotone(chain(2), chain(2))
        ok, chn = is_homotopic(c, 1, 1)
        assert ok and chn == [1]

    def test_unknown_maps_rejected(self):
        c = enumerate_monotone(chain(2), antichain(2))
        assert len(c) == 2
        for f, g in ((-1, 1), (7, 7), (0, 2)):
            with pytest.raises(UnknownLabel, match="^map -?[0-9] out of range$"):
                is_homotopic(c, f, g)
        with pytest.raises(UnknownLabel, match=r"^\(0, 1\) is not a map of C\(X, Y\)$"):
            c.index_of((0, 1))

    def test_constants_homotopic_in_chain(self):
        p = chain(2)
        c = enumerate_monotone(p, p)
        ok, chn = is_homotopic(c, c.index_of((0, 0)), c.index_of((1, 1)))
        assert ok and len(chn) >= 2

    def test_crown_id_not_homotopic_to_constant(self):
        p = crown(2)
        c = enumerate_monotone(p, p)
        ok, chn = is_homotopic(c, c.identity_index(), c.index_of((0,) * 4))
        assert not ok and chn is None

    def test_classes(self):
        assert len(homotopy_classes(enumerate_monotone(chain(2), chain(2)))) == 1
        p = crown(2)
        c = enumerate_monotone(p, p)
        classes = homotopy_classes(c)
        ident = c.identity_index()
        id_class = next(part for part in classes if ident in part)
        assert id_class == {ident}
        assert len(homotopy_classes(enumerate_monotone(crown(3), chain(1)))) == 1

    def test_constants_of_a_long_chain(self):
        # 35,937 maps: the constants 0 <= 32 are one comparability step apart
        c = enumerate_monotone(antichain(3), chain(33))
        assert len(c) == 35937
        ok, chn = is_homotopic(c, c.index_of((0, 0, 0)), c.index_of((32, 32, 32)))
        assert ok and chn == [c.index_of((0, 0, 0)), c.index_of((32, 32, 32))]

    def test_down_flood_passes_maps_the_up_flood_found(self):
        # Y: s1 < t < s and s1 < c < s, with h < c.  From t, layer 1 is
        # {s1, s}; the up-flood from s1 finds c first, and the down-flood
        # from s must still pass c to reach h at distance 2, not 3
        y = Poset.from_covers(["s1", "t", "s", "c", "h"],
                              [("s1", "t"), ("t", "s"), ("s1", "c"), ("c", "s"), ("h", "c")])
        c = enumerate_monotone(chain(1), y)
        t, s, h = (c.index_of((y.index(lab),)) for lab in ("t", "s", "h"))
        assert is_homotopic(c, t, h) == (True, [t, s, h])

    def test_equivalence_relation_on_sample(self):
        c = enumerate_monotone(fence(4), fence(4))
        idx = list(range(0, len(c), max(1, len(c) // 6)))
        for i in idx:
            assert is_homotopic(c, i, i)[0]
            for j in idx:
                assert is_homotopic(c, i, j)[0] == is_homotopic(c, j, i)[0]
                for k in idx:
                    if is_homotopic(c, i, j)[0] and is_homotopic(c, j, k)[0]:
                        assert is_homotopic(c, i, k)[0]


def _class_corpus_poset(rng):
    """A small poset that is a core (crowns, antichains, crown unions), a
    random one (seldom a core), or a core with beat points added."""
    kind = rng.randrange(6)
    if kind == 0:
        return random_poset(rng.randint(0, 7), rng.choice([0.2, 0.4, 0.6]),
                            rng.randrange(1 << 30))
    if kind == 1:
        return crown(rng.choice([2, 3]))
    if kind == 2:
        return antichain(rng.randint(0, 3))
    if kind == 3:
        return crown_union(2, 2)
    base = rng.choice([crown(2), antichain(2), crown_union(2, 2), crown(3)])
    return with_beat_points(base, rng, rng.randint(1, 3))


class TestClassesThroughCores:
    def test_matches_comparability_oracle(self):
        rng = random.Random(20261019)
        seen = {"both cores": 0, "one core": 0, "no core": 0, "disconnected": 0,
                "empty": 0, "several classes off the cores": 0}
        done = 0
        while done < 250:
            x, y = _class_corpus_poset(rng), _class_corpus_poset(rng)
            if count_monotone(x, y, guard=10**6) > 1000:
                continue
            c = enumerate_monotone(x, y)
            expected = components_by_comparability(c)
            assert homotopy_classes(c) == expected
            cores = is_core(x) + is_core(y)
            seen[["no core", "one core", "both cores"][cores]] += 1
            seen["disconnected"] += len(x.components()) > 1 or len(y.components()) > 1
            seen["empty"] += x.n == 0 or y.n == 0
            seen["several classes off the cores"] += cores < 2 and len(expected) > 1
            done += 1
        assert min(seen.values()) >= 10, seen

    def test_empty_sides(self):
        for x, y, expected in [(chain(0), chain(0), [{0}]), (chain(0), crown(2), [{0}]),
                               (fence(3), chain(0), []), (crown(2), chain(0), [])]:
            c = enumerate_monotone(x, y)
            assert homotopy_classes(c) == expected == components_by_comparability(c)

    def test_classes_off_the_cores(self):
        # crowns with beat points: C(crown(2), crown(2)) has 6 classes
        rng = random.Random(7)
        x = with_beat_points(crown(2), rng, 3)
        y = with_beat_points(crown(2), rng, 2)
        c = enumerate_monotone(x, y)
        classes = homotopy_classes(c)
        assert len(classes) == len(homotopy_classes(enumerate_monotone(crown(2), crown(2))))
        assert classes == components_by_comparability(c)


class TestMinContractionChain:
    def test_singleton(self):
        assert min_contraction_chain(chain(1)) == 0

    def test_two_chain(self):
        assert min_contraction_chain(chain(2)) == 1

    def test_fence_goldens(self):
        # derived once by BFS in C(X,X) and frozen; equals ceil((n-1)/2)
        assert [min_contraction_chain(fence(n)) for n in range(2, 7)] == [1, 1, 2, 2, 3]

    def test_not_contractible(self):
        assert min_contraction_chain(crown(2)) is None

    def test_fences_11_and_12(self):
        # 44,931 self-maps of fence(11): their m^2 pointwise order would
        # need 2 * 10**9 bits; the chains still grow as ceil((n-1)/2)
        assert [min_contraction_chain(fence(n)) for n in (11, 12)] == [5, 6]


def assert_fixed_point_free(p, witness):
    a = MonotoneMap(p, p, witness.assignment).assignment  # rebuilt: monotone
    assert all(a[i] != i for i in range(p.n))


class TestFpp:
    def test_chains(self):
        for n in range(1, 6):
            ok, witness = has_fpp(chain(n))
            assert ok and witness is None

    def test_crown_half_rotation(self):
        ok, witness = has_fpp(crown(2))
        assert not ok
        a = witness.assignment
        assert all(a[i] != i for i in range(4))
        assert witness.assignment == (1, 0, 3, 2)

    def test_singleton(self):
        assert has_fpp(chain(1)) == (True, None)

    def test_empty(self):
        ok, witness = has_fpp(chain(0))
        assert not ok and witness.assignment == () and witness.domain.n == 0

    def test_matches_enumeration_up_to_iso(self):
        for n in range(1, 6):
            for p in posets_up_to_iso(n):
                ok, witness = has_fpp(p)
                assert ok == fpp_by_enumeration(p)[0]
                if not ok:
                    assert_fixed_point_free(p, witness)

    def test_matches_enumeration_on_random_posets(self):
        rng = random.Random(20261018)
        for _ in range(300):
            p = random_poset(rng.randint(1, 8), rng.choice([0.2, 0.35, 0.5]),
                             rng.randrange(1 << 30))
            ok, witness = has_fpp(p)
            slow_ok, slow_witness = fpp_by_enumeration(p)
            assert ok == slow_ok
            if not ok:
                assert_fixed_point_free(p, witness)
                if is_core(p):  # no lift: the lexicographically first map
                    assert witness.assignment == slow_witness.assignment

    def test_lifted_witness_off_the_core(self):
        # a crown with a tail: the witness moves the tail into the core
        x = poset_by_closure(
            ["a0", "a1", "b0", "b1", "t"],
            [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1"), ("t", "a0")])
        assert core(x).core.n == 4
        ok, witness = has_fpp(x)
        assert not ok
        assert_fixed_point_free(x, witness)
        assert witness.image() <= core(x).core_elements

    def test_large_crowns_and_fences(self):
        for k in (8, 30):
            ok, witness = has_fpp(crown(k))
            assert not ok
            assert_fixed_point_free(crown(k), witness)
        assert has_fpp(fence(30), guard=1) == (True, None)

    def test_node_guard(self):
        with pytest.raises(GuardExceeded, match="search nodes"):
            has_fpp(crown(3), guard=2)


class TestIsRetraction:
    def test_identity(self):
        p = fence(4)
        kind = is_retraction(p, identity(p), range(p.n))
        assert kind and kind.comparative and kind.up and kind.down

    def test_non_comparative_choice(self):
        p = fence(3)  # x0 < x1 > x2
        r = MonotoneMap(p, p, (0, 1, 0))  # x2 -> x0 with x0 incomparable to x2
        kind = is_retraction(p, r, {0, 1})
        assert kind.retraction and not kind.comparative

    def test_beat_point_removal_is_comparative(self):
        p = fence(3)
        step = remove_beat_point(p, 0)
        r = MonotoneMap(p, p, tuple(step.mapping.get(i, i) for i in range(p.n)))
        kind = is_retraction(p, r, set(range(p.n)) - step.removed)
        assert kind and kind.comparative

    def test_wrong_image_rejected(self):
        p = chain(2)
        kind = is_retraction(p, constant(p, p, 1), {0, 1})
        assert not kind

    def test_comparative_retractions_factor_up_then_down(self):
        # r = min(id, r) o max(id, r) for a comparative retraction r: both
        # factors are monotone (MonotoneMap checks it) and r is idempotent
        comparative = 0
        for seed in range(200):
            p = random_poset(2 + seed % 5, 0.4, seed)
            for a in enumerate_monotone(p, p).assignments:
                if any(a[v] != v for v in a):
                    continue  # not idempotent
                kind = is_retraction(p, MonotoneMap(p, p, a), set(a))
                assert kind
                if not kind.comparative:
                    continue
                ru = MonotoneMap(p, p, tuple(v if p.leq(i, v) else i for i, v in enumerate(a)))
                rd = MonotoneMap(p, p, tuple(v if p.leq(v, i) else i for i, v in enumerate(a)))
                assert compose(rd, ru).assignment == a
                comparative += 1
        assert comparative > 2000


def _partition(roots):
    """Map indices grouped by class root, ordered by lowest index."""
    parts = {}
    for i, k in enumerate(roots):
        parts.setdefault(k, set()).add(i)
    return [frozenset(part) for part in parts.values()]


def _shuffled(p, seed):
    """p with its element ids permuted."""
    labels = list(p.labels)
    random.Random(seed).shuffle(labels)
    return Poset.from_covers(labels, [(p.labels[a], p.labels[b]) for a, b in p.covers])


class TestCountingPath:
    def test_counts_match_the_listing_oracle(self):
        rng = random.Random(20261018)
        seen = {"both cores": 0, "one core": 0, "no core": 0, "self-maps": 0,
                "several classes": 0}
        done = 0
        while done < 300:
            x = random_poset(rng.randint(0, 6), rng.choice([0.2, 0.4, 0.6]),
                             rng.randrange(1 << 30))
            self_map = rng.random() < 0.4
            y = x if self_map else random_poset(rng.randint(0, 6), rng.choice([0.2, 0.4, 0.6]),
                                                rng.randrange(1 << 30))
            if count_monotone(x, y, guard=10**6) > 1500:
                continue
            c = enumerate_monotone(x, y)
            classes = components_by_comparability(c)
            expected_id = None
            if x.up == y.up:
                ident = c.identity_index()
                expected_id = len(next(part for part in classes if ident in part))
            assert function_space_counts(x, y) == (len(c), len(classes), expected_id)
            cores = is_core(x) + is_core(y)
            seen[["no core", "one core", "both cores"][cores]] += 1
            seen["self-maps"] += self_map
            seen["several classes"] += len(classes) > 1
            done += 1
        assert min(seen.values()) >= 20, seen
        assert seen["self-maps"] >= 90, seen

    def test_move_kernel_matches_comparability_oracle(self):
        rng = random.Random(20261020)
        done = 0
        while done < 200:
            x, y = _class_corpus_poset(rng), _class_corpus_poset(rng)
            if count_monotone(x, y, guard=10**6) > 1000:
                continue
            c = enumerate_monotone(x, y)
            roots = c.class_roots()
            expected = components_by_comparability(c)
            assert _partition(roots) == expected
            assert all(roots[i] == min(part) for part in expected for i in part)
            done += 1

    def test_move_kernel_on_pinned_listings_matches_comparability_oracle(self):
        # listings with each domain a single point or all of Y hold every map
        # between two of theirs, so skipping unlisted moves loses no class
        rng = random.Random(20261021)
        seen = {"pointed core": 0, "fixed subset": 0, "pinned values": 0,
                "restricted": 0, "several classes": 0}
        done = 0
        while done < 300:
            x = random_poset(rng.randint(1, 7), rng.choice([0.2, 0.35, 0.5]),
                             rng.randrange(1 << 30))
            kind = rng.choice(list(seen)[:3])
            y = x if kind != "pinned values" else random_poset(
                rng.randint(1, 5), rng.choice([0.2, 0.4]), rng.randrange(1 << 30))
            if kind == "pointed core":
                pinned = {a: a for a in core(x, rng.randrange(x.n)).trace.final}
            elif kind == "fixed subset":
                pinned = {a: a for a in range(x.n) if rng.random() < 0.3}
            else:
                pinned = {a: rng.randrange(y.n) for a in range(x.n) if rng.random() < 0.3}
            domains = [1 << pinned[a] if a in pinned else y.full_mask for a in range(x.n)]
            if _count_partial_maps(x, y, domains, 10**6) > 1000:
                continue
            c = FunctionPoset(x, y, list(_iter_assignments(x, y, domains)))
            roots = c.class_roots()
            expected = components_by_comparability(c)
            assert _partition(roots) == expected
            assert all(roots[i] == min(part) for part in expected for i in part)
            seen[kind] += 1
            seen["restricted"] += len(c) < count_monotone(x, y)
            seen["several classes"] += len(expected) > 1
            done += 1
        assert min(seen.values()) >= 20, seen

    def test_count_with_domains_matches_filtered_enumeration(self):
        rng = random.Random(11)
        for x, y in random_pairs_of_posets(12, 200, 6):
            domains = [rng.randrange(1 << y.n) | rng.randrange(1 << y.n) for _ in range(x.n)]
            expected = [a for a in enumerate_monotone(x, y).assignments
                        if all(domains[i] >> v & 1 for i, v in enumerate(a))]
            assert _count_partial_maps(x, y, domains, 10**6) == len(expected)

    def test_crown6_counts_in_any_id_order(self):
        # in id order the six minima stayed open together and the table
        # passed 10**6 entries; the frontier order keeps four positions open
        assert count_monotone(crown(6), crown(6)) == 64044
        for seed in range(3):
            assert count_monotone(_shuffled(crown(6), seed), _shuffled(crown(6), seed)) == 64044

    def test_counts_past_the_map_guard(self):
        # the guard bounds the core maps and the table, not C(X, Y)
        assert function_space_counts(fence(30), fence(30), guard=1000) == (
            2554364527963, 1, 2554364527963)
        with pytest.raises(GuardExceeded, match="more than 8 monotone maps"):
            function_space_counts(crown(2), crown(2), guard=8)
        with pytest.raises(GuardExceeded, match="more than 10 partial-map states"):
            function_space_counts(fence(30), fence(30), guard=10)

    def test_no_pointwise_order_is_built(self):
        c = enumerate_monotone(crown(3), crown_union(2, 2))
        classes = homotopy_classes(c)
        assert set(vars(c)) <= {"domain", "codomain", "assignments", "_index", "_move_tables"}
        assert classes == components_by_comparability(c)
