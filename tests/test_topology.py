import itertools
import random
import time

import pytest

from finspace import (
    GuardExceeded,
    NotATopology,
    NotDownSet,
    SetFamily,
    UnknownLabel,
    alexandroff_topology,
    antichain,
    chain,
    compact_open_opens,
    compact_open_subbasis,
    count_down_sets,
    crown,
    enumerate_monotone,
    fence,
    generate_topology,
    hom_set_interval,
    specialization_order,
)
from finspace import topology
from finspace.generators import random_poset
from finspace.topology import minimal_opens

from helpers import brute_force_down_sets, pointwise_order


def masks(p, *labelsets):
    out = set()
    for labels in labelsets:
        m = 0
        for lab in labels:
            m |= 1 << p.index(lab)
        out.add(m)
    return out


class TestAlexandroffTopology:
    def test_antichain_discrete(self):
        t = alexandroff_topology(antichain(2))
        assert t.sets == {0, 1, 2, 3}

    def test_sierpinski(self):
        p = chain(2)  # c0 < c1; opens are down-sets
        t = alexandroff_topology(p)
        assert t.sets == masks(p, [], ["c0"], ["c0", "c1"])

    def test_crown_seven_down_sets(self):
        t = alexandroff_topology(crown(2))
        assert len(t) == 7

    def test_matches_brute_force_filter(self):
        for seed in range(8):
            p = random_poset(6, 0.4, seed)
            assert alexandroff_topology(p).sets == brute_force_down_sets(p)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            alexandroff_topology(antichain(21))


class TestMinimalNbhd:
    def test_is_intersection_of_opens(self):
        for seed in range(5):
            p = random_poset(5, 0.4, seed)
            t = alexandroff_topology(p)
            for x in range(p.n):
                inter = t.full_mask
                for m in t.sets:
                    if m >> x & 1:
                        inter &= m
                assert p.down_set(x) == set(
                    i for i in range(p.n) if inter >> i & 1
                )


class TestHomSetInterval:
    def test_empty_k_gives_all(self):
        x = y = chain(2)
        c = enumerate_monotone(x, y)
        assert hom_set_interval(c, [], y.full_mask) == frozenset(range(len(c)))

    def test_two_chain_example(self):
        x = y = chain(2)
        c = enumerate_monotone(x, y)
        got = hom_set_interval(c, [1], 1 << 0)  # K = {top}, U = {bottom}
        assert got == {c.index_of((0, 0))}

    def test_full_k_full_u(self):
        x = y = fence(3)
        c = enumerate_monotone(x, y)
        assert hom_set_interval(c, range(x.n), y.full_mask) == frozenset(range(len(c)))

    def test_not_down_set(self):
        x = y = chain(2)
        c = enumerate_monotone(x, y)
        with pytest.raises(NotDownSet):
            hom_set_interval(c, [0], 1 << 1)  # {top} is not a down-set

    def test_k_outside_domain(self):
        # a negative index must not wrap round to the last point of X
        x, y = chain(2), chain(3)
        c = enumerate_monotone(x, y)
        for k in ([-1], [x.n], [0, 5]):
            with pytest.raises(UnknownLabel):
                hom_set_interval(c, k, y.full_mask)

    def test_u_outside_codomain(self):
        x, y = chain(2), chain(3)
        c = enumerate_monotone(x, y)
        for u in (1 << y.n, y.full_mask | 1 << 7, -1):
            with pytest.raises(NotDownSet):
                hom_set_interval(c, [0], u)

    def test_maxima_suffice(self):
        # [K, U] = [max K, U] for every down-set U: f(e) <= f(o) for e < o
        cases = 0
        for x, y, c in oracle_pairs():
            downs = alexandroff_topology(y).sets
            for r in range(x.n + 1):
                for k in itertools.combinations(range(x.n), r):
                    maxima = [e for e in k if not any(x.lt(e, o) for o in k)]
                    for u in downs:
                        assert hom_set_interval(c, k, u) == hom_set_interval(c, maxima, u)
                        cases += 1
        assert cases > 1000


class TestCompactOpenSubbasis:
    def test_singleton(self):
        x = y = chain(1)
        c = enumerate_monotone(x, y)
        fam = compact_open_subbasis(c)
        assert fam.sets == {1}

    def test_two_chain_pairs(self):
        x = y = chain(2)
        c = enumerate_monotone(x, y)
        fam = compact_open_subbasis(c)
        # 4 (x, y) pairs, possibly with coincident sets
        assert all(m <= fam.full_mask for m in fam.sets)
        assert len(fam) <= 4

    def test_point_domain_gives_principal_down_sets(self):
        x = antichain(1)
        y = crown(2)
        c = enumerate_monotone(x, y)  # maps from a point = points of Y
        fam = compact_open_subbasis(c)
        principal = set()
        for v in range(y.n):
            m = 0
            for i, a in enumerate(c.assignments):
                if y.leq(a[0], v):
                    m |= 1 << i
            principal.add(m)
        assert fam.sets == principal
        assert len(fam) == 4


class TestGenerateTopology:
    def test_empty_subbasis(self):
        fam = generate_topology(SetFamily.of(3, []))
        assert fam.sets == {0, 7}

    def test_single_set(self):
        fam = generate_topology(SetFamily.of(3, [0b011]))
        assert fam.sets == {0, 0b011, 0b111}

    def test_two_chain_function_space(self):
        x = y = chain(2)
        c = enumerate_monotone(x, y)
        gen = generate_topology(compact_open_subbasis(c))
        alex = alexandroff_topology(pointwise_order(c))
        assert gen == alex
        assert len(alex) == 4  # down-sets of the 3-chain C(X,X)

    def test_family_guard(self):
        # C(point, antichain(k)) is discrete: its subbasis is the k singletons
        # and the closure would hold 2**k sets
        point = chain(1)
        for k in (12, 40):
            y = antichain(k)
            sub = compact_open_subbasis(enumerate_monotone(point, y))
            t0 = time.perf_counter()
            with pytest.raises(GuardExceeded, match="closure of more than"):
                generate_topology(sub)
            assert time.perf_counter() - t0 < 2.0
        assert len(generate_topology(SetFamily.of(10, [1 << i for i in range(10)]))) == 1024


class TestSpecializationOrder:
    def test_discrete(self):
        t = SetFamily.of(2, [0, 1, 2, 3])
        q = specialization_order(t)
        assert q.rel == [0b01, 0b10]

    def test_sierpinski(self):
        t = SetFamily.of(2, [0b00, 0b01, 0b11])
        q = specialization_order(t)
        assert q.leq(0, 1) and not q.leq(1, 0)

    def test_round_trip_crown(self):
        c = crown(2)
        q = specialization_order(alexandroff_topology(c))
        assert q.rel == c.up

    def test_not_a_topology(self):
        with pytest.raises(NotATopology):
            specialization_order(SetFamily.of(2, [0b01, 0b10]))


def test_round_trip_random_posets():
    for seed in range(15):
        p = random_poset(6, 0.35, seed)
        q = specialization_order(alexandroff_topology(p))
        assert q.rel == p.up


def test_compact_open_weaker_than_alexandroff():
    # every compact-open open set is a down-set of C(X,Y)
    posets = [chain(2), fence(3), antichain(2)]
    for x in posets:
        for y in posets:
            c = enumerate_monotone(x, y)
            gen = generate_topology(compact_open_subbasis(c))
            alex = alexandroff_topology(pointwise_order(c))
            assert gen.sets <= alex.sets


def oracle_pairs():
    """The test_03 generator pairs, then seeded random pairs up to 10 maps."""
    gens = [chain(1), chain(2), chain(3), antichain(2), fence(3), chain(2)]
    for x, y in itertools.product(gens, gens):
        yield x, y, enumerate_monotone(x, y)
    for seed in range(200):
        x = random_poset(1 + seed % 3, 0.5, seed)
        y = random_poset(2 + seed % 5, 0.4, 1000 + seed)
        c = enumerate_monotone(x, y)
        if len(c) <= 10:
            yield x, y, c


class TestCompactOpenCheck:
    """On finite X and Y the compact-open topology on C(X, Y) is the
    Alexandroff topology of the pointwise order, which ``compact_open_opens``
    takes for granted; these tests check it."""

    def test_matches_closure_oracle(self):
        pairs = 0
        for x, y, c in oracle_pairs():
            generated = generate_topology(compact_open_subbasis(c))
            assert generated == alexandroff_topology(pointwise_order(c))
            assert compact_open_opens(c) == len(generated)
            pairs += 1
        assert pairs > 150

    @pytest.mark.parametrize("x, y, maps", [
        (chain(3), chain(10), 220), (fence(4), fence(8), 79), (crown(2), crown(3), 48)])
    def test_minimal_opens_are_pointwise_down_sets(self, x, y, maps):
        # pairs past the reach of the closure oracle
        c = enumerate_monotone(x, y)
        assert len(c) == maps
        assert minimal_opens(compact_open_subbasis(c)) == pointwise_order(c).down

    def test_dropped_subbasis_member(self):
        # minimal opens count the topology a family generates also when it
        # is not the Alexandroff topology of the pointwise order
        differ = 0
        for x, y, c in oracle_pairs():
            sub = compact_open_subbasis(c)
            down = pointwise_order(c).down
            for m in sorted(sub.sets):
                smaller = SetFamily.of(sub.ground_size, sub.sets - {m})
                min_open = minimal_opens(smaller)
                assert count_down_sets(min_open) == len(generate_topology(smaller))
                differ += min_open != down
        assert differ > 0

    def test_empty_domain_and_codomain(self):
        for x, y, maps in [(chain(0), chain(2), 1), (chain(2), chain(0), 0),
                           (chain(0), chain(0), 1)]:
            c = enumerate_monotone(x, y)
            assert len(c) == maps
            assert compact_open_opens(c) == len(generate_topology(compact_open_subbasis(c)))

    def test_guard_fires_before_subbasis(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("subbasis table built past the guard")

        x, y = antichain(1), antichain(21)
        c = enumerate_monotone(x, y)
        monkeypatch.setattr(topology, "_below", unreachable)
        with pytest.raises(GuardExceeded, match="21 > 20"):
            compact_open_opens(c)
        monkeypatch.undo()
        assert compact_open_opens(enumerate_monotone(x, antichain(20))) == 2**20


class TestCountDownSets:
    def test_matches_brute_force(self):
        for seed in range(20):
            p = random_poset(4 + seed % 6, 0.3, seed)
            assert count_down_sets(p.down) == len(brute_force_down_sets(p))

    def test_antichains_and_chains(self):
        for k in range(25):
            assert count_down_sets(antichain(k).down) == 2**k
            assert count_down_sets(chain(k).down) == k + 1

    def test_preorder(self):
        # the indiscrete topology on three points has two opens
        assert count_down_sets([0b111] * 3) == 2
        t = SetFamily.of(3, [0, 0b011, 0b111])
        assert count_down_sets(minimal_opens(t)) == 3

    def test_limit_stops_early(self):
        assert count_down_sets(antichain(10).down, limit=1024) == 1024
        assert count_down_sets(antichain(10).down, limit=100) > 100
        assert count_down_sets(antichain(60).down, limit=5) > 5


def test_specialization_order_matches_closure_oracle():
    # a family is a topology exactly when closing it adds nothing
    for seed in range(40):
        p = random_poset(5, 0.35, seed)
        t = alexandroff_topology(p)
        rng = random.Random(seed)
        fam = SetFamily.of(p.n, rng.sample(sorted(t.sets), len(t) - 1 - seed % 3))
        closed = generate_topology(fam) == fam
        if closed:
            specialization_order(fam)
        else:
            with pytest.raises(NotATopology):
                specialization_order(fam)
