import pytest

from finspace import (
    antichain,
    are_isomorphic,
    chain,
    crown,
    fence,
    is_contractible,
    is_core,
    khalimsky_interval,
    spider,
)
from finspace.generators import random_poset


class TestChainAntichain:
    def test_chain(self):
        p = chain(4)
        assert p.height() == 3 and len(p.covers) == 3
        assert p.max_elements() == {3} and p.min_elements() == {0}

    def test_antichain(self):
        p = antichain(5)
        assert not p.covers and p.is_antichain(range(5))

    def test_empty(self):
        assert chain(0).n == 0


class TestFence:
    def test_orientation(self):
        p = fence(4)  # x0 < x1 > x2 < x3
        assert p.lt(0, 1) and p.lt(2, 1) and p.lt(2, 3)
        assert p.max_elements() == {1, 3}

    def test_contractible_up_to_fifty(self):
        for n in range(1, 51):
            assert is_contractible(fence(n))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fence(0)


class TestKhalimsky:
    def test_evens_maximal(self):
        p = khalimsky_interval(0, 4)
        assert p.max_elements() == {p.index("0"), p.index("2"), p.index("4")}

    def test_small_examples(self):
        p = khalimsky_interval(1, 4)
        assert p.lt(p.index("1"), p.index("2"))
        assert p.lt(p.index("3"), p.index("2"))
        assert p.lt(p.index("3"), p.index("4"))

    def test_fence_relation(self):
        # dual zigzags: isomorphic to the fence only when n is odd
        for n in range(1, 8):
            p = khalimsky_interval(0, n)
            f = fence(n + 1)
            if n % 2 == 1:
                assert are_isomorphic(p, f) is not None
            else:
                assert are_isomorphic(p, f) is None
                assert are_isomorphic(p.dual(), f) is not None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            khalimsky_interval(3, 2)


class TestCrown:
    def test_shape(self):
        c = crown(3)
        assert c.n == 6 and len(c.covers) == 6
        assert c.height() == 1

    def test_is_core(self):
        for n in range(2, 7):
            assert is_core(crown(n))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            crown(1)


class TestSpider:
    def test_basepoint_is_center(self):
        sp = spider([3, 1, 2])
        assert sp.poset.labels[sp.basepoint] == "center"
        assert sp.poset.n == 7

    def test_legs_attach_upward(self):
        sp = spider([2])
        p = sp.poset
        assert p.lt(sp.basepoint, p.index("s0_0"))
        assert p.lt(p.index("s0_0"), p.index("s0_1"))

    def test_contractible(self):
        for legs in [[1], [2, 2], [3, 1, 4]]:
            assert is_contractible(spider(legs).poset)

    def test_rejects_zero_leg(self):
        with pytest.raises(ValueError):
            spider([2, 0])


class TestZigzagParity:
    """Every fence-shaped family goes up from an even index in the fence and
    the spider legs, and up to each even integer in a Khalimsky interval."""

    @staticmethod
    def label_covers(p):
        return {(p.labels[a], p.labels[b]) for a, b in p.covers}

    def test_fence(self):
        for n in range(1, 40):
            want = {(f"x{i}", f"x{i+1}") if i % 2 == 0 else (f"x{i+1}", f"x{i}")
                    for i in range(n - 1)}
            assert self.label_covers(fence(n)) == want, n

    def test_khalimsky(self):
        for a in range(-7, 8):
            for length in range(12):
                want = {(str(m), str(m + 1)) if (m + 1) % 2 == 0 else (str(m + 1), str(m))
                        for m in range(a, a + length)}
                assert self.label_covers(khalimsky_interval(a, a + length)) == want, (a, length)

    def test_spider(self):
        for legs in ([1], [1, 1, 1], [1, 4], [5, 1, 2]):
            want = set()
            for k, length in enumerate(legs):
                want.add(("center", f"s{k}_0"))
                want |= {(f"s{k}_{i}", f"s{k}_{i+1}") if i % 2 == 0
                         else (f"s{k}_{i+1}", f"s{k}_{i}") for i in range(length - 1)}
            assert self.label_covers(spider(legs).poset) == want, legs


class TestRandomPoset:
    def test_reproducible(self):
        a = random_poset(8, 0.4, 123)
        b = random_poset(8, 0.4, 123)
        assert a.same_order(b)

    def test_seed_matters(self):
        runs = {tuple(sorted(random_poset(8, 0.5, s).covers)) for s in range(10)}
        assert len(runs) > 1

    def test_extremes(self):
        assert random_poset(5, 0.0, 0).same_order(antichain(5).restrict(range(5))[0]) or \
            not random_poset(5, 0.0, 0).covers
        full = random_poset(5, 1.0, 0)
        assert are_isomorphic(full, chain(5)) is not None

    def test_rejects_bad_prob(self):
        with pytest.raises(ValueError):
            random_poset(4, 1.5, 0)
