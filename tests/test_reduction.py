import random
import tracemalloc

import pytest

from finspace import (
    NotABeatPoint,
    MonotoneMap,
    Poset,
    UnknownLabel,
    ValidationError,
    antichain,
    are_isomorphic,
    beat_points,
    bulk_down,
    bulk_up,
    chain,
    core,
    core_mask,
    crown,
    down_beat_points,
    fence,
    is_core,
    is_retraction,
    remove_beat_point,
    spider,
    standard_sequence,
    up_beat_points,
    verify_strong_deformation,
)
from finspace.generators import random_poset
from finspace.poset import bits
from finspace.reduction import DismantlingTrace, RetractionStep

from helpers import (
    against_extensions, assert_same_poset, beat_points_by_scan, beat_target_by_scan,
    core_by_rescan, layered, poset_by_closure, random_core, random_pairs,
    standard_sequence_by_scan, time_limit, with_beat_points,
)


def _oracle_corpus():
    """(poset, basepoint) pairs: the 320 seeded random posets and the
    families, each unpointed and pointed."""
    for seed in range(320):
        n = 1 + seed % 30
        p = random_poset(n, (0.1, 0.2, 0.3, 0.5)[seed % 4], seed)
        yield p, None
        yield p, (seed * 7) % n
    for n in range(0, 14):
        yield chain(n), None
    for n in range(1, 16):
        yield fence(n), None
        yield fence(n), n // 2
    for n in range(2, 7):
        yield crown(n), None
    for legs in ([1], [2, 2], [3, 1, 4], [5, 5], [2, 3, 4, 5]):
        sp = spider(legs)
        yield sp.poset, None
        yield sp.poset, sp.basepoint


class TestBeatPoints:
    def test_chain_middle_is_both(self):
        p = chain(3)
        assert 1 in up_beat_points(p) and 1 in down_beat_points(p)

    def test_crown_has_none(self):
        c = crown(2)
        assert not beat_points(c)

    def test_fence_endpoint_up_beat(self):
        p = fence(3)  # x0 < x1 > x2
        assert 0 in up_beat_points(p)
        assert 0 not in down_beat_points(p)

    def test_basepoint_excluded(self):
        p = chain(3)
        assert 1 not in beat_points(p, basepoint=1)

    @pytest.mark.parametrize("query", [up_beat_points, down_beat_points, beat_points, is_core])
    @pytest.mark.parametrize("basepoint", [9, -1])
    def test_basepoint_outside_poset_rejected(self, query, basepoint):
        with pytest.raises(UnknownLabel, match=f"^basepoint {basepoint} out of range$"):
            query(fence(5), basepoint)


class TestBeatQueriesMatchScan:
    """The one-bit cover tests against the punctured-set scan of the
    definition, on the whole poset."""

    def test_beat_point_sets(self):
        for p, base in _oracle_corpus():
            full = p.full_mask
            assert up_beat_points(p, base) == beat_points_by_scan(p, base, full, upward=True)
            assert down_beat_points(p, base) == beat_points_by_scan(p, base, full, upward=False)
            assert beat_points(p, base) == beat_points_by_scan(p, base, full)
            assert is_core(p, base) == (not beat_points_by_scan(p, base, full))

    def test_remove_beat_point(self):
        for p, base in _oracle_corpus():
            for x in range(p.n):
                d = beat_target_by_scan(p, x, p.full_mask, upward=False)
                u = beat_target_by_scan(p, x, p.full_mask, upward=True)
                for prefer_down in (True, False):
                    if x == base or (d is None and u is None):
                        with pytest.raises(NotABeatPoint):
                            remove_beat_point(p, x, base, prefer_down=prefer_down)
                        continue
                    step = remove_beat_point(p, x, base, prefer_down=prefer_down)
                    down = d is not None and (prefer_down or u is None)
                    target = d if down else u
                    assert step.kind == ("remove-down-beat" if down else "remove-up-beat")
                    assert step.mapping == {x: target}
                    assert step.removed == {x}


class TestRemoveBeatPoint:
    def test_chain_top(self):
        p = chain(2)
        step = remove_beat_point(p, 1)
        assert step.removed == {1} and step.mapping[1] == 0

    def test_fence_endpoint(self):
        p = fence(3)
        step = remove_beat_point(p, 0)
        assert step.mapping[0] == 1 and step.kind == "remove-up-beat"

    def test_crown_refuses(self):
        with pytest.raises(NotABeatPoint):
            remove_beat_point(crown(2), 0)

    def test_basepoint_outside_poset_rejected(self):
        # 0 is a beat point of fence(5); the basepoint is checked first
        with pytest.raises(UnknownLabel, match="^basepoint 9 out of range$"):
            remove_beat_point(fence(5), 0, basepoint=9)


class TestCore:
    def test_fence_collapses_to_point(self):
        for n in range(1, 12):
            res = core(fence(n))
            assert res.core.n == 1
            assert len(res.trace.steps) == n - 1

    def test_crown_is_its_own_core(self):
        for n in range(2, 6):
            res = core(crown(n))
            assert res.core.n == 2 * n and not res.trace.steps

    def test_chain_collapses(self):
        assert core(chain(7)).core.n == 1

    def test_empty_poset(self):
        res = core(chain(0))
        assert res.core.n == 0 and not res.trace.steps

    def test_idempotent(self):
        for seed in range(10):
            p = random_poset(7, 0.4, seed)
            c1 = core(p).core
            assert not core(c1).trace.steps

    def test_step_count_equals_removed(self):
        for seed in range(10):
            p = random_poset(8, 0.35, seed)
            res = core(p)
            assert len(res.trace.steps) == p.n - res.core.n

    def test_policy_independence_up_to_iso(self):
        # alternate policy: highest id first, prefer up-beat
        for seed in range(12):
            p = random_poset(6, 0.4, seed)
            mask = p.full_mask
            while True:
                cands = beat_points_by_scan(p, None, mask)
                if not cands:
                    break
                x = max(cands)
                mask &= ~(1 << x)
            alt_core, _ = p.restrict([i for i in range(p.n) if mask >> i & 1])
            assert are_isomorphic(core(p).core, alt_core) is not None

    def test_pointed_core_keeps_basepoint(self):
        sp = spider([2, 2])
        res = core(sp.poset, sp.basepoint)
        assert sp.basepoint in res.core_elements
        assert res.trace.composed[sp.basepoint] == sp.basepoint

    @pytest.mark.parametrize("basepoint", [5, -1])
    def test_basepoint_outside_poset_rejected(self, basepoint):
        with pytest.raises(UnknownLabel, match=f"^basepoint {basepoint} out of range$"):
            core(fence(5), basepoint)

    def test_trace_steps_comparative_and_composed_monotone(self):
        for seed in range(8):
            p = random_poset(7, 0.4, seed)
            res = core(p)
            for step in res.trace.steps:
                assert all(p.comparable(k, v) for k, v in step.mapping.items())
            comp = res.trace.composed
            m = MonotoneMap(p, p, tuple(comp[i] for i in range(p.n)))  # raises if not monotone
            assert all(m(x) == x for x in res.core_elements)


def _core_steps(res):
    out = []
    for step in res.trace.steps:
        (x,) = step.removed
        out.append((step.kind, x, step.mapping[x]))
    return out


class TestCoreMatchesRescan:
    """The cover-count ``core`` against the rescan it replaced: same
    policy, so the same steps in the same order and the same core."""

    def assert_same(self, p, basepoint=None):
        res = core(p, basepoint)
        steps, final = core_by_rescan(p, basepoint)
        assert _core_steps(res) == steps
        assert res.core_elements == final
        kept = sorted(final)
        assert res.relabel == {old: new for new, old in enumerate(kept)}
        induced = [(p.labels[a], p.labels[b]) for a in kept for b in kept if p.lt(a, b)]
        assert_same_poset(res.core, poset_by_closure([p.labels[i] for i in kept], induced))

    def test_random_posets(self):
        for seed in range(320):
            n = 1 + seed % 30
            p = random_poset(n, (0.1, 0.2, 0.3, 0.5)[seed % 4], seed)
            self.assert_same(p)
            self.assert_same(p, basepoint=(seed * 7) % n)

    def test_shuffled_ids(self):
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 24)
            labels = [f"e{i}" for i in range(n)]
            p = Poset.from_covers(labels, random_pairs(rng, n, rng.choice((0.1, 0.2, 0.4))))
            self.assert_same(p)
            self.assert_same(p, basepoint=rng.randrange(n))

    def test_families(self):
        for n in range(0, 14):
            self.assert_same(chain(n))
        for n in range(1, 16):
            self.assert_same(fence(n))
            self.assert_same(fence(n), basepoint=n // 2)
        for n in range(2, 7):
            self.assert_same(crown(n))
        for legs in ([1], [2, 2], [3, 1, 4], [5, 5], [2, 3, 4, 5]):
            sp = spider(legs)
            self.assert_same(sp.poset)
            self.assert_same(sp.poset, sp.basepoint)

    def test_long_chain_steps_are_compact(self):
        res = core(chain(2000))
        assert len(res.trace.steps) == 1999
        assert all(len(s.mapping) == 1 for s in res.trace.steps)
        assert res.core_elements == {1999}

    def test_trace_memory_is_linear(self):
        # a step stores only its kind and moved points; a domain mask stored
        # per step made the trace of a chain quadratic (ratio about 3.1)
        def peak(n):
            p = chain(n)
            tracemalloc.start()
            try:
                core(p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8000) / peak(4000) < 2.5


class TestCoreMask:
    """The kept mask of a convex subspace is what the rescan keeps of the
    induced subposet: its covers are P's cut to it, and ``restrict``
    keeps the order of ids, so the lowest-id policy removes the same
    points."""

    @staticmethod
    def convex_masks(p):
        yield p.full_mask
        for x in range(p.n):
            bit = 1 << x
            yield from (p.down[x], p.up[x], p.down[x] ^ bit, p.up[x] ^ bit)

    def test_matches_rescan_of_the_subposet(self):
        cases = [random_poset(1 + seed % 14, (0.2, 0.35, 0.5)[seed % 3], seed)
                 for seed in range(120)]
        cases += [fence(9), crown(3), layered(3, 3), with_beat_points(crown(2), random.Random(3), 4)]
        for p in cases:
            for mask in self.convex_masks(p):
                members = sorted(bits(mask))
                sub, _ = p.restrict(members)
                _, final = core_by_rescan(sub)
                assert core_mask(p, mask) == sum(1 << members[v] for v in final)

    def test_whole_poset_is_the_core(self):
        for seed in range(40):
            p = random_poset(3 + seed % 12, 0.3, seed)
            assert core_mask(p) == sum(1 << i for i in core(p).core_elements)
        assert core_mask(chain(0)) == 0 and core_mask(crown(2), 0) == 0

    def test_mask_outside_or_not_convex_rejected(self):
        # {c0, c2} skips c1: cut to it, P's covers would leave two
        # isolated points where the subposet is a 2-chain
        with pytest.raises(ValidationError, match="^mask 0x5 is not convex: "):
            core_mask(chain(3), 0b101)
        for mask in (-1, 0b1000):
            with pytest.raises(UnknownLabel, match=f"^mask {mask:#x} out of range$"):
                core_mask(chain(3), mask)


def _beat_point_free():
    """Posets without beat points: crowns, the sphere models, layered
    posets and random levelled cores."""
    for n in range(2, 7):
        yield crown(n)
    for d in range(5):
        yield layered(2, d + 1)
    for width, depth in ((3, 3), (4, 2), (3, 4)):
        yield layered(width, depth)
    for seed in range(20):
        rng = random.Random(seed)
        yield random_core(rng, rng.randint(8, 40))


class TestCoreClosedOnce:
    """``core`` builds no second closure: a poset without beat points is
    returned as it is, and a smaller core is closed along its covers."""

    def test_beat_point_free_input_is_its_own_core(self):
        for p in _beat_point_free():
            assert is_core(p)
            for basepoint in (None, 0, p.n - 1):
                res = core(p, basepoint)
                assert res.core is p
                assert res.relabel == {i: i for i in range(p.n)}
                assert not res.trace.steps

    def test_rebuild_against_every_linear_extension(self):
        # the kept ids run against the order, so a pass in id order, or
        # either pass in the wrong direction, misses part of the closure
        check = TestCoreMatchesRescan()
        for i, p in enumerate(_beat_point_free()):
            rng = random.Random(i)
            q = against_extensions(with_beat_points(p, rng, rng.randint(1, p.n)))
            assert all(not q.lt(a, b) for b in range(q.n) for a in range(b))
            res = core(q)
            assert res.trace.steps and res.core is not q
            assert are_isomorphic(res.core, p) is not None
            check.assert_same(q)
            check.assert_same(q, basepoint=q.index(p.labels[0]))
            check.assert_same(q, basepoint=rng.randrange(q.n))


class TestBulkRetractions:
    def test_chain_bulk_up_to_top(self):
        step = bulk_up(chain(3))
        assert step.mapping == {0: 2, 1: 2}
        assert set(range(3)) - step.removed == {2}

    def test_crown_bulk_up_identity(self):
        step = bulk_up(crown(2))
        assert not step.removed

    def test_fence_bulk_down(self):
        p = fence(4)  # x0 < x1 > x2 < x3
        step = bulk_down(p)
        # x1 covers x0 and x2, but x3 covers only x2: a down-beat point over x2
        assert 3 in step.removed and step.mapping[3] == 2

    def test_bulk_maps_are_retractions(self):
        for seed in range(8):
            p = random_poset(7, 0.4, seed)
            for step, want_up in [(bulk_up(p), True), (bulk_down(p), False)]:
                r = MonotoneMap(p, p, tuple(step.mapping.get(i, i) for i in range(p.n)))
                kind = is_retraction(p, r, set(range(p.n)) - step.removed)
                assert kind and kind.comparative
                assert (kind.up if want_up else kind.down)


class TestStandardSequence:
    def test_chain_one_effective_step(self):
        tr = standard_sequence(chain(5))
        assert len(tr.steps) == 1
        assert tr.steps[0].kind == "bulk-down"
        assert tr.final == {0}

    def test_crown_stabilizes_immediately(self):
        tr = standard_sequence(crown(2))
        assert not tr.steps
        assert len(tr.final) == 4

    def test_spider_reaches_point(self):
        sp = spider([2, 2, 2])
        tr = standard_sequence(sp.poset, sp.basepoint)
        assert tr.final == {sp.basepoint}
        max_len = 2
        assert len(tr.steps) <= 2 * max_len + 2

    @pytest.mark.parametrize("basepoint", [5, -1])
    def test_basepoint_outside_poset_rejected(self, basepoint):
        with pytest.raises(UnknownLabel, match=f"^basepoint {basepoint} out of range$"):
            standard_sequence(fence(5), basepoint)

    def test_agrees_with_core_up_to_iso(self):
        for seed in range(15):
            p = random_poset(8, 0.35, seed)
            tr = standard_sequence(p)
            final, _ = p.restrict(tr.final)
            assert are_isomorphic(final, core(p).core) is not None

    def test_long_chain_in_linear_time(self):
        # each D_X target chain is resolved once, from the bottom up; chasing
        # every chain to its end walks n^2 / 2 steps (about 4 s at n = 10^4)
        p = chain(10000)
        with time_limit(2, "standard_sequence(chain(10000))"):
            tr = standard_sequence(p)
        assert [s.kind for s in tr.steps] == ["bulk-down"] and tr.final == {0}
        assert tr.steps[0].mapping == dict.fromkeys(range(1, 10000), 0)

    def test_long_fence_in_linear_time(self):
        # a fence loses only its two ends per round, so it takes n / 2 rounds;
        # rescanning the subspace each round is quadratic (about 5 s here)
        p = fence(6400)
        with time_limit(1, "standard_sequence(fence(6400))"):
            tr = standard_sequence(p)
        assert len(tr.steps) == 3200 and tr.final == {3199}
        assert all(len(s.mapping) == 2 for s in tr.steps[1:])


class TestStandardSequenceMatchesScan:
    """The cover-mask standard sequence against the punctured-set scan it
    replaced: the same (kind, domain, removed, mapping) for every step,
    the domain of a trace step being the running image of the steps
    before it (the full mask minus the points removed so far)."""

    def assert_same(self, p, basepoint=None):
        tr = standard_sequence(p, basepoint)
        steps, final = standard_sequence_by_scan(p, basepoint)
        image, walked = p.full_mask, []
        for s in tr.steps:
            walked.append((s.kind, image, s.removed, s.mapping))
            image &= ~sum(1 << x for x in s.removed)
        assert walked == steps
        assert all(list(s.mapping) == sorted(s.mapping) for s in tr.steps)
        assert tr.final == final == {x for x in range(p.n) if image >> x & 1}

    def test_random_posets(self):
        for seed in range(200):
            n = 1 + seed % 25
            p = random_poset(n, (0.1, 0.2, 0.3, 0.5)[seed % 4], seed)
            self.assert_same(p)
            self.assert_same(p, basepoint=(seed * 7) % n)
            rng = random.Random(seed)
            labels = [f"e{i}" for i in range(n)]
            q = Poset.from_covers(labels, random_pairs(rng, n, rng.choice((0.1, 0.2, 0.4))))
            self.assert_same(q)
            self.assert_same(q, basepoint=rng.randrange(n))

    def test_families(self):
        for n in range(1, 14):
            self.assert_same(chain(n))
        # a basepoint inside a fence splits the run into two shrinking ends
        for n in range(1, 41):
            self.assert_same(fence(n))
            for basepoint in range(n):
                self.assert_same(fence(n), basepoint)
        for n in range(2, 7):
            self.assert_same(crown(n))
        for legs in ([1], [2, 2], [3, 1, 4], [2, 3, 4, 5]):
            sp = spider(legs)
            self.assert_same(sp.poset)
            self.assert_same(sp.poset, sp.basepoint)


class TestIsCore:
    def test_examples(self):
        assert is_core(crown(2))
        assert not is_core(chain(2))
        assert is_core(chain(1))
        assert is_core(antichain(3))

    def test_basepoint_outside_poset_rejected(self):
        with pytest.raises(UnknownLabel, match="^basepoint 7 out of range$"):
            is_core(chain(1), 7)


class TestVerifyStrongDeformation:
    def test_core_trace_of_fence(self):
        assert verify_strong_deformation(core(fence(4)).trace) is True

    def test_full_when_the_maps_fixing_the_core_fit(self):
        # C(fence(9), fence(9)) has 6,187 maps; the certificate lists none
        # and gives a complete answer, with no guard on the class size
        assert verify_strong_deformation(core(fence(9)).trace) is True

    def test_empty_trace(self):
        p = crown(2)
        tr = DismantlingTrace(p, [])
        assert tr.final == set(range(p.n))
        assert verify_strong_deformation(tr)

    def test_non_comparative_fake_rejected(self):
        p = fence(3)  # map x2 to x0: not comparative
        fake = RetractionStep("remove-up-beat", {2: 0})
        tr = DismantlingTrace(p, [fake])
        assert not verify_strong_deformation(tr)

    def test_non_monotone_fake_rejected(self):
        # c -> b is comparative and retracts onto {a, b, d}, but a < c while
        # a and b are incomparable, so the composed map is no map of C(X, X)
        p = Poset.from_covers(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])
        b, c = p.index("b"), p.index("c")
        fake = RetractionStep("remove-down-beat", {c: b})
        assert verify_strong_deformation(DismantlingTrace(p, [fake])) is False
        # the dual: c < a and c < b, so c -> b breaks c < a on an upper cover
        q = Poset.from_covers(["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "b")])
        b, c = q.index("b"), q.index("c")
        fake = RetractionStep("remove-up-beat", {c: b})
        assert verify_strong_deformation(DismantlingTrace(q, [fake])) is False

    def test_point_outside_domain_rejected(self):
        # the second step moves 1 again, after the first has removed it
        p = chain(2)
        steps = [RetractionStep("remove-down-beat", {1: 0}),
                 RetractionStep("remove-down-beat", {1: 0})]
        assert verify_strong_deformation(DismantlingTrace(p, steps)) is False

    def test_empty_final_rejected(self):
        # no step retracts a non-empty space onto the empty set: once 1 is
        # gone, the step moving 0 has no image point to send it to
        steps = [RetractionStep("remove-down-beat", {1: 0}),
                 RetractionStep("remove-down-beat", {0: 0})]
        tr = DismantlingTrace(chain(2), steps)
        assert tr.final == frozenset()
        assert verify_strong_deformation(tr) is False

    def test_final_point_moved_rejected(self):
        # the swap of chain(2) maps onto {0, 1} but moves both points, so
        # its image in the trace is empty
        p = chain(2)
        swap = RetractionStep("remove-down-beat", {0: 1, 1: 0})
        assert verify_strong_deformation(DismantlingTrace(p, [swap])) is False

    def test_step_against_its_kind_rejected(self):
        # 1 -> 0 is a down move, recorded under an up kind or an unknown one
        p = chain(2)
        for kind in ("remove-up-beat", "bulk-up", "retract"):
            step = RetractionStep(kind, {1: 0})
            assert verify_strong_deformation(DismantlingTrace(p, [step])) is False

    def test_long_core_traces_within_time_limit(self):
        traces = [core(family(3200)).trace for family in (fence, chain)]
        with time_limit(2, "verify_strong_deformation on the core traces of n = 3200"):
            assert all(verify_strong_deformation(tr) is True for tr in traces)

    def test_standard_sequence_traces(self):
        for seed in range(6):
            p = random_poset(6, 0.4, seed)
            assert verify_strong_deformation(standard_sequence(p))
