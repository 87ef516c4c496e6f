import random
from itertools import combinations, product
from math import comb

import pytest

from finspace import (
    GuardExceeded,
    HomologyProfile,
    Poset,
    SimplicialComplex,
    UnknownLabel,
    antichain,
    chain,
    core,
    crown,
    fence,
    gamma_points,
    homology,
    is_gamma_point,
    order_complex,
    poset_homology,
)
from finspace import simplicial
from finspace.generators import random_poset
from finspace.poset import bits
from finspace.reduction import core_mask
from finspace.simplicial import (
    CERTIFIED_YES,
    COMPLEX_GUARD,
    HOMOLOGY_YES,
    NO,
    _boundary_columns,
    _eliminate_unit_pivots,
    _invariant_factors,
    _join_homology,
    _ordinal_summands,
    _smith_invariant_factors,
    _summand_homology,
    chain_counts,
    chains_and_homology,
)

from helpers import (
    boundary_rows, gamma_by_full_link, homology_dense, invariant_factors_by_minors, layered, link,
    maxima_and_covers, same_homology, with_tails,
)

RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def complex_from_facets(facets):
    by_dim = {}
    for f in facets:
        for r in range(1, len(f) + 1):
            for s in combinations(sorted(f), r):
                by_dim.setdefault(r - 1, set()).add(s)
    sims = tuple(tuple(sorted(by_dim[d])) for d in sorted(by_dim))
    return SimplicialComplex(sims)


def face_poset(k):
    """Simplices of k ordered by inclusion."""
    faces = [s for dim in k.simplices for s in dim]
    labels = ["f" + "_".join(map(str, s)) for s in faces]
    covers = [(labels[i], labels[j]) for i, f in enumerate(faces)
              for j, g in enumerate(faces) if len(g) == len(f) + 1 and set(f) <= set(g)]
    return Poset.from_covers(labels, covers)


def suspension(p):
    """Two incomparable points above everything."""
    maxima, covers = maxima_and_covers(p)
    covers += [(m, t) for m in maxima for t in ("top0", "top1")]
    return Poset.from_covers(list(p.labels) + ["top0", "top1"], covers)


class TestOrderComplex:
    def test_chain_is_simplex(self):
        k = order_complex(chain(3))
        assert [k.count(d) for d in range(3)] == [3, 3, 1]
        assert k.euler_characteristic() == 1

    def test_antichain_is_points(self):
        k = order_complex(antichain(4))
        assert k.dimension() == 0 and k.count(0) == 4

    def test_crown_is_circle(self):
        k = order_complex(crown(2))
        assert k.count(0) == 4 and k.count(1) == 4 and k.dimension() == 1
        assert k.euler_characteristic() == 0

    def test_chains_match_brute_force(self):
        for seed in range(6):
            p = random_poset(6, 0.4, seed)
            k = order_complex(p)
            got = {s for dim in k.simplices for s in dim}
            want = set()
            for r in range(1, p.n + 1):
                for sub in combinations(range(p.n), r):
                    if all(p.comparable(a, b) for a, b in combinations(sub, 2)):
                        want.add(sub)
            assert got == want

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            order_complex(chain(30), guard=100)


class TestSmithNormalForm:
    def test_diagonal(self):
        assert _smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_matrix(self):
        assert _smith_invariant_factors([[0, 0]]) == []

    def test_divisibility_chain(self):
        got = _smith_invariant_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        for a, b in zip(got, got[1:]):
            assert b % a == 0
        # determinant magnitude is preserved
        import math
        assert math.prod(got) == abs(
            2 * (6 * 16 - 12 * 4) - 4 * (-6 * 16 - 12 * 10) + 4 * (-6 * 4 - 6 * 10)
        )

    def test_rank_only(self):
        assert _smith_invariant_factors([[1, 2], [2, 4]]) == [1]

    def test_minors_oracle(self):
        assert invariant_factors_by_minors([[2, 0], [0, 3]]) == [1, 6]
        assert invariant_factors_by_minors([[2, 4], [6, 12]]) == [2]
        assert invariant_factors_by_minors([[0, 0]]) == []

    def test_every_small_2x2_matches_minors(self):
        for a, b, c, d in product(range(-3, 4), repeat=4):
            rows = [[a, b], [c, d]]
            want = invariant_factors_by_minors(rows)
            assert _smith_invariant_factors(rows) == want
            assert _invariant_factors(sparse_columns(rows))[1] == want

    def test_seeded_matrices_match_minors(self):
        rng = random.Random(25)
        for _ in range(1200):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            bound = rng.choice((2, 6, 1000))
            rows = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(nc)]
                    for _ in range(nr)]
            want = invariant_factors_by_minors(rows)
            assert _smith_invariant_factors(rows) == want
            assert _invariant_factors(sparse_columns(rows))[1] == want

    def test_residual_columns_match_minors(self):
        # k x 1 columns of +-2 and +-4: what unit-pivot elimination leaves
        # of the boundaries of RP2, its suspension and its subdivisions
        rng = random.Random(3)
        for k in range(1, 25):
            for _ in range(10):
                rows = [[rng.choice((2, -2, 4, -4))] for _ in range(k)]
                want = invariant_factors_by_minors(rows)
                assert want == ([2] if any(abs(r[0]) == 2 for r in rows) else [4])
                assert _smith_invariant_factors(rows) == want
                assert _invariant_factors(sparse_columns(rows))[1] == want


class TestHomology:
    def test_boundary_squares_to_zero(self):
        for p in [crown(3), fence(5), chain(4)]:
            k = order_complex(p)
            for d in range(2, k.dimension() + 1):
                cols1 = _boundary_columns(k.simplices[d - 2], k.simplices[d - 1])
                cols2 = _boundary_columns(k.simplices[d - 1], k.simplices[d])
                for col in cols2:
                    image = {}
                    for t, v in col.items():
                        for i, w in cols1[t].items():
                            image[i] = image.get(i, 0) + v * w
                    assert not any(image.values())

    def test_circle(self):
        prof = poset_homology(crown(2))
        assert prof.betti == (0, 1)
        assert prof.torsion == ((), ())

    def test_point(self):
        assert poset_homology(chain(1)).is_acyclic()

    def test_empty_space_not_acyclic(self):
        # reduced H_{-1} of the empty complex is Z, which no degree holds
        empty = poset_homology(Poset.from_covers([], []))
        assert empty == HomologyProfile((), ()) and not empty.is_acyclic()

    def test_two_points_unreduced_vs_reduced(self):
        p = antichain(2)
        assert homology(order_complex(p)).betti == (2,)
        assert poset_homology(p).betti == (1,)

    def test_projective_plane_torsion(self):
        # minimal 6-vertex triangulation of the projective plane
        facets = [
            (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
        ]
        k = complex_from_facets(facets)
        assert k.euler_characteristic() == 1
        prof = homology(k, reduced=True)
        assert prof.betti == (0, 0, 0)
        assert prof.torsion[1] == (2,)

    def test_sphere(self):
        # boundary of the 3-simplex
        facets = list(combinations(range(4), 3))
        prof = homology(complex_from_facets(facets), reduced=True)
        assert prof.betti == (0, 0, 1) and prof.torsion == ((), (), ())

    def test_euler_characteristic_cross_check(self):
        for seed in range(8):
            p = random_poset(6, 0.4, seed)
            k = order_complex(p)
            prof = homology(k, reduced=False)
            assert k.euler_characteristic() == sum(
                (-1) ** d * b for d, b in enumerate(prof.betti)
            )

    def test_crown3_circle_too(self):
        prof = poset_homology(crown(3))
        assert prof.betti == (0, 1)


def rp2_face_poset():
    return face_poset(complex_from_facets(RP2_FACETS))


def seeded_random_poset(seed):
    return random_poset(4 + seed % 6, (0.2, 0.35, 0.5)[seed % 3], seed)


def elimination_families():
    """Spheres, wide layers, circles, contractible posets, the projective
    plane and its suspension (Z/2 torsion) and spheres with tails."""
    rp2 = rp2_face_poset()
    cases = [layered(2, d + 1) for d in range(1, 5)]
    cases += [layered(3, 3), layered(3, 4), layered(4, 3), layered(5, 2)]
    cases += [crown(k) for k in range(2, 6)] + [fence(6), chain(5)]
    cases += [rp2, suspension(rp2)]
    cases += [with_tails(layered(2, 3), 2), with_tails(layered(2, 4), 1),
              with_tails(crown(3), 2)]
    return cases


def sparse_columns(rows):
    """The ``{row: nonzero entry}`` columns of a dense matrix."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]


def factors_without_columns(rows, ncols, dropped):
    """Nonzero invariant factors of a dense matrix without some columns."""
    dropped = set(dropped)
    keep = [j for j in range(ncols) if j not in dropped]
    return _smith_invariant_factors([[row[j] for j in keep] for row in rows])


class TestSparseElimination:
    """The unit-pivot elimination against dense Smith normal form."""

    def test_families_match_dense(self):
        for p in elimination_families():
            k = order_complex(p)
            for reduced in (False, True):
                assert homology(k, reduced=reduced) == homology_dense(k, reduced=reduced)
        rp2 = rp2_face_poset()
        assert poset_homology(rp2).torsion == ((), (2,), ())
        assert poset_homology(suspension(rp2)).torsion == ((), (), (2,), ())

    def test_subdivided_projective_plane_keeps_torsion(self):
        # the face poset of the order complex of RP2's face poset: a finer
        # model of the same space, whose Z/2 also comes from a residual column
        subdivided = face_poset(order_complex(rp2_face_poset()))
        assert poset_homology(subdivided).torsion == ((), (2,), ())

    def test_clearing_keeps_invariant_factors(self):
        # the columns of boundary_d named by the unit-pivot rows of
        # boundary_{d+1} can be dropped without changing its factors
        complexes = [order_complex(p) for p in elimination_families()]
        complexes += [order_complex(seeded_random_poset(seed)) for seed in range(200)]
        for k in complexes:
            # boundary_0 is the augmentation onto the empty simplex
            dense = [[[1] * k.count(0)]]
            dense += [boundary_rows(k.simplices[d - 1], k.simplices[d])
                      for d in range(1, k.dimension() + 1)]
            for d in range(k.dimension()):
                cleared, _ = _invariant_factors(
                    _boundary_columns(k.simplices[d], k.simplices[d + 1]))
                assert factors_without_columns(dense[d], k.count(d), cleared) \
                    == factors_without_columns(dense[d], k.count(d), ())
        # a chain complex whose boundary_{d+1} = (2, 3)^T has no unit pivot:
        # the dense stage pivots a row, and dropping either column of
        # boundary_d = (-3 2) would turn its factor 1 into 2 or 3
        cleared, factors = _invariant_factors([{0: 2, 1: 3}])
        assert factors == [1]
        assert factors_without_columns([[-3, 2]], 2, cleared) == [1]

    def test_random_posets_match_dense(self):
        for seed in range(300):
            p = seeded_random_poset(seed)
            k = order_complex(p)
            reduced = bool(seed & 1)
            assert homology(k, reduced=reduced) == homology_dense(k, reduced=reduced)

    def test_residual_keeps_torsion(self):
        # eliminating RP2's boundary from triangles to edges leaves one
        # column of +-2 entries, whose Smith form gives the Z/2
        k = complex_from_facets(RP2_FACETS)
        pivots, residual = _eliminate_unit_pivots(
            _boundary_columns(k.simplices[1], k.simplices[2]))
        assert len(pivots) == 9
        assert len(residual) == 1 and {abs(v) for v in residual[0].values()} == {2}
        assert _invariant_factors(_boundary_columns(k.simplices[1], k.simplices[2]))[1] \
            == [1] * 9 + [2]

    def test_unit_free_matrix_goes_to_residual(self):
        pivots, residual = _eliminate_unit_pivots([{0: 2, 1: 4}, {0: 6}])
        assert pivots == [] and residual == [{0: 2, 1: 4}, {0: 6}]
        assert _invariant_factors([{0: 2, 1: 4}, {0: 6}]) == ([], [2, 12])

    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(7)
        for _ in range(200):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, 4, -6)) for _ in range(nc)]
                    for _ in range(nr)]
            want = [abs(int(f)) for f in invariant_factors(sympy.Matrix(rows)) if f]
            assert _smith_invariant_factors(rows) == want
            assert _invariant_factors(sparse_columns(rows))[1] == want
            if nr <= 4 and nc <= 4:
                assert invariant_factors_by_minors(rows) == want


def ordinal_sum(*parts):
    """Every element of each part below every element of the later parts."""
    labels, covers, below = [], [], []
    for k, q in enumerate(parts):
        names = [f"s{k}_{lab}" for lab in q.labels]
        covers += [(names[a], names[b]) for a, b in q.covers]
        covers += [(m, names[x]) for m in below for x in range(q.n) if q.down[x] == 1 << x]
        below = [names[x] for x in range(q.n) if q.up[x] == 1 << x]
        labels += names
    return Poset.from_covers(labels, covers)


def summand_corpus():
    """Seeded ordinal sums of two or three summands, each a random poset,
    a crown, an antichain or a point."""
    rng = random.Random(27)
    pool = [chain(1), antichain(2), antichain(3), crown(2), crown(3)]
    pool += [random_poset(rng.randint(2, 5), 0.4, seed) for seed in range(20)]
    return [ordinal_sum(*rng.sample(pool, rng.randint(2, 3))) for _ in range(80)]


def summands_by_cuts(p):
    """The finest ordinal summands from every cut, found over all subsets:
    a nonempty proper D is a cut when each element of D lies below each
    element outside it.  The cuts are nested, and the summands are the
    differences of consecutive ones."""
    cuts = [0]
    for d in range(1, p.full_mask):
        rest = p.full_mask ^ d
        if all(p.up[x] & rest == rest for x in range(p.n) if d >> x & 1):
            cuts.append(d)
    cuts.append(p.full_mask)
    cuts.sort(key=int.bit_count)
    return [sorted(i for i in range(p.n) if (hi ^ lo) >> i & 1) for lo, hi in zip(cuts, cuts[1:])]


class TestOrdinalSums:
    """The join formula, the summand pass and the chain count against the
    whole order complex."""

    def test_summands_match_cuts(self):
        cases = [p for p in summand_corpus() if p.n <= 12]
        cases += [chain(4), antichain(3), crown(2), layered(2, 3), layered(3, 2), fence(5)]
        cases += [seeded_random_poset(seed) for seed in range(40)]
        assert len(cases) > 80
        for p in cases:
            assert [sorted(bits(s)) for s, _ in _ordinal_summands(p)[0]] == summands_by_cuts(p)
        assert _ordinal_summands(Poset.from_covers([], [])) == ([], 1)

    def test_join_formula_matches_whole_complex(self):
        cases = summand_corpus()
        assert sum(len(_ordinal_summands(p)[0]) >= 2 for p in cases) == len(cases)
        for p in cases:
            assert poset_homology(p) == homology(order_complex(p), reduced=True)

    def test_projective_plane_summands(self):
        rp2 = rp2_face_poset()
        p = ordinal_sum(rp2, crown(3))  # RP2 * S1, the double suspension of RP2
        prof = poset_homology(p)
        assert prof == homology(order_complex(p), reduced=True)
        assert prof.torsion == ((), (), (), (2,), ())
        # RP2 * RP2: Z/2 (x) Z/2 in degree 3 and Tor(Z/2, Z/2) in degree 4
        p = ordinal_sum(rp2, rp2)
        prof = poset_homology(p)
        assert prof == homology(order_complex(p), reduced=True)
        assert prof.betti == (0,) * 6 and prof.torsion == ((), (), (), (2,), (2,), ())

    def test_coprime_torsion_joins_to_nothing(self):
        # Z/2 (x) Z/3 = Tor(Z/2, Z/3) = 0, while a free factor carries the
        # other's torsion up one degree
        two = HomologyProfile((0, 0, 0), ((), (2,), ()))
        three = HomologyProfile((0, 0, 0), ((), (3,), ()))
        circle = HomologyProfile((0, 1), ((), ()))
        assert _join_homology(two, three) == HomologyProfile((0,) * 6, ((),) * 6)
        assert _join_homology(circle, two) == HomologyProfile((0,) * 5, ((), (), (), (2,), ()))
        assert _join_homology(two, two).torsion == ((), (), (), (2,), (2,), ())

    def test_masked_listing_matches_restrict(self):
        # the chains inside a summand's mask are the order complex of the
        # summand as a subposet, mapped back to P's ids
        for p in summand_corpus():
            for s, _ in _ordinal_summands(p)[0]:
                sub, old_to_new = p.restrict(bits(s))
                old = {new: v for v, new in old_to_new.items()}
                expected = tuple(tuple(sorted(tuple(old[v] for v in face) for face in faces))
                                 for faces in order_complex(sub).simplices)
                assert order_complex(p, within=s).simplices == expected

    def test_chain_counts_match_complex(self):
        cases = summand_corpus() + elimination_families()
        cases += [seeded_random_poset(seed) for seed in range(40)]
        for p in cases:
            k = order_complex(p)
            assert chain_counts(p) == [k.count(d) for d in range(k.dimension() + 1)]
        assert chain_counts(Poset.from_covers([], [])) == []

    def test_guard_counts_the_whole_sum(self):
        p = ordinal_sum(crown(2), crown(3))
        total = order_complex(p).total()
        assert poset_homology(p, guard=total) == homology(order_complex(p), reduced=True)
        for fn in (chain_counts, poset_homology, order_complex):
            with pytest.raises(GuardExceeded, match=f"^more than {total - 1} chains$"):
                fn(p, guard=total - 1)

    def test_homology_verb_walks_p_once_when_it_is_its_own_core(self, monkeypatch):
        walks = []

        def counting_walk(p, within=None, guard=COMPLEX_GUARD):
            walks.append(within)
            return _ordinal_summands(p, within, guard)

        cases = [ordinal_sum(crown(2), chain(1), crown(2)), crown(3), layered(3, 3),
                 rp2_face_poset(), antichain(3), Poset.from_covers([], [])]
        cases += [with_tails(layered(2, 3), 2), ordinal_sum(crown(2), chain(1)), fence(4)]
        expected = [(chain_counts(p), poset_homology(p, within=core_mask(p))) for p in cases]
        monkeypatch.setattr(simplicial, "_ordinal_summands", counting_walk)
        for p, want in zip(cases, expected):
            walks.clear()
            assert chains_and_homology(p) == want
            kept = core_mask(p)
            assert walks == ([None] if kept == p.full_mask else [None, kept])

    def test_gamma_on_sums_matches_full_link(self):
        for p in summand_corpus():
            verdicts = gamma_points(p)
            assert verdicts == [gamma_by_full_link(p, x) for x in range(p.n)]
            assert verdicts == [is_gamma_point(p, x) for x in range(p.n)]


def masked_cases():
    """(P, mask): the down-sets, up-sets and punctured ones of every point
    and the ordinal summands of ordinal sums and seeded random posets."""
    cases = summand_corpus() + [seeded_random_poset(seed) for seed in range(40)]
    for p in cases:
        for x in range(p.n):
            bit = 1 << x
            yield from ((p, m) for m in (p.down[x], p.up[x], p.down[x] ^ bit, p.up[x] ^ bit))
        yield from ((p, s) for s, _ in _ordinal_summands(p)[0])


def subposet_complex(p, mask):
    """The order complex of the subposet on ``mask``, on its own ids."""
    return order_complex(p.restrict(bits(mask))[0])


class TestMaskedChainCounts:
    """``chain_counts``, ``_ordinal_summands`` and ``poset_homology`` on a
    mask of P against the subposet the mask induces."""

    def test_counts_match_the_subposet(self):
        for p, mask in masked_cases():
            k = subposet_complex(p, mask)
            assert chain_counts(p, within=mask) == [k.count(d) for d in range(k.dimension() + 1)]
        assert chain_counts(crown(3), within=0) == []

    def test_summands_and_homology_match_the_subposet(self):
        for p, mask in masked_cases():
            members = sorted(bits(mask))
            sub, _ = p.restrict(members)
            # summands_by_cuts has one empty part for the empty poset, which has none
            expected = [[members[v] for v in part] for part in summands_by_cuts(sub) if part]
            assert [sorted(bits(s)) for s, _ in _ordinal_summands(p, mask)[0]] == expected
            prof = poset_homology(p, within=mask)
            assert prof == homology(order_complex(sub), reduced=True)

    def test_walk_counts_each_summand_and_the_sum(self):
        # the walk that cuts P counts each summand's chains by length, in
        # slots of the guard's bit length, and the sum's chains
        width = COMPLEX_GUARD.bit_length()
        cases = [(p, None) for p in summand_corpus()] + list(masked_cases())
        for p, within in cases:
            summands, chains = _ordinal_summands(p, within)
            for mask, packed in summands:
                slots = -(-packed.bit_length() // width)
                unpacked = [packed >> d * width & (1 << width) - 1 for d in range(slots)]
                assert unpacked == chain_counts(p, within=mask)
            assert chains == 1 + sum(chain_counts(p, within=within))

    @staticmethod
    def slot_cases():
        """(P, mask, chains by length) with totals at and next to powers of
        two: an antichain puts its whole total in one slot, a chain of k
        has 2**k - 1 chains, binomially by length, and each also sits as a
        down-set under a point; then ordinal sums of several summands that
        are not antichains."""
        for k in range(1, 11):
            for t in (2**k - 1, 2**k, 2**k + 1):
                yield antichain(t), None, [t]
        for k in range(1, 13):
            yield chain(k), None, [comb(k, d + 1) for d in range(k)]
        for q, expected in ((antichain(64), [64]), (chain(9), [comb(9, d + 1) for d in range(9)])):
            p = ordinal_sum(q, chain(1), antichain(3))
            yield p, p.down[q.n] ^ 1 << q.n, expected
        # sums of crowns, chains and RP2, whole and under a point: a chain of
        # a sum is a chain of each summand, any of them empty, so the counts
        # by size multiply as polynomials; totals 17, 33 and 65 sit one
        # above a power of two, and crown2 + m + crown2 has 161
        rp2 = rp2_face_poset()
        for parts in ((chain(1), crown(2)), (chain(1), crown(4)), (crown(8), chain(1)),
                      (crown(2), chain(1), crown(2)), (chain(3), crown(4)),
                      (crown(2), crown(3), chain(2)), (rp2, chain(1), rp2)):
            sizes = [1]
            for q in parts:
                k = order_complex(q)
                factor = [1] + [k.count(d) for d in range(k.dimension() + 1)]
                product = [0] * (len(sizes) + len(factor) - 1)
                for i, a in enumerate(sizes):
                    for j, b in enumerate(factor):
                        product[i + j] += a * b
                sizes = product
            p = ordinal_sum(*parts)
            yield p, None, sizes[1:]
            p = ordinal_sum(*parts, chain(1))
            top = p.n - 1
            yield p, p.down[top] ^ 1 << top, sizes[1:]

    def test_guard_at_the_total_and_one_below(self):
        for p, mask, expected in self.slot_cases():
            total = sum(expected)
            for guard in (total, total + 1, 2 * total):
                assert chain_counts(p, guard, mask) == expected
            with pytest.raises(GuardExceeded, match=f"^more than {total - 1} chains$"):
                chain_counts(p, total - 1, mask)

    def test_mask_out_of_range_rejected(self):
        for fn in (chain_counts, poset_homology, order_complex):
            for mask in (-1, 0b1000):
                with pytest.raises(UnknownLabel, match=f"^mask {mask:#x} out of range$"):
                    fn(chain(3), within=mask)

    def test_guard_past_any_machine_word(self):
        # 2**99 - 1 chains fit under a guard of 10**30, 2**100 - 1 do not
        assert chain_counts(chain(99), 10**30) == [comb(99, d + 1) for d in range(99)]
        assert chain_counts(chain(99), 2**99 - 1) == [comb(99, d + 1) for d in range(99)]
        for p, guard in ((chain(99), 2**99 - 2), (chain(100), 10**30)):
            with pytest.raises(GuardExceeded, match=f"^more than {guard} chains$"):
                chain_counts(p, guard)


def height_one_summands(p, within=None):
    """The summands of the walk with no chain of three, each with its
    packed chain counts."""
    width = COMPLEX_GUARD.bit_length()
    return [(s, packed) for s, packed in _ordinal_summands(p, within)[0]
            if not packed >> 2 * width]


def random_bipartite(rng, lower, upper, kind):
    """A poset of height at most 1 on ``lower`` minimal points and ``upper``
    others: a forest (each point after the first joins one earlier point
    of the other side, or starts a new tree), or each of the lower x upper
    pairs a cover with probability 1/2."""
    lows = [f"a{i}" for i in range(lower)]
    highs = [f"b{j}" for j in range(upper)]
    covers = []
    if kind == "forest":
        order = lows + highs
        rng.shuffle(order)
        for k, v in enumerate(order):
            other = [u for u in order[:k] if u[0] != v[0]]
            if other and rng.random() < 0.8:
                u = rng.choice(other)
                covers.append((u, v) if u[0] == "a" else (v, u))
    else:
        covers = [(a, b) for a in lows for b in highs if rng.random() < 0.5]
    return Poset.from_covers(lows + highs, covers)


class TestHeightOneSummands:
    """A summand with no chain of three has a graph for its order complex,
    so its reduced groups are H~_0 = Z^(C - 1) and H~_1 = Z^(E - V + C)."""

    def test_closed_form_matches_the_complex(self):
        cases = [(p, None) for p in summand_corpus()] + list(masked_cases())
        antichains = graphs = 0
        for p, within in cases:
            for s, packed in height_one_summands(p, within):
                expected = homology(order_complex(p, within=s), reduced=True)
                assert _summand_homology(p, COMPLEX_GUARD, s, packed) == expected
                antichains += len(expected.betti) == 1
                graphs += len(expected.betti) == 2
        assert antichains > 100 and graphs > 100

    def test_random_bipartite_posets(self):
        rng = random.Random(35)
        cases = [antichain(1), antichain(2), antichain(5), crown(4)]
        for kind in ("forest", "graph"):
            for _ in range(60):
                cases.append(random_bipartite(rng, rng.randint(1, 6), rng.randint(0, 6), kind))
        seen = set()
        for p in cases:
            whole = homology(order_complex(p), reduced=True)
            assert poset_homology(p) == whole
            summands = height_one_summands(p)
            assert len(summands) == len(_ordinal_summands(p)[0])
            if len(summands) == 1:
                (s, packed), = summands
                assert _summand_homology(p, COMPLEX_GUARD, s, packed) == whole
            edges = sum(map(int.bit_count, p.upper_covers))
            seen.add((edges > 0, whole.betti[0] > 0, len(whole.betti) > 1 and whole.betti[1] > 0))
        # antichains, forests, graphs with cycles, each connected and not
        assert {(False, True, False), (True, False, False), (True, True, False),
                (True, False, True), (True, True, True)} <= seen


class TestTwoSidedLinks:
    """A point m above every point of one space and below every point of
    another: its link is their non-Hausdorff join, and every other link
    reaches through m to a side with a maximum or a minimum."""

    @staticmethod
    def sides():
        return {"crown2": crown(2), "crown3": crown(3), "antichain2": antichain(2),
                "rp2": rp2_face_poset()}

    def test_against_the_full_link(self):
        for (a, lower), (b, upper) in product(self.sides().items(), repeat=2):
            p = ordinal_sum(lower, chain(1), upper)
            m = lower.n
            for x in range(p.n):
                if x == m and "rp2" in (a, b) and "antichain2" not in (a, b):
                    continue  # too many chains for the dense oracle: below
                assert is_gamma_point(p, x) == gamma_by_full_link(p, x), (a, b, x)
            assert is_gamma_point(p, m) == NO

    def test_projective_plane_joins(self):
        # the dense oracle's place, for the links it cannot afford: the
        # sparse elimination of the link's whole complex, no core, no join
        sides = self.sides()
        rp2 = sides["rp2"]
        for other in ("crown2", "crown3", "rp2"):
            for lower, upper in ((rp2, sides[other]), (sides[other], rp2)):
                p = ordinal_sum(lower, chain(1), upper)
                m = lower.n
                assert not homology(order_complex(link(p, m)), reduced=True).is_acyclic()
                assert is_gamma_point(p, m) == NO
        # RP2 * RP2: Z/2 in degrees 3 and 4
        p = ordinal_sum(rp2, chain(1), rp2)
        prof = poset_homology(p, within=p.comparability_mask(rp2.n))
        assert prof.torsion == ((), (), (), (2,), (2,), ())

    def test_guard_counts_the_join_of_the_cores(self):
        # crown2 * crown2 has (1 + 8)(1 + 8) - 1 = 80 chains
        p = ordinal_sum(crown(2), chain(1), crown(2))
        assert order_complex(link(p, 4)).total() == 80
        assert is_gamma_point(p, 4, guard=80) == NO
        with pytest.raises(GuardExceeded, match="^more than 79 chains$"):
            is_gamma_point(p, 4, guard=79)
        # a side of 8 chains over an empty one: the link is that side
        p = ordinal_sum(crown(2), chain(1))
        assert is_gamma_point(p, 4, guard=8) == NO
        with pytest.raises(GuardExceeded, match="^more than 7 chains$"):
            is_gamma_point(p, 4, guard=7)
        # the cores are counted, not the sides: tails dismantle first
        p = ordinal_sum(with_tails(crown(2), 2), chain(1), crown(2))
        m = p.n - 5
        assert is_gamma_point(p, m, guard=80) == gamma_by_full_link(p, m) == NO


class TestLink:
    def test_chain_interior(self):
        lk = link(chain(3), 1)
        assert lk.n == 2 and list(lk.labels) == ["c0", "c2"]

    def test_crown_vertex(self):
        lk = link(crown(2), 0)  # a0 is below both maxima
        assert lk.n == 2 and lk.is_antichain(range(lk.n))

    def test_isolated_point(self):
        lk = link(antichain(3), 0)
        assert lk.n == 0

    def test_point_out_of_range(self):
        for x in (-1, 4):
            for fn in (link, is_gamma_point):
                with pytest.raises(UnknownLabel, match=f"^point {x} out of range$"):
                    fn(fence(4), x)


class TestGammaPoints:
    def test_chain_interior_certified(self):
        assert is_gamma_point(chain(3), 1) == CERTIFIED_YES

    def test_crown_vertex_no(self):
        assert all(is_gamma_point(crown(2), x) == NO for x in range(4))

    def test_isolated_no(self):
        assert is_gamma_point(antichain(2), 0) == NO

    def test_beat_points_are_gamma(self):
        from finspace import beat_points

        for seed in range(8):
            p = random_poset(7, 0.4, seed)
            for x in beat_points(p):
                assert is_gamma_point(p, x) == CERTIFIED_YES

    def test_homology_yes_wedge_link(self):
        # x sits below two disjoint crowns glued at a point... simpler: the
        # link of the cone point over a non-core acyclic space.  Take a
        # 4-fence (contractible, core is a point): its cone point is
        # certified.  For homology_yes we need an acyclic link whose core
        # is not a point; none exists below 9 points here, so assert the
        # certified path on the fence cone instead.
        f = fence(4)
        labels = list(f.labels) + ["top"]
        covers = [(f.labels[a], f.labels[b]) for a, b in f.covers]
        covers += [(lab, "top") for lab in f.labels]
        p = Poset.from_covers(labels, covers)
        assert is_gamma_point(p, p.index("top")) == CERTIFIED_YES


    def test_core_link_matches_full_link(self):
        cases = [seeded_random_poset(seed) for seed in range(200)]
        cases += [with_tails(layered(2, d + 1), 2) for d in (1, 2, 3)]
        cases += [crown(k) for k in range(2, 6)] + [rp2_face_poset()]
        for p in cases:
            verdicts = gamma_points(p)
            assert len(verdicts) == p.n
            for x in range(p.n):
                assert is_gamma_point(p, x) == verdicts[x] == gamma_by_full_link(p, x)

    def test_all_points_match_each_point_on_two_sided_links(self):
        for (a, lower), (b, upper) in product(TestTwoSidedLinks.sides().items(), repeat=2):
            p = ordinal_sum(lower, chain(1), upper)
            verdicts = gamma_points(p)
            assert verdicts == [is_gamma_point(p, x) for x in range(p.n)], (a, b)
            # the dense oracle cannot afford m's link when both sides are large
            dense = "antichain2" in (a, b) or "rp2" not in (a, b)
            assert all(verdicts[x] == gamma_by_full_link(p, x)
                       for x in range(p.n) if dense or x != lower.n), (a, b)

    def test_each_side_dismantled_and_each_summand_listed_once(self, monkeypatch):
        # the points of an antichain share a side whose tails dismantle,
        # and points share summands that are not whole sides
        dismantled, listed = [], []

        def counting_core_mask(p, within=None):
            dismantled.append(within)
            return core_mask(p, within)

        def counting_order_complex(p, guard=simplicial.COMPLEX_GUARD, within=None):
            listed.append(within)
            return order_complex(p, guard, within)

        monkeypatch.setattr(simplicial, "core_mask", counting_core_mask)
        monkeypatch.setattr(simplicial, "order_complex", counting_order_complex)
        cases = [with_tails(layered(2, d + 1), 2) for d in (1, 2, 3)]
        cases += [with_tails(layered(3, 3), 1), ordinal_sum(crown(2), chain(1), crown(3))]
        cases += [ordinal_sum(with_tails(crown(2), 1), antichain(3)),
                  ordinal_sum(antichain(2), with_tails(crown(3), 2))]
        cases += summand_corpus()[:20]
        for p in cases:
            dismantled.clear()
            listed.clear()
            gamma_points(p)
            sides = {m ^ 1 << x for x in range(p.n) for m in (p.down[x], p.up[x])}
            assert sorted(dismantled) == sorted(sides)
            assert len(listed) == len(set(listed))

    def test_no_complex_listed_below_height_two(self, monkeypatch):
        # a summand with no chain of three gets its groups in closed form,
        # so only taller summands reach order_complex
        listed = []

        def counting_order_complex(p, guard=simplicial.COMPLEX_GUARD, within=None):
            listed.append(within)
            return order_complex(p, guard, within)

        monkeypatch.setattr(simplicial, "order_complex", counting_order_complex)
        cases = summand_corpus() + elimination_families()
        cases += [ordinal_sum(with_tails(crown(2), 1), antichain(3))]
        tall = 0
        for p in cases:
            for fn in (poset_homology, gamma_points):
                listed.clear()
                fn(p)
                assert all(len(chain_counts(p, within=m)) >= 3 for m in listed), fn
                tall += len(listed)
        assert tall


class TestInvariance:
    """P and its core have the same homology: they are homotopy
    equivalent (Stong 1966)."""

    def test_examples(self):
        for p in (fence(6), crown(3)):
            assert same_homology(poset_homology(p), poset_homology(core(p).core))

    def test_random(self):
        for seed in range(20):
            p = random_poset(7, 0.35, seed)
            assert same_homology(poset_homology(p), poset_homology(core(p).core))
