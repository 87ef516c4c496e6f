"""Order complexes, integer simplicial homology, links and gamma-points.

Homology is computed over the integers from the invariant factors of the
boundary maps, so torsion is visible; "acyclic" always means integrally
acyclic.  Each boundary map is held as sparse columns, one
``{face index: +-1}`` dict per simplex, and its invariant factors are
found in two stages:

1. Unit-pivot elimination, from the top dimension down.  While some
   column has a +-1 entry, take the shortest such column and in it the
   unit entry on the shortest row, clear that row with integer column
   operations and drop the pivot's row and column.  Dividing by +-1 is
   exact, so every step is unimodular: the Smith form of the matrix is a
   1 for the pivot followed by the Smith form of the Schur complement
   that remains.  Clearing: the rows R pivoted this way in
   boundary_{d+1} are d-simplices, and their columns are dropped from
   boundary_d before it is eliminated.  Up to column operations inside
   the pivot columns J, the minor on R x J is triangular with +-1
   diagonal, so the boundaries of J replace the basis vectors of R
   unimodularly, and boundary_d sends them to 0.  Rows pivoted in stage 2
   are not cleared: their minor need not be unimodular.
2. The residual block, whose entries are all 0 or of absolute value at
   least 2, is held as dense rows.  An entry of least absolute value is
   the pivot.  Its column and row are reduced by integer division, with
   row and column operations; a nonzero remainder is smaller than the
   pivot, so it becomes the next pivot.  Once the pivot's row and column
   are clear, the pivot is set aside and both are dropped.  The set-aside
   pivots form a diagonal equivalent to the block, and diag(a, b) is
   equivalent to diag(gcd(a, b), lcm(a, b)), so one pass over the pairs
   puts them in divisibility order.  On order complexes the block is
   usually empty or a single column; torsion such as the Z/2 of the
   projective plane comes from here.

Ordinal sums are not eliminated whole.  If every element of A lies below
every element of B, the order complex of the ordinal sum A + B is the
join K(A) * K(B) (Barmak & Minian, Adv. Math. 2008), whose reduced
homology follows from its factors' by the Kunneth formula for joins
(Milnor, Ann. Math. 1956):

    H~_m(A * B) = (+)_{i+j=m-1} H~_i(A) (x) H~_j(B)
                  (+) (+)_{i+j=m-2} Tor(H~_i(A), H~_j(B)),

with Z/s (x) Z/t = Tor(Z/s, Z/t) = Z/gcd(s, t).  ``_ordinal_summands``
cuts P into its finest decomposition, as masks of P, in one walk over a
linear extension that counts the chains inside each summand as it goes,
none listed, against the guard.  A chain of A + B is a chain of A joined
to one of B, so counts fold by products: ``chain_counts`` folds them by
length.  ``poset_homology`` walks once, then folds the summands' groups.
A summand of height at most 1, one with no chain of three, has a graph
for its order complex, so its groups follow from the walk's counts of
its points V and comparable pairs E and from its components C, found by
``poset.components``: H~_0 = Z^(C - 1) and H~_1 = Z^(E - V + C), free,
with C = V for an antichain.  Only a taller summand's complex is listed
and eliminated.  Each of these takes a mask ``within`` of P and works on
the subposet it induces, on P's ids.  ``chains_and_homology``, the
``homology`` verb's path, counts P's chains and folds P's summands from
one walk when P is its own core.

The link of a point x is the non-Hausdorff join of U^_x, below x, and
F^_x, above it, a down-set and an up-set of P.  ``gamma_points`` decides
every point in one call, with no link built: it dismantles each side on
P's own cover masks cut to it (``reduction.core_mask``), and unless one
side's core is a point, the link's core is the ordinal sum of the two
kept masks, whose chains are counted and whose groups are the join of
the two sides'.  Points share sides, and sides share summands, so two
dicts live for the call: one holds each side's kept mask and, once
needed, its walk, the other each summand's and each fold's groups by
mask.  ``is_gamma_point`` runs the same loop on one point.

Python integers cannot overflow.  The guards bound the number
of simplices, not the fill-in of the elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import GuardExceeded
from .poset import _linear_extension, bits, check_mask, check_point, components
from .reduction import core_mask

# bounds the chains listed (order_complex) or counted (the walk of
# _ordinal_summands, before any is listed) and the simplices whose
# homology is computed (homology)
COMPLEX_GUARD = 100_000

CERTIFIED_YES = "certified_yes"
HOMOLOGY_YES = "homology_yes"
NO = "no"


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces grouped by dimension; each simplex a sorted vertex tuple."""

    simplices: tuple  # simplices[d] = sorted tuple of d-simplices

    def dimension(self):
        return len(self.simplices) - 1

    def count(self, d):
        if 0 <= d < len(self.simplices):
            return len(self.simplices[d])
        return 0

    def total(self):
        return sum(len(s) for s in self.simplices)

    def euler_characteristic(self):
        return sum((-1) ** d * len(s) for d, s in enumerate(self.simplices))


def order_complex(p, guard=COMPLEX_GUARD, within=None):
    """The complex of nonempty chains of P inside the mask ``within`` (all
    of P by default), on P's ids: the order complex of that subposet.

    The guard bounds the number of simplices (chains) produced.  Chains
    are grown on an explicit stack, so the height of P is not limited by
    the recursion limit.
    """
    by_len = [[] for _ in range(p.n + 1)]
    count = 0
    up = p.up
    # each entry is a chain ascending in the order of P and the mask of the
    # allowed elements strictly above every member, so each is produced once
    stack = [((), check_mask(p, within))]
    while stack:
        chain, allowed = stack.pop()
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            longer = chain + (y,)
            count += 1
            if count > guard:
                raise GuardExceeded(f"more than {guard} chains")
            by_len[len(longer)].append(tuple(sorted(longer)))
            above = allowed & up[y] & ~low
            if above:
                stack.append((longer, above))
    simplices = tuple(tuple(sorted(faces)) for faces in by_len if faces)
    return SimplicialComplex(simplices)


def chain_counts(p, guard=COMPLEX_GUARD, within=None):
    """counts[d] = the number of chains of d + 1 elements of P inside the
    mask ``within`` (all of P by default), that is the d-simplices of the
    order complex of that subposet, without listing them.

    ``_ordinal_summands`` counts each summand's chains by length, packed
    into one int, slot d (bits d*w up to (d+1)*w) holding those of d + 1
    elements, and the guard refuses as ``order_complex``'s does.  A chain
    of A + B is a chain of A joined to one of B, either possibly empty, so
    the summands' packed counts, shifted up one slot with 1 for the empty
    chain, fold by one integer product.

    No slot carries into the next when w = guard.bit_length() (at least
    1), so 2**w > guard: every slot holds at most max(1, guard).  The
    elements before y passed the check, so their chains number at most
    the guard; a slot of y's int is 1 (y alone) or counts some of them
    (y above them), and so is a slot of the sum over the x below y, and
    of the product once the summand's last element passed the check.
    """
    return _fold_counts(_ordinal_summands(p, within, guard)[0], guard)


def _fold_counts(summands, guard):
    """The chain counts by length of the ordinal sum of ``summands``, each
    ``(mask, packed counts)`` from a walk under ``guard`` (``chain_counts``)."""
    width = max(1, guard.bit_length())
    packed = 1  # the summands folded so far, with the empty chain
    for _, inside in summands:
        packed *= 1 + (inside << width)
    slot = (1 << width) - 1
    return [(packed >> k * width) & slot for k in range(1, -(-packed.bit_length() // width))]


def _ordinal_summands(p, within=None, guard=COMPLEX_GUARD):
    """The finest decomposition of the subposet on the mask ``within`` (all
    of P by default) as an ordinal sum P_1 + ... + P_k (every element of
    P_i below every element of P_j for i < j), bottom first, as
    ``(summands, chains)``: each summand its mask of P and its chains'
    counts by length packed into one int (``chain_counts``), and
    ``chains`` 1 plus the number of chains of the sum.

    P_1 + ... + P_i is a prefix of every linear extension, so one pass over
    one finds the cuts: a cut falls after a prefix when every element
    after it lies in the intersection of the prefix's up-sets.  The same
    pass counts, listing no chain: those topped by y are y alone and y
    above one topped by some x < y in y's summand, the bottom of what the
    last cut left.  A chain of the sum is a chain of each summand, any of
    them empty; the running number of chains of the sum, checked against
    the guard after each element, only grows, so the guard refuses
    exactly when the whole count exceeds it.
    """
    width = max(1, guard.bit_length())
    down, up = p.down, p.up
    ending = {}  # ending[y]: the packed counts of the chains topped by y
    tops = {}  # tops[y]: the number of chains topped by y
    summands = []
    inside = total = 0  # this summand's packed counts and number of chains so far
    chains = 1  # 1 plus the number of chains of the summands below it
    rest = common = left = check_mask(p, within)  # left: what the last cut left
    for y in _linear_extension(p, rest):
        below = down[y] & left ^ 1 << y
        if below:
            below = list(bits(below))
            ending[y] = mine = 1 + (sum(map(ending.__getitem__, below)) << width)
            tops[y] = count = 1 + sum(map(tops.__getitem__, below))
        else:
            ending[y] = tops[y] = mine = count = 1
        inside += mine
        total += count
        if chains * (1 + total) - 1 > guard:
            raise GuardExceeded(f"more than {guard} chains")
        rest ^= 1 << y
        common &= up[y]
        if not rest & ~common:
            summands.append((left ^ rest, inside))
            chains *= 1 + total
            left = rest
            inside = total = 0
    return summands, chains


def _smith_invariant_factors(rows):
    """Invariant factors (diagonal of the Smith normal form) of an integer
    matrix given as a list of rows: pivot isolation, then one gcd/lcm pass
    (module docstring, stage 2)."""
    m = [list(r) for r in rows]
    diag = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot_row = m[i]
        pivot = pivot_row[j]
        for k, row in enumerate(m):
            if k != i and row[j]:
                q = row[j] // pivot
                m[k] = [a - q * b for a, b in zip(row, pivot_row)]
        for c, v in enumerate(pivot_row):
            if c != j and v:
                q = v // pivot
                for row in m:
                    row[c] -= q * row[j]
        if any(pivot_row[:j] + pivot_row[j + 1:]) or any(r[j] for r in m if r is not pivot_row):
            continue  # a remainder is left: it is the next pivot
        diag.append(abs(pivot))
        del m[i]
        for row in m:
            del row[j]
    return _divisibility_order(diag)


def _divisibility_order(diag):
    """The invariant factors of diag(d_1, ..., d_k), nonzero d_i: diag(a, b)
    is equivalent to diag(gcd(a, b), lcm(a, b)), and one pass over the
    pairs leaves each entry dividing the next."""
    diag = list(diag)
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            diag[a], diag[b] = gcd(diag[a], diag[b]), lcm(diag[a], diag[b])
    return diag


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and torsion coefficients per degree."""

    betti: tuple
    torsion: tuple  # torsion[d] = tuple of invariant factors > 1

    def is_acyclic(self):
        """All reduced groups trivial: not so for the empty complex's H_{-1}."""
        return bool(self.betti) and not any(self.betti) and not any(self.torsion)

    def degree(self, d):
        if 0 <= d < len(self.betti):
            return self.betti[d], self.torsion[d]
        return 0, ()


def _boundary_columns(lower, upper):
    """The boundary map of the d-simplices ``upper`` over their faces
    ``lower``, as one ``{face index: +-1}`` column per simplex."""
    index = {s: i for i, s in enumerate(lower)}
    return [{index[s[:pos] + s[pos + 1:]]: -1 if pos & 1 else 1 for pos in range(len(s))}
            for s in upper]


def _eliminate_unit_pivots(columns):
    """Remove every +-1 pivot from a sparse integer matrix.

    ``columns`` is a list of ``{row: nonzero int}`` dicts and is consumed.
    Repeatedly takes the shortest column holding a unit entry and, in it,
    the unit entry whose row has the fewest entries; the other columns
    through that row are cleared by adding an integer multiple of the
    pivot column, and the pivot's row and column are dropped.  Returns
    the pivot rows, in pivot order, and the nonzero residual columns,
    none of which holds a unit entry; the invariant factors of the matrix
    are one 1 per pivot followed by the invariant factors of the residual.
    """
    cols = {j: col for j, col in enumerate(columns) if col}
    rows = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapify(heap)
    pivots = []
    while heap:
        size, j = heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != size:
            continue  # stale entry: the column was eliminated or changed since
        units = [i for i, v in col.items() if v == 1 or v == -1]
        if not units:
            continue  # pushed again if a later pivot changes it
        r = min(units, key=lambda i: len(rows[i]))
        del cols[j]
        for i in col:
            rows[i].discard(j)
        sign = col.pop(r)
        for k in rows.pop(r):
            other = cols[k]
            f = other.pop(r) * sign  # other -= f * pivot column, exact as sign = +-1
            for i, v in col.items():
                w = other.get(i, 0) - f * v
                if w:
                    if i not in other:
                        rows[i].add(k)
                    other[i] = w
                elif i in other:
                    del other[i]
                    rows[i].discard(k)
            if other:
                heappush(heap, (len(other), k))
            else:
                del cols[k]
        pivots.append(r)
    return pivots, list(cols.values())


def _invariant_factors(columns):
    """The unit-pivot rows and the invariant factors of a sparse integer
    matrix (see the module docstring): unit pivots first, then the dense
    stage on the residual block only."""
    pivots, residual = _eliminate_unit_pivots(columns)
    row_ids = sorted({i for col in residual for i in col})
    rows = [[col.get(i, 0) for col in residual] for i in row_ids]
    return pivots, [1] * len(pivots) + _smith_invariant_factors(rows)


def homology(k, reduced=False, guard=COMPLEX_GUARD):
    """Integer simplicial homology of a complex.

    The guard bounds the number of simplices of ``k`` (the size of the
    boundary maps before elimination), not the fill-in of the elimination.
    """
    if k.total() > guard:
        raise GuardExceeded(f"complex with {k.total()} > {guard} simplices")
    dim = k.dimension()
    if dim < 0:
        return HomologyProfile((), ())
    counts = [k.count(d) for d in range(dim + 1)]
    # factors[d] = invariant factors of boundary_d (d -> d-1); degree 0
    # boundary is zero unless reduced, where it maps onto the empty simplex.
    # Top down, so the unit-pivot rows of boundary_{d+1} clear their
    # columns of boundary_d (module docstring).
    factors = [[] for _ in range(dim + 2)]
    cleared = set()
    for d in range(dim, 0, -1):
        upper = [s for j, s in enumerate(k.simplices[d]) if j not in cleared]
        pivots, factors[d] = _invariant_factors(_boundary_columns(k.simplices[d - 1], upper))
        cleared = set(pivots)
    if reduced:
        factors[0] = [1] if counts[0] > len(cleared) else []
    betti = []
    torsion = []
    for d in range(dim + 1):
        rank_d = len(factors[d])
        rank_up = len(factors[d + 1])
        betti.append(counts[d] - rank_d - rank_up)
        torsion.append(tuple(f for f in factors[d + 1] if f > 1))
    return HomologyProfile(tuple(betti), tuple(torsion))


def _join_homology(a, b):
    """Reduced homology of the join of two nonempty complexes from the
    reduced homology of each, by the Kunneth formula for joins (module
    docstring).  Torsion in the top degree of a complex is zero, so the
    Tor term never reaches past the join's dimension."""
    top = len(a.betti) + len(b.betti)
    betti = [0] * top
    orders = [[] for _ in range(top + 1)]  # the cyclic torsion summands of each degree
    # a zero group contributes nothing, so only the nonzero degrees are paired
    nonzero_b = [(j, free, tors) for j, (free, tors) in enumerate(zip(b.betti, b.torsion))
                 if free or tors]
    for i, (free_a, tors_a) in enumerate(zip(a.betti, a.torsion)):
        if not (free_a or tors_a):
            continue
        for j, free_b, tors_b in nonzero_b:
            m = i + j + 1
            betti[m] += free_a * free_b
            orders[m] += list(tors_a) * free_b + list(tors_b) * free_a
            both = [gcd(s, t) for s in tors_a for t in tors_b]
            orders[m] += both  # Z/s (x) Z/t
            orders[m + 1] += both  # Tor(Z/s, Z/t)
    torsion = tuple(tuple(f for f in _divisibility_order(o) if f > 1) for o in orders[:top])
    return HomologyProfile(tuple(betti), torsion)


def _fold_homology(p, guard, summands, known):
    """Reduced homology of the ordinal sum of ``summands`` (the empty
    space's for none), folded from the first summand by ``_join_homology``.

    The dict ``known`` maps masks of P to the reduced homology of the
    subposet on them and is read and extended: a summand missing from it
    gets its groups from ``_summand_homology``, and the sum of the first j
    summands is stored under its mask, so sums that begin alike share
    their folds.  Their chains must have been counted against the guard
    first.
    """
    prof = HomologyProfile((), ())
    mask = 0
    for summand, inside in summands:
        mask |= summand
        folded = known.get(mask)
        if folded is None:
            part = known.get(summand)
            if part is None:
                part = known[summand] = _summand_homology(p, guard, summand, inside)
            folded = known[mask] = part if mask == summand else _join_homology(prof, part)
        prof = folded
    return prof


def _summand_homology(p, guard, mask, inside):
    """Reduced homology of the subposet on ``mask``, whose chains the walk
    under ``guard`` counted by length into ``inside`` (``chain_counts``).

    With no chain of three counted (slot 2 empty) the subposet has height
    at most 1 and its order complex is a graph: V points, E edges and C
    components (``poset.components`` on ``mask``) give H~_0 = Z^(C - 1)
    and H~_1 = Z^(E - V + C), free, and an antichain (E = 0) has C = V.
    Only a taller subposet's complex is listed and eliminated.
    """
    width = max(1, guard.bit_length())
    if inside >> 2 * width:
        return homology(order_complex(p, guard, mask), reduced=True, guard=guard)
    points, edges = inside & (1 << width) - 1, inside >> width
    if not edges:
        return HomologyProfile((points - 1,), ((),))
    up, down = p.up, p.down
    parts = len(components(lambda v: (up[v] | down[v]) & mask, mask))
    return HomologyProfile((parts - 1, edges - points + parts), ((), ()))


def poset_homology(p, guard=COMPLEX_GUARD, within=None):
    """Reduced homology of the order complex of the subposet on the mask
    ``within`` (all of P by default); the guard bounds its chains.

    One walk of the ordinal summands (``_ordinal_summands``) cuts and
    counts, so the guard refuses exactly what ``order_complex(p,
    within=within)`` refuses, before any complex is built; then each
    summand's groups are taken alone, in closed form up to height 1, and
    folded (``_fold_homology``).
    """
    return _fold_homology(p, guard, _ordinal_summands(p, within, guard)[0], {})


def chains_and_homology(p, guard=COMPLEX_GUARD):
    """``chain_counts(p, guard)`` and the reduced homology of P, taken on
    its core (``core_mask``), which is homotopy equivalent to P and whose
    chains are some of P's: the ``homology`` verb's path.

    P is walked first, so the guard refuses as ``chain_counts`` does; when
    P is its own core, as a beat-point-free P is, that one walk's
    summands are folded too, and otherwise the core is walked.
    """
    summands = _ordinal_summands(p, None, guard)[0]
    counts = _fold_counts(summands, guard)
    kept = core_mask(p)
    if kept != p.full_mask:
        summands = _ordinal_summands(p, kept, guard)[0]
    return counts, _fold_homology(p, guard, summands, {})


def gamma_points(p, guard=COMPLEX_GUARD):
    """The ``is_gamma_point`` verdict of every point of P, by id.

    Points that share a side of their link share its work: each side is
    dismantled, and its core cut and counted, once; each ordinal summand
    of a core gets its groups once, whichever points' links hold it, and
    each fold of a core's groups is kept under its mask, so cores that
    begin alike share their folds.  Nothing is kept past the call.
    """
    return _gamma_verdicts(p, range(p.n), guard)


def is_gamma_point(p, x, guard=COMPLEX_GUARD):
    """Three-valued check that removing x preserves the weak homotopy type.

    certified_yes: the link dismantles to a point, hence is homotopically
    trivial.  no: the link has nontrivial reduced homology.  homology_yes:
    the link is acyclic but its core is larger than a point, which settles
    homology preservation only.  The empty link of an isolated point has
    reduced H_{-1} = Z, so the answer is no.

    The link is the non-Hausdorff join A * B of A = U^_x, below x, and
    B = F^_x, above it (Barmak, LNM 2032, 2.7): a down-set and an up-set
    of P, so each is dismantled on P's cover masks cut to it
    (``core_mask``) and no poset is built.  A beat point of a subspace of
    A (or B) is one of its join with B (A) as well, so the core of the
    link is core(A) * core(B).  That is a point iff one side's core is a
    point, as a core of more than one point has no maximum and no
    minimum.  Otherwise the link is homotopy equivalent to that core, the
    ordinal sum of the two kept masks: the guard bounds its
    (1 + c_A)(1 + c_B) - 1 chains, for the chain counts c_A and c_B of the
    sides' cores, and its reduced homology is the join of theirs.  The
    cost is O(|link|) mask operations plus the dismantling of each side,
    and, when neither side's core is a point, the count and homology of
    the cores' summands.  ``gamma_points`` decides every point at once.
    """
    check_point(p, x, "point")
    return _gamma_verdicts(p, (x,), guard)[0]


def _gamma_verdicts(p, points, guard):
    """The verdicts of ``points``, in order, with each side dismantled and
    walked, and each summand's groups taken, once per call (``gamma_points``)."""
    sides = {}  # side mask -> [kept mask, its (summands, 1 + chain count) once walked]
    known = {}  # mask of a summand or of a kept mask's summands from one end -> its homology

    def side(mask):
        entry = sides.get(mask)
        if entry is None:
            entry = sides[mask] = [core_mask(p, mask), None]
        return entry

    verdicts = []
    for x in points:
        bit = 1 << x
        below, above = side(p.down[x] ^ bit), side(p.up[x] ^ bit)
        if below[0].bit_count() == 1 or above[0].bit_count() == 1:
            verdicts.append(CERTIFIED_YES)
            continue
        # walked only now: a link with a side whose core is a point needs no count
        for entry in (below, above):
            if entry[1] is None:
                entry[1] = _ordinal_summands(p, entry[0], guard)
        (low, low_chains), (high, high_chains) = below[1], above[1]
        if low_chains * high_chains - 1 > guard:
            raise GuardExceeded(f"more than {guard} chains")
        # each side folded from its end away from x, where the sides of
        # the points below (above) x begin alike; an empty side adds nothing
        prof = _fold_homology(p, guard, low, known)
        if above[0]:
            upper = _fold_homology(p, guard, high[::-1], known)
            prof = _join_homology(prof, upper) if below[0] else upper
        verdicts.append(HOMOLOGY_YES if prof.is_acyclic() else NO)
    return verdicts
