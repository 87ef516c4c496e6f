"""Shared oracles and enumeration utilities for the test suite."""

import contextlib
import itertools
import math
import random
import signal

import pytest

from finspace.errors import CycleError, DuplicateLabel, GuardExceeded, UnknownLabel
from finspace.homotopy import IsoWitness, are_isomorphic
from finspace.maps import MonotoneMap, _iter_assignments, enumerate_monotone
from finspace.poset import ClassifyRecord, Poset, bits, check_point, components
from finspace.reduction import BULK_DOWN, BULK_UP, REMOVE_DOWN, REMOVE_UP
from finspace.simplicial import (
    CERTIFIED_YES, HOMOLOGY_YES, NO, HomologyProfile, _smith_invariant_factors, order_complex,
)


def all_labeled_posets(n):
    """All posets on n elements whose order respects id order.

    Every finite poset has a linear extension, so every isomorphism class
    appears at least once.  Enumerates subsets of the strict upper
    triangle and keeps the transitively closed ones.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [f"e{i}" for i in range(n)]
    out = []
    for mask in range(1 << len(pairs)):
        rel = set(pairs[k] for k in range(len(pairs)) if mask >> k & 1)
        if all((a, c) in rel
               for (a, b) in rel for (b2, c) in rel if b2 == b):
            out.append(Poset.from_covers(
                labels, [(labels[a], labels[b]) for a, b in rel]))
    return out


def posets_up_to_iso(n):
    """One representative per isomorphism class of n-element posets."""
    reps = []
    for p in all_labeled_posets(n):
        if not any(are_isomorphic(p, q) for q in reps):
            reps.append(p)
    return reps


def random_height1_poset(rng, max_size):
    """A random poset of height <= 1 (bipartite covers), size >= 1."""
    n = rng.randint(1, max_size)
    n_min = rng.randint(1, n)
    labels = [f"v{i}" for i in range(n)]
    covers = []
    for i in range(n_min, n):
        for j in range(n_min):
            if rng.random() < 0.4:
                covers.append((f"v{j}", f"v{i}"))
    return Poset.from_covers(labels, covers)


def layered(width, depth):
    """Every element of level i below every element of level i + 1."""
    levels = [[f"l{i}_{j}" for j in range(width)] for i in range(depth)]
    covers = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi]
    return Poset.from_covers([x for level in levels for x in level], covers)


def maxima_and_covers(p):
    """Labels of the maximal elements of P and its covers by label."""
    maxima = [p.labels[x] for x in range(p.n) if p.up[x] == 1 << x]
    return maxima, [(p.labels[a], p.labels[b]) for a, b in p.covers]


def with_tails(p, length):
    """A chain of ``length`` points hung above each maximal element: the
    new points are beat points, so the core is that of P."""
    maxima, covers = maxima_and_covers(p)
    labels = list(p.labels)
    for m in maxima:
        prev = m
        for i in range(length):
            labels.append(f"{m}_t{i}")
            covers.append((prev, labels[-1]))
            prev = labels[-1]
    return Poset.from_covers(labels, covers)


def crown_union(*ks):
    """Disjoint union of crowns with k_0, k_1, ... minimal elements."""
    labels, covers = [], []
    for c, k in enumerate(ks):
        labels += [f"u{c}a{i}" for i in range(k)] + [f"u{c}b{i}" for i in range(k)]
        covers += [(f"u{c}a{i}", f"u{c}b{j}") for i in range(k) for j in (i, (i + 1) % k)]
    return Poset.from_covers(labels, covers)


def with_beat_points(p, rng, k):
    """P with ``k`` new points, each covering exactly one point or covered
    by exactly one (so each is a beat point and the core is unchanged),
    with all labels in a shuffled id order."""
    labels = list(p.labels)
    covers = [(p.labels[a], p.labels[b]) for a, b in p.covers]
    for i in range(k):
        new, old = f"t{i}", rng.choice(labels)
        covers.append((old, new) if rng.random() < 0.5 else (new, old))
        labels.append(new)
    rng.shuffle(labels)
    return Poset.from_covers(labels, covers)


def random_core(rng, n):
    """A random levelled poset with no beat points, ids level by level.

    Only adjacent levels of at least four points are joined, and every
    point to at least two of the level below and two of the level above
    (where there is one), so no point has a single lower or upper cover.
    """
    width = max(4, round(n ** 0.5))
    sizes = [width] * (n // width)
    sizes[-1] += n % width
    levels, k = [], 0
    for size in sizes:
        levels.append([f"c{k + i}" for i in range(size)])
        k += size
    pairs = set()
    for lo, hi in zip(levels, levels[1:]):
        for b in hi:
            pairs.update((a, b) for a in rng.sample(lo, 2))
        for a in lo:
            pairs.update((a, b) for b in rng.sample(hi, 2))
        for _ in range(len(lo)):
            pairs.add((rng.choice(lo), rng.choice(hi)))
    return Poset.from_covers([x for level in levels for x in level], sorted(pairs))


def against_extensions(p):
    """P under new ids that run against every linear extension: ordered
    by down-set size, largest first, so a < b gives b the lower id."""
    labels = [p.labels[x] for x in sorted(range(p.n), key=lambda x: -p.down[x].bit_count())]
    return Poset.from_covers(labels, [(p.labels[a], p.labels[b]) for a, b in p.covers])


def pointwise_strict_up(c):
    """The strict up-mask of every map of the function poset ``c`` in the
    pointwise order, m^2 bits for m maps: one mask of the maps sending x
    into the up-set of v for each (x, v), and for each map the
    intersection of those of its values.  The oracle for every order
    question that ``FunctionPoset`` answers by one-point moves."""
    y = c.codomain
    sending = [[0] * y.n for _ in range(c.domain.n)]  # maps sending x to v
    for j, a in enumerate(c.assignments):
        for x, v in enumerate(a):
            sending[x][v] |= 1 << j
    within = [[0] * y.n for _ in range(c.domain.n)]  # maps sending x above v
    for x, row in enumerate(sending):
        for v in range(y.n):
            for w in bits(y.up[v]):
                within[x][v] |= row[w]
    reach = []
    for i, a in enumerate(c.assignments):
        mask = (1 << len(c)) - 1
        for x, v in enumerate(a):
            mask &= within[x][v]
        reach.append(mask & ~(1 << i))
    return reach


def pointwise_comparability(c):
    """The strict comparability mask of every map of ``c``, from
    ``pointwise_strict_up`` and its transpose."""
    up = pointwise_strict_up(c)
    comp = list(up)
    for i, mask in enumerate(up):
        for j in bits(mask):
            comp[j] |= 1 << i
    return comp


def pointwise_order(c):
    """The pointwise order of ``c`` as a Poset on labels f0, f1, ... by
    ``poset_by_closure`` of every strict pair of ``pointwise_strict_up``."""
    labels = [f"f{i}" for i in range(len(c))]
    return poset_by_closure(labels, [(labels[i], labels[j])
                                     for i, up in enumerate(pointwise_strict_up(c))
                                     for j in bits(up)])


def components_by_comparability(c):
    """Homotopy classes of the function poset ``c`` as the components of
    the comparability graph of its own pointwise order: the straightforward
    form of ``FunctionPoset.class_roots``, without the move kernel."""
    return [frozenset(bits(part))
            for part in components(pointwise_comparability(c).__getitem__, len(c))]


def brute_force_down_sets(p):
    """All down-sets by filtering every subset (independent oracle)."""
    out = set()
    for mask in range(1 << p.n):
        if all(p.down[x] & ~mask == 0 for x in range(p.n) if mask >> x & 1):
            out.add(mask)
    return out


def brute_force_monotone(x, y):
    """All monotone assignment tuples by filtering every function."""
    out = []
    for a in itertools.product(range(y.n), repeat=x.n):
        if all(y.leq(a[i], a[j]) for i in range(x.n) for j in range(x.n)
               if x.leq(i, j)):
            out.append(a)
    return out


def assignments_by_predecessors(x, y):
    """Monotone assignment tuples X -> Y in lexicographic order, each
    position's values worked out from the earlier positions comparable to
    it: the straightforward form of ``maps._iter_assignments`` with full
    domains, without forward checking."""
    n = x.n
    if n == 0:
        yield ()
        return
    pred_le = [x.down[i] & ((1 << i) - 1) for i in range(n)]
    pred_ge = [x.up[i] & ((1 << i) - 1) for i in range(n)]
    assign = [0] * n
    untried = [y.full_mask] + [0] * (n - 1)
    i = 0
    while i >= 0:
        rest = untried[i]
        if not rest:
            i -= 1
            continue
        low = rest & -rest
        untried[i] = rest ^ low
        assign[i] = low.bit_length() - 1
        if i == n - 1:
            yield tuple(assign)
            continue
        i += 1
        allowed = y.full_mask
        for j in bits(pred_le[i]):
            allowed &= y.up[assign[j]]
        for j in bits(pred_ge[i]):
            allowed &= y.down[assign[j]]
        untried[i] = allowed


def count_by_enumeration(x, y, guard=10**6):
    """Number of monotone maps X -> Y by listing them: the straightforward
    form of ``maps.count_monotone``."""
    c = 0
    for _ in _iter_assignments(x, y):
        c += 1
        if c > guard:
            raise GuardExceeded(f"more than {guard} monotone maps")
    return c


def fpp_by_enumeration(x, guard=10**6):
    """Fixed point property by filtering every monotone self-map of X for
    the first without a fixed point: the straightforward form of
    ``maps.has_fpp``, without the reduction to the core."""
    c = 0
    for a in _iter_assignments(x, x):
        c += 1
        if c > guard:
            raise GuardExceeded(f"more than {guard} self-maps")
        if all(a[i] != i for i in range(x.n)):
            return False, MonotoneMap(x, x, a)
    return True, None


def transitive_closure_oracle(n, pairs):
    """Triple-scan closure of a strict relation (independent oracle)."""
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (b2, c) in list(rel):
                if b2 == b and (a, c) not in rel and a != c:
                    rel.add((a, c))
                    changed = True
    return rel


def random_pairs(rng, n, density):
    """Label pairs of a random order on ``n`` shuffled ids: each pair
    ascending in a hidden linear extension is kept with ``density``; then
    some transitive, duplicated and reflexive pairs are added, and the
    list is shuffled."""
    rank = list(range(n))
    rng.shuffle(rank)
    pairs = [(a, b) for a in range(n) for b in range(n)
             if rank[a] < rank[b] and rng.random() < density]
    for (a, b) in list(pairs):
        for (b2, c) in pairs[:8]:
            if b2 == b and rng.random() < 0.5:
                pairs.append((a, c))
    pairs += rng.sample(pairs, len(pairs) // 4)
    pairs += [(a, a) for a in range(n) if rng.random() < 0.1]
    rng.shuffle(pairs)
    return [(f"e{a}", f"e{b}") for a, b in pairs]


def assert_same_poset(p, q):
    assert p.labels == q.labels
    assert p.up == q.up and p.down == q.down and p.covers == q.covers
    assert p.lower_covers == q.lower_covers and p.upper_covers == q.upper_covers


def closure_by_warshall(adj):
    """The transitive closure of the relation with successor masks
    ``adj``, by Warshall's O(n^2) loop over mask tests: the oracle for
    every closure the package computes by walking covers or BFS."""
    reach = list(adj)
    n = len(reach)
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= rk
    return reach


def poset_by_closure(labels, pairs):
    """A poset from (lower, upper) label pairs by a Warshall closure and a
    scan of every comparable pair for covers: the straightforward form of
    ``Poset.from_covers``, O(n^2) mask operations."""
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("duplicate label")
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    adj = [0] * n
    for a, b in pairs:
        if a not in index or b not in index:
            raise UnknownLabel(f"unknown label in ({a!r}, {b!r})")
        if a != b:
            adj[index[a]] |= 1 << index[b]
    reach = closure_by_warshall(adj)
    for i in range(n):
        if reach[i] >> i & 1:
            raise CycleError(f"cycle through element {labels[i]!r}")
    inv = [0] * n
    for i in range(n):
        for j in bits(reach[i]):
            inv[j] |= 1 << i
    covers = {(a, b) for a in range(n) for b in bits(reach[a]) if reach[a] & inv[b] == 0}
    lower, upper = [0] * n, [0] * n
    for a, b in covers:
        lower[b] |= 1 << a
        upper[a] |= 1 << b
    return Poset(labels, [inv[i] | (1 << i) for i in range(n)],
                 [reach[i] | (1 << i) for i in range(n)], lower, upper)


def classify_by_dfs(p, exact_limit=24):
    """``poset.classify`` by a plain depth-first search over every simple
    comparability path.  Recurses once per element and is exponential in
    the number of paths, so keep inputs small."""
    n = p.n
    degree = max((p.comparability_mask(x).bit_count() + 1 for x in range(n)), default=0)
    if n == 0:
        return ClassifyRecord(0, 0, 0)
    if n > exact_limit:
        return ClassifyRecord(degree, n - 1, n, approximate=True)
    adj = [p.comparability_mask(x) for x in range(n)]
    best = 0

    def dfs(x, visited, length):
        nonlocal best
        if length > best:
            best = length
        for y in bits(adj[x] & ~visited):
            if best == n - 1:  # a Hamiltonian path: no simple path is longer
                return
            dfs(y, visited | (1 << y), length + 1)

    for s in range(n):
        if best == n - 1:
            break
        dfs(s, 1 << s, 0)
    return ClassifyRecord(degree, best, best + 1)


def beat_target_by_scan(p, x, mask, upward):
    """u_x, the smallest element of the punctured up-set of x within
    ``mask`` (upward), or d_x, the largest of its punctured down-set; None
    if there is no such element.  Scans the punctured set for a member
    whose cone holds all of it: the definition of a beat point, against
    the one-bit cover test of ``reduction``."""
    cone = p.up if upward else p.down
    punctured = cone[x] & mask & ~(1 << x)
    for t in bits(punctured):
        if punctured & ~cone[t] == 0:  # every member lies in t's cone
            return t
    return None


def beat_points_by_scan(p, basepoint, mask, upward=None):
    """The up (upward=True), down (False) or all (None) beat points of the
    subspace ``mask``, the basepoint excluded, by ``beat_target_by_scan``."""
    ways = (False, True) if upward is None else (upward,)
    return frozenset(x for x in bits(mask) if x != basepoint and any(
        beat_target_by_scan(p, x, mask, w) is not None for w in ways))


def standard_sequence_by_scan(p, basepoint=None):
    """The standard sequence with every beat target found by a scan of the
    punctured up- or down-set in the current subspace: the straightforward
    form of ``reduction.standard_sequence`` (default round limit).
    Returns the (kind, domain, removed, mapping) of every step, with only
    the moved points in the mapping, and the surviving elements."""
    mask = p.full_mask
    steps = []
    idle = rounds = 0
    upward = False
    while rounds < 2 * max(p.n, 1) + 4 and idle < 2:
        one = {}
        for x in bits(mask):
            t = None if x == basepoint else beat_target_by_scan(p, x, mask, upward)
            one[x] = x if t is None else t
        rounds += 1
        kind = BULK_UP if upward else BULK_DOWN
        upward = not upward
        if all(v == x for x, v in one.items()):
            idle += 1
            continue
        idle = 0
        mapping = {}
        for x in bits(mask):
            v = x
            while one[v] != v:
                v = one[v]
            if v != x:
                mapping[x] = v
        removed = frozenset(mapping)
        steps.append((kind, mask, removed, mapping))
        for x in removed:
            mask &= ~(1 << x)
    return steps, frozenset(bits(mask))


def core_by_rescan(p, basepoint=None):
    """Dismantling by rescanning every remaining point after each removal.

    The straightforward form of ``reduction.core`` with the same policy
    (lowest-id beat point first, down-beat retraction preferred), built
    on the punctured-set beat test instead of cover counts.  Returns the
    (kind, removed, target) sequence and the surviving elements.
    """
    mask = p.full_mask
    steps = []
    while True:
        candidates = beat_points_by_scan(p, basepoint, mask)
        if not candidates:
            break
        x = min(candidates)
        d = beat_target_by_scan(p, x, mask, upward=False)
        if d is not None:
            steps.append((REMOVE_DOWN, x, d))
        else:
            steps.append((REMOVE_UP, x, beat_target_by_scan(p, x, mask, upward=True)))
        mask &= ~(1 << x)
    return steps, frozenset(bits(mask))


def boundary_rows(lower, upper):
    """Dense rows (indexed by (d-1)-simplices) of the boundary matrix of
    the d-simplices ``upper`` over faces ``lower``."""
    index = {s: i for i, s in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for pos in range(len(s)):
            face = s[:pos] + s[pos + 1:]
            rows[index[face]][j] = (-1) ** pos
    return rows


def homology_dense(k, reduced=False):
    """Integer homology by a dense Smith normal form of every boundary
    matrix: the straightforward form of ``simplicial.homology``, without
    its unit-pivot elimination or guard."""
    dim = k.dimension()
    if dim < 0:
        return HomologyProfile((), ())
    counts = [k.count(d) for d in range(dim + 1)]
    factors = [[] for _ in range(dim + 2)]
    if reduced:
        factors[0] = _smith_invariant_factors([[1] * counts[0]])
    for d in range(1, dim + 1):
        rows = boundary_rows(k.simplices[d - 1], k.simplices[d])
        factors[d] = _smith_invariant_factors(rows)
    betti = []
    torsion = []
    for d in range(dim + 1):
        betti.append(counts[d] - len(factors[d]) - len(factors[d + 1]))
        torsion.append(tuple(f for f in factors[d + 1] if f > 1))
    return HomologyProfile(tuple(betti), tuple(torsion))


def _det(m):
    """Determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * v * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, v in enumerate(m[0]) if v)


def invariant_factors_by_minors(rows):
    """Nonzero invariant factors of a small integer matrix from its
    determinantal divisors, without any elimination: d_k is the gcd of
    the k x k minors, d_0 = 1, and s_k = d_k / d_{k-1} while d_k != 0."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for rs in itertools.combinations(range(nr), k):
            for cs in itertools.combinations(range(nc), k):
                d = math.gcd(d, _det([[rows[i][j] for j in cs] for i in rs]))
        if not d:
            break
        factors.append(d // prev)
        prev = d
    return factors


def same_homology(a, b):
    """Degreewise equality of two HomologyProfiles, whose lengths follow
    the dimensions of their complexes and so may differ."""
    top = max(len(a.betti), len(b.betti))
    return all(a.degree(d) == b.degree(d) for d in range(top))


def link(p, x):
    """The subspace of all points comparable to x, minus x itself: the
    paper's and Barmak's C^_x, which ``simplicial.is_gamma_point`` reads
    as its two sides on P's own masks.  UnknownLabel for x outside
    0..n - 1."""
    check_point(p, x, "point")
    sub, _ = p.restrict(bits(p.comparability_mask(x)))
    return sub


def gamma_by_full_link(p, x):
    """The verdict of ``simplicial.is_gamma_point`` decided on the whole
    link of x: the link dismantles by ``core_by_rescan``, and its reduced
    homology is the dense Smith normal form of the link's own order
    complex (no guard), not of its core's."""
    lk, _ = p.restrict([y for y in range(p.n) if y != x and p.comparable(x, y)])
    if lk.n == 0:
        return NO
    if len(core_by_rescan(lk)[1]) == 1:
        return CERTIFIED_YES
    return HOMOLOGY_YES if homology_dense(order_complex(lk), reduced=True).is_acyclic() else NO


def _joint_refine(p, q):
    """Stable colorings of two posets by iterated neighbourhood profiles,
    with one color table shared so that ids are comparable."""
    posets = (p, q)
    colors = [
        [(x.down[i].bit_count(), x.up[i].bit_count()) for i in range(x.n)]
        for x in posets
    ]
    while True:
        table = {}
        new = [[], []]
        for k, x in enumerate(posets):
            for i in range(x.n):
                below = tuple(sorted(colors[k][j] for j in bits(x.down[i] & ~(1 << i))))
                above = tuple(sorted(colors[k][j] for j in bits(x.up[i] & ~(1 << i))))
                key = (colors[k][i], below, above)
                new[k].append(table.setdefault(key, len(table)))
        if all(
            len(set(new[k])) == len(set(colors[k])) for k in range(2)
        ) and len(set(new[0]) | set(new[1])) == len(set(colors[0]) | set(colors[1])):
            return new[0], new[1]
        colors = new


def iso_by_backtrack(p, q, fix=None):
    """Order isomorphism by colour refinement and a plain backtrack that
    checks every assigned pair with ``leq``: the straightforward form of
    ``homotopy.are_isomorphic``.  Recurses once per element, so keep
    inputs small."""
    if p.n != q.n or len(p.covers) != len(q.covers):
        return None
    cp, cq = _joint_refine(p, q)
    if sorted(cp) != sorted(cq):
        return None
    candidates = [[j for j in range(q.n) if cq[j] == cp[i]] for i in range(p.n)]
    if fix is not None:
        x0, y0 = fix
        if cq[y0] != cp[x0]:
            return None
        candidates[x0] = [y0]
    order = sorted(range(p.n), key=lambda i: len(candidates[i]))
    assigned = [-1] * p.n
    used = [False] * q.n

    def backtrack(k):
        if k == p.n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            if all(p.leq(i, i2) == q.leq(j, assigned[i2])
                   and p.leq(i2, i) == q.leq(assigned[i2], j) for i2 in order[:k]):
                assigned[i] = j
                used[j] = True
                if backtrack(k + 1):
                    return True
                used[j] = False
                assigned[i] = -1
        return False

    return IsoWitness(tuple(assigned)) if backtrack(0) else None


def brute_force_homotopy_equivalent(p, q, guard=10**6):
    """Independent oracle: search for f: P->Q, g: Q->P with g o f
    homotopic to id_P and f o g homotopic to id_Q.

    Homotopy is decided by the one-point cover moves of the function
    posets themselves (``FunctionPoset.class_roots``), never through
    cores; correct for finite inputs only.  Used to validate
    are_homotopy_equivalent in tests.  f <= f' implies g o f <= g o f'
    and f o g <= f' o g (and likewise for g), so the classes of the
    composites depend only on the classes of f and g, and one
    representative of each class of C(P,Q) and of C(Q,P) is tried.
    ``guard`` bounds the maps of each function poset listed (C(P,Q),
    C(Q,P), C(P,P), C(Q,Q)) and the candidate pairs |C(P,Q)| * |C(Q,P)|.
    """
    if p.n == 0 or q.n == 0:
        return p.n == q.n
    cpq = enumerate_monotone(p, q, guard=guard)
    cqp = enumerate_monotone(q, p, guard=guard)
    if len(cpq.assignments) * len(cqp.assignments) > guard:
        raise GuardExceeded("too many candidate pairs")
    id_p = _identity_class(enumerate_monotone(p, p, guard=guard))
    id_q = _identity_class(enumerate_monotone(q, q, guard=guard))
    for f in _class_representatives(cpq):
        for g in _class_representatives(cqp):
            if tuple(g[v] for v in f) in id_p and tuple(f[v] for v in g) in id_q:
                return True
    return False


def _class_representatives(c):
    """The lowest-index map of each homotopy class of c."""
    return [c.assignments[i] for i, k in enumerate(c.class_roots()) if k == i]


def _identity_class(c):
    """The assignments in the homotopy class of the identity."""
    roots = c.class_roots()
    ident = roots[c.identity_index()]
    return {a for a, k in zip(c.assignments, roots) if k == ident}


@contextlib.contextmanager
def time_limit(seconds, what):
    """Raise TimeoutError when the block runs for more than ``seconds`` of
    wall time, naming ``what``; skip the test where ``signal.setitimer``
    is missing."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs signal.setitimer")

    def expire(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
