"""Shared oracles and enumeration utilities for the test suite."""

import itertools
import random

from finspace.homotopy import are_isomorphic
from finspace.poset import Poset, bits
from finspace.reduction import beat_points, remove_beat_point
from finspace.simplicial import HomologyProfile, _smith_invariant_factors


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
        candidates = beat_points(p, basepoint, mask)
        if not candidates:
            break
        x = min(candidates)
        step = remove_beat_point(p, x, basepoint, mask)
        steps.append((step.kind, x, step.targets[x]))
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
        return HomologyProfile((), (), reduced)
    counts = [k.count(d) for d in range(dim + 1)]
    factors = [[] for _ in range(dim + 2)]
    if reduced:
        factors[0] = _smith_invariant_factors([[1] * counts[0]], counts[0])
    for d in range(1, dim + 1):
        rows = boundary_rows(k.simplices[d - 1], k.simplices[d])
        factors[d] = _smith_invariant_factors(rows, counts[d])
    betti = []
    torsion = []
    for d in range(dim + 1):
        betti.append(counts[d] - len(factors[d]) - len(factors[d + 1]))
        torsion.append(tuple(f for f in factors[d + 1] if f > 1))
    return HomologyProfile(tuple(betti), tuple(torsion), reduced)
