"""Finite posets as bitset tables.

A finite T0 Alexandroff space is the same thing as a finite poset; this
module is the data model everything else builds on.  Elements are dense
integer ids 0..n-1 with a label table.  The full reflexive-transitive
closure is stored as per-element bitmasks (``down[i]`` holds every id
below-or-equal to i, ``up[i]`` every id above-or-equal), so order queries
are single mask operations.  The cover relation (Hasse diagram) is kept
alongside as the transitive reduction.  ``bfs_layers``, ``components`` and
``shortest_path`` are the one BFS kernel behind every graph walk in the
package; each takes a neighbour function ``nbrs(v) -> mask``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CycleError, DuplicateLabel, EmptyPoset, UnknownLabel


def bits(mask):
    """Yield the set bit positions of an int, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def popcount(mask):
    return mask.bit_count()


def bfs_layers(nbrs, start, allowed=-1):
    """Yield the BFS frontiers from ``start`` as masks.

    The first frontier is ``1 << start``; each later one holds the vertices
    first reached one step further out.  ``nbrs(v)`` is the neighbour mask
    of v, and only vertices in ``allowed`` are entered after the start.
    """
    seen = frontier = 1 << start
    while frontier:
        yield frontier
        nxt = 0
        for u in bits(frontier):
            nxt |= nbrs(u)
        frontier = nxt & allowed & ~seen
        seen |= frontier


def components(nbrs, n):
    """Connected components of the graph on 0..n-1 as masks, ordered by
    lowest vertex."""
    parts = []
    rest = (1 << n) - 1
    while rest:
        comp = 0
        for layer in bfs_layers(nbrs, (rest & -rest).bit_length() - 1):
            comp |= layer
        parts.append(comp)
        rest &= ~comp
    return parts


def shortest_path(nbrs, start, goals_mask, allowed=-1):
    """A shortest path from ``start`` to a vertex of ``goals_mask`` through
    ``allowed`` as a vertex list, or None.  ``nbrs`` must be symmetric: the
    path is rebuilt backwards from the lowest goal reached, through the
    stored frontiers, taking the lowest neighbour in each."""
    layers = []
    for layer in bfs_layers(nbrs, start, allowed):
        hit = layer & goals_mask
        if hit:
            v = (hit & -hit).bit_length() - 1
            path = [v]
            for prev in reversed(layers):
                found = nbrs(v) & prev
                v = (found & -found).bit_length() - 1
                path.append(v)
            path.reverse()
            return path
        layers.append(layer)
    return None


def _transitive_closure(adj):
    """Warshall closure of an adjacency list of bitmasks (strict relation)."""
    reach = list(adj)
    n = len(reach)
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= rk
    return reach


class Poset:
    """An immutable finite poset.

    Attributes:
        n: number of elements.
        labels: element names, index = element id.
        down: down[i] = bitmask of {j : j <= i} (includes i).
        up:   up[i]   = bitmask of {j : i <= j} (includes i).
        covers: set of pairs (a, b) with b covering a.
    """

    __slots__ = ("n", "labels", "down", "up", "covers", "full_mask", "_index")

    def __init__(self, labels, down, up, covers):
        self.n = len(labels)
        self.labels = list(labels)
        self.down = list(down)
        self.up = list(up)
        self.covers = frozenset(covers)
        self.full_mask = (1 << self.n) - 1
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_covers(cls, labels, cover_pairs):
        """Build a poset from element names and (lower, upper) pairs.

        The pairs need not be actual covers: the reflexive-transitive
        closure is taken and the cover set recomputed as the transitive
        reduction.  Reflexive pairs are ignored; a directed cycle raises
        CycleError.
        """
        labels = list(labels)
        seen = set()
        for lab in labels:
            if lab in seen:
                raise DuplicateLabel(f"duplicate label {lab!r}")
            seen.add(lab)
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        adj = [0] * n
        for a, b in cover_pairs:
            if a not in index:
                raise UnknownLabel(f"unknown label {a!r}")
            if b not in index:
                raise UnknownLabel(f"unknown label {b!r}")
            i, j = index[a], index[b]
            if i != j:
                adj[i] |= 1 << j
        reach = _transitive_closure(adj)
        for i in range(n):
            if reach[i] >> i & 1:
                raise CycleError(f"cycle through element {labels[i]!r}")
        return cls._from_strict_reach(labels, reach)

    @classmethod
    def _from_strict_reach(cls, labels, reach):
        """From a transitively closed, antisymmetric strict relation."""
        n = len(labels)
        inv = [0] * n
        for i in range(n):
            for j in bits(reach[i]):
                inv[j] |= 1 << i
        covers = set()
        for a in range(n):
            for b in bits(reach[a]):
                if reach[a] & inv[b] == 0:  # nothing strictly between
                    covers.add((a, b))
        down = [inv[i] | (1 << i) for i in range(n)]
        up = [reach[i] | (1 << i) for i in range(n)]
        return cls(labels, down, up, covers)

    # -- basic queries --------------------------------------------------

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.covers)} covers)"

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def leq(self, x, y):
        return bool(self.up[x] >> y & 1)

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def comparable(self, x, y):
        return self.leq(x, y) or self.leq(y, x)

    def down_set(self, x):
        return frozenset(bits(self.down[x]))

    def up_set(self, x):
        return frozenset(bits(self.up[x]))

    def comparability_mask(self, x):
        """All y with y ~ x, excluding x itself."""
        return (self.down[x] | self.up[x]) & ~(1 << x)

    def max_elements(self):
        return frozenset(i for i in range(self.n) if self.up[i] == 1 << i)

    def min_elements(self):
        return frozenset(i for i in range(self.n) if self.down[i] == 1 << i)

    def is_antichain(self, elements):
        elems = list(elements)
        for i, x in enumerate(elems):
            for y in elems[i + 1:]:
                if x != y and self.comparable(x, y):
                    return False
        return True

    def height(self):
        """Length of the longest chain minus one."""
        if self.n == 0:
            raise EmptyPoset("height of the empty poset is undefined")
        order = sorted(range(self.n), key=lambda i: popcount(self.down[i]))
        h = [0] * self.n
        for i in order:
            below = self.down[i] & ~(1 << i)
            h[i] = max((h[j] + 1 for j in bits(below)), default=0)
        return max(h)

    # -- connectivity ---------------------------------------------------

    def components(self):
        """Partition into connected (= path) components, as frozensets."""
        return [frozenset(bits(c)) for c in components(self.comparability_mask, self.n)]

    def spath_distance(self, x, y):
        """Shortest comparability-path length from x to y (inf if separated)."""
        for d, layer in enumerate(bfs_layers(self.comparability_mask, x)):
            if layer >> y & 1:
                return d
        return math.inf

    def ball(self, x, radius):
        """{y : spath_distance(x, y) <= radius}."""
        reached = 0
        for d, layer in enumerate(bfs_layers(self.comparability_mask, x)):
            reached |= layer
            if d >= radius:
                break
        return frozenset(bits(reached))

    # -- derived posets -------------------------------------------------

    def restrict(self, elements):
        """Induced subposet on the given elements.

        Returns (subposet, mapping) where mapping sends old ids to new ids.
        """
        keep = sorted(set(elements))
        old_to_new = {old: new for new, old in enumerate(keep)}
        labels = [self.labels[i] for i in keep]
        reach = []
        for old in keep:
            m = 0
            for o in bits(self.up[old] & ~(1 << old)):
                if o in old_to_new:
                    m |= 1 << old_to_new[o]
            reach.append(m)
        return Poset._from_strict_reach(labels, reach), old_to_new

    def dual(self):
        """The opposite poset (order reversed)."""
        reach = [self.down[i] & ~(1 << i) for i in range(self.n)]
        return Poset._from_strict_reach(list(self.labels), reach)

    def same_order(self, other):
        """Equality of carrier and relation (same ids and labels)."""
        return self.labels == other.labels and self.up == other.up


@dataclass(frozen=True)
class PointedPoset:
    """A poset with a distinguished basepoint."""

    poset: Poset
    basepoint: int

    def __post_init__(self):
        if not 0 <= self.basepoint < self.poset.n:
            raise UnknownLabel(f"basepoint {self.basepoint} out of range")


class Preorder:
    """A reflexive transitive relation, not necessarily antisymmetric.

    rel[i] = bitmask of {j : i <= j}, always including i.
    """

    __slots__ = ("n", "labels", "rel")

    def __init__(self, labels, rel):
        self.n = len(labels)
        self.labels = list(labels)
        self.rel = list(rel)

    @classmethod
    def from_pairs(cls, labels, pairs):
        labels = list(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise DuplicateLabel("duplicate labels")
        n = len(labels)
        adj = [1 << i for i in range(n)]
        for a, b in pairs:
            if a not in index or b not in index:
                raise UnknownLabel(f"unknown label in pair ({a!r}, {b!r})")
            adj[index[a]] |= 1 << index[b]
        return cls(labels, _transitive_closure(adj))

    @classmethod
    def from_poset(cls, p):
        return cls(list(p.labels), list(p.up))

    def leq(self, x, y):
        return bool(self.rel[x] >> y & 1)

    def is_partial_order(self):
        return all(
            not (self.rel[i] >> j & 1 and self.rel[j] >> i & 1)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )


def kolmogorov_quotient(q):
    """Collapse x <= y <= x classes of a preorder to points.

    Returns (poset, projection) where projection[i] is the class id of
    element i.  For a preorder that is already a partial order the result
    is order-isomorphic to the input with an identity-like projection.
    """
    n = q.n
    proj = [-1] * n
    reps = []
    for i in range(n):
        if proj[i] >= 0:
            continue
        cls_id = len(reps)
        reps.append(i)
        for j in range(i, n):
            if q.rel[i] >> j & 1 and q.rel[j] >> i & 1:
                proj[j] = cls_id
    reach = []
    for a, rep in enumerate(reps):
        m = 0
        for b, other in enumerate(reps):
            if b != a and q.rel[rep] >> other & 1:
                m |= 1 << b
        reach.append(m)
    labels = [q.labels[rep] for rep in reps]
    return Poset._from_strict_reach(labels, reach), proj


@dataclass
class ClassifyRecord:
    """Finiteness predicates, trivially true on finite inputs, with witnesses.

    The bound on simple comparability paths is reported both as a step
    count and as an element count, since both conventions are in use.
    """

    finite_chains: bool
    fp: bool
    locally_finite: bool
    comparability_degree: int
    bp_step_bound: int
    bp_element_bound: int
    approximate: bool = False


def classify(p, exact_limit=24):
    """Predicate record for a finite poset.

    The longest-simple-path search is exact for |P| <= exact_limit and
    replaced by the trivial bound n-1 (flagged approximate) above it.
    It stops as soon as it finds a path through all n elements.
    """
    n = p.n
    degree = max((popcount(p.comparability_mask(x)) + 1 for x in range(n)), default=0)
    if n == 0:
        return ClassifyRecord(True, True, True, 0, 0, 0)
    if n > exact_limit:
        return ClassifyRecord(True, True, True, degree, n - 1, n, approximate=True)
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
    return ClassifyRecord(True, True, True, degree, best, best + 1)
