"""Finite posets as bitset tables.

A finite T0 Alexandroff space is the same thing as a finite poset; this
module is the data model everything else builds on.  Elements are dense
integer ids 0..n-1 with a label table.  The full reflexive-transitive
closure is stored as per-element bitmasks (``down[i]`` holds every id
below-or-equal to i, ``up[i]`` every id above-or-equal), so order queries
are single mask operations.  The cover relation (Hasse diagram), the
transitive reduction, is stored once, as per-element lower- and
upper-cover masks; ``covers``, the pair set, is read off the upper-cover
masks when it is asked for.

``Poset._from_successors`` builds each poset from pairs, each subspace
and each quotient from the relation it is handed, a successor mask per
element: the label pairs (``from_covers``; their one check,
``_successors``, also serves ``Preorder.from_pairs``), the induced order
(``restrict``) or the order between classes (``kolmogorov_quotient``).
One iterative depth-first search orders the relation, checks it for
cycles and fills the up-masks and upper covers as each element finishes;
one pass over the reversed finishing order fills the down-masks and
lower covers.  When the ids follow a linear extension (as in every
generator) the cost is O(n + pairs given) bit tests plus O(covers) mask
unions of n bits each: building ``chain(n)`` is linear in the number of
mask words, not quadratic in n.  A core (``reduction.core``) is a mask
of its input with the cover masks the dismantling leaves; its Poset is
built on first read, closed along those covers with no search.

``bfs_layers``, ``components`` and ``shortest_path`` are the one BFS
kernel behind every breadth-first walk in the package; each takes a
neighbour function ``nbrs(v) -> mask``.  Homotopy classes and minimal
chains in C(X, Y) come from one-point cover moves instead
(``maps.FunctionPoset.class_roots`` and ``shortest_chain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CycleError, DuplicateLabel, EmptyPoset, UnknownLabel


def bits(mask):
    """Yield the set bit positions of an int, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def check_point(p, x, what="basepoint"):
    """UnknownLabel unless x is None or an id 0..len(p) - 1 of a poset's
    points or of C(X, Y)'s maps: the one range check of the package."""
    if x is not None and not 0 <= x < len(p):
        raise UnknownLabel(f"{what} {x} out of range")


def check_mask(p, mask):
    """The elements of P that ``mask`` names, as a mask: all of P for None.
    UnknownLabel if it names an id outside 0..len(p) - 1 (a negative int
    names infinitely many), the one range check of a mask of points."""
    if mask is None:
        return p.full_mask
    if mask & ~p.full_mask:
        raise UnknownLabel(f"mask {mask:#x} out of range")
    return mask


def _linear_extension(p, mask):
    """The ids of P inside ``mask`` by down-set size in P: x < y makes
    down[x] a proper subset of down[y], so this is a linear extension of
    the subposet on ``mask``, ties in ascending id order."""
    down = p.down
    return sorted(bits(mask), key=lambda i: down[i].bit_count())


def bfs_layers(nbrs, start):
    """Yield the BFS frontiers from ``start`` as masks.

    The first frontier is ``1 << start``; each later one holds the vertices
    first reached one step further out.  ``nbrs(v)`` is the neighbour mask
    of v.
    """
    seen = frontier = 1 << start
    while frontier:
        yield frontier
        nxt = 0
        for u in bits(frontier):
            nxt |= nbrs(u)
        frontier = nxt & ~seen
        seen |= frontier


def components(nbrs, mask):
    """Connected components of the graph on the vertices of ``mask`` as
    masks, ordered by lowest vertex; ``nbrs(v)`` must lie inside ``mask``."""
    parts = []
    rest = mask
    while rest:
        comp = 0
        for layer in bfs_layers(nbrs, (rest & -rest).bit_length() - 1):
            comp |= layer
        parts.append(comp)
        rest &= ~comp
    return parts


def shortest_path(nbrs, start, goals_mask):
    """A shortest path from ``start`` to a vertex of ``goals_mask`` as a
    vertex list, or None.  ``nbrs`` must be symmetric: the path is rebuilt
    backwards from the lowest goal reached, through the stored frontiers,
    taking the lowest neighbour in each."""
    layers = []
    for layer in bfs_layers(nbrs, start):
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


def _successors(labels, pairs):
    """A successor mask per label from (lower, upper) label pairs, with
    self-pairs dropped: the one check of label pairs, DuplicateLabel for a
    repeated label and UnknownLabel for a pair naming none."""
    index = {}
    for i, lab in enumerate(labels):
        if index.setdefault(lab, i) != i:
            raise DuplicateLabel(f"duplicate label {lab!r}")
    succ = [0] * len(labels)
    for a, b in pairs:
        if a not in index:
            raise UnknownLabel(f"unknown label {a!r}")
        if b not in index:
            raise UnknownLabel(f"unknown label {b!r}")
        i, j = index[a], index[b]
        if i != j:
            succ[i] |= 1 << j
    return succ


class Poset:
    """An immutable finite poset.

    Attributes:
        n: number of elements.
        labels: element names, index = element id.
        down: down[i] = bitmask of {j : j <= i} (includes i).
        up:   up[i]   = bitmask of {j : i <= j} (includes i).
        lower_covers: lower_covers[i] = bitmask of the elements i covers.
        upper_covers: upper_covers[i] = bitmask of the elements covering i.
            The two are the Hasse diagram, stored nowhere else.
        covers: (property) the set of pairs (a, b) with b covering a.
    """

    __slots__ = ("n", "labels", "down", "up", "lower_covers", "upper_covers",
                 "full_mask")

    def __init__(self, labels, down, up, lower_covers, upper_covers):
        self.n = len(labels)
        self.labels = list(labels)
        self.down = list(down)
        self.up = list(up)
        self.lower_covers = list(lower_covers)
        self.upper_covers = list(upper_covers)
        self.full_mask = (1 << self.n) - 1

    # -- construction ---------------------------------------------------

    @classmethod
    def from_covers(cls, labels, cover_pairs):
        """Build a poset from element names and (lower, upper) pairs.

        The pairs need not be actual covers: the order is the
        reflexive-transitive closure of the pairs and the cover set is
        its transitive reduction.  Duplicate and reflexive pairs are
        ignored; a directed cycle raises CycleError naming an element on
        it.  The cost is that of ``_from_successors``: O(n + pairs) plus
        O(covers) mask unions when the ids follow a linear extension.
        """
        labels = list(labels)
        return cls._from_successors(labels, _successors(labels, cover_pairs))

    @classmethod
    def _from_successors(cls, labels, succ):
        """The poset generated by ``succ[v]``, a mask of elements above v.

        ``succ`` may hold any relation whose transitive closure is
        antisymmetric: covers, comparable pairs or anything between.  One
        depth-first search orders, checks and closes it: roots and
        successors lowest id first, on an explicit stack of (v, successors
        not yet looked at).  A successor still open reaches v, so it lies
        on a cycle, and CycleError names it.  When v finishes, so have its
        successors: its strict up-set is the union of ``reach[w] | w`` over
        them, skipping any already reached (so when the ids follow a linear
        extension only the covers are expanded), and its upper covers are
        the successors that no successor's reach holds.  A pass over the
        reversed finishing order pushes each down-mask to the upper covers.
        """
        n = len(labels)
        reach = [0] * n
        upper = [0] * n
        state = [0] * n  # 0 unseen, 1 open, 2 finished
        finished = []
        for root in range(n):
            if state[root]:
                continue
            state[root] = 1
            stack = [(root, succ[root])]
            while stack:
                v, rest = stack.pop()
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    w = bit.bit_length() - 1
                    if not state[w]:
                        state[w] = 1
                        stack.append((v, rest))
                        stack.append((w, succ[w]))
                        break
                    if state[w] == 1:
                        raise CycleError(f"cycle through element {labels[w]!r}")
                else:
                    rest = succ[v]
                    strict = beyond = 0
                    while rest:
                        bit = rest & -rest
                        r = reach[bit.bit_length() - 1]
                        beyond |= r
                        strict |= r | bit
                        rest &= ~strict
                    reach[v] = strict
                    upper[v] = succ[v] & ~beyond
                    state[v] = 2
                    finished.append(v)
        down = [1 << v for v in range(n)]
        lower = [0] * n
        for v in reversed(finished):
            for w in bits(upper[v]):
                down[w] |= down[v]
                lower[w] |= 1 << v
        up = [reach[v] | (1 << v) for v in range(n)]
        return cls(labels, down, up, lower, upper)

    # -- basic queries --------------------------------------------------

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.covers)} covers)"

    @property
    def covers(self):
        """The pairs (a, b), b covering a, read off ``upper_covers`` anew."""
        return frozenset((a, b) for a, m in enumerate(self.upper_covers) for b in bits(m))

    def index(self, label):
        """The id of ``label``, by a scan of ``labels``."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def leq(self, x, y):
        return bool(self.up[x] >> y & 1)

    def lt(self, x, y):
        """x < y.  No verb calls it: it is the strict order in which the
        paper states covers and beat points, kept beside ``leq``."""
        return x != y and self.leq(x, y)

    def comparable(self, x, y):
        return self.leq(x, y) or self.leq(y, x)

    def down_set(self, x):
        """U_x, the minimal open set of x, as a frozenset.  No verb calls
        it: it is ``down[x]`` as the paper's set, for callers that read
        sets of ids rather than masks."""
        return frozenset(bits(self.down[x]))

    def up_set(self, x):
        """F_x, the closure of x, as a frozenset.  No verb calls it: it
        is ``up[x]`` as the paper's set, for callers that read sets of ids
        rather than masks."""
        return frozenset(bits(self.up[x]))

    def comparability_mask(self, x):
        """All y with y ~ x, excluding x itself."""
        return (self.down[x] | self.up[x]) & ~(1 << x)

    def max_elements(self):
        """The maximal points.  No verb calls it: they are the closed
        points of the space."""
        return frozenset(i for i in range(self.n) if self.up[i] == 1 << i)

    def min_elements(self):
        """The minimal points.  No verb calls it: they are the open
        points of the space."""
        return frozenset(i for i in range(self.n) if self.down[i] == 1 << i)

    def is_antichain(self, elements):
        """Whether no two of the given points are comparable.  No verb
        calls it: it tests whether they span a discrete subspace."""
        elems = list(elements)
        for i, x in enumerate(elems):
            for y in elems[i + 1:]:
                if x != y and self.comparable(x, y):
                    return False
        return True

    def height(self):
        """Length of the longest chain minus one, by a pass over the
        covers, through which every longest chain runs."""
        if self.n == 0:
            raise EmptyPoset("height of the empty poset is undefined")
        h = [0] * self.n
        for i in _linear_extension(self, self.full_mask):
            h[i] = max((h[j] + 1 for j in bits(self.lower_covers[i])), default=0)
        return max(h)

    # -- connectivity ---------------------------------------------------

    def components(self):
        """Partition into connected (= path) components, as frozensets."""
        return [frozenset(bits(c)) for c in components(self.comparability_mask, self.full_mask)]

    def spath_distance(self, x, y):
        """Shortest comparability-path length from x to y (inf if separated).
        No verb calls it: with ``ball`` it is the path metric behind the
        paper's finite-paths and bounded-paths spaces."""
        for d, layer in enumerate(bfs_layers(self.comparability_mask, x)):
            if layer >> y & 1:
                return d
        return math.inf

    def ball(self, x, radius):
        """{y : spath_distance(x, y) <= radius}.  No verb calls it: it is
        the ball of the path metric of ``spath_distance``."""
        reached = 0
        for d, layer in enumerate(bfs_layers(self.comparability_mask, x)):
            reached |= layer
            if d >= radius:
                break
        return frozenset(bits(reached))

    # -- derived posets -------------------------------------------------

    def restrict(self, elements):
        """Induced subposet on the given element ids.

        Returns (subposet, mapping) where mapping sends old ids to new ids.
        Each kept element's successors are the kept part of its strict
        up-set, the induced order itself, which ``_from_successors``
        reduces to covers.  UnknownLabel for an id outside 0..n - 1.
        No verb calls it: it is the paper's subspace of a finite space,
        and the tests' oracle for links, cores and masked complexes.
        """
        keep = sorted(set(elements))
        kept = 0
        for old in keep:
            check_point(self, old, "point")
            kept |= 1 << old
        old_to_new = {old: new for new, old in enumerate(keep)}
        succ = []
        for old in keep:
            m = 0
            for j in bits(self.up[old] & kept & ~(1 << old)):
                m |= 1 << old_to_new[j]
            succ.append(m)
        return Poset._from_successors([self.labels[i] for i in keep], succ), old_to_new

    def dual(self):
        """The opposite poset (order reversed).  No verb calls it:
        it is the opposite space, whose open sets are this one's closed
        sets, and every statement of the paper has its dual on it."""
        return Poset(self.labels, self.up, self.down, self.upper_covers, self.lower_covers)

    def same_order(self, other):
        """Equality of carrier and relation (same ids and labels)."""
        return self.labels == other.labels and self.up == other.up


@dataclass(frozen=True)
class PointedPoset:
    """A poset with a distinguished basepoint."""

    poset: Poset
    basepoint: int

    def __post_init__(self):
        check_point(self.poset, self.basepoint)


class Preorder:
    """A reflexive transitive relation, not necessarily antisymmetric.

    rel[i] = bitmask of {j : i <= j}, always including i.  No verb reads
    one: it is the specialization order of a non-T0 Alexandroff space.
    """

    __slots__ = ("n", "labels", "rel")

    def __init__(self, labels, rel):
        self.n = len(labels)
        self.labels = list(labels)
        self.rel = list(rel)

    @classmethod
    def from_pairs(cls, labels, pairs):
        """The preorder generated by the (lower, upper) label pairs: rel[i]
        is everything ``bfs_layers`` reaches from i along them, since
        cycles are legal here and no topological order exists."""
        labels = list(labels)
        adj = _successors(labels, pairs)
        rel = []
        for i in range(len(labels)):
            reach = 0
            for layer in bfs_layers(adj.__getitem__, i):
                reach |= layer
            rel.append(reach)
        return cls(labels, rel)

    @classmethod
    def from_poset(cls, p):
        """A poset as the preorder it is.  No verb calls it: it is the input
        on which ``kolmogorov_quotient`` is the identity."""
        return cls(list(p.labels), list(p.up))

    def leq(self, x, y):
        return bool(self.rel[x] >> y & 1)


def kolmogorov_quotient(q):
    """Collapse x <= y <= x classes of a preorder to points.

    Returns (poset, projection) where projection[i] is the class id of
    element i.  For a preorder that is already a partial order the result
    is order-isomorphic to the input with an identity-like projection.
    No verb calls it: it is the T0 quotient, homotopy equivalent to the
    space (Stong 1966), that takes the paper's results past T0 spaces.
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
    succ = []
    for a, rep in enumerate(reps):
        m = 0
        for j in bits(q.rel[rep]):
            m |= 1 << proj[j]
        succ.append(m & ~(1 << a))
    labels = [q.labels[rep] for rep in reps]
    return Poset._from_successors(labels, succ), proj


# Elements up to which ``classify`` searches for the longest path at all.
CLASSIFY_EXACT_LIMIT = 24
CLASSIFY_STATE_BUDGET = 200_000


@dataclass
class ClassifyRecord:
    """The comparability degree and the bounded-paths number of a finite
    poset.  Its finite-chains, finite-paths and local-finiteness
    predicates hold on every finite input, so they are not recorded.

    The bound on simple comparability paths is reported both as a step
    count and as an element count, since both conventions are in use.
    No verb reads one: it is what ``classify`` returns.
    """

    comparability_degree: int
    bp_step_bound: int
    bp_element_bound: int
    approximate: bool = False


def classify(p):
    """Predicate record for a finite poset.

    The bounded-paths number is the length of the longest simple path in
    the comparability graph.  It is exact for |P| <= CLASSIFY_EXACT_LIMIT
    and replaced by the trivial bound n-1 (flagged approximate) above it.
    The search is depth-first on an explicit stack over states (visited
    mask, end vertex).  How a path can go on depends only on its state,
    and its length is visited.bit_count() - 1, so each state is expanded
    once (``seen[visited]`` holds the ends already taken): at most
    n * 2^n states, against every simple path for a plain DFS.  It stops
    as soon as it finds a path through all n elements.  At most
    ``CLASSIFY_STATE_BUDGET`` states are pushed, which bounds the memo
    and the stack, and the work to n neighbour tests per state; past it
    the record is the approximate one, as above ``CLASSIFY_EXACT_LIMIT``.
    No verb calls it: the benchmark's dismantle workload
    (``perfbench/workloads.py``) times it.
    """
    n = p.n
    degree = max((p.comparability_mask(x).bit_count() + 1 for x in range(n)), default=0)
    if n == 0:
        return ClassifyRecord(0, 0, 0)
    approximate = ClassifyRecord(degree, n - 1, n, approximate=True)
    if n > CLASSIFY_EXACT_LIMIT:
        return approximate
    adj = [p.comparability_mask(x) for x in range(n)]
    best = 0
    seen = {}
    stack = [(1 << s, s) for s in reversed(range(n))]
    pushed = n
    while stack and best < n - 1:  # a Hamiltonian path: no simple path is longer
        visited, x = stack.pop()
        best = max(best, visited.bit_count() - 1)
        rest = adj[x] & ~visited
        while rest:
            bit = rest & -rest
            rest ^= bit
            nxt = visited | bit
            ends = seen.get(nxt, 0)
            if not ends & bit:
                seen[nxt] = ends | bit
                stack.append((nxt, bit.bit_length() - 1))
                pushed += 1
        if pushed > CLASSIFY_STATE_BUDGET:
            return approximate
    return ClassifyRecord(degree, best, best + 1)
