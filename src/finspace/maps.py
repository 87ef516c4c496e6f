"""Order-preserving maps and the function poset C(X, Y).

C(X, Y) carries the pointwise order f <= g iff f(x) <= g(x) for all x.
For finite X, Y homotopy of maps is the same as lying in one component
of the comparability graph of this order, and every homotopy is realized
by a finite comparability chain; homotopies are therefore represented
exclusively as such chains.  (For infinite spaces this representation is
incomplete; nothing here is correct beyond finite inputs.)

Every search for maps goes through one kernel, ``_iter_assignments``: a
depth-first search over per-position domain masks with forward checking
and an undo trail, yielding assignment tuples in lexicographic order.
Each position carries one list of the later positions comparable to it,
each paired with the cone table of Y (up-sets above it, down-sets below)
that an assignment cuts that position's domain to.
``enumerate_monotone`` runs it with full domains.  ``has_fpp`` first
reduces X to its core, since removing beat points preserves the fixed
point property (Rival 1976), so a dismantlable X answers at once; on a
larger core it runs the kernel with each point removed from its own
domain, stops at the first map, and lifts it to X through the core
retraction.  Its guard counts search nodes, not maps.
``count_monotone`` counts by a dynamic program over the cover relation
without listing any map, placing the positions in a low-frontier order.

Homotopy is read off one-point cover moves, f -> f[x -> w] for w a cover
of f(x), and the m^2 pointwise order of m maps is never built.  The
classes come from one union-find kernel over the moves,
``FunctionPoset.class_roots``, and minimal comparability chains from
layer-by-layer move floods, ``FunctionPoset.shortest_chain``.
``function_space_counts`` describes C(X, Y) without listing it: the
count of maps, the classes of C(X_c, Y_c) (f ~ g in C(X, Y) exactly when
r_Y o f o i_X ~ r_Y o g o i_X there, since i o r ~ id on both sides;
Stong 1966), and the identity class as one more count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import GuardExceeded, UnknownLabel
from .poset import Poset, bfs_layers, bits, check_point
from .reduction import core

# bounds the maps listed (enumerate_monotone, min_contraction_chain), the
# search nodes (has_fpp), the count and table entries (count_monotone), and
# the maps between the cores and table entries (function_space_counts)
DEFAULT_MAP_GUARD = 10**6


@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving map, stored as an assignment vector."""

    domain: Poset
    codomain: Poset
    assignment: tuple

    def __post_init__(self):
        a, up = self.assignment, self.codomain.up
        if len(a) != self.domain.n:
            raise ValueError("assignment length does not match domain size")
        if not all(0 <= v < self.codomain.n for v in a):
            raise ValueError(f"assignment value outside the codomain 0..{self.codomain.n - 1}")
        for x, above in enumerate(self.domain.upper_covers):
            for b in bits(above):
                if not up[a[x]] >> a[b] & 1:
                    raise ValueError(f"not monotone: {x} <= {b} but images are "
                                     "incomparable-or-reversed")

    def __call__(self, x):
        return self.assignment[x]

    def image(self):
        return frozenset(self.assignment)


def identity(p):
    """id_P.  No verb calls it: homotopy is defined against the identity."""
    return MonotoneMap(p, p, tuple(range(p.n)))


def constant(p, codomain, y):
    """The constant map to y.  No verb calls it: X is contractible when id_X ~ a constant."""
    return MonotoneMap(p, codomain, (y,) * p.n)


def compose(f, g):
    """f after g.  No verb calls it: an equivalence asks g o f ~ id."""
    if g.codomain is not f.domain and not g.codomain.same_order(f.domain):
        raise ValueError("compose: domain/codomain mismatch")
    return MonotoneMap(g.domain, f.codomain, tuple(f.assignment[v] for v in g.assignment))


def _iter_assignments(x, y, domains=None, node_guard=None):
    """Yield the monotone assignment tuples X -> Y with a[i] in
    ``domains[i]`` (every value of Y by default), in lexicographic order.

    The map-search kernel: a depth-first search over positions in id
    order with an explicit stack, taking the lowest untried value of each
    domain first.  Each assignment x_i -> v is pushed forward into the
    domains of the later positions comparable to x_i (intersected with
    the up- or down-set of v), and the branch dies as soon as one of them
    becomes empty; the old domains go on an undo trail and come back when
    x_i takes its next value.  So every domain reached holds exactly the
    values consistent with the earlier positions, and the last position
    takes all of its own at once.  A search node is one value tried at
    one position; past ``node_guard`` nodes GuardExceeded is raised.
    """
    n = x.n
    if n == 0:
        yield ()
        return
    dom = [y.full_mask] * n if domains is None else list(domains)
    if not all(dom):
        return
    limit = -1 if node_guard is None else node_guard
    last = n - 1
    # the later positions comparable to x_i, each with the cone table of Y
    # that an assignment to x_i cuts its domain to
    later = [[(j, y.up) for j in bits(x.up[i] >> (i + 1) << (i + 1))]
             + [(j, y.down) for j in bits(x.down[i] >> (i + 1) << (i + 1))]
             for i in range(last)]
    nodes = 0
    assign = [0] * n
    untried = [dom[0]] + [0] * last
    marks = [0] * n  # trail length when each position was entered
    trail = []
    i = 0
    while i >= 0:
        mark = marks[i]
        while len(trail) > mark:
            j, d = trail.pop()
            dom[j] = d
        if i == last:
            # the last position takes every value its domain leaves
            nodes += dom[last].bit_count()
            if nodes > limit >= 0:
                raise GuardExceeded(f"more than {limit} search nodes")
            for w in bits(dom[last]):
                assign[last] = w
                yield tuple(assign)
            i -= 1
            continue
        rest = untried[i]
        if not rest:
            i -= 1
            continue
        low = rest & -rest
        untried[i] = rest ^ low
        v = low.bit_length() - 1
        assign[i] = v
        nodes += 1
        if nodes > limit >= 0:
            raise GuardExceeded(f"more than {limit} search nodes")
        # a loop left by ``break`` has emptied a domain: try the next value
        for j, cones in later[i]:
            d = dom[j]
            cone = cones[v]
            if d & ~cone:
                trail.append((j, d))
                d &= cone
                dom[j] = d
                if not d:
                    break
        else:
            i += 1
            marks[i] = len(trail)
            untried[i] = dom[i]


class FunctionPoset:
    """All monotone maps X -> Y under the pointwise order.

    maps are kept in lexicographic order of their assignment vectors, so
    indices are reproducible.  The pointwise order itself is never
    stored: every question about it goes through one-point cover moves.
    If f <= g, a chain of maps from f to g exists in which each step
    raises one value f(x) to an upper cover of it (raise f at a maximal
    point where it differs from g; Barmak, LNM 2032, 1.2), so the maps
    above f are those that upward moves reach from it, and dually below.
    An upward move is monotone exactly when w <= f(y) for every upper
    cover y of x, so ``_moves`` reads the moves off the cover masks and
    finds each by one lookup in ``_index``.  ``class_roots`` joins the
    maps along upward moves; ``shortest_chain`` floods both ways.
    """

    def __init__(self, domain, codomain, assignments):
        self.domain = domain
        self.codomain = codomain
        self.assignments = assignments
        self._index = {a: i for i, a in enumerate(assignments)}

    @cached_property
    def _move_tables(self):
        """Per direction (down, up): the domain's covers on that side of
        each point as lists, the codomain's cones on the other side, and
        its covers on that side."""
        x, y = self.domain, self.codomain
        return tuple(([list(bits(c)) for c in side], cone, covers)
                     for side, cone, covers in ((x.lower_covers, y.up, y.lower_covers),
                                                (x.upper_covers, y.down, y.upper_covers)))

    def _moves(self, j, up):
        """Yield the listed maps f[x -> w], f the map j and w an upper
        (``up``) or lower cover of f(x), that are monotone: w <= f(b) for
        every upper cover b of x (w >= f(b) for every lower cover)."""
        sides, cone, covers = self._move_tables[up]
        index = self._index
        a = self.assignments[j]
        for x, v in enumerate(a):
            moves = covers[v]
            if not moves:
                continue
            for b in sides[x]:
                moves &= cone[a[b]]
            while moves:
                w = moves & -moves
                moves ^= w
                k = index.get(a[:x] + (w.bit_length() - 1,) + a[x + 1:])
                if k is not None:
                    yield k

    def class_roots(self):
        """The lowest map index in the homotopy class of each map, found by
        union-find over the one-point cover moves between listed maps.

        Moves to unlisted maps are skipped, which keeps the comparability
        components whenever every h with f <= h <= g, f and g listed, is
        listed, as the chain of moves from f to g runs between them.  All
        of C(X, Y) is such a listing, and so is one whose domains are
        single points or all of Y: f(x) = g(x) = v forces h(x) = v.
        """
        parent = list(range(len(self.assignments)))
        for j in range(len(parent)):
            for k in self._moves(j, True):
                # union of the two roots, the lower one kept
                while parent[k] != k:
                    parent[k] = k = parent[parent[k]]
                r = j
                while parent[r] != r:
                    parent[r] = r = parent[parent[r]]
                if r < k:
                    parent[k] = r
                elif k < r:
                    parent[r] = k
        # parent[i] <= i, so one ascending pass reaches every root
        for i, p in enumerate(parent):
            parent[i] = parent[p]
        return parent

    def shortest_chain(self, start, goals):
        """A shortest comparability chain from map ``start`` to a map in the
        set ``goals``, as a list of map indices, or None.

        Let L_k be the maps within k comparability steps of ``start``.  As
        every g >= f is reached from f by upward moves (``class_roots``),
        L_{k+1} is L_k with every map that upward moves alone or downward
        moves alone reach from it.  The moves from a map of L_{k-1} stay in
        L_k, so each layer floods up, then down, from its new maps only.  A
        flood stops at a map of L_k and at one its own direction has found
        in this layer.  Each new map records the seed of the flood that
        found it, one layer lower and comparable to it, and the seeds lead
        back to ``start``.  The listing must be one ``class_roots`` keeps
        the components of.
        """
        seed_of = {start: None}  # every map of L_k -> its seed
        new = [start]
        while new:
            hit = goals.intersection(new)
            if hit:
                chain = [min(hit)]
                while seed_of[chain[-1]] is not None:
                    chain.append(seed_of[chain[-1]])
                return chain[::-1]
            fresh = {}  # the new maps of L_{k+1} -> their seeds
            for up in (True, False):
                flooded = set()
                for s in new:
                    stack = [s]
                    while stack:
                        for k in self._moves(stack.pop(), up):
                            if k not in flooded and k not in seed_of:
                                flooded.add(k)
                                stack.append(k)
                                fresh.setdefault(k, s)
            seed_of.update(fresh)
            new = list(fresh)
        return None

    def __len__(self):
        return len(self.assignments)

    def index_of(self, f):
        key = f.assignment if isinstance(f, MonotoneMap) else tuple(f)
        try:
            return self._index[key]
        except KeyError:
            raise UnknownLabel(f"{key} is not a map of C(X, Y)") from None

    def identity_index(self):
        return self._index[tuple(range(self.domain.n))]

    def constant_indices(self):
        return [self._index[(y,) * self.domain.n] for y in range(self.codomain.n)
                if (y,) * self.domain.n in self._index]


def enumerate_monotone(x, y, guard=DEFAULT_MAP_GUARD):
    """The function poset C(X, Y); aborts past ``guard`` maps."""
    assignments = []
    for a in _iter_assignments(x, y):
        assignments.append(a)
        if len(assignments) > guard:
            raise GuardExceeded(f"more than {guard} monotone maps")
    return FunctionPoset(x, y, assignments)


def _frontier_order(nbrs):
    """The vertices of the graph with neighbour masks ``nbrs`` in
    breadth-first order, each component entered at one of its vertices of
    lowest degree, so that few placed vertices have an unplaced neighbour."""
    order = []
    seen = 0
    for s in sorted(range(len(nbrs)), key=lambda i: nbrs[i].bit_count()):
        if not seen >> s & 1:
            for layer in bfs_layers(nbrs.__getitem__, s):
                order.extend(bits(layer))
                seen |= layer
    return order


def _count_partial_maps(x, y, domains, guard):
    """The count of ``count_monotone``, of the maps with a[i] in
    ``domains[i]`` for every i when ``domains`` is given, with only its
    table bounded."""
    n = x.n
    if n == 0:
        return 1
    nbrs = [lo | up for lo, up in zip(x.lower_covers, x.upper_covers)]
    order = _frontier_order(nbrs)
    rank = [0] * n
    for k, i in enumerate(order):
        rank[i] = k
    last_use = [max([rank[i]] + [rank[j] for j in bits(nbrs[i])]) for i in range(n)]
    table = {(): 1}
    open_ = []  # positions in the table's keys, in key order
    for k, i in enumerate(order):
        below = x.lower_covers[i]
        # (key slot, cone) of every open cover of i
        cones = [(s, y.up if below >> j & 1 else y.down)
                 for s, j in enumerate(open_) if nbrs[i] >> j & 1]
        kept = [s for s, j in enumerate(open_) if last_use[j] > k]
        stays_open = last_use[i] > k
        start = y.full_mask if domains is None else domains[i]
        new = {}
        for key, c in table.items():
            allowed = start
            for s, cone in cones:
                allowed &= cone[key[s]]
            if not allowed:
                continue
            base = tuple(key[s] for s in kept)
            if stays_open:
                for v in bits(allowed):
                    nk = base + (v,)
                    new[nk] = new.get(nk, 0) + c
            else:
                new[base] = new.get(base, 0) + c * allowed.bit_count()
            if len(new) > guard:
                raise GuardExceeded(f"more than {guard} partial-map states")
        table = new
        open_ = [open_[s] for s in kept] + ([i] if stays_open else [])
    return sum(table.values())


def count_monotone(x, y, guard=DEFAULT_MAP_GUARD):
    """Number of monotone maps X -> Y, counted without listing them.

    A map is monotone when it is monotone on every cover a < b of X.  A
    dynamic program places the positions in a low-frontier order
    (breadth-first over the undirected Hasse diagram, from a lowest-degree
    element of each component) and keys its table on the values of the
    open positions, the placed ones that still have an unplaced cover;
    each entry counts the partial maps that agree with it.  Each position
    takes the values allowed by its open covers.  The table is
    exponential in the number of open positions, which the order keeps
    small: along a path of covers only one is open at a time.  Raises
    GuardExceeded when the count passes ``guard``, or when the table
    would hold more than ``guard`` entries, which bounds its memory and
    the work of every step.
    """
    count = _count_partial_maps(x, y, None, guard)
    if count > guard:
        raise GuardExceeded(f"more than {guard} monotone maps")
    return count


def function_space_counts(x, y, guard=DEFAULT_MAP_GUARD):
    """(map_count, class_count, identity_class_size) of C(X, Y), computed
    without listing C(X, Y).

    ``map_count`` is the dynamic program of ``count_monotone``.
    ``class_count`` is the number of classes of C(X_c, Y_c), found by
    ``FunctionPoset.class_roots``: f -> r_Y o f o i_X is a bijection of
    homotopy classes (Stong 1966).  ``identity_class_size`` is None
    unless X and Y are the same order.  Then f ~ id_X exactly when
    r o f o i ~ id on the core, and on a core only the identity is
    homotopic to the identity (Stong 1966), so the class is counted with
    the domain of each core point c narrowed to r^-1(c).  ``guard``
    bounds the work only: the maps of C(X_c, Y_c) and the table entries
    of each count, not the maps of C(X, Y).
    """
    cx, cy = core(x), core(y)
    roots = enumerate_monotone(cx.core, cy.core, guard=guard).class_roots()
    class_count = len(set(roots))
    map_count = _count_partial_maps(x, y, None, guard)
    identity_class = None
    if x.up == y.up:
        domains = [x.full_mask] * x.n
        for c in cx.core_elements:
            domains[c] = 0
        for v, c in cx.trace.composed.items():
            domains[c] |= 1 << v
        identity_class = _count_partial_maps(x, x, domains, guard)
    return map_count, class_count, identity_class


def is_homotopic(c, f, g):
    """Decide homotopy of f, g in C and return a witness chain.

    Returns (True, chain) where chain is a minimal list of map indices
    f = h0 ~ h1 ~ ... ~ hk = g from ``FunctionPoset.shortest_chain``, or
    (False, None).  No verb calls it: it is Stong's criterion, f ~ g
    exactly when a fence of comparable maps joins them, with the fence.
    """
    i = f if isinstance(f, int) else c.index_of(f)
    j = g if isinstance(g, int) else c.index_of(g)
    for k in (i, j):
        check_point(c, k, "map")
    chain = c.shortest_chain(i, {j})
    return chain is not None, chain


def homotopy_classes(c):
    """Partition of map indices into homotopy classes, ordered by lowest
    index, from ``FunctionPoset.class_roots``.  No verb calls it: the
    benchmark's tracer (``perfbench/tracing.py``) wraps it."""
    parts = {}  # insertion order is the order of lowest index
    for i, k in enumerate(c.class_roots()):
        parts.setdefault(k, []).append(i)
    return [frozenset(part) for part in parts.values()]


def min_contraction_chain(x, guard=DEFAULT_MAP_GUARD):
    """Shortest comparability chain from id_X to a constant map in C(X, X).

    Returns its length (number of ~ steps), or None when X is not
    contractible (no constant map reachable from the identity).  No verb
    calls it: it measures Stong's contractibility, id_X ~ a constant.
    """
    c = enumerate_monotone(x, x, guard=guard)
    chain = c.shortest_chain(c.identity_index(), set(c.constant_indices()))
    return None if chain is None else len(chain) - 1


def has_fpp(x, guard=DEFAULT_MAP_GUARD):
    """Fixed point property of X, decided on its core.

    Returns (True, None) if every monotone self-map has a fixed point,
    else (False, witness) with a fixed-point-free MonotoneMap.

    Removing a beat point (an irreducible point) preserves the fixed
    point property both ways (Rival 1976), so X has it exactly when
    core(X) does, and a one-point core answers at once.  Otherwise the
    map-search kernel looks on the core for a self-map g with g(c) != c
    for every c (domains without c itself) and takes the
    lexicographically first one.  It lifts to X as g o r, r the core
    retraction: a fixed point of g o r would lie in the core and be fixed
    by g, so the witness has none.  ``guard`` bounds the search nodes.
    """
    res = core(x)
    if res.is_point:
        return True, None
    k = res.core
    domains = [k.full_mask & ~(1 << c) for c in range(k.n)]
    g = next(_iter_assignments(k, k, domains, node_guard=guard), None)
    if g is None:
        return True, None
    keep = sorted(res.core_elements)  # core id -> id in X
    r = res.trace.composed
    return False, MonotoneMap(x, x, tuple(keep[g[res.relabel[r[i]]]] for i in range(x.n)))


@dataclass
class RetractionKind:
    """Verdict of is_retraction, with the retraction-class flags."""

    retraction: bool
    comparative: bool = False
    up: bool = False
    down: bool = False

    def __bool__(self):
        return self.retraction


def is_retraction(x, r, target):
    """Check that r: X -> X retracts onto ``target`` and classify it.

    comparative: r(x) ~ x for every x; up: r >= id; down: r <= id.
    A comparative retraction always factors as r = r_d o r_u with
    r_u = max(id, r) and r_d = min(id, r), both monotone; the tests
    check this identity.  No verb calls it: it classifies the paper's
    comparative retractions, the steps of its core theorem.
    """
    target = frozenset(target)
    a = r.assignment
    if frozenset(a) != target:
        return RetractionKind(False)
    if any(a[t] != t for t in target):
        return RetractionKind(False)
    comparative = all(x.comparable(i, v) for i, v in enumerate(a))
    up = all(x.leq(i, v) for i, v in enumerate(a))
    down = all(x.leq(v, i) for i, v in enumerate(a))
    return RetractionKind(True, comparative, up, down)
