"""Order-preserving maps and the function poset C(X, Y).

C(X, Y) carries the pointwise order f <= g iff f(x) <= g(x) for all x.
For finite X, Y homotopy of maps is the same as lying in one component
of the comparability graph of this order, and every homotopy is realized
by a finite comparability chain; homotopies are therefore represented
exclusively as such chains.  (For infinite spaces this representation is
incomplete; nothing here is correct beyond finite inputs.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded
from .poset import Poset, bits, components, shortest_path

DEFAULT_MAP_GUARD = 10**6


@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving map, stored as an assignment vector."""

    domain: Poset
    codomain: Poset
    assignment: tuple

    def __post_init__(self):
        if len(self.assignment) != self.domain.n:
            raise ValueError("assignment length does not match domain size")
        for a, b in self.domain.covers:
            if not self.codomain.leq(self.assignment[a], self.assignment[b]):
                raise ValueError(
                    f"not monotone: {a} <= {b} but images are incomparable-or-reversed"
                )

    def __call__(self, x):
        return self.assignment[x]

    def is_identity(self):
        return self.domain is self.codomain and all(
            v == i for i, v in enumerate(self.assignment)
        )

    def is_constant(self):
        return len(set(self.assignment)) <= 1 and self.domain.n > 0

    def image(self):
        return frozenset(self.assignment)


def identity(p):
    return MonotoneMap(p, p, tuple(range(p.n)))


def constant(p, codomain, y):
    return MonotoneMap(p, codomain, (y,) * p.n)


def compose(f, g):
    """f after g."""
    if g.codomain is not f.domain and not g.codomain.same_order(f.domain):
        raise ValueError("compose: domain/codomain mismatch")
    return MonotoneMap(g.domain, f.codomain, tuple(f.assignment[v] for v in g.assignment))


def _iter_assignments(x, y):
    """Yield all monotone assignment tuples X -> Y in lexicographic order.

    A depth-first search with an explicit stack: untried[i] holds the
    values of Y not yet tried at position i that are consistent with the
    earlier positions, and the lowest one is taken first.
    """
    n = x.n
    if n == 0:
        yield ()
        return
    if y.n == 0:
        return
    # constraints from already-assigned elements (ids < current)
    pred_le = [x.down[i] & ((1 << i) - 1) for i in range(n)]
    pred_ge = [x.up[i] & ((1 << i) - 1) for i in range(n)]
    full = y.full_mask
    assign = [0] * n
    untried = [full] + [0] * (n - 1)
    last = n - 1
    i = 0
    while i >= 0:
        rest = untried[i]
        if not rest:
            i -= 1
            continue
        if i == last:
            for v in bits(rest):
                assign[i] = v
                yield tuple(assign)
            untried[i] = 0
            i -= 1
            continue
        low = rest & -rest
        untried[i] = rest ^ low
        assign[i] = low.bit_length() - 1
        i += 1
        allowed = full
        for j in bits(pred_le[i]):
            allowed &= y.up[assign[j]]
        for j in bits(pred_ge[i]):
            allowed &= y.down[assign[j]]
        untried[i] = allowed


class FunctionPoset:
    """All monotone maps X -> Y under the pointwise order.

    maps are kept in lexicographic order of their assignment vectors, so
    indices are reproducible.  The strict pointwise order is held as
    per-map bitmasks; the explicit Poset over map indices (``order``) is
    built lazily since only the topology checks need its cover relation.
    """

    def __init__(self, domain, codomain, assignments):
        self.domain = domain
        self.codomain = codomain
        self.assignments = assignments
        self._index = {a: i for i, a in enumerate(assignments)}
        self._strict_up, self._strict_down = self._build_reach()
        self._order = None

    def _build_reach(self):
        """Strict up- and down-masks of every map in the pointwise order."""
        m = len(self.assignments)
        y = self.codomain
        nx = self.domain.n
        # eq[x][v] = mask of maps sending x to v
        eq = [[0] * y.n for _ in range(nx)]
        for j, a in enumerate(self.assignments):
            bj = 1 << j
            for x, v in enumerate(a):
                eq[x][v] |= bj
        full = (1 << m) - 1
        reaches = []
        for cone in (y.up, y.down):
            # within[x][v] = mask of maps sending x into cone[v]
            within = [[0] * y.n for _ in range(nx)]
            for x in range(nx):
                for v in range(y.n):
                    acc = 0
                    for w in bits(cone[v]):
                        acc |= eq[x][w]
                    within[x][v] = acc
            reach = []
            for i, a in enumerate(self.assignments):
                mask = full
                for x, v in enumerate(a):
                    mask &= within[x][v]
                reach.append(mask & ~(1 << i))
            reaches.append(reach)
        return reaches

    @property
    def order(self):
        if self._order is None:
            labels = [f"f{i}" for i in range(len(self.assignments))]
            # the strict up-sets are closed, so larger ones come first in
            # a topological order
            order = sorted(range(len(labels)), key=lambda i: -self._strict_up[i].bit_count())
            self._order = Poset._from_successors(labels, self._strict_up, order)
        return self._order

    def leq(self, i, j):
        return i == j or bool(self._strict_up[i] >> j & 1)

    def comparability_mask(self, i):
        return self._strict_up[i] | self._strict_down[i]

    def components(self):
        """Partition of map indices into comparability-graph components."""
        return [frozenset(bits(c))
                for c in components(self.comparability_mask, len(self.assignments))]

    def __len__(self):
        return len(self.assignments)

    def map(self, i):
        return MonotoneMap(self.domain, self.codomain, self.assignments[i])

    def index_of(self, f):
        key = f.assignment if isinstance(f, MonotoneMap) else tuple(f)
        return self._index[key]

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
            raise GuardExceeded(
                f"more than {guard} monotone maps", count=len(assignments)
            )
    return FunctionPoset(x, y, assignments)


def count_monotone(x, y, guard=DEFAULT_MAP_GUARD):
    """Number of monotone maps X -> Y, aborting early past ``guard``."""
    c = 0
    for _ in _iter_assignments(x, y):
        c += 1
        if c > guard:
            raise GuardExceeded(f"more than {guard} monotone maps", count=c)
    return c


def is_homotopic(c, f, g):
    """Decide homotopy of f, g in C and return a witness chain.

    Returns (True, chain) where chain is a minimal list of map indices
    f = h0 ~ h1 ~ ... ~ hk = g, or (False, None).
    """
    i = f if isinstance(f, int) else c.index_of(f)
    j = g if isinstance(g, int) else c.index_of(g)
    chain = shortest_path(c.comparability_mask, i, 1 << j)
    if chain is None:
        return False, None
    return True, chain


def homotopy_classes(c):
    """Partition of map indices into homotopy classes (graph components)."""
    return c.components()


def min_contraction_chain(x, guard=DEFAULT_MAP_GUARD):
    """Shortest comparability chain from id_X to a constant map in C(X, X).

    Returns its length (number of ~ steps), or None when X is not
    contractible (no constant map reachable from the identity).
    """
    c = enumerate_monotone(x, x, guard=guard)
    goals = sum(1 << k for k in c.constant_indices())
    if not goals:
        return None
    chain = shortest_path(c.comparability_mask, c.identity_index(), goals)
    if chain is None:
        return None
    return len(chain) - 1


def has_fpp(x, guard=DEFAULT_MAP_GUARD):
    """Fixed point property of X.

    Returns (True, None) if every monotone self-map has a fixed point,
    else (False, witness) with a fixed-point-free MonotoneMap.
    """
    c = 0
    for a in _iter_assignments(x, x):
        c += 1
        if c > guard:
            raise GuardExceeded(f"more than {guard} self-maps", count=c)
        if all(a[i] != i for i in range(x.n)):
            return False, MonotoneMap(x, x, a)
    return True, None


@dataclass
class RetractionKind:
    """Verdict of is_retraction, with the retraction-class flags."""

    retraction: bool
    comparative: bool = False
    up: bool = False
    down: bool = False
    decomposes: bool = False

    def __bool__(self):
        return self.retraction


def is_retraction(x, r, target):
    """Check that r: X -> X retracts onto ``target`` and classify it.

    comparative: r(x) ~ x for every x; up: r >= id; down: r <= id.
    For comparative retractions also checks the up/down factorization
    r = r_d o r_u with r_u(x) = max(x, r(x)) and r_d(x) = min(x, r(x))
    along the comparability, both monotone.
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
    decomposes = False
    if comparative:
        ru = tuple(v if x.leq(i, v) else i for i, v in enumerate(a))
        rd = tuple(v if x.leq(v, i) else i for i, v in enumerate(a))
        try:
            fu = MonotoneMap(x, x, ru)
            fd = MonotoneMap(x, x, rd)
            decomposes = compose(fd, fu).assignment == a
        except ValueError:
            decomposes = False
    return RetractionKind(True, comparative, up, down, decomposes)
