"""Homotopy-type decisions for finite spaces.

Two finite spaces are homotopy equivalent exactly when their cores are
order-isomorphic (Stong), so the decision procedure is: dismantle both,
then search for an isomorphism of the cores.

The isomorphism search is individualisation-refinement (McKay and
Piperno, Practical graph isomorphism II, 2014) on the cover graphs of
the two posets taken together.  Refinement splits one shared partition
of both element sets by the numbers of lower and upper covers that each
element has in each cell, re-refining only from cells that have just
split; a cell with unequal numbers of elements from the two posets ends
the branch.  The search individualises one element of the smallest
undecided cell against each candidate in turn, depth first on an
explicit stack, undoing splits through a trail.  At a discrete
partition the cells give a bijection, which is accepted only after every
up-set image is compared with the matching up-set mask.

A brute-force oracle that searches directly for maps f, g with g o f
and f o g chain-connected to the identities is provided for
cross-validation in tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import GuardExceeded, HeightExceeded
from .maps import enumerate_monotone
from .poset import shortest_path
from .reduction import core


@dataclass(frozen=True)
class IsoWitness:
    """A bijection (as a tuple: domain id -> codomain id), order-preserving
    in both directions."""

    mapping: tuple

    def inverse(self):
        inv = [0] * len(self.mapping)
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return IsoWitness(tuple(inv))


class _JointPartition:
    """An ordered partition of the disjoint union of two equal-sized posets,
    refined on their cover graphs, with an undo trail.

    Elements of p keep their ids 0..n-1 and those of q become n..2n-1.
    A cell is a range of ``elems`` named by its start index: ``cell[v]``
    is the start of v's cell and ``end[s]`` the end of the cell starting
    at s.  Every split is logged on ``trail`` as (parent start, new
    start, parent end before the split), so ``undo`` restores the cell
    of every element; the order of elements inside a cell is not
    restored and nothing depends on it.  ``open`` holds the start of
    every cell with more than one element of each poset.

    Refinement never reads element ids, only cells and cover counts, so
    an isomorphism p -> q that respects the cells keeps respecting them:
    a cell with unequal numbers of p and q elements rules out every
    isomorphism that extends the individualised pairs.
    """

    def __init__(self, p, q):
        n = self.n = p.n
        self.upper = [[] for _ in range(2 * n)]
        self.lower = [[] for _ in range(2 * n)]
        for shift, x in ((0, p), (n, q)):
            for a, m in enumerate(x.upper_covers, shift):
                while m:
                    low = m & -m
                    m ^= low
                    b = low.bit_length() - 1 + shift
                    self.upper[a].append(b)
                    self.lower[b].append(a)
        self.elems = list(range(2 * n))
        self.pos = list(range(2 * n))
        self.cell = [0] * (2 * n)
        self.end = [2 * n] * (2 * n)
        self.open = {0} if n > 1 else set()
        self.trail = []

    def start(self, p, q):
        """Split the one initial cell by down-set and up-set size and
        refine; False if the two posets' profiles differ."""
        n = self.n
        size = {i + shift: (x.down[i].bit_count(), x.up[i].bit_count())
                for shift, x in ((0, p), (n, q)) for i in range(n)}
        parts = self._split(0, list(range(2 * n)), size)
        return parts is not None and self.refine(parts)

    def refine(self, splitters):
        """Split cells by their numbers of lower and upper covers in each
        splitter cell until the partition is equitable.

        A split cell queues all its parts when it was itself still queued,
        and all but its largest part otherwise: the counts into that part
        follow from the counts into the whole cell.  Returns False as soon
        as a part holds unequal numbers of p and q elements.
        """
        elems, cell = self.elems, self.cell
        # a vertex has fewer than 2n lower covers, so this weight keeps the
        # numbers of lower and upper covers in a splitter apart in one count
        weight = 2 * self.n
        work = deque(splitters)
        queued = set(splitters)
        while work:
            s = work.popleft()
            queued.discard(s)
            count = {}
            for u in elems[s:self.end[s]]:
                for v in self.upper[u]:
                    count[v] = count.get(v, 0) + 1
                for v in self.lower[u]:
                    count[v] = count.get(v, 0) + weight
            touched = {}
            for v in count:
                touched.setdefault(cell[v], []).append(v)
            for c in sorted(touched):
                parts = self._split(c, touched[c], count)
                if parts is None:
                    return False
                if len(parts) == 1:
                    continue
                if c in queued:
                    new = parts[1:]
                else:
                    sizes = [self.end[f] - f for f in parts]
                    new = parts[:]
                    del new[sizes.index(max(sizes))]
                work.extend(new)
                queued.update(new)
        return True

    def _split(self, c, vs, count):
        """Split cell c into its untouched elements (kept first, at c) and
        the elements of ``vs`` grouped by ascending count; the list of
        part starts, or None if a part is unbalanced."""
        elems, pos, n = self.elems, self.pos, self.n
        e = self.end[c]
        vs.sort(key=count.__getitem__)
        if len(vs) == e - c and count[vs[0]] == count[vs[-1]]:
            return [c]
        bounds = [i for i in range(1, len(vs)) if count[vs[i]] != count[vs[i - 1]]]
        for a, b in zip([0] + bounds, bounds + [len(vs)]):
            if sum(v < n for v in vs[a:b]) * 2 != b - a:
                return None
        tail = e - len(vs)
        holes = [pos[v] for v in vs if pos[v] < tail]
        movers = [w for w in elems[tail:e] if w not in count]
        for i, w in zip(holes, movers):
            elems[i] = w
            pos[w] = i
        for i, v in enumerate(vs, tail):
            elems[i] = v
            pos[v] = i
        parts = ([c] if tail > c else []) + [tail + b for b in [0] + bounds]
        ends = parts[1:] + [e]
        for f, fe in zip(parts[1:], ends[1:]):
            for v in elems[f:fe]:
                self.cell[v] = f
            self.end[f] = fe
            self.trail.append((c, f, e))
            if fe - f > 2:
                self.open.add(f)
        self.end[c] = ends[0]
        if ends[0] - c <= 2:
            self.open.discard(c)
        return parts

    def individualise(self, v, w):
        """Split the pair (v, w) off their common cell and refine from it;
        False if the refinement rules the pair out."""
        elems, pos = self.elems, self.pos
        c = self.cell[v]
        e = self.end[c]
        if e - c == 2:
            return True
        for x, i in ((v, e - 1), (w, e - 2)):
            y = elems[i]
            elems[pos[x]], elems[i] = y, x
            pos[y], pos[x] = pos[x], i
        self.cell[v] = self.cell[w] = e - 2
        self.end[e - 2] = e
        self.end[c] = e - 2
        self.trail.append((c, e - 2, e))
        if e - 2 - c <= 2:
            self.open.discard(c)
        return self.refine([e - 2])

    def undo(self, mark):
        """Merge back every split logged after ``mark``."""
        trail, cell, end = self.trail, self.cell, self.end
        while len(trail) > mark:
            c, f, e = trail.pop()
            for v in self.elems[f:end[f]]:
                cell[v] = c
            self.open.discard(f)
            end[c] = e
            if e - c > 2:
                self.open.add(c)

    def branches(self):
        """The smallest open cell's first p element and the q elements it
        may be matched with."""
        c = min(self.open, key=lambda s: (self.end[s] - s, s))
        members = self.elems[c:self.end[c]]
        n = self.n
        return next(v for v in members if v < n), [w for w in members if w >= n]

    def bijection(self):
        """At a discrete partition (every cell one p and one q element),
        the map p -> q that the cells define."""
        n = self.n
        m = [0] * n
        for s in range(0, 2 * n, 2):
            a, b = sorted(self.elems[s:s + 2])
            m[a] = b - n
        return tuple(m)


def _is_isomorphism(p, q, m, fix, upper):
    """m is a bijection p -> q that sends every up-set of p onto the
    up-set of the image (so it preserves and reflects the order) and
    respects ``fix``.

    The image of up(a) is assembled from a and the images of the up-sets
    of a's upper covers ``upper[a]``, which are smaller and so come
    first; each image is one mask comparison against q.
    """
    if len(set(m)) != q.n or (fix is not None and m[fix[0]] != fix[1]):
        return False
    image = [0] * p.n
    for a in sorted(range(p.n), key=lambda a: p.up[a].bit_count()):
        mask = 1 << m[a]
        for b in upper[a]:
            mask |= image[b]
        if mask != q.up[m[a]]:
            return False
        image[a] = mask
    return True


def are_isomorphic(p, q, fix=None):
    """Order isomorphism witness between p and q, or None.

    fix, when given, is a pair (x, y) the isomorphism must respect
    (used for basepoints).

    After cheap invariants (sizes, cover counts, the multiset of component
    sizes), the elements of both posets are coloured together by
    down-set and up-set size and refined on the cover graphs until
    every cell has the same numbers of lower and upper covers in every
    other cell; ``fix`` is individualised first.  The search then walks
    depth first on an explicit stack: at each node the first p element
    of the smallest undecided cell is individualised against each q
    element of that cell in turn, the partition is re-refined from the
    new pair alone, and the branch is pruned as soon as a cell holds
    unequal numbers of p and q elements.  At a discrete partition the
    cells define a bijection, returned once its up-set images and the
    basepoint check out; a failed check moves on to the next branch.
    """
    if p.n != q.n or _cover_count(p) != _cover_count(q):
        return None
    if p.n == 0:
        return IsoWitness(())
    if sorted(map(len, p.components())) != sorted(map(len, q.components())):
        return None
    part = _JointPartition(p, q)
    if not part.start(p, q):
        return None
    if fix is not None:
        x, y = fix[0], fix[1] + p.n
        if part.cell[x] != part.cell[y] or not part.individualise(x, y):
            return None
    frames = []
    ok = True
    while True:
        if ok and not part.open:
            m = part.bijection()
            if _is_isomorphism(p, q, m, fix, part.upper):
                return IsoWitness(m)
        elif ok:
            v, targets = part.branches()
            frames.append((len(part.trail), v, iter(targets)))
        while frames:
            mark, v, targets = frames[-1]
            part.undo(mark)
            w = next(targets, None)
            if w is not None:
                break
            frames.pop()
        else:
            return None
        ok = part.individualise(v, w)


@dataclass
class EquivalenceEvidence:
    """Outcome of are_homotopy_equivalent with both cores and the witness."""

    equivalent: bool
    core_p: object
    core_q: object
    iso: IsoWitness | None

    def __bool__(self):
        return self.equivalent


def are_homotopy_equivalent(p, q, basepoint_p=None, basepoint_q=None):
    """Homotopy equivalence via cores: dismantle, then match cores."""
    if (basepoint_p is None) != (basepoint_q is None):
        raise ValueError("both or neither basepoint must be given")
    rp = core(p, basepoint_p)
    rq = core(q, basepoint_q)
    fix = None
    if basepoint_p is not None:
        fix = (rp.relabel[basepoint_p], rq.relabel[basepoint_q])
    iso = are_isomorphic(rp.core, rq.core, fix=fix)
    return EquivalenceEvidence(iso is not None, rp, rq, iso)


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


def is_contractible(p):
    """True iff the core is a single point; the empty space is not
    contractible."""
    if p.n == 0:
        return False
    return core(p).is_point


def _cover_count(p):
    return sum(map(int.bit_count, p.upper_covers))


def _is_tree(p):
    """True iff the cover graph is connected and acyclic."""
    return _cover_count(p) == p.n - 1 and len(p.components()) == 1


def _check_height1(p):
    if p.n == 0:
        raise HeightExceeded("empty poset has no height")
    if p.height() > 1:
        raise HeightExceeded(f"height {p.height()} > 1")


def contractible_height1(p):
    """The height-1 criterion: connected and crown-free.

    For height <= 1, crown-freeness is the same as the cover graph being
    acyclic, so the check is: connected with a tree cover graph.
    """
    _check_height1(p)
    return _is_tree(p)


def contains_crown(p):
    """A minimal cycle in the cover graph, as a crown witness, or None.

    Only defined for height <= 1, where cycles in the cover graph are
    exactly the crowns (as retracts).  The shortest a-b path avoiding a
    cover a < b closes a shortest cycle through it; the shortest of these
    has the length of the girth.
    """
    _check_height1(p)
    adj = [lo | up for lo, up in zip(p.lower_covers, p.upper_covers)]
    best = None
    for a, b in sorted(p.covers):
        cut = {a: 1 << b, b: 1 << a}
        path = shortest_path(lambda v: adj[v] & ~cut.get(v, 0), a, 1 << b)
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    return best


def unique_spath_condition(p, x):
    """True iff every y is reached from x by exactly one cover-step s-path,
    i.e. the cover graph is a tree.  When true, x is a strong deformation
    retract of P (so P is contractible)."""
    if not 0 <= x < p.n:
        raise ValueError("x out of range")
    return _is_tree(p)
