"""Homotopy-type decisions for finite spaces.

Two finite spaces are homotopy equivalent exactly when their cores are
order-isomorphic (Stong), so the decision procedure is: dismantle both,
then match the cores, as ``CoreResult`` masks of the inputs with the
cover masks the dismantling leaves (``are_isomorphic``).

The isomorphism search is individualisation-refinement (McKay and
Piperno, Practical graph isomorphism II, 2014) on the cover graphs of
the two posets taken together, with a colour per element and a set per
colour.  Refinement splits each class by the number of covers its
elements have in one colour at a time; the largest part keeps the old
colour and every other part takes a fresh one, so a split costs the
elements the counts touched and only fresh colours are processed again
(Hopcroft's rule).  The first colours are the down-set and up-set
sizes, and a cover joins a smaller down-set to a larger one, so all
covers between two colours point the same way and one count per colour
suffices.  A class with unequal numbers of elements from
the two posets ends the branch.  The search individualises the lowest
element of the smallest undecided class against each candidate in
turn, depth first on an explicit stack, and backtracks through an undo
log of the colour each fresh colour split from.  At a discrete
colouring every class has the same cover count into every other, so
the bijection the classes give preserves and reflects covers and is
returned as it is.  The package does not re-check it; the tests check
every witness (``_assert_witness``, the networkx differential and the
``iso_by_backtrack`` oracle in ``tests/test_homotopy.py``), and so does
the benchmark's ``oracle.iso_certificate_ok``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HeightExceeded
from .poset import bits, components, shortest_path
from .reduction import CoreResult, core


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


class _Colouring:
    """A colouring of the disjoint union of two equal-sized posets, refined
    on their cover graphs, with an undo log.

    ``adj[v]`` lists v's cover neighbours, p's elements being 0..n-1 and
    q's n..2n-1.  ``color[v]`` is v's colour, ``cells[c]`` the set of
    elements of colour c, ``log[c]`` the colour that c was split from and
    ``open`` the colours with more than two elements.  Refinement never
    reads element ids, only colours and cover counts, so an isomorphism
    p -> q that respects the colours keeps respecting them: a class with
    unequal numbers of p and q elements rules out every isomorphism that
    extends the individualised pairs.
    """

    def __init__(self, adj):
        n = self.n = len(adj) // 2
        self.adj = adj
        self.color = [0] * (2 * n)
        self.cells = [set(range(2 * n))]
        self.log = [0]
        self.open = {0} if n > 1 else set()

    def refine(self, s):
        """Split classes by their cover counts into each colour from s on
        until the colouring is equitable; False as soon as a part is
        unbalanced.

        Fresh colours are appended, so s and the colours after it are
        exactly those still to be processed: a split of a queued colour
        leaves it queued, and a processed colour keeps its largest part,
        whose counts follow from those into the old class and into the
        other parts (Hopcroft's rule).
        """
        cells, color, adj = self.cells, self.color, self.adj
        while s < len(cells):
            count = {}
            for u in cells[s]:
                for v in adj[u]:
                    count[v] = count.get(v, 0) + 1
            touched = {}
            for v in count:
                touched.setdefault(color[v], []).append(v)
            for c in sorted(touched):
                if not self.split(c, touched[c], count):
                    return False
            s += 1
        return True

    def split(self, c, vs, count):
        """Split class c into the elements of ``vs`` grouped by count and
        the untouched rest; False if a group is unbalanced.  The largest
        part keeps colour c and every other part moves to a fresh one, so
        the split costs O(len(vs)) unless a group of ``vs`` outnumbers the
        rest.

        A pair {u, u'} touched by both with unequal counts is unbalanced
        too, and that test only prunes earlier: without it the same
        ``refine`` fails.  Every class is a signed sum of processed
        splitters, so two of them have unequal p and q edge counts between
        them, and the later one is such a pair; processing it touches a
        class inside the earlier one unbalanced.
        """
        cells, n = self.cells, self.n
        groups = {}
        for v in vs:
            groups.setdefault(count[v], []).append(v)
        rest = len(cells[c]) - len(vs)
        if not rest and len(groups) == 1:
            return True
        parts = [groups[k] for k in sorted(groups)]
        if any(sum(v < n for v in part) * 2 != len(part) for part in parts):
            return False
        big = max(range(len(parts)), key=lambda i: len(parts[i]))
        if len(parts[big]) > rest:
            if rest:
                parts.append(cells[c].difference(vs))
            del parts[big]
        for part in parts:
            cells[c].difference_update(part)
            if len(part) > 2:
                self.open.add(len(cells))
            for v in part:
                self.color[v] = len(cells)
            cells.append(set(part))
            self.log.append(c)
        if len(cells[c]) <= 2:
            self.open.discard(c)
        return True

    def individualise(self, v, w):
        """Move the pair (v, w) off their common class to a fresh colour
        and refine from it alone; False if v and w differ in colour or
        the refinement rules the pair out."""
        c, f = self.color[v], len(self.cells)
        return self.color[w] == c and self.split(c, [v, w], {v: 0, w: 0}) and self.refine(f)

    def undo(self, mark):
        """Merge every colour from ``mark`` on back into its parent."""
        cells, color, log = self.cells, self.color, self.log
        while len(cells) > mark:
            moved, c = cells.pop(), log.pop()
            self.open.discard(len(cells))
            cells[c] |= moved
            if len(cells[c]) > 2:
                self.open.add(c)
            for v in moved:
                color[v] = c


def are_isomorphic(p, q, fix=None):
    """Order isomorphism witness between p and q, or None.

    Either side is a Poset or a CoreResult, read as its kept ids in
    ascending order (the ids of its ``core``, which is not built), so both
    forms give the same witness.  fix, when given, is a pair (x, y) of such
    ids the isomorphism must respect (used for basepoints).

    After cheap invariants (sizes, cover counts, the multiset of component
    sizes, all on the cover masks), the elements of both sides are
    coloured together by down-set and up-set size in the kept mask and
    refined on the cover graphs until every class has the same number of
    covers in every other class; ``fix`` is individualised first.  The
    search then walks depth first on an explicit stack: at each node the
    lowest p element of the smallest class with more than two elements is
    individualised against each q element of that class in ascending
    order, the colouring is re-refined from the new pair alone, and the
    branch is pruned as soon as a class holds unequal numbers of p and q
    elements.  The first discrete colouring reached is returned as the
    witness; where the cores have automorphisms, it is one of several.
    """
    sides = [(x.trace.start, x.mask, x.lower, x.upper) if isinstance(x, CoreResult)
             else (x, x.full_mask, x.lower_covers, x.upper_covers) for x in (p, q)]
    n = sides[0][1].bit_count()
    if len({(mask.bit_count(), sum(map(int.bit_count, upper))) for _, mask, _, upper in sides}) > 1:
        return None
    if n == 0:
        return IsoWitness(())
    sizes = [sorted(c.bit_count() for c in components(lambda v: lower[v] | upper[v], mask))
             for _, mask, lower, upper in sides]
    if sizes[0] != sizes[1]:
        return None
    adj, size = [], []
    for shift, (start, mask, lower, upper) in zip((0, n), sides):
        new = {old: v for v, old in enumerate(bits(mask), shift)}
        for old in new:
            adj.append([new[b] for b in bits(lower[old] | upper[old])])
            size.append(((start.down[old] & mask).bit_count(), (start.up[old] & mask).bit_count()))
    col = _Colouring(adj)
    # the down-set sizes also give every cover between two colours one direction
    if not (col.split(0, list(range(2 * n)), size) and col.refine(0)):
        return None
    if fix is not None and not col.individualise(fix[0], fix[1] + n):
        return None
    frames = []
    ok = True
    while True:
        if ok and not col.open:
            # every class is one p and one q element
            return IsoWitness(tuple(b - n for _, b in sorted(map(sorted, col.cells))))
        if ok:
            c = min(col.open, key=lambda c: (len(col.cells[c]), c))
            # the class is balanced and every p id is below every q id
            members = sorted(col.cells[c])
            frames.append((len(col.cells), members[0], iter(members[len(members) // 2:])))
        while frames:
            mark, v, targets = frames[-1]
            col.undo(mark)
            w = next(targets, None)
            if w is not None:
                break
            frames.pop()
        else:
            return None
        ok = col.individualise(v, w)


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
    iso = are_isomorphic(rp, rq, fix=fix)
    return EquivalenceEvidence(iso is not None, rp, rq, iso)


def is_contractible(p):
    """True iff the core is a single point; the empty space is not
    contractible."""
    if p.n == 0:
        return False
    return core(p).is_point


def _cover_count(p):
    return sum(map(int.bit_count, p.upper_covers))


def _check_height1(p):
    if p.n == 0:
        raise HeightExceeded("empty poset has no height")
    if (h := p.height()) > 1:
        raise HeightExceeded(f"height {h} > 1")


def contractible_height1(p):
    """The height-1 criterion: connected and crown-free.

    For height <= 1, crown-freeness is the same as the cover graph being
    acyclic, so the check is: connected with a tree cover graph.  No verb
    calls it: it is the paper's contractibility criterion for height 1.
    """
    _check_height1(p)
    return _cover_count(p) == p.n - 1 and len(p.components()) == 1


def contains_crown(p):
    """A minimal cycle in the cover graph, as a crown witness, or None.

    Only defined for height <= 1, where cycles in the cover graph are
    exactly the crowns (as retracts).  The shortest a-b path avoiding a
    cover a < b closes a shortest cycle through it; the shortest of these
    has the length of the girth.  No verb calls it: it is the witness side
    of the paper's height-1 criterion (``contractible_height1``).
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
