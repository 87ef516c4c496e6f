"""Finite topologies as bitmask set families and by their minimal opens.

Open sets of a finite poset, viewed as an Alexandroff space, are exactly
its down-sets.  A finite topology is fixed by its minimal open sets, the
intersection of the opens around each point (Alexandroff 1937), and its
opens are the sets that contain the minimal open of each of their points.
``compact_open_check`` uses this to compare the topology generated by the
compact-open subbasis [x, y-down] on C(X, Y) with the Alexandroff
topology of the pointwise order: one mask per map, in O(|subbasis| * m)
mask operations, with no set family closed.  One table, the maps with
f(x) <= y for each pair (x, y), made in a single pass over the maps,
holds both the subbasis members and, intersected along each map, the
pointwise down-sets.  ``count_down_sets`` counts the opens of either
topology without listing them, and ``specialization_order`` validates
its input with the same two steps.  ``hom_set_interval`` gives [K, U]
for any K; for a down-set U it equals [max K, U], which the tests check.

``alexandroff_topology`` and ``generate_topology`` still materialize whole
families, so equalities can also be checked literally at test scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded, NotATopology, NotDownSet
from .poset import Preorder, bits

# Elements whose down-sets are listed or counted.  It bounds the memory:
# ``alexandroff_topology`` holds up to 2**20 sets, and ``count_down_sets``
# memoises at most that many states.
DOWNSET_GUARD = 20
# Ground-set size of ``generate_topology``, that is the width of each mask.
GENERATE_GUARD = 4096
# Sets in the family ``generate_topology`` closes.  The closure combines
# each pair of members once, so this bounds its work by FAMILY_GUARD**2 / 2
# mask operations as well as its memory; the tests close families of at
# most 512 sets.
FAMILY_GUARD = 2048


@dataclass(frozen=True)
class SetFamily:
    """A deduplicated family of subsets of {0..ground_size-1} (as bitmasks)."""

    ground_size: int
    sets: frozenset

    @classmethod
    def of(cls, ground_size, masks):
        full = (1 << ground_size) - 1
        masks = frozenset(masks)
        if any(m & ~full for m in masks):
            raise ValueError("member outside the ground set")
        return cls(ground_size, masks)

    def __len__(self):
        return len(self.sets)

    def __contains__(self, mask):
        return mask in self.sets

    @property
    def full_mask(self):
        return (1 << self.ground_size) - 1


def families_equal(a, b):
    if a.ground_size != b.ground_size:
        raise ValueError("families over different ground sets")
    return a.sets == b.sets


def is_down_set(p, mask):
    return all(p.down[x] & ~mask == 0 for x in bits(mask))


def check_downset_guard(n):
    """Raise GuardExceeded when the down-sets of n elements, up to 2**n of
    them, would be listed or counted past DOWNSET_GUARD elements."""
    if n > DOWNSET_GUARD:
        raise GuardExceeded(f"down-set enumeration over {n} > {DOWNSET_GUARD} elements")


def alexandroff_topology(p):
    """The family of all down-sets of P (its Alexandroff topology).

    DOWNSET_GUARD bounds the elements of P, so the family held in memory
    has at most 2**DOWNSET_GUARD sets.
    """
    check_downset_guard(p.n)
    principals = [p.down[x] for x in range(p.n)]
    fam = {0}
    frontier = {0}
    while frontier:
        new = set()
        for s in frontier:
            for d in principals:
                u = s | d
                if u not in fam:
                    fam.add(u)
                    new.add(u)
        frontier = new
    return SetFamily.of(p.n, fam)


def hom_set_interval(c, k, u_mask):
    """[K, U] = {f in C : f(K) subseteq U}, as a set of map indices.

    U must be a down-set of the codomain, and then [K, U] = [max(K), U].
    """
    if not is_down_set(c.codomain, u_mask):
        raise NotDownSet("U is not a down-set of the codomain")
    k = frozenset(k)
    return frozenset(
        i for i, a in enumerate(c.assignments)
        if all(u_mask >> a[e] & 1 for e in k)
    )


def _below(x, y, c):
    """below[e][v]: the maps f of C = C(X, Y) with f(e) <= v, as a bitmask
    of map indices, from one pass over the maps."""
    below = [[0] * y.n for _ in range(x.n)]
    for i, a in enumerate(c.assignments):
        for e, w in enumerate(a):
            for v in bits(y.up[w]):
                below[e][v] |= 1 << i
    return below


def compact_open_subbasis(x, y, c):
    """The family {[x, y-down]} over C = C(X, Y), as map-index bitmasks."""
    return SetFamily.of(len(c), {m for row in _below(x, y, c) for m in row})


def generate_topology(sub):
    """Close a subbasis under pairwise intersection and union.

    The empty set and the full ground set are adjoined.  On a finite
    ground set this yields the generated topology.  Each member is
    combined with every earlier one once, new members joining the end of
    the list.  GENERATE_GUARD bounds the ground size, and GuardExceeded is
    raised as soon as the family passes FAMILY_GUARD sets, as the
    discrete topology on 12 points already does; this is a test-scale
    oracle.
    """
    if sub.ground_size > GENERATE_GUARD:
        raise GuardExceeded(f"ground size {sub.ground_size} exceeds guard {GENERATE_GUARD}")
    fam = set(sub.sets)
    fam.add(0)
    fam.add(sub.full_mask)
    members = list(fam)
    for done, a in enumerate(members):  # members grows while it is walked
        for b in members[:done]:
            for x in (a & b, a | b):
                if x not in fam:
                    fam.add(x)
                    members.append(x)
        if len(fam) > FAMILY_GUARD:
            raise GuardExceeded(f"closure of more than {FAMILY_GUARD} sets")
    return SetFamily.of(sub.ground_size, fam)


def minimal_opens(fam):
    """min_open[i]: the intersection of the members of fam that contain i.

    A point in no member gets the full ground set, as it would in the
    topology generated by fam.  The result is the down-mask list of the
    generated topology's specialization preorder.
    """
    min_open = [fam.full_mask] * fam.ground_size
    for m in fam.sets:
        for i in bits(m):
            min_open[i] &= m
    return min_open


def count_down_sets(down, limit=None):
    """Number of sets S with down[x] inside S for every x in S.

    ``down`` must hold the down-masks of a preorder (reflexive and
    transitive); for a poset these sets are its down-sets.  The count
    branches on an element x of the undecided mask U: sets without x
    avoid all of up[x], sets with x contain all of down[x], so
    count(U) = count(U - up[x]) + count(U - down[x]).  x is taken
    maximal in U (largest down-set first), so the first branch drops x
    alone on a poset.  Counts are memoised on U and computed on an
    explicit stack.  The states are at most 2**len(down) and at most
    twice the count.

    With ``limit``, the count stops as soon as it is known to exceed
    ``limit`` and returns a number above it.
    """
    m = len(down)
    order = sorted(range(m), key=lambda i: down[i].bit_count())
    pos = [0] * m
    for k, i in enumerate(order):
        pos[i] = k
    # relabelled so that the highest element of any mask is maximal in it
    lo = [0] * m
    for k, i in enumerate(order):
        for j in bits(down[i]):
            lo[k] |= 1 << pos[j]
    hi = [0] * m
    for k in range(m):
        for j in bits(lo[k]):
            hi[j] |= 1 << k
    memo = {0: 1}
    stack = [(1 << m) - 1]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        x = u.bit_length() - 1
        without, with_x = u & ~hi[x], u & ~lo[x]
        a, b = memo.get(without), memo.get(with_x)
        if a is None:
            stack.append(without)
        if b is None:
            stack.append(with_x)
        if a is not None and b is not None:
            stack.pop()
            memo[u] = a + b
            if limit is not None and a + b > limit:
                return a + b
    return memo[(1 << m) - 1]


@dataclass(frozen=True)
class CompactOpenCheck:
    """The compact-open topology on C(X, Y) against the Alexandroff one."""

    topologies_equal: bool
    compact_open_opens: int
    alexandroff_opens: int


def compact_open_check(x, y, c, sub=None):
    """Compare the topology generated by a subbasis on C = C(X, Y) with
    the Alexandroff topology of the pointwise order.

    ``sub`` defaults to the compact-open subbasis {[e, v-down]}.  Both
    it and the pointwise down-sets are read off one table ``_below``:
    [e, v-down] is below[e][v], and the down-set of f is the
    intersection over e of below[e][f(e)].  The two topologies are equal
    exactly when every map has the same minimal open in both: the
    intersection of the subbasis members around it, and its down-set.
    Both open counts come from ``count_down_sets``.  DOWNSET_GUARD
    bounds the maps whose opens are counted, and so the count's memory;
    it is checked before the table is built.
    """
    check_downset_guard(len(c))
    below = _below(x, y, c)
    if sub is None:
        sub = SetFamily.of(len(c), {m for row in below for m in row})
    min_open = minimal_opens(sub)
    down = []
    for a in c.assignments:
        mask = (1 << len(c)) - 1
        for e, v in enumerate(a):
            mask &= below[e][v]
        down.append(mask)
    alexandroff = count_down_sets(down)
    equal = min_open == down
    compact_open = alexandroff if equal else count_down_sets(min_open)
    return CompactOpenCheck(equal, compact_open, alexandroff)


def specialization_order(t):
    """The specialization preorder of a topology: x <= y iff every open
    set containing y contains x (equivalently y lies in cl{x}).

    Every member of t contains the minimal open of each of its points,
    so t is a topology exactly when it has as many members as there are
    such sets.  The count stops once it passes len(t), so its work is
    bounded by the size of the input.
    """
    min_open = minimal_opens(t)
    if count_down_sets(min_open, limit=len(t)) != len(t):
        raise NotATopology("family is not closed under union/intersection")
    n = t.ground_size
    rel = [0] * n
    for y in range(n):
        for x in bits(min_open[y]):
            rel[x] |= 1 << y
    return Preorder([str(i) for i in range(n)], rel)
