"""Finite topologies as bitmask set families and by their minimal opens.

Open sets of a finite poset, viewed as an Alexandroff space, are exactly
its down-sets.  A finite topology is fixed by its minimal open sets, the
intersection of the opens around each point (Alexandroff 1937), and its
opens are the sets that contain the minimal open of each of their points.

For finite X and Y the compact-open topology on C(X, Y) is the
Alexandroff topology of the pointwise order (Stong 1966; Barmak, LNM
2032, ch. 1): the subbasis members around a map f are the sets
[e, v-down] with v >= f(e), each contains [e, f(e)-down], so the minimal
open of f is the intersection of those, its pointwise down-set.
``compact_open_opens`` therefore only counts the down-sets of C(X, Y);
``TestCompactOpenCheck`` in ``tests/test_topology.py`` checks the theorem.
``specialization_order`` validates its input by its minimal opens and
``count_down_sets``.  ``hom_set_interval`` gives [K, U] for any K; for a
down-set U it equals [max K, U], which the tests check.

``alexandroff_topology`` and ``generate_topology`` still materialize whole
families, so equalities can also be checked literally at test scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded, NotATopology, NotDownSet, UnknownLabel
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
    """A deduplicated family of subsets of {0..ground_size-1} (as
    bitmasks).  No verb reads one: it is what the benchmark-wrapped
    ``compact_open_subbasis``, ``generate_topology`` and
    ``alexandroff_topology`` return.  ``==`` compares ground size and sets."""

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

    @property
    def full_mask(self):
        return (1 << self.ground_size) - 1


def is_down_set(p, mask):
    return mask >> p.n == 0 and all(p.down[x] & ~mask == 0 for x in bits(mask))


def check_downset_guard(n):
    """Raise GuardExceeded when the down-sets of n elements, up to 2**n of
    them, would be listed or counted past DOWNSET_GUARD elements."""
    if n > DOWNSET_GUARD:
        raise GuardExceeded(f"down-set enumeration over {n} > {DOWNSET_GUARD} elements")


def alexandroff_topology(p):
    """The family of all down-sets of P (its Alexandroff topology).

    DOWNSET_GUARD bounds the elements of P, so the family held in memory
    has at most 2**DOWNSET_GUARD sets.  No verb calls it: the benchmark's
    tracer (``perfbench/tracing.py``) wraps it.
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

    K must be a set of points of the domain and U a down-set of the
    codomain, and then [K, U] = [max(K), U].  No verb calls it: it is
    the paper's subbasic open of the compact-open topology.
    """
    k = frozenset(k)
    if any(not 0 <= e < c.domain.n for e in k):
        raise UnknownLabel("K has a point outside the domain")
    if not is_down_set(c.codomain, u_mask):
        raise NotDownSet("U is not a down-set of the codomain")
    return frozenset(
        i for i, a in enumerate(c.assignments)
        if all(u_mask >> a[e] & 1 for e in k)
    )


def _below(c):
    """below[e][v]: the maps f of C = C(X, Y) with f(e) <= v, as a bitmask
    of map indices, from one pass over the maps."""
    x, y = c.domain, c.codomain
    below = [[0] * y.n for _ in range(x.n)]
    for i, a in enumerate(c.assignments):
        for e, w in enumerate(a):
            for v in bits(y.up[w]):
                below[e][v] |= 1 << i
    return below


def compact_open_subbasis(c):
    """The family {[e, v-down]} over C = C(X, Y), as map-index bitmasks.
    No verb calls it: the benchmark's tracer (``perfbench/tracing.py``)
    wraps it."""
    return SetFamily.of(len(c), {m for row in _below(c) for m in row})


def generate_topology(sub):
    """Close a subbasis under pairwise intersection and union.

    The empty set and the full ground set are adjoined.  On a finite
    ground set this yields the generated topology.  Each member is
    combined with every earlier one once, new members joining the end of
    the list.  GENERATE_GUARD bounds the ground size, and GuardExceeded is
    raised as soon as the family passes FAMILY_GUARD sets, as the
    discrete topology on 12 points already does; this is a test-scale
    oracle.  No verb calls it: the benchmark's tracer
    (``perfbench/tracing.py``) wraps it.
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


def compact_open_opens(c):
    """The number of opens of the compact-open topology on C = C(X, Y):
    the down-sets of C (see the module docstring), by ``count_down_sets``.
    The down-set of f is the intersection over e of below[e][f(e)].
    DOWNSET_GUARD bounds the maps, and so the count's memory; it is
    checked before the table is built.
    """
    check_downset_guard(len(c))
    below = _below(c)
    down = []
    for a in c.assignments:
        mask = (1 << len(c)) - 1
        for e, v in enumerate(a):
            mask &= below[e][v]
        down.append(mask)
    return count_down_sets(down)


def specialization_order(t):
    """The specialization preorder of a topology: x <= y iff every open
    set containing y contains x (equivalently y lies in cl{x}).

    Every member of t contains the minimal open of each of its points,
    so t is a topology exactly when it has as many members as there are
    such sets.  The count stops once it passes len(t), so its work is
    bounded by the size of the input.  No verb calls it: it is
    Alexandroff's way back from a finite topology to its preorder.
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
