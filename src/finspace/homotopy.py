"""Homotopy-type decisions for finite spaces.

Two finite spaces are homotopy equivalent exactly when their cores are
order-isomorphic, so the decision procedure is: dismantle both, then
search for an isomorphism of the cores.  A brute-force oracle that
searches directly for maps f, g with g o f and f o g chain-connected to
the identities is provided for cross-validation in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded, HeightExceeded
from .maps import enumerate_monotone, homotopy_classes
from .poset import Poset, bits, popcount, shortest_path
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


def _joint_refine(p, q):
    """Stable colorings of two posets by iterated neighbourhood profiles.

    A single color table is shared so that ids are comparable between
    the two posets.
    """
    posets = (p, q)
    colors = [
        [(popcount(x.down[i]), popcount(x.up[i])) for i in range(x.n)]
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


def are_isomorphic(p, q, fix=None):
    """Order isomorphism witness between p and q, or None.

    fix, when given, is a pair (x, y) the isomorphism must respect
    (used for basepoints).
    """
    if p.n != q.n or len(p.covers) != len(q.covers):
        return None
    cp, cq = _joint_refine(p, q)
    if sorted(cp) != sorted(cq):
        return None
    candidates = [
        [j for j in range(q.n) if cq[j] == cp[i]] for i in range(p.n)
    ]
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
            ok = True
            for i2 in order[:k]:
                j2 = assigned[i2]
                if p.leq(i, i2) != q.leq(j, j2) or p.leq(i2, i) != q.leq(j2, j):
                    ok = False
                    break
            if ok:
                assigned[i] = j
                used[j] = True
                if backtrack(k + 1):
                    return True
                used[j] = False
                assigned[i] = -1
        return False

    if not backtrack(0):
        return None
    w = IsoWitness(tuple(assigned))
    # sanity: order-preserving both ways
    for a in range(p.n):
        for b in range(p.n):
            assert p.leq(a, b) == q.leq(w.mapping[a], w.mapping[b])
    return w


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
    rp = core(p, basepoint_p)
    rq = core(q, basepoint_q)
    fix = None
    if basepoint_p is not None and basepoint_q is not None:
        fix = (rp.relabel[basepoint_p], rq.relabel[basepoint_q])
    elif (basepoint_p is None) != (basepoint_q is None):
        raise ValueError("both or neither basepoint must be given")
    iso = are_isomorphic(rp.core, rq.core, fix=fix)
    return EquivalenceEvidence(iso is not None, rp, rq, iso)


def brute_force_homotopy_equivalent(p, q, guard=10**6):
    """Independent oracle: search for f: P->Q, g: Q->P with g o f
    homotopic to id_P and f o g homotopic to id_Q.

    Homotopy is decided through comparability components of C(P,P) and
    C(Q,Q); correct for finite inputs only.  Used to validate
    are_homotopy_equivalent in tests.
    """
    if p.n == 0 or q.n == 0:
        return p.n == q.n
    cpq = enumerate_monotone(p, q, guard=guard)
    cqp = enumerate_monotone(q, p, guard=guard)
    if len(cpq.assignments) * len(cqp.assignments) > guard:
        raise GuardExceeded(
            "too many candidate pairs",
            count=len(cpq.assignments) * len(cqp.assignments),
        )
    cpp = enumerate_monotone(p, p, guard=guard)
    cqq = enumerate_monotone(q, q, guard=guard)
    comp_p = _component_ids(cpp)
    comp_q = _component_ids(cqq)
    id_p_class = comp_p[cpp.identity_index()]
    id_q_class = comp_q[cqq.identity_index()]
    for f in cpq.assignments:
        for g in cqp.assignments:
            gf = tuple(g[v] for v in f)
            if comp_p[cpp.index_of(gf)] != id_p_class:
                continue
            fg = tuple(f[v] for v in g)
            if comp_q[cqq.index_of(fg)] == id_q_class:
                return True
    return False


def _component_ids(c):
    comp = [0] * len(c.assignments)
    for k, part in enumerate(homotopy_classes(c)):
        for i in part:
            comp[i] = k
    return comp


def is_contractible(p):
    """True iff the core is a single point; the empty space is not
    contractible."""
    if p.n == 0:
        return False
    return core(p).is_point


def _cover_graph_adjacency(p):
    adj = [0] * p.n
    for a, b in p.covers:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _is_tree(p):
    """True iff the cover graph is connected and acyclic."""
    return len(p.covers) == p.n - 1 and len(p.components()) == 1


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
    adj = _cover_graph_adjacency(p)
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
