"""Beat points, comparative retractions, cores and dismantling traces.

All subspaces arising during a dismantling are recorded as element
subsets of the start poset, and every retraction step as a mapping on
original ids.  Removing beat points one by one always reaches a subspace
without beat points; since on finite inputs such a subspace admits no
nontrivial comparative retraction at all, it is the core, and cores are
unique up to order isomorphism.

``core`` keeps the Hasse diagram of the current subspace as per-element
lower- and upper-cover bitmasks.  In a finite poset x is a down (up)
beat point exactly when it has a single lower (upper) cover, which is
then d_x (u_x), so the beat test is a one-bit check.  Removing x only
changes the covers of its neighbours (``_unlink``), so only they are
tested again: a dismantling costs O(covers + removals * deg^2) mask
operations instead of a rescan of the whole subspace after every
removal, and the core is built from the cover masks left at the end.
``standard_sequence`` keeps the same cover masks and reads each bulk
step's beat points off them.  Single-point steps store their mapping as
``{x: target}`` and their domain as an int mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotABeatPoint
from .maps import MonotoneMap
from .poset import Poset, bits, shortest_path

REMOVE_DOWN = "remove-down-beat"
REMOVE_UP = "remove-up-beat"
BULK_DOWN = "bulk-down"
BULK_UP = "bulk-up"


def _beat_target(p, x, mask, upward):
    """u_x, the smallest element of (x^ \\ {x}) within mask (upward), or
    d_x, the largest of (x_v \\ {x}); None if there is no such element."""
    cone = p.up if upward else p.down
    punctured = cone[x] & mask & ~(1 << x)
    for t in bits(punctured):
        if punctured & ~cone[t] == 0:  # every member lies in t's cone
            return t
    return None


def _beat_points(p, basepoint, mask, upward):
    mask = p.full_mask if mask is None else mask
    return frozenset(x for x in bits(mask)
                     if x != basepoint and _beat_target(p, x, mask, upward) is not None)


def up_beat_points(p, basepoint=None, _mask=None):
    """Elements whose punctured up-set has a smallest element."""
    return _beat_points(p, basepoint, _mask, upward=True)


def down_beat_points(p, basepoint=None, _mask=None):
    """Elements whose punctured down-set has a largest element."""
    return _beat_points(p, basepoint, _mask, upward=False)


def beat_points(p, basepoint=None, _mask=None):
    return up_beat_points(p, basepoint, _mask) | down_beat_points(p, basepoint, _mask)


def is_core(p, basepoint=None):
    """No beat points (basepoint excluded from candidacy if given)."""
    return not beat_points(p, basepoint)


@dataclass(frozen=True)
class RetractionStep:
    """One comparative retraction in a dismantling.

    ``domain`` is the subspace the step acts on, as a bitmask of start
    ids.  mapping sends elements to their images; every element missing
    from it is fixed, so single-point steps store only ``{x: target}``.
    targets records the absorbing element u_x or d_x for single-point
    removals.
    """

    kind: str
    domain: int
    removed: frozenset
    mapping: dict
    targets: dict = field(default_factory=dict)

    @property
    def domain_elements(self):
        return frozenset(bits(self.domain))

    @property
    def image_elements(self):
        return self.domain_elements - self.removed

    def monotone_self_map(self, start):
        """The step as a self-map of ``start``, identity off the domain."""
        assign = list(range(start.n))
        for k, v in self.mapping.items():
            assign[k] = v
        return MonotoneMap(start, start, tuple(assign))

    def is_comparative(self, start):
        return all(start.comparable(k, v) for k, v in self.mapping.items())


@dataclass
class DismantlingTrace:
    """Ordered record of retraction steps from a start poset.

    composed maps every start element to its final image; final is the
    surviving subspace.  ``stabilized`` is False only when a round limit
    cut a standard sequence short.
    """

    start: Poset
    steps: list
    final: frozenset
    stabilized: bool = True

    @property
    def composed(self):
        out = {i: i for i in range(self.start.n)}
        for step in reversed(self.steps):  # out is the composite of the later steps
            out.update({k: out[v] for k, v in step.mapping.items()})
        return out

    def composed_self_map(self):
        comp = self.composed
        return MonotoneMap(self.start, self.start,
                           tuple(comp[i] for i in range(self.start.n)))

    def effective_steps(self):
        return [s for s in self.steps if s.removed]


def remove_beat_point(p, x, basepoint=None, _mask=None, prefer_down=True):
    """The one-point comparative retraction sending x to d_x or u_x."""
    mask = p.full_mask if _mask is None else _mask
    if x == basepoint or not 0 <= x < p.n or not mask >> x & 1:
        raise NotABeatPoint(f"element {x} not removable")
    d = _beat_target(p, x, mask, upward=False)
    u = _beat_target(p, x, mask, upward=True)
    if prefer_down and d is not None:
        kind, target = REMOVE_DOWN, d
    elif u is not None:
        kind, target = REMOVE_UP, u
    elif d is not None:
        kind, target = REMOVE_DOWN, d
    else:
        raise NotABeatPoint(f"element {p.labels[x]!r} is not a beat point")
    return RetractionStep(kind, mask, frozenset({x}), {x: target}, {x: target})


@dataclass
class CoreResult:
    """Core subspace, its Poset form, and the dismantling that produced it."""

    core: Poset
    core_elements: frozenset
    relabel: dict  # original id -> id in core
    trace: DismantlingTrace

    @property
    def is_point(self):
        return self.core.n == 1


def _cover_masks(p):
    """Per-element lower- and upper-cover masks of ``p``, as new lists."""
    lower = [0] * p.n
    for a, b in p.covers:
        lower[b] |= 1 << a
    return lower, list(p.upper_covers)


def _unlink(p, lower, upper, mask, x):
    """Update the cover masks of a subspace when x leaves it.

    ``mask`` is the subspace without x.  Every old cover stays a cover;
    the new ones join a lower cover a of x to an upper cover b of x when
    nothing else of the subspace lies between them.
    """
    bit = 1 << x
    below, above = lower[x], upper[x]
    for a in bits(below):
        upper[a] ^= bit
    for b in bits(above):
        lower[b] ^= bit
    for a in bits(below):
        for b in bits(above):
            if p.up[a] & p.down[b] & mask == (1 << a) | (1 << b):
                upper[a] |= 1 << b
                lower[b] |= 1 << a


def core(p, basepoint=None):
    """Dismantle to the core by removing beat points one by one.

    Policy: at each step remove the lowest-id beat point, preferring its
    down-beat retraction.  Deterministic; the resulting core is unique
    up to order isomorphism regardless of policy.

    The beat test counts covers in the current subspace: x is a down
    (up) beat point iff it has exactly one lower (upper) cover, and that
    cover is its target.  Removing x joins each lower cover a of x to
    each upper cover b that nothing else separates from a (``_unlink``),
    and puts x's neighbours back on the candidate mask; no other element
    changes status.  Taking the lowest candidate each time is the
    lowest-id beat point, because every element off the mask is known
    not to be one.  The cover masks left at the end are the Hasse
    diagram of the core, which is built from them after relabelling
    without an induced-order scan.  The cost is O(covers) for the start
    and the core plus, per removal, (lower covers x upper covers) mask
    tests.  Each step stores its domain as a mask and its mapping as
    ``{x: target}``.
    """
    lower, upper = _cover_masks(p)
    fixed = 0 if basepoint is None else 1 << basepoint
    mask = p.full_mask
    candidates = mask & ~fixed
    steps = []
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        x = bit.bit_length() - 1
        below, above = lower[x], upper[x]
        if below and not below & (below - 1):
            kind, target = REMOVE_DOWN, below.bit_length() - 1
        elif above and not above & (above - 1):
            kind, target = REMOVE_UP, above.bit_length() - 1
        else:
            continue
        steps.append(RetractionStep(kind, mask, frozenset((x,)), {x: target}, {x: target}))
        mask ^= bit
        _unlink(p, lower, upper, mask, x)
        candidates |= (below | above) & ~fixed
    keep = list(bits(mask))
    relabel = {old: new for new, old in enumerate(keep)}
    succ = []
    for old in keep:
        m = 0
        for b in bits(upper[old]):
            m |= 1 << relabel[b]
        succ.append(m)
    sub = Poset._from_successors([p.labels[i] for i in keep], succ)
    final = frozenset(keep)
    return CoreResult(sub, final, relabel, DismantlingTrace(p, steps, final))


def _bulk_step(covers, mask, upward, basepoint=None):
    """The U_X (upward) or D_X step on the subspace ``mask``; None if identity.

    ``covers`` holds the upper (upward) or lower cover masks of the
    subspace: x is a beat point exactly when its mask has a single bit,
    which is then its target.  The basepoint, if given, is never a beat
    point and so never moves.
    """
    one = {}
    for x in bits(mask):
        c = covers[x]
        one[x] = c.bit_length() - 1 if x != basepoint and c and not c & (c - 1) else x
    if all(v == x for x, v in one.items()):
        return None
    mapping = {}
    for x in bits(mask):
        v = x
        while one[v] != v:
            v = one[v]
        mapping[x] = v
    removed = frozenset(x for x, v in mapping.items() if v != x)
    return RetractionStep(BULK_UP if upward else BULK_DOWN, mask, removed, mapping)


def _bulk(p, upward):
    lower, upper = _cover_masks(p)
    step = _bulk_step(upper if upward else lower, p.full_mask, upward)
    if step is None:
        step = RetractionStep(BULK_UP if upward else BULK_DOWN, p.full_mask, frozenset(),
                              {i: i for i in range(p.n)})
    return step


def bulk_up(p):
    """The U_X retraction: iterate one-step up-beat absorption to a fixpoint."""
    return _bulk(p, upward=True)


def bulk_down(p):
    """The D_X retraction, dual to bulk_up."""
    return _bulk(p, upward=False)


def standard_sequence(p, basepoint=None, max_rounds=None):
    """Alternate D_X, U_X (starting with D_X) until two identity rounds.

    Only non-identity steps are recorded.  When the round limit is hit
    before stabilization the trace is returned with stabilized=False.
    For a basepoint, the basepoint is never a beat point and so is never
    moved or removed.  The cover masks of the current subspace are kept
    as in ``core``: each step reads its beat points off them, and its
    removed points then leave them one at a time.
    """
    if max_rounds is None:
        max_rounds = 2 * max(p.n, 1) + 4
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    lower, upper = _cover_masks(p)
    mask = p.full_mask
    steps = []
    idle = 0
    rounds = 0
    upward = False  # start with D_X
    while rounds < max_rounds and idle < 2:
        step = _bulk_step(upper if upward else lower, mask, upward, basepoint)
        rounds += 1
        upward = not upward
        if step is None:
            idle += 1
            continue
        idle = 0
        steps.append(step)
        for x in step.removed:
            mask &= ~(1 << x)
            _unlink(p, lower, upper, mask, x)
    return DismantlingTrace(p, steps, frozenset(bits(mask)), stabilized=idle >= 2)


@dataclass
class DeformationVerdict:
    """Outcome of verify_strong_deformation; full=False means only the
    retraction and comparativity clauses were checked."""

    ok: bool
    full: bool

    def __bool__(self):
        return self.ok


def verify_strong_deformation(trace, guard=4096):
    """Certify that a trace realizes a strong deformation retraction.

    Checks that the composed map retracts onto the final subspace, that
    every step is comparative, and (when C(X,X) fits in the guard) that
    the composed map is joined to the identity by a comparability chain
    whose every node fixes the final subspace pointwise.
    """
    from .maps import count_monotone, enumerate_monotone
    from .errors import GuardExceeded

    start = trace.start
    comp = trace.composed
    if frozenset(comp.values()) != trace.final and trace.final:
        return DeformationVerdict(False, True)
    if any(comp[x] != x for x in trace.final):
        return DeformationVerdict(False, True)
    for step in trace.steps:
        if not step.is_comparative(start):
            return DeformationVerdict(False, True)
        if step.removed & step.image_elements:
            return DeformationVerdict(False, True)
    if start.n == 0:
        return DeformationVerdict(True, True)
    try:
        count_monotone(start, start, guard=guard)
    except GuardExceeded:
        return DeformationVerdict(True, False)
    c = enumerate_monotone(start, start, guard=guard)
    allowed = sum(1 << i for i, a in enumerate(c.assignments)
                  if all(a[x] == x for x in trace.final))
    target = c.index_of(tuple(comp[i] for i in range(start.n)))
    ident = c.identity_index()
    if not (allowed >> ident & 1 and allowed >> target & 1):
        return DeformationVerdict(False, True)
    # a chain through maps fixing the final subspace
    chain = shortest_path(c.comparability_mask, ident, 1 << target, allowed)
    return DeformationVerdict(chain is not None, True)
