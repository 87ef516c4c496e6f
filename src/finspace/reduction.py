"""Beat points, comparative retractions, cores and dismantling traces.

All subspaces arising during a dismantling are recorded as element
subsets of the start poset, and every retraction step as a mapping on
original ids.  Removing beat points one by one always reaches a subspace
without beat points; since on finite inputs such a subspace admits no
nontrivial comparative retraction at all, it is the core, and cores are
unique up to order isomorphism.

In a finite poset x is a down (up) beat point exactly when it has a
single lower (upper) cover, which is then d_x (u_x), so every beat
query is a one-bit test of a cover mask (``_sole``): on the poset's own
``lower_covers`` and ``upper_covers`` for the public queries, and on
copies that follow the current subspace in ``core`` and
``standard_sequence``.  Removing x only changes the covers of its
neighbours (``_unlink``), so only they are tested again, as ``core``'s
candidates or against ``standard_sequence``'s down and up beat sets:
either costs O(covers + removals * deg^2) mask operations instead of a
rescan of the subspace after every removal or round.  A core is the
mask and the cover masks left at the end, closed into a Poset only when
read (``CoreResult.core``).  A step stores only its kind and the points
it moves, in its mapping: ``{x: target}`` for a single-point step.  Each
step acts on the image of the one before it, so a trace stores only its
start and steps, and its domains and final subspace are read off the
walk.

``verify_strong_deformation`` certifies a trace by the same walk: it
checks each step on the cover masks of its domain, then drops the moved
points with ``_unlink``.  This module imports nothing from the package
but ``errors`` and ``poset``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import NotABeatPoint, ValidationError
from .poset import Poset, _linear_extension, bits, check_mask, check_point

REMOVE_DOWN = "remove-down-beat"
REMOVE_UP = "remove-up-beat"
BULK_DOWN = "bulk-down"
BULK_UP = "bulk-up"
_UPWARD = {REMOVE_DOWN: False, BULK_DOWN: False, REMOVE_UP: True, BULK_UP: True}


def _sole(c):
    """The one element of the cover mask c, or None unless it has exactly
    one: the target of a beat point, whose cover mask this is."""
    return c.bit_length() - 1 if c and not c & (c - 1) else None


def _one_point(lower, upper, x, prefer_down=True):
    """(kind, target) of the one-point retraction removing x from the
    subspace with these cover masks, or None if x is not a beat point."""
    d, u = _sole(lower[x]), _sole(upper[x])
    if d is not None and (prefer_down or u is None):
        return REMOVE_DOWN, d
    if u is not None:
        return REMOVE_UP, u
    return None


def _single_covered(covers, candidates):
    """The candidates with a single lower (upper) cover: the down (up) beat points."""
    return {x for x in candidates if _sole(covers[x]) is not None}


def up_beat_points(p, basepoint=None):
    """Elements with a single upper cover, the smallest element of their
    punctured up-set."""
    check_point(p, basepoint)
    return frozenset(_single_covered(p.upper_covers, range(p.n))) - {basepoint}


def down_beat_points(p, basepoint=None):
    """Elements with a single lower cover, the largest element of their
    punctured down-set."""
    check_point(p, basepoint)
    return frozenset(_single_covered(p.lower_covers, range(p.n))) - {basepoint}


def beat_points(p, basepoint=None):
    """Up and down beat points together.  No verb calls it: Stong's beat
    points, whose absence defines a core."""
    return up_beat_points(p, basepoint) | down_beat_points(p, basepoint)


def is_core(p, basepoint=None):
    """No beat points (basepoint excluded from candidacy if given).
    No verb calls it: it is Stong's definition of a core."""
    return not beat_points(p, basepoint)


@dataclass(frozen=True)
class RetractionStep:
    """One comparative retraction in a dismantling.

    ``mapping`` sends the moved elements, exactly the removed ones
    (``removed`` is its key set), to their images and fixes the rest of
    the domain, the image of the step before it: a single-point step
    stores ``{x: target}``, target the absorbing d_x or u_x, an identity
    step ``{}``.
    """

    kind: str
    mapping: dict

    @property
    def removed(self):
        return frozenset(self.mapping)


@dataclass
class DismantlingTrace:
    """Ordered record of retraction steps from a start poset.

    Every recorded step moves at least one point, and acts on the image
    of the step before it (the whole start for the first).  final, the
    surviving subspace, is the start minus every moved point; composed
    maps every start element to its final image.
    """

    start: Poset
    steps: list

    @property
    def final(self):
        return frozenset(range(self.start.n)).difference(*(s.mapping for s in self.steps))

    @property
    def composed(self):
        out = {i: i for i in range(self.start.n)}
        for step in reversed(self.steps):  # out is the composite of the later steps
            out.update({k: out[v] for k, v in step.mapping.items()})
        return out


def remove_beat_point(p, x, basepoint=None, prefer_down=True):
    """The one-point comparative retraction sending x to d_x or u_x.
    No verb calls it: it is Stong's one-point reduction, the step
    ``core`` repeats."""
    check_point(p, basepoint)
    if x == basepoint or not 0 <= x < p.n:
        raise NotABeatPoint(f"element {x} not removable")
    beat = _one_point(p.lower_covers, p.upper_covers, x, prefer_down)
    if beat is None:
        raise NotABeatPoint(f"element {p.labels[x]!r} is not a beat point")
    kind, target = beat
    return RetractionStep(kind, {x: target})


@dataclass
class CoreResult:
    """A core as the kept ``mask`` of ``trace.start`` and the cover masks
    ``lower`` and ``upper`` that ``_dismantle`` leaves, by start id (0 off
    the mask).  ``core``, its Poset on the kept ids in ascending order,
    and ``relabel``, start id -> id there, are built on first read."""

    trace: DismantlingTrace
    mask: int
    lower: list
    upper: list

    @property
    def core_elements(self):  # as start ids
        return frozenset(bits(self.mask))

    @property
    def is_point(self):
        return self.mask.bit_count() == 1

    @functools.cached_property
    def relabel(self):  # start id -> id in core
        return {old: new for new, old in enumerate(bits(self.mask))}

    @functools.cached_property
    def core(self):
        """Closed along the cover masks, the core's Hasse diagram as an
        induced subposet, with no search, cycle check or reduction: up-masks
        are pushed down, and down-masks and lower covers up, a linear
        extension (down-set size in P).  P without beat points is its own."""
        p = self.trace.start
        if not self.trace.steps:
            return p
        relabel = self.relabel
        above = [[relabel[b] for b in bits(self.upper[old])] for old in relabel]
        order = [relabel[i] for i in _linear_extension(p, self.mask)]
        up = [1 << v for v in range(len(relabel))]
        down, below = up[:], [0] * len(relabel)
        for v in reversed(order):
            for w in above[v]:
                up[v] |= up[w]
        for v in order:
            for w in above[v]:
                down[w] |= down[v]
                below[w] |= 1 << v
        covering = [sum(1 << w for w in ws) for ws in above]
        return Poset([p.labels[i] for i in relabel], down, up, below, covering)


def _unlink(p, lower, upper, mask, x):
    """Update the cover masks of a subspace when x leaves it, x's own to
    0, and return the mask of x's old covers, the only others that change.

    ``mask`` is the subspace without x.  Every old cover stays a cover;
    the new ones join a lower cover a of x to an upper cover b of x when
    nothing else of the subspace lies between them.
    """
    bit = 1 << x
    below, above = lower[x], upper[x]
    lower[x] = upper[x] = 0
    for a in bits(below):
        upper[a] ^= bit
    for b in bits(above):
        lower[b] ^= bit
    for a in bits(below):
        for b in bits(above):
            if p.up[a] & p.down[b] & mask == (1 << a) | (1 << b):
                upper[a] |= 1 << b
                lower[b] |= 1 << a
    return below | above


def _dismantle(p, lower, upper, mask, fixed=0, steps=None):
    """Remove beat points from the subspace ``mask`` of P, lowest id first
    and preferring the down-beat retraction, until none is left, and
    return the mask of what remains; each removal is appended to
    ``steps`` as a RetractionStep unless it is None.

    ``lower`` and ``upper`` map each element of the subspace to its lower
    and upper cover masks in the subspace and are updated in place; the
    points of ``fixed`` are never removed.  Every element is a candidate
    at the start, and a removal puts back only the neighbours whose covers
    it changed (``_unlink``), so taking the lowest candidate each time
    takes the lowest-id beat point.
    """
    candidates = mask & ~fixed
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        x = bit.bit_length() - 1
        beat = _one_point(lower, upper, x)
        if beat is None:
            continue
        if steps is not None:
            kind, target = beat
            steps.append(RetractionStep(kind, {x: target}))
        mask ^= bit
        candidates |= _unlink(p, lower, upper, mask, x) & ~fixed
    return mask


def core_mask(p, within=None):
    """The elements of a core of the subspace ``within`` of P (all of P by
    default), as a mask of P, found by ``core``'s policy without building
    a poset or a trace.

    ``within`` must be convex in P, or ValidationError is raised: a
    down-set, an up-set, P itself, or any set holding every element
    between two of its members, such as the two sides Û_x and F̂_x of the
    link of a point.  Then a ⋖ b in the subspace iff a ⋖ b in P, so its
    cover masks are P's cut to ``within``; the cost is O(|within|) for
    them and the check plus ``core``'s per removal.  ``core(p).mask`` is
    ``core_mask(p)``.
    """
    mask = check_mask(p, within)
    lower, upper = {}, {}
    above = below = 0
    for i in bits(mask):
        lower[i] = p.lower_covers[i] & mask
        upper[i] = p.upper_covers[i] & mask
        above |= p.up[i]
        below |= p.down[i]
    if above & below & ~mask:
        raise ValidationError(f"mask {mask:#x} is not convex: it misses a point between two of its own")
    return _dismantle(p, lower, upper, mask)


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
    not to be one.  That loop is ``_dismantle``, shared with ``core_mask``.

    The result holds the kept mask and the cover masks left at the end;
    its ``core`` Poset is closed from them only when read.  The cost is
    O(covers) plus, per removal, (lower covers x upper covers) mask tests.
    """
    check_point(p, basepoint)
    lower, upper = list(p.lower_covers), list(p.upper_covers)
    fixed = 0 if basepoint is None else 1 << basepoint
    steps = []
    mask = _dismantle(p, lower, upper, p.full_mask, fixed, steps)
    return CoreResult(DismantlingTrace(p, steps), mask, lower, upper)


def _bulk_step(covers, ranks, beats, upward):
    """The U_X (upward) or D_X step on a subspace whose up (upward) or
    down beat points are the set ``beats``.

    ``covers`` holds the upper (upward) or lower cover masks of the
    subspace, so a beat point's mask has a single bit, its target.  Only
    the beat points enter the mapping, in ascending id order, each sent
    to the end of its chain of targets.  ``ranks`` are the start poset's
    ``up`` (upward) or ``down`` masks: a target's mask is a proper subset
    of its beat point's, so in order of popcount every target's chain is
    resolved before the beat points that reach it.  The cost is that of
    two sorts of the beat points; the rest of the subspace is not read.
    """
    one = {x: _sole(covers[x]) for x in sorted(beats)}
    for x in sorted(one, key=lambda x: ranks[x].bit_count()):
        t = one[x]
        one[x] = one.get(t, t)
    return RetractionStep(BULK_UP if upward else BULK_DOWN, one)


def bulk_up(p):
    """The U_X retraction: iterate one-step up-beat absorption to a
    fixpoint.  No verb calls it: it is the paper's U_X, the up round of
    ``standard_sequence``."""
    return _bulk_step(p.upper_covers, p.up, up_beat_points(p), upward=True)


def bulk_down(p):
    """The D_X retraction, dual to bulk_up.  No verb calls it: it is the
    paper's D_X, the down round of ``standard_sequence``."""
    return _bulk_step(p.lower_covers, p.down, down_beat_points(p), upward=False)


def standard_sequence(p, basepoint=None):
    """Alternate D_X, U_X (starting with D_X) until two identity rounds.

    Only non-identity steps are recorded.  The loop always ends within
    2n + 2 rounds: each non-identity round removes at least one point,
    so there are at most n of them, at most one identity round comes
    before each of them, and two identity rounds in a row end it.  For a
    basepoint, the basepoint is never a beat point and so is never moved
    or removed.  The cover masks of the current subspace are kept as in
    ``core``, and so are its down and up beat sets: a round reads its
    beat points off its set, its removed points leave the cover masks one
    at a time, and only the points whose covers that changed (what
    ``_unlink`` returns) are tested again.  So a round costs O(beat points
    + touched points) and a run O(covers + removals * deg^2), as ``core``.
    """
    lower, upper = list(p.lower_covers), list(p.upper_covers)
    mask = p.full_mask
    # the beat queries check the basepoint
    beats = [down_beat_points(p, basepoint), up_beat_points(p, basepoint)]
    steps = []
    idle = 0
    upward = False  # start with D_X
    while idle < 2:
        covers, ranks = (upper, p.up) if upward else (lower, p.down)
        step = _bulk_step(covers, ranks, beats[upward], upward)
        upward = not upward
        if not step.mapping:
            idle += 1
            continue
        idle = 0
        steps.append(step)
        touched = 0
        for x in step.mapping:
            mask ^= 1 << x
            touched |= _unlink(p, lower, upper, mask, x)
        touched = set(bits(touched & mask)) - {basepoint}
        for w, c in enumerate((lower, upper)):
            beats[w] = beats[w].difference(step.mapping, touched) | _single_covered(c, touched)
    return DismantlingTrace(p, steps)


def verify_strong_deformation(trace):
    """Certify that a trace realizes a strong deformation retraction of
    its start onto ``final`` (Stong 1966; Barmak, LNM 2032, ch. 1).

    Each step is checked alone, on the cover masks of its domain (the
    image of the step before it, the whole start for the first) kept as
    in ``core``.  Its kind must be one of the four defined here, its
    moved points must lie in its domain, and every moved point k must go
    to a point v of its image, v < k for a down kind and v > k for an up
    kind, so no step empties a non-empty space.  The map must be
    monotone on every cover with a moved end: r(y) <= r(k) for a lower
    cover y of k and dually; a finite map is monotone exactly when it is
    monotone on the covers.  Such a step is a retraction of its domain
    onto its image on one side of the identity, so one comparability
    joins it to the identity through maps fixing the image, and the
    composite is joined to the identity rel the last image, ``final``.
    The cost is O(covers + moved points * deg^2) mask operations.  No verb
    calls it: it certifies the paper's theorem that the core is a strong
    deformation retract.
    """
    p = trace.start
    lower, upper = list(p.lower_covers), list(p.upper_covers)
    mask = p.full_mask
    for step in trace.steps:
        r = step.mapping
        moved = sum(1 << k for k in r)
        if step.kind not in _UPWARD or moved & ~mask:
            return False
        image = mask ^ moved
        cone = p.up if _UPWARD[step.kind] else p.down
        for k, v in r.items():
            if not (image & cone[k]) >> v & 1:
                return False
            if any(not p.down[v] >> r.get(y, y) & 1 for y in bits(lower[k])):
                return False
            if any(not p.up[v] >> r.get(y, y) & 1 for y in bits(upper[k])):
                return False
        for k in r:
            mask ^= 1 << k
            _unlink(p, lower, upper, mask, k)
    return True
