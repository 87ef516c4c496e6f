"""Constructors for the standard example families and random instances."""

from __future__ import annotations

import random

from .poset import PointedPoset, Poset


def _zigzag(labels, rising=True):
    """The (lower, upper) cover pairs of the fence on ``labels`` in order:
    the first step goes up when ``rising``, down otherwise, and the steps
    alternate."""
    return [(lo, hi) if (i % 2 == 0) == rising else (hi, lo)
            for i, (lo, hi) in enumerate(zip(labels, labels[1:]))]


def chain(n):
    """The n-element total order c0 < c1 < ... < c{n-1}."""
    if n < 0:
        raise ValueError("chain needs n >= 0")
    labels = [f"c{i}" for i in range(n)]
    return Poset.from_covers(labels, [(f"c{i}", f"c{i+1}") for i in range(n - 1)])


def antichain(n):
    """The n-element discrete order."""
    if n < 0:
        raise ValueError("antichain needs n >= 0")
    return Poset.from_covers([f"a{i}" for i in range(n)], [])


def fence(n):
    """The n-element zigzag x0 < x1 > x2 < x3 ... (odd indices maximal)."""
    if n < 1:
        raise ValueError("fence needs n >= 1")
    labels = [f"x{i}" for i in range(n)]
    return Poset.from_covers(labels, _zigzag(labels))


def khalimsky_interval(a, b):
    """Integers a..b ordered by n <= m iff n == m, or |n-m| == 1 and m even."""
    if a > b:
        raise ValueError("empty interval")
    labels = [str(m) for m in range(a, b + 1)]
    return Poset.from_covers(labels, _zigzag(labels, rising=a % 2 == 1))


def crown(n):
    """The 2n-element crown: a_i < b_i and a_i < b_{i+1 mod n}, nothing else."""
    if n < 2:
        raise ValueError("crown needs n >= 2")
    labels = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    covers = []
    for i in range(n):
        covers.append((f"a{i}", f"b{i}"))
        covers.append((f"a{i}", f"b{(i+1) % n}"))
    return Poset.from_covers(labels, covers)


def spider(lengths):
    """A center point below the first element of each of several fences.

    Each leg is a fence of the given length whose zigzag starts upward
    from the element attached to the center.  Returns a pointed poset
    with the center as basepoint.
    """
    labels = ["center"]
    covers = []
    for k, length in enumerate(lengths):
        if length < 1:
            raise ValueError("leg lengths must be >= 1")
        leg = [f"s{k}_{i}" for i in range(length)]
        labels.extend(leg)
        covers.append(("center", leg[0]))
        covers.extend(_zigzag(leg))
    p = Poset.from_covers(labels, covers)
    return PointedPoset(p, p.index("center"))


def random_poset(n, edge_prob, seed):
    """Random poset on n elements, reproducible per seed.

    Includes each pair (i, j) with i < j in the relation independently
    with probability edge_prob, then takes the closure and reduction.
    The PRNG is Python's Mersenne Twister seeded with ``seed``, drawing
    one random() per candidate pair in row-major order.
    """
    if n < 0:
        raise ValueError("random poset needs n >= 0")
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    labels = [f"p{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                pairs.append((f"p{i}", f"p{j}"))
    return Poset.from_covers(labels, pairs)
