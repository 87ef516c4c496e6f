"""Independent order-theory code used to build expected answers and to
check certificates returned by the program.

Nothing here imports the package under test: every expected verdict is
either known by construction or computed by this module from the same
files the program reads.
"""

from __future__ import annotations

from math import comb


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Order:
    """A finite poset given by labels and (lower, upper) pairs.

    ``up[i]`` / ``down[i]`` are bitmasks of the elements at or above /
    at or below ``i``, computed by a topological sweep.
    """

    def __init__(self, labels, pairs):
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)
        above = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in pairs:
            i, j = self.index[a], self.index[b]
            above[i].append(j)
            indeg[j] += 1
        topo = [i for i in range(n) if indeg[i] == 0]
        for i in topo:
            for j in above[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    topo.append(j)
        if len(topo) != n:
            raise ValueError("relation has a cycle")
        self.up = [1 << i for i in range(n)]
        for i in reversed(topo):
            for j in above[i]:
                self.up[i] |= self.up[j]
        self.down = [0] * n
        for i in range(n):
            for j in bits(self.up[i]):
                self.down[j] |= 1 << i
        self.n = n
        self.full = (1 << n) - 1

    def mask(self, labels):
        m = 0
        for lab in labels:
            m |= 1 << self.index[lab]
        return m

    def cover_count(self):
        total = 0
        for i in range(self.n):
            strict = self.up[i] & ~(1 << i)
            for j in bits(strict):
                if not strict & self.down[j] & ~(1 << j):
                    total += 1
        return total

    # -- beat points -----------------------------------------------------

    def _maximal(self, m):
        return [d for d in bits(m) if not m & self.up[d] & ~(1 << d)]

    def _minimal(self, m):
        return [u for u in bits(m) if not m & self.down[u] & ~(1 << u)]

    def down_beat_target(self, x, mask):
        """The unique maximal element of x's punctured down-set, or None."""
        tops = self._maximal(self.down[x] & mask & ~(1 << x))
        return tops[0] if len(tops) == 1 else None

    def up_beat_target(self, x, mask):
        bottoms = self._minimal(self.up[x] & mask & ~(1 << x))
        return bottoms[0] if len(bottoms) == 1 else None

    def is_beat(self, x, mask):
        return (self.down_beat_target(x, mask) is not None
                or self.up_beat_target(x, mask) is not None)

    def beat_free(self, mask, basepoint=None):
        return not any(self.is_beat(x, mask) for x in bits(mask) if x != basepoint)

    def core_size(self, basepoint=None):
        """Size of the core, by a worklist dismantling."""
        mask = self.full
        work = set(range(self.n))
        while work:
            x = work.pop()
            if x == basepoint or not mask >> x & 1 or not self.is_beat(x, mask):
                continue
            mask &= ~(1 << x)
            work.update(bits((self.up[x] | self.down[x]) & mask))
        return bin(mask).count("1")

    # -- chains and maps -------------------------------------------------

    def chain_counts(self):
        """Number of chains with k+1 elements, for each k (simplex counts)."""
        order = sorted(range(self.n), key=lambda i: bin(self.down[i]).count("1"))
        ending = [None] * self.n  # ending[i][k]: chains of k+1 elements with top i
        for i in order:
            counts = [1]
            for j in bits(self.down[i] & ~(1 << i)):
                for k, c in enumerate(ending[j]):
                    if k + 1 == len(counts):
                        counts.append(0)
                    counts[k + 1] += c
            ending[i] = counts
        total = []
        for counts in ending:
            for k, c in enumerate(counts):
                if k == len(total):
                    total.append(0)
                total[k] += c
        return total

    def leq(self, x, y):
        return bool(self.up[x] >> y & 1)

    def is_monotone(self, assignment, codomain):
        return all(codomain.leq(assignment[a], assignment[b])
                   for a in range(self.n) for b in bits(self.up[a]))


def iso_certificate_ok(p, q, mapping):
    """``mapping`` (label -> label) is an order isomorphism between the
    subposets of p and q on its keys and its values, and both are cores."""
    keys = list(mapping)
    values = [mapping[k] for k in keys]
    if len(set(values)) != len(values):
        return False
    a = [p.index[k] for k in keys]
    b = [q.index[v] for v in values]
    for s in range(len(a)):
        for t in range(len(a)):
            if p.leq(a[s], a[t]) != q.leq(b[s], b[t]):
                return False
    return p.beat_free(p.mask(keys)) and q.beat_free(q.mask(values))


def replay_core_trace(p, steps, core_elements, basepoint=None):
    """Check a ``core --json`` trace: every step removes one beat point of
    what remains, towards its correct target, and the survivors are
    exactly ``core_elements`` and have no beat points."""
    mask = p.full
    for step in steps:
        if len(step["removed"]) != 1:
            return False
        x = p.index[step["removed"][0]]
        if x == basepoint or not mask >> x & 1:
            return False
        target = p.index[step["target"][p.labels[x]]]
        if step["kind"] == "remove-down-beat":
            expected = p.down_beat_target(x, mask)
        elif step["kind"] == "remove-up-beat":
            expected = p.up_beat_target(x, mask)
        else:
            return False
        if target != expected:
            return False
        mask &= ~(1 << x)
    return mask == p.mask(core_elements) and p.beat_free(mask, basepoint)


def chain_maps(k, m):
    """Monotone maps from a k-chain to an m-chain: C(m + k - 1, k)."""
    return comb(m + k - 1, k)


def fence_self_maps(n):
    """Monotone self-maps of the n-element fence x0 < x1 > x2 < ...,
    by a transfer matrix along the zigzag."""
    def leq(a, b):
        return a == b or (abs(a - b) == 1 and a % 2 == 0)

    ways = [1] * n
    for i in range(1, n):
        ways = [sum(ways[u] for u in range(n)
                    if (leq(u, v) if i % 2 == 1 else leq(v, u)))
                for v in range(n)]
    return sum(ways)


def monotone_maps(x, y):
    """All order-preserving maps x -> y as assignment tuples."""
    out = []

    def extend(prefix):
        k = len(prefix)
        if k == x.n:
            out.append(tuple(prefix))
            return
        for v in range(y.n):
            if all(y.leq(prefix[j], v) for j in range(k) if x.leq(j, k)) and \
                    all(y.leq(v, prefix[j]) for j in range(k) if x.leq(k, j)):
                extend(prefix + [v])

    extend([])
    return out


def function_poset(x, y):
    """C(x, y) under the pointwise order, as an Order on map indices."""
    fs = monotone_maps(x, y)
    pairs = [(str(i), str(j)) for i, f in enumerate(fs) for j, g in enumerate(fs)
             if i != j and all(y.leq(a, b) for a, b in zip(f, g))]
    return Order([str(i) for i in range(len(fs))], pairs)


def down_set_count(p):
    """Number of down-sets of p, by branching on the lowest undecided element."""
    def count(undecided, closed_out):
        if not undecided:
            return 1
        x = (undecided & -undecided).bit_length() - 1
        rest = undecided & ~(1 << x)
        # x out: everything above x is out too
        out_count = count(rest & ~p.up[x], closed_out | p.up[x])
        # x in: everything below x must be in (already decided in, or undecided)
        if p.down[x] & closed_out:
            return out_count
        return out_count + count(rest & ~p.down[x], closed_out)

    return count(p.full, 0)
