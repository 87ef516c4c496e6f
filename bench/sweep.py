"""Doubling sweeps of the reduction and homology layers.

Usage (from the repository root)::

    python3 bench/sweep.py BENCH_37.json

Times, each the least time per call over ``ROUNDS`` rounds, a round being
as many calls as the first call says fill ``ROUND_MS`` (at least one), so
a sub-millisecond rung is timed over many calls:

- ``Poset.from_covers`` on the labels and covers of ``chain(n)`` and
  ``fence(n)`` (the build layer), and ``core`` and ``standard_sequence``
  on ``chain(n)`` and ``fence(n)``, for n = 400, 800, ..., 6400;
- ``core`` on ``crown(k)``, which has no beat points and is its own core,
  and on ``crown(k)`` with a pendant point hung on each element (above a
  minimal one, below a maximal one, so the pendants are the only beat
  points and the core is rebuilt), for k = 400, 800, ..., 6400;
- ``are_homotopy_equivalent`` of ``crown(k)`` against that pendant copy
  (family ``crown+pendants``) and against itself (``crown``), for the
  same k: the dismantling and the match of the cover masks, with ``n``
  the points of both inputs together;
- ``poset_homology`` and the ``gamma`` verb's path (``gamma_points``,
  every point in one call; the row keeps its name ``gamma_loop``) on the
  sphere model S^d (two incomparable points at each of d + 1 levels) and
  on ``layered(4, d)`` (four at each of d levels), for d = 1, 2, 4, 8,
  ..., and on ``crown(k)``, one summand of height 1, for k = 4, 8, 16,
  ...

and writes one row per rung to the given JSON file: ``n`` the number of
points, ``d`` the doubled parameter of the crown and homology rows, the time in ms
and ``ratio``, this rung's time over the previous rung's.  A row stops at
the first rung past 1 s, or at the first rung refused by the guard of
10^6 chains (the CLI's default ``--max-enum``), which is written with
``ms`` null and the guard's message.  The script calls only the public
API of the ``finspace`` under ``src/`` next to it, so a copy of it runs
unchanged in an older checkout that has ``gamma_points``, the newest
name it calls.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REDUCTION_SIZES = (400, 800, 1600, 3200, 6400)
HOMOLOGY_DEPTHS = (1, 2, 4, 8, 16, 32, 64)
CROWN_SIZES = tuple(4 << i for i in range(11))
ROUNDS = 5
ROUND_MS = 10
GUARD = 10**6
STOP_MS = 1000


def best_ms(fn, arg):
    gc.collect()
    start = time.perf_counter()
    fn(arg)
    best = time.perf_counter() - start
    calls = max(1, int(ROUND_MS / 1000 / best))
    for _ in range(ROUNDS):
        gc.collect()
        start = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1000


def layered(finspace, width, depth):
    """Every one of ``width`` points at each level below every point at the
    next: the join of ``depth`` discrete spaces."""
    levels = [[f"l{i}_{j}" for j in range(width)] for i in range(depth)]
    covers = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi]
    return finspace.Poset.from_covers([x for level in levels for x in level], covers)


def build_args(p):
    """The labels and covers of P, the arguments that build it."""
    return list(p.labels), [(p.labels[a], p.labels[b]) for a, b in sorted(p.covers)]


def with_pendants(finspace, p):
    """P with a new point above each minimal element and below each other
    one: for a crown, the new points are its only beat points."""
    labels, covers = build_args(p)
    for x, lab in enumerate(p.labels):
        labels.append(f"{lab}_p")
        covers.append((lab, labels[-1]) if p.down[x] == 1 << x else (labels[-1], lab))
    return finspace.Poset.from_covers(labels, covers)


def row(finspace, layer, family, fn, rungs):
    """One row: ``rungs`` yields (row fields, argument of fn) by size, ascending."""
    rows = []
    prev = None
    for fields, p in rungs:
        try:
            ms = best_ms(fn, p)
        except finspace.GuardExceeded as e:
            rows.append({"layer": layer, "family": family, **fields, "ms": None,
                         "ratio": None, "guard": str(e)})
            break
        rows.append({"layer": layer, "family": family, **fields, "ms": round(ms, 2),
                     "ratio": None if prev is None else round(ms / prev, 2)})
        prev = ms
        if ms > STOP_MS:
            break
    return rows


def sweep(finspace):
    rows = []
    for family in ("chain", "fence"):
        rungs = (({"n": n}, build_args(getattr(finspace, family)(n)))
                 for n in REDUCTION_SIZES)
        rows += row(finspace, "from_covers", family,
                    lambda a: finspace.Poset.from_covers(*a), rungs)
    for layer in ("core", "standard_sequence"):
        for family in ("chain", "fence"):
            rungs = (({"n": n}, getattr(finspace, family)(n)) for n in REDUCTION_SIZES)
            rows += row(finspace, layer, family, getattr(finspace, layer), rungs)
    rungs = (({"n": 2 * k, "d": k}, finspace.crown(k)) for k in REDUCTION_SIZES)
    rows += row(finspace, "core", "crown", finspace.core, rungs)
    rungs = (({"n": 4 * k, "d": k}, with_pendants(finspace, finspace.crown(k)))
             for k in REDUCTION_SIZES)
    rows += row(finspace, "core", "crown+pendants", finspace.core, rungs)

    def equivalent(pair):
        return finspace.are_homotopy_equivalent(*pair)

    for family, other in (("crown+pendants", lambda c: with_pendants(finspace, c)),
                          ("crown", lambda c: c)):
        pairs = ((finspace.crown(k), other(finspace.crown(k))) for k in REDUCTION_SIZES)
        rungs = (({"n": p.n + q.n, "d": p.n // 2}, (p, q)) for p, q in pairs)
        rows += row(finspace, "are_homotopy_equivalent", family, equivalent, rungs)

    def homology(p):
        return finspace.poset_homology(p, guard=GUARD)

    def gamma_loop(p):
        return finspace.gamma_points(p, guard=GUARD)

    families = {"sphere": (2, 1), "layered4": (4, 0)}  # width, levels beyond d
    for layer, fn in (("poset_homology", homology), ("gamma_loop", gamma_loop)):
        for family, (width, extra) in families.items():
            rungs = (({"n": width * (d + extra), "d": d}, layered(finspace, width, d + extra))
                     for d in HOMOLOGY_DEPTHS)
            rows += row(finspace, layer, family, fn, rungs)
        rungs = (({"n": 2 * k, "d": k}, finspace.crown(k)) for k in CROWN_SIZES)
        rows += row(finspace, layer, "crown", fn, rungs)
    return rows


def main(argv):
    if len(argv) != 2:
        print("usage: python3 bench/sweep.py OUT.json", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    finspace = importlib.import_module("finspace")
    doc = {
        "sweep": "least wall time per call over %d rounds of at least %d ms of "
                 "finspace.<layer>(<family>(n)), size doubling" % (ROUNDS, ROUND_MS),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": sweep(finspace),
    }
    with open(argv[1], "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for r in doc["rows"]:
        ms = "guard" if r["ms"] is None else f"{r['ms']:9.2f} ms"
        print(f"{r['layer']:>23} {r['family']:>14} {r.get('d', ''):>4} {r['n']:>5} {ms:>12}"
              f"  x{r['ratio']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
