"""Doubling sweep of ``core`` and ``standard_sequence`` on chains and fences.

Usage (from the repository root)::

    python3 bench/sweep.py BENCH_23.json

Times ``core`` and ``standard_sequence`` on ``chain(n)`` and ``fence(n)``
for n = 400, 800, ..., 6400, each the best of three calls, and writes one
row per rung to the given JSON file: the time in ms and ``ratio``, this
rung's time over the time at n / 2.  A layer linear in n reads about 2 at
every doubling, a quadratic one about 4.  The script calls only the
public API of the ``finspace`` under ``src/`` next to it, so a copy of it
runs unchanged in an older checkout.
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
LAYERS = ("core", "standard_sequence")
FAMILIES = ("chain", "fence")
SIZES = (400, 800, 1600, 3200, 6400)
REPEATS = 3


def best_ms(fn, arg):
    best = float("inf")
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def sweep(finspace):
    rows = []
    for layer in LAYERS:
        for family in FAMILIES:
            prev = None
            for n in SIZES:
                ms = best_ms(getattr(finspace, layer), getattr(finspace, family)(n))
                rows.append({"layer": layer, "family": family, "n": n, "ms": round(ms, 2),
                             "ratio": None if prev is None else round(ms / prev, 2)})
                prev = ms
    return rows


def main(argv):
    if len(argv) != 2:
        print("usage: python3 bench/sweep.py OUT.json", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    finspace = importlib.import_module("finspace")
    doc = {
        "sweep": "best-of-%d wall time of finspace.<layer>(<family>(n)), n doubling" % REPEATS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": sweep(finspace),
    }
    with open(argv[1], "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for r in doc["rows"]:
        print(f"{r['layer']:>17} {r['family']:>5} {r['n']:>5} {r['ms']:>9.2f} ms  x{r['ratio']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
