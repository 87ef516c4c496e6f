"""A/B timing of two commits on the benchmark in ``perfbench/``.

Usage (from the repository root)::

    python3 bench/ab.py BASE [HEAD] [--pairs 10] [--seconds 5] [--seed 2] [--workload NAME]

``git archive`` writes each commit (HEAD by default) into a directory of
the same path length under one temporary directory, since the checkout
path alone moves some timings by a few per cent.  Each of ``--pairs``
pairs runs ``perfbench/run.py`` once in each tree for every workload (all
of ``BENCHMARK.json``'s, or those named by ``--workload``), the base first
in even pairs and the head first in odd ones.  Each tree runs its own
``perfbench/``, unedited; ``--seconds`` defaults to ``BENCHMARK.json``'s
``run_seconds``.

For every end-to-end metric of ``BENCHMARK.json`` and every workload it
prints the median of each side, the change of the medians, the base's
quartiles and the pairs the head won (ties count for neither side).
``gain`` marks a head that won at least nine pairs in ten by a median
better than the base's by more than the base's interquartile range;
``past bound`` a head median worse than the base's by more than the
metric's bound.  Verdicts that failed are counted per side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """The first and third quartiles of ``values``, inclusive method."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(end_to_end, pairs):
    """One row per metric of ``end_to_end`` (BENCHMARK.json's entries) over
    ``pairs`` of (base, head) results, each the last line of a
    ``perfbench/run.py`` run, decoded."""
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        q1, q3 = quartiles(base)
        base_median, head_median = statistics.median(base), statistics.median(head)
        gained = sign * (base_median - head_median)  # > 0 when the head is better
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        rows.append({
            "metric": name, "unit": metric["unit"], "base": base_median, "head": head_median,
            "q1": q1, "q3": q3, "wins": wins, "pairs": len(pairs),
            "gain": 10 * wins >= 9 * len(pairs) and gained > q3 - q1,
            "past_bound": -gained > metric["bound"] * base_median,
        })
    return rows


def format_rows(rows):
    """The rows of ``summarize`` as a table, one line each."""
    lines = [f"  {'metric':<16} {'base':>10} {'head':>10} {'change':>8} "
             f"{'base q1..q3':>21} {'wins':>7}  flags"]
    for r in rows:
        change = (r["head"] / r["base"] - 1) * 100 if r["base"] else 0.0
        flags = " ".join(f for f, on in (("gain", r["gain"]), ("past bound", r["past_bound"])) if on)
        lines.append(f"  {r['metric']:<16} {r['base']:>10.4g} {r['head']:>10.4g} {change:>+7.1f}% "
                     f"{r['q1']:>10.4g}..{r['q3']:<9.4g} {r['wins']:>3}/{r['pairs']:<3}  {flags}")
    return lines


def export(commit, dest):
    """Write the files of ``commit`` into the new directory ``dest``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    os.mkdir(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_benchmark(tree, workload, seed, seconds):
    """The decoded last line of one ``perfbench/run.py`` run in ``tree``."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=tree, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?", default="HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="finspace-ab-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("base", "head")}
        export(args.base, trees["base"])
        export(args.head, trees["head"])
        with open(os.path.join(trees["base"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        results = {w: [] for w in workloads}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for w in workloads:
                pair = {side: run_benchmark(trees[side], w, args.seed, seconds) for side in order}
                results[w].append((pair["base"], pair["head"]))
                print(f"pair {i + 1}/{args.pairs} {w}: pass_s base "
                      f"{pair['base']['metrics']['pass_s']['value']:.4f} head "
                      f"{pair['head']['metrics']['pass_s']['value']:.4f}", file=sys.stderr)
    print(f"{args.base} -> {args.head}: {args.pairs} pairs of {seconds} s runs, seed {args.seed}")
    for w, pairs in results.items():
        failed = [sum(r[k]["failed"] for r in pairs) for k in (0, 1)]
        print(f"{w}: failed verdicts base {failed[0]}, head {failed[1]}")
        print("\n".join(format_rows(summarize(bench["end_to_end"], pairs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
