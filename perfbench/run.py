"""finspace benchmark: one closed-loop client calling ``finspace.cli.run``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dismantle --seed 1 --seconds 28 --trace 0

Set-up writes the workload's seeded corpus of poset files and builds the
expected answers; it is repeated and its median reported as ``setup_s``.
The run then cycles through the operations, one at a time in this
process and thread, until ``--seconds`` have elapsed and every operation
has MIN_PASSES samples.  Each operation is
timed from the call to the returned exit code; its verdict is checked
after the clock stops.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The end-to-end times are calibrated: a fixed pure-Python kernel runs
between every two operations (and around every set-up), and each time is
scaled by CAL_REF_S over the mean of the kernel times on either side of
it.  On a shared host the speed of the core drifts by tens of percent
over seconds; the kernel follows that drift and the ratio does not, so
the figures read as seconds on a machine where the kernel takes
CAL_REF_S.  A change to the program moves them as it moves raw time.

With ``--trace 1`` untraced and traced passes alternate: the traced ones
wrap the package's layer functions (see ``tracing.py``) and give the
per-layer metrics, the untraced ones the baseline for the tracing
overhead.  Per-operation medians (the ladder rows) are printed, and the
spans of one traced pass are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 5
MIN_PASSES = 3
REPEAT_S = 0.02
MAX_REPEATS = 5
# Median time of ``calibrate`` on the 2-vCPU Intel Xeon VM the benchmark
# was written on; only the scale of the reported times depends on it.
CAL_REF_S = 0.005


def calibrate():
    """Seconds taken by a fixed kernel of the kinds of work the package
    does: small-int and bitset arithmetic, dict updates and a sort."""
    start = perf_counter()
    masks = [0] * 64
    seen = {}
    for i in range(10000):
        x = (i * 2654435761) & 0xFFFF
        masks[i & 63] |= 1 << (x & 63)
        seen[x] = seen.get(x, 0) + 1
    sum(m.bit_count() for m in masks) + len(sorted(seen))
    return perf_counter() - start


def calibrated(elapsed, before, after):
    """``elapsed`` scaled to a machine where ``calibrate`` takes CAL_REF_S."""
    return elapsed * CAL_REF_S * 2 / (before + after)


def setup(workload, seed, work):
    """Import the package afresh, write the corpus and build the expected
    answers, SETUP_REPEATS times.  Returns the set-up times, the package
    and the operations of the last repetition."""
    times = []
    cal = calibrate()
    for rep in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "finspace" or m.startswith("finspace.")]:
            del sys.modules[name]
        directory = os.path.join(work, f"rep{rep}")
        os.makedirs(directory)
        start = perf_counter()
        fs = importlib.import_module("finspace")
        importlib.import_module("finspace.cli")
        ops = workloads.build(workload, seed, directory, fs)
        elapsed = perf_counter() - start
        after = calibrate()
        times.append(calibrated(elapsed, cal, after))
        cal = after
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(directory)
    return times, fs, ops


def run_op(fs, op):
    """Time one operation and check its verdict.  Returns (seconds, ok)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            if op.call is not None:
                code, result = 0, op.call()
            else:
                code, result = fs.cli.run(op.argv), None
        except (Exception, SystemExit) as e:  # any escape is a failed operation
            code, result = e, None
        elapsed = perf_counter() - start
    if isinstance(code, BaseException):
        print(f"FAIL {op.tag}: {type(code).__name__}: {code}", file=sys.stderr)
        return elapsed, False
    try:
        ok = bool(op.check(code, result if op.call is not None else out.getvalue()))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        print(f"FAIL {op.tag}: unreadable output: {type(e).__name__}: {e}", file=sys.stderr)
        return elapsed, False
    if not ok:
        print(f"FAIL {op.tag}: wrong verdict (exit {code})", file=sys.stderr)
    return elapsed, ok


class Run:
    """Verdict times of one run, per operation, and the failure count."""

    def __init__(self, fs, ops):
        self.fs = fs
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.per_op = [[] for _ in ops]
        self.per_op_cal = [[] for _ in ops]
        self.passes = 0

    def step(self, i, tracer=None):
        """Run operation i; untraced times are recorded in ``per_op``."""
        if tracer is not None:
            tracer.begin(i)
        elapsed, ok = run_op(self.fs, self.ops[i])
        if tracer is not None:
            tracer.end()
        self.attempted += 1
        self.failed += not ok
        if tracer is None:
            self.per_op[i].append(elapsed)
        return elapsed

    def one_pass(self, tracer=None):
        return sum(self.step(i, tracer) for i in range(len(self.ops)))

    def op_medians(self, calibrated=False):
        """Each operation's median verdict time: it filters out short
        bursts of machine noise."""
        return [statistics.median(v) for v in (self.per_op_cal if calibrated else self.per_op)]

    @property
    def samples(self):
        return sum(len(v) for v in self.per_op)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, setup_times):
    """``pass_s`` is the sum of the operations' median calibrated times;
    the percentiles are taken over the same medians."""
    per_op = run.op_medians(calibrated=True)
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    return {
        "pass_s": metric(sum(per_op), "s"),
        "verdict_p50_ms": metric(statistics.median(per_op) * 1e3, "ms"),
        "verdict_p90_ms": metric(deciles[-1] * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


def measure(run, seconds):
    """Cycle through the operations until ``seconds`` have passed and
    MIN_PASSES passes are complete.  Within a pass a cheap operation is
    repeated until it has run for REPEAT_S or MAX_REPEATS times, so the
    small queries that set the median get more samples."""
    start = perf_counter()
    cal = calibrate()
    while True:
        for i in range(len(run.ops)):
            if run.passes >= MIN_PASSES and perf_counter() - start >= seconds:
                return
            times = []
            while len(times) < MAX_REPEATS and sum(times) < REPEAT_S:
                times.append(run.step(i))
            after = calibrate()
            run.per_op_cal[i] += [calibrated(t, cal, after) for t in times]
            cal = after
        run.passes += 1


def measure_traced(run, seconds, out_path):
    """Alternate untraced and traced passes until ``seconds`` have passed
    and there are two of each; return the per-layer metrics and whether
    the counts of all traced passes agree."""
    tracer = tracing.Tracer()
    traced_s, layers, counts = [], [], []
    first_spans = None
    start = perf_counter()
    while len(traced_s) < 2 or perf_counter() - start < seconds:
        run.one_pass()
        run.passes += 1
        tracer.reset()
        tracer.install()
        try:
            traced_s.append(run.one_pass(tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_times())
        counts.append(dict(tracer.counts))
        if first_spans is None:
            first_spans = tracer.spans
    repeatable = all(c == counts[0] for c in counts)
    if not repeatable:
        print("FAIL counts differ between traced passes", file=sys.stderr)
    out = {name: metric(statistics.median(p[name] for p in layers), "s")
           for name in tracing.TIMES}
    out.update({name: metric(counts[0].get(name, 0), "count") for name in tracing.COUNTS})
    untraced_s = sum(run.op_medians())
    out["trace.overhead_s"] = metric(statistics.median(traced_s) - untraced_s, "s")
    ladder = [[op.tag, ms * 1e3] for op, ms in zip(run.ops, run.op_medians())]
    for tag, ms in ladder:
        print(f"ladder {tag}: median {ms:.3f} ms over {len(traced_s)} untraced passes")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"per_layer": out, "traced_passes": layers, "counts": counts,
                   "ladder_ms": ladder, "untraced_pass_s": untraced_s,
                   "traced_pass_s": traced_s, "spans": first_spans}, fh)
    return out, repeatable


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "finspace", "__init__.py")):
        print(f"perfbench: no finspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(HERE, f"work-{os.getpid()}")
    try:
        setup_times, fs, ops = setup(args.workload, args.seed, work)
        # Keep the corpus and expected answers out of the collector's full
        # passes, which would otherwise be charged to the program.
        gc.collect()
        gc.freeze()
        run = Run(fs, ops)
        repeatable = True
        if args.trace:
            out_path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
            metrics, repeatable = measure_traced(run, args.seconds, out_path)
        else:
            measure(run, args.seconds)
            metrics = end_to_end(run, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = (f"workload {args.workload} seed {args.seed}: {run.passes} untraced passes, "
               f"{run.samples} verdict samples")
    if not args.trace:
        p90 = metrics["verdict_p90_ms"]["value"] / 1e3
        summary += f", {sum(t > p90 for v in run.per_op_cal for t in v)} beyond p90"
    print(f"{summary}, fail_ratio {run.failed / run.attempted}")
    print(json.dumps({"correct": run.failed == 0 and repeatable, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
