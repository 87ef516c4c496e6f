"""The per-layer doubling sweep still runs against the package: every
(layer, family) row of the checked-in ``BENCH_33.json`` comes back, with a
time or a guard message, so an API change cannot silently break it."""

import importlib.util
import json
import pathlib

import finspace

ROOT = pathlib.Path(__file__).parent.parent
SWEEP = ROOT / "bench" / "sweep.py"


def test_sweep_covers_checked_in_rows():
    spec = importlib.util.spec_from_file_location("bench_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    sweep.REDUCTION_SIZES = (4, 8)
    sweep.HOMOLOGY_DEPTHS = (1, 2)
    sweep.REPEATS = 1
    rows = sweep.sweep(finspace)
    for r in rows:
        assert (r["ms"] is None) == ("guard" in r), r
    want = {(r["layer"], r["family"])
            for r in json.loads((ROOT / "BENCH_33.json").read_text())["rows"]}
    assert want <= {(r["layer"], r["family"]) for r in rows}
