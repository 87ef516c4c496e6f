"""Where the ``--max-enum`` guard of ``homology`` and ``gamma`` refuses.

``tests/data/guard_thresholds.json`` holds one ``[name, document, verb, t,
answer, stderr]`` record per poset and verb: ``t`` is the least guard at
which ``--json <verb>`` answers, ``answer`` its JSON report there and
``stderr`` the message with which it exits 3 at ``t - 1``, or null when
``t`` is 0: ``gamma`` counts no chains when every link dismantles to a
point.  The poset is stored as the document the verb reads, so the
record does not move when a test builder does.  The corpus is ``tests/data``, small generator
families, the ordinal sums of ``test_simplicial.summand_corpus`` and the
two-sided links of ``test_simplicial.TestTwoSidedLinks``.

Regenerate it only for an intended change of where a guard refuses or of
what a verb answers, and say so in CHANGES.md, row by row::

    PYTHONPATH=src python tests/test_guard_thresholds.py
"""

import contextlib
import io
import json
import pathlib

from finspace.cli import EXIT_GUARD, EXIT_OK, run

DATA = pathlib.Path(__file__).parent / "data"
THRESHOLDS = DATA / "guard_thresholds.json"
VERBS = ("homology", "gamma")


def outcome(path, verb, guard):
    """``(exit, stdout, stderr)`` of ``--json --max-enum guard verb path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["--json", "--max-enum", str(guard), verb, str(path)])
    return code, out.getvalue(), err.getvalue()


def test_guard_thresholds_are_unchanged(tmp_path):
    records = json.loads(THRESHOLDS.read_text(encoding="utf-8"))
    assert len(records) > 250
    for k, (name, document, verb, t, answer, stderr) in enumerate(records):
        path = tmp_path / f"{k}{pathlib.Path(name).suffix}"
        path.write_text(document, encoding="utf-8")
        code, stdout, _ = outcome(path, verb, t)
        assert (code, json.loads(stdout)) == (EXIT_OK, answer), (name, verb, t)
        if t:
            assert outcome(path, verb, t - 1) == (EXIT_GUARD, "", stderr), (name, verb, t - 1)
        else:
            assert stderr is None


def _corpus():
    """``(name, document)`` of every poset of the record."""
    from finspace import generators
    from finspace.cli import document_from_poset, dump_document

    from helpers import layered, with_tails
    from test_simplicial import TestTwoSidedLinks, ordinal_sum, summand_corpus

    for path in sorted(DATA.iterdir()):
        if path.suffix in (".poset", ".json") and path != THRESHOLDS \
                and outcome(path, "homology", 10**6)[0] == EXIT_OK:
            yield path.name, path.read_text(encoding="utf-8")
    families = [("chain", generators.chain, range(1, 6)),
                ("antichain", generators.antichain, range(1, 5)),
                ("crown", generators.crown, range(2, 6)),
                ("fence", generators.fence, range(1, 8))]
    built = [(f"{fam}{k}", gen(k)) for fam, gen, ks in families for k in ks]
    built += [(f"khalimsky{a}_{b}", generators.khalimsky_interval(a, b))
              for a, b in ((0, 3), (1, 4), (0, 5))]
    built += [(f"spider{''.join(map(str, legs))}", generators.spider(legs).poset)
              for legs in ((1, 1), (2, 2), (1, 2, 3))]
    built += [(f"layered{w}x{d}", layered(w, d)) for w, d in ((2, 2), (2, 3), (2, 4), (3, 3))]
    built += [("crown2tails2", with_tails(generators.crown(2), 2))]
    built += [(f"sum{k}", p) for k, p in enumerate(summand_corpus())]
    sides = TestTwoSidedLinks.sides()
    built += [(f"{a}+m+{b}", ordinal_sum(lower, generators.chain(1), upper))
              for a, lower in sides.items() for b, upper in sides.items()]
    for name, p in built:
        yield f"{name}.poset", dump_document(document_from_poset(p, name))


def _threshold(path, verb):
    """The least guard at which ``verb`` answers on ``path``, by doubling
    and bisection; below 64, every smaller guard is checked to refuse."""
    hi = 1
    while (code := outcome(path, verb, hi)[0]) != EXIT_OK:
        assert code == EXIT_GUARD, (path, verb, hi)
        hi *= 2
    lo = hi // 2  # refuses, unless hi is 1 and lo the guard 0
    if hi == 1 and outcome(path, verb, 0)[0] == EXIT_OK:
        return 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if outcome(path, verb, mid)[0] == EXIT_OK else (mid, hi)
    if hi < 64:
        assert all(outcome(path, verb, g)[0] == EXIT_GUARD for g in range(hi)), (path, verb)
    return hi


if __name__ == "__main__":
    import sys
    import tempfile

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, document) in enumerate(_corpus()):
            path = pathlib.Path(tmp) / f"{k}{pathlib.Path(name).suffix}"
            path.write_text(document, encoding="utf-8")
            for verb in VERBS:
                t = _threshold(path, verb)
                answer = json.loads(outcome(path, verb, t)[1])
                stderr = outcome(path, verb, t - 1)[2] if t else None
                records.append([name, document, verb, t, answer, stderr])
    THRESHOLDS.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n",
                          encoding="utf-8")
    print(f"{len(records)} records written to {THRESHOLDS}")
