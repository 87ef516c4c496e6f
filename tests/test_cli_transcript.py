"""The CLI's exact bytes: exit code, stdout and stderr of every file verb.

``tests/data/cli_transcripts.json`` holds one ``[argv, exit, stdout,
stderr]`` record per command line in ``ARGVS``, run with ``tests/data`` as
the working directory.  Regenerate it only for an intended change of
output, and say so in CHANGES.md::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import io
import json
import os
import pathlib

from finspace import cli
from finspace.cli import EXIT_NEGATIVE, EXIT_OK, run

DATA = pathlib.Path(__file__).parent / "data"
TRANSCRIPTS = DATA / "cli_transcripts.json"

FILES = ["chain3.poset", "chain3.json", "crown2.poset", "crown3.poset", "fence6.poset",
         "khalimsky04.poset", "spider22.poset"]
PAIRS = [("chain3.poset", "fence6.poset"), ("crown2.poset", "crown3.poset"),
         ("chain3.json", "spider22.poset"), ("khalimsky04.poset", "crown2.poset"),
         ("fence6.poset", "khalimsky04.poset"), ("chain3.json", "chain3.poset")]
ONE_FILE = [["core"], ["dismantle"], ["contractible"], ["homology"], ["gamma"], ["fpp"],
            ["dot"], ["dot", "--core-trace"]]
TWO_FILES = ["homotopy-eq", "function-space", "topology-check"]


def _argvs():
    for mode in ([], ["--json"]):
        for f in FILES:
            for verb in ONE_FILE:
                yield mode + verb + [f]
            for verb in TWO_FILES:
                yield mode + [verb, f, f]
        for a, b in PAIRS:
            for verb in TWO_FILES:
                yield mode + [verb, a, b]
        for verb in (["core"], ["dismantle"], ["dot", "--core-trace"]):
            yield ["--pointed"] + mode + verb + ["spider22.poset"]
        yield ["--pointed"] + mode + ["homotopy-eq", "spider22.poset", "spider22.poset"]
        yield ["--pointed"] + mode + ["homotopy-eq", "chain3.poset", "spider22.poset"]
        yield ["--pointed"] + mode + ["function-space", "spider22.poset", "crown2.poset"]
    yield ["core", "missing.poset"]
    yield ["homotopy-eq", "chain3.poset", "missing.poset"]
    yield ["--max-enum", "3", "function-space", "crown3.poset", "crown3.poset"]
    yield ["--max-enum", "-1", "core", "chain3.poset"]


ARGVS = list(_argvs())


def transcript(argv):
    """``[argv, exit, stdout, stderr]`` of ``run(argv)`` in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


def test_cli_transcript_is_byte_identical(monkeypatch):
    recorded = json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))
    assert [r[0] for r in recorded] == ARGVS
    monkeypatch.chdir(DATA)
    for want in recorded:
        assert transcript(want[0]) == want


def test_json_reports_are_one_line_in_the_verbs_key_order(monkeypatch):
    """Every --json report is one line that json.dumps writes back
    unchanged, and decodes with its keys in the order the verb built them;
    ``dot`` writes DOT in either mode."""
    built = []
    report = cli._report

    def keep(args, data, summary):
        built.append(data)
        report(args, data, summary)

    monkeypatch.setattr(cli, "_report", keep)
    monkeypatch.chdir(DATA)
    checked = 0
    for argv in ARGVS:
        if "--json" not in argv or "dot" in argv:
            continue
        built.clear()
        _, code, out, _ = transcript(argv)
        if code not in (EXIT_OK, EXIT_NEGATIVE):
            continue
        assert out.count("\n") == 1 and out.endswith("\n"), argv
        decoded = json.loads(out)
        assert out == json.dumps(decoded, default=str) + "\n", argv
        assert list(decoded) == list(built[0]), argv
        checked += 1
    assert checked == 76  # the other --json lines are dot or exit 2 or 3


if __name__ == "__main__":
    os.chdir(DATA)
    records = [transcript(argv) for argv in ARGVS]
    TRANSCRIPTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} records written to {TRANSCRIPTS}")
