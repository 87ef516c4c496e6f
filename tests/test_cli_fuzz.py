"""Fuzz ``run()``: on any input file every verb ends in one of the four exit
codes, and exits 2 and 3 carry their messages.  No exception escapes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from finspace.cli import EXIT_GUARD, EXIT_INPUT, run

LABELS = "abcdefgh"
# most documents are valid; each fault breaks one rule of the format
FAULTS = [None] * 14 + ["duplicate", "unknown", "cycle", "basepoint", "directive", "arity",
                       "header"]
VERBS = [["core"], ["dismantle"], ["contractible"], ["homology"], ["gamma"], ["fpp"],
         ["dot"], ["dot", "--core-trace"]]
TWO_FILE_VERBS = [["homotopy-eq"], ["function-space"], ["topology-check"]]


@st.composite
def documents(draw):
    """(suffix, text) of a ``.poset`` or ``.json`` document of at most 8 labels."""
    labels = draw(st.permutations(LABELS))[:draw(st.integers(0, 8))]
    n = len(labels)
    pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12))
    # pairs listed in one order of the labels: an acyclic relation
    covers = [(labels[min(i, j)], labels[max(i, j)]) for i, j in pairs if i != j and max(i, j) < n]
    base = draw(st.none() | st.sampled_from(labels)) if labels else None
    fault = draw(st.sampled_from(FAULTS))
    if fault == "duplicate":
        labels.append(labels[0] if labels else "a")
        labels.append(labels[-1])
    elif fault == "unknown":
        covers.append((labels[0] if labels else "a", "z"))
    elif fault == "cycle" and labels:
        a, b = covers[0] if covers else (labels[0], labels[0])
        covers.append((b, a))
    elif fault == "basepoint":
        base = "z"
    if draw(st.booleans()):
        doc = {"name": "fuzz", "elements": labels, "covers": [list(c) for c in covers],
               "basepoint": base}
        if fault == "directive":
            doc["elements"] = "".join(labels)
        elif fault == "arity":
            doc["covers"].append(labels[:1])
        elif fault == "header":
            return ".json", json.dumps(doc)[:-1]
        return ".json", json.dumps(doc)
    lines = ["poset fuzz"] if fault != "header" else []
    lines += [f"el {lab}" for lab in labels]
    lines += [f"cov {a} {b}" for a, b in covers]
    if base is not None:
        lines.append(f"base {base}")
    if fault == "directive":
        lines.append("edge a b")
    elif fault == "arity":
        lines.append("cov a")
    return ".poset", "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(docs=st.tuples(documents(), documents()),
       verb=st.sampled_from(VERBS + TWO_FILE_VERBS),
       json_mode=st.booleans(), pointed=st.booleans(),
       max_enum=st.sampled_from([0, 1, 3, 20, 1000]))
def test_run_never_escapes(directory, docs, verb, json_mode, pointed, max_enum):
    paths = []
    for k, (suffix, text) in enumerate(docs[:1 + (verb in TWO_FILE_VERBS)]):
        path = directory / f"doc{k}{suffix}"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    argv = ["--max-enum", str(max_enum)] + ["--json"] * json_mode + ["--pointed"] * pointed
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + verb + paths)
    assert code in (0, 1, 2, 3)
    if code == EXIT_INPUT:
        assert err.getvalue().startswith("input error: ")
    elif code == EXIT_GUARD:
        assert err.getvalue().startswith("guard exceeded: ")
