import json
import os
import pathlib
import random
import resource
import subprocess
import sys

import pytest

from finspace import (
    MonotoneMap, ParseError, Poset, antichain, chain, crown, enumerate_monotone, fence, homology,
    order_complex,
)
from finspace.cli import (
    EXIT_GUARD,
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    PosetDocument,
    document_from_poset,
    dump_document,
    emit_dot,
    emit_poset,
    load_document,
    parse_poset,
    run,
)

from finspace.maps import DEFAULT_MAP_GUARD

from helpers import layered, link, time_limit, with_tails
from test_simplicial import ordinal_sum, rp2_face_poset

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = ["chain3", "fence6", "crown2", "crown3", "spider22", "khalimsky04"]


class TestParsing:
    def test_round_trip_golden_corpus(self):
        for name in GOLDEN:
            doc = load_document(DATA / f"{name}.poset")
            assert doc.name == name
            again = parse_poset(emit_poset(doc))
            assert again.elements == doc.elements
            assert sorted(again.covers) == sorted(doc.covers)
            assert again.basepoint == doc.basepoint
            doc.to_poset()  # validates

    def test_json_mirror_agrees(self):
        a = load_document(DATA / "chain3.poset")
        b = load_document(DATA / "chain3.json")
        assert a.elements == b.elements and sorted(a.covers) == sorted(b.covers)

    def test_comments_and_blanks_ignored(self):
        doc = parse_poset("# hi\n\nposet t\nel a  # trailing\nel b\ncov a b\n")
        assert doc.elements == ["a", "b"]

    @pytest.mark.parametrize("text, message", [
        ("poset\n", "line 1: expected: poset <name>"),
        ("poset a b\n", "line 1: expected: poset <name>"),
        ("poset t\nel\n", "line 2: expected: el <label>"),
        ("poset t\nel a b\n", "line 2: expected: el <label>"),
        ("poset t\nel a\ncov a\n", "line 3: expected: cov <a> <b>"),
        ("poset t\nel a\ncov a b c\n", "line 3: expected: cov <a> <b>"),
        ("poset t\nel a\nbase\n", "line 3: expected: base <label>"),
        ("poset t\nel a\nbase a b\n", "line 3: expected: base <label>"),
        ("poset t\nels a\n", "line 2: unknown directive 'els'"),
        ("poset t\n\n# note\nels a\n", "line 4: unknown directive 'els'"),
        ("poset t\nedge a b\n", "line 2: unknown directive 'edge'"),
        ("el a # no header yet\nel b c\n", "line 2: expected: el <label>"),
        ("el a\n", "missing 'poset <name>' header"),
        ("", "missing 'poset <name>' header"),
    ], ids=["poset-bare", "poset-two", "el-bare", "el-two", "cov-one", "cov-three", "base-bare",
            "base-two", "unknown", "unknown-after-blanks", "unknown-at-cov-arity",
            "line-before-header", "missing-header", "empty"])
    def test_each_directive_names_its_form_and_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_poset(text)
        assert str(err.value) == message

    PLAIN = "poset t\nel a\nel b\nel c\ncov a b\ncov a c\nbase a\n"

    @pytest.mark.parametrize("text", [
        "poset\tt\nel\ta\n\tel b \nel c\ncov\ta\tb\ncov a  c\nbase a\t\n",
        PLAIN.replace("\n", "\r\n"),
        "\f" + PLAIN.replace("\ncov a b", "\n\f\ncov a b"),
        "\n\n" + PLAIN.replace("\nel b", "\n   \n\nel b") + "\n\n",
        "# header next\n" + PLAIN.replace("\ncov a c", "\n  # comment only\n#\ncov a c"),
        "".join(line + " # why\n" for line in PLAIN.splitlines()),
    ], ids=["tabs", "crlf", "form-feeds", "blank-lines", "comment-lines", "trailing-comments"])
    def test_layout_does_not_change_the_document(self, text):
        assert parse_poset(text) == parse_poset(self.PLAIN) == PosetDocument(
            "t", ["a", "b", "c"], [("a", "b"), ("a", "c")], "a")

    def test_document_from_poset_round_trip(self):
        p = fence(5)
        doc = document_from_poset(p, "f5")
        q = doc.to_poset()
        assert q.same_order(p) or q.up == p.up

    def test_json_dump_parses_back(self):
        doc = document_from_poset(crown(2), "c", basepoint=None)
        data = json.loads(dump_document(doc, json_mode=True))
        assert data["elements"] == doc.elements


class TestDot:
    def test_edge_and_node_counts(self):
        p = crown(3)
        out = emit_dot(p)
        assert out.count("->") == len(p.covers)
        assert out.count("[label=") == p.n

    def test_core_trace_grays_removed(self):
        from finspace import core

        p = fence(4)
        out = emit_dot(p, core(p).trace)
        assert out.count("gray80") == 3  # everything but the core point


class TestRun:
    def test_gen_round_trips_through_core(self, capsys, tmp_path):
        assert run(["gen", "fence", "6"]) == EXIT_OK
        text = capsys.readouterr().out
        f = tmp_path / "f.poset"
        f.write_text(text)
        assert run(["core", str(f)]) == EXIT_OK
        assert "core_size: 1" in capsys.readouterr().out

    def test_homotopy_eq_negative_exit(self, capsys):
        assert run(["homotopy-eq", str(DATA / "crown2.poset"),
                    str(DATA / "crown3.poset")]) == EXIT_NEGATIVE
        assert run(["homotopy-eq", str(DATA / "chain3.poset"),
                    str(DATA / "fence6.poset")]) == EXIT_OK

    def test_contractible(self, capsys):
        assert run(["contractible", str(DATA / "fence6.poset")]) == EXIT_OK
        assert run(["contractible", str(DATA / "crown2.poset")]) == EXIT_NEGATIVE

    def test_homology_json(self, capsys):
        assert run(["--json", "homology", str(DATA / "crown2.poset")]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["reduced_betti"] == [0, 1] and data["torsion"] == [[], []]

    def test_dismantle_pointed(self, capsys):
        assert run(["--pointed", "--json", "dismantle",
                    str(DATA / "spider22.poset")]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["stabilized"] and data["final_elements"] == ["center"]

    def test_pointed_runs_files_without_a_basepoint(self, capsys):
        # only a declared basepoint is refused by a verb that takes none
        assert run(["--pointed", "fpp", str(DATA / "crown2.poset")]) == EXIT_NEGATIVE
        assert capsys.readouterr().err == "fixed-point-free self-map found\n"

    def test_function_space(self, capsys):
        assert run(["--json", "function-space", str(DATA / "crown2.poset"),
                    str(DATA / "crown2.poset")]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["identity_class_size"] == 1

    def test_topology_check(self, capsys):
        assert run(["topology-check", str(DATA / "chain3.poset"),
                    str(DATA / "chain3.poset")]) == EXIT_OK

    def test_fpp_witness(self, capsys):
        assert run(["--json", "fpp", str(DATA / "crown2.poset")]) == EXIT_NEGATIVE
        data = json.loads(capsys.readouterr().out)
        assert all(k != v for k, v in data["witness"].items())

    def test_gamma(self, capsys):
        assert run(["--json", "gamma", str(DATA / "chain3.poset")]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert set(data["verdicts"].values()) == {"certified_yes"}

    def test_missing_file_is_input_error(self, capsys):
        assert run(["core", "/nonexistent.poset"]) == EXIT_INPUT

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.poset"
        bad.write_text("el a\n")
        assert run(["core", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("text", [
        '{"name": "x"}',
        '{"elements": ["a"]}',
        '[1, 2]',
        '{"elements": "ab", "covers": []}',
        '{"elements": ["a", "b"], "covers": {"a": "b"}}',
        '{"elements": ["a", "b"], "covers": [["a"]]}',
        '{"elements": [["a"]], "covers": []}',
        '{"elements": ["a"], "covers": [], "basepoint": 0}',
    ], ids=["missing-elements", "missing-covers", "top-level-array", "elements-not-list",
            "covers-not-list", "cover-not-pair", "label-not-string", "basepoint-not-label"])
    def test_malformed_json_is_input_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["core", str(bad)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: bad poset document in ")

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000)
        assert run(["core", str(bad)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: bad JSON in ")

    def test_guard_exit(self, capsys):
        assert run(["--max-enum", "5", "function-space",
                    str(DATA / "fence6.poset"),
                    str(DATA / "fence6.poset")]) == EXIT_GUARD

    def test_gamma_guard_exit(self, capsys):
        # every link in a crown is a two-point antichain, so each verdict
        # needs the homology of the link's order complex (two simplices)
        assert run(["--max-enum", "1", "gamma", str(DATA / "crown2.poset")]) == EXIT_GUARD
        assert capsys.readouterr().err.startswith("guard exceeded: ")
        assert run(["--max-enum", "2", "gamma", str(DATA / "crown2.poset")]) == EXIT_OK

    def test_cycle_rejected(self, tmp_path, capsys):
        bad = tmp_path / "cyc.poset"
        bad.write_text("poset cyc\nel a\nel b\ncov a b\ncov b a\n")
        assert run(["core", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("verb", ["homotopy-eq", "function-space", "topology-check"])
    def test_every_file_is_read_before_any_order_is_checked(self, tmp_path, capsys, verb):
        cyclic = tmp_path / "cyc.poset"
        cyclic.write_text("poset cyc\nel a\nel b\ncov a b\ncov b a\n")
        missing = tmp_path / "missing.poset"
        assert run([verb, str(cyclic), str(missing)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: cannot read {missing}: ")


@pytest.fixture(scope="module")
def chain1100(tmp_path_factory):
    """A chain just taller than the default recursion limit, written once."""
    n = 1100
    lines = ["poset chain1100"] + [f"el c{i}" for i in range(n)]
    lines += [f"cov c{i} c{i + 1}" for i in range(n - 1)]
    path = tmp_path_factory.mktemp("deep") / "chain1100.poset"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_deep_chain_homology_hits_guard(chain1100, capsys):
    assert run(["--max-enum", "1000", "homology", str(chain1100)]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert err.startswith("guard exceeded: ") and "Traceback" not in err


def test_tall_chain_homology_refused_within_a_second(tmp_path, capsys):
    # P's chains are counted element by element, so the refusal comes after
    # about 20 of the 5000 elements instead of after listing 10^6 chains
    path = write_poset(tmp_path, chain(5000), "chain5000")
    with time_limit(1, "refusing homology on chain(5000)"):
        assert run(["homology", path]) == EXIT_GUARD
    assert capsys.readouterr().err == f"guard exceeded: more than {DEFAULT_MAP_GUARD} chains\n"


def test_empty_space_is_not_acyclic(tmp_path, capsys):
    # the reduced homology of the empty space has H_{-1} = Z, and the space
    # is not contractible either
    path = tmp_path / "empty.poset"
    path.write_text("poset empty\n")
    assert run(["--json", "homology", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "simplex_counts": [], "euler_characteristic": 0, "reduced_betti": [], "torsion": [],
        "acyclic": False,
    }
    assert run(["contractible", str(path)]) == EXIT_NEGATIVE


def test_deep_chain_function_space_to_point(chain1100, tmp_path, capsys):
    point = tmp_path / "point.poset"
    point.write_text("poset point\nel p\n")
    assert run(["function-space", str(chain1100), str(point)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "map_count: 1" in captured.out and "Traceback" not in captured.err


def test_specialization_round_trip_on_corpus():
    from finspace import alexandroff_topology, specialization_order

    for name in GOLDEN:
        p = load_document(DATA / f"{name}.poset").to_poset()
        q = specialization_order(alexandroff_topology(p))
        assert q.rel == p.up


def test_large_antichains_homotopy_eq(tmp_path, capsys):
    # each antichain is its own core, so the whole 1200-element search runs
    paths = []
    for name in ("left", "right"):
        path = tmp_path / f"{name}.poset"
        path.write_text(f"poset {name}\n" + "".join(f"el {name}{i}\n" for i in range(1200)))
        paths.append(str(path))
    assert run(["homotopy-eq", *paths]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "homotopy equivalent\n"


def test_crown_vs_crown_union_homotopy_eq(tmp_path, capsys):
    from helpers import crown_union

    whole = tmp_path / "crown30.poset"
    whole.write_text(emit_poset(document_from_poset(crown(30), "crown30")))
    split = tmp_path / "crown15u15.poset"
    split.write_text(emit_poset(document_from_poset(crown_union(15, 15), "crown15u15")))
    assert run(["homotopy-eq", str(whole), str(split)]) == EXIT_NEGATIVE
    assert capsys.readouterr().err == "not equivalent (core sizes 60, 60)\n"


def _chain_file(path, n, extra=()):
    lines = [f"poset {path.stem}"] + [f"el c{i}" for i in range(n)]
    lines += [f"cov c{i} c{i + 1}" for i in range(n - 1)]
    lines += [f"cov {a} {b}" for a, b in extra]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_long_chain_with_back_edge_names_a_cycle_element(tmp_path, capsys):
    # c2000 -> c1000 closes the cycle c1000 .. c2000; the rest is acyclic
    path = _chain_file(tmp_path / "loop.poset", 3000, [("c2000", "c1000")])
    assert run(["core", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "cycle through element 'c" in err and "Traceback" not in err
    label = err.split("cycle through element '")[1].split("'")[0]
    assert 1000 <= int(label[1:]) <= 2000


@pytest.mark.parametrize("argv", [["core"], ["contractible"], ["dot", "--core-trace"]])
def test_long_chain_verbs(tmp_path, capsys, argv):
    path = _chain_file(tmp_path / "chain4000.poset", 4000)
    assert run([*argv, str(path)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def _point_and_antichain(tmp_path, k):
    point = tmp_path / "point.poset"
    point.write_text("poset point\nel p\n")
    anti = tmp_path / f"antichain{k}.poset"
    anti.write_text(f"poset antichain{k}\n" + "".join(f"el a{i}\n" for i in range(k)))
    return str(point), str(anti)


def test_topology_check_point_to_antichain14(tmp_path, capsys):
    # 2**14 opens, counted without listing them
    assert run(["--json", "topology-check", *_point_and_antichain(tmp_path, 14)]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == {"map_count": 14, "compact_open_opens": 16384,
                    "alexandroff_opens": 16384, "topologies_equal": True}


def test_topology_check_past_the_count_guard(tmp_path, capsys):
    # 21 maps: the down-set guard fires before any set family is built
    assert run(["--json", "topology-check", *_point_and_antichain(tmp_path, 21)]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard exceeded: ") and "Traceback" not in captured.err


def _poset_file(tmp_path, p, name):
    path = tmp_path / f"{name}.poset"
    path.write_text(emit_poset(document_from_poset(p, name)))
    return str(path)


def test_fpp_crown30_witness(tmp_path, capsys):
    p = crown(30)
    assert run(["--json", "fpp", _poset_file(tmp_path, p, "crown30")]) == EXIT_NEGATIVE
    data = json.loads(capsys.readouterr().out)
    assert data["fixed_point_property"] is False
    w = data["witness"]
    assert sorted(w) == sorted(p.labels)
    assign = tuple(p.index(w[lab]) for lab in p.labels)
    assert all(v != i for i, v in enumerate(assign))
    MonotoneMap(p, p, assign)  # raises unless monotone


def test_fpp_fence30_dismantles(tmp_path, capsys):
    # one-point core: decided without a search, so even a guard of 1 passes
    path = _poset_file(tmp_path, fence(30), "fence30")
    assert run(["--json", "fpp", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"fixed_point_property": True}
    assert run(["--max-enum", "1", "fpp", path]) == EXIT_OK


def test_fpp_node_guard(capsys):
    assert run(["--max-enum", "1", "fpp", str(DATA / "crown2.poset")]) == EXIT_GUARD
    assert capsys.readouterr().err == "guard exceeded: more than 1 search nodes\n"


def test_function_space_fence12_self_maps(tmp_path, capsys):
    # 117,831 maps, one class found through the one-point cores
    path = _poset_file(tmp_path, fence(12), "fence12")
    assert run(["--json", "function-space", path, path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "map_count": 117831, "class_count": 1, "identity_class_size": 117831}


def test_function_space_chain4_to_chain40(tmp_path, capsys):
    small = _poset_file(tmp_path, chain(4), "chain4")
    large = _poset_file(tmp_path, chain(40), "chain40")
    assert run(["function-space", small, large]) == EXIT_OK
    assert capsys.readouterr().err == "123410 maps in 1 homotopy classes\n"


def test_function_space_counts_past_the_map_guard(tmp_path, capsys):
    # 2,554,364,527,963 maps, counted: --max-enum bounds the core maps and
    # the table of the count, not C(X, Y)
    path = _poset_file(tmp_path, fence(30), "fence30")
    assert run(["--json", "function-space", path, path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "map_count": 2554364527963, "class_count": 1, "identity_class_size": 2554364527963}


def _limit_address_space():
    two_gb = 2 * 1024 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (two_gb, two_gb))


def test_topology_check_past_the_down_set_guard_in_bounded_memory(tmp_path, capsys):
    # 2,554,364,527,963 maps are counted under the large --max-enum, and the
    # down-set guard must refuse them without sizing their 2**count opens
    assert run(["gen", "fence", "30"]) == EXIT_OK
    path = tmp_path / "fence30.poset"
    path.write_text(capsys.readouterr().out)
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "finspace.cli", "--max-enum", "10000000000000",
         "topology-check", str(path), str(path)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_GUARD, "",
        "guard exceeded: down-set enumeration over 2554364527963 > 20 elements\n")


@pytest.mark.parametrize("max_enum, message", [
    (None, "down-set enumeration over 100 > 20 elements"),
    ("50", "more than 50 monotone maps"),
    ("10", "more than 10 monotone maps"),
])
def test_topology_check_stops_listing_at_the_down_set_guard(tmp_path, capsys, monkeypatch,
                                                            max_enum, message):
    # antichain(2) -> antichain(10) has 100 maps: past the 20-map guard
    # they are counted, not listed
    from finspace import maps

    listed = 0
    kernel = maps._iter_assignments

    def counting_kernel(*args, **kwargs):
        nonlocal listed
        for a in kernel(*args, **kwargs):
            listed += 1
            yield a

    monkeypatch.setattr(maps, "_iter_assignments", counting_kernel)
    x = _poset_file(tmp_path, antichain(2), "antichain2")
    y = _poset_file(tmp_path, antichain(10), "antichain10")
    flags = [] if max_enum is None else ["--max-enum", max_enum]
    assert run([*flags, "topology-check", x, y]) == EXIT_GUARD
    assert capsys.readouterr() == ("", f"guard exceeded: {message}\n")
    assert 0 < listed <= 21


def test_function_space_matches_comparability_oracle(tmp_path, capsys):
    from helpers import components_by_comparability, crown_union, with_beat_points

    rng = random.Random(3)
    crown2 = with_beat_points(crown(2), rng, 3)
    for x, y in [(crown2, crown2), (crown2, crown(2)), (crown(2), crown2),
                 (antichain(2), with_beat_points(crown_union(2, 2), rng, 2)),
                 (fence(5), fence(5)), (crown(2), crown(2)), (crown(3), chain(0))]:
        px, py = _poset_file(tmp_path, x, "x"), _poset_file(tmp_path, y, "y")
        assert run(["--json", "function-space", px, py]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        c = enumerate_monotone(x, y)
        classes = components_by_comparability(c)
        assert data["class_count"] == len(classes)
        if x.up == y.up:  # the same file contents: the identity is a map
            ident = c.identity_index()
            assert data["identity_class_size"] == len(next(p for p in classes if ident in p))
        else:
            assert data["identity_class_size"] is None


def test_negative_max_enum_is_input_error(capsys):
    assert run(["--max-enum", "-1", "function-space", str(DATA / "chain3.poset"),
                str(DATA / "chain3.poset")]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: --max-enum must be non-negative, got -1\n"


def test_parser_built_once(monkeypatch, capsys):
    import finspace.cli as cli

    run(["contractible", str(DATA / "chain3.poset")])

    def rebuild():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert run(["contractible", str(DATA / "chain3.poset")]) == EXIT_OK


def test_dot_escapes_quotes_backslashes_and_newlines(tmp_path, capsys):
    labels = ['a"b', "c\\d", "e\nf"]
    f = tmp_path / "odd.json"
    f.write_text(json.dumps({"name": "odd", "elements": labels,
                             "covers": [labels[:2], labels[1:]]}))
    assert run(["dot", "--core-trace", str(f)]) == EXIT_OK
    assert capsys.readouterr().out == "\n".join([
        "digraph hasse {",
        "  rankdir=BT;",
        r'  n0 [label="a\"b", style=filled, fillcolor=gray80, xlabel="-> c\\d"];',
        r'  n1 [label="c\\d", style=filled, fillcolor=gray80, xlabel="-> e\nf"];',
        r'  n2 [label="e\nf"];',
        "  n0 -> n1;",
        "  n1 -> n2;",
        "}",
    ]) + "\n"


@pytest.mark.parametrize("argv", [["gen", "chain", "-3"], ["gen", "antichain", "-2"],
                                  ["gen", "random", "-4", "0.5"]])
def test_gen_negative_size_is_input_error(argv, capsys):
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")


@pytest.mark.parametrize("argv, message", [
    (["gen", "chain"], "gen chain takes 1 parameter(s) (n), got 0"),
    (["gen", "chain", "x"], "gen chain: n must be an integer, got 'x'"),
    (["gen", "khalimsky", "3"], "gen khalimsky takes 2 parameter(s) (a b), got 1"),
    (["gen", "random", "5", "1.5"], "gen random: edge_prob must lie in [0, 1]"),
    (["gen", "random", "5", "half"], "gen random: edge_prob must be a number, got 'half'"),
    (["gen", "spider", "2", "0"], "gen spider: leg lengths must be >= 1"),
    (["--pointed", "homotopy-eq", str(DATA / "spider22.poset"), str(DATA / "chain3.poset")],
     "--pointed needs a basepoint in both files or in neither, but only "
     f"{DATA / 'spider22.poset'} has one"),
    (["--pointed", "function-space", str(DATA / "spider22.poset"), str(DATA / "crown2.poset")],
     f"--pointed: function-space takes no basepoint, but {DATA / 'spider22.poset'} declares one"),
    (["--pointed", "dot", str(DATA / "spider22.poset")],
     f"--pointed: dot takes no basepoint, but {DATA / 'spider22.poset'} declares one"),
    (["core", str(DATA / "bare_el.poset")],
     f"bad poset document in {DATA / 'bare_el.poset'}: line 3: expected: el <label>"),
], ids=["gen-no-params", "gen-not-int", "gen-too-few", "gen-prob-range", "gen-not-number",
        "gen-spider-leg", "pointed-one-basepoint", "pointed-verb-without-basepoint",
        "pointed-dot-without-core-trace", "poset-line-number"])
def test_input_errors_name_the_problem(argv, message, capsys):
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


def test_undecodable_files_are_input_errors(tmp_path, capsys):
    binary = tmp_path / "binary.poset"
    binary.write_bytes(b"\xff\xfe")
    assert run(["core", str(binary)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"input error: {binary} is not UTF-8: ")
    # an integer past the interpreter's digit limit makes json raise a bare ValueError
    huge = tmp_path / "huge.json"
    huge.write_text('{"elements": [], "covers": [], "name": ' + "1" * 5000 + "}")
    assert run(["core", str(huge)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: bad ") and str(huge) in err


def test_internal_error_is_not_an_input_error(monkeypatch):
    # only FinspaceError is input error; a bug surfaces as itself
    import finspace.reduction

    def broken(p, basepoint=None):
        raise IndexError("list index out of range")

    monkeypatch.setattr(finspace.reduction, "core", broken)
    with pytest.raises(IndexError):
        run(["core", str(DATA / "chain3.poset")])


def write_poset(tmp_path, p, name):
    path = tmp_path / f"{name}.poset"
    path.write_text(dump_document(document_from_poset(p, name)))
    return str(path)


def test_homology_of_lower_dimensional_core(tmp_path, capsys):
    # 2-chain tails raise the 2-sphere to dimension 4; its core does not
    p = with_tails(layered(2, 3), 2)
    assert run(["--json", "homology", write_poset(tmp_path, p, "tails")]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    full = homology(order_complex(p), reduced=True)
    assert len(data["simplex_counts"]) == 5
    assert len(data["reduced_betti"]) == len(data["torsion"]) == 5
    assert data["reduced_betti"] == list(full.betti) == [0, 0, 1, 0, 0]
    assert data["torsion"] == [list(t) for t in full.torsion]
    assert data["acyclic"] is False


CROWN2_M_CROWN2 = ("poset crown2m\nel a0\nel a1\nel b0\nel b1\nel m\nel c0\nel c1\nel d0\nel d1\n"
                   "cov a0 b0\ncov a0 b1\ncov a1 b0\ncov a1 b1\ncov b0 m\ncov b1 m\n"
                   "cov m c0\ncov m c1\ncov c0 d0\ncov c0 d1\ncov c1 d0\ncov c1 d1\n")


def test_gamma_guard_bounds_the_join_of_two_crowns(tmp_path, capsys):
    # the link of m is crown2 * crown2, a core with (1 + 8)(1 + 8) - 1 = 80
    # chains; every other link has m as its maximum or its minimum
    path = tmp_path / "crown2m.poset"
    path.write_text(CROWN2_M_CROWN2)
    assert run(["--json", "--max-enum", "80", "gamma", str(path)]) == EXIT_OK
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts.pop("m") == "no"
    assert set(verdicts.values()) == {"certified_yes"}
    assert run(["--max-enum", "79", "gamma", str(path)]) == EXIT_GUARD
    assert capsys.readouterr().err == "guard exceeded: more than 79 chains\n"


def test_gamma_guard_bounds_the_core_of_the_link(tmp_path, capsys):
    # below a crown with tails, whose link has 44 chains and whose core,
    # the crown, has 8; every other link has the bottom as its minimum
    top = with_tails(crown(2), 2)
    covers = [(top.labels[a], top.labels[b]) for a, b in top.covers]
    covers += [("bottom", lab) for lab in ("a0", "a1")]
    p = Poset.from_covers(["bottom", *top.labels], covers)
    assert order_complex(link(p, p.index("bottom"))).total() == 44
    path = write_poset(tmp_path, p, "cone")
    assert run(["--json", "--max-enum", "8", "gamma", path]) == EXIT_OK
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts.pop("bottom") == "no"
    assert set(verdicts.values()) == {"certified_yes"}
    assert run(["--max-enum", "7", "gamma", path]) == EXIT_GUARD


@pytest.mark.parametrize("verb, p, code", [
    ("homology", layered(4, 41), EXIT_OK),
    ("gamma", layered(4, 42), EXIT_OK),
    # the layers fold first, to a free group of rank 3^41; joined with RP2's
    # Z/2 that is (Z/2)^(3^41), more summands than a list can hold
    ("homology", ordinal_sum(layered(4, 41), rp2_face_poset()), EXIT_GUARD),
], ids=["homology-layered-41", "gamma-layered-42", "homology-layered-41-rp2"])
def test_betti_numbers_past_sys_maxsize(verb, p, code, tmp_path, capsys):
    # layered(4, d) is a wedge of 3^d spheres of dimension d - 1, and
    # 3^41 > sys.maxsize; the guard admits 5^42 chains
    path = write_poset(tmp_path, p, "deep")
    assert run(["--json", "--max-enum", str(10**40), verb, path]) == code
    out, err = capsys.readouterr()
    if code == EXIT_GUARD:
        assert err == (f"guard exceeded: {3**41} torsion summands in one degree, "
                       f"more than {sys.maxsize}\n")
    elif verb == "homology":
        assert json.loads(out)["reduced_betti"] == [0] * 40 + [3**41]
