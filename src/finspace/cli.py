"""Command-line front end: poset files, DOT output and one verb per
library capability.

File format (``.poset``): line oriented, ``#`` comments, UTF-8::

    poset <name>
    el <label>
    cov <a> <b>      # a < b, b covers a
    base <label>     # optional basepoint

A JSON mirror {"name", "elements", "covers", "basepoint"} is accepted
and produced for ``.json`` paths.

Each file verb (``cmd_*``) takes the parsed args and one (poset,
basepoint id or None) per input file, and returns its report ``(data,
summary, verdict)``, or None once it has written its own output (``dot``;
``gen`` reads no file).  ``run()`` alone reads the files, resolves
``--pointed`` basepoints, prints the report and picks the exit code.
Under ``--pointed`` a verb that takes no basepoint refuses a file that
declares one, and a ``.poset`` parse error names its line.

Exit codes: 0 success, 1 negative decision, 2 input error, 3 guard
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from . import generators, homotopy, maps, reduction, simplicial, topology
from .errors import FinspaceError, GuardExceeded, ParseError, ValidationError
from .poset import Poset

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


@dataclass
class PosetDocument:
    name: str
    elements: list
    covers: list  # label pairs
    basepoint: str | None = None

    def to_poset(self):
        p = Poset.from_covers(self.elements, self.covers)
        if self.basepoint is not None and self.basepoint not in self.elements:
            raise ValidationError(f"basepoint {self.basepoint!r} is not an element")
        return p


def parse_poset(text):
    """Parse the line-oriented poset format."""
    doc = PosetDocument("", [], [], None)
    have_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "poset":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected: poset <name>")
            doc.name = parts[1]
            have_header = True
        elif kw == "el":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected: el <label>")
            doc.elements.append(parts[1])
        elif kw == "cov":
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected: cov <a> <b>")
            doc.covers.append((parts[1], parts[2]))
        elif kw == "base":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected: base <label>")
            doc.basepoint = parts[1]
        else:
            raise ParseError(f"line {lineno}: unknown directive {kw!r}")
    if not have_header:
        raise ParseError("missing 'poset <name>' header")
    return doc


def emit_poset(doc):
    lines = [f"poset {doc.name}"]
    lines += [f"el {lab}" for lab in doc.elements]
    lines += [f"cov {a} {b}" for a, b in doc.covers]
    if doc.basepoint is not None:
        lines.append(f"base {doc.basepoint}")
    return "\n".join(lines) + "\n"


def document_from_poset(p, name, basepoint=None):
    covers = sorted((p.labels[a], p.labels[b]) for a, b in p.covers)
    base = None if basepoint is None else p.labels[basepoint]
    return PosetDocument(name, list(p.labels), covers, base)


def parse_json_document(data):
    """A PosetDocument from a decoded JSON mirror.

    Any other shape raises ParseError: the top level must be an object
    whose ``elements`` is a list of labels (strings) and whose ``covers``
    is a list of [lower, upper] label pairs; ``name`` is an optional
    string and ``basepoint`` an optional label or null.
    """
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object, got {type(data).__name__}")
    for key in ("elements", "covers"):
        if key not in data:
            raise ParseError(f"missing {key!r}")
        if not isinstance(data[key], list):
            raise ParseError(f"{key!r} must be a list, got {type(data[key]).__name__}")
    name = data.get("name", "unnamed")
    basepoint = data.get("basepoint")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    if not all(isinstance(lab, str) for lab in data["elements"]):
        raise ParseError("'elements' must be strings")
    for c in data["covers"]:
        if not (isinstance(c, list) and len(c) == 2 and all(isinstance(lab, str) for lab in c)):
            raise ParseError(f"each cover must be a [lower, upper] pair of labels, got {c!r}")
    if basepoint is not None and not isinstance(basepoint, str):
        raise ParseError("'basepoint' must be a label or null")
    return PosetDocument(name, list(data["elements"]),
                         [tuple(c) for c in data["covers"]], basepoint)


def load_document(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8: {e}") from e
    is_json = str(path).endswith(".json")
    if is_json:
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as e:  # ValueError: bad syntax or a huge int
            raise ParseError(f"bad JSON in {path}: {e}") from e
    try:
        return parse_json_document(data) if is_json else parse_poset(text)
    except ParseError as e:
        raise ParseError(f"bad poset document in {path}: {e}") from e


def dump_document(doc, json_mode=False):
    if json_mode:
        return json.dumps(
            {
                "name": doc.name,
                "elements": doc.elements,
                "covers": [list(c) for c in doc.covers],
                "basepoint": doc.basepoint,
            },
            indent=2,
        ) + "\n"
    return emit_poset(doc)


def _dot_escape(label):
    """A label as the inside of a DOT double-quoted string."""
    return str(label).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def emit_dot(p, trace=None):
    """Hasse diagram as a DOT digraph; trace removals grayed out."""
    removed = {}
    if trace is not None:
        for step in trace.steps:
            for x in step.removed:
                removed[x] = step.mapping[x]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, lab in enumerate(p.labels):
        attrs = [f'label="{_dot_escape(lab)}"']
        if i in removed:
            attrs.append('style=filled, fillcolor=gray80')
            attrs.append(f'xlabel="-> {_dot_escape(p.labels[removed[i]])}"')
        lines.append(f'  n{i} [{", ".join(attrs)}];')
    for a, b in sorted(p.covers):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subcommands --------------------------------------------------------


def _report(args, data, summary):
    if args.json:
        print(json.dumps(data, indent=2, default=str))
    else:
        for k, v in data.items():
            print(f"{k}: {v}")
    print(summary, file=sys.stderr)


GEN_FAMILIES = {  # family -> (generator, parameter names); spider takes any number
    "chain": (generators.chain, ("n",)), "antichain": (generators.antichain, ("n",)),
    "fence": (generators.fence, ("n",)), "crown": (generators.crown, ("n",)),
    "khalimsky": (generators.khalimsky_interval, ("a", "b")),
    "random": (generators.random_poset, ("n", "edge_prob")),
    "spider": (generators.spider, ("leg_length",)),
}


def cmd_gen(args):
    family, params = args.family, args.params
    if family not in GEN_FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    gen, names = GEN_FAMILIES[family]
    if family == "spider":
        names *= len(params)
    elif len(params) != len(names):
        raise ValidationError(f"gen {family} takes {len(names)} parameter(s) "
                              f"({' '.join(names)}), got {len(params)}")
    nums = []
    for pname, v in zip(names, params):
        kind, what = (float, "a number") if pname == "edge_prob" else (int, "an integer")
        try:
            nums.append(kind(v))
        except ValueError:
            raise ValidationError(f"gen {family}: {pname} must be {what}, got {v!r}") from None
    try:
        if family == "spider":
            pp = gen(nums)
            p, base, name = pp.poset, pp.basepoint, "spider"
        else:
            p = gen(*nums, args.seed) if family == "random" else gen(*nums)
            base, name = None, f"{family}{'_'.join(params)}"
    except ValueError as e:  # a value out of the family's range
        raise ValidationError(f"gen {family}: {e}") from e
    sys.stdout.write(dump_document(document_from_poset(p, name, base), args.json))


def cmd_core(args, first):
    p, base = first
    res = reduction.core(p, base)
    steps = [
        {
            "kind": s.kind,
            "removed": [p.labels[x] for x in sorted(s.removed)],
            "target": {p.labels[x]: p.labels[t] for x, t in s.mapping.items()},
        }
        for s in res.trace.steps
    ]
    data = {
        "input_size": p.n,
        "core_size": res.core.n,
        "core_elements": sorted(p.labels[x] for x in res.core_elements),
        "steps": steps if args.json else len(steps),
    }
    return data, f"core has {res.core.n} of {p.n} elements after {len(steps)} removals", True


def cmd_dismantle(args, first):
    p, base = first
    trace = reduction.standard_sequence(p, base)
    final = trace.final
    data = {
        "input_size": p.n,
        "final_size": len(final),
        "final_elements": sorted(p.labels[x] for x in final),
        "effective_steps": len(trace.steps),
        "stabilized": True,  # the standard sequence always stabilizes
        "kinds": [s.kind for s in trace.steps],
    }
    return data, (f"standard sequence left {len(final)} elements "
                  f"in {len(trace.steps)} effective steps"), True


def cmd_homotopy_eq(args, first, second):
    (p, base_p), (q, base_q) = first, second
    if (base_p is None) != (base_q is None):
        raise ValidationError(f"--pointed needs a basepoint in both files or in neither, "
                              f"but only {args.file if base_q is None else args.file2} has one")
    ev = homotopy.are_homotopy_equivalent(p, q, base_p, base_q)
    data = {
        "equivalent": ev.equivalent,
        "core_size_1": ev.core_p.core.n,
        "core_size_2": ev.core_q.core.n,
    }
    if ev.iso is not None:
        data["iso"] = {
            ev.core_p.core.labels[i]: ev.core_q.core.labels[v]
            for i, v in enumerate(ev.iso.mapping)
        }
    summary = ("homotopy equivalent" if ev.equivalent
               else f"not equivalent (core sizes {ev.core_p.core.n}, {ev.core_q.core.n})")
    return data, summary, ev.equivalent


def cmd_contractible(args, first):
    verdict = homotopy.is_contractible(first[0])
    return {"contractible": verdict}, "contractible" if verdict else "not contractible", verdict


def cmd_homology(args, first):
    p = first[0]
    counts, prof = simplicial.chains_and_homology(p, guard=args.max_enum)
    # the core's groups above its dimension, at most P's, are zero
    degrees = [prof.degree(d) for d in range(len(counts))]
    betti = [b for b, _ in degrees]
    data = {
        "simplex_counts": counts,
        "euler_characteristic": sum((-1) ** d * c for d, c in enumerate(counts)),
        "reduced_betti": betti,
        "torsion": [list(t) for _, t in degrees],
        "acyclic": prof.is_acyclic(),
    }
    return data, f"reduced betti {betti}", True


def cmd_function_space(args, first, second):
    map_count, class_count, id_class = maps.function_space_counts(first[0], second[0],
                                                                  guard=args.max_enum)
    data = {
        "map_count": map_count,
        "class_count": class_count,
        "identity_class_size": id_class,
    }
    return data, f"{map_count} maps in {class_count} homotopy classes", True


def cmd_gamma(args, first):
    p = first[0]
    verdicts = dict(zip(p.labels, simplicial.gamma_points(p, guard=args.max_enum)))
    certified = sum(v == simplicial.CERTIFIED_YES for v in verdicts.values())
    return {"verdicts": verdicts}, f"{certified} certified gamma-points of {p.n}", True


def cmd_fpp(args, first):
    p = first[0]
    ok, witness = maps.has_fpp(p, guard=args.max_enum)
    data = {"fixed_point_property": ok}
    if witness is not None:
        data["witness"] = {p.labels[i]: p.labels[v]
                           for i, v in enumerate(witness.assignment)}
    return data, ("has the fixed point property" if ok
                  else "fixed-point-free self-map found"), ok


def cmd_topology_check(args, first, second):
    x, y = first[0], second[0]
    # more maps than the down-set guard are counted, not listed
    try:
        c = maps.enumerate_monotone(x, y, guard=min(args.max_enum, topology.DOWNSET_GUARD))
    except GuardExceeded:
        if args.max_enum <= topology.DOWNSET_GUARD:
            raise
        # the count is above the down-set guard, so this raises its message
        topology.check_downset_guard(maps.count_monotone(x, y, guard=args.max_enum))
    opens = topology.compact_open_opens(c)
    data = {
        "map_count": len(c),
        "compact_open_opens": opens,
        "alexandroff_opens": opens,
        "topologies_equal": True,  # always on finite X and Y (Stong 1966)
    }
    return data, "compact-open = Alexandroff", True


def cmd_dot(args, first):
    p, base = first
    trace = reduction.core(p, base).trace if args.takes_basepoint else None
    sys.stdout.write(emit_dot(p, trace))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="finspace",
        description="Computations with finite topological spaces (finite posets).",
    )
    ap.add_argument("--max-enum", type=int, default=maps.DEFAULT_MAP_GUARD,
                    help="guard on maps, simplices and search nodes (non-negative)")
    ap.add_argument("--seed", type=int, default=0, help="PRNG seed for gen random")
    ap.add_argument("--pointed", action="store_true",
                    help="respect basepoints declared in input files")
    ap.add_argument("--json", action="store_true", help="JSON reports")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="emit a generated poset document")
    sp.add_argument("family")
    sp.add_argument("params", nargs="*")
    sp.set_defaults(fn=cmd_gen, files=())

    one, two = ("file",), ("file", "file2")  # each verb's input files, in reading order
    # name, verb, input files, whether the verb takes a basepoint under --pointed
    for name, fn, files, pointed in [
        ("core", cmd_core, one, True),
        ("dismantle", cmd_dismantle, one, True),
        ("homotopy-eq", cmd_homotopy_eq, two, True),
        ("contractible", cmd_contractible, one, False),
        ("homology", cmd_homology, one, False),
        ("function-space", cmd_function_space, two, False),
        ("gamma", cmd_gamma, one, False),
        ("fpp", cmd_fpp, one, False),
        ("topology-check", cmd_topology_check, two, False),
    ]:
        sp = sub.add_parser(name)
        for dest in files:
            sp.add_argument(dest)
        sp.set_defaults(fn=fn, files=files, takes_basepoint=pointed)

    sp = sub.add_parser("dot", help="emit a DOT Hasse diagram")
    sp.add_argument("file")
    # only the core trace reads a basepoint, so the flag is what takes one
    sp.add_argument("--core-trace", dest="takes_basepoint", action="store_true",
                    help="gray out elements removed by core reduction")
    sp.set_defaults(fn=cmd_dot, files=one)
    return ap


@functools.cache
def _parser():
    """The parser, built on first use and shared by every later ``run``."""
    return build_parser()


def _input(args, path, doc):
    """The (poset, basepoint id or None) that a verb gets for one document."""
    p = doc.to_poset()
    if not args.pointed or doc.basepoint is None:
        return p, None
    if not args.takes_basepoint:
        raise ValidationError(f"--pointed: {args.command} takes no basepoint, "
                              f"but {path} declares one")
    return p, p.index(doc.basepoint)


def run(argv=None):
    """Parse ``argv``, read the verb's files, run it, print its report and
    return the exit code."""
    args = _parser().parse_args(argv)
    try:
        if args.max_enum < 0:
            raise ValidationError(f"--max-enum must be non-negative, got {args.max_enum}")
        # every file is read before any poset is built
        paths = [getattr(args, dest) for dest in args.files]
        docs = [load_document(path) for path in paths]
        report = args.fn(args, *[_input(args, path, doc) for path, doc in zip(paths, docs)])
        if report is None:
            return EXIT_OK
        data, summary, verdict = report
        _report(args, data, summary)
        return EXIT_OK if verdict else EXIT_NEGATIVE
    except GuardExceeded as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return EXIT_GUARD
    except FinspaceError as e:  # ParseError and ValidationError among them
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
