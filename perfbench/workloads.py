"""Seeded corpora and operations for the four workloads.

Each workload writes its poset files into a directory and returns a list
of operations.  An operation is one CLI invocation (or, for ``classify``,
one library call) tagged with its verb, family and size, plus a check of
the verdict against an answer known by construction or a certificate
checked with ``oracle``.  Checks never compare against output of the
code under test.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

from oracle import (
    Order,
    chain_maps,
    down_set_count,
    fence_self_maps,
    function_poset,
    iso_certificate_ok,
    monotone_maps,
    replay_core_trace,
)

WORKLOADS = ("dismantle", "homotopy-eq", "homology", "function-space")


@dataclass
class Op:
    """One timed operation.  ``argv`` goes to ``finspace.cli.run``;
    library operations set ``call`` instead.  ``check(code, out)`` gets
    the exit code (0 for library calls) and the captured stdout (or the
    returned value) and tells whether the verdict is right."""

    verb: str
    family: str
    size: int
    check: Callable
    argv: list | None = None
    call: Callable | None = None

    @property
    def tag(self):
        return f"{self.verb} {self.family} n={self.size}"


@dataclass
class Doc:
    """A poset file written for the corpus, with its independent Order."""

    path: str
    order: Order
    basepoint: str | None = None


class Corpus:
    """Writes shuffled poset files into one directory."""

    def __init__(self, directory, rng):
        self.directory = directory
        self.rng = rng

    def write(self, name, labels, covers, basepoint=None, shuffle=True):
        """Write a ``.poset`` file, listing elements and covers in a seeded
        order unless ``shuffle`` is off."""
        labels, covers = list(labels), list(covers)
        if shuffle:
            self.rng.shuffle(labels)
            self.rng.shuffle(covers)
        lines = [f"poset {name}"]
        lines += [f"el {lab}" for lab in labels]
        lines += [f"cov {a} {b}" for a, b in covers]
        if basepoint is not None:
            lines.append(f"base {basepoint}")
        path = os.path.join(self.directory, f"{name}.poset")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return Doc(path, Order(labels, covers), basepoint)


# -- constructions ---------------------------------------------------------


def from_poset(p):
    """Labels and cover pairs of a ``finspace.poset.Poset``."""
    return list(p.labels), [(p.labels[a], p.labels[b]) for a, b in p.covers]


def ordinal_sum(layers):
    """Every element of layer i below every element of layer i + 1."""
    labels = [lab for layer in layers for lab in layer]
    covers = [(a, b) for lo, hi in zip(layers, layers[1:]) for a in lo for b in hi]
    return labels, covers


def layered(width, depth):
    """Ordinal sum of ``depth`` antichains of ``width``: a wedge of
    (width - 1) ** depth spheres of dimension depth - 1."""
    return ordinal_sum([[f"l{i}_{j}" for j in range(width)] for i in range(depth)])


def sphere(d):
    """The minimal finite model of S^d: d + 1 levels of two points."""
    return layered(2, d + 1)


def suspension(labels, covers):
    """Two incomparable points above everything."""
    maxima = set(labels) - {a for a, _ in covers}
    return (list(labels) + ["top0", "top1"],
            list(covers) + [(m, t) for m in maxima for t in ("top0", "top1")])


def with_tails(labels, covers, length):
    """A chain of ``length`` points hung above each maximal element."""
    labels, covers = list(labels), list(covers)
    for m in sorted(set(labels) - {a for a, _ in covers}):
        prev = m
        for i in range(length):
            t = f"{m}_t{i}"
            labels.append(t)
            covers.append((prev, t))
            prev = t
    return labels, covers


RP2_TRIANGLES = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
                 (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]


def rp2_face_poset():
    """Face poset of the 6-vertex real projective plane."""
    faces = set()
    for tri in RP2_TRIANGLES:
        t = tuple(sorted(tri))
        faces.add(t)
        faces.update({(a, b) for a in t for b in t if a < b})
        faces.update({(a,) for a in t})
    name = {f: "f" + "_".join(map(str, f)) for f in faces}
    covers = [(name[f], name[g]) for f in faces for g in faces
              if len(g) == len(f) + 1 and set(f) <= set(g)]
    return sorted(name.values()), covers


def crown_union(*ks):
    """Disjoint union of crowns of the given sizes."""
    labels, covers = [], []
    for c, k in enumerate(ks):
        a = [f"u{c}a{i}" for i in range(k)]
        b = [f"u{c}b{i}" for i in range(k)]
        labels += a + b
        covers += [(a[i], b[i]) for i in range(k)]
        covers += [(a[i], b[(i + 1) % k]) for i in range(k)]
    return labels, covers


def random_core(n, rng, prefix):
    """A random levelled poset with no beat points.

    Every element is joined to at least two elements of the level below
    (if any) and of the level above (if any), and only adjacent levels
    are joined, so every punctured up-set and down-set has at least two
    minimal or maximal elements.
    """
    width = max(4, round(n ** 0.5))
    levels = []
    k = 0
    while k < n:
        size = min(width, n - k)
        if n - k - size in (1, 2, 3):  # no short last level: fold it into this one
            size = n - k
        levels.append([f"{prefix}{k + i}" for i in range(size)])
        k += size
    pairs = set()
    for lo, hi in zip(levels, levels[1:]):
        for b in hi:
            for a in rng.sample(lo, 2):
                pairs.add((a, b))
        for a in lo:
            while sum((a, b) in pairs for b in hi) < 2:
                pairs.add((a, rng.choice(hi)))
        for _ in range(len(lo)):
            pairs.add((rng.choice(lo), rng.choice(hi)))
    labels = [x for level in levels for x in level]
    return labels, sorted(pairs)


def inflate(labels, covers, count, rng, prefix):
    """Hang ``count`` beat points off random elements: each new point has
    exactly one neighbour, so repeated beat-point removal recovers the
    original poset."""
    labels, covers = list(labels), list(covers)
    for i in range(count):
        anchor = rng.choice(labels)
        new = f"{prefix}{i}"
        covers.append((anchor, new) if rng.random() < 0.5 else (new, anchor))
        labels.append(new)
    return labels, covers


def rename(labels, covers, rng, prefix):
    """The same poset under shuffled fresh names."""
    names = [f"{prefix}{i}" for i in range(len(labels))]
    rng.shuffle(names)
    to = dict(zip(labels, names))
    return [to[x] for x in labels], [(to[a], to[b]) for a, b in covers]


# -- verdict checks ----------------------------------------------------------


def core_check(doc, core_size=None):
    """``core --json``: the trace replays and the core has the known size."""
    base = None if doc.basepoint is None else doc.order.index[doc.basepoint]

    def check(code, out):
        data = json.loads(out)
        return (code == 0 and data["input_size"] == doc.order.n
                and data["core_size"] == len(data["core_elements"])
                and (core_size is None or data["core_size"] == core_size)
                and replay_core_trace(doc.order, data["steps"], data["core_elements"], base))
    return check


def dismantle_check(doc, core_size):
    """``dismantle --json``: stabilized on a beat-free set of core size."""
    base = None if doc.basepoint is None else doc.order.index[doc.basepoint]

    def check(code, out):
        data = json.loads(out)
        final = data["final_elements"]
        return (code == 0 and data["stabilized"] and data["final_size"] == core_size
                and len(final) == core_size
                and doc.order.beat_free(doc.order.mask(final), base))
    return check


def contractible_check(expected):
    def check(code, out):
        return code == (0 if expected else 1) and json.loads(out)["contractible"] is expected
    return check


DOT_NODE = re.compile(r'^  n(\d+) \[label="([^"]*)"(.*)\];$', re.M)
DOT_EDGE = re.compile(r"^  n\d+ -> n\d+;$", re.M)


def dot_check(doc, core_size):
    """``dot --core-trace``: every element drawn once, one edge per cover,
    and exactly the removed elements grayed out."""
    covers = doc.order.cover_count()

    def check(code, out):
        nodes = DOT_NODE.findall(out)
        gray = sum("fillcolor=gray80" in rest for _, _, rest in nodes)
        return (code == 0 and sorted(lab for _, lab, _ in nodes) == sorted(doc.order.labels)
                and len(DOT_EDGE.findall(out)) == covers
                and gray == doc.order.n - core_size)
    return check


def classify_check(degree, step_bound):
    """Frozen goldens: ``degree`` is recomputed by the benchmark, the
    longest simple comparability path was recorded from finspace 0.1.0."""
    def check(code, rec):
        return (rec.comparability_degree == degree and rec.bp_step_bound == step_bound
                and rec.bp_element_bound == step_bound + 1 and not rec.approximate)
    return check


def equivalent_check(p, q, core_size):
    """``homotopy-eq --json`` on an equivalent pair: the returned core
    isomorphism is verified on both inputs."""
    def check(code, out):
        data = json.loads(out)
        return (code == 0 and data["equivalent"] is True
                and data["core_size_1"] == data["core_size_2"] == core_size
                and len(data["iso"]) == core_size
                and iso_certificate_ok(p.order, q.order, data["iso"]))
    return check


def inequivalent_check(size_1, size_2):
    def check(code, out):
        data = json.loads(out)
        return (code == 1 and data["equivalent"] is False and "iso" not in data
                and data["core_size_1"] == size_1 and data["core_size_2"] == size_2)
    return check


def homology_check(doc, betti, torsion):
    """Reduced Betti numbers and torsion (``{degree: value}``, zero
    elsewhere) known by construction; simplex counts recomputed by the
    benchmark."""
    counts = doc.order.chain_counts()
    euler = sum((-1) ** d * c for d, c in enumerate(counts))
    betti = [betti.get(d, 0) for d in range(len(counts))]
    torsion = [torsion.get(d, []) for d in range(len(counts))]

    def check(code, out):
        data = json.loads(out)
        return (code == 0 and data["simplex_counts"] == counts
                and data["euler_characteristic"] == euler
                and data["reduced_betti"] == betti and data["torsion"] == torsion
                and data["acyclic"] is (not any(betti) and not any(torsion)))
    return check


def gamma_check(doc, certified):
    """Every point is "no" except ``certified``, whose links are cones."""
    expected = {lab: "certified_yes" if lab in certified else "no"
                for lab in doc.order.labels}

    def check(code, out):
        return code == 0 and json.loads(out)["verdicts"] == expected
    return check


def function_space_check(map_count, class_count, identity_class):
    def check(code, out):
        data = json.loads(out)
        return (code == 0 and data["map_count"] == map_count
                and data["class_count"] == class_count
                and data["identity_class_size"] == identity_class)
    return check


def fpp_check(doc, expected):
    """True on dismantlable inputs; false comes with a fixed-point-free
    monotone witness, verified here."""
    p = doc.order

    def check(code, out):
        data = json.loads(out)
        if expected:
            return code == 0 and data["fixed_point_property"] is True and "witness" not in data
        w = data["witness"]
        assign = [p.index[w[lab]] for lab in p.labels]
        return (code == 1 and data["fixed_point_property"] is False
                and sorted(w) == sorted(p.labels)
                and all(v != i for i, v in enumerate(assign))
                and p.is_monotone(assign, p))
    return check


def topology_check_check(map_count, opens):
    def check(code, out):
        data = json.loads(out)
        return (code == 0 and data["topologies_equal"] is True
                and data["map_count"] == map_count
                and data["compact_open_opens"] == data["alexandroff_opens"] == opens)
    return check


# -- workloads ----------------------------------------------------------------

# Frozen goldens for classify: (n, generator seed) -> (degree, longest
# simple comparability path in steps), recorded from finspace 0.1.0.  The
# path search is exponential and has no certificate, so these instances
# do not depend on the workload seed.
CLASSIFY_GOLDENS = {
    (10, 7): (9, 9),
    (11, 6): (8, 10),
    (11, 8): (10, 10),
    (12, 4): (11, 11),
    (13, 2): (8, 11),
    (13, 5): (9, 11),
}


def dismantle_ops(corpus, rng, fs):
    gen = fs.generators
    ops = []

    def four_verbs(family, size, doc, core_size):
        f = doc.path
        ops.append(Op("core", family, size, core_check(doc, core_size), ["--json", "core", f]))
        ops.append(Op("dismantle", family, size, dismantle_check(doc, core_size),
                      ["--json", "dismantle", f]))
        ops.append(Op("contractible", family, size, contractible_check(core_size == 1),
                      ["--json", "contractible", f]))
        ops.append(Op("dot", family, size, dot_check(doc, core_size),
                      ["dot", "--core-trace", f]))

    for n in (50, 100, 200):
        four_verbs("chain", n, corpus.write(f"chain{n}", *from_poset(gen.chain(n))), 1)
    for n in (50, 100, 200, 400):
        four_verbs("fence", n, corpus.write(f"fence{n}", *from_poset(gen.fence(n))), 1)
    # The time of a rung varies by a quarter from one random draw to the
    # next, so the draws are fixed per rung; the seed renames the
    # elements and orders the file.
    for n in (100, 200, 400):
        p = gen.random_poset(n, 3 / n, n)
        doc = corpus.write(f"random{n}", *rename(*from_poset(p), rng, "r"))
        four_verbs("random", n, doc, doc.order.core_size())
    for k, legs in enumerate(((3, 5, 7, 9), (3, 4, 6, 8, 10, 12), (3, 4, 5, 6, 8, 9, 11, 12))):
        legs = list(legs)
        rng.shuffle(legs)
        pp = gen.spider(legs)
        labels, covers = from_poset(pp.poset)
        doc = corpus.write(f"spider{k}", labels, covers, pp.poset.labels[pp.basepoint])
        n = doc.order.n
        ops.append(Op("core --pointed", "spider", n, core_check(doc, 1),
                      ["--json", "--pointed", "core", doc.path]))
        ops.append(Op("dismantle --pointed", "spider", n, dismantle_check(doc, 1),
                      ["--json", "--pointed", "dismantle", doc.path]))
        ops.append(Op("contractible", "spider", n, contractible_check(True),
                      ["--json", "contractible", doc.path]))
    for (n, s), (degree, steps) in CLASSIFY_GOLDENS.items():
        p = gen.random_poset(n, 0.3, s)
        labels, covers = from_poset(p)
        own = Order(labels, covers)
        if max(bin(own.up[x] | own.down[x]).count("1") for x in range(n)) != degree:
            raise ValueError(f"classify golden ({n}, {s}) has the wrong degree")
        ops.append(Op("classify", "random", n, classify_check(degree, steps),
                      call=lambda p=p: fs.poset.classify(p)))
    return ops


def homotopy_eq_ops(corpus, rng, fs):
    ops = []

    def pair(family, size, first, second, check):
        ops.append(Op("homotopy-eq", family, size, check,
                      ["--json", "homotopy-eq", first.path, second.path]))

    # A dense ladder, so that the median verdict falls among similar costs.
    # As in dismantle, the random cores and where the beat points hang are
    # fixed per rung; the seed renames the elements and orders the files.
    for n in (25, 35, 50, 70, 100, 140, 200):
        draw = random.Random(f"homotopy-eq/{n}")
        labels, covers = random_core(n, draw, "c")
        core_doc = corpus.write(f"core{n}", *rename(labels, covers, rng, "c"))
        big = corpus.write(f"inflated{n}", *rename(*inflate(labels, covers, n // 4, draw, "z"),
                                                   rng, "v"))
        pair("random-core", n, core_doc, big, equivalent_check(core_doc, big, n))
        pair("random-core-reversed", n, big, core_doc, equivalent_check(big, core_doc, n))
        other = corpus.write(f"other{n}", *rename(*inflate(*random_core(n + 2, draw, "o"),
                                                           n // 4, draw, "z"), rng, "o"))
        pair("size-mismatch", n, big, other, inequivalent_check(n, n + 2))
    # A crown's search time depends on how its copy is named and listed
    # (6 to 70 ms at k = 8), so here the names and order are drawn per rung too.
    for k in range(3, 9):
        labels, covers = crown_union(k)
        doc = corpus.write(f"crown{k}", labels, covers, shuffle=False)
        draw = random.Random(f"homotopy-eq/crown{k}")
        big = corpus.write(f"crown{k}_inflated",
                           *rename(*inflate(labels, covers, 3 * k, draw, "z"), draw, "v"),
                           shuffle=False)
        pair("crown", 2 * k, doc, big, equivalent_check(doc, big, 2 * k))
        bigger = corpus.write(f"crown{k + 1}", *crown_union(k + 1))
        pair("size-mismatch", 2 * k, big, bigger, inequivalent_check(2 * k, 2 * k + 2))
    # Listed in construction order: the exhaustive search is slowest there,
    # and its cost then does not depend on the seed.
    for k, j in ((3, 2), (3, 3), (4, 3), (4, 4)):
        whole = corpus.write(f"crown{k + j}_whole", *crown_union(k + j), shuffle=False)
        split = corpus.write(f"crown{k}u{j}", *crown_union(k, j), shuffle=False)
        m = 2 * (k + j)
        pair("crown-union", m, whole, split, inequivalent_check(m, m))
    return ops


def homology_ops(corpus, rng, fs):
    ops = []

    def both(family, size, doc, betti, torsion, gamma=True, certified=()):
        ops.append(Op("homology", family, size, homology_check(doc, betti, torsion),
                      ["--json", "homology", doc.path]))
        if gamma:
            ops.append(Op("gamma", family, size, gamma_check(doc, set(certified)),
                          ["--json", "gamma", doc.path]))

    for d in range(1, 6):
        both("sphere", 2 * d + 2, corpus.write(f"sphere{d}", *sphere(d)), {d: 1}, {},
             gamma=d < 5)
    for w, depth in ((3, 3), (3, 4), (4, 4), (3, 5)):
        both("layered", w * depth, corpus.write(f"layered{w}x{depth}", *layered(w, depth)),
             {depth - 1: (w - 1) ** depth}, {}, gamma=depth <= 4)
    for w in range(3, 7):
        both("layered", 2 * w, corpus.write(f"layered{w}x2", *layered(w, 2)),
             {1: (w - 1) ** 2}, {})
    for k in range(2, 9):
        both("crown", 2 * k, corpus.write(f"crown{k}", *crown_union(k)), {1: 1}, {})
    rp2 = rp2_face_poset()
    both("rp2", 31, corpus.write("rp2", *rp2), {}, {1: [2]})
    both("rp2-suspension", 33, corpus.write("rp2_suspension", *suspension(*rp2)),
         {}, {2: [2]}, gamma=False)
    for d in (3, 4):
        doc = corpus.write(f"sphere{d}_tails", *rename(*with_tails(*sphere(d), 2), rng, "t"))
        certified = [lab for lab in doc.order.labels
                     if _is_cone_point(doc.order, doc.order.index[lab])]
        both("sphere-tails", doc.order.n, doc, {d: 1}, {}, certified=certified)
    return ops


def _is_cone_point(p, x):
    """The link of x has a largest or a smallest element (the tails and
    the maxima they hang on), so it dismantles to a point.  The other
    points of a sphere with tails have a sphere as the core of their link."""
    link = (p.up[x] | p.down[x]) & ~(1 << x)
    return any(link & ~p.down[t] == 0 or link & ~p.up[t] == 0
               for t in range(p.n) if link >> t & 1)


def function_space_ops(corpus, rng, fs):
    gen = fs.generators
    ops = []

    # Element order sets the enumeration order, so the files keep the
    # generators' order and the seed only renames the elements.
    def write(name, p):
        return corpus.write(name, *rename(*from_poset(p), rng, "e"), shuffle=False)

    point = write("point", gen.chain(1))
    chain5 = write("chain5", gen.chain(5))
    for m in (6, 8, 10, 12):
        target = write(f"chain{m}", gen.chain(m))
        ops.append(Op("function-space", "chain5-chain", chain_maps(5, m),
                      function_space_check(chain_maps(5, m), 1, None),
                      ["--json", "function-space", chain5.path, target.path]))
    for n in (5, 6, 7, 8, 9):
        fence = write(f"fence{n}", gen.fence(n))
        count = fence_self_maps(n)
        ops.append(Op("function-space", "fence-self", count,
                      function_space_check(count, 1, count),
                      ["--json", "function-space", fence.path, fence.path]))
        ops.append(Op("fpp", "fence", n, fpp_check(fence, True), ["--json", "fpp", fence.path]))
    crown = write("crown3", gen.crown(3))
    count = len(monotone_maps(crown.order, crown.order))
    ops.append(Op("function-space", "crown-self", count,
                  function_space_check(count, _class_count(crown.order), 1),
                  ["--json", "function-space", crown.path, crown.path]))
    for k in (3, 4, 5):
        crown = write(f"crownfpp{k}", gen.crown(k))
        ops.append(Op("fpp", "crown", k, fpp_check(crown, False), ["--json", "fpp", crown.path]))
    for n in (4, 5, 6, 7):
        chain = write(f"fppchain{n}", gen.chain(n))
        ops.append(Op("fpp", "chain", n, fpp_check(chain, True), ["--json", "fpp", chain.path]))
    targets = [("antichain", k, gen.antichain(k)) for k in (5, 7, 9, 11)]
    targets += [("chain", k, gen.chain(k)) for k in (4, 8)]
    targets += [("fence", k, gen.fence(k)) for k in (6, 10)]
    for family, k, p in targets:
        target = write(f"t{family}{k}", p)
        ops.append(Op("topology-check", f"point-{family}", k,
                      topology_check_check(k, down_set_count(target.order)),
                      ["--json", "topology-check", point.path, target.path]))
    for k, m in ((2, 3), (2, 4), (3, 3)):
        x, y = write(f"dom{k}_{m}", gen.chain(k)), write(f"cod{k}_{m}", gen.chain(m))
        c = function_poset(x.order, y.order)
        ops.append(Op("topology-check", f"chain{k}-chain", c.n,
                      topology_check_check(c.n, down_set_count(c)),
                      ["--json", "topology-check", x.path, y.path]))
    return ops


def _class_count(p):
    """Components of the comparability graph of C(p, p), by the benchmark's
    own enumeration."""
    c = function_poset(p, p)
    seen = 0
    parts = 0
    for s in range(c.n):
        if seen >> s & 1:
            continue
        parts += 1
        comp = frontier = 1 << s
        while frontier:
            nxt = 0
            for x in range(c.n):
                if frontier >> x & 1:
                    nxt |= c.up[x] | c.down[x]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
    return parts


BUILDERS = {
    "dismantle": dismantle_ops,
    "homotopy-eq": homotopy_eq_ops,
    "homology": homology_ops,
    "function-space": function_space_ops,
}


def build(workload, seed, directory, fs):
    """Write the workload's corpus for ``seed`` into ``directory`` and
    return its operations.  ``fs`` is the imported ``finspace`` package."""
    rng = random.Random(f"{workload}/{seed}")
    return BUILDERS[workload](Corpus(directory, rng), rng, fs)
