"""Spans and counts around the package's public functions.

Installed only for the traced passes: every module of the package that
binds one of the functions below (``homotopy`` and ``simplicial`` import
``core`` by name, for example) gets a wrapper that records a span, and
the wrappers are removed again afterwards.  Counts are computed from the
arguments and returned values after the operation's clock has stopped.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _comparable_pairs(args, result):
    return {"poset.comparable_pairs": sum(u.bit_count() for u in result.up) - result.n}


def _core(args, result):
    steps = result.trace.steps
    return {"reduction.removals": len(steps),
            "reduction.trace_cells": sum(len(s.mapping) for s in steps)}


def _standard_sequence(args, result):
    return {"reduction.removals": sum(len(s.removed) for s in result.steps),
            "reduction.trace_cells": sum(len(s.mapping) for s in result.steps)}


def _iso(args, result):
    return {"homotopy.iso_calls": 1}


def _maps(args, result):
    return {"maps.maps": len(result)}


def _order_bits(args, result):
    m = len(args[3])  # FunctionPoset.__init__(self, domain, codomain, assignments)
    return {"maps.order_bits": m * m}


def _simplices(args, result):
    return {"simplicial.simplices": result.total()}


def _matrix_cells(args, result):
    k = args[0]
    counts = [k.count(d) for d in range(k.dimension() + 1)]
    return {"simplicial.matrix_cells": sum(a * b for a, b in zip(counts, counts[1:]))}


def _opens(args, result):
    return {"topology.opens": len(result)}


# (module, attribute, span name, counts from (args, result))
TARGETS = [
    ("finspace.cli", "load_document", "cli.parse", None),
    ("finspace.poset", "Poset.from_covers", "poset.build", _comparable_pairs),
    ("finspace.poset", "Poset.restrict", "poset.restrict", None),
    ("finspace.poset", "classify", "poset.classify", None),
    ("finspace.reduction", "core", "reduction.core", _core),
    ("finspace.reduction", "standard_sequence", "reduction.stdseq", _standard_sequence),
    ("finspace.homotopy", "are_isomorphic", "homotopy.iso", _iso),
    ("finspace.maps", "enumerate_monotone", "maps.enumerate", _maps),
    ("finspace.maps", "FunctionPoset.__init__", "maps.order_build", _order_bits),
    ("finspace.maps", "homotopy_classes", "maps.classes", None),
    ("finspace.maps", "has_fpp", "maps.fpp", None),
    ("finspace.simplicial", "order_complex", "simplicial.complex", _simplices),
    ("finspace.simplicial", "homology", "simplicial.homology", _matrix_cells),
    ("finspace.simplicial", "is_gamma_point", "simplicial.gamma", None),
    ("finspace.topology", "compact_open_subbasis", "topology.subbasis", None),
    ("finspace.topology", "generate_topology", "topology.generate", _opens),
    ("finspace.topology", "alexandroff_topology", "topology.alexandroff", _opens),
]

# metric -> (span name, "total" or "self")
TIMES = {
    "cli.parse_s": ("cli.parse", "total"),
    "cli.self_s": ("op", "self"),
    "poset.build_s": ("poset.build", "total"),
    "poset.restrict_s": ("poset.restrict", "total"),
    "poset.classify_s": ("poset.classify", "total"),
    "reduction.core_s": ("reduction.core", "total"),
    "reduction.stdseq_s": ("reduction.stdseq", "total"),
    "homotopy.iso_s": ("homotopy.iso", "total"),
    "maps.enumerate_s": ("maps.enumerate", "self"),
    "maps.order_build_s": ("maps.order_build", "total"),
    "maps.classes_s": ("maps.classes", "total"),
    "maps.fpp_s": ("maps.fpp", "total"),
    "simplicial.complex_s": ("simplicial.complex", "total"),
    "simplicial.snf_s": ("simplicial.homology", "self"),
    "simplicial.gamma_s": ("simplicial.gamma", "total"),
    "topology.subbasis_s": ("topology.subbasis", "total"),
    "topology.generate_s": ("topology.generate", "total"),
    "topology.alexandroff_s": ("topology.alexandroff", "total"),
}

COUNTS = ("poset.comparable_pairs", "reduction.removals", "reduction.trace_cells",
          "homotopy.iso_calls", "maps.maps", "maps.order_bits", "simplicial.simplices",
          "simplicial.matrix_cells", "topology.opens")


class Tracer:
    """Records spans ``[op_id, name, start, end, parent]`` in memory.

    The benchmark opens one root span named ``op`` per operation with
    ``begin``/``end``; wrapped functions nest under it.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.pending = []
        self.counts = Counter()
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([self.op_id, name, perf_counter(), None, parent])

    def _close(self):
        self.spans[self.stack.pop()][3] = perf_counter()

    def begin(self, op_id):
        self.op_id = op_id
        self._open("op")

    def end(self):
        self._close()
        for counter, args, result in self.pending:
            self.counts.update(counter(args, result))
        self.pending.clear()

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                self.pending.append((counter, args, result))
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every binding of the target functions in the package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "finspace" or name.startswith("finspace."))]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__, counter))
                else:
                    wrapped = self.wrap(name, original, counter)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self.wrap(name, fn, counter)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, binding, fn))
                        setattr(module, binding, wrapped)

    def uninstall(self):
        for owner, binding, original in reversed(self._patches):
            setattr(owner, binding, original)
        self._patches.clear()

    # -- per-layer figures -------------------------------------------------

    def layer_times(self):
        """Seconds per metric in TIMES over all recorded spans."""
        total = defaultdict(float)
        child = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (_, name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return {metric: (total if kind == "total" else own)[name]
                for metric, (name, kind) in TIMES.items()}

    def reset(self):
        self.spans = []
        self.counts = Counter()
