"""Span recorder for the traced run.

The recorder wraps hallforge callables from outside: class attributes
(methods, `__init__`) are replaced on the class, and module-level functions
are replaced in every loaded hallforge module that holds them, so calls made
through `from .x import f` names are traced too. Each call records a span
(name, parent, start, end) into flat arrays kept in memory; `write` dumps them
at the end. Nothing under src/ is changed.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (layer metric name, module, class or None, attribute, metric suffixes)
FULL = ("calls", "self_s", "total_s")
LEAF = ("calls", "self_s")
TARGETS = (
    ("basis.hall_basis", "hallforge.basis", None, "hall_basis", ("calls", "total_s")),
    ("group.FreeNilpotentGroup", "hallforge.group", "FreeNilpotentGroup", "__init__",
     ("calls", "total_s")),
    ("group.series_from_coords", "hallforge.group", "FreeNilpotentGroup", "series_from_coords", FULL),
    ("group.coords_from_series", "hallforge.group", "FreeNilpotentGroup", "coords_from_series", FULL),
    ("group.to_series", "hallforge.group", "FreeNilpotentGroup", "to_series", ("calls",)),
    ("group.mul_coords", "hallforge.group", "FreeNilpotentGroup", "mul_coords", FULL),
    ("group.pow_coords", "hallforge.group", "FreeNilpotentGroup", "pow_coords", FULL),
    ("group.inv_coords", "hallforge.group", "FreeNilpotentGroup", "inv_coords", FULL),
    ("group.mul", "hallforge.group", "FreeNilpotentGroup", "mul", FULL),
    ("group.pow", "hallforge.group", "FreeNilpotentGroup", "pow", FULL),
    ("group.inv", "hallforge.group", "FreeNilpotentGroup", "inv", FULL),
    ("group.commutator", "hallforge.group", "FreeNilpotentGroup", "commutator", FULL),
    ("series.TruncatedSeries.mul", "hallforge.series", "TruncatedSeries", "__mul__", LEAF),
    ("rings.Poly.mul", "hallforge.rings", "Poly", "__mul__", LEAF),
    ("rings.Poly.add", "hallforge.rings", "Poly", "__add__", LEAF),
    ("rings.Ring.binom", "hallforge.rings", "Ring", "binom", LEAF),
    ("rings.BinomialTable.evaluate", "hallforge.rings", "BinomialTable", "evaluate", FULL),
    ("canonical.to_binomial_basis", "hallforge.canonical", None, "to_binomial_basis", FULL),
    ("canonical.derive_hall_polynomials", "hallforge.canonical", None, "derive_hall_polynomials",
     ("calls", "total_s")),
    ("canonical.derive_structure_polys", "hallforge.canonical", None, "derive_structure_polys",
     ("calls", "total_s")),
    ("canonical.CanonicalPolynomials.mul_coords", "hallforge.canonical", "CanonicalPolynomials",
     "mul_coords", FULL),
    ("canonical.CanonicalPolynomials.pow_coords", "hallforge.canonical", "CanonicalPolynomials",
     "pow_coords", FULL),
    ("canonical.StructurePolynomials.tail_letters", "hallforge.canonical", "StructurePolynomials",
     "tail_letters", FULL),
    ("words.Collector.collect", "hallforge.words", "Collector", "collect", FULL),
    ("deformation.DeformedGroup.mul", "hallforge.deformation", "DeformedGroup", "mul", FULL),
    ("deformation.PolynomialCocycle.value", "hallforge.deformation", "PolynomialCocycle", "value", FULL),
    ("lie.lazard_lie_ring", "hallforge.lie", None, "lazard_lie_ring", FULL),
    ("lie.free_nilpotent_lie", "hallforge.lie", None, "free_nilpotent_lie", FULL),
    ("lie.compare_graded_lie", "hallforge.lie", None, "compare_graded_lie", FULL),
    ("lie.endomorphism_pair_space", "hallforge.lie", None, "endomorphism_pair_space", FULL),
    ("linalg.nullspace", "hallforge.linalg", None, "nullspace", FULL),
    ("linalg.rref", "hallforge.linalg", None, "rref", LEAF),
    ("linalg.invert", "hallforge.linalg", None, "invert", FULL),
    ("linalg.independent_rows", "hallforge.linalg", None, "independent_rows", FULL),
)

# lru-cached functions whose cache_info() the traced run reports
CACHED = (
    ("basis.hall_basis", "hallforge.basis", "hall_basis"),
    ("canonical.derive_hall_polynomials", "hallforge.canonical", "derive_hall_polynomials"),
    ("canonical.derive_structure_polys", "hallforge.canonical", "derive_structure_polys"),
)

ROOT_OP = "bench.op"
ROOT_SETUP = "bench.setup"
_NO_SPANS = {"calls": 0, "self_ns": 0, "total_ns": 0, "timed_self_ns": 0}


class SpanRecorder:
    """Flat in-memory span store; span ids are indices, assigned in start order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.hits: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, hit_probe=None):
        nid = self.name_id(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack,
        )
        hits = self.hits

        def traced(*args, **kwargs):
            if hit_probe is not None and hit_probe(args):
                hits[name] += 1
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            start.append(perf_counter_ns())
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()

        # lru-cached functions keep their cache controls under tracing
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a root-level span (used for setup and each op)."""
        return self._wrap(fn, name)(*args)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "hallforge" or n.startswith("hallforge.")]
        for name, modname, clsname, attr, _suffixes in TARGETS:
            mod = sys.modules[modname]
            probe = _series_cached if name == "group.to_series" else None
            if clsname is not None:
                cls = getattr(mod, clsname)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(orig, name, probe))
                self._undo.append((cls, attr, orig))
            else:
                orig = getattr(mod, attr)
                traced = self._wrap(orig, name, probe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, traced)
                            self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def roots(self) -> list[int]:
        """Root span id of every span (a root is its own root)."""
        out = []
        for sid, p in enumerate(self.parent):
            out.append(sid if p < 0 else out[p])
        return out

    def write(self, path):
        roots = self.roots()
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,root,name,start_ns,end_ns\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{roots[sid]},{self.names[self.name_of[sid]]},"
                    f"{self.start[sid] - t0},{self.end[sid] - t0}\n"
                )


def _series_cached(args) -> bool:
    # to_series(self, g) is a cache hit when g already carries its series
    return getattr(args[1], "_series", None) is not None


def self_times(parent, start, end) -> list:
    """Per span: its duration minus the part of it that child spans cover.

    Children are clipped to the parent's interval and merged, so overlapping
    or out-of-range children are not counted twice.
    """
    children = defaultdict(list)
    for sid, p in enumerate(parent):
        if p >= 0:
            children[p].append(sid)
    out = []
    for sid in range(len(parent)):
        lo, hi = start[sid], end[sid]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(sid, ()), key=lambda k: start[k]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def layer_totals(rec: SpanRecorder) -> dict:
    """name -> {"calls", "self_ns", "total_ns", "timed_self_ns"}.

    total counts only outermost spans of a name, so recursion is not counted
    twice; timed_self counts self time under `bench.op` roots only.
    """
    selfs = self_times(rec.parent, rec.start, rec.end)
    roots = rec.roots()
    op_id = rec._ids.get(ROOT_OP, -2)
    out: dict = defaultdict(lambda: dict(_NO_SPANS))
    for sid in range(len(rec.start)):
        nid = rec.name_of[sid]
        agg = out[rec.names[nid]]
        agg["calls"] += 1
        agg["self_ns"] += selfs[sid]
        if rec.name_of[roots[sid]] == op_id:
            agg["timed_self_ns"] += selfs[sid]
        p = rec.parent[sid]
        while p >= 0 and rec.name_of[p] != nid:
            p = rec.parent[p]
        if p < 0:
            agg["total_ns"] += rec.end[sid] - rec.start[sid]
    return dict(out)


def layer_metrics(rec: SpanRecorder, cache_infos: dict) -> dict:
    """Per-layer metrics (value, unit) from the recorded spans."""
    totals = layer_totals(rec)

    def get(name, key):
        return totals.get(name, _NO_SPANS)[key]

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    metrics = {}
    for name, _mod, _cls, _attr, suffixes in TARGETS:
        for suffix in suffixes:
            if suffix == "calls":
                metrics[f"{name}.calls"] = (get(name, "calls"), "count")
            else:
                metrics[f"{name}.{suffix}"] = (get(name, suffix[:-2] + "_ns") / 1e9, "s")
    metrics["group.to_series.hit_ratio"] = ratio(
        rec.hits["group.to_series"], get("group.to_series", "calls"))
    metrics["words.rewrite_steps_per_collect"] = ratio(
        get("canonical.StructurePolynomials.tail_letters", "calls"),
        get("words.Collector.collect", "calls"))
    metrics["series.TruncatedSeries.mul.timed_share"] = ratio(
        get("series.TruncatedSeries.mul", "timed_self_ns"), get(ROOT_OP, "total_ns"))
    for name, info in cache_infos.items():
        metrics[f"{name}.cache_hits"] = (info.hits, "count")
        metrics[f"{name}.cache_misses"] = (info.misses, "count")
    return metrics
