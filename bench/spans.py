"""Spans around calls into halfint's public functions, recorded from outside.

``Tracer.install`` replaces each traced function, in every halfint module
namespace that binds it (``skeleton`` binds its own ``lp_maximize``, the
package binds ``skeleton_graph``, and so on), by a wrapper that records
one span per call: name, start, end, parent span and request id, plus a
few counts read from the call's arguments and result.  Spans stay in
memory until the run ends.  A function that no longer exists is skipped
and every metric that needs it is reported absent, with the reason.

A layer's busy time is the wall time of its spans, counting a span only
once when it nests inside another span of the same metric.  Its self
time is busy time minus the time covered by traced child calls.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

# Module -> public functions wrapped in traced runs.
TRACED = {
    "rationals": ["point_label", "midpoint"],
    "linalg": ["minimal_circuit", "rank"],
    "simplex": ["lp_maximize", "lp_feasible", "prune_candidates", "convex_combination",
                "hull_system"],
    "skeleton": ["skeleton_graph", "hull_vertices", "hull_edges"],
    "sparse_cut": ["build"],
    "graphs": ["expansion_bruteforce", "cartesian_product"],
    "flows": ["bitfix_routing", "punctured_routing", "hexagon_routing", "product_routing",
              "validate", "arc_flows", "congestion"],
    "zonotopes": ["canonicalize", "coordinate_budget", "vertices_with_signs",
                  "zonotope_vertices", "is_half_integral", "recognize_graphical",
                  "realize_half_integral"],
    "cli": ["main"],
}

# Counts read from a call's positional arguments and result.
PROBES: dict[str, Callable] = {
    "simplex.lp_maximize": lambda a, r: {"columns": len(a[0][0]), "rows": len(a[0])},
    "simplex.lp_feasible": lambda a, r: {"columns": len(a[0][0]) if a[0] else 0,
                                         "infeasible": r is None},
    "simplex.prune_candidates": lambda a, r: {"given": len(a[2]), "kept": len(r or ()),
                                              "decided": r is None},
    "skeleton.hull_edges": lambda a, r: {"pairs": len(a[0]) * (len(a[0]) - 1) // 2},
    "zonotopes.vertices_with_signs": lambda a, r: {"tried": 2 ** len(a[0].generators),
                                                   "kept": len(r)},
    "graphs.expansion_bruteforce": lambda a, r: {"masks": 2 ** (a[0].n - 1) - 1},
    "flows.validate": lambda a, r: {"demands": len(a[0].paths)},
}

REQUEST = "request"
ROUTING_BUILDERS = ("flows.bitfix_routing", "flows.punctured_routing",
                    "flows.hexagon_routing", "flows.product_routing")


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, request, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request_id: Optional[int] = None
        self.missing: dict[str, str] = {}
        self.probe_errors: dict[str, str] = {}
        self.output_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == package.__name__
                                            or name.startswith(package.__name__ + "."))]
        for module, names in TRACED.items():
            mod = getattr(package, module, None)
            for name in names:
                qual = "%s.%s" % (module, name)
                original = getattr(mod, name, None)
                if original is None:
                    self.missing[qual] = "halfint.%s has no attribute %r" % (module, name)
                    continue
                wrapper = self._wrap(qual, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._undo.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, original = self._undo.pop()
            setattr(ns, attr, original)

    def _wrap(self, qual: str, fn: Callable) -> Callable:
        probe = PROBES.get(qual)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    span[5] = probe(args, result)
                except Exception as exc:  # the program changed shape; report, keep running
                    self.probe_errors.setdefault(qual, "count probe failed: %r" % exc)
            return result

        return traced

    @contextmanager
    def request(self, request_id: int):
        """Root span of one request; spans inside it carry its id."""
        self.request_id = request_id
        span = [REQUEST, perf_counter(), 0.0, -1, request_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.stack.pop()
            self.request_id = None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "counts"],
                       "spans": self.spans}, fh)


class SpanIndex:
    """Aggregates over a finished tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.output_bytes = tracer.output_bytes
        self.by_name: dict[str, list[int]] = {}
        self.child_time = [0.0] * len(self.spans)
        for i, (name, start, end, parent, request, _) in enumerate(self.spans):
            if parent >= 0:
                self.child_time[parent] += end - start
            # Calls made while building instances belong to set-up, not to
            # the layers' request-time figures.
            if request is not None or name == "sparse_cut.build":
                self.by_name.setdefault(name, []).append(i)

    def _dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def _under(self, i: int, names) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def busy(self, *names: str) -> float:
        return sum(self._dur(i) for n in names for i in self.by_name.get(n, ())
                   if not self._under(i, names))

    def self_time(self, name: str) -> float:
        return sum(self._dur(i) - self.child_time[i] for i in self.by_name.get(name, ()))

    def counts(self, name: str, key: str) -> list:
        return [self.spans[i][5][key] for i in self.by_name.get(name, ())
                if self.spans[i][5] is not None]

    def total(self, name: str, key: str) -> float:
        return sum(self.counts(name, key))

    def p50(self, name: str, key: str) -> float:
        values = self.counts(name, key)
        return statistics.median(values) if values else 0

    def calls_under(self, name: str, ancestor: str) -> int:
        return sum(1 for i in self.by_name.get(name, ()) if self._under(i, (ancestor,)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LPM, LPF, PRUNE = "simplex.lp_maximize", "simplex.lp_feasible", "simplex.prune_candidates"
VWS, EXP, HULL_EDGES = "zonotopes.vertices_with_signs", "graphs.expansion_bruteforce", \
    "skeleton.hull_edges"

# (metric, unit, traced functions it needs, value from a SpanIndex).
# Counts, times and ratios are 0 on a workload that never calls the layer.
LAYER_METRICS: list[tuple[str, str, tuple[str, ...], Callable[[SpanIndex], float]]] = [
    (LPM + ".calls", "count", (LPM,), lambda s: s.calls(LPM)),
    (LPM + ".busy_s", "s", (LPM,), lambda s: s.busy(LPM)),
    (LPM + ".columns_p50", "columns", (LPM,), lambda s: s.p50(LPM, "columns")),
    (LPM + ".rows_p50", "rows", (LPM,), lambda s: s.p50(LPM, "rows")),
    (LPF + ".calls", "count", (LPF,), lambda s: s.calls(LPF)),
    (LPF + ".busy_s", "s", (LPF,), lambda s: s.busy(LPF)),
    (LPF + ".infeasible_ratio", "ratio", (LPF,),
     lambda s: _ratio(s.total(LPF, "infeasible"), s.calls(LPF))),
    (LPF + ".columns_p50", "columns", (LPF,), lambda s: s.p50(LPF, "columns")),
    (PRUNE + ".calls", "count", (PRUNE,), lambda s: s.calls(PRUNE)),
    (PRUNE + ".busy_s", "s", (PRUNE,), lambda s: s.busy(PRUNE)),
    (PRUNE + ".kept_ratio", "ratio", (PRUNE,),
     lambda s: _ratio(s.total(PRUNE, "kept"), s.total(PRUNE, "given"))),
    (PRUNE + ".decided_ratio", "ratio", (PRUNE,),
     lambda s: _ratio(s.total(PRUNE, "decided"), s.calls(PRUNE))),
    ("simplex.convex_combination.busy_s", "s", ("simplex.convex_combination",),
     lambda s: s.busy("simplex.convex_combination")),
    ("simplex.hull_system.busy_s", "s", ("simplex.hull_system",),
     lambda s: s.busy("simplex.hull_system")),
    ("skeleton.skeleton_graph.busy_s", "s", ("skeleton.skeleton_graph",),
     lambda s: s.busy("skeleton.skeleton_graph")),
    ("skeleton.hull_vertices.busy_s", "s", ("skeleton.hull_vertices",),
     lambda s: s.busy("skeleton.hull_vertices")),
    (HULL_EDGES + ".self_s", "s", (HULL_EDGES,), lambda s: s.self_time(HULL_EDGES)),
    ("skeleton.pairs", "count", (HULL_EDGES,), lambda s: s.total(HULL_EDGES, "pairs")),
    ("skeleton.lp_per_pair", "ratio", (HULL_EDGES, LPM),
     lambda s: _ratio(s.calls_under(LPM, HULL_EDGES), s.total(HULL_EDGES, "pairs"))),
    ("rationals.point_label.calls", "count", ("rationals.point_label",),
     lambda s: s.calls("rationals.point_label")),
    ("rationals.point_label.busy_s", "s", ("rationals.point_label",),
     lambda s: s.busy("rationals.point_label")),
    ("rationals.midpoint.calls", "count", ("rationals.midpoint",),
     lambda s: s.calls("rationals.midpoint")),
    ("sparse_cut.build.busy_s", "s", ("sparse_cut.build",),
     lambda s: s.busy("sparse_cut.build")),
    (VWS + ".calls", "count", (VWS,), lambda s: s.calls(VWS)),
    (VWS + ".busy_s", "s", (VWS,), lambda s: s.busy(VWS)),
    ("zonotopes.sign_vectors", "count", (VWS,), lambda s: s.total(VWS, "tried")),
    ("zonotopes.vertex_yield", "ratio", (VWS,),
     lambda s: _ratio(s.total(VWS, "kept"), s.total(VWS, "tried"))),
    ("zonotopes.recognize_graphical.self_s", "s", ("zonotopes.recognize_graphical",),
     lambda s: s.self_time("zonotopes.recognize_graphical")),
    ("zonotopes.coordinate_budget.busy_s", "s", ("zonotopes.coordinate_budget",),
     lambda s: s.busy("zonotopes.coordinate_budget")),
    ("zonotopes.canonicalize.busy_s", "s", ("zonotopes.canonicalize",),
     lambda s: s.busy("zonotopes.canonicalize")),
    ("linalg.minimal_circuit.calls", "count", ("linalg.minimal_circuit",),
     lambda s: s.calls("linalg.minimal_circuit")),
    ("linalg.minimal_circuit.busy_s", "s", ("linalg.minimal_circuit",),
     lambda s: s.busy("linalg.minimal_circuit")),
    ("linalg.rank.busy_s", "s", ("linalg.rank",), lambda s: s.busy("linalg.rank")),
    (EXP + ".calls", "count", (EXP,), lambda s: s.calls(EXP)),
    (EXP + ".busy_s", "s", (EXP,), lambda s: s.busy(EXP)),
    ("graphs.expansion_bruteforce.masks", "count", (EXP,), lambda s: s.total(EXP, "masks")),
    ("graphs.expansion_bruteforce.masks_per_s", "1/s", (EXP,),
     lambda s: _ratio(s.total(EXP, "masks"), s.busy(EXP))),
    ("graphs.cartesian_product.busy_s", "s", ("graphs.cartesian_product",),
     lambda s: s.busy("graphs.cartesian_product")),
    ("flows.routing_build.busy_s", "s", ROUTING_BUILDERS,
     lambda s: s.busy(*ROUTING_BUILDERS)),
    ("flows.validate.busy_s", "s", ("flows.validate",), lambda s: s.busy("flows.validate")),
    ("flows.arc_flows.busy_s", "s", ("flows.arc_flows",), lambda s: s.busy("flows.arc_flows")),
    ("flows.congestion.self_s", "s", ("flows.congestion",),
     lambda s: s.self_time("flows.congestion")),
    ("flows.demands", "count", ("flows.validate",), lambda s: s.total("flows.validate", "demands")),
    ("cli.main.self_s", "s", ("cli.main",), lambda s: s.self_time("cli.main")),
    ("cli.output_bytes", "bytes", ("cli.main",), lambda s: s.output_bytes),
    ("trace.request_s", "s", (), lambda s: s.busy(REQUEST)),
    ("trace.requests", "count", (), lambda s: s.calls(REQUEST)),
]


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric as {"value", "unit"}, or with "absent" and a null value."""
    index = SpanIndex(tracer)
    out = {}
    for name, unit, needs, value in LAYER_METRICS:
        reason = next((tracer.missing.get(n) or tracer.probe_errors.get(n)
                       for n in needs if n in tracer.missing or n in tracer.probe_errors), None)
        if reason is None:
            out[name] = {"value": value(index), "unit": unit}
        else:
            out[name] = {"value": None, "unit": unit, "absent": reason}
    return out
