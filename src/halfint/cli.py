"""Command-line reports for the library's certified computations.

Four subcommands cover the polytope family, zonotope recognition, flow
congestion, and raw graph utilities.  Output is deterministic byte for
byte: JSON keys are sorted, lists are sorted by construction, and all
numbers are exact rational strings (``--approx`` adds a decimal
rendering next to them for human readers).  One writer, ``_report``,
writes every report in pieces: a JSON object or text lines, one
top-level entry at a time in sorted key order, each value encoded by
``_dumps`` (indented in JSON reports, compact in text reports).  A
routing embedded with ``flow --routing`` is written in its place,
straight from its index paths, each label encoded once and a demand at
a time, so the writer never holds the whole report.

Each request takes one path: parse, refuse, compute, emit once.  Only
the three reports that carry a graph (sparsecut skeleton, zono
recognize, graph product) render as DOT.  ``--format dot`` on any other
report, and ``--in2`` outside graph product, are refused before any
input is read.

Exit codes: 0 on success, 2 for usage or desk-scale guard violations
and for output that cannot be written, 3 when a mathematical
precondition fails (e.g. recognizing a zonotope that is not
half-integral).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import Iterator, Optional

from .flows import Routing, congestion, expansion_lower_bound, routing_of
from .graphs import Graph, cartesian_product, expansion_bruteforce
from .rationals import int_from_digits
from .skeleton import skeleton_graph, skeleton_report
from .sparse_cut import build, counts_to_json, cut_report
from .zonotopes import (
    GeneratorSet,
    NotHalfIntegralError,
    is_half_integral,
    realize_half_integral,
    recognize_graphical,
    zonotope_vertices,
)

SKELETON_MAX_DIMENSION = 7
# The closed-form counts grow to about 0.45 d decimal digits (1,848 at
# d = 4095), well inside Python's default limit of 4,300 digits for
# int-to-string conversion.
CLOSED_FORM_MAX_DIMENSION = 4095
# A product has n1 * n2 vertices; at the cap, two 256-vertex paths give a
# 5.8 MB report in about 0.5 s and 84 MiB (2 vCPUs, Python 3.11).
PRODUCT_MAX_VERTICES = 2**16
# ... and n1 * m2 + n2 * m1 edges: those two paths have 130,560, while two
# 64-vertex complete graphs, far below the vertex cap, would have 258,048.
PRODUCT_MAX_EDGES = 2**17

_RATIONAL = re.compile(r"-?\d+/\d+\Z")

# (subcommand, --report or --action) of the reports that carry a graph,
# the only ones with a DOT rendering
_GRAPH_REPORTS = {("sparsecut", "skeleton"), ("zono", "recognize"), ("graph", "product")}
Report = tuple[dict, Optional[Graph]]  # a JSON payload and its graph, if any


def _approx(text: str) -> str:
    value = Fraction(text)  # round() takes a Fraction's ties to even
    whole, micros = divmod(round(abs(value) * 10**6), 10**6)
    return "%s%d.%06d" % ("-" if value < 0 else "", whole, micros)


def _approx_map(payload, prefix: str = "") -> dict[str, str]:
    """Flattened decimal renderings of every p/q string in ``payload``, a
    routing's weights among them; graph labels, in a routing too, are
    names however they read ("1/0" among them)."""
    if isinstance(payload, Routing):
        demands = enumerate(sorted(payload.paths.items()))
        return {"%s.demands.%d.paths.%d.weight" % (prefix, i, j): _approx(str(w))
                for i, (_, entries) in demands
                for j, (_, w) in enumerate(entries) if w.denominator != 1}
    out: dict[str, str] = {}
    if isinstance(payload, dict):
        labels = ("labels", "subset_labels")
        items = ((k, v) for k, v in payload.items() if k not in labels)
    elif isinstance(payload, list):
        items = ((str(i), v) for i, v in enumerate(payload))
    else:
        return out
    for key, value in items:
        path = "%s.%s" % (prefix, key) if prefix else str(key)
        if isinstance(value, str) and _RATIONAL.match(value):
            out[path] = _approx(value)
        else:
            out.update(_approx_map(value, path))
    return out


def _dumps(value, indent: Optional[str] = None) -> str:
    """``json.dumps(value, sort_keys=True)`` byte for byte, or with a
    newline for ``indent`` ``json.dumps(value, sort_keys=True, indent=2)``,
    with joins (the stdlib encodes indented JSON in pure Python, one
    chunk at a time).  Brackets go on in one join: chained ``+`` would
    copy a multi-megabyte body once per operand."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = None if indent is None else indent + "  "
    pad, sep, close = ("", ", ", "") if inner is None else (inner, "," + inner, indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([
            _string(k) + ": " + (_string(v) if type(v) is str else _dumps(v, inner))
            for k, v in sorted(value.items())
        ])
        return "".join(("{", pad, body, close, "}"))
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = sep.join([
            _string(v) if type(v) is str else _dumps(v, inner) for v in value
        ])
        return "".join(("[", pad, body, close, "]"))
    raise TypeError("cannot render %s as JSON" % type(value).__name__)


def _routing_json(routing: Routing, indent: Optional[str]) -> Iterator[str]:
    """``{"demands": [{"paths": [{"vertices", "weight"}], "source",
    "target"}], "graph"}``, demands sorted, vertices by label, in pieces:
    written from the index paths, each label encoded once, each path and
    each demand one join.  Padding and separators at depth k below
    ``indent`` follow ``_dumps``."""
    compact = indent is None
    pads = [""] * 7 if compact else [indent + "  " * k for k in range(7)]
    seps = [", "] * 7 if compact else ["," + pad for pad in pads]
    labels = [_string(x) for x in routing.graph.labels]
    path_open = '{%s"vertices": [%s' % (pads[5], pads[6])
    path_mid = '%s]%s"weight": "' % (pads[5], seps[5])
    path_close = '"%s}' % pads[4]  # a weight's "p/q" text needs no escapes
    demand_open = '{%s"paths": [%s' % (pads[3], pads[4])
    demand_mid = '%s]%s"source": ' % (pads[3], seps[3])
    target, demand_close = '%s"target": ' % seps[3], "%s}" % pads[2]

    def path_json(path, weight):
        vertices = seps[6].join([labels[v] for v in path])
        return "".join((path_open, vertices, path_mid, str(weight), path_close))

    demands = sorted(routing.paths.items())
    yield "".join(("{", pads[1], '"demands": ', "[" + pads[2] if demands else "[]"))
    for k, ((s, t), entries) in enumerate(demands):
        yield "".join((seps[2] if k else "", demand_open,
                       seps[4].join([path_json(*e) for e in entries]),
                       demand_mid, labels[s], target, labels[t], demand_close))
    graph = _dumps(routing.graph.to_json(), None if compact else pads[1])
    closed = pads[1] + "]" if demands else ""
    yield "".join((closed, seps[1], '"graph": ', graph, pads[0], "}"))


def _report(args, payload: dict, graph: Optional[Graph]) -> Iterator[str]:
    """The report in pieces: one top-level entry at a time, keys sorted,
    and a routing a demand at a time in its place."""
    if args.format == "dot":
        yield graph.to_dot()
        return
    text = args.format == "text"
    if args.approx and not text:
        approx = _approx_map(payload)
        if approx:
            payload = dict(payload, approx=approx)
    indent = None if text else "\n  "
    first, sep, close = ("", "\n", "\n") if text else ("{", ",", "\n}\n")
    for k, key in enumerate(sorted(payload)):
        value = payload[key]
        head = (sep if k else first) + (key if text else indent + _string(key)) + ": "
        if isinstance(value, Routing):
            yield head
            yield from _routing_json(value, indent)
        elif not text:
            yield head + _dumps(value, indent)
        elif isinstance(value, (dict, list)):
            yield head + _dumps(value)
        elif args.approx and isinstance(value, str) and _RATIONAL.match(value):
            yield "%s%s (~%s)" % (head, value, _approx(value))
        else:
            yield head + str(value)
    yield close


def _emit(args, payload: dict, graph: Optional[Graph]) -> None:
    to_stdout = args.out is None or args.out == "-"
    try:
        with nullcontext(sys.stdout) if to_stdout else open(args.out, "w") as fh:
            fh.writelines(_report(args, payload, graph))
            fh.flush()
    except OSError as exc:
        raise ValueError("cannot write output: %s" % exc)


def _load_json(path: Optional[str], what: str):
    """The JSON value at ``path`` (stdin for None or ``-``); an object
    that repeats a key is refused rather than keeping its last value,
    and an integer too long for ``int`` gets a message of its own."""
    malformed = "malformed %s input: " % what

    def unique(pairs):
        data = {}
        for key, value in pairs:
            if key in data:
                raise ValueError(malformed + "key %r repeats" % (key,))
            data[key] = value
        return data

    integer = functools.partial(int_from_digits, what=malformed + "an integer")
    try:
        with nullcontext(sys.stdin) if path is None or path == "-" else open(path) as fh:
            return json.load(fh, object_pairs_hook=unique, parse_int=integer)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError("cannot read input: %s" % exc)


def _load(path: Optional[str], parse, what: str):
    data = _load_json(path, what)
    if not isinstance(data, dict):
        raise ValueError("malformed %s input: the input is not a JSON object" % what)
    try:
        return parse(data)
    except KeyError as exc:
        raise ValueError("malformed %s input: missing key %s" % (what, exc))
    except (TypeError, ValueError) as exc:
        raise ValueError("malformed %s input: %s" % (what, exc))


def _cmd_sparsecut(args) -> Report:
    if args.d > CLOSED_FORM_MAX_DIMENSION:
        raise ValueError(
            "sparse-cut reports are limited to d <= %d" % CLOSED_FORM_MAX_DIMENSION
        )
    if args.report == "counts":
        return counts_to_json(args.d), None
    if args.report == "cut":
        return cut_report(args.d).to_json(), None
    if args.d > SKELETON_MAX_DIMENSION:
        raise ValueError("skeleton reports are limited to d <= %d" % SKELETON_MAX_DIMENSION)
    instance = build(args.d)
    graph = skeleton_graph(instance.vertices)
    return skeleton_report(instance.vertices, graph), graph


def _cmd_zono(args) -> Report:
    if args.action == "realize":
        graph = _load(args.input, Graph.from_json, "graph")
        return realize_half_integral(graph).to_json(), None
    gens = _load(args.input, GeneratorSet.from_json, "generator")
    if args.action == "vertices":
        points = zonotope_vertices(gens)
        return dict(points.to_json(), vertex_count=len(points)), None
    if args.action == "check":
        verdict, translation = is_half_integral(gens)
        translation = [str(t) for t in translation] if verdict else None
        return {"half_integral": verdict, "translation": translation}, None
    decomposition = recognize_graphical(gens)
    return decomposition.to_json(), decomposition.graph


_FACTOR = re.compile(r"(cube|punctured):([0-9]+)\Z")
_INTEGER = re.compile(r"-?[0-9]+\Z")


def _integer(text: str) -> int:
    """Integer option value: ASCII digits with an optional minus sign, as
    in the JSON readers (``int`` also takes other decimal digits and ``_``)."""
    if _INTEGER.match(text) is None:
        raise argparse.ArgumentTypeError("invalid integer %r" % text)
    try:
        return int_from_digits(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError("invalid integer: %s" % exc)


def _parse_factor(token: str) -> tuple[str, int]:
    """A factor's family ("cube", "punctured" or "hexagon") and dimension."""
    if token == "hexagon":
        return token, 0
    match = _FACTOR.match(token)
    if match is None:
        raise ValueError(
            "bad factor %r (expected cube:<d>, punctured:<d>, or hexagon)" % token
        )
    return match.group(1), int_from_digits(match.group(2), "a factor's dimension")


def _cmd_flow(args) -> Report:
    if args.factors is not None and args.family != "product":
        raise ValueError("--factors applies to the product family only")
    if args.family == "product":
        if args.d is not None:
            raise ValueError("the product family takes its dimensions from --factors")
        if not args.factors:
            raise ValueError("the product family requires --factors")
        factors = [_parse_factor(tok) for tok in args.factors.split(",")]
        if len(factors) < 2:
            raise ValueError("the product family needs at least two factors")
    elif args.family == "hexagon":
        if args.d is not None:
            raise ValueError("the hexagon family takes no dimension")
        factors = [("hexagon", 0)]
    else:
        if args.d is None:
            raise ValueError("--d is required for family %r" % args.family)
        factors = [(args.family, args.d)]
    routing = routing_of(factors)
    report = congestion(routing)
    payload = dict(
        report.to_json(),
        family=args.family,
        expansion_lower_bound=str(expansion_lower_bound(report)),
    )
    if args.routing:
        payload["routing"] = routing
    return payload, None


def _cmd_graph(args) -> Report:
    if args.action == "expansion":
        if args.input2 is not None:
            raise ValueError("--in2 applies to the product action only")
        graph = _load(args.input, Graph.from_json, "graph")
        value, witness = expansion_bruteforce(graph)
        return {"expansion": str(value), "witness": witness.to_json(graph)}, None
    if args.input2 is None:
        raise ValueError("the product action requires a second graph (--in2)")
    graph = _load(args.input, Graph.from_json, "graph")
    other = _load(args.input2, Graph.from_json, "graph")
    if graph.n * other.n > PRODUCT_MAX_VERTICES:
        raise ValueError("graph products are limited to %d vertices" % PRODUCT_MAX_VERTICES)
    if graph.n * len(other.edges) + other.n * len(graph.edges) > PRODUCT_MAX_EDGES:
        raise ValueError("graph products are limited to %d edges" % PRODUCT_MAX_EDGES)
    product = cartesian_product(graph, other)
    return product.to_json(), product


def _add_common(sub) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument(
        "--format", choices=("json", "dot", "text"), default="json"
    )
    sub.add_argument(
        "--approx",
        action="store_true",
        help="append decimal renderings of exact rationals",
    )


@functools.cache  # built once per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfint",
        description="exact reports on half-integral polytopes, zonotopes, "
        "flow congestion, and graph expansion",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sc = commands.add_parser("sparsecut", help="low-expansion polytope family")
    sc.add_argument("--d", type=_integer, required=True, help="dimension, 3 mod 4")
    sc.add_argument(
        "--report", choices=("counts", "cut", "skeleton"), default="counts"
    )
    _add_common(sc)
    sc.set_defaults(func=_cmd_sparsecut)

    zn = commands.add_parser("zono", help="half-integral zonotope tools")
    zn.add_argument(
        "--action",
        choices=("vertices", "check", "recognize", "realize"),
        required=True,
    )
    zn.add_argument(
        "--in", dest="input", default=None, help="input JSON path (default stdin)"
    )
    _add_common(zn)
    zn.set_defaults(func=_cmd_zono)

    fl = commands.add_parser("flow", help="routing congestion certificates")
    fl.add_argument(
        "--family",
        choices=("cube", "punctured", "hexagon", "product"),
        required=True,
    )
    fl.add_argument("--d", type=_integer, default=None)
    fl.add_argument(
        "--factors",
        default=None,
        help="comma-separated product factors, e.g. cube:2,hexagon",
    )
    fl.add_argument(
        "--routing", action="store_true", help="embed the full routing JSON"
    )
    _add_common(fl)
    fl.set_defaults(func=_cmd_flow)

    gr = commands.add_parser("graph", help="exact expansion and products")
    gr.add_argument("--action", choices=("expansion", "product"), required=True)
    gr.add_argument(
        "--in", dest="input", default=None, help="graph JSON path (default stdin)"
    )
    gr.add_argument(
        "--in2", dest="input2", default=None, help="second graph JSON path"
    )
    _add_common(gr)
    gr.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    mode = getattr(args, "report", getattr(args, "action", None))
    try:
        if args.approx and args.format == "dot":
            raise ValueError("--approx does not apply to --format dot")
        if args.format == "dot" and (args.command, mode) not in _GRAPH_REPORTS:
            raise ValueError("this report has no DOT rendering")
        _emit(args, *args.func(args))
        return 0
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3 if isinstance(exc, NotHalfIntegralError) else 2


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
