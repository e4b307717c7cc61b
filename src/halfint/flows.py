"""All-pairs flow routings and exact congestion certificates.

A routing sends one unit of flow between every ordered pair of distinct
vertices, split over explicitly listed paths with positive rational
weights summing to one.  Its congestion is the maximum total flow over
any directed arc, divided by the vertex count.  A routing of congestion
rho certifies edge expansion at least 1/(2 rho): each boundary edge of
a cut {S, V-S} carries at most 2 rho n flow across, while the demand
separated by the cut is at least |S| (n - |S|) >= |S| n / 2.

Validation and arc flows read one flat view of the routing: demand
endpoints and path vertices through ``operator.index``, weights through
``as_integer_ratio()`` and tallied in integers over their least common
denominator; only the reported per-arc flows become fractions again.
Completeness is read from the endpoint array: n (n - 1) keys in range
that fill every pair.  Only a routing the view does not confirm is walked
in Python, by the same rules in sorted demand order, to name its first
violation.

Three all-pairs constructions are a graph plus a rule for one source:
the hypercube Q_d with bit-fixing; Q_d minus two antipodal vertices (the
cube's vertex v becomes v - 1) with bit-fixing patched around them; and
the 6-cycle with each demand split evenly over its shortest paths.  The
bit-fixing paths of a source come from one prefix table.  The
product construction routes each pair of factor demands through the
vertex keeping the source's first coordinate and the target's second,
each factor vertex routing to itself along a one-vertex path; no product
may have more vertices than the largest cube routed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm, prod
from operator import and_, index, itemgetter, or_
from typing import Callable, Optional

import numpy as np

from .graphs import Graph, cartesian_product, cycle_graph, hypercube, induced_subgraph
from .rationals import ONE

Path = tuple[int, ...]
WeightedPath = tuple[Path, Fraction]


@dataclass(frozen=True)
class Routing:
    """``paths[(s, t)]`` lists the (vertex-index path, weight) pairs of
    demand s -> t, for every ordered pair of distinct vertices of a valid
    routing.  Its JSON form is written by the CLI (``cli._routing_json``)."""

    graph: Graph
    paths: dict[tuple[int, int], list[WeightedPath]]


def _violation(graph: Graph, s: int, t: int, entries: list[WeightedPath]) -> Optional[str]:
    """First violation within demand (s, t), in path order, read by the flat
    view's rules: weights through ``as_integer_ratio()``, summed exactly,
    and vertices through ``operator.index``."""
    if not entries:
        return "demand (%d, %d) has no paths" % (s, t)
    total = Fraction(0)
    for idx, (path, weight) in enumerate(entries):
        try:
            num, den = weight.as_integer_ratio()
        except (AttributeError, ValueError, OverflowError):
            return "demand (%d, %d) path %d weight %r has no integer ratio" % (s, t, idx, weight)
        if num <= 0:
            return "demand (%d, %d) path %d has non-positive weight" % (s, t, idx)
        total += Fraction(num, den)
        bad = [v for v in path if not hasattr(type(v), "__index__")]  # what index takes
        if bad:
            return "demand (%d, %d) path %d has non-integer vertex %r" % (s, t, idx, bad[0])
        path = tuple(map(index, path))
        if len(path) < 2 or path[0] != s or path[-1] != t:
            return "demand (%d, %d) path %d has wrong endpoints" % (s, t, idx)
        if len(set(path)) != len(path):
            return "demand (%d, %d) path %d repeats a vertex" % (s, t, idx)
        for a, b in zip(path, path[1:]):
            if not graph.has_edge(a, b):
                return "demand (%d, %d) path %d uses a non-edge (%d, %d)" % (s, t, idx, a, b)
    if total != 1:
        return "demand (%d, %d) weights sum to %s, not 1" % (s, t, total)
    return None


def _flat(paths: dict) -> tuple:
    """``paths`` in dict order: path counts, path lengths and weight classes,
    the weights' common denominator and each class's weight times it, every
    vertex (TypeError unless an integer), and which steps stay in a path."""
    entries = list(chain.from_iterable(paths.values()))
    walks, weights = list(map(itemgetter(0), entries)), list(map(itemgetter(1), entries))
    lengths = np.fromiter(map(len, walks), np.intp, len(walks))
    vertices = np.fromiter(map(index, chain.from_iterable(walks)), np.int64, lengths.sum())
    # one shared weight object, as in Q_d (count would call __eq__ on each of a
    # product's distinct weight objects)
    if not weights or weights[-1] is weights[0] and weights.count(weights[0]) == len(weights):
        ratios, classes = [w.as_integer_ratio() for w in weights[:1]], np.zeros_like(lengths)
    else:
        ids = list(map(id, weights))
        found: dict[tuple[int, int], int] = {}
        position = {key: found.setdefault(w.as_integer_ratio(), len(found))
                    for key, w in dict(zip(ids, weights)).items()}
        ratios, classes = list(found), np.fromiter(map(position.__getitem__, ids), np.intp)
    scale = lcm(*(den for _, den in ratios))
    scaled = np.array([num * (scale // den) for num, den in ratios], dtype=object)
    counts = np.fromiter(map(len, paths.values()), np.intp, len(paths))
    owner = np.repeat(np.arange(len(walks)), lengths)
    return counts, lengths, scale, scaled, classes, vertices, owner[:-1] == owner[1:]


def _confirmed(paths: dict, graph: Graph) -> bool:
    """Whether the flat view shows ``paths`` valid on ``graph``: n (n - 1)
    demand keys that fill every pair, and valid paths and weights; False
    leaves the verdict to the walk in ``validate``."""
    n = graph.n
    if not paths or len(paths) != n * (n - 1):
        return False
    try:
        ends = np.fromiter(map(index, chain.from_iterable(paths)), np.int64, 2 * len(paths))
        counts, lengths, scale, scaled, classes, vertices, within = _flat(paths)
    except (AttributeError, TypeError, ValueError, OverflowError):
        return False
    # in range before any fancy indexing: numpy would wrap -1 around
    if not (counts.all() and lengths.min() > 1 and min(vertices.min(), ends.min()) >= 0
            and max(vertices.max(), ends.max()) < n):
        return False
    ends = ends.reshape(-1, 2)
    demanded = np.eye(n, dtype=bool)  # n (n - 1) keys fill the rest only if all distinct
    demanded[ends[:, 0], ends[:, 1]] = True
    ends, last = ends[np.repeat(np.arange(len(paths)), counts)], np.cumsum(lengths) - 1
    adjacent = np.zeros((n, n), bool)
    tails, heads = np.array(list(graph.edges), np.intp).reshape(-1, 2).T
    adjacent[tails, heads] = adjacent[heads, tails] = True
    if not (demanded.all() and (vertices[last - lengths + 1] == ends[:, 0]).all()
            and (vertices[last] == ends[:, 1]).all()
            and adjacent[vertices[:-1][within], vertices[1:][within]].all()):
        return False
    keys = np.repeat(np.arange(len(lengths)) * n, lengths)  # path index * n + vertex
    keys += vertices
    keys.sort()
    if (keys[1:] == keys[:-1]).any():  # a repeated vertex
        return False
    if list(scaled) == [scale]:  # every weight is 1
        return bool(counts.max() == 1)
    sums = np.add.reduceat(scaled[classes], np.cumsum(counts) - counts)
    return min(scaled) > 0 and bool((sums == scale).all())


def _demand(key) -> Optional[tuple[int, int]]:
    """``key`` read as the flat view reads a demand, a pair through ``operator.index``."""
    try:
        s, t = key
        return index(s), index(t)
    except (TypeError, ValueError):
        return None


def validate(routing: Routing) -> Optional[str]:
    """First violation of the routing contract, in sorted demand order,
    or None when valid."""
    g, paths = routing.graph, routing.paths
    if _confirmed(paths, g):
        return None
    expected = {(s, t) for s in range(g.n) for t in range(g.n) if s != t}
    found = set(map(_demand, paths))
    missing, extra = expected - found, found - expected - {None}
    if missing:
        return "missing demand (%d, %d)" % min(missing)
    if extra or None in found:  # an int pair first, then other keys in repr order
        key = min(extra) if extra else min((k for k in paths if _demand(k) is None), key=repr)
        return "unexpected demand %r" % (key,)
    problems = (_violation(g, s, t, paths[s, t]) for s, t in sorted(paths))
    return next(filter(None, problems), None)


def arc_flows(routing: Routing) -> dict[tuple[int, int], Fraction]:
    """Total flow on each directed arc (unvalidated accumulation; path
    vertices must be 64-bit integers): arc steps counted per weight class
    in one ``bincount``, tallied exactly over the common denominator."""
    _, lengths, scale, scaled, classes, vertices, within = _flat(routing.paths)
    names = np.arange(routing.graph.n)
    if vertices.size and (vertices.min() < 0 or vertices.max() >= len(names)):
        names, vertices = np.unique(vertices, return_inverse=True)  # an invalid routing
    m = len(names)
    codes = ((np.repeat(classes, lengths) * m + vertices) * m)[:-1] + vertices[1:]
    counts = np.bincount(codes[within], minlength=len(scaled) * m * m)
    counts = counts.reshape(len(scaled), m * m)
    used = np.flatnonzero(counts.any(axis=0))
    totals = counts[:, used].T.astype(object).dot(scaled)  # Python ints
    names = names.tolist()
    return {(names[code // m], names[code % m]): Fraction(total, scale)
            for code, total in zip(used.tolist(), totals)}


@dataclass(frozen=True)
class CongestionReport:
    vertex_count: int
    max_arc_flow: Fraction
    congestion: Fraction
    argmax_arc: Optional[tuple[str, str]]

    def to_json(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "max_arc_flow": str(self.max_arc_flow),
            "congestion": str(self.congestion),
            "argmax_arc": list(self.argmax_arc) if self.argmax_arc else None,
        }


def congestion(routing: Routing) -> CongestionReport:
    """Exact congestion of a valid routing.

    The reported arc is the flow maximizer, ties broken by the
    lexicographically smallest (tail label, head label) pair.
    """
    problem = validate(routing)
    if problem is not None:
        raise ValueError("invalid routing: " + problem)
    g = routing.graph
    flows = arc_flows(routing)
    if not flows:
        return CongestionReport(g.n, Fraction(0), Fraction(0), None)
    best_flow = max(flows.values())
    labels = g.labels
    best_arc = min(
        (labels[a], labels[b]) for (a, b), flow in flows.items() if flow == best_flow
    )
    return CongestionReport(
        vertex_count=g.n,
        max_arc_flow=best_flow,
        congestion=best_flow / g.n,
        argmax_arc=best_arc,
    )


def expansion_lower_bound(report: CongestionReport) -> Fraction:
    """Edge expansion is at least 1/(2 rho) for congestion rho."""
    if report.congestion <= 0:
        raise ValueError("lower bound requires positive congestion")
    return 1 / (2 * report.congestion)


MAX_ROUTING_DIMENSION = 10

# Routing and smallest dimension of each family: Q_d, and Q_d minus two vertices.
_LOWEST_DIMENSION = {"cube": ("bitfix", 1), "punctured": ("punctured", 3)}


def check_dimension(family: str, d: int) -> None:
    """ValueError unless ``family`` ("cube" or "punctured") is routed in dimension d."""
    routing, low = _LOWEST_DIMENSION[family]
    if not low <= d <= MAX_ROUTING_DIMENSION:
        raise ValueError(
            "%s routing supported for %d <= d <= %d"
            % (routing, low, MAX_ROUTING_DIMENSION)
        )


def vertex_count(family: str, d: int) -> int:
    """Vertex count of a routing family ("cube", "punctured" or "hexagon")
    in dimension d, read without building it; a dimension above
    ``MAX_ROUTING_DIMENSION`` counts as more than any product may have."""
    if family == "hexagon":
        return 6
    return 2 ** min(d, MAX_ROUTING_DIMENSION + 1) - (2 if family == "punctured" else 0)


def _check_product_size(vertices: int) -> None:
    if vertices > 2**MAX_ROUTING_DIMENSION:
        raise ValueError("product routings are limited to %d vertices, the size of cube:%d"
                         % (2**MAX_ROUTING_DIMENSION, MAX_ROUTING_DIMENSION))


def _all_pairs(graph: Graph, rule: Callable[[int], list[list[WeightedPath]]]) -> Routing:
    """Routing of ``graph`` that sends each ordered pair s != t along
    ``rule(s)[t]``, a list of (path, weight) pairs, in ascending order."""
    n = graph.n
    rows = enumerate(map(rule, range(n)))
    return Routing(graph, {(s, t): row[t] for s, row in rows for t in range(n) if t != s})


def _prefix_table(start: int, d: int, shift: int = 0) -> list[Path]:
    """``table[x]``: the bit-fixing walk in Q_d from ``start`` to ``start ^ x``,
    less ``shift`` at each vertex.  It fixes coordinate k (bit d-1-k) left to
    right, so it extends the walk to x with its lowest bit cleared."""
    table = [(start - shift,)]
    for x in range(1, 1 << d):
        table.append(table[x & (x - 1)] + ((start ^ x) - shift,))
    return table


def bitfix_routing(d: int) -> Routing:
    """All-pairs bit-fixing routing on Q_d; every arc carries 2^(d-1)."""
    check_dimension("cube", d)

    def rule(s: int) -> list[list[WeightedPath]]:
        table = _prefix_table(s, d)
        return [[(table[s ^ t], ONE)] for t in range(1 << d)]

    return _all_pairs(hypercube(d), rule)


def punctured_routing(d: int) -> Routing:
    """Bit-fixing routing on Q_d minus the origin and the all-ones vertex.

    The kept vertices are 1 .. 2^d - 2 in order, so Q_d's vertex v is
    vertex v - 1 here.  Bit-fixing paths whose interior hits a removed
    vertex are patched locally: a path entering the origin from e_i and
    leaving to e_j is sent through e_i + e_j instead, and symmetrically
    at the all-ones vertex through the vertex missing both flipped
    coordinates.  For d >= 4 the two patched arc families are disjoint
    and every arc flow stays at or below 3 * 2^(d-2); d = 3 is allowed
    but the families overlap, so only the generic congestion guarantee
    applies.
    """
    check_dimension("punctured", d)
    allones = (1 << d) - 1

    def rule(s: int) -> list[list[WeightedPath]]:
        start = s + 1
        table = _prefix_table(start, d, 1)
        # a walk through the removed vertex start ^ r extends the walk to r, which
        # ends there at position popcount(r): x = r + 1 .. r + lowbit(r) - 1
        for r, patch in ((start, or_), (allones ^ start, and_)):
            pos = bin(r).count("1")
            for x in range(r + 1, r + (r & -r)):
                path = table[x]
                vertex = patch(path[pos - 1] + 1, path[pos + 1] + 1) - 1
                table[x] = path[:pos] + (vertex,) + path[pos + 1:]
        return [[(table[start ^ (t + 1)], ONE)] for t in range(allones - 1)]

    return _all_pairs(induced_subgraph(hypercube(d), range(1, allones)), rule)


def hexagon_routing() -> Routing:
    """Shortest-path routing on the 6-cycle.

    Each demand splits evenly over its shortest paths, the clockwise
    (index-increasing) one first: a pair at distance one or two has one,
    an antipodal pair two of weight 1/2.  Every arc then carries 3 + 3/2
    flow, so the congestion is 3/4.
    """

    def split(s: int, t: int) -> list[WeightedPath]:
        walks = [tuple((s + step * k) % 6 for k in range(step * (t - s) % 6 + 1))
                 for step in (1, -1)]
        shortest = [walk for walk in walks if len(walk) == min(map(len, walks))]
        return [(walk, ONE / len(shortest)) for walk in shortest]

    return _all_pairs(cycle_graph(6), lambda s: [split(s, t) for t in range(6)])


def product_routing(rg: Routing, rh: Routing) -> Routing:
    """Routing on the cartesian product from routings of the factors.

    A pair (u1, v1) -> (u2, v2) is routed through the intermediate
    vertex (u1, v2): first the second factor's paths inside copy u1,
    then the first factor's paths inside copy v2, with product weights.
    Each factor vertex also routes to itself along the one-vertex path
    ``(u,)`` with weight 1, so a same-row or same-column pair reuses the
    other factor's paths inside its copy.  The congestion of the result
    never exceeds the larger factor congestion.  A product too large
    for ``routing_of`` is refused before it is built.
    """
    g, h = rg.graph, rh.graph
    nh = h.n
    _check_product_size(g.n * nh)
    gpaths = {(u, u): [((u,), ONE)] for u in range(g.n)} | rg.paths
    hpaths = {(v, v): [((v,), ONE)] for v in range(nh)} | rh.paths
    paths: dict[tuple[int, int], list[WeightedPath]] = {}
    for (u1, u2), gentries in gpaths.items():
        for (v1, v2), hentries in hpaths.items():
            if u1 == u2 and v1 == v2:
                continue
            combined = []
            for hpath, hw in hentries:
                first_leg = tuple(u1 * nh + x for x in hpath)
                for gpath, gw in gentries:
                    second_leg = tuple(y * nh + v2 for y in gpath[1:])
                    combined.append((first_leg + second_leg, hw * gw))
            paths[(u1 * nh + v1, u2 * nh + v2)] = combined
    return Routing(cartesian_product(g, h), paths)


def routing_of(factors: list[tuple[str, int]]) -> Routing:
    """Routing of the product of ``factors``, one or more (family, d) pairs
    with an integer d ("hexagon" ignores it).  Nothing is built until every
    factor is well formed, the product's size, for two or more factors,
    and then every factor's dimension pass their checks."""
    if not factors:
        raise ValueError("a routing needs at least one factor")
    for factor in factors:
        family, d = factor
        if family not in ("hexagon", *_LOWEST_DIMENSION) or type(d) is not int:
            raise ValueError("bad factor %r (expected a family cube, punctured or "
                             "hexagon and an integer d)" % (factor,))
    if len(factors) > 1:
        _check_product_size(prod(vertex_count(*factor) for factor in factors))
    for family, d in factors:
        if family != "hexagon":
            check_dimension(family, d)
    return reduce(product_routing, [
        hexagon_routing() if family == "hexagon"
        else bitfix_routing(d) if family == "cube" else punctured_routing(d)
        for family, d in factors])
