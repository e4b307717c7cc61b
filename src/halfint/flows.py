"""All-pairs flow routings and exact congestion certificates.

A routing sends one unit of flow between every ordered pair of distinct
vertices, split over explicitly listed paths with positive rational
weights summing to one.  Its congestion is the maximum total flow over
any directed arc, divided by the vertex count.  A routing of congestion
rho certifies edge expansion at least 1/(2 rho): each boundary edge of
a cut {S, V-S} carries at most 2 rho n flow across, while the demand
separated by the cut is at least |S| (n - |S|) >= |S| n / 2.

Validation and arc flows are tallied in integers over one common
denominator, the least common multiple of the weight denominators; only
the reported per-arc flows are turned back into fractions.  A valid
routing is confirmed in one walk over its demands, in any order, and one
set test on the arcs of all its paths; the demands' completeness is read
from their count and index ranges.  Only an invalid routing is walked
again, in sorted demand order, to name its first violation.

Three all-pairs constructions are a graph plus a rule for one demand:
the hypercube Q_d with bit-fixing; Q_d minus two antipodal vertices (the
cube's vertex v becomes v - 1) with bit-fixing patched around them; and
the 6-cycle with each demand split evenly over its shortest paths.  The
product construction routes each pair of factor demands through the
vertex keeping the source's first coordinate and the target's second,
each factor vertex routing to itself along a one-vertex path.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Callable, Optional

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


def _violation(
    s: int, t: int, entries: list[WeightedPath], scale: int, arcs: Optional[set] = None
) -> Optional[str]:
    """First violation within demand (s, t), in path order; arcs are
    checked only when a set of them is given."""
    if not entries:
        return "demand (%d, %d) has no paths" % (s, t)
    total = 0
    for idx, (path, weight) in enumerate(entries):
        num, den = weight.as_integer_ratio()
        scaled = num * (scale // den)
        if scaled <= 0:
            return "demand (%d, %d) path %d has non-positive weight" % (s, t, idx)
        total += scaled
        if len(path) < 2 or path[0] != s or path[-1] != t:
            return "demand (%d, %d) path %d has wrong endpoints" % (s, t, idx)
        if len(set(path)) != len(path):
            return "demand (%d, %d) path %d repeats a vertex" % (s, t, idx)
        if arcs is not None and not arcs.issuperset(zip(path, path[1:])):
            a, b = next(arc for arc in zip(path, path[1:]) if arc not in arcs)
            return "demand (%d, %d) path %d uses a non-edge (%d, %d)" % (
                s, t, idx, a, b
            )
    if total != scale:
        return "demand (%d, %d) weights sum to %s, not 1" % (
            s, t, Fraction(total, scale)
        )
    return None


def validate(routing: Routing) -> Optional[str]:
    """First violation of the routing contract, in sorted demand order,
    or None when valid."""
    g = routing.graph
    n = g.n
    paths = routing.paths
    # the demands are distinct pairs: n (n - 1) of them in range are all of them
    vertices = range(n)
    if len(paths) != n * (n - 1) or not all(
        s in vertices and t in vertices and s != t for s, t in paths
    ):
        expected = {(s, t) for s in range(n) for t in range(n) if s != t}
        missing = expected - paths.keys()
        if missing:
            return "missing demand (%d, %d)" % min(missing)
        return "unexpected demand (%d, %d)" % min(paths.keys() - expected)
    scale = lcm(*{w.denominator for entries in paths.values() for _, w in entries})
    arcs = set(g.edges)
    arcs.update([(b, a) for a, b in g.edges])
    steps = chain.from_iterable(
        zip(p, p[1:]) for entries in paths.values() for p, _ in entries
    )
    if arcs.issuperset(steps) and not any(
        _violation(s, t, entries, scale) for (s, t), entries in paths.items()
    ):
        return None
    for (s, t) in sorted(paths):
        problem = _violation(s, t, paths[(s, t)], scale, arcs)
        if problem is not None:
            return problem


def arc_flows(routing: Routing) -> dict[tuple[int, int], Fraction]:
    """Total flow on each directed arc (unvalidated accumulation).

    Paths are grouped by weight, and each group's arc steps are counted
    at once; the common denominator is taken over the distinct weights.
    """
    groups: dict[tuple[int, int], list[Path]] = defaultdict(list)
    for entries in routing.paths.values():
        for path, weight in entries:
            groups[weight.as_integer_ratio()].append(path)
    scale = lcm(*(den for _, den in groups))
    tally: dict[tuple[int, int], int] = {}
    for (num, den), paths in groups.items():
        scaled = num * (scale // den)
        counts = Counter(chain.from_iterable(zip(p, p[1:]) for p in paths))
        for arc, count in counts.items():
            tally[arc] = tally.get(arc, 0) + count * scaled
    return {arc: Fraction(total, scale) for arc, total in tally.items()}


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


def _bitfix_path(s: int, t: int, d: int) -> Path:
    """Bit-fixing walk from s to t, correcting coordinates left to right.

    Coordinate k is the k-th label character, i.e. bit d-1-k of the
    vertex index.
    """
    path = [s]
    cur = s
    for k in range(d):
        bit = 1 << (d - 1 - k)
        if (cur ^ t) & bit:
            cur ^= bit
            path.append(cur)
    return tuple(path)


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


def _all_pairs(graph: Graph, rule: Callable[[int, int], list[WeightedPath]]) -> Routing:
    """Routing of ``graph`` that sends each ordered pair s != t along
    ``rule(s, t)``, a list of (path, weight) pairs, in ascending order."""
    n = graph.n
    return Routing(
        graph, {(s, t): rule(s, t) for s in range(n) for t in range(n) if s != t}
    )


def bitfix_routing(d: int) -> Routing:
    """All-pairs bit-fixing routing on Q_d; every arc carries 2^(d-1)."""
    check_dimension("cube", d)
    return _all_pairs(hypercube(d), lambda s, t: [(_bitfix_path(s, t, d), ONE)])


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

    def rule(s: int, t: int) -> list[WeightedPath]:
        path = list(_bitfix_path(s + 1, t + 1, d))
        for pos in range(1, len(path) - 1):
            if path[pos] == 0:
                path[pos] = path[pos - 1] | path[pos + 1]
            elif path[pos] == allones:
                path[pos] = path[pos - 1] & path[pos + 1]
        return [(tuple(v - 1 for v in path), ONE)]

    return _all_pairs(induced_subgraph(hypercube(d), range(1, allones)), rule)


def hexagon_routing() -> Routing:
    """Shortest-path routing on the 6-cycle.

    Each demand splits evenly over its shortest paths, the clockwise
    (index-increasing) one first: a pair at distance one or two has one,
    an antipodal pair two of weight 1/2.  Every arc then carries 3 + 3/2
    flow, so the congestion is 3/4.
    """

    def rule(s: int, t: int) -> list[WeightedPath]:
        walks = [tuple((s + step * k) % 6 for k in range(step * (t - s) % 6 + 1))
                 for step in (1, -1)]
        shortest = [walk for walk in walks if len(walk) == min(map(len, walks))]
        return [(walk, ONE / len(shortest)) for walk in shortest]

    return _all_pairs(cycle_graph(6), rule)


def product_routing(rg: Routing, rh: Routing) -> Routing:
    """Routing on the cartesian product from routings of the factors.

    A pair (u1, v1) -> (u2, v2) is routed through the intermediate
    vertex (u1, v2): first the second factor's paths inside copy u1,
    then the first factor's paths inside copy v2, with product weights.
    Each factor vertex also routes to itself along the one-vertex path
    ``(u,)`` with weight 1, so a same-row or same-column pair reuses the
    other factor's paths inside its copy.  The congestion of the result
    never exceeds the larger factor congestion.
    """
    g, h = rg.graph, rh.graph
    nh = h.n
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
