"""Vertex and edge structure of polytopes given as point sets.

Everything is decided by exact linear programs, so the computed
skeleton is a certificate, not an approximation.  Each oracle scales
the points once, with ``rationals.integer_rows(points, factor=2)``, and
works on integer rows from then on; the scaling changes no convex
relation between the points and makes every midpoint of two of them
integral.  A point is a hull vertex iff it lies outside the convex hull
of the remaining points.  Two vertices are adjacent iff every convex
representation of their midpoint is supported on the pair alone; the
weaker test that merely asks whether the midpoint avoids the hull of the
*other* vertices is not sound here, because a diagonal of a
non-simplicial facet can have a midpoint that needs one of its own
endpoints in every representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Sequence

from .graphs import Graph, make_graph
from .rationals import integer_rows, point_label, point_to_strs
from .simplex import convex_combination, hull_system, lp_maximize, prune_candidates

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class PointSet:
    """Finite set of rational points in a common dimension."""

    dim: int
    points: tuple[Point, ...]
    labels: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError("point dimension mismatch")
        labels = tuple(point_label(p) for p in self.points)
        # Sorting finds duplicates in a list of len(labels) pointers; a set
        # would need a hash table about 12 times that size (2 MiB at d = 11).
        if any(a == b for a, b in pairwise(sorted(labels))):
            raise ValueError("points must be distinct")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "points": [point_to_strs(p) for p in self.points],
        }


def hull_vertices(pset: PointSet) -> list[int]:
    """Indices of the points that are vertices of the convex hull."""
    out = []
    _, pts = integer_rows(pset.points, factor=2)
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if convex_combination(p, others) is None:
            out.append(i)
    return out


def _adjacent(points: Sequence[Sequence[int]], i: int, j: int, target: tuple[int, ...]) -> bool:
    """Whether vertices ``i`` and ``j``, with midpoint ``target``, span an edge.

    Decided by maximizing the total representation weight carried by
    the other points: the pair is an edge iff that maximum is zero.
    The search starts from the midpoint's own representation, weight
    1/2 on each of the pair, which pruning always keeps: the target
    meets a coordinate's extreme only where both endpoints do.
    A pair plus one point left by pruning is an edge without an LP: any
    weight on the third point would make it collinear with the pair, and
    ``hull_edges`` has checked that all three are hull vertices.
    """
    active = prune_candidates(target, points, list(range(len(points))))
    if len(active) <= 3:
        return True
    rows, rhs = hull_system(target, points, active)
    objective = [0 if k == i or k == j else 1 for k in active]
    value, _ = lp_maximize(
        rows,
        rhs,
        objective,
        stop_when_positive=True,
        start=(active.index(i), active.index(j)),
    )
    return value == 0


def hull_edges(pset: PointSet) -> list[tuple[int, int]]:
    """Index pairs that form edges of the convex hull of ``pset``.

    Requires every point of ``pset`` to be a hull vertex; raises
    ValueError otherwise.  Pairs whose coordinate sum collides with
    another pair's are rejected without a linear program: equal sums
    mean equal midpoints, and a midpoint shared with a second
    (necessarily disjoint) pair already has a representation off the
    first pair.
    """
    verts = hull_vertices(pset)
    if len(verts) != len(pset):
        bad = sorted(set(range(len(pset))) - set(verts))
        raise ValueError(
            "not hull vertices: " + ", ".join(pset.labels[i] for i in bad)
        )
    _, pts = integer_rows(pset.points, factor=2)
    n = len(pts)
    sums: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            key = tuple(a + b for a, b in zip(pts[i], pts[j]))
            sums.setdefault(key, []).append((i, j))
    edges = []
    for key, pairs in sums.items():
        if len(pairs) > 1:
            continue
        i, j = pairs[0]
        if _adjacent(pts, i, j, tuple(s // 2 for s in key)):
            edges.append((i, j))
    edges.sort()
    return edges


def skeleton_graph(pset: PointSet) -> Graph:
    """Graph of hull vertices and hull edges, labeled by coordinates."""
    edges = hull_edges(pset)
    return make_graph(pset.labels, edges)


def skeleton_report(pset: PointSet, graph: Graph) -> dict:
    return {
        "dim": pset.dim,
        "vertex_count": graph.n,
        "edge_count": len(graph.edges),
        "vertices": list(graph.labels),
        "edges": [[a, b] for a, b in graph.sorted_edges()],
    }
