"""Finite simple graphs with exact cut and expansion computations.

The edge expansion (Cheeger constant) of a graph is the minimum, over
vertex subsets S with 0 < |S| <= n/2, of the number of boundary edges
divided by |S|.  ``expansion_bruteforce`` evaluates that minimum
exactly by scanning every cut once; the scan is vectorized over bitmask
chunks with 64-bit integer arithmetic only, so the result is exact, and
the witness reported for ties is the lexicographically smallest
bitmask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .rationals import int_from_json

MAX_EXPANSION_VERTICES = 26


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with canonical string vertex labels."""

    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.labels)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.labels]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return [sorted(neigh) for neigh in adj]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "labels": list(self.labels),
            "edges": [[u, v] for u, v in self.sorted_edges()],
        }

    @staticmethod
    def from_json(data: Mapping) -> "Graph":
        """Parse ``to_json`` output; a non-string label, or a non-integer
        count or index, is rejected."""
        labels = data["labels"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError("labels %r are not a list of strings" % (labels,))
        # "n" is redundant with the label list; optional on input
        if "n" in data and int_from_json(data["n"], "vertex count") != len(labels):
            raise ValueError("vertex count does not match label list")
        if not isinstance(data["edges"], list):
            raise ValueError("edges %r are not a list of index pairs" % (data["edges"],))
        edges = []
        for edge in data["edges"]:
            if not isinstance(edge, list) or len(edge) != 2:
                raise ValueError("edge %r is not a pair of vertex indices" % (edge,))
            edges.append(tuple(int_from_json(x, "edge index") for x in edge))
        return make_graph(labels, edges)

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for label in self.labels:
            lines.append('  "%s";' % label)
        for u, v in self.sorted_edges():
            lines.append('  "%s" -- "%s";' % (self.labels[u], self.labels[v]))
        lines.append("}")
        return "\n".join(lines) + "\n"


def make_graph(labels: Sequence[str], edges: Iterable[tuple[int, int]]) -> Graph:
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise ValueError("vertex labels must be distinct")
    n = len(labels)
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValueError("self loop at vertex %d" % u)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge (%d, %d) out of range" % (u, v))
        normalized.add((min(u, v), max(u, v)))
    return Graph(labels, frozenset(normalized))


@dataclass(frozen=True)
class CutReport:
    """One side of a cut, always the side of size at most n/2."""

    subset: tuple[int, ...]
    boundary_size: int
    subset_size: int
    ratio: Fraction

    def to_json(self, graph: Optional[Graph] = None) -> dict:
        data = {
            "subset": list(self.subset),
            "boundary_size": self.boundary_size,
            "subset_size": self.subset_size,
            "ratio": str(self.ratio),
        }
        if graph is not None:
            data["subset_labels"] = [graph.labels[i] for i in self.subset]
        return data


def cut_ratio(graph: Graph, subset: Iterable[int]) -> CutReport:
    """Boundary size of the cut at ``subset`` over the smaller side's size."""
    side = frozenset(subset)
    n = graph.n
    if not side or len(side) == n:
        raise ValueError("cut requires a nonempty proper subset")
    if not all(0 <= v < n for v in side):
        raise ValueError("subset contains out-of-range vertices")
    boundary = sum(1 for u, v in graph.edges if (u in side) != (v in side))
    if 2 * len(side) > n:
        side = frozenset(range(n)) - side
    return CutReport(
        subset=tuple(sorted(side)),
        boundary_size=boundary,
        subset_size=len(side),
        ratio=Fraction(boundary, len(side)),
    )


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).astype(np.int64)


def expansion_bruteforce(graph: Graph) -> tuple[Fraction, CutReport]:
    """Exact edge expansion with a witness cut.

    Every cut {S, V \\ S} is visited exactly once by enumerating the
    side that avoids the last vertex.  Ratios are compared through the
    scaled integer boundary * (L / min(|S|, n - |S|)) with L a fixed
    common multiple, so no division leaves the integers.
    """
    n = graph.n
    if n < 2:
        raise ValueError("expansion needs at least two vertices")
    if n > MAX_EXPANSION_VERTICES:
        raise ValueError(
            "expansion search limited to %d vertices" % MAX_EXPANSION_VERTICES
        )
    edges = graph.sorted_edges()
    scale = math.lcm(*range(1, n // 2 + 1))
    best: Optional[tuple[int, int]] = None
    total = 1 << (n - 1)
    chunk = 1 << 20
    for start in range(1, total, chunk):
        stop = min(start + chunk, total)
        masks = np.arange(start, stop, dtype=np.int64)
        boundary = np.zeros(stop - start, dtype=np.int64)
        for u, v in edges:
            boundary += ((masks >> u) ^ (masks >> v)) & 1
        ones = _popcount(masks)
        small = np.minimum(ones, n - ones)
        value = boundary * (scale // small)
        pos = int(value.argmin())
        candidate = (int(value[pos]), start + pos)
        if best is None or candidate < best:
            best = candidate
    mask = best[1]
    subset = [v for v in range(n) if (mask >> v) & 1]
    report = cut_ratio(graph, subset)
    return report.ratio, report


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) is labeled "<u label>|<v label>".

    Factor labels may themselves contain the separator (iterated
    products do), so only genuine composite-label collisions are
    rejected.
    """
    nh = h.n
    labels = [gu + "|" + hv for gu in g.labels for hv in h.labels]
    if len(set(labels)) != len(labels):
        raise ValueError("product labels collide; relabel the factors")
    edges = []
    for u, v in g.edges:
        for w in range(nh):
            edges.append((u * nh + w, v * nh + w))
    for x, y in h.edges:
        for u in range(g.n):
            edges.append((u * nh + x, u * nh + y))
    return make_graph(labels, edges)


def is_isomorphic_via(g: Graph, h: Graph, mapping: Mapping[str, str]) -> bool:
    """Check that the label mapping is a graph isomorphism from g onto h."""
    if set(mapping.keys()) != set(g.labels):
        raise ValueError("mapping keys must be exactly the labels of g")
    if set(mapping.values()) != set(h.labels):
        raise ValueError("mapping must be a bijection onto the labels of h")
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("mapping is not injective")
    if len(g.edges) != len(h.edges):
        return False
    g_index = {label: i for i, label in enumerate(g.labels)}
    h_index = {label: i for i, label in enumerate(h.labels)}
    image = {g_index[a]: h_index[b] for a, b in mapping.items()}
    return all(h.has_edge(image[u], image[v]) for u, v in g.edges)


def hypercube(d: int) -> Graph:
    """Q_d; vertex labels are d-character bitstrings, coordinate 0 leftmost."""
    if d < 1:
        raise ValueError("hypercube dimension must be positive")
    labels = [format(v, "0%db" % d) for v in range(1 << d)]
    edges = []
    for v in range(1 << d):
        for k in range(d):
            w = v ^ (1 << k)
            if w > v:
                edges.append((v, w))
    return make_graph(labels, edges)


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("a cycle needs at least three vertices")
    return make_graph([str(i) for i in range(k)], [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    """Path on k vertices (k - 1 edges)."""
    if k < 1:
        raise ValueError("a path needs at least one vertex")
    return make_graph([str(i) for i in range(k)], [(i, i + 1) for i in range(k - 1)])


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    keep_sorted = sorted(set(keep))
    if not all(0 <= v < g.n for v in keep_sorted):
        raise ValueError("kept vertices out of range")
    index = {old: new for new, old in enumerate(keep_sorted)}
    labels = [g.labels[v] for v in keep_sorted]
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return make_graph(labels, edges)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the components, each sorted, ordered by minimum vertex."""
    adj = g.adjacency()
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        components.append(sorted(comp))
    return components


def component_shapes(g: Graph) -> list[tuple[int, bool]]:
    """(edge count, is cycle) of each component of a degree-<=2 graph.

    Components are ordered by minimum vertex, as in
    ``connected_components``.  With every degree at most two, a
    component is a cycle exactly when it has as many edges as vertices;
    isolated vertices read (0, False).
    """
    adj = g.adjacency()
    bad = next((v for v, neigh in enumerate(adj) if len(neigh) > 2), None)
    if bad is not None:
        raise ValueError("vertex %d has degree %d > 2" % (bad, len(adj[bad])))
    shapes = []
    for comp in connected_components(g):
        edge_count = sum(len(adj[v]) for v in comp) // 2
        shapes.append((edge_count, edge_count == len(comp)))
    return shapes


def cycle_path_profile(g: Graph) -> tuple[tuple[int, ...], int]:
    """Component shape of a degree-<=2 graph.

    Returns (sorted cycle lengths, total number of path edges).  Path
    components of any split contribute only their edge counts; isolated
    vertices contribute nothing.
    """
    shapes = component_shapes(g)
    cycles = tuple(sorted(k for k, is_cycle in shapes if is_cycle))
    return cycles, sum(k for k, is_cycle in shapes if not is_cycle)
