"""Finite simple graphs with exact cut and expansion computations.

The edge expansion (Cheeger constant) of a graph is the minimum, over
vertex subsets S with 0 < |S| <= n/2, of the number of boundary edges
divided by |S|.  ``expansion_bruteforce`` evaluates that minimum
exactly by scanning every cut once, for graphs of up to
``MAX_EXPANSION_VERTICES`` vertices.  The scan meets in the middle: it
splits the vertices into two halves, tabulates the boundary of every
subset of each half, and adds the edges between the halves through a
subset-sum table, so a cut costs the same few vectorized operations
whatever the number of edges.  Its 32-bit integers cannot overflow, so
the result is exact; ties report the smallest bitmask.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .rationals import int_from_json

MAX_EXPANSION_VERTICES = 30


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
        """Parse ``to_json`` output; a non-string label, a non-integer
        count or index, or an edge listed twice (in either orientation)
        is rejected."""
        labels = data["labels"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError("labels %r are not a list of strings" % (labels,))
        # "n" is redundant with the label list; optional on input
        if "n" in data and int_from_json(data["n"], "vertex count") != len(labels):
            raise ValueError("vertex count does not match label list")
        if not isinstance(data["edges"], list):
            raise ValueError("edges %r are not a list of index pairs" % (data["edges"],))
        edges = []
        first = {}  # each edge, in either orientation, to its position
        for idx, edge in enumerate(data["edges"]):
            if not isinstance(edge, list) or len(edge) != 2:
                raise ValueError("edge %r is not a pair of vertex indices" % (edge,))
            u, v = (int_from_json(x, "edge index") for x in edge)
            seen = first.setdefault((min(u, v), max(u, v)), idx)
            if seen != idx:
                raise ValueError("edge %d %r repeats edge %d %r"
                                 % (idx, edge, seen, data["edges"][seen]))
            edges.append((u, v))
        return make_graph(labels, edges)

    def to_dot(self) -> str:
        """DOT text; each label is a quoted ID with ``\\`` and ``"`` escaped."""
        ids = ['"%s"' % x.replace("\\", "\\\\").replace('"', '\\"') for x in self.labels]
        lines = ["graph G {"]
        lines.extend("  %s;" % node for node in ids)
        lines.extend("  %s -- %s;" % (ids[u], ids[v]) for u, v in self.sorted_edges())
        lines.append("}")
        return "\n".join(lines) + "\n"


def make_graph(labels: Sequence[str], edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on ``labels``; each edge endpoint is stored as read by
    ``operator.index`` (TypeError for a float or a string)."""
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise ValueError("vertex labels must be distinct")
    n = len(labels)
    normalized = set()
    for u, v in edges:
        u, v = operator.index(u), operator.index(v)
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


def _bitmask(vertices: Iterable[int], first: int, stop: int) -> int:
    """Bitmask of the vertices in range(first, stop), vertex ``first`` at bit 0."""
    return sum(1 << (w - first) for w in vertices if first <= w < stop)


def _boundary_table(
    adjacency: Sequence[Sequence[int]], first: int, stop: int
) -> np.ndarray:
    """Boundary size of every subset X of range(first, stop), by bitmask.

    Doubling over the vertices v in order uses |d(X + v)| = |d(X)| +
    deg(v) - 2 |N(v) & X| for X among the vertices before v.
    """
    k = stop - first
    table = np.zeros(1 << k, dtype=np.int32)
    masks = np.arange(1 << k, dtype=np.int32)
    for i, neigh in enumerate(adjacency[first:stop]):
        below = slice(0, 1 << i)
        common = np.bitwise_count(masks[below] & _bitmask(neigh, first, stop))
        table[1 << i : 2 << i] = table[below] + len(neigh) - 2 * common.astype(np.int32)
    return table


def expansion_bruteforce(graph: Graph) -> tuple[Fraction, CutReport]:
    """Exact edge expansion with a witness cut.

    Every cut {S, V \\ S} is visited exactly once by enumerating the
    side S that avoids the last vertex.  Ratios are compared through
    the scaled integer boundary * (L / min(|S|, n - |S|)) with L =
    lcm(1..n // 2), so no division leaves the integers.

    The scan meets in the middle.  The other n - 1 vertices are split
    into a low half (bits 0..l-1, l = ceil((n - 1) / 2)) and a high
    half, so S = A + B with A low and B high, and for disjoint sets
    |d(A + B)| = |d(A)| + |d(B)| - 2 e(A, B).  The two boundary terms
    come from one table per half.  For a block of high rows B, the
    cross term e(A, B) = sum over u in A of |N(u) & B| is a subset-sum
    table over the low bits, built by doubling.  A cut has at most
    |S| (n - |S|) edges, so a scaled value is at most (n - 1) * L
    (10,450,440 < 2^31 at n = 30) and int32 cannot overflow.  A block
    holds at most 2^18 masks (1 MiB), so its passes stay in cache.
    Rows are laid out high bits first, so a row-major ``argmin`` finds
    the smallest mask of a block's minimum; keeping the first block's
    minimum on ties reports the lexicographically smallest bitmask.
    """
    n = graph.n
    if n < 2:
        raise ValueError("expansion needs at least two vertices")
    if n > MAX_EXPANSION_VERTICES:
        raise ValueError(
            "expansion search limited to %d vertices" % MAX_EXPANSION_VERTICES
        )
    low_bits = n // 2  # ceil((n - 1) / 2)
    high_bits = n - 1 - low_bits
    adjacency = graph.adjacency()
    # the last vertex is in neither half, as it is never in S
    low_table = _boundary_table(adjacency, 0, low_bits)
    high_table = _boundary_table(adjacency, low_bits, n - 1)
    cross = np.array(
        [_bitmask(adjacency[u], low_bits, n - 1) for u in range(low_bits)], dtype=np.int32
    )
    # factor[k] = scale // min(k, n - k) for |S| = k, and row p of
    # factor_rows holds it for every A when |B| = p
    scale = math.lcm(*range(1, n // 2 + 1))
    factor = np.array([0] + [scale // min(k, n - k) for k in range(1, n)], dtype=np.int32)
    high_masks = np.arange(1 << high_bits, dtype=np.int32)
    low_count = np.bitwise_count(np.arange(1 << low_bits, dtype=np.int32))
    high_count = np.bitwise_count(high_masks)
    factor_rows = factor[np.arange(high_bits + 1)[:, None] + low_count[None, :]]
    width = 1 << low_bits
    rows = max(1, (1 << 18) >> low_bits)
    best: Optional[tuple[int, int]] = None
    for top in range(0, 1 << high_bits, rows):
        block = slice(top, top + rows)
        twice = 2 * np.bitwise_count(high_masks[block, None] & cross).astype(np.int32)
        value = np.empty((len(twice), width), dtype=np.int32)
        value[:, 0] = high_table[block]
        for u in range(low_bits):  # subtract 2 e(A, B) by doubling over A
            np.subtract(value[:, : 1 << u], twice[:, u, None], out=value[:, 1 << u : 2 << u])
        value += low_table
        value *= factor_rows[high_count[block]]
        if top == 0:
            value[0, 0] = np.iinfo(np.int32).max  # S empty is not a cut
        pos = int(value.argmin())
        candidate = (int(value.flat[pos]), top * width + pos)
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
