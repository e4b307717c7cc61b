import json
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from halfint.graphs import (
    MAX_EXPANSION_VERTICES,
    Graph,
    cartesian_product,
    component_shapes,
    cut_ratio,
    cycle_graph,
    cycle_path_profile,
    expansion_bruteforce,
    hypercube,
    induced_subgraph,
    is_isomorphic_via,
    make_graph,
    path_graph,
)


def _expansion_oracle(graph):
    """Itertools reference: min boundary/min-side over all proper subsets."""
    n = graph.n
    best = None
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            side = set(subset)
            boundary = sum(1 for u, v in graph.edges if (u in side) != (v in side))
            ratio = Fraction(boundary, size)
            if best is None or ratio < best:
                best = ratio
    return best


def _per_edge_scan(graph):
    """Reference: the earlier per-edge chunked scan of every mask avoiding
    the last vertex.  Returns (value, smaller side, boundary size) of the
    lexicographically smallest minimizing mask."""
    n = graph.n
    edges = graph.sorted_edges()
    scale = math.lcm(*range(1, n // 2 + 1))
    best = None
    total = 1 << (n - 1)
    chunk = 1 << 20
    for start in range(1, total, chunk):
        stop = min(start + chunk, total)
        masks = np.arange(start, stop, dtype=np.int64)
        boundary = np.zeros(stop - start, dtype=np.int64)
        for u, v in edges:
            boundary += ((masks >> u) ^ (masks >> v)) & 1
        ones = np.bitwise_count(masks).astype(np.int64)
        value = boundary * (scale // np.minimum(ones, n - ones))
        pos = int(value.argmin())
        candidate = (int(value[pos]), start + pos)
        if best is None or candidate < best:
            best = candidate
    mask = best[1]
    side = {v for v in range(n) if (mask >> v) & 1}
    boundary = sum(1 for u, v in graph.edges if (u in side) != (v in side))
    if 2 * len(side) > n:
        side = set(range(n)) - side
    return Fraction(boundary, len(side)), tuple(sorted(side)), boundary


def _reference_case(rng, n, kind):
    pairs = list(combinations(range(n), 2))
    if kind == "empty":
        edges = []
    elif kind == "complete":
        edges = pairs
    elif kind == "disconnected":
        cut = rng.randint(1, n - 1)
        edges = [(u, v) for u, v in pairs if (u < cut) == (v < cut) and rng.random() < 0.7]
    elif kind == "last-vertex star":
        edges = [(u, n - 1) for u in range(n - 1) if rng.random() < 0.8]
        edges += [e for e in pairs if rng.random() < 0.1]
    elif kind == "cycle":  # many tied minima
        edges = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
    else:
        p = rng.random()
        edges = [e for e in pairs if rng.random() < p]
    return make_graph([str(i) for i in range(n)], edges)


_REFERENCE_KINDS = ["random"] * 5 + ["empty", "complete", "disconnected", "last-vertex star", "cycle"]


def test_expansion_matches_per_edge_reference():
    rng = random.Random(20240601)
    cases = []
    for trial in range(2000):
        n = 2 + trial % 15  # n = 2..16, odd and even, so both split shapes
        kind = _REFERENCE_KINDS[(trial // 15) % len(_REFERENCE_KINDS)]
        cases.append((n, kind))
    cases += [(18, "random"), (19, "last-vertex star"), (19, "cycle"), (20, "random")]
    # past 2^18 masks: cycle ties span several blocks; K21's cuts are as large as can be
    cases += [(21, "cycle"), (22, "cycle"), (21, "random"), (21, "complete")]
    for n, kind in cases:
        g = _reference_case(rng, n, kind)
        value, rep = expansion_bruteforce(g)
        expected = _per_edge_scan(g)
        assert (value, rep.subset, rep.boundary_size) == expected, (kind, sorted(g.edges))
        if kind == "empty":
            assert expected == (0, (0,), 0)


def test_make_graph_validation():
    with pytest.raises(ValueError):
        make_graph(["a", "a"], [])
    with pytest.raises(ValueError):
        make_graph(["a", "b"], [(0, 0)])
    with pytest.raises(ValueError):
        make_graph(["a", "b"], [(0, 2)])


def test_graph_json_round_trip():
    g = cycle_graph(5)
    again = type(g).from_json(g.to_json())
    assert again.labels == g.labels and again.edges == g.edges


def test_graph_from_json_n_is_optional_but_checked():
    g = cycle_graph(4)
    data = dict(g.to_json())
    del data["n"]
    assert type(g).from_json(data).edges == g.edges
    data["n"] = 5
    with pytest.raises(ValueError, match="vertex count"):
        type(g).from_json(data)


def test_dot_output_shape():
    dot = cycle_graph(3).to_dot()
    assert dot.startswith("graph G {") and dot.rstrip().endswith("}")
    assert dot.count(" -- ") == 3


def test_cut_ratio_picks_smaller_side():
    g = cycle_graph(6)
    rep = cut_ratio(g, [3, 4, 5, 0])
    assert rep.subset == (1, 2)
    assert rep.boundary_size == 2
    assert rep.ratio == 1


def test_cut_ratio_rejects_trivial_sides():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        cut_ratio(g, [])
    with pytest.raises(ValueError):
        cut_ratio(g, [0, 1, 2])


def test_expansion_c6():
    value, rep = expansion_bruteforce(cycle_graph(6))
    assert value == Fraction(2, 3)
    assert rep.subset == (0, 1, 2)
    assert rep.boundary_size == 2 and rep.subset_size == 3


@pytest.mark.parametrize("k", [3, 4, 5, 7, 8])
def test_expansion_cycles_match_oracle(k):
    value, rep = expansion_bruteforce(cycle_graph(k))
    assert value == _expansion_oracle(cycle_graph(k))
    # witness must reproduce the reported ratio
    check = cut_ratio(cycle_graph(k), rep.subset)
    assert check.ratio == value


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_expansion_hypercube_exactly_one(d):
    value, rep = expansion_bruteforce(hypercube(d))
    assert value == 1
    assert rep.boundary_size == rep.subset_size


def test_expansion_random_graphs_match_oracle():
    rng = random.Random(31337)
    for _ in range(12):
        n = rng.randint(2, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
        g = make_graph([str(i) for i in range(n)], edges)
        value, rep = expansion_bruteforce(g)
        assert value == _expansion_oracle(g)
        assert cut_ratio(g, rep.subset).boundary_size == rep.boundary_size


def test_expansion_complement_symmetry():
    # scanning only sides that avoid the last vertex still sees every cut
    g = make_graph("abcdef", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    value, rep = expansion_bruteforce(g)
    complement = sorted(set(range(6)) - set(rep.subset))
    assert cut_ratio(g, complement).ratio == value


def test_expansion_complete_30_closed_form():
    # every side of size k cuts k (30 - k) edges, least per vertex at k = 15
    value, rep = expansion_bruteforce(
        make_graph([str(i) for i in range(30)], combinations(range(30), 2))
    )
    assert value == 15
    assert rep.subset == tuple(range(15)) and rep.boundary_size == 225


def test_expansion_scaled_values_fit_int32():
    # the scan's largest scaled value, (n - 1) * lcm(1..n // 2), is an int32
    for n in range(2, MAX_EXPANSION_VERTICES + 1):
        assert (n - 1) * math.lcm(*range(1, n // 2 + 1)) < 2**31, n


def test_expansion_guards():
    with pytest.raises(ValueError):
        expansion_bruteforce(make_graph(["x"], []))
    big = make_graph([str(i) for i in range(MAX_EXPANSION_VERTICES + 1)], [])
    with pytest.raises(ValueError):
        expansion_bruteforce(big)


def test_cartesian_product_counts():
    g = cycle_graph(3)
    h = path_graph(4)
    p = cartesian_product(g, h)
    assert p.n == 12
    # |E| = |V_G| |E_H| + |V_H| |E_G|
    assert len(p.edges) == 3 * 3 + 4 * 3


def test_cartesian_product_is_c4_for_two_edges():
    k2a = make_graph(["a0", "a1"], [(0, 1)])
    k2b = make_graph(["b0", "b1"], [(0, 1)])
    p = cartesian_product(k2a, k2b)
    mapping = {
        "a0|b0": "0",
        "a0|b1": "1",
        "a1|b1": "2",
        "a1|b0": "3",
    }
    assert is_isomorphic_via(p, cycle_graph(4), mapping)


def test_cartesian_product_label_collision():
    # "a" x "x|b" and "a|x" x "b" both compose to "a|x|b"
    g = make_graph(["a", "a|x"], [(0, 1)])
    h = make_graph(["x|b", "b"], [(0, 1)])
    with pytest.raises(ValueError):
        cartesian_product(g, h)


def test_cartesian_product_iterated():
    k2 = make_graph(["0", "1"], [(0, 1)])
    q3 = cartesian_product(cartesian_product(k2, k2), k2)
    assert q3.n == 8 and len(q3.edges) == 12
    assert all(len(q3.adjacency()[v]) == 3 for v in range(8))


def test_hypercube_structure():
    q3 = hypercube(3)
    assert q3.n == 8 and len(q3.edges) == 12
    assert all(len(q3.adjacency()[v]) == 3 for v in range(8))
    # neighbors differ in exactly one bit
    for u, v in q3.edges:
        diff = int(q3.labels[u], 2) ^ int(q3.labels[v], 2)
        assert diff and diff & (diff - 1) == 0


def test_is_isomorphic_via_rejects_wrong_maps():
    c4 = cycle_graph(4)
    p4 = path_graph(4)
    identity = {str(i): str(i) for i in range(4)}
    assert not is_isomorphic_via(c4, p4, identity)
    assert is_isomorphic_via(c4, c4, identity)
    with pytest.raises(ValueError):
        is_isomorphic_via(c4, c4, {str(i): "0" for i in range(4)})


def test_induced_subgraph_and_components():
    g = make_graph("abcdef", [(0, 1), (1, 2), (3, 4)])
    sub = induced_subgraph(g, [0, 1, 2, 5])
    assert sub.n == 4 and len(sub.edges) == 2
    # components {0, 1, 2}, {3, 4} and {5}, in order of smallest vertex
    assert component_shapes(g) == [(2, False), (1, False), (0, False)]


def _shapes_by_vertex_lists(g):
    """Reference: component vertex lists by a separate search, then the
    degree sum over each list."""
    adj = g.adjacency()
    bad = next((v for v, neigh in enumerate(adj) if len(neigh) > 2), None)
    if bad is not None:
        raise ValueError("vertex %d has degree %d > 2" % (bad, len(adj[bad])))
    seen = [False] * g.n
    shapes = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        edge_count = sum(len(adj[v]) for v in comp) // 2
        shapes.append((edge_count, edge_count == len(comp)))
    return shapes


def _random_degree_two_graph(rng):
    """Cycles, paths and isolated vertices on shuffled vertex numbers;
    about one graph in five also gets a chord at a cycle or path vertex."""
    sizes = [rng.choice([1, 1, 2, 3, 4, 5, 7]) for _ in range(rng.randint(1, 6))]
    order = list(range(sum(sizes)))
    rng.shuffle(order)
    edges, start = [], 0
    for k in sizes:
        block = order[start:start + k]
        start += k
        edges.extend(zip(block, block[1:]))
        if k >= 3 and rng.random() < 0.5:
            edges.append((block[-1], block[0]))
    if len(order) >= 4 and rng.random() < 0.2:
        u = rng.choice([v for e in edges for v in e] or order)
        w = rng.choice([v for v in order if v != u])
        edges.append((u, w))
    return make_graph([str(v) for v in range(len(order))], edges)


def test_component_shapes_match_vertex_list_reference():
    rng = random.Random(29)
    refused = 0
    for _ in range(300):
        g = _random_degree_two_graph(rng)
        try:
            expected = _shapes_by_vertex_lists(g)
        except ValueError as exc:
            refused += 1
            with pytest.raises(ValueError, match="^%s$" % exc):
                component_shapes(g)
        else:
            assert component_shapes(g) == expected
    assert 0 < refused < 100


def test_component_shapes_builds_adjacency_once(monkeypatch):
    calls = []
    adjacency = Graph.adjacency

    def counted(self):
        calls.append(self)
        return adjacency(self)

    monkeypatch.setattr(Graph, "adjacency", counted)
    g = make_graph("abcdefg", [(0, 1), (1, 2), (2, 0), (4, 5)])
    assert component_shapes(g) == [(3, True), (0, False), (1, False), (0, False)]
    assert len(calls) == 1


def test_cycle_path_profile():
    g = make_graph(
        [str(i) for i in range(8)],
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)],
    )
    assert component_shapes(g) == [(3, True), (3, False), (0, False)]
    cycles, path_edges = cycle_path_profile(g)
    assert cycles == (3,)
    assert path_edges == 3
    star = make_graph("abcd", [(0, 1), (0, 2), (0, 3)])
    for summary in (component_shapes, cycle_path_profile):
        with pytest.raises(ValueError, match=r"^vertex 0 has degree 3 > 2$"):
            summary(star)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cut_ratio(path_graph(3), [0, 3]), "subset contains out-of-range vertices"),
        (lambda: is_isomorphic_via(path_graph(2), path_graph(2), {"0": "0"}),
         "mapping keys must be exactly the labels of g"),
        # onto the two labels of P_2, but two of P_3's labels share an image
        (lambda: is_isomorphic_via(path_graph(3), path_graph(2), {"0": "0", "1": "1", "2": "0"}),
         "mapping is not injective"),
        (lambda: hypercube(0), "hypercube dimension must be positive"),
        (lambda: cycle_graph(2), "a cycle needs at least three vertices"),
        (lambda: path_graph(0), "a path needs at least one vertex"),
        (lambda: induced_subgraph(path_graph(3), [0, 3]), "kept vertices out of range"),
    ],
    ids=["cut-range", "iso-keys", "iso-injective", "hypercube-0", "cycle-2", "path-0",
         "induced-range"],
)
def test_argument_guards(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


def test_make_graph_reads_endpoints_as_indices():
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        make_graph("abc", [(0, 1.0), (1, 2)])
    # an endpoint with __index__ is stored as an int, so the graph's JSON reads back
    for edge in [(0, True), (np.int64(0), np.int64(1))]:
        g = make_graph("abc", [edge, (1, 2)])
        assert g.sorted_edges() == [(0, 1), (1, 2)]
        assert all(type(v) is int for pair in g.edges for v in pair)
        assert Graph.from_json(json.loads(json.dumps(g.to_json()))) == g
