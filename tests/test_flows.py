"""Routing validity, exact congestion goldens, and soundness of the
congestion-based expansion lower bound."""

import json
import random
from fractions import Fraction

import pytest

from halfint.cli import main
from halfint.flows import (
    MAX_ROUTING_DIMENSION,
    CongestionReport,
    Routing,
    arc_flows,
    bitfix_routing,
    congestion,
    expansion_lower_bound,
    hexagon_routing,
    product_routing,
    punctured_routing,
    routing_of,
    validate,
    vertex_count,
)
from halfint.graphs import (
    cartesian_product,
    expansion_bruteforce,
    hypercube,
    induced_subgraph,
    make_graph,
)


def test_bitfix_small_valid():
    assert validate(bitfix_routing(2)) is None
    assert validate(hexagon_routing()) is None
    assert validate(punctured_routing(3)) is None


def test_validate_missing_demand():
    r = bitfix_routing(1)
    broken = Routing(r.graph, {(0, 1): r.paths[(0, 1)]})
    assert "missing demand" in validate(broken)


def test_validate_bad_weight_sum():
    r = bitfix_routing(1)
    paths = dict(r.paths)
    (path, _), = paths[(0, 1)]
    paths[(0, 1)] = [(path, Fraction(1, 2))]
    assert "sum" in validate(Routing(r.graph, paths))
    paths[(0, 1)] = [(path, Fraction(1))] * 2
    assert validate(Routing(r.graph, paths)) == "demand (0, 1) weights sum to 2, not 1"


def test_validate_non_edge():
    g = make_graph(["a", "b", "c"], [(0, 1), (1, 2)])
    paths = {
        (0, 1): [((0, 1), Fraction(1))],
        (1, 0): [((1, 0), Fraction(1))],
        (0, 2): [((0, 2), Fraction(1))],  # skips the middle vertex
        (2, 0): [((2, 1, 0), Fraction(1))],
        (1, 2): [((1, 2), Fraction(1))],
        (2, 1): [((2, 1), Fraction(1))],
    }
    assert "non-edge" in validate(Routing(g, paths))


def test_bitfix_d1():
    r = bitfix_routing(1)
    flows = arc_flows(r)
    assert flows == {(0, 1): 1, (1, 0): 1}
    rep = congestion(r)
    assert rep.max_arc_flow == 1 and rep.congestion == Fraction(1, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_bitfix_every_arc_carries_half_vertex_count(d):
    r = bitfix_routing(d)
    flows = arc_flows(r)
    assert len(flows) == 2 * d * 2 ** (d - 1)
    assert set(flows.values()) == {Fraction(2 ** (d - 1))}
    rep = congestion(r)
    assert rep.congestion == Fraction(1, 2)
    assert expansion_lower_bound(rep) == 1


def test_bitfix_guards():
    for bad in (0, -1, MAX_ROUTING_DIMENSION + 1):
        with pytest.raises(ValueError):
            bitfix_routing(bad)


def test_bitfix_argmax_deterministic():
    rep = congestion(bitfix_routing(2))
    # all arcs tie; the lexicographically least (tail, head) pair wins
    assert rep.argmax_arc == ("00", "01")


def test_hexagon_routing_golden():
    r = hexagon_routing()
    assert validate(r) is None
    flows = arc_flows(r)
    assert len(flows) == 12
    assert set(flows.values()) == {Fraction(9, 2)}
    rep = congestion(r)
    assert rep.congestion == Fraction(3, 4)
    assert expansion_lower_bound(rep) == Fraction(2, 3)
    value, _ = expansion_bruteforce(r.graph)
    assert value == Fraction(2, 3) >= Fraction(2, 3)


def test_punctured_d3_golden():
    # d=3 sits outside the rerouting hypothesis; the exact figures on
    # the 6-vertex graph are still pinned down
    r = punctured_routing(3)
    rep = congestion(r)
    assert rep.max_arc_flow == 5
    assert rep.congestion == Fraction(5, 6)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_punctured_certificate(d):
    r = punctured_routing(d)
    assert validate(r) is None
    assert r.graph.n == 2**d - 2
    rep = congestion(r)
    assert rep.max_arc_flow <= 3 * 2 ** (d - 2)
    assert rep.congestion <= Fraction(6, 7)
    assert expansion_lower_bound(rep) >= Fraction(7, 12)


def test_punctured_d4_exact():
    rep = congestion(punctured_routing(4))
    assert rep.max_arc_flow == 11
    assert rep.congestion == Fraction(11, 14)


def _reroute_arc_sets(d):
    """Arc sets touched by the two reroutes, per the construction rule:
    paths through the origin detour via e_i -> e_i|e_j -> e_j, and
    paths through the all-ones vertex mirror that around the top."""
    top = (1 << d) - 1

    def lbl(x):
        return format(x, "0%db" % d)

    low = set()
    high = set()
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            mid = (1 << i) | (1 << j)
            low.add((lbl(1 << i), lbl(mid)))
            low.add((lbl(mid), lbl(1 << j)))
            high.add((lbl(top ^ (1 << i)), lbl(top ^ mid)))
            high.add((lbl(top ^ mid), lbl(top ^ (1 << j))))
    return low, high


@pytest.mark.parametrize("d", [4, 5, 6])
def test_reroute_arc_sets_disjoint_from_d4(d):
    low, high = _reroute_arc_sets(d)
    assert not (low & high)
    # every reroute arc is a real arc of the punctured cube
    g = punctured_routing(d).graph
    index = {label: i for i, label in enumerate(g.labels)}
    for a, b in low | high:
        assert g.has_edge(index[a], index[b])


def test_reroute_arc_sets_collide_at_d3():
    low, high = _reroute_arc_sets(3)
    assert low & high


def test_product_k2_k2():
    r = product_routing(bitfix_routing(1), bitfix_routing(1))
    assert validate(r) is None
    rep = congestion(r)
    assert rep.vertex_count == 4
    assert rep.congestion == Fraction(1, 2)


def test_product_congestion_at_most_max_of_factors():
    factors = {
        "q1": bitfix_routing(1),
        "q2": bitfix_routing(2),
        "hex": hexagon_routing(),
        "punct3": punctured_routing(3),
    }
    for a in factors.values():
        for b in factors.values():
            prod = product_routing(a, b)
            assert validate(prod) is None
            bound = max(congestion(a).congestion, congestion(b).congestion)
            assert congestion(prod).congestion <= bound


def test_product_demand_accounting():
    # every cut of a valid routing carries at least the separated demand
    r = product_routing(bitfix_routing(1), hexagon_routing())
    flows = arc_flows(r)
    n = r.graph.n
    for mask in range(1, 2**n - 1):
        side = {v for v in range(n) if (mask >> v) & 1}
        crossing = sum(
            f for (a, b), f in flows.items() if (a in side) and (b not in side)
        )
        assert crossing >= len(side) * (n - len(side))


def test_expansion_lower_bound_values():
    rep = congestion(bitfix_routing(3))
    assert expansion_lower_bound(rep) == 1
    hexrep = congestion(hexagon_routing())
    assert expansion_lower_bound(hexrep) == Fraction(2, 3)
    made_up = type(hexrep)(
        vertex_count=2, max_arc_flow=Fraction(12, 7), congestion=Fraction(6, 7),
        argmax_arc=None,
    )
    assert expansion_lower_bound(made_up) == Fraction(7, 12)
    zero = type(hexrep)(
        vertex_count=1, max_arc_flow=Fraction(0), congestion=Fraction(0),
        argmax_arc=None,
    )
    with pytest.raises(ValueError):
        expansion_lower_bound(zero)


def test_lower_bound_sound_on_corpus():
    corpus = [
        bitfix_routing(1),
        bitfix_routing(2),
        bitfix_routing(3),
        bitfix_routing(4),
        punctured_routing(3),
        punctured_routing(4),
        hexagon_routing(),
        product_routing(bitfix_routing(1), hexagon_routing()),
    ]
    for r in corpus:
        bound = expansion_lower_bound(congestion(r))
        value, _ = expansion_bruteforce(r.graph)
        assert value >= bound


def test_routing_json_shape(capsys):
    assert main(["flow", "--family", "hexagon", "--routing"]) == 0
    data = json.loads(capsys.readouterr().out)["routing"]
    assert set(data) == {"graph", "demands"}
    assert len(data["demands"]) == 30
    first = data["demands"][0]
    assert set(first) == {"source", "target", "paths"}
    total = sum(Fraction(p["weight"]) for p in first["paths"])
    assert total == 1


# ------------------------------------------------- Fraction reference

def _reference_validate(routing):
    """Per-step Fraction validation, kept as the reference for ``validate``."""
    g = routing.graph
    n = g.n
    expected = {(s, t) for s in range(n) for t in range(n) if s != t}
    given = set(routing.paths.keys())
    missing = sorted(expected - given)
    if missing:
        return "missing demand (%d, %d)" % missing[0]
    extra = sorted(given - expected)
    if extra:
        return "unexpected demand (%d, %d)" % extra[0]
    for (s, t) in sorted(routing.paths):
        entries = routing.paths[(s, t)]
        if not entries:
            return "demand (%d, %d) has no paths" % (s, t)
        total = Fraction(0)
        for idx, (path, weight) in enumerate(entries):
            if weight <= 0:
                return "demand (%d, %d) path %d has non-positive weight" % (s, t, idx)
            total += weight
            if len(path) < 2 or path[0] != s or path[-1] != t:
                return "demand (%d, %d) path %d has wrong endpoints" % (s, t, idx)
            if len(set(path)) != len(path):
                return "demand (%d, %d) path %d repeats a vertex" % (s, t, idx)
            for a, b in zip(path, path[1:]):
                if not g.has_edge(a, b):
                    return "demand (%d, %d) path %d uses a non-edge (%d, %d)" % (
                        s, t, idx, a, b
                    )
        if total != 1:
            return "demand (%d, %d) weights sum to %s, not 1" % (s, t, total)
    return None


def _reference_arc_flows(routing):
    flows = {}
    for entries in routing.paths.values():
        for path, weight in entries:
            for a, b in zip(path, path[1:]):
                flows[(a, b)] = flows.get((a, b), Fraction(0)) + weight
    return flows


def _reference_congestion(routing):
    problem = _reference_validate(routing)
    if problem is not None:
        raise ValueError("invalid routing: " + problem)
    g = routing.graph
    flows = _reference_arc_flows(routing)
    if not flows:
        return CongestionReport(g.n, Fraction(0), Fraction(0), None)
    best_arc = None
    best_flow = None
    for (a, b), flow in flows.items():
        key = (g.labels[a], g.labels[b])
        if best_flow is None or flow > best_flow or (flow == best_flow and key < best_arc):
            best_flow = flow
            best_arc = key
    return CongestionReport(g.n, best_flow, best_flow / g.n, best_arc)


def _outcome(congestion_fn, routing):
    try:
        return congestion_fn(routing)
    except ValueError as exc:
        return str(exc)


def _assert_matches_reference(routing):
    assert validate(routing) == _reference_validate(routing)
    assert arc_flows(routing) == _reference_arc_flows(routing)
    assert _outcome(congestion, routing) == _outcome(_reference_congestion, routing)


def _criterion_8_products():
    """Criterion 8's 15 routings: products, in name order, of q1, q2, q3, c6
    and p4 with at most 24 vertices (single factors among them)."""
    base = {"c6": hexagon_routing(), "p4": punctured_routing(4), "q1": bitfix_routing(1),
            "q2": bitfix_routing(2), "q3": bitfix_routing(3)}
    names = sorted(base)
    products = []

    def extend(start, routing):
        products.append(routing)
        for name in names[start:]:
            factor = base[name]
            if routing.graph.n * factor.graph.n <= 24:
                extend(names.index(name), product_routing(routing, factor))

    for idx, name in enumerate(names):
        extend(idx, base[name])
    return products


def test_flows_match_fraction_reference_on_the_constructions():
    corpus = ([bitfix_routing(d) for d in range(1, 7)]
              + [punctured_routing(d) for d in range(3, 7)]
              + [hexagon_routing()])
    products = _criterion_8_products()
    assert len(products) == 15
    for routing in corpus + products:
        assert validate(routing) is None
        _assert_matches_reference(routing)


_MESSAGES = {
    "missing demand": "missing demand",
    "unexpected demand": "unexpected demand",
    "no paths": "has no paths",
    "non-positive weight": "non-positive weight",
    "wrong endpoints": "wrong endpoints",
    "repeats a vertex": "repeats a vertex",
    "non-edge": "uses a non-edge",
    "weight sum": "weights sum to",
}


def _mutate(routing, rng):
    """One seeded edit of a valid routing: a valid reweighting, or an edit
    aimed at one of the eight violations."""
    paths = {key: list(entries) for key, entries in routing.paths.items()}
    n = routing.graph.n
    key = rng.choice(sorted(k for k, entries in paths.items() if entries))
    s, t = key
    idx = rng.randrange(len(paths[key]))
    path, weight = paths[key][idx]
    kind = rng.choice(["split", "split"] + sorted(_MESSAGES))
    if kind == "split":
        # 1/3 + 2/3 or 1/2 + 1/4 + 1/4 of the weight, over copies of the path
        parts = rng.choice([(Fraction(1, 3), Fraction(2, 3)),
                            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))])
        paths[key][idx:idx + 1] = [(path, weight * part) for part in parts]
    elif kind == "missing demand":
        del paths[key]
    elif kind == "unexpected demand":
        paths[rng.choice([(s, s), (s, n), (n, t)])] = [((s, t), Fraction(1))]
    elif kind == "no paths":
        paths[key] = []
    elif kind == "non-positive weight":
        bad = rng.choice([Fraction(0), Fraction(-1, 2), -weight])
        paths[key][idx] = (path, bad)
        paths[key].append((path, weight - bad))
    elif kind == "wrong endpoints":
        paths[key][idx] = (rng.choice([path[1:], path[:-1], (s,)]), weight)
    elif kind == "repeats a vertex":
        paths[key][idx] = (path[:2] + path, weight)  # s, v, s, v, ..., t
    elif kind == "non-edge":
        g = routing.graph
        far = [v for v in range(n) if v != s and v != t and not g.has_edge(s, v)]
        if n - 1 in path[1:-1]:
            # an array indexed with -1 would read it as vertex n - 1
            path = tuple(-1 if v == n - 1 else v for v in path)
        else:
            path = ((s, far[0]) + path[1:]) if far else (s, n + 1, t)
        paths[key][idx] = (path, weight)
    else:
        extra = rng.choice([Fraction(1, 3), Fraction(-1, 4), Fraction(1, 2)])
        paths[key].append((path, extra))
    return Routing(routing.graph, paths)


def test_flows_match_fraction_reference_on_mutations():
    bases = [bitfix_routing(1), bitfix_routing(2), bitfix_routing(3),
             punctured_routing(3), punctured_routing(4), punctured_routing(5),
             hexagon_routing(), product_routing(bitfix_routing(1), hexagon_routing())]
    rng = random.Random(20240607)
    seen = set()
    for round_ in range(600):
        routing = bases[round_ % len(bases)]
        for _ in range(rng.choice([1, 1, 2, 3])):
            routing = _mutate(routing, rng)
        _assert_matches_reference(routing)
        problem = validate(routing)
        seen.update(name for name, text in _MESSAGES.items() if text in (problem or ""))
        seen.add("valid" if problem is None else "invalid")
    assert seen == set(_MESSAGES) | {"valid", "invalid"}


@pytest.mark.parametrize(
    "later, earlier, message",
    [
        # 101 -> 000 flips two bits; the walk in insertion order meets it first
        ([((5, 0, 4), Fraction(1))], [((1, 3, 2), Fraction(1, 2))],
         "demand (1, 2) weights sum to 1/2, not 1"),
        # the reverse: a bad sum first, an off-graph arc (001 -> 111) in (1, 2)
        ([((5, 4), Fraction(1, 2))], [((1, 7, 2), Fraction(1))],
         "demand (1, 2) path 0 uses a non-edge (1, 7)"),
        # an empty path after one ending at the target, before one leaving the source
        ([((5, 4), Fraction(1))],
         [((1, 3, 2), Fraction(1, 2)), ((), Fraction(1, 4)), ((1, 3, 2), Fraction(1, 4))],
         "demand (1, 2) path 1 has wrong endpoints"),
    ],
    ids=["arc-inserted-first", "sum-inserted-first", "empty-path"],
)
def test_validate_names_the_first_violation_in_sorted_order(later, earlier, message):
    r = bitfix_routing(3)
    paths = {(5, 4): later, (1, 2): earlier}
    paths.update((key, entries) for key, entries in r.paths.items() if key not in paths)
    routing = Routing(r.graph, paths)
    assert validate(routing) == message
    _assert_matches_reference(routing)


def test_mixed_denominators():
    g = make_graph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    one = Fraction(1)
    paths = {(s, t): [((s, t), one)] for s in range(3) for t in range(3) if s != t}
    paths[(0, 1)] = [((0, 1), Fraction(1, 3)), ((0, 2, 1), Fraction(2, 3))]
    paths[(1, 2)] = [((1, 2), Fraction(1, 2)), ((1, 0, 2), Fraction(1, 4)),
                     ((1, 2), Fraction(1, 4))]
    # denominators beyond 64 bits are summed and tallied exactly
    tiny = Fraction(1, 2**70)
    paths[(2, 1)] = [((2, 0, 1), tiny), ((2, 1), 1 - tiny)]
    routing = Routing(g, paths)
    assert validate(routing) is None
    assert arc_flows(routing)[(0, 2)] == 1 + Fraction(2, 3) + Fraction(1, 4)
    assert arc_flows(routing)[(2, 0)] == 1 + tiny
    _assert_matches_reference(routing)
    paths[(2, 1)] = [((2, 0, 1), tiny), ((2, 1), 1 - 2 * tiny)]
    assert validate(routing) == "demand (2, 1) weights sum to %s, not 1" % (1 - tiny)
    _assert_matches_reference(routing)
    paths[(2, 1)] = [((2, 1), Fraction(1))]
    paths[(2, 0)] = [((2, 0), Fraction(1, 3)), ((2, 0), Fraction(1, 2))]
    assert validate(routing) == "demand (2, 0) weights sum to 5/6, not 1"
    _assert_matches_reference(routing)


def _triangle_routing(entries):
    """All demands of the triangle on their own edge at weight 1, but (0, 1)
    on ``entries``."""
    g = make_graph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    paths = {(s, t): [((s, t), Fraction(1))] for s in range(3) for t in range(3) if s != t}
    paths[(0, 1)] = entries
    return Routing(g, paths)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([((0, 1), 0.1), ((0, 2, 1), 0.2), ((0, 1), 0.7)],
         "demand (0, 1) weights sum to 36028797018963967/36028797018963968, not 1"),
        ([((0, "x", 1), Fraction(1))], "demand (0, 1) path 0 has non-integer vertex 'x'"),
        ([((0, 2.0, 1), Fraction(1))], "demand (0, 1) path 0 has non-integer vertex 2.0"),
        ([((0, 1), float("nan"))], "demand (0, 1) path 0 weight nan has no integer ratio"),
    ],
    ids=["float-weights", "string-vertex", "float-vertex", "nan-weight"],
)
def test_validate_reads_vertices_and_weights_as_the_flat_view_does(entries, message):
    routing = _triangle_routing(entries)
    assert validate(routing) == message
    with pytest.raises(ValueError) as info:
        congestion(routing)
    assert str(info.value) == "invalid routing: " + message


def test_demand_keys_must_fill_every_pair():
    triangle = _triangle_routing([])
    # the flat view reads the keys (0, 1, 2) and (0,) as the pairs (0, 1) and
    # (2, 0); every path matches its pair, but (2, 0) is read twice, (0, 2) never
    paths = {(0, 1, 2): [((0, 1), Fraction(1))], (0,): [((2, 0), Fraction(1))]}
    paths.update((key, entries) for key, entries in triangle.paths.items() if key[0] != 0)
    assert validate(Routing(triangle.graph, paths)) == "missing demand (0, 1)"


@pytest.mark.parametrize(
    "drop, add, message",
    [
        ([], [("a", 0)], "unexpected demand ('a', 0)"),
        ([], [("a", 0), (0, 0)], "unexpected demand (0, 0)"),
        # %d would print 1.5 as 1, a demand that is expected
        ([], [(0, 1.5)], "unexpected demand (0, 1.5)"),
        # (0, 1.0) == (0, 1) as a dict key, but the flat view reads no float
        ([(0, 1)], [(0, 1.0)], "missing demand (0, 1)"),
    ],
    ids=["string-key", "string-and-loop-keys", "fractional-key", "float-key"],
)
def test_validate_reads_demand_keys_as_the_flat_view_does(drop, add, message):
    routing = bitfix_routing(2)
    paths = {key: entries for key, entries in routing.paths.items() if key not in drop}
    paths.update((key, routing.paths[0, 1]) for key in add)
    routing = Routing(routing.graph, paths)
    assert validate(routing) == message
    with pytest.raises(ValueError) as info:
        congestion(routing)
    assert str(info.value) == "invalid routing: " + message


def test_one_vertex_routing_has_zero_congestion_and_no_bound():
    routing = Routing(make_graph(["a"], []), {})
    assert validate(routing) is None
    report = congestion(routing)
    assert report == CongestionReport(1, Fraction(0), Fraction(0), None)
    with pytest.raises(ValueError, match="^lower bound requires positive congestion$"):
        expansion_lower_bound(report)


def test_argmax_tie_follows_labels_not_indices():
    # every arc carries 1; index order puts (0, 1) first, label order ("a", "z")
    g = make_graph(["z", "a", "m"], [(0, 1), (1, 2)])
    paths = {
        (0, 1): [((0, 1), Fraction(1))],
        (1, 0): [((1, 0), Fraction(1))],
        (1, 2): [((1, 2), Fraction(1))],
        (2, 1): [((2, 1), Fraction(1))],
        (0, 2): [((0, 1, 2), Fraction(1))],
        (2, 0): [((2, 1, 0), Fraction(1))],
    }
    routing = Routing(g, paths)
    rep = congestion(routing)
    assert rep.argmax_arc == ("a", "m") and rep.max_arc_flow == 2
    _assert_matches_reference(routing)


def test_vertex_count_matches_the_built_routings():
    for d in range(1, 9):
        assert vertex_count("cube", d) == bitfix_routing(d).graph.n
    for d in range(3, 9):
        assert vertex_count("punctured", d) == punctured_routing(d).graph.n
    assert vertex_count("hexagon", 0) == hexagon_routing().graph.n
    # above the routed range every family counts as too large for a product
    assert vertex_count("cube", 99) == 2 ** (MAX_ROUTING_DIMENSION + 1)


def test_routing_of_one_factor_is_its_routing():
    _assert_same_routing(routing_of([("cube", 2)]), bitfix_routing(2))
    _assert_same_routing(routing_of([("punctured", 3)]), punctured_routing(3))
    _assert_same_routing(routing_of([("hexagon", 0)]), hexagon_routing())


def test_routing_of_folds_the_factors_with_product_routing():
    _assert_same_routing(routing_of([("cube", 1), ("hexagon", 0)]),
                         product_routing(bitfix_routing(1), hexagon_routing()))


def test_routing_of_is_exported_by_the_package():
    import halfint

    assert halfint.routing_of is routing_of
    assert "routing_of" in halfint.__all__


@pytest.mark.parametrize(
    "factors,message",
    [
        ([("cube", 10), ("cube", 1)], "product routings are limited to 1024 vertices"),
        ([("cube", 1), ("punctured", 11), ("cube", 0)], "product routings are limited"),
        ([("cube", 2), ("cube", 0)], "bitfix routing supported for 1 <= d <= 10"),
        ([("punctured", 2)], "punctured routing supported for 3 <= d <= 10"),
        ([], "^a routing needs at least one factor$"),
        ([("cubes", 2)], r"^bad factor \('cubes', 2\) \(expected a family cube, punctured "
                         r"or hexagon and an integer d\)$"),
        ([("cube", 2.5)], r"^bad factor \('cube', 2.5\) "),
        ([("cube", True)], r"^bad factor \('cube', True\) "),
        ([("cube", 10), ("cube", 10), ("hexagon", None)], r"^bad factor \('hexagon', None\) "),
    ],
    ids=["oversized", "oversized-before-range", "cube-range", "punctured-range", "empty",
         "unknown-family", "float-d", "bool-d", "malformed-before-oversized"],
)
def test_routing_of_checks_before_building(monkeypatch, factors, message):
    def unreachable(*args):
        raise AssertionError("a routing was built")

    for name in ("bitfix_routing", "punctured_routing", "hexagon_routing", "product_routing"):
        monkeypatch.setattr("halfint.flows." + name, unreachable)
    with pytest.raises(ValueError, match=message):
        routing_of(factors)


def test_product_routing_refuses_a_product_above_the_cap(monkeypatch):
    monkeypatch.setattr("halfint.flows.MAX_ROUTING_DIMENSION", 3)
    q2 = bitfix_routing(2)
    assert product_routing(bitfix_routing(1), q2).graph.n == 8
    with pytest.raises(ValueError, match="^product routings are limited to 8 vertices, "
                                         "the size of cube:3$"):
        product_routing(q2, q2)


# ------------------------------------------- construction reference

def _bitfix_reference_path(s, t, d):
    path = [s]
    for k in range(d):
        bit = 1 << (d - 1 - k)
        if (path[-1] ^ t) & bit:
            path.append(path[-1] ^ bit)
    return tuple(path)


def _reference_punctured_routing(d):
    """Index-map construction, kept as the reference for ``punctured_routing``."""
    origin = 0
    allones = (1 << d) - 1
    full = hypercube(d)
    keep = [v for v in range(1 << d) if v not in (origin, allones)]
    g = induced_subgraph(full, keep)
    new_index = {old: new for new, old in enumerate(keep)}
    paths = {}
    one = Fraction(1)
    for s in keep:
        for t in keep:
            if s == t:
                continue
            path = list(_bitfix_reference_path(s, t, d))
            for pos in range(1, len(path) - 1):
                if path[pos] == origin:
                    path[pos] = path[pos - 1] | path[pos + 1]
                elif path[pos] == allones:
                    path[pos] = path[pos - 1] & path[pos + 1]
            mapped = tuple(new_index[v] for v in path)
            paths[(new_index[s], new_index[t])] = [(mapped, one)]
    return Routing(g, paths)


def _reference_product_routing(rg, rh):
    """Three-loop construction (rows, columns, then cross pairs), kept as
    the reference for ``product_routing``."""
    g, h = rg.graph, rh.graph
    nh = h.n

    def idx(u, v):
        return u * nh + v

    paths = {}
    for u in range(g.n):
        for (v1, v2), entries in rh.paths.items():
            paths[(idx(u, v1), idx(u, v2))] = [
                (tuple(idx(u, x) for x in path), w) for path, w in entries
            ]
    for v in range(h.n):
        for (u1, u2), entries in rg.paths.items():
            paths[(idx(u1, v), idx(u2, v))] = [
                (tuple(idx(y, v) for y in path), w) for path, w in entries
            ]
    for (u1, u2) in rg.paths:
        for (v1, v2) in rh.paths:
            combined = []
            for hpath, hw in rh.paths[(v1, v2)]:
                first_leg = tuple(idx(u1, x) for x in hpath)
                for gpath, gw in rg.paths[(u1, u2)]:
                    second_leg = tuple(idx(y, v2) for y in gpath[1:])
                    combined.append((first_leg + second_leg, hw * gw))
            paths[(idx(u1, v1), idx(u2, v2))] = combined
    return Routing(cartesian_product(g, h), paths)


def _assert_same_routing(routing, reference):
    assert routing.paths == reference.paths
    assert routing.graph == reference.graph


@pytest.mark.parametrize("d", range(1, 9))
def test_bitfix_routing_matches_reference(d):
    n = 1 << d
    paths = {(s, t): [(_bitfix_reference_path(s, t, d), Fraction(1))]
             for s in range(n) for t in range(n) if s != t}
    _assert_same_routing(bitfix_routing(d), Routing(hypercube(d), paths))


@pytest.mark.parametrize("d", range(3, 9))
def test_punctured_routing_matches_index_map_reference(d):
    _assert_same_routing(punctured_routing(d), _reference_punctured_routing(d))


def test_product_routing_matches_three_loop_reference():
    factors = {"c6": hexagon_routing(), "p3": punctured_routing(3),
               "p4": punctured_routing(4), "q1": bitfix_routing(1),
               "q2": bitfix_routing(2), "q3": bitfix_routing(3)}
    pairs = [(a, b) for a in factors.values() for b in factors.values()
             if a.graph.n * b.graph.n <= 200]
    assert len(pairs) == 36
    for a, b in pairs:
        _assert_same_routing(product_routing(a, b), _reference_product_routing(a, b))
    q1, c6 = factors["q1"], factors["c6"]
    _assert_same_routing(
        product_routing(product_routing(q1, c6), q1),
        _reference_product_routing(_reference_product_routing(q1, c6), q1),
    )
