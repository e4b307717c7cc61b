"""Zonotope vertex enumeration, half-integrality, and graph recognition."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from halfint.cli import main
from halfint.graphs import cycle_graph, is_isomorphic_via, make_graph
from halfint.linalg import minimal_circuit, rank, rref
from halfint.simplex import lp_feasible
from halfint.zonotopes import (
    MAX_VERTEX_ENUM_GENERATORS,
    Decomposition,
    GeneratorSet,
    NotHalfIntegralError,
    canonicalize,
    coordinate_budget,
    graphical_generators,
    is_half_integral,
    realize_half_integral,
    recognize_graphical,
    vertices_with_signs,
    zonotope_vertices,
)
from halfint.zonotopes import _blocks_graph, _support

H = Fraction(1, 2)

HEXAGON_GENS = [(H, -H, 0), (0, H, -H), (H, 0, -H)]
OCTAGON_GENS = [
    (Fraction(1, 3), 0),
    (0, Fraction(1, 3)),
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(-1, 3)),
]


def test_canonicalize_normalizes_and_sorts():
    gs = canonicalize([(0, -1), (1, 0)])
    # sign flip makes the first nonzero coordinate positive
    assert gs.generators == ((0, 1), (1, 0))
    assert gs.dim == 2


def test_canonicalize_rejects_zero_and_collinear():
    with pytest.raises(ValueError):
        canonicalize([(0, 0)])
    with pytest.raises(ValueError):
        canonicalize([(1, 1), (-2, -2)])
    with pytest.raises(ValueError):
        canonicalize([(1, 2), (H, 1)])


def test_canonicalize_empty_needs_dim():
    with pytest.raises(ValueError):
        canonicalize([])
    assert canonicalize([], dim=3).generators == ()


def test_generator_set_json_round_trip():
    gs = canonicalize(HEXAGON_GENS)
    again = GeneratorSet.from_json(gs.to_json())
    assert again == gs


def test_vertices_single_generator():
    gs = canonicalize([(1, 2)])
    pairs = vertices_with_signs(gs)
    assert [(s, v) for s, v in pairs] == [
        ((0,), (0, 0)),
        ((1,), (1, 2)),
    ]


def test_vertices_empty_set_is_origin():
    gs = canonicalize([], dim=2)
    assert zonotope_vertices(gs).points == ((0, 0),)


def test_vertices_square():
    gs = canonicalize([(1, 0), (0, 1)])
    assert zonotope_vertices(gs).points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_vertices_guard():
    gens = [tuple(1 if i == k else 0 for i in range(25)) for k in range(21)]
    with pytest.raises(ValueError):
        vertices_with_signs(canonicalize(gens))
    assert MAX_VERTEX_ENUM_GENERATORS == 20


def _direction_lp_vertices(gs):
    """Reference enumeration: keep a sign vector when the direction LP
    sigma_k g_k . (c+ - c-) - s_k = 1, with c+, c-, s >= 0, is feasible."""
    gens = gs.generators
    n = len(gens)
    out = []
    for mask in range(1 << n):
        signs = tuple((mask >> k) & 1 for k in range(n))
        rows = []
        for k, g in enumerate(gens):
            sign = 1 if signs[k] else -1
            slack = [0] * n
            slack[k] = -1
            rows.append([sign * x for x in g] + [-sign * x for x in g] + slack)
        if lp_feasible(rows, [1] * n) is not None:
            vertex = tuple(
                sum((g[i] for k, g in enumerate(gens) if signs[k]), Fraction(0))
                for i in range(gs.dim)
            )
            out.append((signs, vertex))
    return out


def _random_generator_sets(rng, count):
    """Nonzero, pairwise non-collinear sets.  About a third of the draws
    put more than d generators into a plane of d = 3 or d = 4 space."""
    entries = [
        Fraction(x) for x in ("0", "1", "-1", "1/2", "-1/2", "1/3", "2", "-3/4")
    ]
    sets = []
    while len(sets) < count:
        if rng.random() < 0.35:
            d, span = rng.randint(3, 4), 2
            n = rng.randint(d + 1, 7)
        else:
            d = span = rng.randint(1, 4)
            n = rng.randint(1, 7)
        basis = [[rng.choice(entries) for _ in range(d)] for _ in range(span)]
        gens = []
        for _ in range(n):
            coeffs = [rng.choice(entries) for _ in range(span)]
            gens.append(tuple(
                sum((c * b[i] for c, b in zip(coeffs, basis)), Fraction(0))
                for i in range(d)
            ))
        try:
            sets.append(canonicalize(gens, dim=d))
        except ValueError:  # a zero or collinear draw
            continue
    return sets


def test_vertices_match_direction_lp_reference():
    sets = _random_generator_sets(random.Random(20261018), 300)
    lower = 0
    for gs in sets:
        assert vertices_with_signs(gs) == _direction_lp_vertices(gs), gs
        if len(gs) > gs.dim and rank(gs.generators) < gs.dim:
            lower += 1
    assert lower >= 60


@pytest.mark.parametrize("d,count", [(3, 6), (4, 14), (5, 30)])
def test_cycle_zonotope_vertex_counts(d, count):
    gs = graphical_generators(cycle_graph(d))
    halved = canonicalize([tuple(H * x for x in g) for g in gs.generators])
    assert len(zonotope_vertices(halved)) == count == 2**d - 2


def test_sign_vectors_of_cycle_miss_complementary_pair():
    gs = graphical_generators(cycle_graph(3))
    halved = canonicalize([tuple(H * x for x in g) for g in gs.generators])
    feasible = {s for s, _ in vertices_with_signs(halved)}
    missing = sorted(set((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)) - feasible)
    assert len(missing) == 2
    lo, hi = missing
    assert tuple(1 - x for x in lo) == hi


@pytest.mark.parametrize("d", [3, 4, 5])
def test_cycle_zonotope_is_punctured_cube(d):
    """Sign vectors of Z(C_d) biject with cube vertices minus an
    antipodal pair; XOR by one infeasible vector normalizes the pair to
    (all-zeros, all-ones), i.e. the puncture of the bit-fixing cube."""
    gs = graphical_generators(cycle_graph(d))
    halved = canonicalize([tuple(H * x for x in g) for g in gs.generators])
    pairs = vertices_with_signs(halved)
    feasible = [s for s, _ in pairs]
    missing = sorted(set(
        tuple((m >> k) & 1 for k in range(d)) for m in range(2**d)
    ) - set(feasible))
    assert len(missing) == 2
    shift = missing[0]

    def relabel(signs):
        return "".join(str(a ^ b) for a, b in zip(signs, shift))

    from halfint.flows import punctured_routing
    punctured = punctured_routing(d).graph
    # vertex sets match after the shift
    assert sorted(relabel(s) for s in feasible) == sorted(punctured.labels)
    # and sign vectors at Hamming distance 1 are exactly the cube edges
    edges = []
    labels = sorted(relabel(s) for s in feasible)
    index = {lab: i for i, lab in enumerate(labels)}
    for a in range(len(feasible)):
        for b in range(a + 1, len(feasible)):
            diff = sum(x != y for x, y in zip(feasible[a], feasible[b]))
            if diff == 1:
                edges.append((index[relabel(feasible[a])], index[relabel(feasible[b])]))
    zono_graph = make_graph(labels, edges)
    mapping = {lab: lab for lab in labels}
    assert is_isomorphic_via(zono_graph, punctured, mapping)


def test_coordinate_budget_octagon_fails_with_named_coordinate():
    ok, violations = coordinate_budget(canonicalize(OCTAGON_GENS))
    assert not ok
    messages = [msg for _, msg in violations]
    assert any("coordinate 0" in m for m in messages)
    coords = [i for i, _ in violations]
    assert 0 in coords and 1 in coords


def test_coordinate_budget_passes_hexagon():
    ok, violations = coordinate_budget(canonicalize(HEXAGON_GENS))
    assert ok and violations == []


def test_coordinate_budget_rejects_long_axis():
    ok, violations = coordinate_budget(canonicalize([(2, 0)]))
    assert not ok
    assert "coordinate 0" in violations[0][1]


def test_is_half_integral_hexagon():
    verdict, translation = is_half_integral(canonicalize(HEXAGON_GENS))
    assert verdict
    assert translation == (0, H, 1)


def test_is_half_integral_octagon():
    assert is_half_integral(canonicalize(OCTAGON_GENS)) == (False, None)


def test_is_half_integral_budget_pass_but_quarter():
    # passes the per-coordinate budget yet has an entry outside {0, +-1/2, +-1}
    gs = canonicalize([(Fraction(1, 4), 0), (0, 1)])
    assert coordinate_budget(gs)[0]
    assert is_half_integral(gs) == (False, None)


def _enumerated_half_integral(gs):
    """Reference: translate by the vertex minima, then test every vertex
    coordinate against {0, 1/2, 1}."""
    vertices = zonotope_vertices(gs).points
    translation = tuple(-min(v[i] for v in vertices) for i in range(gs.dim))
    for v in vertices:
        if any(x + t not in (0, H, 1) for x, t in zip(v, translation)):
            return False, None
    return True, translation


def _entry_sets(rng, count):
    """Sparse sets on d 1-5, n 1-6; half the draws take entries from
    {0, +-1/2, +-1} only, so many are half-integral."""
    wide = [Fraction(x) for x in ("1", "-1", "1/2", "-1/2", "1/3", "1/4", "2", "-3/2")]
    sets = []
    while len(sets) < count:
        d, n = rng.randint(1, 5), rng.randint(1, 6)
        pool = wide[:4] if rng.random() < 0.5 else wide
        gens = [
            tuple(rng.choice(pool) if rng.random() < 0.4 else 0 for _ in range(d))
            for _ in range(n)
        ]
        try:
            sets.append(canonicalize(gens, dim=d))
        except ValueError:  # a zero or collinear draw
            continue
    return sets


def _flipped_realizations(rng):
    """``realize_half_integral`` of every path/cycle union on <= 8
    vertices, with a random set of coordinates negated."""
    for cls in _component_classes(8):
        gs = realize_half_integral(_build_union(cls))
        flips = [rng.choice((1, -1)) for _ in range(gs.dim)]
        yield canonicalize([tuple(f * x for f, x in zip(flips, g)) for g in gs.generators])


def test_is_half_integral_matches_enumeration_reference():
    rng = random.Random(20261018)
    sets = _entry_sets(rng, 1500) + list(_flipped_realizations(rng))
    half, entries_only, budget_only = 0, 0, 0
    for gs in sets:
        expected = _enumerated_half_integral(gs)
        assert is_half_integral(gs) == expected, gs
        half += expected[0]
        entries_ok = all(x in (0, H, -H, 1, -1) for g in gs.generators for x in g)
        budget_ok = coordinate_budget(gs)[0]
        entries_only += budget_ok and not entries_ok
        budget_only += entries_ok and not budget_ok
    # each rule alone rejects some set, so dropping either one fails the test
    assert half >= 300 and entries_only >= 50 and budget_only >= 50


def test_half_integrality_runs_no_lp(monkeypatch):
    def refuse(*args):
        raise AssertionError("convex_combination called")

    monkeypatch.setattr("halfint.zonotopes.convex_combination", refuse)
    prism = [(H, -H, 0, 0), (0, H, -H, 0), (H, 0, -H, 0), (0, 0, 0, 1)]
    assert is_half_integral(canonicalize(HEXAGON_GENS)) == (True, (0, H, 1))
    assert is_half_integral(canonicalize(prism)) == (True, (0, H, 1, 0))
    quarter = canonicalize([(Fraction(1, 4), 0), (0, 1)])
    assert is_half_integral(quarter) == (False, None)
    assert recognize_graphical(canonicalize(HEXAGON_GENS)).component_profile() == ((3,), 0)
    assert recognize_graphical(canonicalize(prism)).component_profile() == ((3,), 1)
    with pytest.raises(NotHalfIntegralError, match="half-integral"):
        recognize_graphical(quarter)


def test_recognize_evaluates_the_budget_once(monkeypatch):
    calls = []

    def counted(gs):
        calls.append(gs)
        return coordinate_budget(gs)

    monkeypatch.setattr("halfint.zonotopes.coordinate_budget", counted)
    recognize_graphical(canonicalize(HEXAGON_GENS))
    assert len(calls) == 1


def test_recognize_cycle():
    dec = recognize_graphical(canonicalize(HEXAGON_GENS))
    assert dec.component_profile() == ((3,), 0)
    assert dec.circuit_blocks == ((0, 1, 2),)
    assert all(abs(c) == 1 for c in dec.circuit_coefficients[0])
    assert dec.independent_block == ()
    data = dec.to_json()
    assert data["components"] == [{"cycle": 3}]


def test_recognize_prism():
    # hexagon block plus one unit segment in a fresh coordinate
    gens = [(H, -H, 0, 0), (0, H, -H, 0), (H, 0, -H, 0), (0, 0, 0, 1)]
    dec = recognize_graphical(canonicalize(gens))
    assert dec.component_profile() == ((3,), 1)
    supports = [set(s) for s in dec.block_supports]
    assert supports[0] == {0, 1, 2} and supports[-1] == {3}


def test_recognize_cube_is_single_path_block():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    dec = recognize_graphical(canonicalize(gens))
    assert dec.component_profile() == ((), 3)


def test_recognize_rejects_octagon():
    with pytest.raises(NotHalfIntegralError, match="coordinate"):
        recognize_graphical(canonicalize(OCTAGON_GENS))


def test_recognize_rejects_quarter_generator():
    gs = canonicalize([(Fraction(1, 4), 0), (0, 1)])
    with pytest.raises(NotHalfIntegralError, match="half-integral"):
        recognize_graphical(gs)


# Inputs that reach recognize_graphical's guards once is_half_integral accepts them.
GUARDED = [
    ([(1, 0), (0, 1), (1, 2)],
     "circuit (0, 1, 2) has non-unit coefficients ['1', '1/2', '-1/2']"),
    ([*HEXAGON_GENS, (1, 0, 0)], "blocks share coordinates [0]"),
]


@pytest.mark.parametrize("gens,message", GUARDED, ids=["non-unit-circuit", "shared-coordinates"])
def test_recognize_guards_behind_half_integrality(monkeypatch, capsys, tmp_path, gens, message):
    # each input fails is_half_integral first; accepting it reaches the later guard
    monkeypatch.setattr("halfint.zonotopes.is_half_integral", lambda gs: (True, None))
    gs = canonicalize(gens)
    with pytest.raises(NotHalfIntegralError) as raised:
        recognize_graphical(gs)
    assert str(raised.value) == message
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gs.to_json()))
    assert main(["zono", "--action", "recognize", "--in", str(path)]) == 3
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def _peeled(gs):
    """Recognition past the half-integrality gate as it once ran, kept as
    the reference: a fresh ``minimal_circuit`` of the generators left
    after each circuit is removed."""
    gens = gs.generators
    remaining = list(range(len(gens)))
    blocks, coefficients = [], []
    while (found := minimal_circuit([gens[k] for k in remaining])) is not None:
        local, coeffs = found
        block = tuple(remaining[t] for t in local)
        if any(abs(c) != 1 for c in coeffs):
            raise NotHalfIntegralError(
                "circuit %s has non-unit coefficients %s" % (block, [str(c) for c in coeffs])
            )
        blocks.append(block)
        coefficients.append(coeffs)
        remaining = [k for k in remaining if k not in block]
    supports = [_support(gens, b) for b in blocks] + [_support(gens, remaining)]
    for a, b in combinations(supports, 2):
        if set(a) & set(b):
            raise NotHalfIntegralError("blocks share coordinates %s" % sorted(set(a) & set(b)))
    graph = _blocks_graph([len(b) for b in blocks], len(remaining))
    return Decomposition(tuple(blocks), tuple(coefficients), tuple(remaining), tuple(supports), graph)


def _seeded_unions(rng, count):
    """Path/cycle unions with 1-12 edges, realized, then with their
    coordinates shuffled and a random set of them negated."""
    while count:
        kinds = [rng.choice(("cycle", "path")) for _ in range(rng.randint(1, 4))]
        cls = [(k, rng.randint(3, 5) if k == "cycle" else rng.randint(2, 4)) for k in kinds]
        gs = realize_half_integral(_build_union(cls))
        if len(gs) > 12:
            continue
        order = rng.sample(range(gs.dim), gs.dim)
        flips = [rng.choice((1, -1)) for _ in order]
        count -= 1
        yield canonicalize([tuple(f * g[i] for f, i in zip(flips, order)) for g in gs.generators])


def test_recognize_matches_the_peeling_reference(monkeypatch):
    rng = random.Random(20261021)
    several = 0
    for gs in _seeded_unions(rng, 300):
        dec = recognize_graphical(gs)
        assert dec == _peeled(gs), gs
        several += len(dec.circuit_blocks) > 1
    assert several >= 50
    monkeypatch.setattr("halfint.zonotopes.is_half_integral", lambda gs: (True, None))
    for gens, message in GUARDED:
        gs = canonicalize(gens)
        for recognize in (recognize_graphical, _peeled):
            with pytest.raises(NotHalfIntegralError) as raised:
                recognize(gs)
            assert str(raised.value) == message


def test_recognize_reduces_once(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return rref(rows)

    monkeypatch.setattr("halfint.linalg.rref", counted)
    union = [("cycle", 3), ("cycle", 4), ("path", 3), ("cycle", 5)]
    dec = recognize_graphical(realize_half_integral(_build_union(union)))
    assert dec.component_profile() == ((3, 4, 5), 2)
    assert len(calls) == 1


def test_graphical_generators_are_edge_differences():
    g = cycle_graph(3)
    gs = graphical_generators(g)
    assert gs.dim == 3
    for vec in gs.generators:
        assert sorted(vec) == [-1, 0, 1]


def test_realize_c4_plus_p3():
    labels = ["c0", "c1", "c2", "c3", "p0", "p1", "p2"]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)]
    gs = realize_half_integral(make_graph(labels, edges))
    assert gs.dim == 6
    assert len(gs.generators) == 6
    verdict, _ = is_half_integral(gs)
    assert verdict


def test_realize_exact_generators_path_before_cycle():
    # components in order of smallest vertex: path 0-1-2, isolated 3,
    # triangle 4-5-6; the path takes coordinates 0-1, the triangle 2-4
    g = make_graph("abcdefg", [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)])
    gs = realize_half_integral(g)
    assert gs.dim == 5
    assert gs.generators == (
        (0, 0, 0, H, -H),
        (0, 0, H, -H, 0),
        (0, 0, H, 0, -H),
        (0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0),
    )


def test_realize_rejects_edgeless():
    with pytest.raises(ValueError):
        realize_half_integral(make_graph(["a", "b"], []))


def _component_classes(max_vertices):
    """Iso classes of disjoint unions of paths (>=1 edge) and cycles."""
    kinds = [("path", k) for k in range(2, max_vertices + 1)]
    kinds += [("cycle", k) for k in range(3, max_vertices + 1)]

    classes = []

    def extend(start, chosen, used):
        for idx in range(start, len(kinds)):
            kind, size = kinds[idx]
            if used + size > max_vertices:
                continue
            chosen.append((kind, size))
            classes.append(tuple(chosen))
            extend(idx, chosen, used + size)
            chosen.pop()

    extend(0, [], 0)
    return classes


def _build_union(cls):
    labels = []
    edges = []
    offset = 0
    for kind, size in cls:
        labels.extend("v%d" % (offset + i) for i in range(size))
        if kind == "cycle":
            edges.extend((offset + i, offset + (i + 1) % size) for i in range(size))
        else:
            edges.extend((offset + i, offset + i + 1) for i in range(size - 1))
        offset += size
    return make_graph(labels, edges)


def test_union_enumeration_size():
    assert len(_component_classes(8)) == 45


def test_round_trip_all_unions_up_to_8_vertices():
    from halfint.graphs import cycle_path_profile

    for cls in _component_classes(8):
        g = _build_union(cls)
        gs = realize_half_integral(g)
        dec = recognize_graphical(gs)
        assert dec.component_profile() == cycle_path_profile(g), cls
        # circuit certificates: +-1 coefficients, pairwise disjoint support
        for coeffs in dec.circuit_coefficients:
            assert all(abs(c) == 1 for c in coeffs)
        supports = [set(s) for s in dec.block_supports]
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: canonicalize([], dim=0), "ambient dimension must be positive"),
        (lambda: graphical_generators(make_graph([], [])), "graph must have at least one vertex"),
    ],
    ids=["dimension-0", "no-vertices"],
)
def test_argument_guards(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()
