"""Top-level acceptance checks, one test per published claim.

Each test performs the full computation it certifies (no cached
results) and registers its verdict with the conftest registry, which
prints a PASS/FAIL line per criterion after the run.  The slowest item
is the d=7 skeleton (87,990 vertex pairs, of which 16,660 need a linear
program); everything else is seconds.
"""

import hashlib
import json
from fractions import Fraction
from itertools import permutations

import numpy as np
from conftest import record_criterion

from halfint.flows import (
    arc_flows,
    bitfix_routing,
    congestion,
    expansion_lower_bound,
    hexagon_routing,
    product_routing,
    punctured_routing,
    validate,
)
from halfint.graphs import (
    cycle_graph,
    expansion_bruteforce,
    hypercube,
    is_isomorphic_via,
    make_graph,
)
from halfint.skeleton import PointSet, hull_vertices, skeleton_graph, skeleton_report
from halfint.sparse_cut import (
    build,
    central_binomial_within_bound,
    crossing_edges,
    cut_report,
    enumerated_counts,
    vertex_count_closed_form,
)
from halfint.zonotopes import (
    canonicalize,
    coordinate_budget,
    graphical_generators,
    is_half_integral,
    realize_half_integral,
    recognize_graphical,
    vertices_with_signs,
)

H = Fraction(1, 2)


def _criterion(number, title):
    """Decorator: run the check, record PASS/FAIL, re-raise on failure."""

    def wrap(fn):
        def run():
            ok = False
            try:
                fn()
                ok = True
            finally:
                record_criterion(number, title, ok)

        run.__name__ = fn.__name__
        return run

    return wrap


@_criterion(1, "vertex counts match closed forms at d = 3, 7, 11")
def test_criterion_1_vertex_counts():
    expected = {3: 12, 7: 420, 11: 21252}
    for d, total in expected.items():
        closed = vertex_count_closed_form(d)
        assert sum(closed) == total
        assert enumerated_counts(d) == closed
        assert len(build(d).vertices) == total


@_criterion(2, "every constructed point is a hull vertex at d = 3 and 7")
def test_criterion_2_all_points_are_vertices():
    for d in (3, 7):
        pset = build(d).vertices
        assert hull_vertices(pset) == list(range(len(pset)))


@_criterion(3, "skeleton edges straddling the slab = crossing edges (6 at d=3, 140 at d=7)")
def test_criterion_3_straddling_edges_match():
    expected_counts = {3: 6, 7: 140}
    for d in (3, 7):
        inst = build(d)
        graph = skeleton_graph(inst.vertices)
        labels = graph.labels
        half = Fraction(d, 2)

        def level(i):
            return sum(Fraction(x) for x in labels[i].split(","))

        straddling = {
            frozenset((labels[a], labels[b]))
            for a, b in graph.sorted_edges()
            if (level(a) < half) != (level(b) < half)
        }
        crossing = {
            frozenset(
                (",".join(str(c) for c in u), ",".join(str(c) for c in v))
            )
            for u, v in crossing_edges(d)
        }
        assert len(straddling) == expected_counts[d]
        assert straddling == crossing
    # The bytes `halfint sparsecut --d 7 --report skeleton` writes for the
    # last skeleton: every vertex label and every edge of P_7.
    stdout = json.dumps(skeleton_report(inst.vertices, graph), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "533582780b1832ec18aa2597c4e172ec69e3946fbac924e4f60b16bcceeba038"
    )


@_criterion(4, "cut-ratio trajectory dips below d/sqrt(2^d) first at d = 19")
def test_criterion_4_trajectory():
    ratios = {
        7: Fraction(2, 3),
        11: Fraction(2772, 10626),
        15: Fraction(51480, 604890),
        19: Fraction(923780, 35750286),
    }
    verdicts = {}
    squares = []
    for d in sorted(ratios):
        report = cut_report(d)
        assert report.ratio == ratios[d]
        verdicts[d] = report.below_benchmark
        squares.append(report.ratio ** 2 * 2**d / d**2)
    assert verdicts == {7: False, 11: False, 15: False, 19: True}
    # the squared comparison ratio falls strictly along the sampled arc
    assert all(a > b for a, b in zip(squares, squares[1:]))
    for d in ratios:
        assert central_binomial_within_bound(d)


@_criterion(5, "bit-fixing arcs all carry 2^(d-1); cube expansion equals the bound 1")
def test_criterion_5_bitfix():
    for d in range(1, 7):
        routing = bitfix_routing(d)
        assert validate(routing) is None
        flows = arc_flows(routing)
        assert set(flows.values()) == {Fraction(2 ** (d - 1))}
        report = congestion(routing)
        assert report.congestion == H
        assert expansion_lower_bound(report) == 1
    for d in range(1, 5):
        value, _ = expansion_bruteforce(hypercube(d))
        assert value == 1


@_criterion(6, "punctured-cube routing certified; Z(C_d) is the punctured cube; h(punctured Q5) = 14/15")
def test_criterion_6_punctured():
    for d in (4, 5, 6):
        routing = punctured_routing(d)
        assert validate(routing) is None
        report = congestion(routing)
        assert report.max_arc_flow <= 3 * 2 ** (d - 2)
        assert report.congestion <= Fraction(6, 7)
    # exact check of the 30-vertex punctured Q5 against its certificate
    routing = punctured_routing(5)
    bound = expansion_lower_bound(congestion(routing))
    assert bound == Fraction(15, 23)
    value, witness = expansion_bruteforce(routing.graph)
    assert value == Fraction(14, 15) and witness.subset_size == 15
    assert value >= bound
    for d in (3, 4, 5):
        gens = graphical_generators(cycle_graph(d))
        halved = canonicalize([tuple(H * x for x in g) for g in gens.generators])
        pairs = vertices_with_signs(halved)
        assert len(pairs) == 2**d - 2
        feasible = [s for s, _ in pairs]
        missing = sorted(
            set(tuple((m >> k) & 1 for k in range(d)) for m in range(2**d))
            - set(feasible)
        )
        assert len(missing) == 2
        assert tuple(1 - x for x in missing[0]) == missing[1]
        shift = missing[0]
        # explicit witness map: XOR with one infeasible sign vector
        labels = sorted(
            "".join(str(a ^ b) for a, b in zip(s, shift)) for s in feasible
        )
        index = {lab: i for i, lab in enumerate(labels)}
        edges = [
            (index[la], index[lb])
            for i, la in enumerate(labels)
            for lb in labels[i + 1 :]
            if sum(x != y for x, y in zip(la, lb)) == 1
        ]
        sign_graph = make_graph(labels, edges)
        punctured = punctured_routing(d).graph
        assert is_isomorphic_via(
            sign_graph, punctured, {lab: lab for lab in labels}
        )


@_criterion(7, "hexagon congestion exactly 3/4; h(C6) = 2/3 meets 1/(2*3/4)")
def test_criterion_7_hexagon():
    report = congestion(hexagon_routing())
    assert report.congestion == Fraction(3, 4)
    bound = expansion_lower_bound(report)
    assert bound == Fraction(2, 3)
    value, _ = expansion_bruteforce(cycle_graph(6))
    assert value == Fraction(2, 3)
    assert value >= bound


def _cube_subset_orbits(d):
    """Smallest bitmask of each orbit of vertex subsets of {0,1}^d under
    the 2^d d! cube symmetries; point p has coordinate k = (p >> k) & 1
    and is bit p of a mask."""
    points = np.arange(1 << d)
    masks = np.arange(1 << (1 << d))
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    canonical = masks.copy()
    for perm in permutations(range(d)):
        moved = sum(((points >> k) & 1) << perm[k] for k in range(d))
        for flip in range(1 << d):
            image = 1 << (moved ^ flip)  # image of each single point, as a mask
            tables = [byte_bits @ image[i : i + 8] for i in range(0, 1 << d, 8)]
            mapped = sum(table[(masks >> 8 * i) & 255] for i, table in enumerate(tables))
            np.minimum(canonical, mapped, out=canonical)
    return masks[canonical == masks]


def test_zero_one_polytopes_up_to_dimension_4_expand():
    # Mihai and Vazirani conjecture h >= 1 for every 0/1 polytope; the
    # paper refutes it with half-integral ones (the hexagon above has
    # h = 2/3).  Up to symmetry, every 0/1 polytope in R^d, d <= 4, is
    # the hull of one of these vertex sets, and none is a counterexample.
    orbits = _cube_subset_orbits(4)
    assert len(orbits) == 402
    values, full_dimensional = [], 0
    for mask in orbits.tolist():
        points = [[(p >> k) & 1 for k in range(4)] for p in range(16) if (mask >> p) & 1]
        if len(points) < 2:
            continue
        full_dimensional += np.linalg.matrix_rank(np.array(points[1:]) - points[0]) == 4
        graph = skeleton_graph(PointSet(4, tuple(tuple(map(Fraction, p)) for p in points)))
        values.append(expansion_bruteforce(graph)[0])
    assert full_dimensional == 347
    assert min(values) == 1


@_criterion(8, "all products up to 24 vertices: congestion <= 6/7, expansion >= 7/12")
def test_criterion_8_products():
    base = {
        "q1": bitfix_routing(1),
        "q2": bitfix_routing(2),
        "q3": bitfix_routing(3),
        "c6": hexagon_routing(),
        "p4": punctured_routing(4),
    }
    sizes = {name: r.graph.n for name, r in base.items()}
    names = sorted(base)

    combos = []

    def extend(start, chosen, vertices):
        combos.append(tuple(chosen))
        for idx in range(start, len(names)):
            name = names[idx]
            if vertices * sizes[name] <= 24:
                chosen.append(name)
                extend(idx, chosen, vertices * sizes[name])
                chosen.pop()

    extend(0, [], 1)
    combos = [c for c in combos if c]
    assert len(combos) == 15

    for combo in combos:
        routing = base[combo[0]]
        for name in combo[1:]:
            routing = product_routing(routing, base[name])
        assert validate(routing) is None
        rho = congestion(routing).congestion
        factor_max = max(congestion(base[name]).congestion for name in combo)
        assert rho <= factor_max <= Fraction(6, 7)
        value, _ = expansion_bruteforce(routing.graph)
        assert value >= Fraction(7, 12), combo


@_criterion(9, "recognize(realize(g)) round-trips every path/cycle union on <= 8 vertices")
def test_criterion_9_round_trip():
    from halfint.graphs import cycle_path_profile

    kinds = [("path", k) for k in range(2, 9)]
    kinds += [("cycle", k) for k in range(3, 9)]
    classes = []

    def extend(start, chosen, used):
        for idx in range(start, len(kinds)):
            kind, size = kinds[idx]
            if used + size > 8:
                continue
            chosen.append((kind, size))
            classes.append(tuple(chosen))
            extend(idx, chosen, used + size)
            chosen.pop()

    extend(0, [], 0)
    assert len(classes) == 45  # covers every union class on <= 8 vertices

    for cls in classes:
        labels = []
        edges = []
        offset = 0
        for kind, size in cls:
            labels.extend("v%d" % (offset + i) for i in range(size))
            if kind == "cycle":
                edges.extend(
                    (offset + i, offset + (i + 1) % size) for i in range(size)
                )
            else:
                edges.extend((offset + i, offset + i + 1) for i in range(size - 1))
            offset += size
        graph = make_graph(labels, edges)
        decomposition = recognize_graphical(realize_half_integral(graph))
        assert decomposition.component_profile() == cycle_path_profile(graph), cls
        for coeffs in decomposition.circuit_coefficients:
            assert all(abs(c) == 1 for c in coeffs)
        supports = [set(s) for s in decomposition.block_supports]
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])


@_criterion(10, "third-integral octagon rejected by budget and half-integrality check")
def test_criterion_10_octagon_negative_control():
    gens = canonicalize(
        [
            (Fraction(1, 3), 0),
            (0, Fraction(1, 3)),
            (Fraction(1, 3), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(-1, 3)),
        ]
    )
    ok, violations = coordinate_budget(gens)
    assert not ok
    assert violations and all("coordinate" in msg for _, msg in violations)
    assert is_half_integral(gens) == (False, None)
