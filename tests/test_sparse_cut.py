"""The low-expansion polytope family: counts, cuts, and the d=3 skeleton."""

from fractions import Fraction

import pytest

from halfint.graphs import expansion_bruteforce
from halfint.rationals import HALF
from halfint.skeleton import skeleton_graph
from halfint.sparse_cut import (
    build,
    central_binomial_within_bound,
    counts_to_json,
    crossing_edge_count,
    crossing_edges,
    cut_report,
    enumerated_counts,
    is_valid_dimension,
    iter_vertices,
    vertex_count_closed_form,
)


@pytest.mark.parametrize("d", [2, 4, 5, 6, 9, -3, 0])
def test_invalid_dimensions_rejected(d):
    assert not is_valid_dimension(d)
    with pytest.raises(ValueError):
        build(d)


def test_build_guard_above_enumeration_limit():
    with pytest.raises(ValueError):
        build(15)
    # closed forms still work there
    integral, centers = vertex_count_closed_form(15)
    assert integral + centers == 2 * 604890


@pytest.mark.parametrize(
    "d,total", [(3, 12), (7, 420), (11, 21252)]
)
def test_vertex_counts_closed_form_vs_enumeration(d, total):
    closed = vertex_count_closed_form(d)
    assert sum(closed) == total
    assert enumerated_counts(d) == closed
    if d <= 7:
        assert len(build(d).vertices) == total


def test_vertex_coordinates_shape():
    inst = build(7)
    # the slab (d-1)/2 <= sum <= (d+1)/2 at d = 7
    low, high = 3, 4
    for p in inst.vertices.points:
        halves = sum(1 for c in p if c == HALF)
        total = sum(p)
        if halves:
            assert halves == 3
            # center sums stay strictly outside the slab
            assert total < low or total > high
        else:
            assert total in (low, high)
        assert all(c in (0, HALF, 1) for c in p)


def test_vertex_order_is_deterministic():
    first = list(iter_vertices(3))
    second = list(iter_vertices(3))
    assert first == second
    assert len(set(first)) == len(first)


@pytest.mark.parametrize(
    "d,count", [(3, 6), (7, 140), (11, 2772), (15, 51480), (19, 923780)]
)
def test_crossing_edge_count(d, count):
    assert crossing_edge_count(d) == count


def test_crossing_edges_are_cube_edges_between_levels():
    pairs = crossing_edges(3)
    assert len(pairs) == 6
    for u, v in pairs:
        assert sum(u) == 1 and sum(v) == 2
        assert sum(1 for a, b in zip(u, v) if a != b) == 1


@pytest.mark.parametrize(
    "d,ratio",
    [
        (7, Fraction(2, 3)),
        (11, Fraction(6, 23)),
        (15, Fraction(4, 47)),
        (19, Fraction(10, 387)),
    ],
)
def test_cut_ratios(d, ratio):
    report = cut_report(d)
    assert report.ratio == ratio
    assert report.subset_size * 2 == sum(vertex_count_closed_form(d))
    assert report.boundary_size == crossing_edge_count(d)


def test_benchmark_crossing_first_at_19():
    # squared comparison ratio^2 2^d vs d^2 is exact; among the sampled
    # dimensions the ratio dips below d/sqrt(2^d) exactly from d=19 on
    verdicts = {d: cut_report(d).below_benchmark for d in (7, 11, 15, 19)}
    assert verdicts == {7: False, 11: False, 15: False, 19: True}


def test_trajectory_strictly_decreasing():
    # (ratio / benchmark)^2 = ratio^2 2^d / d^2 falls monotonically
    squares = [
        cut_report(d).ratio ** 2 * 2**d / d**2 for d in (7, 11, 15, 19)
    ]
    assert all(a > b for a, b in zip(squares, squares[1:]))
    assert squares[-1] < 1 <= squares[-2]


@pytest.mark.parametrize("d", [3, 7, 11, 15, 19, 23])
def test_central_binomial_bound(d):
    assert central_binomial_within_bound(d)


def test_counts_json():
    data = counts_to_json(7)
    assert data == {
        "d": 7,
        "integral_vertices": 70,
        "center_vertices": 350,
        "total": 420,
        "crossing_edges": 140,
    }


def test_d3_skeleton_golden():
    inst = build(3)
    g = skeleton_graph(inst.vertices)
    assert g.n == 12
    assert len(g.edges) == 18

    # edges straddling the slab are exactly the crossing cube edges
    labels = g.labels
    def level(i):
        return sum(Fraction(x) for x in labels[i].split(","))
    straddling = {
        frozenset((labels[a], labels[b]))
        for a, b in g.sorted_edges()
        if (level(a) <= Fraction(3, 2)) != (level(b) <= Fraction(3, 2))
    }
    crossing = {
        frozenset((",".join(str(c) for c in u), ",".join(str(c) for c in v)))
        for u, v in crossing_edges(3)
    }
    assert straddling == crossing

    value, witness = expansion_bruteforce(g)
    assert value == Fraction(2, 3)
    assert witness.boundary_size == 4 and witness.subset_size == 6
