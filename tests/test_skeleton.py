"""Hull vertex and adjacency oracles on shapes with known skeletons."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from halfint.simplex import hull_system, lp_maximize, prune_candidates
from halfint.skeleton import (
    PointSet,
    hull_edges,
    hull_vertices,
    skeleton_graph,
    skeleton_report,
)
from halfint.sparse_cut import iter_vertices

H = Fraction(1, 2)


def _points(dim, points):
    """PointSet of ``points``, each coordinate read as a Fraction."""
    return PointSet(dim, tuple(tuple(Fraction(c) for c in p) for p in points))


def _cube_points(d):
    return _points(
        d, [tuple((v >> k) & 1 for k in range(d)) for v in range(2**d)]
    )


def test_pointset_validation():
    with pytest.raises(ValueError):
        _points(2, [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        _points(2, [(0, 0, 0)])


def test_pointset_to_json_and_labels():
    ps = _points(2, [(0, H), (1, 0)])
    assert ps.to_json() == {"dim": 2, "points": [["0", "1/2"], ["1", "0"]]}
    assert ps.labels == ("0,1/2", "1,0")


def test_hull_vertices_drops_interior_and_segment_points():
    ps = _points(2, [(0, 0), (2, 0), (0, 2), (1, 1), (H, H)])
    verts = hull_vertices(ps)
    # (1,1) is the midpoint of the hypotenuse, (1/2,1/2) is interior
    assert verts == [0, 1, 2]


def test_hull_vertices_all_of_simplex():
    ps = _points(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert hull_vertices(ps) == [0, 1, 2, 3]
    # a single point is a 0-simplex: its own hull vertex, with no edges
    point = _points(2, [(H, 1)])
    assert hull_vertices(point) == [0]
    assert hull_edges(point) == []


def test_hull_edges_requires_vertex_input():
    ps = _points(2, [(0, 0), (2, 0), (0, 2), (1, 1)])
    with pytest.raises(ValueError, match="1,1"):
        hull_edges(ps)


def test_square_edges_exclude_diagonals():
    ps = _points(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert hull_edges(ps) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_pentagon_diagonals_rejected():
    # irregular pentagon where a diagonal's midpoint leaves the hull of
    # the other three vertices; the adjacency oracle must still say "no"
    ps = _points(2, [(0, 0), (1, 0), (1, H), (H, 1), (0, 1)])
    edges = hull_edges(ps)
    assert edges == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_two_points_form_an_edge():
    ps = _points(2, [(0, 0), (1, 1)])
    assert hull_edges(ps) == [(0, 1)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_skeleton(d):
    g = skeleton_graph(_cube_points(d))
    assert g.n == 2**d
    assert len(g.edges) == d * 2 ** (d - 1)
    assert all(len(g.adjacency()[v]) == d for v in range(g.n))


def test_octahedron_skeleton():
    pts = []
    for k in range(3):
        for s in (1, -1):
            p = [0, 0, 0]
            p[k] = s
            pts.append(tuple(p))
    g = skeleton_graph(_points(3, pts))
    # every pair except the three antipodal ones
    assert len(g.edges) == 12
    assert all(len(g.adjacency()[v]) == 4 for v in range(6))


def test_skeleton_report_shape():
    ps = _points(2, [(0, 0), (1, 0), (0, 1)])
    g = skeleton_graph(ps)
    report = skeleton_report(ps, g)
    assert report["vertex_count"] == 3
    assert report["edge_count"] == 3
    assert report["edges"] == [[0, 1], [0, 2], [1, 2]]


def test_edges_ignore_scaling_by_thirds_and_negative_shift():
    # the oracle scales coordinates to integers; a prism scaled by 1/3 and
    # shifted by -1 has thirds and negative coordinates, and the same edges
    prism = [(x, y, z) for z in (0, 1) for x, y in ((0, 0), (1, 0), (0, 1))]
    moved = [tuple(Fraction(c, 3) - 1 for c in p) for p in prism]
    expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    assert hull_edges(_points(3, prism)) == expected
    assert hull_edges(_points(3, moved)) == expected


def _edges_from_phase1(pset):
    """Edges by one LP per pair over all points, from phase 1 (test-local).

    No pruning, no shared-sum filter and no ``start``: a pair is an
    edge iff the exact maximum of the weight off the pair is zero.
    """
    pts = pset.points
    edges = []
    for i, j in combinations(range(len(pts)), 2):
        target = tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
        rows, rhs = hull_system(target, pts, list(range(len(pts))))
        objective = [0 if k in (i, j) else 1 for k in range(len(pts))]
        value, _ = lp_maximize(rows, rhs, objective)
        if value == 0:
            edges.append((i, j))
    return edges


def _family_point_sets():
    """Seeded vertex subsets of P_7 and P_11, and faces of P_7."""
    rng = random.Random(20260314)
    p7, p11 = list(iter_vertices(7)), list(iter_vertices(11))
    sets = [PointSet(7, tuple(rng.sample(p7, rng.randint(8, 14)))) for _ in range(20)]
    sets += [PointSet(11, tuple(rng.sample(p11, rng.randint(8, 12)))) for _ in range(10)]
    for _ in range(6):
        coords = rng.sample(range(7), 3)
        values = [rng.randint(0, 1) for _ in coords]
        face = [p for p in p7 if all(p[c] == v for c, v in zip(coords, values))]
        sets.append(PointSet(7, tuple(face)))
    return sets


def test_edges_started_at_the_midpoint_match_phase1_edges(monkeypatch):
    starts = []

    def recording(*args, **kwargs):
        starts.append(kwargs.get("start"))
        return lp_maximize(*args, **kwargs)

    monkeypatch.setattr("halfint.skeleton.lp_maximize", recording)
    edge_count = pair_count = 0
    for pset in _family_point_sets():
        edges = hull_edges(pset)
        assert edges == _edges_from_phase1(pset)
        edge_count += len(edges)
        pair_count += len(pset) * (len(pset) - 1) // 2
    assert starts and None not in starts
    assert 0 < edge_count < pair_count


def test_pairs_pruned_to_three_candidates_are_edges():
    # _adjacent answers "edge" without an LP when pruning leaves the pair
    # plus one point; the full LP on the pruned system must agree.
    rng = random.Random(20261019)
    p7, p11 = list(iter_vertices(7)), list(iter_vertices(11))
    sets = [PointSet(7, tuple(rng.sample(p7, rng.randint(20, 30)))) for _ in range(6)]
    sets += [PointSet(11, tuple(rng.sample(p11, rng.randint(20, 30)))) for _ in range(6)]
    triples = 0
    for pset in sets + _family_point_sets():
        pts = pset.points
        for i, j in combinations(range(len(pts)), 2):
            target = tuple((a + b) / 2 for a, b in zip(pts[i], pts[j]))
            active = prune_candidates(target, pts, list(range(len(pts))))
            if len(active) != 3:
                continue
            rows, rhs = hull_system(target, pts, active)
            objective = [0 if k in (i, j) else 1 for k in active]
            assert lp_maximize(rows, rhs, objective)[0] == 0
            triples += 1
    assert triples > 100
