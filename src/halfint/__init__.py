"""Exact tools for half-integral polytopes, zonotopes, and expansion.

Everything computes over the rationals: polytope skeletons come from
exact linear programs, graph expansion from exhaustive cut scans, and
flow congestion from explicitly routed paths, so every reported number
is a certificate rather than an estimate.
"""

from .graphs import (
    CutReport,
    Graph,
    cartesian_product,
    cut_ratio,
    cycle_graph,
    cycle_path_profile,
    expansion_bruteforce,
    hypercube,
    is_isomorphic_via,
    make_graph,
    path_graph,
)
from .skeleton import PointSet, hull_edges, hull_vertices, skeleton_graph
from .sparse_cut import (
    SparseCutInstance,
    SparseCutReport,
    build,
    central_binomial_within_bound,
    crossing_edge_count,
    crossing_edges,
    cut_report,
    vertex_count_closed_form,
)
from .zonotopes import (
    Decomposition,
    GeneratorSet,
    NotHalfIntegralError,
    canonicalize,
    coordinate_budget,
    is_half_integral,
    realize_half_integral,
    recognize_graphical,
    zonotope_vertices,
)
from .flows import (
    CongestionReport,
    Routing,
    bitfix_routing,
    congestion,
    expansion_lower_bound,
    hexagon_routing,
    product_routing,
    punctured_routing,
    routing_of,
)

__all__ = [
    "CongestionReport",
    "CutReport",
    "Decomposition",
    "GeneratorSet",
    "Graph",
    "NotHalfIntegralError",
    "PointSet",
    "Routing",
    "SparseCutInstance",
    "SparseCutReport",
    "bitfix_routing",
    "build",
    "canonicalize",
    "cartesian_product",
    "central_binomial_within_bound",
    "congestion",
    "coordinate_budget",
    "crossing_edge_count",
    "crossing_edges",
    "cut_ratio",
    "cut_report",
    "cycle_graph",
    "cycle_path_profile",
    "expansion_bruteforce",
    "expansion_lower_bound",
    "hexagon_routing",
    "hull_edges",
    "hull_vertices",
    "hypercube",
    "is_half_integral",
    "is_isomorphic_via",
    "make_graph",
    "path_graph",
    "product_routing",
    "punctured_routing",
    "realize_half_integral",
    "recognize_graphical",
    "routing_of",
    "skeleton_graph",
    "vertex_count_closed_form",
    "zonotope_vertices",
]
