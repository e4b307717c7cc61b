"""A family of half-integral polytopes with a provably sparse slab cut.

For each dimension d with d = 3 (mod 4), the vertex set mixes two kinds
of points in the unit cube:

* the 0/1 vectors whose coordinate sum is (d-1)/2 or (d+1)/2, and
* the centers of the (d-1)/2-dimensional cube faces that lie outside
  the slab (d-1)/2 <= sum <= (d+1)/2 (these centers have exactly
  (d-1)/2 coordinates equal to 1/2 and the rest 0/1).

Splitting the vertices at coordinate sum d/2 gives a balanced cut whose
boundary consists solely of the cube edges joining the two middle 0/1
levels.  The ratio boundary/side shrinks fast enough that it drops
below d / sqrt(2^d) from d = 19 on, which is what makes the family a
low-expansion example.  All counts and comparisons here are closed-form
and exact; the square root is handled by comparing squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Mapping

from .rationals import HALF, ONE, ZERO
from .skeleton import PointSet

MAX_BUILD_DIMENSION = 11

# Rational bracket around pi, wide enough to be safe and tight enough
# to decide every comparison that appears here.
PI_LOW = Fraction(355, 113) - Fraction(1, 10**6)
PI_HIGH = Fraction(355, 113)


def is_valid_dimension(d: int) -> bool:
    return d >= 3 and d % 4 == 3


def _require_valid(d: int) -> None:
    if not is_valid_dimension(d):
        raise ValueError(
            "dimension must be congruent to 3 mod 4 and at least 3, got %d" % d
        )


@dataclass(frozen=True)
class SparseCutInstance:
    d: int
    vertices: PointSet


def iter_vertices(d: int) -> Iterator[tuple[Fraction, ...]]:
    """Yield the vertex set in a fixed deterministic order."""
    _require_valid(d)
    low = (d - 1) // 2
    high = (d + 1) // 2
    for level in (low, high):
        for ones in combinations(range(d), level):
            ones_set = set(ones)
            yield tuple(ONE if i in ones_set else ZERO for i in range(d))
    # Face centers: (d-1)/2 coordinates equal 1/2, the remaining
    # (d+1)/2 coordinates 0/1 with k ones; the sum k + (d-1)/4 lies in
    # the slab exactly when k = (d+1)/4, so that k is excluded.
    banned = (d + 1) // 4
    for half_support in combinations(range(d), low):
        half_set = set(half_support)
        rest = [i for i in range(d) if i not in half_set]
        for k in range(len(rest) + 1):
            if k == banned:
                continue
            for ones in combinations(rest, k):
                ones_set = set(ones)
                yield tuple(
                    HALF if i in half_set else (ONE if i in ones_set else ZERO)
                    for i in range(d)
                )


def build(d: int) -> SparseCutInstance:
    _require_valid(d)
    if d > MAX_BUILD_DIMENSION:
        raise ValueError(
            "full enumeration guarded at d <= %d; closed forms cover larger d"
            % MAX_BUILD_DIMENSION
        )
    return SparseCutInstance(d=d, vertices=PointSet(d, tuple(iter_vertices(d))))


def vertex_count_closed_form(d: int) -> tuple[int, int]:
    """(number of 0/1 vertices, number of face-center vertices)."""
    _require_valid(d)
    integral = math.comb(d + 1, (d + 1) // 2)
    centers = math.comb(d, (d - 1) // 2) * (
        2 ** ((d + 1) // 2) - math.comb((d + 1) // 2, (d + 1) // 4)
    )
    return integral, centers


def enumerated_counts(d: int) -> tuple[int, int]:
    """Count vertices by streaming enumeration (no storage)."""
    _require_valid(d)
    integral = 0
    centers = 0
    for p in iter_vertices(d):
        if any(c == HALF for c in p):
            centers += 1
        else:
            integral += 1
    return integral, centers


def crossing_edges(d: int) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Cube edges joining coordinate-sum level (d-1)/2 to level (d+1)/2.

    These are exactly the polytope edges that cross the hyperplane of
    coordinate sum d/2, hence the boundary of the slab cut.
    """
    _require_valid(d)
    low = (d - 1) // 2
    pairs = []
    for ones in combinations(range(d), low):
        ones_set = set(ones)
        u = tuple(ONE if i in ones_set else ZERO for i in range(d))
        for j in range(d):
            if j not in ones_set:
                v = tuple(
                    ONE if (i in ones_set or i == j) else ZERO for i in range(d)
                )
                pairs.append((u, v))
    return pairs


def crossing_edge_count(d: int) -> int:
    _require_valid(d)
    return math.comb(d, (d - 1) // 2) * ((d + 1) // 2)


@dataclass(frozen=True)
class SparseCutReport:
    """Exact data of the slab cut together with the benchmark comparison.

    ``subset_size`` counts all vertices on the low side of the slab
    (both kinds); ``center_subset_size`` counts only the face centers
    among them, which is the smaller figure one gets when the 0/1
    vertices are left out.  ``below_benchmark`` records whether
    ratio < d / sqrt(2^d), decided exactly by comparing squares.
    """

    d: int
    subset_size: int
    center_subset_size: int
    integral_subset_size: int
    boundary_size: int
    ratio: Fraction
    below_benchmark: bool

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "subset_size": self.subset_size,
            "center_subset_size": self.center_subset_size,
            "integral_subset_size": self.integral_subset_size,
            "boundary_size": self.boundary_size,
            "ratio": str(self.ratio),
            "benchmark": "d/sqrt(2^d)",
            "below_benchmark": self.below_benchmark,
        }


def cut_report(d: int) -> SparseCutReport:
    """Slab cut of the vertex set at coordinate sum d/2, all closed-form.

    The map x -> 1 - x swaps the two sides of the cut, so the low side
    holds exactly half the vertices and is never the larger side.
    """
    _require_valid(d)
    integral, centers = vertex_count_closed_form(d)
    if integral % 2 or centers % 2:
        raise ArithmeticError("vertex classes must split evenly across the slab")
    boundary = crossing_edge_count(d)
    subset = (integral + centers) // 2
    ratio = Fraction(boundary, subset)
    # ratio < d / sqrt(2^d)  <=>  ratio^2 * 2^d < d^2 (both sides > 0).
    below = ratio * ratio * 2**d < d * d
    return SparseCutReport(
        d=d,
        subset_size=subset,
        center_subset_size=centers // 2,
        integral_subset_size=integral // 2,
        boundary_size=boundary,
        ratio=ratio,
        below_benchmark=below,
    )


def central_binomial_within_bound(d: int) -> bool:
    """Certify C(2m, m) <= 4^m / sqrt(pi*m) for 2m = (d+1)/2.

    Squaring, the claim is C(2m, m)^2 * pi * m <= 16^m; it is certified
    with the upper rational bound for pi and refuted with the lower one,
    so the verdict never depends on uncertified digits of pi.
    """
    _require_valid(d)
    m = (d + 1) // 4
    c = math.comb(2 * m, m)
    lhs_scale = c * c * m
    if lhs_scale * PI_HIGH <= 16**m:
        return True
    if lhs_scale * PI_LOW > 16**m:
        return False
    raise ValueError("pi bracket too coarse to decide d = %d" % d)


def counts_to_json(d: int) -> Mapping:
    integral, centers = vertex_count_closed_form(d)
    return {
        "d": d,
        "integral_vertices": integral,
        "center_vertices": centers,
        "total": integral + centers,
        "crossing_edges": crossing_edge_count(d),
    }
