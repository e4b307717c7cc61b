"""Zonotopes with exact generators, and recognition of half-integral ones.

A zonotope is the Minkowski sum of segments conv{0, g} over a set of
generator vectors g.  Vertices correspond to sign assignments: the
point sum_{sigma_k = +} g_k is a vertex exactly when some direction c
satisfies sign(c . g_k) = sigma_k strictly for every k.  By Gordan's
alternative (Gordan 1873) such a c exists exactly when the origin is
not a convex combination of the signed generators sigma_k g_k, a hull
membership question that ``convex_combination`` answers exactly.

A zonotope is half-integral when, after translating each coordinate's
minimum to zero, every vertex coordinate lies in {0, 1/2, 1}.  Such
zonotopes are affinely equivalent to graphical zonotopes of graphs of
maximum degree two, i.e. disjoint unions of paths and cycles:

* every minimal linear dependence (circuit) among the generators has
  coefficients +-1 after scaling and corresponds to a cycle;
* distinct circuit blocks occupy disjoint coordinate supports, and the
  leftover generators are linearly independent and form the path part.

``recognize_graphical`` extracts that structure with a certificate,
reading every circuit block off one row reduction (the fundamental
circuits of its pivot basis), and ``realize_half_integral`` inverts it,
producing canonical generators whose zonotope is half-integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .graphs import Graph, component_shapes, make_graph
from .linalg import fundamental_circuits
from .rationals import HALF, ONE, ZERO, int_from_json, point_from_strs, point_to_strs
from .simplex import convex_combination
from .skeleton import PointSet

MAX_VERTEX_ENUM_GENERATORS = 20


class NotHalfIntegralError(ValueError):
    """A zonotope operation's half-integrality precondition failed."""


@dataclass(frozen=True)
class GeneratorSet:
    """Canonical zonotope generators: nonzero, sign-normalized so the
    first nonzero coordinate is positive, pairwise non-collinear, and
    sorted lexicographically."""

    dim: int
    generators: tuple[tuple[Fraction, ...], ...]

    def __len__(self) -> int:
        return len(self.generators)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "generators": [point_to_strs(g) for g in self.generators],
        }

    @staticmethod
    def from_json(data: Mapping) -> "GeneratorSet":
        dim = int_from_json(data["dim"], "dimension")
        raw = data["generators"]
        if not isinstance(raw, list) or not raw:
            # with no generators nothing in the input bounds ``dim``
            raise ValueError("generators %r are not a nonempty list" % (raw,))
        gens = []
        for coords in raw:
            if not isinstance(coords, list):
                raise ValueError(
                    "generator %r is not a list of rational strings" % (coords,)
                )
            gens.append(point_from_strs(coords))
        return canonicalize(gens, dim=dim)


def canonicalize(
    vectors: Iterable[Sequence], dim: Optional[int] = None
) -> GeneratorSet:
    """Validate and normalize raw generator vectors."""
    gens = [tuple(Fraction(x) for x in vec) for vec in vectors]
    if dim is None:
        if not gens:
            raise ValueError("dimension required for an empty generator set")
        dim = len(gens[0])
    if dim < 1:
        raise ValueError("ambient dimension must be positive")
    normalized = []
    directions = {}
    for idx, g in enumerate(gens):
        if len(g) != dim:
            raise ValueError("generator %d does not have dimension %d" % (idx, dim))
        lead = next((x for x in g if x != 0), None)
        if lead is None:
            raise ValueError("generator %d is the zero vector" % idx)
        if lead < 0:
            g = tuple(-x for x in g)
            lead = -lead
        direction = tuple(x / lead for x in g)
        if direction in directions:
            raise ValueError(
                "generators %d and %d are collinear" % (directions[direction], idx)
            )
        directions[direction] = idx
        normalized.append(g)
    return GeneratorSet(dim, tuple(sorted(normalized)))


def vertices_with_signs(
    gs: GeneratorSet,
) -> list[tuple[tuple[int, ...], tuple[Fraction, ...]]]:
    """All (sign vector, vertex) pairs, in ascending sign-vector order.

    Sign vectors are 0/1 tuples aligned with the generators; entry 1
    puts the generator on the positive side, and the vertex is the sum
    of the positive-side generators.  A sign vector is kept exactly when
    some direction c has c . g_k > 0 for assigned 1 and < 0 for 0, that
    is (Gordan) when the origin lies outside the convex hull of the
    signed generators +-g_k.  With no generators the hull is empty and
    the origin is the only vertex.
    """
    gens = gs.generators
    n = len(gens)
    if n > MAX_VERTEX_ENUM_GENERATORS:
        raise ValueError(
            "vertex enumeration guarded at %d generators" % MAX_VERTEX_ENUM_GENERATORS
        )
    negated = [tuple(-x for x in g) for g in gens]
    origin = tuple(ZERO for _ in range(gs.dim))
    out = []
    for mask in range(1 << n):
        signs = tuple((mask >> k) & 1 for k in range(n))
        signed = [g if s else m for s, g, m in zip(signs, gens, negated)]
        if convex_combination(origin, signed) is None:
            vertex = tuple(
                sum((g[i] for s, g in zip(signs, gens) if s), ZERO)
                for i in range(gs.dim)
            )
            out.append((signs, vertex))
    return out


def zonotope_vertices(gs: GeneratorSet) -> PointSet:
    points = sorted(set(v for _, v in vertices_with_signs(gs)))
    return PointSet(gs.dim, tuple(points))


def coordinate_budget(gs: GeneratorSet) -> tuple[bool, list[tuple[int, str]]]:
    """Necessary per-coordinate conditions for half-integrality.

    In each coordinate, at most two generators may be nonzero; if two
    are, both entries must be +-1/2; and the absolute entries must sum
    to at most 1 (the zonotope's axis projection may not be longer than
    the unit cube's).  Returns (verdict, violations).
    """
    violations = []
    for i in range(gs.dim):
        entries = [g[i] for g in gs.generators if g[i] != 0]
        if len(entries) > 2:
            violations.append(
                (i, "%d generators are nonzero in coordinate %d" % (len(entries), i))
            )
            continue
        if len(entries) == 2 and not all(abs(x) == HALF for x in entries):
            violations.append(
                (i, "two generators share coordinate %d but entries are not both +-1/2" % i)
            )
        total = sum(abs(x) for x in entries)
        if total > 1:
            violations.append(
                (i, "coordinate %d carries total length %s > 1" % (i, total))
            )
    return (not violations, violations)


def is_half_integral(
    gs: GeneratorSet,
) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Decide half-integrality from the generator entries, with no LP.

    Returns (verdict, translation).  The verdict holds exactly when every
    entry is 0, +-1/2 or +-1 and the coordinate budget holds: each g_k
    is parallel to an edge whose endpoints differ by exactly g_k
    (Ziegler, Lectures on Polytopes, Lecture 7), and coordinate i spans
    sum_k |g_k[i]|; conversely, its vertex values are then subset sums
    of one entry x or of two +-1/2 entries.  The translation, minus the
    sum of each coordinate's negative entries, shifts its minimum to 0.
    """
    entries_ok = all(abs(x) in (ZERO, HALF, ONE) for g in gs.generators for x in g)
    if not (entries_ok and coordinate_budget(gs)[0]):
        return False, None
    return True, tuple(
        -sum((g[i] for g in gs.generators if g[i] < 0), ZERO) for i in range(gs.dim)
    )


@dataclass(frozen=True)
class Decomposition:
    """Certified block structure of a half-integral zonotope's generators.

    ``circuit_blocks`` lists the index blocks whose generators carry a
    minimal dependence; ``circuit_coefficients`` holds the certifying
    +-1 coefficients, aligned positionally with each block (so scaling
    generator ``block[t]`` by ``coefficients[t]`` yields vectors that
    sum to zero and map onto the edge directions of a cycle, edge t
    joining cycle vertices t and t+1).  ``independent_block`` holds the
    leftover indices, realized as a single path with that many edges.
    ``block_supports`` lists each block's nonzero coordinate set, the
    independent block's last; distinct entries never share coordinates.
    """

    circuit_blocks: tuple[tuple[int, ...], ...]
    circuit_coefficients: tuple[tuple[Fraction, ...], ...]
    independent_block: tuple[int, ...]
    block_supports: tuple[tuple[int, ...], ...]
    graph: Graph

    def component_profile(self) -> tuple[tuple[int, ...], int]:
        """(sorted cycle lengths, path edge count), read off the blocks."""
        cycles = tuple(sorted(len(b) for b in self.circuit_blocks))
        return cycles, len(self.independent_block)

    def to_json(self) -> dict:
        cycles, path_edges = self.component_profile()
        components = [{"cycle": k} for k in cycles]
        if path_edges:
            components.append({"path_edges": path_edges})
        return {
            "components": components,
            "circuit_blocks": [list(b) for b in self.circuit_blocks],
            "circuit_coefficients": [
                [str(c) for c in coeffs] for coeffs in self.circuit_coefficients
            ],
            "independent_block": list(self.independent_block),
            "block_supports": [list(s) for s in self.block_supports],
            "graph": self.graph.to_json(),
        }


def _support(gens: Sequence[Sequence], indices: Iterable[int]) -> tuple[int, ...]:
    coords = set()
    for k in indices:
        for i, x in enumerate(gens[k]):
            if x != 0:
                coords.add(i)
    return tuple(sorted(coords))


def _blocks_graph(cycle_lengths: Sequence[int], path_edges: int) -> Graph:
    labels = []
    edges = []
    offset = 0
    for b, k in enumerate(cycle_lengths):
        labels.extend("c%d.%d" % (b, t) for t in range(k))
        edges.extend((offset + t, offset + (t + 1) % k) for t in range(k))
        offset += k
    if path_edges:
        labels.extend("p.%d" % t for t in range(path_edges + 1))
        edges.extend((offset + t, offset + t + 1) for t in range(path_edges))
    return make_graph(labels, edges)


def recognize_graphical(gs: GeneratorSet) -> Decomposition:
    """Decompose a half-integral zonotope into cycle and path blocks.

    Half-integrality is checked first, by :func:`is_half_integral`; a
    rejection names the coordinate budget's violations if it has any,
    and the generator entries otherwise.  One row reduction then gives
    the fundamental circuits of the pivot basis (a direct sum's circuits
    are exactly these); each must certify with +-1 coefficients, and the
    circuits and the generators in none of them must occupy pairwise
    disjoint coordinates, otherwise the input contradicts
    half-integrality and the error says which condition broke.
    """
    if not is_half_integral(gs)[0]:
        ok, violations = coordinate_budget(gs)
        if not ok:
            violated = "; ".join(msg for _, msg in violations)
            raise NotHalfIntegralError("coordinate budget violated: " + violated)
        raise NotHalfIntegralError(
            "not half-integral: translated vertex coordinates leave {0, 1/2, 1}"
        )
    gens = gs.generators
    circuits = fundamental_circuits(gens)
    for block, coeffs in circuits:
        if any(abs(c) != 1 for c in coeffs):
            raise NotHalfIntegralError(
                "circuit %s has non-unit coefficients %s"
                % (block, [str(c) for c in coeffs])
            )
    circuit_blocks = tuple(block for block, _ in circuits)
    # each free column lies in its own circuit, so the rest are pivot columns
    in_circuit = set().union(*circuit_blocks)
    independent = tuple(k for k in range(len(gens)) if k not in in_circuit)
    supports = tuple(_support(gens, b) for b in (*circuit_blocks, independent))
    for a, b in combinations(supports, 2):
        if overlap := set(a) & set(b):
            raise NotHalfIntegralError("blocks share coordinates %s" % sorted(overlap))
    graph = _blocks_graph([len(b) for b in circuit_blocks], len(independent))
    return Decomposition(
        circuit_blocks=circuit_blocks,
        circuit_coefficients=tuple(coeffs for _, coeffs in circuits),
        independent_block=independent,
        block_supports=supports,
        graph=graph,
    )


def graphical_generators(g: Graph) -> GeneratorSet:
    """Generators e_u - e_v (u < v) of the graphical zonotope of g."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    gens = []
    for u, v in g.sorted_edges():
        vec = [ZERO] * g.n
        vec[u] = ONE
        vec[v] = -ONE
        gens.append(tuple(vec))
    return canonicalize(gens, dim=g.n)


def realize_half_integral(g: Graph) -> GeneratorSet:
    """Canonical generators of a half-integral zonotope realizing g.

    g must have maximum degree two.  Every cycle component of length k
    becomes k generators (1/2)(e_t - e_{t+1 mod k}) supported on a fresh
    block of k coordinates, and every path component with m edges
    becomes m standard basis vectors on a fresh block of m coordinates.
    Components are processed in order of their smallest vertex.
    """
    shapes = component_shapes(g)
    dim = sum(k for k, _ in shapes)
    if dim == 0:
        raise ValueError("graph has no edges; nothing to realize")
    gens: list[tuple[Fraction, ...]] = []
    offset = 0
    for k, is_cycle in shapes:
        for t in range(k):
            vec = [ZERO] * dim
            if is_cycle:
                vec[offset + t] = HALF
                vec[offset + (t + 1) % k] = -HALF
            else:
                vec[offset + t] = ONE
            gens.append(tuple(vec))
        offset += k
    return canonicalize(gens, dim=dim)
