"""Seeded requests and output checks for the benchmark's three workloads.

Each workload is a fixed cycle of request slots, one (kind, size) pair
per slot.  The (kind, size) pair alone picks a request's shape: which
vertex subset or face up to symmetry, which cycle/path profile, which
graph.  The seed and the request index pick how that shape is
presented: a symmetry of the polytope family (a coordinate permutation,
possibly with x -> 1 - x), a coordinate permutation and generator
signs, a vertex relabelling.  So every seed, and every request, gets
its own input, while the work a request needs is fixed by its slot.
The latency distribution of a run then does not depend on the seed or
on how many passes over the cycle a run completes, and its median and
p90 do not jump between two shapes of different cost.

Every check here is computed independently of the library: affine
dimensions, crossing pairs, cycle/path profiles, vertex counts and cut
ratios are recounted in plain Python from the request's own input.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


@dataclass
class Outcome:
    """What one request returned: exit code and canonical output text."""

    code: int
    text: str
    err: str = ""


@dataclass
class Request:
    """One benchmark request.

    ``call`` runs it against the loaded program and returns its outcome;
    ``check`` returns a description of the first wrong thing in the
    outcome, or None.  ``kind`` and ``size`` feed the size histogram.
    ``kernel`` names the calibration task whose kind of work, interpreted
    Python or numpy loops, dominates the request.
    """

    kind: str
    size: int
    call: Callable[[object], Outcome]
    check: Callable[[Outcome], Optional[str]]
    cli: bool
    kernel: str = "python"


def cli_call(argv: list[str], stdin: Optional[str] = None) -> Callable[[object], Outcome]:
    """A request that runs ``halfint.cli.main`` in-process."""

    def call(prog) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin if stdin is not None else "")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = prog.cli.main(argv)
        finally:
            sys.stdin = saved
        return Outcome(code, out.getvalue(), err.getvalue())

    return call


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    # A string seed is hashed with SHA-512, so the stream does not
    # depend on PYTHONHASHSEED or the platform.
    return random.Random("%s:%d:%d" % (workload, seed, index))


def shape_rng(workload: str, slot: tuple[str, int]) -> random.Random:
    return random.Random("%s:shape:%s:%d" % (workload, *slot))


def _strs(vec) -> list[str]:
    return [str(Fraction(x)) for x in vec]


def checked(fn) -> Callable[[Outcome], Optional[str]]:
    """Turn a check that raises ValueError or KeyError into one that returns text."""

    def check(out: Outcome) -> Optional[str]:
        try:
            return fn(out)
        except (ValueError, KeyError, TypeError) as exc:
            return "%s: %s" % (type(exc).__name__, exc)

    return check


# ---------------------------------------------------------------- skeleton


def affine_dimension(points) -> int:
    base = np.array(points[0], dtype=float)
    diffs = np.array([[float(x) for x in p] for p in points[1:]]) - base
    return int(np.linalg.matrix_rank(2 * diffs)) if len(points) > 1 else 0


def crossing_pairs(points, d: int) -> list[tuple[int, int]]:
    """Index pairs of 0/1 points on levels (d-1)/2 and (d+1)/2 at distance 1."""
    low = [i for i, p in enumerate(points) if set(p) <= {0, 1} and sum(p) == (d - 1) // 2]
    high = [i for i, p in enumerate(points) if set(p) <= {0, 1} and sum(p) == (d + 1) // 2]
    pairs = []
    for i in low:
        for j in high:
            if sum(a != b for a, b in zip(points[i], points[j])) == 1:
                pairs.append((min(i, j), max(i, j)))
    return pairs


def check_skeleton(points, d: int, out: Outcome) -> Optional[str]:
    if out.code != 0:
        return "skeleton request raised: %s" % out.err
    graph = json.loads(out.text)
    n = len(points)
    if graph["n"] != n:
        return "skeleton has %d vertices, expected %d" % (graph["n"], n)
    edges = {(min(u, v), max(u, v)) for u, v in graph["edges"]}
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    dim = affine_dimension(points)
    low = min(range(n), key=degree.__getitem__)
    if degree[low] < dim:
        return "vertex %s has degree %d < affine dimension %d" % (
            graph["labels"][low], degree[low], dim)
    missing = [p for p in crossing_pairs(points, d) if p not in edges]
    if missing:
        return "crossing edge %s missing" % (missing[0],)
    return None


def skeleton_request(kind: str, d: int, points) -> Request:
    def call(prog) -> Outcome:
        pset = prog.skeleton.PointSet(d, tuple(points))
        graph = prog.skeleton.skeleton_graph(pset)
        return Outcome(0, json.dumps(graph.to_json(), sort_keys=True))

    return Request(kind, len(points), call, checked(lambda out: check_skeleton(points, d, out)),
                   False)


def _with_crossing_pair(shape, vertices, d: int, size: int):
    """A random vertex subset of the given size that holds one crossing pair.

    Random subsets rarely contain a crossing edge, so one is planted to
    give the crossing-edge check something to verify.
    """
    low = (d - 1) // 2
    ones = set(shape.sample(range(d), low))
    flip = shape.choice([i for i in range(d) if i not in ones])
    u = tuple(Fraction(int(i in ones)) for i in range(d))
    v = tuple(Fraction(int(i in ones or i == flip)) for i in range(d))
    rest = [p for p in shape.sample(vertices, size + 2) if p != u and p != v]
    pts = [u, v] + rest[: size - 2]
    shape.shuffle(pts)
    return pts


def _face(shape, vertices, d: int, fixed: int):
    """Vertices of the face where ``fixed`` random coordinates take 0/1 values."""
    coords = shape.sample(range(d), fixed)
    values = [shape.randint(0, 1) for _ in coords]
    return [p for p in vertices if all(p[c] == v for c, v in zip(coords, values))]


def _symmetric_image(rng, points, d: int):
    """The points under a random symmetry of the family, in the same order.

    The vertex set is invariant under coordinate permutations and under
    x -> 1 - x, so the image is again a subset (or face) of the family.
    """
    perm = list(range(d))
    rng.shuffle(perm)
    flip = rng.random() < 0.5
    return [tuple(1 - p[perm[i]] if flip else p[perm[i]] for i in range(d)) for p in points]


def make_skeleton(state, slot, shape, rng) -> Request:
    kind, size = slot
    if kind == "d3-full":
        d, points = 3, state.instances[3]
    elif kind.startswith("face"):
        d = 7
        points = _face(shape, state.instances[d], d, int(kind[-1]))
    else:
        d = int(kind[1:].split("-")[0])
        points = _with_crossing_pair(shape, state.instances[d], d, size)
    return skeleton_request(kind, d, _symmetric_image(rng, points, d))


# ---------------------------------------------------------------- zonotope


def random_profile(rng, edges: int, need_cycle=False,
                   need_path=False) -> tuple[list[int], list[int]]:
    """Random cycle lengths (>= 3) and path edge counts summing to ``edges``."""
    while True:
        cycles, paths, left = [], [], edges
        while left:
            if left >= 3 and rng.random() < 0.6:
                k = rng.randint(3, left)
                cycles.append(k)
            else:
                k = rng.randint(1, left)
                paths.append(k)
            left -= k
        if (cycles or not need_cycle) and (paths or not need_path):
            return cycles, paths


def profile_graph_json(rng, cycles, paths) -> str:
    edges, n = [], 0
    for k in cycles:
        edges += [(n + t, n + (t + 1) % k) for t in range(k)]
        n += k
    for m in paths:
        edges += [(n + t, n + t + 1) for t in range(m)]
        n += m + 1
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [[perm[u], perm[v]] for u, v in edges]
    rng.shuffle(edges)
    return json.dumps({"labels": ["v%d" % i for i in range(n)], "edges": edges})


def profile_generators(rng, cycles, paths, third=False, perturb=False) -> list[list[Fraction]]:
    """Generators of the half-integral zonotope of a path/cycle union.

    Coordinates are permuted and generator signs flipped at random.  With
    ``third`` the cycle entries are 1/3 instead of 1/2 (the coordinate
    budget rejects them); with ``perturb`` one path generator has length
    1/3, which passes the budget and fails only full enumeration.
    """
    dim = sum(cycles) + sum(paths)
    coords = list(range(dim))
    rng.shuffle(coords)
    h = THIRD if third else HALF
    gens, at = [], 0
    for k in cycles:
        block = coords[at: at + k]
        for t in range(k):
            vec = [Fraction(0)] * dim
            a, b = (block[t], block[t + 1]) if t < k - 1 else (block[0], block[k - 1])
            vec[a], vec[b] = h, -h
            gens.append(vec)
        at += k
    for m in paths:
        for c in coords[at: at + m]:
            vec = [Fraction(0)] * dim
            vec[c] = Fraction(1)
            gens.append(vec)
        at += m
    if perturb:
        unit = next(g for g in reversed(gens) if max(g) == 1)
        unit[unit.index(1)] = THIRD
    gens = [[-x for x in g] if rng.random() < 0.5 else g for g in gens]
    rng.shuffle(gens)
    return gens


def _parse(out: Outcome, code: int = 0):
    if out.code != code:
        raise ValueError("exit %d (expected %d): %s" % (out.code, code, out.err.strip()))
    return json.loads(out.text) if code == 0 else None


def zonotope_vertex_count(cycles, paths) -> int:
    """Acyclic orientations: 2^k - 2 per k-cycle, 2^m per m-edge path."""
    return math.prod(2 ** k - 2 for k in cycles) * 2 ** sum(paths)


def make_zonotope(state, slot, shape, rng) -> Request:
    kind, size = slot
    if kind == "realize":
        cycles, paths = random_profile(shape, size)

        def check_realize(out):
            gens = [[Fraction(x) for x in g] for g in _parse(out)["generators"]]
            units = sum(1 for g in gens if sorted(g)[-1] == 1 and sum(map(bool, g)) == 1)
            halves = sum(1 for g in gens if sorted(map(abs, g))[-2:] == [HALF, HALF]
                         and sum(map(bool, g)) == 2)
            if len(gens) != size or units != sum(paths) or halves != sum(cycles):
                return "realize gave %d unit and %d half generators for profile %s/%s" % (
                    units, halves, cycles, paths)
            return None

        return Request(kind, size, cli_call(["zono", "--action", "realize"],
                                            profile_graph_json(rng, cycles, paths)),
                       checked(check_realize), True)
    neg = kind.startswith("neg")
    cycles, paths = random_profile(shape, size, need_cycle=kind == "neg-budget",
                                   need_path=kind == "neg-check")
    gens = profile_generators(rng, cycles, paths, third=kind == "neg-budget",
                              perturb=kind == "neg-check")
    stdin = json.dumps({"dim": size, "generators": [_strs(g) for g in gens]})
    action = {"neg-budget": "recognize", "neg-check": "check"}.get(kind, kind)

    def check_zono(out):
        if kind == "neg-budget":
            _parse(out, 3)
            if not re.search(r"coordinate \d+", out.err):
                return "rejection names no coordinate: %s" % out.err.strip()
            return None
        data = _parse(out)
        if action == "check":
            if data["half_integral"] != (not neg) or (data["translation"] is None) != neg:
                return "half_integral is %s" % data["half_integral"]
        elif action == "recognize":
            got = (sorted(c["cycle"] for c in data["components"] if "cycle" in c),
                   sum(c.get("path_edges", 0) for c in data["components"]))
            if got != (sorted(cycles), sum(paths)):
                return "profile %s, expected %s" % (got, (sorted(cycles), sum(paths)))
        elif data["vertex_count"] != zonotope_vertex_count(cycles, paths):
            return "%d vertices, expected %d" % (
                data["vertex_count"], zonotope_vertex_count(cycles, paths))
        return None

    return Request(kind, size, cli_call(["zono", "--action", action], stdin),
                   checked(check_zono), True)


# ---------------------------------------------------------------- expansion


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def product_edges(a: int, ea, b: int, eb) -> list[tuple[int, int]]:
    edges = [(u * b + w, v * b + w) for u, v in ea for w in range(b)]
    edges += [(u * b + x, u * b + y) for x, y in eb for u in range(a)]
    return edges


def hypercube_edges(d: int) -> list[tuple[int, int]]:
    return [(v, v ^ (1 << k)) for v in range(1 << d) for k in range(d) if v < v ^ (1 << k)]


def expansion_graph(shape, kind: str, n: int) -> tuple[list[tuple[int, int]], Optional[Fraction]]:
    """Edges of a seeded graph on n vertices and its closed-form expansion if known."""
    if kind == "exp-cycle":
        return cycle_edges(n), Fraction(2, n // 2)
    if kind == "exp-cube":
        return hypercube_edges(n.bit_length() - 1), Fraction(1)
    if kind == "exp-product":
        a = shape.choice([a for a in range(3, n // 3 + 1) if n % a == 0])
        b = n // a
        ea = cycle_edges(a) if shape.random() < 0.7 else path_edges(a)
        eb = cycle_edges(b) if shape.random() < 0.7 else path_edges(b)
        return product_edges(a, ea, b, eb), None
    # A Hamiltonian cycle plus a random matching on half the vertices:
    # maximum degree 3 and connected.
    order = list(range(n))
    shape.shuffle(order)
    chords = order[: n // 2]
    edges = set(cycle_edges(n))
    for u, v in zip(chords[::2], chords[1::2]):
        if (u - v) % n not in (1, n - 1):
            edges.add((u, v))
    return sorted(edges), None


def make_expansion(state, slot, shape, rng) -> Request:
    kind, size = slot
    if kind.startswith("flow"):
        return make_flow(kind, size, shape, rng)
    edges, closed = expansion_graph(shape, kind, size)
    perm = list(range(size))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    stdin = json.dumps({"labels": ["n%d" % i for i in range(size)],
                        "edges": [list(e) for e in edges]})

    def check(out):
        data = _parse(out)
        value = Fraction(data["expansion"])
        side = set(data["witness"]["subset"])
        boundary = sum(1 for u, v in edges if (u in side) != (v in side))
        if not 0 < 2 * len(side) <= size or value != Fraction(boundary, len(side)):
            return "expansion %s but witness recounts to %d/%d" % (value, boundary, len(side))
        if closed is not None and value != closed:
            return "expansion %s, closed form %s" % (value, closed)
        return None

    return Request(kind, size, cli_call(["graph", "--action", "expansion"], stdin),
                   checked(check), True, kernel="numpy")


# Factor name -> (vertex count, congestion bound) for product requests.
FACTORS = {
    "cube:1": (2, HALF),
    "cube:2": (4, HALF),
    "cube:3": (8, HALF),
    "hexagon": (6, Fraction(3, 4)),
    "punctured:4": (14, Fraction(6, 7)),
}

# Product vertex count -> factor pairs with that count.
PRODUCTS = {
    8: [("cube:1", "cube:2")],
    12: [("cube:1", "hexagon")],
    16: [("cube:2", "cube:2"), ("cube:1", "cube:3")],
    24: [("cube:2", "hexagon")],
    28: [("cube:1", "punctured:4")],
}


def _top_field(text: str, key: str) -> str:
    """A top-level field of the CLI's indent-2 JSON, read without parsing it all."""
    match = re.search(r'^  "%s": "?([^",\n]+)"?,?$' % key, text, re.M)
    if match is None:
        raise KeyError(key)
    return match.group(1)


def make_flow(kind: str, size: int, shape, rng) -> Request:
    """Certificate requests; ``size`` is the dimension, or for products the vertex count."""
    routing = kind.endswith("-routing")
    family = kind.split("-")[1]
    argv = ["flow", "--family", family]
    if family == "product":
        names = list(shape.choice(PRODUCTS[size]))
        rng.shuffle(names)
        argv += ["--factors", ",".join(names)]
        n = size
        bound = max(FACTORS[f][1] for f in names)
    else:
        argv += ["--d", str(size)]
        n = 2 ** size if family == "cube" else 2 ** size - 2
        bound = HALF if family == "cube" else Fraction(3 * 2 ** (size - 2), n)
    if routing:
        argv.append("--routing")

    def check(out):
        if out.code != 0:
            return "exit %d: %s" % (out.code, out.err.strip())
        rho = Fraction(_top_field(out.text, "congestion"))
        if int(_top_field(out.text, "vertex_count")) != n:
            return "vertex count is not %d" % n
        if rho > bound or (family == "cube" and rho != bound):
            return "congestion %s above %s" % (rho, bound)
        if Fraction(_top_field(out.text, "expansion_lower_bound")) != 1 / (2 * rho):
            return "expansion lower bound is not 1/(2 rho)"
        if routing and out.text.count('"source": ') != n * (n - 1):
            return "routing does not list all %d demands" % (n * (n - 1))
        return None

    return Request(kind, size, cli_call(argv), checked(check), True)


# ---------------------------------------------------------------- schedules

# Each cycle lists (kind, size) slots, cheapest first, in two 20-slot
# halves that differ at most in the last, most expensive slot.  The
# sizes keep a 30-second run above 100 requests, so that the p90 latency
# has about ten samples beyond it.  The slots around 50% of the cost
# order, and those at 85-95%, are each of one cost class, so that
# neither the median nor the p90 sits on a jump between two sizes.
_SKELETON = ([("d3-full", 12)] * 2 + [("d11-subset", 8)] * 2 + [("d7-subset", 10)] * 2
             + [("d11-subset", 10), ("face3", 13)] + [("d7-subset", 12)] * 6
             + [("d11-subset", 12), ("d7-subset", 13)] + [("d7-subset", 15)] * 3)
_ZONOTOPE = ([("realize", 3), ("realize", 9), ("realize", 10), ("neg-budget", 7),
              ("neg-budget", 10), ("recognize", 3), ("check", 4)]
             + [("recognize", 5), ("check", 5), ("vertices", 5)] * 2
             + [("recognize", 6), ("neg-check", 6), ("recognize", 7)]
             + [("vertices", 7)] * 3)
_EXPANSION = ([("exp-cycle", 12), ("exp-cube", 16), ("flow-cube", 4), ("flow-cube-routing", 4),
               ("flow-product", 16), ("flow-product-routing", 28), ("flow-punctured", 5)]
              + [("exp-chorded", 20), ("exp-cycle", 20), ("flow-cube", 6),
                 ("flow-punctured", 6), ("exp-cycle", 20), ("exp-chorded", 20)]
              + [("exp-product", 20), ("exp-cycle", 21), ("exp-product", 21)]
              + [("exp-cycle", 22)] * 3)

SCHEDULES = {
    "skeleton": _SKELETON + [("d7-subset", 18)] + _SKELETON + [("d7-subset", 20)],
    "zonotope": (_ZONOTOPE + [("vertices", 8)]) * 2,
    "expansion": (_EXPANSION + [("flow-punctured-routing", 7)]
                  + _EXPANSION + [("exp-cycle", 24)]),
}

SMOKE_SCHEDULES = {
    "skeleton": [("d3-full", 12), ("d7-subset", 8), ("face3", 13), ("d11-subset", 6)],
    "zonotope": [("realize", 4), ("recognize", 3), ("check", 4), ("vertices", 3),
                 ("neg-budget", 5), ("neg-check", 4)],
    "expansion": [("exp-cycle", 12), ("exp-cube", 16), ("exp-product", 12),
                  ("exp-chorded", 12), ("flow-cube", 3), ("flow-punctured-routing", 4),
                  ("flow-product", 12)],
}

MAKERS = {"skeleton": make_skeleton, "zonotope": make_zonotope, "expansion": make_expansion}


def make_request(workload: str, state, schedule, seed: int, index: int) -> Request:
    slot = schedule[index % len(schedule)]
    return MAKERS[workload](state, slot, shape_rng(workload, slot), rng_for(workload, seed, index))
