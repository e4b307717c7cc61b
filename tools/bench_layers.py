"""Layer benchmarks for the paper's results; writes ``BENCH_*.json``.

- ``simplex``: a seeded corpus of the skeleton oracle's adjacency LPs
  (full P_3, seeded P_7 vertex subsets and faces), recorded from
  ``skeleton_graph`` and replayed through ``lp_maximize`` with the
  oracle's arguments: microseconds per LP in phase 1 (the tableau and a
  feasible basis) and phase 2, pivots per LP, totals per point set (two
  checkouts' corpora can differ in size), and ``skeleton_graph(build(7))``.
- ``expansion``: ``expansion_bruteforce`` on C20, C24, C26, a seeded
  chorded 28-cycle and K30, with the 2^(n-1) - 1 masks scanned per second.
- ``flows``: building, validating and tallying four flow certificates,
  and the ``flow`` request without and then with ``--routing`` in JSON,
  text and ``--approx``; ``render_*`` is the median of the differences.
- ``zonotope``: ``vertices_with_signs`` on seeded generator sets of 5-8
  generators, a cycle plus unit path generators, with cycle entries
  +-1/2 (a half-integral zonotope) and +-1/3: 2^n hull-membership LPs
  each, timed 2^(9 - n) calls at a time.

Each figure is a median of ``REPEATS`` runs, each after a collection.
One checkout's timings drift between processes by up to 2x on a shared
host, so ``--against PARENT_DIR`` imports both checkouts afresh from
their ``src/`` into one process, alternates every timed call between
them, the side that goes first swapping each repeat, and writes the
other's figures to ``BENCH_<layer>.before.json``.  A layer whose sides
give different answers (the corpus's skeleton edges, the scans'
results, the ``--routing`` reports' digests, the zonotope vertex lists)
exits with a message naming the case before it is timed, and nothing is
written for it; the d = 7 edge sets, which timed runs produce, are
compared before writing:

    python3 tools/bench_layers.py                       # BENCH_<layer>.json
    python3 tools/bench_layers.py --against PARENT_DIR  # and BENCH_<layer>.before.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7
MODULES = ("cli", "flows", "graphs", "simplex", "skeleton", "sparse_cut", "zonotopes")


def load(checkout: Path) -> SimpleNamespace:
    """halfint's modules, imported afresh from ``checkout/src``; they stay
    bound to each other after a later load replaces them in
    ``sys.modules``."""
    for name in [m for m in sys.modules if m == "halfint" or m.startswith("halfint.")]:
        del sys.modules[name]
    src = str(Path(checkout).resolve() / "src")
    sys.path.insert(0, src)
    try:
        lib = SimpleNamespace(**{name: importlib.import_module("halfint." + name)
                                 for name in MODULES})
    finally:
        sys.path.remove(src)
    if Path(lib.cli.__file__).resolve().parents[1] != Path(src):
        raise SystemExit("halfint was imported from %s, not %s" % (lib.cli.__file__, src))
    return lib


def alternate(runs) -> list[list]:
    """The results of ``REPEATS`` calls of each of ``runs``, in repeat
    order; the runs alternate, and the one that goes first changes from
    repeat to repeat."""
    results: list[list] = [[] for _ in runs]
    for repeat in range(REPEATS):
        shift = repeat % len(runs)
        for side in [*range(shift, len(runs)), *range(shift)]:
            results[side].append(runs[side]())
    return results


def clock(run) -> float:
    """Wall seconds of one call of ``run``, after a collection."""
    gc.collect()
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def median_s(runs) -> list[float]:
    """Median wall seconds of each of ``runs``, timed alternately."""
    return [statistics.median(spent) for spent in alternate([partial(clock, run) for run in runs])]


def refuse_unless_equal(case: str, answers: list, what: str) -> None:
    if any(answer != answers[0] for answer in answers):
        raise SystemExit("%s: the checkouts' %s differ" % (case, what))


SIMPLEX_SEED = 20240611
SUBSETS = 12
FACES = 6
PIVOT_KEYS = ("phase1", "phase2_artificial", "phase2_structural")
# The _Tableau methods that find a feasible basis.
PHASE1 = ("run_phase1", "crash")


def point_sets(lib) -> list:
    """Full P_3, then seeded P_7 vertex subsets (10-20 points) and faces."""
    rng = random.Random(SIMPLEX_SEED)
    point_set, build = lib.skeleton.PointSet, lib.sparse_cut.build
    p7 = list(build(7).vertices.points)
    sets = [build(3).vertices]
    for _ in range(SUBSETS):
        sets.append(point_set(7, tuple(rng.sample(p7, rng.randint(10, 20)))))
    for _ in range(FACES):
        coords = rng.sample(range(7), 3)
        values = [rng.randint(0, 1) for _ in coords]
        face = [p for p in p7 if all(p[c] == v for c, v in zip(coords, values))]
        sets.append(point_set(7, tuple(face)))
    return sets


@contextmanager
def patched(owner, **wrappers):
    """Replace attributes of ``owner`` by wrappers of themselves, then restore them."""
    saved = {name: getattr(owner, name) for name in wrappers}
    for name, wrap in wrappers.items():
        setattr(owner, name, wrap(saved[name]))
    try:
        yield
    finally:
        for name, original in saved.items():
            setattr(owner, name, original)


def record_corpus(lib, sets) -> tuple[list, list]:
    """The point set index and ``(args, kwargs)`` of every LP the oracle
    solves, and the edges it finds on each point set."""
    corpus = []
    current = [0]

    def recording(solve):
        def run(*args, **kwargs):
            corpus.append((current[0], args, kwargs))
            return solve(*args, **kwargs)
        return run

    with patched(lib.skeleton, lp_maximize=recording):
        edges = []
        for current[0], pset in enumerate(sets):
            edges.append(lib.skeleton.skeleton_graph(pset).edges)
    return corpus, edges


def timed_pass(lib, corpus, sets: int) -> tuple[dict[str, float], list[float]]:
    """Seconds spent in each phase, and per point set, over one replay."""
    spent = {"phase1": 0.0}
    by_set = [0.0] * sets
    now = time.perf_counter

    def timing(original):
        def run(*args, **kwargs):
            start = now()
            result = original(*args, **kwargs)
            spent["phase1"] += now() - start
            return result
        return run

    phase1 = dict.fromkeys(["__init__", *PHASE1], timing)
    with patched(lib.simplex._Tableau, **phase1):
        for index, args, kwargs in corpus:
            start = now()
            lib.simplex.lp_maximize(*args, **kwargs)
            by_set[index] += now() - start
    spent["total"] = sum(by_set)
    spent["phase2"] = spent["total"] - spent["phase1"]
    return spent, by_set


def counted_pass(lib, corpus, sets: int) -> tuple[dict[str, int], list[int], str]:
    """Pivots per phase, pivots per point set, and a digest of the values;
    a phase-2 pivot is ``phase2_artificial`` when an artificial leaves."""
    counts = dict.fromkeys(PIVOT_KEYS, 0)
    by_set = [0] * sets
    phase = ["phase2"]
    current = [0]

    def in_phase1(original):
        def run(*args, **kwargs):
            phase[0] = "phase1"
            result = original(*args, **kwargs)
            phase[0] = "phase2"
            return result
        return run

    def counting(original):
        def run(self, pivot_row, entering, *args):
            key = phase[0]
            if key == "phase2":
                leaving = self.basis[pivot_row] >= self.n
                key = "phase2_artificial" if leaving else "phase2_structural"
            counts[key] += 1
            by_set[current[0]] += 1
            return original(self, pivot_row, entering, *args)
        return run

    digest = hashlib.sha256()
    phases = dict.fromkeys(PHASE1, in_phase1)
    with patched(lib.simplex._Tableau, **phases, pivot=counting):
        for current[0], args, kwargs in corpus:
            value, _ = lib.simplex.lp_maximize(*args, **kwargs)
            digest.update(b"+;" if value > 0 else str(value).encode() + b";")
    return counts, by_set, digest.hexdigest()


def measure_simplex(libs) -> list[dict]:
    sides = []
    for lib in libs:
        sets = point_sets(lib)
        corpus, edges = record_corpus(lib, sets)
        sides.append(SimpleNamespace(lib=lib, sets=sets, corpus=corpus, edges=edges))
    refuse_unless_equal("simplex corpus", [side.edges for side in sides], "skeleton edges")
    for side in sides:
        side.counts, side.pivots, side.digest = counted_pass(side.lib, side.corpus, len(side.sets))
    replays = alternate([partial(timed_pass, s.lib, s.corpus, len(s.sets)) for s in sides])

    def skeleton_d7(lib):
        p7 = lib.sparse_cut.build(7).vertices

        def run():
            gc.collect()
            start = time.perf_counter()
            edges = lib.skeleton.skeleton_graph(p7).edges
            return time.perf_counter() - start, edges
        return run

    d7 = alternate([skeleton_d7(side.lib) for side in sides])
    edges = [edges for runs in d7 for _, edges in runs]
    refuse_unless_equal("skeleton d = 7", edges, "edges")
    return [simplex_result(side, passes, [s for s, _ in runs], len(edges[0]))
            for side, passes, runs in zip(sides, replays, d7)]


def simplex_result(side, passes, full_s: list[float], edges: int) -> dict:
    corpus, counts, lps = side.corpus, side.counts, len(side.corpus)

    def per_lp_us(key):
        return round(1e6 * statistics.median(p[key] for p, _ in passes) / lps, 1)

    lps_by_set = Counter(index for index, _, _ in corpus)
    return {
        "corpus": {
            "seed": SIMPLEX_SEED,
            "point_sets": len(side.sets),
            "lps": lps,
            "columns_p50": statistics.median(len(args[0][0]) for _, args, _ in corpus),
            "rows_p50": statistics.median(len(args[0]) for _, args, _ in corpus),
            "keywords": sorted({key for _, _, kwargs in corpus for key in kwargs}),
            "values_sha256": side.digest,
        },
        "lp": {
            "repeats": REPEATS,
            "us_per_lp": {key: per_lp_us(key) for key in ("phase1", "phase2", "total")},
            "pivots_per_lp": {key: round(counts[key] / lps, 3) for key in PIVOT_KEYS},
        },
        "per_point_set": [
            {
                "points": len(pset),
                "lps": lps_by_set[k],
                "pivots": side.pivots[k],
                "us": round(1e6 * statistics.median(by_set[k] for _, by_set in passes)),
            }
            for k, pset in enumerate(side.sets)
        ],
        "totals": {
            "lps": lps,
            "pivots": sum(counts[key] for key in PIVOT_KEYS),
            "us": round(1e6 * statistics.median(p["total"] for p, _ in passes)),
        },
        "skeleton_d7": {"wall_s": round(statistics.median(full_s), 2),
                        "wall_s_min": round(min(full_s), 2), "edges": edges},
    }


EXPANSION_SEED = 20240612


def chorded(graphs, n: int, chords: int):
    """The n-cycle plus ``chords`` seeded random chords."""
    rng = random.Random(EXPANSION_SEED)
    pairs = [(u, v) for u, v in combinations(range(n), 2) if v - u not in (1, n - 1)]
    edges = [(i, (i + 1) % n) for i in range(n)] + rng.sample(pairs, chords)
    return graphs.make_graph([str(i) for i in range(n)], edges)


GRAPHS = {
    "C20": lambda graphs: graphs.cycle_graph(20),
    "C24": lambda graphs: graphs.cycle_graph(24),
    "C26": lambda graphs: graphs.cycle_graph(26),
    "chorded28": lambda graphs: chorded(graphs, 28, 14),
    "K30": lambda graphs: graphs.make_graph([str(i) for i in range(30)],
                                            combinations(range(30), 2)),
}


def measure_expansion(libs) -> list[dict]:
    cases = {name: [make(lib.graphs) for lib in libs] for name, make in GRAPHS.items()}
    digests = {}
    for name, graphs in cases.items():
        answers = [lib.graphs.expansion_bruteforce(g) for lib, g in zip(libs, graphs)]
        results = [json.dumps([str(value), list(report.subset), report.boundary_size],
                              separators=(",", ":")).encode() for value, report in answers]
        refuse_unless_equal(name, results, "results")
        digests[name] = (str(answers[0][0]), hashlib.sha256(results[0]).hexdigest())
    tables: list[dict] = [{} for _ in libs]
    for name, graphs in cases.items():
        runs = [partial(lib.graphs.expansion_bruteforce, g) for lib, g in zip(libs, graphs)]
        value, digest = digests[name]
        for table, graph, seconds in zip(tables, graphs, median_s(runs)):
            table[name] = {
                "vertices": graph.n,
                "edges": len(graph.edges),
                "value": value,
                "result_sha256": digest,
                "median_s": round(seconds, 4),
                "masks_per_s": round((2 ** (graph.n - 1) - 1) / seconds),
            }
    return [{"graphs": table} for table in tables]


FORMATS = {"json": [], "text": ["--format", "text"], "approx": ["--approx"]}
ROUTINGS = {
    "punctured:7": ["--family", "punctured", "--d", "7"],
    "cube:6": ["--family", "cube", "--d", "6"],
    "cube:1,punctured:4": ["--family", "product", "--factors", "cube:1,punctured:4"],
    "cube:2,hexagon": ["--family", "product", "--factors", "cube:2,hexagon"],
}


def build_routing(lib, name: str):
    """The routing a ``flow`` request builds for ``name``, a comma-separated
    list of cube:<d>, punctured:<d> and hexagon factors."""
    return lib.flows.routing_of([lib.cli._parse_factor(token) for token in name.split(",")])


def request(lib, argv) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = lib.cli.main(["flow", *argv])
    if code != 0:
        raise SystemExit("flow %s exited %d" % (" ".join(argv), code))
    return buffer.getvalue()


def paired(lib, plain) -> tuple[float, float]:
    """Seconds of the ``plain`` request, then of the same with ``--routing``."""
    return clock(partial(request, lib, plain)), clock(partial(request, lib, [*plain, "--routing"]))


def measure_routing(name: str, argv, libs) -> list[dict]:
    """One entry of the ``routings`` table per library in ``libs``."""
    routings = [build_routing(lib, name) for lib in libs]
    if any(lib.flows.validate(routing) is not None for lib, routing in zip(libs, routings)):
        raise SystemExit("%s: invalid routing" % name)
    reports: list[dict] = [{} for _ in libs]
    for fmt, extra in FORMATS.items():
        for lib, side in zip(libs, reports):
            report = request(lib, [*argv, *extra, "--routing"]).encode()
            side[fmt] = {"bytes": len(report), "sha256": hashlib.sha256(report).hexdigest()}
    refuse_unless_equal(name, reports, "reports")
    seconds: list[dict] = [{} for _ in libs]
    timed = {
        "build": [partial(build_routing, lib, name) for lib in libs],
        "validate": [partial(lib.flows.validate, r) for lib, r in zip(libs, routings)],
        "arc_flows": [partial(lib.flows.arc_flows, r) for lib, r in zip(libs, routings)],
    }
    for key, runs in timed.items():
        for side, value in zip(seconds, median_s(runs)):
            side[key] = value
    for fmt, extra in FORMATS.items():
        for side, runs in zip(seconds, alternate([partial(paired, lib, [*argv, *extra])
                                                  for lib in libs])):
            side["request_" + fmt] = statistics.median(p for p, _ in runs)
            side["request_routing_" + fmt] = statistics.median(r for _, r in runs)
            side["render_" + fmt] = statistics.median(r - p for p, r in runs)
    return [
        {
            "vertices": routing.graph.n,
            "demands": len(routing.paths),
            "reports": report,
            "seconds": {key: round(value, 4) for key, value in sorted(side.items())},
        }
        for routing, report, side in zip(routings, reports, seconds)
    ]


def measure_flows(libs) -> list[dict]:
    entries = [measure_routing(name, argv, libs) for name, argv in ROUTINGS.items()]
    return [{"routings": dict(zip(ROUTINGS, side))} for side in zip(*entries)]


ZONOTOPE_SEED = 20240613
CYCLE_ENTRIES = {"half": Fraction(1, 2), "third": Fraction(1, 3)}


def cycle_and_paths(rng, size: int, entry: Fraction) -> list[list[Fraction]]:
    """``size`` generators on ``size`` seeded coordinates: a cycle of 3 to
    ``size`` generators entry * (e_a - e_b), then unit vectors, each
    generator's sign flipped at random."""
    cycle, coords = rng.randint(3, size), rng.sample(range(size), size)
    gens = []
    for t in range(size):
        vec = [Fraction(0)] * size
        if t < cycle:
            vec[coords[t]], vec[coords[(t + 1) % cycle]] = entry, -entry
        else:
            vec[coords[t]] = Fraction(1)
        gens.append([-x for x in vec] if rng.random() < 0.5 else vec)
    return gens


def repeated(run, calls: int) -> None:
    for _ in range(calls):
        run()


def measure_zonotope(libs) -> list[dict]:
    rng = random.Random(ZONOTOPE_SEED)
    raw = {"%s:%d" % (kind, size): cycle_and_paths(rng, size, entry)
           for size in range(5, 9) for kind, entry in CYCLE_ENTRIES.items()}
    cases = {name: [lib.zonotopes.canonicalize(gens) for lib in libs]
             for name, gens in raw.items()}
    digests = {}
    for name, sets in cases.items():
        answers = [lib.zonotopes.vertices_with_signs(gs) for lib, gs in zip(libs, sets)]
        refuse_unless_equal(name, answers, "vertex lists")
        text = json.dumps([[signs, list(map(str, vertex))] for signs, vertex in answers[0]],
                          separators=(",", ":")).encode()
        digests[name] = (len(answers[0]), hashlib.sha256(text).hexdigest())
    tables: list[dict] = [{} for _ in libs]
    for name, sets in cases.items():
        calls = 2 ** (9 - len(sets[0]))  # about 30-60 ms per timed sample
        runs = [partial(repeated, partial(lib.zonotopes.vertices_with_signs, gs), calls)
                for lib, gs in zip(libs, sets)]
        vertices, digest = digests[name]
        for table, gs, seconds in zip(tables, sets, median_s(runs)):
            table[name] = {
                "generators": len(gs),
                "vertices": vertices,
                "vertices_sha256": digest,
                "median_s": round(seconds / calls, 5),
                "us_per_sign_vector": round(1e6 * seconds / calls / 2 ** len(gs), 1),
            }
    return [{"seed": ZONOTOPE_SEED, "generator_sets": table} for table in tables]


LAYERS = {"simplex": measure_simplex, "expansion": measure_expansion, "flows": measure_flows,
          "zonotope": measure_zonotope}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="PARENT_DIR",
                        help="another checkout to time alternately with this one")
    args = parser.parse_args(argv)

    libs = [load(checkout) for checkout in (ROOT, args.against) if checkout is not None]
    environment = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
    }
    for layer, measure in LAYERS.items():
        for suffix, result in zip([".json", ".before.json"], measure(libs)):
            result.update(environment=environment, repeats=REPEATS, interleaved=len(libs) > 1)
            text = json.dumps(result, indent=2, sort_keys=True) + "\n"
            (ROOT / ("BENCH_%s%s" % (layer, suffix))).write_text(text)
            sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
