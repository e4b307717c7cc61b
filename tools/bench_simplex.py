"""Layer benchmark for one simplex solve; writes ``BENCH_simplex.json``.

Replays a fixed, seeded corpus of the skeleton oracle's adjacency
systems through ``lp_maximize``: the full d = 3 instance plus seeded
vertex subsets and three-coordinate faces of the d = 7 instance.  The
corpus is recorded by running ``skeleton_graph`` on those point sets,
so it holds exactly the LPs the oracle solves: a pair the oracle
decides without an LP is not in it, and two checkouts can record
corpora of different sizes.  Compare them by the totals per point set
(LPs, pivots, microseconds), which the file reports next to the per-LP
figures.  Each LP is replayed with the arguments the oracle passed,
keywords included.  Each timed pass reports microseconds per LP for
phase 1 (building the tableau and finding a feasible basis, by
minimizing the artificial sum or by crashing in the columns of a
``start`` hint), for driving artificials out where the checkout still
does so, and for phase 2 (everything else in ``lp_maximize``).  Pivots
per LP are counted in a separate, untimed pass; phase-2 pivots are
split into those that take an artificial out of the basis and
structural ones.  The script also times ``skeleton_graph(build(7))``
(median and best of ``REPEATS`` runs).

It reads only names the library has long had (``lp_maximize`` and the
``_Tableau`` methods ``__init__``, ``run_phase1`` and ``pivot``), plus
``_Tableau.crash`` and ``_Tableau.drop_artificials`` where they exist,
so a copy placed in an older checkout measures that checkout:

    python3 tools/bench_simplex.py                      # BENCH_simplex.json
    python3 tools/bench_simplex.py --out other.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from halfint import simplex, skeleton  # noqa: E402
from halfint.skeleton import PointSet, skeleton_graph  # noqa: E402
from halfint.sparse_cut import build  # noqa: E402

SEED = 20240611
SUBSETS = 12
FACES = 6
REPEATS = 5
# The _Tableau methods that find a feasible basis, and the one that
# drives artificials out before phase 2, in this checkout.
PHASE1 = [name for name in ("run_phase1", "crash") if hasattr(simplex._Tableau, name)]
DROP = [name for name in ("drop_artificials",) if hasattr(simplex._Tableau, name)]


def point_sets() -> list[PointSet]:
    """Full P_3, then seeded P_7 vertex subsets (10-20 points) and faces."""
    rng = random.Random(SEED)
    p7 = list(build(7).vertices.points)
    sets = [build(3).vertices]
    for _ in range(SUBSETS):
        sets.append(PointSet(7, tuple(rng.sample(p7, rng.randint(10, 20)))))
    for _ in range(FACES):
        coords = rng.sample(range(7), 3)
        values = [rng.randint(0, 1) for _ in coords]
        face = [p for p in p7 if all(p[c] == v for c, v in zip(coords, values))]
        sets.append(PointSet(7, tuple(face)))
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


def record_corpus(sets: list[PointSet]) -> list[tuple[int, tuple, dict]]:
    """The point set index and ``(args, kwargs)`` of every LP the oracle solves."""
    corpus = []
    current = [0]

    def recording(solve):
        def run(*args, **kwargs):
            corpus.append((current[0], args, kwargs))
            return solve(*args, **kwargs)
        return run

    with patched(skeleton, lp_maximize=recording):
        for current[0], pset in enumerate(sets):
            skeleton_graph(pset)
    return corpus


def timed_pass(corpus, sets: int) -> tuple[dict[str, float], list[float]]:
    """Seconds spent in each phase, and per point set, over one replay."""
    spent = {"phase1": 0.0, "drop_artificials": 0.0}
    by_set = [0.0] * sets
    clock = time.perf_counter

    def timing(key):
        def wrap(original):
            def run(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    spent[key] += clock() - start
            return run
        return wrap

    phase1 = {name: timing("phase1") for name in ["__init__", *PHASE1]}
    drop = {name: timing(name) for name in DROP}
    with patched(simplex._Tableau, **phase1, **drop):
        for index, args, kwargs in corpus:
            start = clock()
            simplex.lp_maximize(*args, **kwargs)
            by_set[index] += clock() - start
    total = sum(by_set)
    spent["phase2"] = total - spent["phase1"] - spent["drop_artificials"]
    spent["total"] = total
    return spent, by_set


PIVOT_KEYS = ("phase1", "drop_artificials", "phase2_artificial", "phase2_structural")


def counted_pass(corpus, sets: int) -> tuple[dict[str, int], list[int], str]:
    """Pivots per phase, pivots per point set, and a digest of the values.

    ``artificial_entries`` counts pivots in which an artificial enters;
    a phase-2 pivot is ``phase2_artificial`` when an artificial leaves.
    """
    counts = dict.fromkeys((*PIVOT_KEYS, "artificial_entries"), 0)
    by_set = [0] * sets
    phase = ["phase2"]
    current = [0]

    def in_phase(key):
        def wrap(original):
            def run(*args, **kwargs):
                phase[0] = key
                try:
                    return original(*args, **kwargs)
                finally:
                    phase[0] = "phase2"
            return run
        return wrap

    def counting(original):
        def run(self, pivot_row, entering, *args):
            key = phase[0]
            if key == "phase2":
                leaving = self.basis[pivot_row] >= self.n
                key = "phase2_artificial" if leaving else "phase2_structural"
            counts[key] += 1
            counts["artificial_entries"] += entering >= self.n
            by_set[current[0]] += 1
            return original(self, pivot_row, entering, *args)
        return run

    digest = hashlib.sha256()
    phases = {name: in_phase(name if name in DROP else "phase1") for name in [*PHASE1, *DROP]}
    with patched(simplex._Tableau, **phases, pivot=counting):
        for current[0], args, kwargs in corpus:
            value, _ = simplex.lp_maximize(*args, **kwargs)
            digest.update(b"+;" if value > 0 else str(value).encode() + b";")
    return counts, by_set, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_simplex.json"))
    args = parser.parse_args(argv)

    sets = point_sets()
    corpus = record_corpus(sets)
    lps = len(corpus)
    counts, pivots_by_set, digest = counted_pass(corpus, len(sets))
    passes = [timed_pass(corpus, len(sets)) for _ in range(REPEATS)]

    def per_lp_us(key):
        return round(1e6 * statistics.median(p[key] for p, _ in passes) / lps, 1)

    lps_by_set = [0] * len(sets)
    for index, _, _ in corpus:
        lps_by_set[index] += 1
    per_set = [
        {
            "points": len(pset),
            "lps": lps_by_set[k],
            "pivots": pivots_by_set[k],
            "us": round(1e6 * statistics.median(by_set[k] for _, by_set in passes)),
        }
        for k, pset in enumerate(sets)
    ]

    p7 = build(7).vertices
    full_s = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        graph = skeleton_graph(p7)
        full_s.append(time.perf_counter() - start)

    result = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "cores": os.cpu_count(),
            "machine": platform.machine(),
        },
        "corpus": {
            "seed": SEED,
            "point_sets": len(sets),
            "lps": lps,
            "columns_p50": statistics.median(len(args[0][0]) for _, args, _ in corpus),
            "rows_p50": statistics.median(len(args[0]) for _, args, _ in corpus),
            "keywords": sorted({key for _, _, kwargs in corpus for key in kwargs}),
            "values_sha256": digest,
        },
        "lp": {
            "repeats": REPEATS,
            "us_per_lp": {key: per_lp_us(key)
                          for key in ("phase1", "drop_artificials", "phase2", "total")},
            "pivots_per_lp": {key: round(counts[key] / lps, 3) for key in PIVOT_KEYS},
            "artificial_entries": counts["artificial_entries"],
        },
        "per_point_set": per_set,
        "totals": {
            "lps": lps,
            "pivots": sum(counts[key] for key in PIVOT_KEYS),
            "us": round(1e6 * statistics.median(p["total"] for p, _ in passes)),
        },
        "skeleton_d7": {"wall_s": round(statistics.median(full_s), 2),
                        "wall_s_min": round(min(full_s), 2), "edges": len(graph.edges)},
    }
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
