"""Layer benchmark for the exact expansion scan; writes ``BENCH_expansion.json``.

For five graphs (the cycles C20, C24 and C26, a seeded chorded cycle on
28 vertices and the complete graph K30) it records the median seconds
of ``expansion_bruteforce`` over ``REPEATS`` runs, and the masks scanned
per second at that median.  The scan visits the 2^(n-1) - 1 nonempty
sides that avoid the last vertex, which is also how the benchmark's
tracer counts masks.  A sha256 of each result (value, witness side and
boundary size) pins the output, so the figures of two checkouts compare
the same answers.

It reads only ``expansion_bruteforce``, ``cycle_graph`` and
``make_graph``, so a copy placed in an older checkout measures that
checkout:

    python3 tools/bench_expansion.py                   # BENCH_expansion.json
    python3 tools/bench_expansion.py --out other.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from halfint.graphs import cycle_graph, expansion_bruteforce, make_graph  # noqa: E402

SEED = 20240612
REPEATS = 5


def chorded(n: int, chords: int):
    """The n-cycle plus ``chords`` seeded random chords."""
    rng = random.Random(SEED)
    pairs = [(u, v) for u, v in combinations(range(n), 2) if v - u not in (1, n - 1)]
    edges = [(i, (i + 1) % n) for i in range(n)] + rng.sample(pairs, chords)
    return make_graph([str(i) for i in range(n)], edges)


CASES = {
    "C20": lambda: cycle_graph(20),
    "C24": lambda: cycle_graph(24),
    "C26": lambda: cycle_graph(26),
    "chorded28": lambda: chorded(28, 14),
    "K30": lambda: make_graph([str(i) for i in range(30)], combinations(range(30), 2)),
}


def median_s(run) -> float:
    """Median wall seconds of ``REPEATS`` calls, each after a collection."""
    spent = []
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        run()
        spent.append(time.perf_counter() - start)
    return statistics.median(spent)


def measure(graph) -> dict:
    value, report = expansion_bruteforce(graph)
    result = json.dumps(
        [str(value), list(report.subset), report.boundary_size], separators=(",", ":")
    ).encode()
    seconds = median_s(lambda: expansion_bruteforce(graph))
    masks = 2 ** (graph.n - 1) - 1
    return {
        "vertices": graph.n,
        "edges": len(graph.edges),
        "value": str(value),
        "result_sha256": hashlib.sha256(result).hexdigest(),
        "median_s": round(seconds, 4),
        "masks_per_s": round(masks / seconds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_expansion.json"))
    args = parser.parse_args(argv)

    result = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "cores": os.cpu_count(),
            "machine": platform.machine(),
        },
        "repeats": REPEATS,
        "graphs": {name: measure(make()) for name, make in CASES.items()},
    }
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
