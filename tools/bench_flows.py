"""Layer benchmark for flow certificates; writes ``BENCH_flows.json``.

For four routings (punctured d = 7, cube d = 6 and the products
``cube:1,punctured:4`` and ``cube:2,hexagon``) it records the median
seconds, over ``REPEATS`` runs, of:

- building the routing;
- ``validate`` and ``arc_flows`` on it;
- the whole ``flow`` request through ``cli.main`` into a buffer, without
  and with ``--routing``, in each of three formats: JSON, ``--format
  text`` and ``--approx``; the difference is that format's ``--routing``
  render.

A sha256 of each ``--routing`` report pins its bytes, so the figures of
two checkouts compare the same output.

It reads only names the library has long had (``bitfix_routing``,
``punctured_routing``, ``hexagon_routing``, ``product_routing``,
``validate``, ``arc_flows`` and ``cli.main``), so a copy placed in an
older checkout measures that checkout:

    python3 tools/bench_flows.py                       # BENCH_flows.json
    python3 tools/bench_flows.py --out other.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from halfint import cli  # noqa: E402
from halfint.flows import (  # noqa: E402
    arc_flows,
    bitfix_routing,
    hexagon_routing,
    product_routing,
    punctured_routing,
    validate,
)

REPEATS = 7
FORMATS = {"json": [], "text": ["--format", "text"], "approx": ["--approx"]}
CASES = {
    "punctured:7": ["--family", "punctured", "--d", "7"],
    "cube:6": ["--family", "cube", "--d", "6"],
    "cube:1,punctured:4": ["--family", "product", "--factors", "cube:1,punctured:4"],
    "cube:2,hexagon": ["--family", "product", "--factors", "cube:2,hexagon"],
}


def build(name: str):
    """The routing a ``flow`` request builds for ``name``, a comma-separated
    list of cube:<d>, punctured:<d> and hexagon factors."""
    routings = []
    for token in name.split(","):
        family, _, d = token.partition(":")
        if family == "hexagon":
            routings.append(hexagon_routing())
        else:
            routings.append((bitfix_routing if family == "cube" else punctured_routing)(int(d)))
    routing, *others = routings
    for other in others:
        routing = product_routing(routing, other)
    return routing


def request(argv) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["flow", *argv])
    if code != 0:
        raise SystemExit("flow %s exited %d" % (" ".join(argv), code))
    return buffer.getvalue()


def median_s(run) -> float:
    """Median wall seconds of ``REPEATS`` calls, each after a collection."""
    spent = []
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        run()
        spent.append(time.perf_counter() - start)
    return statistics.median(spent)


def measure(name: str, argv) -> dict:
    routing = build(name)
    if validate(routing) is not None:
        raise SystemExit("%s: invalid routing" % name)
    seconds = {
        "build": median_s(lambda: build(name)),
        "validate": median_s(lambda: validate(routing)),
        "arc_flows": median_s(lambda: arc_flows(routing)),
    }
    reports = {}
    for fmt, extra in FORMATS.items():
        plain, routed = [*argv, *extra], [*argv, *extra, "--routing"]
        report = request(routed).encode()
        reports[fmt] = {"bytes": len(report), "sha256": hashlib.sha256(report).hexdigest()}
        seconds["request_" + fmt] = median_s(lambda: request(plain))
        seconds["request_routing_" + fmt] = median_s(lambda: request(routed))
        seconds["render_" + fmt] = (
            seconds["request_routing_" + fmt] - seconds["request_" + fmt]
        )
    return {
        "vertices": routing.graph.n,
        "demands": len(routing.paths),
        "reports": reports,
        "seconds": {key: round(value, 4) for key, value in seconds.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_flows.json"))
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
        "routings": {name: measure(name, argv) for name, argv in CASES.items()},
    }
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
