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
``validate``, ``arc_flows`` and ``cli.main``).  Timings of one checkout
drift between processes by up to 2x on a shared host, so ``--against``
times another checkout in the same process: both are imported afresh
from their ``src/`` directories (as ``bench/run.py`` loads halfint), and
each timed call alternates between the two, the first side swapping
from repeat to repeat.  The other checkout's figures go beside
``--out`` with ``.before`` before the suffix, and its reports must hash
the same:

    python3 tools/bench_flows.py                       # BENCH_flows.json
    python3 tools/bench_flows.py --out other.json
    python3 tools/bench_flows.py --against PARENT_DIR  # and BENCH_flows.before.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
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
from types import SimpleNamespace

import numpy

ROOT = Path(__file__).resolve().parent.parent


def load(checkout: Path) -> SimpleNamespace:
    """halfint's ``cli`` and ``flows`` modules, imported afresh from
    ``checkout/src``; the modules stay bound to each other after a
    later load replaces them in ``sys.modules``."""
    for name in [m for m in sys.modules if m == "halfint" or m.startswith("halfint.")]:
        del sys.modules[name]
    src = str(Path(checkout).resolve() / "src")
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("halfint.cli")
        flows = importlib.import_module("halfint.flows")
    finally:
        sys.path.remove(src)
    if Path(cli.__file__).resolve().parents[1] != Path(src):
        raise SystemExit("halfint was imported from %s, not %s" % (cli.__file__, src))
    return SimpleNamespace(cli=cli, flows=flows)


REPEATS = 7
FORMATS = {"json": [], "text": ["--format", "text"], "approx": ["--approx"]}
CASES = {
    "punctured:7": ["--family", "punctured", "--d", "7"],
    "cube:6": ["--family", "cube", "--d", "6"],
    "cube:1,punctured:4": ["--family", "product", "--factors", "cube:1,punctured:4"],
    "cube:2,hexagon": ["--family", "product", "--factors", "cube:2,hexagon"],
}


def build(lib: SimpleNamespace, name: str):
    """The routing a ``flow`` request builds for ``name``, a comma-separated
    list of cube:<d>, punctured:<d> and hexagon factors."""
    flows = lib.flows
    routings = []
    for token in name.split(","):
        family, _, d = token.partition(":")
        if family == "hexagon":
            routings.append(flows.hexagon_routing())
        elif family == "cube":
            routings.append(flows.bitfix_routing(int(d)))
        else:
            routings.append(flows.punctured_routing(int(d)))
    routing, *others = routings
    for other in others:
        routing = flows.product_routing(routing, other)
    return routing


def request(lib: SimpleNamespace, argv) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = lib.cli.main(["flow", *argv])
    if code != 0:
        raise SystemExit("flow %s exited %d" % (" ".join(argv), code))
    return buffer.getvalue()


def median_s(runs) -> list[float]:
    """Median wall seconds of ``REPEATS`` calls of each of ``runs``, each
    call after a collection; the runs alternate, and the one that goes
    first changes from repeat to repeat."""
    spent: list[list[float]] = [[] for _ in runs]
    for repeat in range(REPEATS):
        order = list(enumerate(runs))
        for side, run in order[repeat % len(order):] + order[:repeat % len(order)]:
            gc.collect()
            start = time.perf_counter()
            run()
            spent[side].append(time.perf_counter() - start)
    return [statistics.median(times) for times in spent]


def measure(name: str, argv, libs: list[SimpleNamespace]) -> list[dict]:
    """One entry of the ``routings`` table per library in ``libs``, timed
    alternately."""
    routings = [build(lib, name) for lib in libs]
    if any(lib.flows.validate(routing) is not None for lib, routing in zip(libs, routings)):
        raise SystemExit("%s: invalid routing" % name)
    timed = {
        "build": [lambda lib=lib: build(lib, name) for lib in libs],
        "validate": [lambda lib=lib, r=r: lib.flows.validate(r)
                     for lib, r in zip(libs, routings)],
        "arc_flows": [lambda lib=lib, r=r: lib.flows.arc_flows(r)
                      for lib, r in zip(libs, routings)],
    }
    reports = [{} for _ in libs]
    for fmt, extra in FORMATS.items():
        plain, routed = [*argv, *extra], [*argv, *extra, "--routing"]
        for lib, side in zip(libs, reports):
            report = request(lib, routed).encode()
            side[fmt] = {"bytes": len(report), "sha256": hashlib.sha256(report).hexdigest()}
        timed["request_" + fmt] = [lambda lib=lib: request(lib, plain) for lib in libs]
        timed["request_routing_" + fmt] = [lambda lib=lib: request(lib, routed)
                                           for lib in libs]
    if any(side != reports[0] for side in reports):
        raise SystemExit("%s: the checkouts' reports differ" % name)
    seconds = [{} for _ in libs]
    for key, runs in timed.items():
        for side, value in zip(seconds, median_s(runs)):
            side[key] = value
    for side in seconds:
        for fmt in FORMATS:
            side["render_" + fmt] = side["request_routing_" + fmt] - side["request_" + fmt]
    return [
        {
            "vertices": routing.graph.n,
            "demands": len(routing.paths),
            "reports": report,
            "seconds": {key: round(value, 4) for key, value in sorted(side.items())},
        }
        for routing, report, side in zip(routings, reports, seconds)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_flows.json"))
    parser.add_argument("--against", default=None,
                        help="another checkout to time alternately with this one")
    args = parser.parse_args(argv)

    libs = [load(ROOT)]
    if args.against is not None:
        libs.append(load(Path(args.against)))
    tables = [{} for _ in libs]
    for name, case in CASES.items():
        for table, entry in zip(tables, measure(name, case, libs)):
            table[name] = entry
    environment = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
    }
    this = Path(args.out)
    for out, table in zip([this, this.with_suffix(".before" + this.suffix)], tables):
        result = {"environment": environment, "repeats": REPEATS,
                  "interleaved": len(libs) > 1, "routings": table}
        text = json.dumps(result, indent=2, sort_keys=True) + "\n"
        out.write_text(text)
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
