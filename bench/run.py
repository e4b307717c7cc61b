"""Benchmark for halfint: three seeded closed-loop workloads.

    python3 bench/run.py --workload skeleton|zonotope|expansion|all \\
        --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
    python3 bench/run.py --compare PARENT_DIR CHANGE_DIR

One client, one process, no threads: each request is sent only after the
previous one returns.  The loop runs until the requests' own time adds
up to ``--seconds``; checking outputs happens between requests and is
not timed.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
runs the same requests twice, untraced and then traced, and reports the
per-layer metrics of the traced pass together with the ratio of the two
passes' wall times.  ``--smoke`` runs one cycle of tiny requests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the environment and the request-size histogram, is written to
``--out`` (default ``bench/out``).  The exit code is 1 when any output
check failed and 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import workloads  # noqa: E402
from spans import TRACED, Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("skeleton", "zonotope", "expansion")
SETUPS = 7
# Stop measuring after this much wall time, whatever --seconds says, so
# that a run always ends within the 180 s a run is allowed.
WALL_LIMIT_S = 150.0
# The request each set-up serves once, outside the measured requests.
WARMUP = {"skeleton": ("d3-full", 12), "zonotope": ("recognize", 3),
          "expansion": ("exp-cycle", 12)}
STARTED = time.perf_counter()
# The host's speed drifts: identical requests take up to twice as long
# for seconds at a time.  Interpreted Python slows down more than numpy's
# vectorized loops.  So two fixed tasks, one of each kind of work, are
# timed before every request, and each latency is scaled by the
# reference time of its request's kind of task over the median of that
# task's times around it.  Timings are thus reported in seconds at a
# reference host speed; the raw wall times are kept in the result file
# and printed alongside.
REFERENCE_CAL_S = {"python": 0.0015, "numpy": 0.0013}
CAL_WINDOW = 2  # calibrations on each side of a request
CAL_MASK_BITS = 14
_CAL_EDGES = ([(i, (i + 1) % 16) for i in range(16)]
              + [(i, (i + 5) % 16) for i in range(0, 16, 2)])


def calibrate_python() -> float:
    start = time.perf_counter()
    for _ in range(2):
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i)
    return time.perf_counter() - start


def calibrate_numpy() -> float:
    start = time.perf_counter()
    masks = np.arange(1 << CAL_MASK_BITS, dtype=np.int64)
    boundary = np.zeros(1 << CAL_MASK_BITS, dtype=np.int64)
    for u, v in _CAL_EDGES:
        boundary += ((masks >> u) ^ (masks >> v)) & 1
    int(boundary.argmin())
    return time.perf_counter() - start


CALIBRATIONS = {"python": calibrate_python, "numpy": calibrate_numpy}


def scaled(times: list[float], kernels: list[str], cals: dict[str, list[float]]) -> list[float]:
    """Each time scaled to the reference speed by the calibrations around it."""
    out = []
    for i, (t, kernel) in enumerate(zip(times, kernels)):
        near = cals[kernel][max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]
        out.append(t * REFERENCE_CAL_S[kernel] / statistics.median(near))
    return out


class ProgramMissing(Exception):
    """The checkout has no loadable halfint package under src/."""


def load_program() -> SimpleNamespace:
    """Import halfint afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "halfint" or m.startswith("halfint.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("halfint")
        modules = {m: importlib.import_module("halfint." + m) for m in TRACED}
    except ImportError as exc:
        raise ProgramMissing("cannot import halfint from %s: %s" % (SRC, exc))
    if Path(package.__file__).resolve().parent != SRC / "halfint":
        raise ProgramMissing("halfint was imported from %s, not %s" % (package.__file__, SRC))
    return SimpleNamespace(package=package, **modules)


def set_up(workload: str, seed: int, schedule) -> SimpleNamespace:
    """Import, instance builds, the first cycle of inputs, and one warm-up request."""
    prog = load_program()
    state = SimpleNamespace(prog=prog, instances={})
    if workload == "skeleton":
        for d in (3, 7, 11):
            state.instances[d] = list(prog.sparse_cut.build(d).vertices.points)
    state.requests = [workloads.make_request(workload, state, schedule, seed, i)
                      for i in range(len(schedule))]
    slot = WARMUP[workload]
    warm = workloads.MAKERS[workload](state, slot, workloads.shape_rng(workload, slot),
                                      workloads.rng_for(workload, seed, -1))
    problem = warm.check(warm.call(prog))
    if problem:
        raise RuntimeError("warm-up request failed its check: %s" % problem)
    return state


def request_at(workload, state, schedule, seed, index):
    while len(state.requests) <= index:
        state.requests.append(workloads.make_request(
            workload, state, schedule, seed, len(state.requests)))
    return state.requests[index]


def serve(req, prog):
    """Run one request; an exception escaping the program is an outcome too."""
    try:
        return req.call(prog)
    except Exception:
        return workloads.Outcome(-1, "", traceback.format_exc(limit=4))


class Loop:
    """Closed-loop client over one workload's request sequence."""

    def __init__(self, workload, seed, schedule, state, goldens):
        self.workload, self.seed, self.schedule = workload, seed, schedule
        self.state, self.goldens = state, goldens
        self.failures: list[str] = []
        self.histogram: Counter = Counter()
        self.latencies: list[tuple[str, float]] = []
        self.seen: set[int] = set()
        self.kernels: list[str] = []
        self.cals: dict[str, list[float]] = {kernel: [] for kernel in CALIBRATIONS}
        self.attempted = 0

    def run(self, indices, tracer=None) -> list[float]:
        """Serve the requests; returns their wall times, each after a calibration."""
        latencies = []
        for index in indices:
            req = request_at(self.workload, self.state, self.schedule, self.seed, index)
            for kernel, calibrate in CALIBRATIONS.items():
                self.cals[kernel].append(calibrate())
            self.kernels.append(req.kernel)
            start = time.perf_counter()
            if tracer is None:
                out = serve(req, self.state.prog)
            else:
                with tracer.request(index):
                    out = serve(req, self.state.prog)
            latencies.append(time.perf_counter() - start)
            if tracer is not None and req.cli:
                tracer.output_bytes += len(out.text)
            self.attempted += 1
            if index not in self.seen:  # a traced run serves each request twice
                self.seen.add(index)
                self.histogram["%s:%d" % (req.kind, req.size)] += 1
            self.latencies.append(("%s:%d" % (req.kind, req.size), latencies[-1]))
            problem = req.check(out) if out.code >= 0 else out.err
            problem = problem or golden.mismatch(self.goldens, self.seed, index, out)
            if problem:
                self.failures.append("request %d (%s:%d): %s" % (
                    index, req.kind, req.size, problem.strip()))
        return latencies

    def until(self, seconds: float, smoke: bool) -> list[float]:
        """Requests 0, 1, ... until their wall times add up to ``seconds``."""
        if smoke:
            return self.run(range(len(self.schedule)))
        latencies: list[float] = []
        index = 0
        while sum(latencies) < seconds and time.perf_counter() - STARTED < WALL_LIMIT_S:
            latencies += self.run([index])
            index += 1
        return latencies


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(prog) -> dict:
    fastq = getattr(prog.rationals, "fastq", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fastq": fastq.__name__ if fastq is not None else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def quantiles(latencies: list[float]) -> tuple[float, float]:
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies), deciles[8]


def run_workload(args, workload: str) -> dict:
    schedules = workloads.SMOKE_SCHEDULES if args.smoke else workloads.SCHEDULES
    schedule = schedules[workload]
    mode = "smoke" if args.smoke else "full"
    goldens = golden.load(mode, workload)
    setup_times, setup_cals = [], []
    for _ in range(SETUPS):
        state = None  # let the previous set-up's objects go before the next
        cals = [calibrate_python() for _ in range(3)]
        start = time.perf_counter()
        state = set_up(workload, args.seed, schedule)
        setup_times.append(time.perf_counter() - start)
        setup_cals.append(statistics.median(cals + [calibrate_python() for _ in range(3)]))
    loop = Loop(workload, args.seed, schedule, state, goldens)
    result = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "mode": mode, "env": environment(state.prog)}
    if not args.trace:
        wall = loop.until(args.seconds, args.smoke)
        latencies = scaled(wall, loop.kernels, loop.cals)
        p50, p90 = quantiles(latencies)
        wall_p50, wall_p90 = quantiles(wall)
        wall_setup = statistics.median(setup_times)
        metrics = {
            "setup_s": {"value": statistics.median(
                t * REFERENCE_CAL_S["python"] / c for t, c in zip(setup_times, setup_cals)),
                "unit": "s"},
            "requests_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "latency_p50_s": {"value": p50, "unit": "s"},
            "latency_p90_s": {"value": p90, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
        notes = {"latency_p50_s": "%d samples; wall %.4g s" % (len(latencies), wall_p50),
                 "latency_p90_s": "%d samples; wall %.4g s" % (len(latencies), wall_p90),
                 "requests_per_s": "%d requests; wall %.4g/s" % (len(wall), len(wall) / sum(wall)),
                 "setup_s": "median of %d set-ups; wall %.4g s" % (SETUPS, wall_setup)}
        result["host_speed"] = {kernel: REFERENCE_CAL_S[kernel] / statistics.median(cals)
                                for kernel, cals in loop.cals.items()}
    else:
        untraced = loop.until(args.seconds / 2, args.smoke)
        tracer = Tracer()
        tracer.install(state.prog.package)
        try:
            if workload == "skeleton":
                for d in (3, 7, 11):
                    state.prog.sparse_cut.build(d)
            traced = loop.run(range(len(untraced)), tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer)
        n = len(untraced)
        first = {k: c[:n] for k, c in loop.cals.items()}
        second = {k: c[n:] for k, c in loop.cals.items()}
        overhead = (sum(scaled(traced, loop.kernels[n:], second))
                    / sum(scaled(untraced, loop.kernels[:n], first)))
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        notes = {"trace.overhead_ratio": "traced over untraced time of the same %d "
                 "requests" % len(untraced)}
        args.out.mkdir(parents=True, exist_ok=True)
        tracer.dump(args.out / ("%s-seed%d-spans.json" % (workload, args.seed)))
    result.update(attempted=loop.attempted, failed=len(loop.failures),
                  failures=loop.failures[:20], histogram=dict(sorted(loop.histogram.items())),
                  latencies=loop.latencies, kernels=loop.kernels, calibrations=loop.cals,
                  metrics=metrics, notes=notes)
    return result


def report(result: dict) -> None:
    print("workload %(workload)s  seed %(seed)d  trace %(trace)d  mode %(mode)s" % result)
    print("env " + json.dumps(result["env"], sort_keys=True))
    if "host_speed" in result:
        print("host speed %s of the reference; timings below are scaled to it"
              % json.dumps({k: round(v, 3) for k, v in result["host_speed"].items()}))
    print("histogram " + json.dumps(result["histogram"]))
    for name, metric in result["metrics"].items():
        if metric["value"] is None:
            print("  %-42s absent: %s" % (name, metric["absent"]))
        else:
            note = result["notes"].get(name)
            print("  %-42s %14.6g %-7s%s" % (name, metric["value"], metric["unit"],
                                              "  (%s)" % note if note else ""))
    if not result["trace"]:
        print("  %-42s %14.6g %-7s  (%d of %d requests)" % (
            "failed_ratio", result["failed"] / result["attempted"], "ratio",
            result["failed"], result["attempted"]))
    for line in result["failures"]:
        print("FAILED " + line)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(args.out)]
        done = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            print("%s: exit %d" % (workload, done.returncode), file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*map(Path, args.compare))
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args, args.workload)
    except ProgramMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(args.out / name, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    report(result)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
