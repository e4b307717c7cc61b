"""Tests of the benchmark itself, on the smoke-sized workloads.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def smoke(tmp_path, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seed", "3", "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_smoke_prints_every_end_to_end_metric(tmp_path):
    lines, last = smoke(tmp_path, 0)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    for workload in run.WORKLOADS:
        for name in names:
            metric = last["metrics"]["%s.%s" % (workload, name)]
            assert metric["value"] > 0
        block = "\n".join(lines)
        assert "workload %s" % workload in block
    for name in names + ["failed_ratio"]:
        assert sum(line.split()[:1] == [name] for line in lines) == len(run.WORKLOADS)


def test_smoke_trace_reports_every_layer_metric(tmp_path):
    _, last = smoke(tmp_path, 1)
    assert last["correct"]
    for workload in run.WORKLOADS:
        for spec in SPEC["per_layer"]:
            metric = last["metrics"]["%s.%s" % (workload, spec["name"])]
            assert isinstance(metric["value"], (int, float)), (workload, spec["name"])
            assert metric["unit"] == spec["unit"]
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert metrics["expansion.simplex.lp_maximize.calls"] == 0
    assert metrics["expansion.simplex.lp_feasible.calls"] == 0
    assert metrics["skeleton.simplex.lp_maximize.calls"] > 0
    assert metrics["zonotope.zonotopes.sign_vectors"] > 0
    assert metrics["expansion.graphs.expansion_bruteforce.masks"] > 0
    assert (tmp_path / "skeleton-seed3-spans.json").exists()


def test_missing_function_is_reported_absent(monkeypatch):
    prog = run.load_program()
    monkeypatch.delattr(prog.simplex, "lp_maximize")
    tracer = Tracer()
    tracer.install(prog.package)
    tracer.uninstall()
    metrics = layer_metrics(tracer)
    assert metrics["simplex.lp_maximize.calls"]["value"] is None
    assert "lp_maximize" in metrics["simplex.lp_maximize.calls"]["absent"]
    assert metrics["skeleton.lp_per_pair"]["value"] is None
    assert metrics["simplex.lp_feasible.calls"]["value"] == 0


def test_tracer_restores_every_binding():
    prog = run.load_program()
    original = prog.skeleton.lp_maximize
    tracer = Tracer()
    tracer.install(prog.package)
    assert prog.skeleton.lp_maximize is not original
    assert prog.skeleton.lp_maximize is prog.simplex.lp_maximize
    tracer.uninstall()
    assert prog.skeleton.lp_maximize is original


def _state():
    prog = run.load_program()
    state = run.SimpleNamespace(prog=prog, instances={})
    for d in (3, 7, 11):
        state.instances[d] = list(prog.sparse_cut.build(d).vertices.points)
    return state


def _served(state, workload, slot, seed=5):
    req = workloads.MAKERS[workload](state, slot, workloads.shape_rng(workload, slot),
                                     workloads.rng_for(workload, seed, 0))
    out = run.serve(req, state.prog)
    assert req.check(out) is None
    return req, out


def test_checks_reject_wrong_outputs():
    state = _state()
    req, out = _served(state, "skeleton", ("d7-subset", 10))
    graph = json.loads(out.text)
    graph["edges"] = [e for e in graph["edges"] if 0 not in e]
    out.text = json.dumps(graph)
    assert "degree" in req.check(out)

    req, out = _served(state, "expansion", ("exp-cycle", 12))
    data = json.loads(out.text)
    data["expansion"] = "1/7"
    out.text = json.dumps(data)
    assert req.check(out)

    req, out = _served(state, "zonotope", ("recognize", 6))
    data = json.loads(out.text)
    data["components"] = [{"cycle": 99}]
    out.text = json.dumps(data)
    assert "profile" in req.check(out)

    req, out = _served(state, "zonotope", ("neg-budget", 5))
    assert out.code == 3
    out.code = 0
    assert req.check(out)


def test_golden_digest_mismatch_is_a_failure():
    state = _state()
    _, out = _served(state, "expansion", ("flow-cube", 3))
    goldens = {5: [run.golden.digest(out)]}
    assert run.golden.mismatch(goldens, 5, 0, out) is None
    out.text += " "
    assert run.golden.mismatch(goldens, 5, 0, out)


def _write(directory: Path, seed: int, values: dict) -> None:
    directory.mkdir(exist_ok=True)
    result = {"workload": "skeleton", "trace": 0, "seed": seed,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    (directory / ("skeleton-seed%d-trace0.json" % seed)).write_text(json.dumps(result))


def test_compare_verdicts(tmp_path):
    for seed in range(10):
        jitter = 0.001 * seed
        _write(tmp_path / "parent", seed, {"latency_p50_s": 1.0 + jitter,
                                           "latency_p90_s": 1.0 + jitter,
                                           "setup_s": 1.0 + jitter,
                                           "requests_per_s": [1, 5][seed % 2]})
        _write(tmp_path / "change", seed, {"latency_p50_s": 0.8 + jitter,
                                           "latency_p90_s": 1.5 + jitter,
                                           "setup_s": 1.0 + 2 * jitter,
                                           "requests_per_s": 3})
    verdicts = {row[1]: row[-1] for row in compare.rows(tmp_path / "parent", tmp_path / "change")}
    assert verdicts == {"latency_p50_s": "better", "latency_p90_s": "worse",
                        "setup_s": "same", "requests_per_s": "unresolved"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zonotope", "--smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--out", str(tmp_path / "out")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_requests_depend_only_on_seed_and_index(workload):
    state = _state()
    schedule = workloads.SMOKE_SCHEDULES[workload]
    for index in range(len(schedule)):
        a = workloads.make_request(workload, state, schedule, 9, index)
        b = workloads.make_request(workload, state, schedule, 9, index)
        assert (a.kind, a.size) == (b.kind, b.size)
        assert run.golden.digest(run.serve(a, state.prog)) == \
            run.golden.digest(run.serve(b, state.prog))
