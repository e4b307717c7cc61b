"""The layer harness ``tools/bench_layers.py``: alternation and refusal."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from halfint import cli, flows, graphs, zonotopes

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
_SPEC = importlib.util.spec_from_file_location("bench_layers", _PATH)
bench_layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_layers)


def test_sides_alternate_and_results_come_back_in_repeat_order(monkeypatch):
    monkeypatch.setattr(bench_layers, "REPEATS", 4)
    calls = []

    def side(name):
        def run():
            calls.append(name)
            return len(calls)
        return run

    results = bench_layers.alternate([side("A"), side("B")])
    assert "".join(calls) == "ABBAABBA"
    assert results == [[1, 4, 5, 8], [2, 3, 6, 7]]


def test_expansion_layer_refuses_a_different_witness_before_timing(monkeypatch):
    def untimed(*args):
        pytest.fail("a layer whose sides differ was timed")

    monkeypatch.setattr(bench_layers, "alternate", untimed)
    monkeypatch.setattr(bench_layers, "clock", untimed)

    def other_witness(graph):
        value, report = graphs.expansion_bruteforce(graph)
        return value, SimpleNamespace(subset=report.subset[1:], boundary_size=report.boundary_size)

    stub = SimpleNamespace(graphs=SimpleNamespace(
        cycle_graph=graphs.cycle_graph, make_graph=graphs.make_graph,
        expansion_bruteforce=other_witness))
    with pytest.raises(SystemExit, match="C20"):
        bench_layers.measure_expansion([SimpleNamespace(graphs=graphs), stub])


def test_zonotope_layer_refuses_a_different_vertex_list_before_timing(monkeypatch):
    def untimed(*args):
        pytest.fail("a layer whose sides differ was timed")

    monkeypatch.setattr(bench_layers, "alternate", untimed)
    monkeypatch.setattr(bench_layers, "clock", untimed)

    def one_vertex_short(gs):
        return zonotopes.vertices_with_signs(gs)[:-1]

    stub = SimpleNamespace(zonotopes=SimpleNamespace(
        canonicalize=zonotopes.canonicalize, vertices_with_signs=one_vertex_short))
    with pytest.raises(SystemExit, match="half:5"):
        bench_layers.measure_zonotope([SimpleNamespace(zonotopes=zonotopes), stub])


@pytest.mark.parametrize("name", sorted(bench_layers.ROUTINGS))
def test_built_routing_has_the_congestion_of_its_flow_request(name):
    lib = SimpleNamespace(cli=cli, flows=flows)
    report = json.loads(bench_layers.request(lib, bench_layers.ROUTINGS[name]))
    built = flows.congestion(bench_layers.build_routing(lib, name))
    assert (built.vertex_count, str(built.congestion)) == (
        report["vertex_count"], report["congestion"])
