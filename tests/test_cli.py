"""End-to-end command-line checks: goldens, exit codes, determinism."""

import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from halfint.cli import (
    _GRAPH_REPORTS,
    PRODUCT_MAX_EDGES,
    PRODUCT_MAX_VERTICES,
    build_parser,
    main,
)
from halfint.graphs import (
    MAX_EXPANSION_VERTICES,
    cycle_graph,
    hypercube,
    make_graph,
    path_graph,
)

HEX_GENS = {
    "dim": 3,
    "generators": [["1/2", "-1/2", "0"], ["0", "1/2", "-1/2"], ["1/2", "0", "-1/2"]],
}
OCT_GENS = {
    "dim": 2,
    "generators": [["1/3", "0"], ["0", "1/3"], ["1/3", "1/3"], ["1/3", "-1/3"]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def forbid(monkeypatch, *names, module="cli"):
    """Make each named ``halfint.<module>`` function fail the test if it is called."""
    def unreachable(*args):
        raise AssertionError("a report was computed")

    for name in names:
        monkeypatch.setattr("halfint.%s.%s" % (module, name), unreachable)


def test_sparsecut_counts(capsys):
    code, out, _ = run(capsys, "sparsecut", "--d", "3", "--report", "counts")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 12 and data["crossing_edges"] == 6


def test_sparsecut_cut_golden(capsys):
    code, out, _ = run(capsys, "sparsecut", "--d", "7", "--report", "cut")
    assert code == 0
    data = json.loads(out)
    assert data["ratio"] == "2/3"
    assert data["below_benchmark"] is False


def test_module_entry_point_exits_with_main(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for d, status in (("3", 0), ("5", 2)):
        argv = ["sparsecut", "--d", d, "--report", "cut"]
        done = subprocess.run([sys.executable, "-m", "halfint.cli", *argv],
                              capture_output=True, text=True, env=env)
        code, out, err = run(capsys, *argv)
        assert (done.returncode, done.stdout, done.stderr) == (status, out, err)
        assert code == status


def test_sparsecut_invalid_dimension(capsys):
    code, _, err = run(capsys, "sparsecut", "--d", "5", "--report", "counts")
    assert code == 2
    assert "3 mod 4" in err


def test_sparsecut_skeleton_dot(capsys):
    code, out, _ = run(
        capsys, "sparsecut", "--d", "3", "--report", "skeleton", "--format", "dot"
    )
    assert code == 0
    node_lines = [l for l in out.splitlines() if l.endswith('";') and " -- " not in l]
    edge_lines = [l for l in out.splitlines() if " -- " in l]
    assert len(node_lines) == 12
    assert len(edge_lines) == 18


def test_sparsecut_skeleton_guard(capsys):
    code, _, err = run(capsys, "sparsecut", "--d", "11", "--report", "skeleton")
    assert code == 2
    assert "d <= 7" in err


def test_sparsecut_closed_form_dimension_guard(capsys):
    for report in ("counts", "cut"):
        code, out, err = run(capsys, "sparsecut", "--d", "99999", "--report", report)
        assert code == 2 and out == ""
        assert "d <= 4095" in err
    code, _, _ = run(capsys, "sparsecut", "--d", "4095", "--report", "counts")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("sparsecut", "--d", "\u0667", "--report", "counts"),
        ("sparsecut", "--d", "1_1", "--report", "counts"),
        ("flow", "--family", "cube", "--d", "\u0663"),
    ],
    ids=[
        "sparsecut-arabic-indic-seven",
        "sparsecut-underscore",
        "flow-arabic-indic-three",
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "invalid integer" in err and "Traceback" not in err


def test_zono_recognize_cycle(capsys, tmp_path):
    path = write_json(tmp_path, "gens.json", HEX_GENS)
    code, out, _ = run(capsys, "zono", "--action", "recognize", "--in", path)
    assert code == 0
    assert json.loads(out)["components"] == [{"cycle": 3}]


def test_zono_check_octagon(capsys, tmp_path):
    path = write_json(tmp_path, "oct.json", OCT_GENS)
    code, out, _ = run(capsys, "zono", "--action", "check", "--in", path)
    assert code == 0
    data = json.loads(out)
    assert data == {"half_integral": False, "translation": None}


def test_zono_recognize_octagon_exit3(capsys, tmp_path):
    path = write_json(tmp_path, "oct.json", OCT_GENS)
    code, _, err = run(capsys, "zono", "--action", "recognize", "--in", path)
    assert code == 3
    assert "coordinate" in err


def test_zono_vertices_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(HEX_GENS)))
    code, out, _ = run(capsys, "zono", "--action", "vertices")
    assert code == 0
    assert json.loads(out)["vertex_count"] == 6


def test_zono_check_and_recognize_take_many_generators(capsys, tmp_path):
    units = [["1" if i == k else "0" for i in range(24)] for k in range(24)]
    path = write_json(tmp_path, "cube.json", {"dim": 24, "generators": units})
    code, out, _ = run(capsys, "zono", "--action", "check", "--in", path)
    assert code == 0
    assert json.loads(out) == {"half_integral": True, "translation": ["0"] * 24}
    code, out, _ = run(capsys, "zono", "--action", "recognize", "--in", path)
    assert code == 0 and json.loads(out)["components"] == [{"path_edges": 24}]
    # listing 2^24 vertices stays guarded
    code, out, err = run(capsys, "zono", "--action", "vertices", "--in", path)
    assert code == 2 and out == ""
    assert "vertex enumeration guarded at 20 generators" in err


def test_zono_realize(capsys, tmp_path):
    g = make_graph(
        ["c0", "c1", "c2", "c3", "p0", "p1", "p2"],
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)],
    )
    path = write_json(tmp_path, "g.json", g.to_json())
    code, out, _ = run(capsys, "zono", "--action", "realize", "--in", path)
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 6 and len(data["generators"]) == 6


def test_zono_malformed_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "zono", "--action", "check", "--in", str(path))
    assert code == 2
    assert "cannot read input" in err
    path2 = write_json(tmp_path, "bad2.json", {"dim": 2})
    code, _, err = run(capsys, "zono", "--action", "check", "--in", path2)
    assert code == 2


def test_zono_rejects_numeric_generator_entry(capsys, tmp_path):
    path = write_json(tmp_path, "numeric.json", {"dim": 1, "generators": [[1]]})
    code, out, err = run(capsys, "zono", "--action", "check", "--in", path)
    assert code == 2 and out == ""
    assert "malformed generator input" in err and "Traceback" not in err


@pytest.mark.parametrize("generators", [[], {}, "", {"0": ["1"]}])
def test_zono_rejects_generators_that_are_not_a_nonempty_list(
    capsys, tmp_path, generators
):
    # an empty list would let "dim" alone size the output: 10**12 coordinates
    data = {"dim": 10**12, "generators": generators}
    path = write_json(tmp_path, "gens.json", data)
    code, out, err = run(capsys, "zono", "--action", "check", "--in", path)
    assert code == 2 and out == ""
    assert "malformed generator input" in err and "not a nonempty list" in err


@pytest.mark.parametrize("entry", ["\u0661", "\u0661/\u0662", "1/\uff12"])
def test_zono_rejects_non_ascii_digits(capsys, tmp_path, entry):
    path = write_json(tmp_path, "gens.json", {"dim": 1, "generators": [[entry]]})
    code, out, err = run(capsys, "zono", "--action", "check", "--in", path)
    assert code == 2 and out == ""
    assert "not p/q or p in ASCII digits, q nonzero" in err


@pytest.mark.parametrize("entry", ["1/0", " -2/00 "])
def test_zono_names_a_zero_denominator(capsys, tmp_path, entry):
    path = write_json(tmp_path, "gens.json", {"dim": 1, "generators": [[entry]]})
    code, out, err = run(capsys, "zono", "--action", "check", "--in", path)
    assert code == 2 and out == ""
    assert err == (
        "error: malformed generator input: not p/q or p in ASCII digits, q nonzero: %r\n"
        % entry.strip()
    )


def test_flow_cube_golden(capsys):
    code, out, _ = run(capsys, "flow", "--family", "cube", "--d", "4")
    assert code == 0
    data = json.loads(out)
    assert data["congestion"] == "1/2"
    assert data["expansion_lower_bound"] == "1"


def test_flow_punctured_golden(capsys):
    code, out, _ = run(capsys, "flow", "--family", "punctured", "--d", "4")
    data = json.loads(out)
    assert code == 0
    assert data["congestion"] == "11/14"
    assert data["expansion_lower_bound"] == "7/11"


def test_flow_hexagon_golden(capsys):
    code, out, _ = run(capsys, "flow", "--family", "hexagon")
    data = json.loads(out)
    assert data["congestion"] == "3/4"
    assert data["vertex_count"] == 6


def test_flow_product(capsys):
    code, out, _ = run(
        capsys, "flow", "--family", "product", "--factors", "cube:1,hexagon"
    )
    assert code == 0
    data = json.loads(out)
    assert data["vertex_count"] == 12
    assert data["congestion"] == "3/4"


def test_flow_guards(capsys):
    assert run(capsys, "flow", "--family", "hexagon", "--d", "3")[0] == 2
    assert run(capsys, "flow", "--family", "cube")[0] == 2
    assert run(capsys, "flow", "--family", "cube", "--d", "99")[0] == 2
    assert run(capsys, "flow", "--family", "product", "--factors", "cube:1")[0] == 2
    assert run(capsys, "flow", "--family", "product", "--factors", "nope,hexagon")[0] == 2
    assert run(capsys, "flow", "--family", "product")[0] == 2


_ROUTING_BUILDS = ("bitfix_routing", "punctured_routing", "hexagon_routing", "product_routing")


@pytest.fixture
def no_routing_builds(monkeypatch):
    forbid(monkeypatch, *_ROUTING_BUILDS, module="flows")


@pytest.mark.parametrize(
    "factors",
    ["cube:10,cube:10", "cube:10,cube:1", "cube:11,hexagon", "hexagon,hexagon,hexagon,hexagon"],
)
def test_flow_product_size_guard(capsys, no_routing_builds, factors):
    code, out, err = run(capsys, "flow", "--family", "product", "--factors", factors)
    assert code == 2 and out == ""
    assert err == "error: product routings are limited to 1024 vertices, the size of cube:10\n"


@pytest.mark.parametrize(
    "factors,family,low",
    [
        ("cube:10,cube:0", "bitfix", 1),
        ("cube:9,punctured:1", "punctured", 3),
        ("cube:10,punctured:0", "punctured", 3),
    ],
)
def test_flow_product_checks_every_factor_before_building(
    capsys, no_routing_builds, factors, family, low
):
    code, out, err = run(capsys, "flow", "--family", "product", "--factors", factors)
    assert code == 2 and out == ""
    assert err == "error: %s routing supported for %d <= d <= 10\n" % (family, low)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--family", "cube", "--d", "2", "--factors", "hexagon,hexagon"),
         "--factors applies to the product family only"),
        (("--family", "product", "--d", "3", "--factors", "cube:1,cube:1"),
         "the product family takes its dimensions from --factors"),
    ],
    ids=["factors-without-product", "d-with-product"],
)
def test_flow_rejects_ignored_options(capsys, no_routing_builds, argv, message):
    code, out, err = run(capsys, "flow", *argv)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("factors", ["cube:5,cube:5", "punctured:3,cube:7"])
def test_flow_product_size_guard_admits_up_to_cube_10(capsys, monkeypatch, factors):
    def stop(rg, rh):
        raise ValueError("product of %d and %d vertices" % (rg.graph.n, rh.graph.n))

    monkeypatch.setattr("halfint.flows.product_routing", stop)
    code, _, err = run(capsys, "flow", "--family", "product", "--factors", factors)
    assert code == 2 and "error: product of" in err


def test_flow_rejects_non_ascii_factor_dimension(capsys):
    code, out, err = run(
        capsys, "flow", "--family", "product", "--factors", "cube:\u0661,hexagon"
    )
    assert code == 2 and out == ""
    assert "bad factor" in err


def test_flow_routing_embed(capsys):
    code, out, _ = run(
        capsys, "flow", "--family", "cube", "--d", "1", "--routing"
    )
    data = json.loads(out)
    assert len(data["routing"]["demands"]) == 2


def test_graph_expansion_c6(capsys, tmp_path):
    path = write_json(tmp_path, "c6.json", cycle_graph(6).to_json())
    code, out, _ = run(capsys, "graph", "--action", "expansion", "--in", path)
    assert code == 0
    data = json.loads(out)
    assert data["expansion"] == "2/3"
    assert data["witness"]["subset"] == [0, 1, 2]


def test_graph_expansion_q4(capsys, tmp_path):
    path = write_json(tmp_path, "q4.json", hypercube(4).to_json())
    code, out, _ = run(capsys, "graph", "--action", "expansion", "--in", path)
    assert json.loads(out)["expansion"] == "1"


def test_graph_expansion_guard(capsys, tmp_path):
    big = make_graph([str(i) for i in range(MAX_EXPANSION_VERTICES + 1)], [])
    path = write_json(tmp_path, "big.json", big.to_json())
    code, _, err = run(capsys, "graph", "--action", "expansion", "--in", path)
    assert code == 2


def test_graph_expansion_c27(capsys, tmp_path):
    path = write_json(tmp_path, "c27.json", cycle_graph(27).to_json())
    code, out, _ = run(capsys, "graph", "--action", "expansion", "--in", path)
    assert code == 0
    data = json.loads(out)
    assert data["expansion"] == "2/13"
    assert data["witness"]["subset"] == list(range(13))


@pytest.mark.parametrize("edge", [[1, 2.9], [True, 2]])
def test_graph_rejects_non_integer_edge_index(capsys, tmp_path, edge):
    data = {"labels": ["a", "b", "c"], "edges": [[0, 1], edge]}
    path = write_json(tmp_path, "bad.json", data)
    code, out, err = run(capsys, "graph", "--action", "expansion", "--in", path)
    assert code == 2 and out == ""
    assert "malformed graph input" in err and "is not an integer" in err


@pytest.mark.parametrize("labels", [[1, 2, 3], ["a", None, "c"], "abc"])
def test_graph_rejects_non_string_labels(capsys, tmp_path, labels):
    data = {"labels": labels, "edges": [[0, 1]]}
    path = write_json(tmp_path, "bad.json", data)
    code, out, err = run(capsys, "graph", "--action", "expansion", "--in", path)
    assert code == 2 and out == ""
    assert "malformed graph input" in err and "not a list of strings" in err


@pytest.mark.parametrize("edges", [{}, "", {"0": [0, 1]}])
def test_graph_rejects_edges_that_are_not_a_list(capsys, tmp_path, edges):
    a = write_json(tmp_path, "a.json", {"labels": ["a"], "edges": edges})
    code, out, err = run(capsys, "graph", "--action", "product", "--in", a, "--in2", a)
    assert code == 2 and out == ""
    assert "malformed graph input" in err and "not a list of index pairs" in err


@pytest.mark.parametrize(
    "argv",
    [("graph", "--action", "expansion"), ("zono", "--action", "realize"),
     ("graph", "--action", "product", "--in2", "GOOD")],
    ids=["graph-expansion", "zono-realize", "graph-product"],
)
@pytest.mark.parametrize("repeat", [[1, 0], [0, 1]], ids=["reversed", "exact"])
def test_graph_refuses_a_repeated_edge(capsys, tmp_path, argv, repeat):
    # merged into one edge, the input would be answered as a different graph
    bad = write_json(tmp_path, "bad.json",
                     {"labels": ["a", "b", "c"], "edges": [[0, 1], [1, 2], repeat]})
    good = write_json(tmp_path, "good.json", {"labels": ["x", "y"], "edges": [[0, 1]]})
    argv = [good if arg == "GOOD" else arg for arg in argv]
    code, out, err = run(capsys, *argv, "--in", bad)
    assert code == 2 and out == ""
    assert err == "error: malformed graph input: edge 2 %r repeats edge 0 [0, 1]\n" % repeat


_READERS = [
    ("graph", ("graph", "--action", "expansion")),
    ("graph", ("zono", "--action", "realize")),
    ("generator", ("zono", "--action", "check")),
    ("generator", ("zono", "--action", "recognize")),
]


@pytest.mark.parametrize("what, command", _READERS, ids=[
    "graph-expansion", "zono-realize", "zono-check", "zono-recognize"])
@pytest.mark.parametrize("data", [[1, 2], "abc", None, 3, True])
def test_input_that_is_not_a_json_object(capsys, tmp_path, what, command, data):
    path = write_json(tmp_path, "in.json", data)
    code, out, err = run(capsys, *command, "--in", path)
    assert code == 2 and out == ""
    assert err == "error: malformed %s input: the input is not a JSON object\n" % what


@pytest.mark.parametrize(
    "command, data, message",
    [
        (("graph", "--action", "expansion"), {"edges": []}, "graph input: missing key 'labels'"),
        (("zono", "--action", "realize"), {"labels": ["a"]}, "graph input: missing key 'edges'"),
        (("zono", "--action", "check"), {"generators": [["1"]]},
         "generator input: missing key 'dim'"),
        (("zono", "--action", "vertices"), {"dim": 1}, "generator input: missing key 'generators'"),
    ],
)
def test_input_missing_a_key(capsys, tmp_path, command, data, message):
    path = write_json(tmp_path, "in.json", data)
    code, out, err = run(capsys, *command, "--in", path)
    assert code == 2 and out == ""
    assert err == "error: malformed %s\n" % message


_REPEATED_KEY = {
    "graph": ('{"labels": ["a", "b", "c"], "edges": [[0, 1], [1, 2], [2, 0]], '
              '"edges": [[0, 1]]}', "edges"),
    "generator": ('{"dim": 1, "generators": [["1"]], "generators": [["1"], ["2"]]}',
                  "generators"),
}


@pytest.mark.parametrize("what, command", [*_READERS, ("graph", ("graph", "--action", "product"))],
                         ids=["graph-expansion", "zono-realize", "zono-check", "zono-recognize",
                              "graph-product-in2"])
def test_input_with_a_repeated_key(capsys, tmp_path, what, command):
    text, key = _REPEATED_KEY[what]
    path = tmp_path / "in.json"
    path.write_text(text)
    inputs = ["--in", str(path)]
    if "product" in command:
        valid = write_json(tmp_path, "a.json", make_graph(["a0", "a1"], [(0, 1)]).to_json())
        inputs = ["--in", valid, "--in2", str(path)]
    code, out, err = run(capsys, *command, *inputs)
    assert code == 2 and out == ""
    assert err == "error: malformed %s input: key '%s' repeats\n" % (what, key)


def test_graph_product_rejects_a_second_input_that_is_not_an_object(capsys, tmp_path):
    a = write_json(tmp_path, "a.json", make_graph(["a0", "a1"], [(0, 1)]).to_json())
    b = write_json(tmp_path, "b.json", ["a0", "a1"])
    code, out, err = run(capsys, "graph", "--action", "product", "--in", a, "--in2", b)
    assert code == 2 and out == ""
    assert err == "error: malformed graph input: the input is not a JSON object\n"


def test_graph_product_size_guard(capsys, tmp_path, monkeypatch):
    forbid(monkeypatch, "cartesian_product")
    path = write_json(tmp_path, "p257.json", path_graph(257).to_json())
    assert 257 * 257 > PRODUCT_MAX_VERTICES == 2**16
    code, out, err = run(capsys, "graph", "--action", "product", "--in", path, "--in2", path)
    assert code == 2 and out == ""
    assert err == "error: graph products are limited to 65536 vertices\n"


def _complete_graph(n):
    return make_graph(["k%d" % v for v in range(n)], [(u, v) for v in range(n) for u in range(v)])


def test_graph_product_edge_guard(capsys, tmp_path, monkeypatch):
    forbid(monkeypatch, "cartesian_product")
    path = write_json(tmp_path, "k64.json", _complete_graph(64).to_json())
    assert 64 * 64 <= PRODUCT_MAX_VERTICES and 2 * 64 * 2016 > PRODUCT_MAX_EDGES == 2**17
    code, out, err = run(capsys, "graph", "--action", "product", "--in", path, "--in2", path)
    assert code == 2 and out == ""
    assert err == "error: graph products are limited to 131072 edges\n"


@pytest.mark.parametrize("a, b", [(path_graph(256), path_graph(256)),
                                  (_complete_graph(45), _complete_graph(45))],
                         ids=["paths-256", "complete-45"])
def test_graph_product_guards_admit_up_to_their_caps(capsys, tmp_path, monkeypatch, a, b):
    def stop(g, h):
        raise ValueError("product of %d and %d vertices" % (g.n, h.n))

    monkeypatch.setattr("halfint.cli.cartesian_product", stop)
    assert a.n * len(b.edges) + b.n * len(a.edges) <= PRODUCT_MAX_EDGES
    pa = write_json(tmp_path, "a.json", a.to_json())
    pb = write_json(tmp_path, "b.json", b.to_json())
    code, _, err = run(capsys, "graph", "--action", "product", "--in", pa, "--in2", pb)
    assert code == 2 and "error: product of" in err


def test_graph_product_dot(capsys, tmp_path):
    a = write_json(tmp_path, "a.json", make_graph(["a0", "a1"], [(0, 1)]).to_json())
    b = write_json(tmp_path, "b.json", make_graph(["b0", "b1"], [(0, 1)]).to_json())
    code, out, _ = run(
        capsys, "graph", "--action", "product", "--in", a, "--in2", b,
        "--format", "dot",
    )
    assert code == 0
    assert out.count(" -- ") == 4
    # missing second input
    assert run(capsys, "graph", "--action", "product", "--in", a)[0] == 2


_DOT_ID = r'"((?:[^"\\]|\\.)*)"'


@pytest.mark.parametrize("label", ['a"b', "b\\", "a\0b"],
                         ids=["quote", "trailing-backslash", "nul"])
def test_graph_product_dot_quotes_labels(capsys, tmp_path, label):
    a = write_json(tmp_path, "a.json", make_graph([label, "c"], [(0, 1)]).to_json())
    b = write_json(tmp_path, "b.json", make_graph(["x"], []).to_json())
    code, out, _ = run(
        capsys, "graph", "--action", "product", "--in", a, "--in2", b,
        "--format", "dot",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph G {" and lines[-1] == "}"
    node = re.compile(r"  %s;\Z" % _DOT_ID)
    edge = re.compile(r"  %s -- %s;\Z" % (_DOT_ID, _DOT_ID))
    nodes = [node.match(line) for line in lines[1:3]]
    edges = [edge.match(line) for line in lines[3:-1]]
    assert all(nodes) and len(edges) == 1 and all(edges)

    def unquote(text):
        return re.sub(r"\\(.)", r"\1", text)

    assert [unquote(m.group(1)) for m in nodes] == [label + "|x", "c|x"]
    assert [unquote(g) for g in edges[0].groups()] == [label + "|x", "c|x"]


def test_output_deterministic(capsys):
    args = ("sparsecut", "--d", "7", "--report", "cut")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "flow", "--family", "hexagon", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["congestion"] == "3/4"


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_out_unwritable(capsys, tmp_path, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "flow", "--family", "cube", "--d", "2", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output: ") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [errno.ENOSPC, errno.EPIPE], ids=["full", "closed-pipe"])
def test_stdout_unwritable(capsys, monkeypatch, error):
    class Unwritable(io.StringIO):
        def write(self, text):
            raise OSError(error, os.strerror(error))

    monkeypatch.setattr(sys, "stdout", Unwritable())
    code = main(["flow", "--family", "punctured", "--d", "3", "--routing"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: cannot write output: [Errno %d] %s\n" % (error, os.strerror(error))


def test_approx_json(capsys):
    code, out, _ = run(capsys, "flow", "--family", "hexagon", "--approx")
    data = json.loads(out)
    assert data["approx"]["congestion"] == "0.750000"
    assert data["congestion"] == "3/4"


def test_approx_text(capsys):
    code, out, _ = run(
        capsys, "flow", "--family", "hexagon", "--format", "text", "--approx"
    )
    assert "congestion: 3/4 (~0.750000)" in out


@pytest.mark.parametrize("label", ["1/0", "1/3"], ids=["divides-by-zero", "one-third"])
def test_approx_leaves_graph_labels_alone(capsys, tmp_path, label):
    path = write_json(tmp_path, "g.json", {"labels": [label, "b"], "edges": [[0, 1]]})
    code, out, err = run(capsys, "graph", "--action", "expansion", "--in", path, "--approx")
    assert code == 0 and "Traceback" not in err
    data = json.loads(out)
    assert data["witness"]["subset_labels"] == [label]
    assert "approx" not in data  # "1" is the only number, and it is an integer


def test_approx_renders_long_rationals_exactly(capsys, tmp_path):
    # 31 integer digits: more than the 28 significant digits of a Decimal
    entries = ["10000000000000000000000000000001/3", "1/2000000", "3/2000000", "-1/3000000"]
    path = write_json(tmp_path, "gens.json", {"dim": 4, "generators": [entries]})
    code, out, err = run(capsys, "zono", "--action", "vertices", "--in", path, "--approx")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["approx"] == {
        "points.1.0": "3333333333333333333333333333333.666667",
        "points.1.1": "0.000000",  # ties go to even
        "points.1.2": "0.000002",
        "points.1.3": "-0.000000",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("sparsecut", "--d", "3", "--report", "skeleton"),
        ("graph", "--action", "product", "--in", "missing-a.json", "--in2", "missing-b.json"),
    ],
    ids=["sparsecut-skeleton", "graph-product"],
)
def test_approx_rejected_with_dot(capsys, monkeypatch, argv):
    forbid(monkeypatch, "skeleton_graph", "cartesian_product", "_load_json")
    code, out, err = run(capsys, *argv, "--format", "dot", "--approx")
    assert code == 2 and out == ""
    assert err == "error: --approx does not apply to --format dot\n"


# every report of every subcommand; GENS and GRAPH stand for input files
_REPORTS = {
    "sparsecut-counts": ("sparsecut", "--d", "3", "--report", "counts"),
    "sparsecut-cut": ("sparsecut", "--d", "3", "--report", "cut"),
    "sparsecut-skeleton": ("sparsecut", "--d", "3", "--report", "skeleton"),
    "zono-vertices": ("zono", "--action", "vertices", "--in", "GENS"),
    "zono-check": ("zono", "--action", "check", "--in", "GENS"),
    "zono-recognize": ("zono", "--action", "recognize", "--in", "GENS"),
    "zono-realize": ("zono", "--action", "realize", "--in", "GRAPH"),
    "flow": ("flow", "--family", "cube", "--d", "10"),
    "graph-expansion": ("graph", "--action", "expansion", "--in", "GRAPH"),
    "graph-product": ("graph", "--action", "product", "--in", "GRAPH", "--in2", "GRAPH"),
}
_DOT_REPORTS = {"sparsecut-skeleton", "zono-recognize", "graph-product"}


@pytest.mark.parametrize("report", sorted(_REPORTS))
def test_dot_format_for_every_report(capsys, monkeypatch, tmp_path, report):
    files = {
        "GENS": write_json(tmp_path, "gens.json", HEX_GENS),
        "GRAPH": write_json(tmp_path, "graph.json", cycle_graph(3).to_json()),
    }
    argv = [files.get(arg, arg) for arg in _REPORTS[report]]
    if report not in _DOT_REPORTS:
        forbid(monkeypatch, "_load_json", "counts_to_json", "cut_report", "build",
               "skeleton_graph", "zonotope_vertices", "is_half_integral",
               "recognize_graphical", "realize_half_integral", "congestion",
               "expansion_bruteforce", "cartesian_product", "routing_of")
    code, out, err = run(capsys, *argv, "--format", "dot")
    if report in _DOT_REPORTS:
        assert code == 0 and err == "" and out.startswith("graph G {\n")
    else:
        assert code == 2 and out == ""
        assert err == "error: this report has no DOT rendering\n"


def test_graph_reports_name_parser_choices():
    def choices(parser, *dests):
        return next((a.choices for a in parser._actions if a.dest in dests), ())

    commands = choices(build_parser(), "command")
    for command, mode in sorted(_GRAPH_REPORTS):
        assert command in commands
        assert mode in choices(commands[command], "report", "action")


def test_in2_rejected_outside_product(capsys, monkeypatch, tmp_path):
    forbid(monkeypatch, "_load_json")
    path = write_json(tmp_path, "c3.json", cycle_graph(3).to_json())
    code, out, err = run(
        capsys, "graph", "--action", "expansion", "--in", path,
        "--in2", str(tmp_path / "missing.json"),
    )
    assert code == 2 and out == ""
    assert err == "error: --in2 applies to the product action only\n"


def test_threads_option_is_gone(capsys):
    code, out, err = run(capsys, "flow", "--family", "hexagon", "--threads", "4")
    assert code == 2 and out == ""
    assert "--threads" in err


def test_usage_errors(capsys):
    assert main(["bogus"]) == 2
    assert main([]) == 2
    assert main(["sparsecut"]) == 2  # --d is required


def test_one_parser_serves_requests_after_a_usage_error(capsys, tmp_path):
    graph = write_json(tmp_path, "c5.json", cycle_graph(5).to_json())
    gens = write_json(tmp_path, "hex.json", HEX_GENS)
    requests = [
        ["flow", "--family", "cube", "--d", "2"],
        ["flow", "--family", "hexagon", "--routing", "--format", "text"],
        ["zono", "--action", "check", "--in", gens],
        ["graph", "--action", "expansion", "--in", graph],
        ["flow", "--family", "cube"],  # exit 2 after parsing: --d is required
    ]
    first = []
    for argv in requests:
        build_parser.cache_clear()
        first.append(run(capsys, *argv))
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2]
    build_parser.cache_clear()
    assert run(capsys, "flow", "--family", "cube", "--d", "x")[0] == 2
    parser = build_parser()
    assert [run(capsys, *argv) for argv in requests] == first
    assert build_parser() is parser
