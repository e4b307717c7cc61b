"""The CLI's JSON writer matches ``json.dumps(..., sort_keys=True)``, compact
and with ``indent=2``, byte for byte, on arbitrary values and on full
``flow --routing`` reports; every report shape, in JSON and text, matches
a stdlib rendering, with a routing written from its index paths matching
its nested-dict form; a routing report is written a demand at a time;
nine routing reports are pinned by their sha256."""

import hashlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfint.cli import _RATIONAL, _approx, _approx_map, _dumps, build_parser, main

# Quotes, backslashes, control characters and non-ASCII text all take
# escapes in ASCII-only JSON.
texts = st.text(
    alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\té \U0001f600') | st.characters(),
    max_size=6,
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | texts,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(value=texts | json_values)
def test_dumps_matches_stdlib_indent_2(value):
    assert _dumps(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(value=json_values)
def test_dumps_compact_matches_stdlib(value):
    assert _dumps(value, None) == json.dumps(value, sort_keys=True)


def test_dumps_rejects_values_it_does_not_render():
    # json.dumps also rejects sets and objects; it would turn the integer
    # key into "1", but every report's keys are strings already.
    for value in ({"a": {1, 2}}, [object()], {1: "int key"}, 1.5):
        with pytest.raises(TypeError):
            _dumps(value)


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "cube", "--d", "3"),
        ("--family", "punctured", "--d", "4"),
        ("--family", "hexagon"),
        ("--family", "product", "--factors", "cube:1,hexagon"),
        ("--family", "hexagon", "--approx"),
    ],
)
def test_flow_routing_report_bytes(capsys, argv):
    assert main(["flow", *argv, "--routing"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _nested_routing(routing):
    """A routing as nested dicts, the form the reports wrote it in before
    they were rendered from index paths."""
    labels = routing.graph.labels
    demands = [
        {"source": labels[s], "target": labels[t],
         "paths": [{"vertices": [labels[v] for v in path], "weight": str(weight)}
                   for path, weight in routing.paths[(s, t)]]}
        for (s, t) in sorted(routing.paths)
    ]
    return {"graph": routing.graph.to_json(), "demands": demands}


def _reference_report(argv):
    """The report of ``argv``, with a routing as nested dicts, encoded by
    the stdlib: JSON at indent 2, or text lines with compact JSON values."""
    args = build_parser().parse_args(argv)
    payload, _ = args.func(args)
    if "routing" in payload:
        payload = dict(payload, routing=_nested_routing(payload["routing"]))
    if args.format == "text":
        lines = []
        for key, value in sorted(payload.items()):
            if isinstance(value, (dict, list)):
                rendered = json.dumps(value, sort_keys=True)
            else:
                rendered = str(value)
            if args.approx and isinstance(value, str) and _RATIONAL.match(value):
                rendered += " (~%s)" % _approx(value)
            lines.append("%s: %s" % (key, rendered))
        return "\n".join(lines) + "\n"
    approx = _approx_map(payload) if args.approx else None
    if approx:
        payload = dict(payload, approx=approx)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_ROUTED = (
    [("--family", "cube", "--d", str(d)) for d in range(1, 7)]
    + [("--family", "punctured", "--d", str(d)) for d in range(3, 8)]
    + [("--family", "hexagon")]
    + [("--family", "product", "--factors", factors)
       for factors in ("cube:1,hexagon", "hexagon,cube:2", "cube:1,punctured:4",
                       "hexagon,hexagon")]
    + [("--family", "hexagon", "--approx"),
       ("--family", "hexagon", "--format", "text", "--approx")]
    + [("--format", "text", *family) for family in (
        ("--family", "cube", "--d", "3"), ("--family", "punctured", "--d", "5"),
        ("--family", "product", "--factors", "cube:1,hexagon"))]
    + [("--family", "product", "--factors", "hexagon,cube:2", "--approx")]
)


# Every other report shape, in JSON and in text: booleans and null (a
# rejected zonotope), nested objects (recognize, product), integers and
# rationals.  HEX, OCT and GRAPH stand for input files.
_SHAPES = [
    (*argv, *fmt)
    for argv in (
        ("sparsecut", "--d", "3", "--report", "counts"),
        ("sparsecut", "--d", "7", "--report", "cut"),
        ("sparsecut", "--d", "3", "--report", "skeleton"),
        ("zono", "--action", "vertices", "--in", "HEX"),
        ("zono", "--action", "check", "--in", "HEX"),
        ("zono", "--action", "check", "--in", "OCT"),
        ("zono", "--action", "recognize", "--in", "HEX"),
        ("zono", "--action", "realize", "--in", "GRAPH"),
        ("graph", "--action", "expansion", "--in", "GRAPH"),
        ("graph", "--action", "product", "--in", "GRAPH", "--in2", "GRAPH"),
        ("flow", "--family", "cube", "--d", "3"),
    )
    for fmt in ((), ("--format", "text"), ("--approx",), ("--format", "text", "--approx"))
]
_INPUTS = {
    "HEX": {"dim": 3, "generators": [["1/2", "-1/2", "0"], ["0", "1/2", "-1/2"],
                                     ["1/2", "0", "-1/2"]]},
    "OCT": {"dim": 2, "generators": [["1/3", "0"], ["0", "1/3"], ["1/3", "1/3"],
                                     ["1/3", "-1/3"]]},
    "GRAPH": {"labels": ["a", "b", "c", "d", "e"],
              "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
}


@pytest.mark.parametrize(
    "argv",
    [pytest.param(("flow", *argv, "--routing"), id=" ".join(argv)) for argv in _ROUTED]
    + [pytest.param(argv, id=" ".join(argv)) for argv in _SHAPES],
)
def test_routing_writer_matches_nested_dict_reference(capsys, tmp_path, argv):
    for name, data in _INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    argv = [str(tmp_path / arg) if arg in _INPUTS else arg for arg in argv]
    expected = _reference_report(argv)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    target = tmp_path / "report.json"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == expected


# sha256 of each ``flow ... --routing`` report, recorded before the routings
# were rebuilt from per-demand rules; a reordered path, a reweighted path or a
# changed demand order changes the digest.
_PINNED_REPORTS = [
    ("--family hexagon",
     8733, "03b5b216282df25ee5125a3843d59022df6557e4535e03dc704426d9c4ae74b9"),
    ("--family hexagon --format text",
     3229, "e8a8a7ebeab1062ffe24a7b9c84ee58b52d524a6483d2665411afa078fd2e835"),
    ("--family hexagon --approx",
     9486, "ae046b376cbaf8a8acf30f44dffb329687efbba9333cc625cec1963e00f8f54c"),
    ("--family punctured --d 3",
     8011, "c337db8620b1f29d4879f317565dc2e757bbf84a5796562cd51f18ecf388dfbd"),
    ("--family punctured --d 5",
     241196, "daf6e29281ce34046388da7e8c126b794f02752364cf409fce4d0a42bb7dc9fd"),
    ("--family cube --d 3",
     14574, "5eac9537468e601c604624922b547bba7831b61495aedcd5eed58498b0f8dc7f"),
    ("--family product --factors hexagon,cube:2",
     170232, "58fc20150af8388edf24ef341be3f890a1919fc23197ed185544000039617bbc"),
    ("--family product --factors cube:1,hexagon",
     39235, "5021a2dcc3ec0475ca8b87f4d4d2157127e4a9f744e4d95589b05e9bf41cd970"),
    ("--family product --factors punctured:3,hexagon",
     409982, "02eb827c5e2e594e084fd8a0d8f9cd40cfd698e89535088194fc97e671685188"),
]


@pytest.mark.parametrize(
    "argv, size, digest", _PINNED_REPORTS, ids=[argv for argv, _, _ in _PINNED_REPORTS]
)
def test_routing_report_digests(capsys, argv, size, digest):
    assert main(["flow", *argv.split(), "--routing"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


def test_routing_report_is_written_in_pieces(monkeypatch):
    pieces = []

    class Recorder(io.StringIO):
        def write(self, text):
            pieces.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["flow", "--family", "punctured", "--d", "5", "--routing"]) == 0
    report = "".join(pieces).encode()
    digest = {argv: digest for argv, _, digest in _PINNED_REPORTS}["--family punctured --d 5"]
    assert len(pieces) >= 870  # one per demand of the 30-vertex punctured cube
    assert 16 * max(map(len, pieces)) < len(report)
    assert hashlib.sha256(report).hexdigest() == digest
