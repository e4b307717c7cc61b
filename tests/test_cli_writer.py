"""The CLI's JSON writer matches ``json.dumps(..., sort_keys=True)``, compact
and with ``indent=2``, byte for byte, on arbitrary values and on full
``flow --routing`` reports, and a routing written from its index paths
matches its nested-dict form in JSON, text and ``--approx`` reports."""

import json

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


def _reference_flow_report(argv):
    """The ``flow`` report with its routing as nested dicts, encoded by the
    stdlib: JSON at indent 2, or text lines with compact JSON values."""
    args = build_parser().parse_args(["flow", *argv])
    payload, _ = args.func(args)
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


@pytest.mark.parametrize("argv", _ROUTED, ids=" ".join)
def test_routing_writer_matches_nested_dict_reference(capsys, tmp_path, argv):
    argv = (*argv, "--routing")
    expected = _reference_flow_report(argv)
    assert main(["flow", *argv]) == 0
    assert capsys.readouterr().out == expected
    target = tmp_path / "report.json"
    assert main(["flow", *argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == expected
