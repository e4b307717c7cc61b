"""Property test: arbitrary small JSON input never crashes the CLI.

Every ``zono`` and ``graph`` action reads JSON.  Whatever it is given,
it must exit 0, 2 or 3 without a traceback, and exit 0 only when the
input has the documented schema: a graph is ``{"labels": [str, ...],
"edges": [[int, int], ...]}`` with an optional integer ``"n"``, and a
generator set is ``{"dim": int, "generators": [[rational string, ...],
...]}``.  Semantic checks (ranges, dimensions, collinearity) may still
reject schema-valid input with exit 2.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfint.cli import main

_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # a zero denominator is refused

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=10,
)
# Python's \d also matches non-ASCII decimal digits such as "٣".
rational_texts = st.one_of(
    st.sampled_from(["0", "1/2", "-1/3", "1/0", "0.5", "1e3"]),
    st.from_regex(r"\s?-?\d{1,2}(/[1-9]\d?)?\s?", fullmatch=True),
)


@st.composite
def generator_inputs(draw):
    """A generator set, or one with a part (or the whole) replaced by arbitrary JSON."""
    d = draw(st.integers(min_value=1, max_value=3))
    gens = draw(st.lists(st.lists(rational_texts, min_size=d, max_size=d),
                         min_size=1, max_size=4))
    data = {"dim": d, "generators": gens}
    part = draw(st.just("none") | st.sampled_from(
        ["whole", "dim", "generators", "generator", "entry"]))
    junk = draw(json_values)
    if part == "whole":
        return junk
    if part in ("dim", "generators"):
        data[part] = junk
    elif part == "generator":
        gens[draw(st.integers(min_value=0, max_value=len(gens) - 1))] = junk
    elif part == "entry":
        gens[0][draw(st.integers(min_value=0, max_value=d - 1))] = junk
    return data


@st.composite
def graph_inputs(draw):
    """A graph, or one with a part (or the whole) replaced by arbitrary JSON."""
    n = draw(st.integers(min_value=0, max_value=6))
    # "1/0" reads as a rational, and --approx must leave labels alone
    labels = draw(st.lists(st.text(max_size=3) | st.just("1/0"),
                           min_size=n, max_size=n, unique=True))
    edges = draw(st.lists(st.lists(st.integers(min_value=-1, max_value=n),
                                   min_size=2, max_size=2), max_size=8))
    data = {"labels": labels, "edges": edges}
    if draw(st.booleans()):
        data["n"] = n
    part = draw(st.just("none") | st.sampled_from(
        ["whole", "labels", "label", "n", "edges", "edge", "index"]))
    junk = draw(json_values)
    if part == "whole":
        return junk
    if part in ("labels", "n", "edges"):
        data[part] = junk
    elif part == "label" and labels:
        labels[draw(st.integers(min_value=0, max_value=n - 1))] = junk
    elif part == "edge" and edges:
        edges[0] = junk
    elif part == "index" and edges:
        edges[0][draw(st.integers(min_value=0, max_value=1))] = junk
    return data


def _is_int(x):
    return type(x) is int


def _is_rational_text(x):
    return isinstance(x, str) and _RATIONAL.fullmatch(x.strip()) is not None


def valid_generators(data):
    return (
        isinstance(data, dict)
        and _is_int(data.get("dim"))
        and isinstance(data.get("generators"), list)
        and all(
            isinstance(g, list) and all(_is_rational_text(x) for x in g)
            for g in data["generators"]
        )
    )


def valid_graph(data):
    return (
        isinstance(data, dict)
        and isinstance(data.get("labels"), list)
        and all(isinstance(x, str) for x in data["labels"])
        and isinstance(data.get("edges"), list)
        and all(
            isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)
            for e in data["edges"]
        )
        and len({frozenset(e) for e in data["edges"]}) == len(data["edges"])
        and ("n" not in data or _is_int(data["n"]))
    )


def run_cli(data, *argv):
    """Exit code and stderr of one in-process run on ``data`` as the input file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        second = ["--in2", path] if "product" in argv else []
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--in", path, *second])
    return code, err.getvalue()


PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)


@pytest.mark.parametrize("action", ["vertices", "check", "recognize", "vertices --approx"])
@PROPERTY
@given(data=generator_inputs())
def test_zono_generator_actions_on_arbitrary_json(action, data):
    code, err = run_cli(data, "zono", "--action", *action.split())
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert code != 0 or valid_generators(data)


@pytest.mark.parametrize(
    "argv",
    [("zono", "--action", "realize"), ("graph", "--action", "expansion"),
     ("graph", "--action", "product"), ("graph", "--action", "expansion", "--approx")],
)
@PROPERTY
@given(data=graph_inputs())
def test_graph_actions_on_arbitrary_json(argv, data):
    code, err = run_cli(data, *argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert code != 0 or valid_graph(data)


NESTED = "[" * 100_000 + "]" * 100_000  # far deeper than the default recursion limit


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(
    "argv",
    [("zono", "--action", "check"), ("graph", "--action", "expansion")],
    ids=["zono-check", "graph-expansion"],
)
def test_deeply_nested_json_is_refused(monkeypatch, tmp_path, argv, source):
    path = tmp_path / "nested.json"
    path.write_text(NESTED)
    monkeypatch.setattr("sys.stdin", io.StringIO(NESTED))
    where = ["--in", str(path)] if source == "file" else []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, *where])
    assert code == 2
    assert err.getvalue().startswith("error: cannot read input: ")
    assert "Traceback" not in err.getvalue()
