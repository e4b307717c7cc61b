"""Every library function that the benchmark's tracer wraps still exists.

``bench/spans.py`` names the functions it traces in its ``TRACED``
table and reports a missing one as an absent metric, so deleting a
traced name would otherwise fail only the benchmark's own tests.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced():
    for node in ast.parse(SPANS.read_text()).body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "TRACED" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in %s" % SPANS)


def test_every_traced_name_exists():
    missing = [
        "%s.%s" % (module, name)
        for module, names in _traced().items()
        for name in names
        if not callable(getattr(importlib.import_module("halfint." + module), name, None))
    ]
    assert missing == []
