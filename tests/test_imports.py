"""Every module-level import and private name of the library is used.

No linter ships with the test environment, so this stands in for the
unused-import and dead-code checks.  Each module of ``src/halfint``
except the package ``__init__`` (whose imports are its re-exports), and
the layer harness ``tools/bench_layers.py``, is parsed with ``ast``, and
every name a module-level import binds must occur as a ``Name``.  Every module-level private name (``_x``) defined
anywhere in the package must be read somewhere in it: as a ``Name``, an
attribute, or an imported name.  Every module-level function and class
must be read by the library or the layer harness outside its own
definition, unless the benchmark traces it or it is one of the
acceptance criteria's reference checks: no library function serves the
tests alone.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest
from test_traced_names import _traced

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "halfint").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TOOLS = [ROOT / "tools" / "bench_layers.py"]

# Library functions that only the acceptance criteria call, as reference checks.
ACCEPTANCE_REFERENCES = {
    "graphs.cycle_path_profile",
    "graphs.is_isomorphic_via",
    "graphs.path_graph",
    "sparse_cut.central_binomial_within_bound",
    "sparse_cut.crossing_edges",
    "sparse_cut.enumerated_counts",
    "zonotopes.graphical_generators",
}


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_module_is_checked():
    assert MODULES


@pytest.mark.parametrize("path", MODULES + TOOLS, ids=lambda p: p.stem)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_module_level_private_names_are_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        "%s.%s" % (module, name)
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert unused == []


def test_library_definitions_are_read_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in MODULES + TOOLS}
    reads = Counter(name for tree in trees.values() for name in _references(tree))
    traced = {"%s.%s" % (module, name) for module, names in _traced().items() for name in names}
    unread = [
        "%s.%s" % (path.stem, node.name)
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and reads[node.name] == Counter(_references(node))[node.name]
    ]
    assert [name for name in unread if name not in traced | ACCEPTANCE_REFERENCES] == []
