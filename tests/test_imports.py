"""Every module-level import of the library is used.

No linter ships with the test environment, so this stands in for the
unused-import check: each module of ``src/halfint`` except the package
``__init__`` (whose imports are its re-exports) is parsed with ``ast``,
and every name a module-level import binds must occur as a ``Name``.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    p
    for p in (Path(__file__).resolve().parents[1] / "src" / "halfint").glob("*.py")
    if p.name != "__init__.py"
)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []
