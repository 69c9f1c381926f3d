"""The package is stdlib-only: no module imports anything else, and every
import is a statement of its module's body, not of a function or class."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schemacut"


def absolute_imports(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one module, nested ones included."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def nested_imports(path: Path) -> list[int]:
    """Line numbers of the imports in one module that are not at module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    outside = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import json\ndef f():\n    from numpy.linalg import norm\n")
    assert [n for n in absolute_imports(module) if n not in sys.stdlib_module_names] == ["numpy"]


def test_package_imports_only_at_module_level():
    nested = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in nested_imports(path)
    ]
    assert nested == []


def test_the_guard_sees_a_nested_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import json\nclass C:\n    def f(self):\n        from .x import y\n")
    assert nested_imports(module) == [4]
