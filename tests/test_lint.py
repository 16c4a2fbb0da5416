"""Static checks on the library source, with the standard library only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "affkit"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_detected():
    assert unused_imports("import math\nimport numpy as np\nnp.zeros(1)\n") == ["math (line 1)"]
    assert unused_imports("from os import path, sep\n__all__ = ['sep']\n") == ["path (line 1)"]


def test_library_has_no_unused_imports():
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert "numeric.py" in found
    assert {name: names for name, names in found.items() if names} == {}
