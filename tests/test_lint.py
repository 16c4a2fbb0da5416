"""Static checks on the library source, with the standard library only."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "affkit"


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


def referenced_names(source: str) -> set[str]:
    """Every name, attribute and ``from``-imported name a module mentions."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unused_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and classes that no module references."""
    defined = [(name, node.name, node.lineno) for name, source in sources.items()
               for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    referenced = set().union(*map(referenced_names, sources.values()))
    return [f"{name}: {fn} (line {line})" for name, fn, line in defined
            if fn not in referenced]


def private_imports(source: str) -> list[str]:
    """Private names taken from sibling modules, as "module._name (line)":
    ``from .module import _name`` and ``module._name`` after
    ``from . import module``."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                found += [(node.module, alias.name, node.lineno) for alias in node.names
                          if alias.name.startswith("_")]
    found += [(node.value.id, node.attr, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return [f"{module}.{name} (line {line})" for module, name, line in sorted(found)]


def function_level_imports(source: str) -> list[str]:
    """Imports inside a function or method body, as "function (line)"."""
    return [f"{fn.name} (line {node.lineno})"
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]


def numpy_uses(source: str) -> list[str]:
    """Uses of numpy (the names ``np`` and ``numpy``, and ``from numpy``
    imports) as "definition (line)", named by the top-level function or
    class they sit in, or "<module>"; ``import numpy as np`` is no use."""
    found = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        found += [f"{owner} (line {node.lineno})" for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and node.id in ("np", "numpy")
                  or isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "numpy"]
    return found


def public_parameters_named(source: str, names: set[str]) -> list[str]:
    """Parameters in ``names`` of public functions, public methods and
    constructors of public classes, as "function: parameter (line)"."""
    tree = ast.parse(source)
    defs = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            defs += [(f"{cls.name}.{fn.name}", fn) for fn in cls.body
                     if isinstance(fn, ast.FunctionDef)]
    found = []
    for name, fn in defs:
        if fn.name.startswith("_") and fn.name != "__init__":
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        found += [f"{name}: {p.arg} (line {fn.lineno})" for p in params if p.arg in names]
    return found


def record_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, line) for each field of a dataclass or NamedTuple."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        marks += cls.bases
        if any(getattr(m, "id", getattr(m, "attr", None)) in ("dataclass", "NamedTuple")
               for m in marks):
            found += [(cls.name, stmt.target.id, stmt.lineno) for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def names_read(source: str) -> set[str]:
    """Attribute names loaded, and string constants, anywhere in a module."""
    return {node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unread_fields(records: dict[str, str], readers: list[str]) -> list[str]:
    """Record fields of ``records`` that no source in ``readers`` reads by
    name, as "module: Class.field (line)".  Name-based: a field whose name
    is read elsewhere, on another object, escapes."""
    read = set().union(*map(names_read, readers))
    return [f"{name}: {cls}.{fld} (line {line})" for name, source in records.items()
            for cls, fld, line in record_fields(source) if fld not in read]


def attribute_reads(source: str, attr: str) -> list[str]:
    """Loads of the attribute ``attr`` as "owner (line)": the owner is the
    top-level definition, or "Class.method" for a method, or "<module>"."""
    owners = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            owners += [(f"{stmt.name}.{getattr(sub, 'name', '<body>')}", sub) for sub in stmt.body]
        else:
            owners.append((getattr(stmt, "name", "<module>"), stmt))
    return [f"{owner} (line {node.lineno})" for owner, stmt in owners for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)]


def top_level_references(source: str, names: set[str]) -> dict[str, set[str]]:
    """The names in ``names`` that each top-level definition references
    (``referenced_names``), keyed by its name or "<module>"; a definition
    that references none is left out."""
    found: dict[str, set[str]] = {}
    for stmt in ast.parse(source).body:
        used = referenced_names(ast.get_source_segment(source, stmt)) & names
        if used:
            found.setdefault(getattr(stmt, "name", "<module>"), set()).update(used)
    return found


def echelon_add_sites(source: str) -> list[int]:
    """Lines of ``.add`` calls on a name assigned an ``Echelon(...)``."""
    tree = ast.parse(source)
    builds = lambda call: isinstance(call, ast.Call) and "Echelon" in (
        getattr(call.func, "attr", None), getattr(call.func, "id", None))
    names = {target.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and builds(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add" and getattr(node.func.value, "id", None) in names]


def test_unused_imports_are_detected():
    assert unused_imports("import math\nimport numpy as np\nnp.zeros(1)\n") == ["math (line 1)"]
    assert unused_imports("from os import path, sep\n__all__ = ['sep']\n") == ["path (line 1)"]


def test_library_has_no_unused_imports():
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert "numeric.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_private_defs_are_detected():
    sources = {"a.py": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n",
               "b.py": "from a import _used\n"}
    assert unused_private_defs(sources) == ["a.py: _dead (line 2)",
                                            "a.py: _Gone (line 3)"]
    assert unused_private_defs({"c.py": "def _f(): pass\nx = [_f]\n"}) == []


def test_library_has_no_unused_private_defs():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert "coords.py" in sources
    assert unused_private_defs(sources) == []


def test_private_imports_are_detected():
    source = ("from . import linalg\nfrom .numeric import Grid, _rk4\n"
              "from .surface import GAMMA_KEYS as _KEYS\nx = linalg._pivot(1) + linalg.rref\n"
              "from __future__ import annotations\n")
    assert private_imports(source) == ["linalg._pivot (line 4)", "numeric._rk4 (line 2)"]


def test_modules_import_no_private_names_of_each_other():
    # Every module boundary is public: flows, geodesics, pullbacks and jet
    # transport take compiled evaluators or build their own in ``numeric``,
    # and ``Chart.jacobian`` reads the public ``numeric.stencil``.
    found = {p.name: private_imports(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert "coords.py" in found and "killing.py" in found
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_unread_record_fields_are_detected():
    source = ("from dataclasses import dataclass\nfrom typing import NamedTuple\n"
              "@dataclass(frozen=True)\nclass A:\n    kept: int\n    dead: int\n"
              "class B(NamedTuple):\n    keyed: str\n    lost: str\n"
              "class C:\n    plain: int\n")
    readers = [source, "def f(a, b):\n    a.dead = 1\n    return a.kept, b['keyed']\n"]
    assert unread_fields({"m.py": source}, readers) == ["m.py: A.dead (line 6)",
                                                        "m.py: B.lost (line 9)"]


def test_every_record_field_is_read():
    # A field that nothing reads is state that every constructor must still
    # fill in.  Reads count in the library, the tests and the benchmark.
    records = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert "liealg.py" in records
    readers = [p.read_text(encoding="utf-8") for d in (SRC, ROOT / "tests", ROOT / "perfbench")
               for p in sorted(d.glob("*.py"))]
    assert unread_fields(records, readers) == []


def test_function_level_imports_are_detected():
    source = ("import os\n"
              "def f():\n    from math import pi\n    return pi\n"
              "class C:\n    def m(self):\n        import json\n")
    assert function_level_imports(source) == ["f (line 3)", "m (line 7)"]


def test_library_has_no_function_level_imports():
    found = {p.name: function_level_imports(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert "killing.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def test_public_parameters_are_detected():
    source = ("def f(s, space=None): pass\n"
              "def _g(system): pass\n"
              "class C:\n    def __init__(self, *, system): pass\n"
              "    def m(self, *space): pass\n    def _h(self, space): pass\n"
              "class _D:\n    def m(self, system): pass\n")
    assert public_parameters_named(source, {"system", "space"}) == [
        "f: space (line 1)", "C.__init__: system (line 4)", "C.m: space (line 5)"]


def test_no_public_signature_takes_a_jet_system_or_space():
    # The jets are solved from the surface alone: a public ``system`` or
    # ``space`` parameter would be a second path that can disagree with it.
    found = {p.name: public_parameters_named(p.read_text(encoding="utf-8"),
                                             {"system", "space"})
             for p in sorted(SRC.glob("*.py"))}
    assert "liealg.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def test_numpy_uses_are_detected():
    source = ("import numpy as np\nfrom numpy.linalg import norm\nx = np.eye(2)\n"
              "def f():\n    return np.roots([1])\n"
              "class C:\n    def m(self):\n        import numpy\n        return numpy.pi\n")
    assert numpy_uses(source) == ["<module> (line 2)", "<module> (line 3)", "f (line 5)",
                                  "C (line 9)"]


def test_liealg_holds_no_numpy_use():
    # Every branch is decided and certified in exact arithmetic; Type B takes
    # its eigenvalues from ``linalg.rational_eigenvalues``.
    assert numpy_uses((SRC / "liealg.py").read_text(encoding="utf-8")) == []


def test_linalg_uses_numpy_only_to_propose_rational_eigenvalues():
    found = numpy_uses((SRC / "linalg.py").read_text(encoding="utf-8"))
    assert {use.split(" (")[0] for use in found} == {"rational_eigenvalues"}


def test_referenced_names_are_detected():
    source = "from .linalg import rank as r\nx = linalg.solve(a) + np.linalg.lstsq\n"
    assert referenced_names(source) == {"rank", "x", "linalg", "solve", "a", "np", "lstsq"}


def test_liealg_solves_nothing_against_the_basis():
    # The jet basis is canonical, so bracket coordinates are read off it
    # (``liealg._read_off``); no general solver belongs in the Lie layer.
    used = referenced_names((SRC / "liealg.py").read_text(encoding="utf-8"))
    assert used & {"solve", "rref"} == set()


def test_killing_holds_no_float_code():
    # The jet solver is exact; jet extension lives in ``numeric.jet_transport``.
    assert numpy_uses((SRC / "killing.py").read_text(encoding="utf-8")) == []


def test_attribute_reads_are_detected():
    source = ("class P:\n    def __post_init__(self):\n        x = self.c\n"
              "    def m(self):\n        self.c = 1\n        return self.cc\n"
              "def f(L):\n    return L.c[0]\n")
    assert attribute_reads(source, "c") == ["P.__post_init__ (line 3)", "f (line 8)"]


def test_liealg_reads_structure_constants_only_to_build_its_tables():
    # Brackets of coefficient vectors and the Killing form both go through
    # the Z[i] ad tables; ``c`` is their input.
    found = attribute_reads((SRC / "liealg.py").read_text(encoding="utf-8"), "c")
    assert {use.split(" (")[0] for use in found} == {"LieAlgebraPresentation.__post_init__"}


def test_top_level_references_are_detected():
    source = ("from .k import helper\n"
              "def build():\n    return _kernel(1) + helper\n"
              "class C:\n    def m(self):\n        return self._kernel\n"
              "def _kernel(a):\n    return a\n")
    assert top_level_references(source, {"_kernel", "helper"}) == {
        "<module>": {"helper"}, "build": {"_kernel", "helper"}, "C": {"_kernel"}}


def test_liealg_brackets_jets_only_while_building_the_presentation():
    # Every later bracket reads the Z[i] tables: no other definition may
    # extend, bracket or read off jets, and no second jet system is built
    # next to the one ``killing_jet_space`` returns.
    source = (SRC / "liealg.py").read_text(encoding="utf-8")
    jet_side = {"_bracket_kernel", "_read_off", "_int_jets"}
    assert top_level_references(source, jet_side) == {"structure_constants": jet_side}
    assert "prolongation_symbolic" not in referenced_names(source)


def test_echelon_add_sites_are_detected():
    source = ("from . import linalg\nt = linalg.Echelon(6)\nseen = set()\n"
              "seen.add(1)\nt.add([1])\ndef f(rows):\n    e = Echelon(2)\n"
              "    for r in rows:\n        e.add(r)\n")
    assert echelon_add_sites(source) == [5, 9]


def test_killing_feeds_its_echelon_at_one_site():
    # Every constraint row reaches the jet solver's elimination through one
    # path: filtered, deduplicated and evaluated at P in one place.
    assert len(echelon_add_sites((SRC / "killing.py").read_text(encoding="utf-8"))) == 1
