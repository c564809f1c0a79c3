"""The package imports no private name from outside itself: a name with a
leading "_" in the standard library may differ or vanish between the
Python versions CI runs (3.10-3.13).  And no module but `__init__` (whose
imports are the package's re-exports) imports a name it never uses: a
deletion leaves no name behind that only a test still patches.  Nor
does a consolidation leave a private function, class or method that
nothing in the package reads."""
import ast
from collections import Counter
from pathlib import Path

import pytest

import collat

PACKAGE = Path(collat.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source):
    """(line, dotted name) of each name `source` imports from outside the
    package with a private part: a leading "_" (dunders such as
    `__future__` aside), in the module path or in the imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = ["%s.%s" % (node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] != "collat" and any(map(_private, name.split(".")))]
    return found


@pytest.mark.parametrize("source, expected", [
    ("from fractions import _RATIONAL_FORMAT, Fraction", [(1, "fractions._RATIONAL_FORMAT")]),
    ("import json\nimport _thread", [(2, "_thread")]),
    ("from _decimal import Decimal", [(1, "_decimal.Decimal")]),
    ("from __future__ import annotations", []),
    ("from json.encoder import encode_basestring_ascii as _encode", []),
    ("from .model import _private\nfrom collat.star import _unit_price", []),
])
def test_the_check_finds_private_names(source, expected):
    assert private_imports(source) == expected


def test_no_module_imports_a_private_name_from_outside():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = ["%s:%d: %s" % (path.relative_to(PACKAGE), line, name)
             for path in modules
             for line, name in private_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def unused_imports(source):
    """(line, name) of each name `source` binds by an import and never
    reads (no `ast.Name` of it); `from __future__` imports are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("source, expected", [
    ("from .model import cascade, eliminate\neliminate()", [(1, "cascade")]),
    ("import os.path\nos.path.join()", []),
    ("import json\nimport re as regex\njson.dumps(regex)", []),
    ("from fractions import Fraction as F\nx = 1", [(1, "F")]),
    ("from __future__ import annotations", []),
    ("from typing import List\ndef f(x: List): pass", []),
])
def test_the_check_finds_unused_names(source, expected):
    assert unused_imports(source) == expected


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")
    assert modules
    found = ["%s:%d: %s" % (path.relative_to(PACKAGE), line, name)
             for path in modules
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def unread_private_definitions(sources):
    """(module, line, name) of each private module-level function or class,
    and each private method, in `sources` (module -> source) that no
    `ast.Name` or `ast.Attribute` of any of them reads outside its own
    definition: a consolidation leaves no orphan helper behind."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def reads(tree):
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute))
                       and isinstance(node.ctx, ast.Load))

    everywhere = sum(map(reads, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + methods:
                if (isinstance(d, kinds) and _private(d.name)
                        and everywhere[d.name] == reads(d)[d.name]):
                    found.append((module, d.lineno, d.name))
    return found


@pytest.mark.parametrize("sources, expected", [
    ({"a": "def _f():\n    pass\ndef g():\n    return _f()"}, []),
    ({"a": "def _f():\n    pass", "b": "from .a import _f\n_f()"}, []),
    ({"a": "def _f(n):\n    return _f(n - 1)"}, [("a", 1, "_f")]),
    ({"a": "class _C:\n    pass\nclass D:\n    def _m(self):\n        pass"},
     [("a", 1, "_C"), ("a", 4, "_m")]),
    ({"a": "class D:\n    def _m(self):\n        pass\n    def f(self):\n        self._m()"}, []),
    ({"a": "def _f():\n    pass\nx._f = 1"}, [("a", 1, "_f")]),
    ({"a": "def __init__():\n    pass\ndef f():\n    def _inner():\n        pass"}, []),
])
def test_the_check_finds_unread_private_definitions(sources, expected):
    assert unread_private_definitions(sources) == expected


def test_every_private_definition_is_read_elsewhere_in_the_package():
    sources = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert sources
    assert unread_private_definitions(sources) == []
