"""The package imports no private name from outside itself: a name with a
leading "_" in the standard library may differ or vanish between the
Python versions CI runs (3.10-3.13)."""
import ast
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
