"""The benchmark binds package names by module and name, so a rename in the
package must not leave one behind: the tracer's `TARGETS`, and the names
`bench/workloads.py` and `bench/build_catalog.py` import from the package
or read off a package module they import.  All of them are read from the
sources (`ast`), without importing the benchmark."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def tracer_targets():
    """The `TARGETS` tuple of `bench/tracer.py`, as a literal."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment in %s" % TRACER.name)


def unbound_names(source):
    """"module.name" of each name `source` imports from the package
    (`from collat... import name`) that the package lacks, and of each
    attribute it reads off an imported package module that the module
    lacks; the second walk reads a name as that module wherever it is."""
    tree = ast.parse(source)
    missing, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "collat":
            for alias in node.names:
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if value is None:
                    missing.append("%s.%s" % (node.module, alias.name))
                elif inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append("%s.%s" % (modules[node.value.id].__name__, node.attr))
    return missing


def test_every_tracer_target_imports_and_is_callable():
    targets = tracer_targets()
    assert targets
    missing = ["%s.%s" % (module, name) for module, name in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


@pytest.mark.parametrize("source, expected", [
    ("from collat import instances\ninstances.random_network(1, 1)", []),
    ("def f():\n    from collat import instances\n    return instances.no_such_name",
     ["collat.instances.no_such_name"]),
    ("from collat.network import Status, no_such_name\nStatus.SOLVED",
     ["collat.network.no_such_name"]),
    ("from collat import instances as inst\ninst.gen_cycle_family(3).no_such_name", []),
    ("from collat import instances as inst\ninst.gone(3)", ["collat.instances.gone"]),
    ("import json\njson.no_such_name", []),
])
def test_the_check_finds_unbound_names(source, expected):
    assert unbound_names(source) == expected


@pytest.mark.parametrize("script", ["workloads.py", "build_catalog.py"])
def test_every_package_name_a_bench_script_binds_exists(script):
    source = (BENCH / script).read_text(encoding="utf-8")
    assert "from collat" in source
    assert unbound_names(source) == []
