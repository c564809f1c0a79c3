"""The benchmark's tracer binds each of its `TARGETS` by module and name, so
a rename in the package must not leave one behind.  The names are read
from `bench/tracer.py` as data (`ast.literal_eval`), without importing
the benchmark."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets():
    """The `TARGETS` tuple of `bench/tracer.py`, as a literal."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment in %s" % TRACER.name)


def test_every_tracer_target_imports_and_is_callable():
    targets = tracer_targets()
    assert targets
    missing = ["%s.%s" % (module, name) for module, name in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
