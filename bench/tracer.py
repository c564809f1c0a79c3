"""Per-layer tracing by rebinding public `collat` functions.

`Tracer.install` replaces each target function, in every loaded `collat.*`
module that holds it (as a module attribute or as a value of a module-level
dict such as the CLI's method table), by a wrapper that records calls, total
time, self time and exceptions by type.  Self time is a call's duration
minus the durations of the wrapped calls made inside it.

Calls of the non-hot functions also become spans (op id, span id, parent
span id, name, start, end).  The hot leaves below run hundreds of thousands
of times per run, so they are only aggregated.
"""
from __future__ import annotations

import collections
import sys
import time

TARGETS = (
    ("collat.cli", "main"),
    ("collat.instances", "load_network"),
    ("collat.model", "validate_network"),
    ("collat.model", "default_determination"),
    ("collat.model", "best_response"),
    ("collat.analysis", "iterated_elimination"),
    ("collat.analysis", "is_viable"),
    ("collat.analysis", "solvability_check"),
    ("collat.star", "solve_star"),
    ("collat.star", "optimal_partial_for_set"),
    ("collat.network", "solve"),
    ("collat.network", "solve_dag"),
    ("collat.network", "solve_exact"),
    ("collat.network", "solve_large_alpha"),
)
HOT = frozenset({"default_determination", "best_response", "optimal_partial_for_set"})


def layer_name(module, function):
    return "%s.%s" % (module.rsplit(".", 1)[-1], function)


class Tracer:
    def __init__(self):
        self.command = None
        self.op_id = None
        # (command, layer name) -> [calls, total seconds, self seconds]
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.errors = collections.defaultdict(collections.Counter)
        self.spans = []
        self.op_hot = collections.defaultdict(lambda: [0, 0.0])
        self.hot_by_op = []
        self._stack = []
        self._next_span = 0
        self._patched = []
        self.cache_lookups = 0
        self.cache_hits = 0
        self.cache_entries = 0
        self.subsets_tried = 0
        self.large_alpha_solves = 0
        self._large_alpha_depth = 0

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for module, function in TARGETS:
            original = getattr(sys.modules[module], function)
            wrappers[id(original)] = (original, self._wrap(module, original))
        for name, mod in list(sys.modules.items()):
            if name != "collat" and not name.startswith("collat."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((vars(mod), attr, value))
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patched.append((value, key, item))
                            value[key] = hit[1]

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def start_op(self, op_id, command):
        self.op_id = op_id
        self.command = command
        self.op_hot.clear()

    def finish_op(self):
        """Keep the op's aggregated hot-leaf calls and seconds."""
        self.hot_by_op.append((self.op_id, self.command, {k: list(v) for k, v in self.op_hot.items()}))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, module, fn):
        name = layer_name(module, fn.__name__)
        hot = fn.__name__ in HOT
        before = after = None
        if fn.__name__ == "default_determination":
            before, after = self._cache_before, self._cache_after
        elif fn.__name__ == "solve_large_alpha":
            before, after = self._large_alpha_before, self._large_alpha_after
        elif fn.__name__ == "iterated_elimination":
            before = self._elimination_before
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            parent = stack[-1] if stack else None
            if not hot:
                frame[1] = tracer._next_span
                tracer._next_span += 1
            stack.append(frame)
            result = None
            start = clock()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                tracer.errors[name][type(exc).__name__] += 1
                raise
            finally:
                if after is not None:
                    after(args, result)
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[0] += elapsed
                entry = tracer.stats[(tracer.command, name)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if hot:
                    agg = tracer.op_hot[name]
                    agg[0] += 1
                    agg[1] += elapsed
                else:
                    tracer.spans.append((
                        tracer.op_id,
                        frame[1],
                        None if parent is None else parent[1],
                        name,
                        start,
                        end,
                    ))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # The cache probe reads the cooperate set before delegating, so a hit
    # means the cascade was already computed for this network object.
    def _cache_before(self, args):
        net, cooperate = args[0], args[1]
        self.cache_lookups += 1
        if frozenset(cooperate) in net._cascade_cache:
            self.cache_hits += 1

    def _cache_after(self, args, result):
        entries = len(args[0]._cascade_cache)
        if entries > self.cache_entries:
            self.cache_entries = entries

    def _large_alpha_before(self, args):
        self._large_alpha_depth += 1

    def _large_alpha_after(self, args, result):
        self._large_alpha_depth -= 1
        if result is not None and result.status.value == "solved":
            self.large_alpha_solves += 1

    def _elimination_before(self, args):
        if self._large_alpha_depth:
            self.subsets_tried += 1

    # -- results ------------------------------------------------------------

    def table(self):
        """{layer: {command: {calls, total_ms, self_ms}}} plus error counts."""
        out = {}
        for name in (layer_name(module, function) for module, function in TARGETS):
            per_command = {}
            for (command, layer), (calls, total, self_time) in self.stats.items():
                if layer == name:
                    per_command[command] = {
                        "calls": calls,
                        "total_ms": total * 1e3,
                        "self_ms": self_time * 1e3,
                    }
            out[name] = {"by_command": per_command, "errors": dict(self.errors[name])}
        return out

    def metrics(self):
        """Flat per-layer metrics, summed over commands."""
        out = {}
        for name, row in self.table().items():
            per_command = row["by_command"].values()
            out[name + ".calls"] = (sum(s["calls"] for s in per_command), "count")
            out[name + ".total_ms"] = (sum(s["total_ms"] for s in per_command), "ms")
            out[name + ".self_ms"] = (sum(s["self_ms"] for s in per_command), "ms")
            out[name + ".errors"] = (sum(row["errors"].values()), "count")
        lookups = self.cache_lookups
        out["model.cascade_cache.hit_ratio"] = (self.cache_hits / lookups if lookups else 0.0, "ratio")
        out["model.cascade_cache.entries"] = (self.cache_entries, "count")
        tried = self.subsets_tried
        out["network.solve_large_alpha.subsets_tried"] = (tried, "count")
        out["network.solve_large_alpha.accept_ratio"] = (
            self.large_alpha_solves / tried if tried else 0.0,
            "ratio",
        )
        return out
