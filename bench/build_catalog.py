#!/usr/bin/env python3
"""Build `bench/catalog.json`: every workload's cases, strata and frozen
reference answers.

    python3 bench/build_catalog.py     # several minutes; rerun only to change the catalog

Each family takes the first cases its generator yields under the family's
filter, in generator-seed order; no case is dropped for being slow.  Every
case is solved and verified through the CLI once, and the answers are
checked against independent oracles before they are frozen:

- whole-network `solve_exact` for every net with at most 20 edges;
- `inverse_knapsack_brute` for the knapsack stars: the report's
  full-collateral sum must equal the minimum knapsack sum above t;
- `verify` must exit 0 and say `"minimal": true` on every solve report;
  for the DAG nets (too large for `solve_exact`) the NEC must also be 1.

A disagreement aborts the build.  Cases are then split into strata of equal
size by their measured solve + verify time, so every round of a run mixes
cheap and expensive cases in the same proportions.  Because documents are
shuffled per run seed (vertex order) and status, total and NEC do not depend
on that order, the references hold for every seed.
"""
from __future__ import annotations

import itertools
import json
import random
import signal
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import run
import workloads

BUILD_LIMIT_S = 120.0


def _read(path):
    with open(path) as handle:
        return json.load(handle)


def measure(spec, workdir):
    """Solve and verify one case through the CLI and check the answer;
    returns (case, the oracles that checked it)."""
    from collat import instances
    from collat.network import Status, solve_exact

    net = workloads.build_network(spec)
    path = workdir / "case.json"
    workloads.write_case(spec, path)
    solved, checked = workdir / "solve.json", workdir / "verify.json"
    outcome, rc, solve_s = run.run_op(["solve", str(path), "--out-file", str(solved)], BUILD_LIMIT_S)
    if outcome != "returned" or rc not in (0, 2):
        raise SystemExit("solve failed on %s: %s, exit %s" % (spec, outcome, rc))
    report = _read(solved)
    verify_s = 0.0
    if rc == 0:
        outcome, vrc, verify_s = run.run_op(
            ["verify", str(path), str(solved), "--out-file", str(checked)], BUILD_LIMIT_S
        )
        verdict = _read(checked) if outcome == "returned" else {}
        if vrc != 0 or verdict.get("minimal") is not True:
            raise SystemExit("verify of the solve report is not viable and minimal on %s" % (spec,))
        ref = {"status": "solved", "total": report["total"], "nec": report["nec"]}
    else:
        ref = {"status": "infeasible"}
    oracle = "verify"
    if len(net.edges) <= 20:
        exact = solve_exact(net)
        if exact.status is Status.INFEASIBLE:
            expected = {"status": "infeasible"}
        else:
            expected = {
                "status": "solved",
                "total": instances.format_rational(exact.total),
                "nec": instances.format_rational(exact.nec),
            }
        if expected != ref:
            raise SystemExit("CLI answer %s disagrees with solve_exact %s on %s" % (ref, expected, spec))
        oracle = "solve_exact+verify"
    elif rc == 0 and Fraction(report["nec"]) != 1:
        raise SystemExit("acyclic net with NEC %s on %s" % (report["nec"], spec))
    if spec["gen"] == "knapsack":
        best = instances.inverse_knapsack_brute(spec["xs"], spec["t"])
        ref["full_sum"] = instances.format_rational(sum(spec["xs"][i] for i in best))
        reason = workloads.check_solve(ref, rc, report)
        if reason:
            raise SystemExit("knapsack oracle disagrees on %s: %s" % (spec, reason))
        oracle += "+inverse_knapsack_brute"
    case = {"spec": spec, "ref": ref, "edges": len(net.edges), "build_s": solve_s + verify_s}
    return case, oracle


def first(count, specs, keep):
    """The first `count` specs whose network passes `keep`."""
    out = []
    for spec in specs:
        if keep(workloads.build_network(spec)):
            out.append(spec)
            if len(out) == count:
                return out
    raise SystemExit("generator ran out before %d cases" % count)


def _cyclic(net):
    from collat.network import is_acyclic

    return not is_acyclic(net)


def families():
    """(workload, family name, strata count, specs) for every family."""
    from collat.analysis import is_large_alpha, solvability_check

    def cyclic_rational(net, solvable):
        return (
            14 <= len(net.edges) <= 17
            and _cyclic(net)
            and not is_large_alpha(net)
            and solvability_check(net).solvable == solvable
        )

    def dp_specs():
        return ({"gen": "random", "n": 5 + g % 6, "d": 3, "seed": g} for g in itertools.count())

    def dag_specs():
        return ({"gen": "random", "n": 14 + g % 3, "d": 10, "acyclic": True, "seed": g} for g in itertools.count())

    def knapsack_specs(players):
        for g in itertools.count():
            rng = random.Random(1000 * players + g)
            xs = [rng.randint(1, 20) for _ in range(players - 1)]
            yield {"gen": "knapsack", "xs": xs, "t": rng.randint(0, sum(xs) - max(xs)), "seed": g}

    def fvs_specs():
        seen = set()
        for g in itertools.count():
            rng = random.Random(g)
            names = "abcd"[: rng.choice((3, 4))]
            edges = [[u, v] for u in names for v in names if u != v and rng.random() < 0.4]
            key = tuple(map(tuple, edges))
            if key not in seen:
                seen.add(key)
                yield {"gen": "fvs", "edges": edges, "seed": g}

    def large_alpha_specs():
        return ({"gen": "random", "n": 5 + g % 4, "d": 3, "large_alpha": True, "seed": g} for g in itertools.count())

    # Family sizes are strata x cases per stratum, and the cases per stratum
    # are the rounds in one pass over the workload.  A timed run plays whole
    # passes; each pass is sized to take somewhat longer than the 20 s run
    # length on the build machine, so a run is one pass.
    yield "cyclic-dp", "dp", 8, first(48, dp_specs(), lambda net: cyclic_rational(net, True))
    yield "cyclic-dp", "infeasible", 2, first(12, dp_specs(), lambda net: cyclic_rational(net, False))
    yield "wide-dag", "dag", 6, first(24, dag_specs(), lambda net: len(net.edges) > 0)
    for players in (11, 12, 13):
        yield "wide-dag", "knapsack%d" % players, 1, first(4, knapsack_specs(players), lambda net: True)
    yield "gadget", "fvs", 5, first(25, fvs_specs(), lambda net: 9 <= len(net.edges) <= 14)
    yield "gadget", "cycle", 1, [{"gen": "cycle", "k": k} for k in (3, 5, 8, 12, 20)]
    yield "gadget", "large-alpha", 8, first(
        40, large_alpha_specs(), lambda net: 10 <= len(net.edges) <= 16 and _cyclic(net)
    )


PROBE = {
    "spec": {"gen": "random", "n": 20, "d": 3, "large_alpha": True, "seed": 4},
    "why": "40-edge large-alpha net; the 0/full search has no guard",
}


def main():
    run.import_collat()
    signal.signal(signal.SIGALRM, run._on_alarm)
    catalog = {
        "about": "Written by bench/build_catalog.py; see its docstring. build_s is the "
                 "CLI solve + verify time when the catalog was built, used for strata only.",
        "built_with": run.machine_record(),
        "workloads": {w: {"strata": []} for w in workloads.WORKLOADS},
    }
    catalog["workloads"]["gadget"]["probe"] = PROBE
    oracles = {}
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp:
        for workload, family, n_strata, specs in families():
            started = time.perf_counter()
            cases = []
            for spec in specs:
                case, oracle = measure(spec, Path(tmp))
                oracles[oracle] = oracles.get(oracle, 0) + 1
                cases.append(case)
            cases.sort(key=lambda c: c["build_s"])
            size = len(cases) // n_strata
            for s in range(n_strata):
                name = family if n_strata == 1 else "%s-%d" % (family, s + 1)
                catalog["workloads"][workload]["strata"].append(
                    {"name": name, "cases": cases[s * size:(s + 1) * size]}
                )
            print("%-10s %-12s %3d cases  %6.1f s  slowest case %.2f s"
                  % (workload, family, len(cases), time.perf_counter() - started, cases[-1]["build_s"]),
                  file=sys.stderr)
    print("cases per oracle: %s" % oracles, file=sys.stderr)
    with open(workloads.CATALOG_PATH, "w") as handle:
        json.dump(catalog, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
