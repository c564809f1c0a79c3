"""Workload catalog, seeded rounds and answer checks.

Each workload is a list of strata; each stratum is a list of cases, and a
case is a generator call (`spec`) plus its frozen reference answer (`ref`).
A run of seed s plays rounds: every round holds exactly one case from every
stratum, drawn by a per-stratum permutation seeded by s, in a seeded order,
and every document is written with its vertex list shuffled by s.
The mix of cheap and expensive ops is therefore the same in every round, so
a run cut short stays balanced.  `catalog.json` is written by
`build_catalog.py`.

Nothing here imports `collat` at module level: the runner re-imports the
package for each set-up repetition, and the functions below look it up at
call time.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CATALOG_PATH = HERE / "catalog.json"

WORKLOADS = ("cyclic-dp", "wide-dag", "gadget")


def load_catalog(path=CATALOG_PATH):
    with open(path) as handle:
        return json.load(handle)


def build_network(spec):
    """The network a catalog spec describes, built by the public generators."""
    from collat import instances

    gen = spec["gen"]
    if gen == "random":
        return instances.random_network(
            spec["n"],
            spec["d"],
            acyclic=spec.get("acyclic", False),
            seed=spec["seed"],
            large_alpha=spec.get("large_alpha", False),
        )
    if gen == "knapsack":
        return instances.gen_knapsack_star(spec["xs"], spec["t"]).to_network()
    if gen == "cycle":
        return instances.gen_cycle_family(spec["k"])
    if gen == "fvs":
        return instances.gen_fvs_gadget([tuple(pair) for pair in spec["edges"]])
    raise ValueError("unknown generator %r" % (gen,))


def write_case(spec, path, rng=None):
    """Write the case's network document.  With `rng` the vertex list is
    shuffled, which renumbers the vertices inside the program but changes no
    answer the references hold.  The edge list keeps its order: it sets the
    IESDS scan order and the large-alpha search's tie order, and shuffling
    it moved single ops by up to 30%, which would drown the effects the
    benchmark is meant to show."""
    from collat import instances

    doc = instances.serialize_network(build_network(spec), spec)
    if rng is not None:
        rng.shuffle(doc["vertices"])
    with open(path, "w") as handle:
        handle.write(instances.dumps_document(doc))


def rounds(strata, seed, count):
    """`count` rounds of (stratum index, case index) picks for `seed`."""
    rng = random.Random(seed)
    perms = [rng.sample(range(len(cases)), len(cases)) for cases in strata]
    out = []
    for r in range(count):
        picks = [(j, perm[r % len(perm)]) for j, perm in enumerate(perms)]
        rng.shuffle(picks)
        out.append(picks)
    return out


def _full_sum(report):
    """Sum of the collaterals that equal their investment (the full set)."""
    return sum(
        (
            Fraction(row["collateral"])
            for row in report["collaterals"]
            if Fraction(row["collateral"]) == Fraction(row["amount"])
        ),
        Fraction(0),
    )


def check_solve(ref, rc, report):
    """None if a solve op's exit code and report match the reference, else
    a one-line reason."""
    if ref["status"] == "infeasible":
        if rc != 2 or report.get("status") != "infeasible":
            return "expected infeasible (exit 2), got exit %s status %s" % (rc, report.get("status"))
        return None
    if rc != 0 or report.get("status") != "solved":
        return "expected solved (exit 0), got exit %s status %s" % (rc, report.get("status"))
    if Fraction(report["total"]) != Fraction(ref["total"]):
        return "total %s, reference %s" % (report["total"], ref["total"])
    if Fraction(report["nec"]) != Fraction(ref["nec"]):
        return "NEC %s, reference %s" % (report["nec"], ref["nec"])
    if "full_sum" in ref and _full_sum(report) != Fraction(ref["full_sum"]):
        return "full-collateral sum %s, knapsack reference %s" % (_full_sum(report), ref["full_sum"])
    return None


def check_verify(solve_report, rc, report):
    """None if verifying a solve report says viable and minimal at the same
    total, else a one-line reason."""
    if rc != 0 or report.get("status") != "viable":
        return "expected viable (exit 0), got exit %s status %s" % (rc, report.get("status"))
    if report.get("minimal") is not True:
        return "report is viable but not minimal"
    if Fraction(report["total"]) != Fraction(solve_report["total"]):
        return "verified total %s, solved total %s" % (report["total"], solve_report["total"])
    return None
