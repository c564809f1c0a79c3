"""Command-line front end.

Subcommands: `check` (validation + solvability), `solve` (optimal
collaterals + NEC), `verify` (viability/minimality of a user-supplied
matrix), `gen` (instance files).

Exit codes are uniform: 0 success / solvable / viable, 2 domain-negative
verdict (infeasible, not viable), 1 operational error (I/O, parse,
validation, guard overrun).  JSON reports carry exact "p/q" strings; the
decimal renderings in human output are 6-significant-digit hints only.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import sys
import time

from . import instances
from .analysis import is_minimal, iterated_elimination, solvability_check
from .instances import DocumentError, format_rational, parse_rational
from .model import CollateralMatrix, validate_network
from .network import Status, TooLargeError, solve

log = logging.getLogger("collat")

REPORT_VERSION = 1


def _decimal_hint(f):
    return "%.6g" % float(f)


def _digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _edge_ref(net, edge):
    e = net.edges[edge]
    return {"enterprise": net.ids[e.enterprise], "investor": net.ids[e.investor]}


def _witness_json(net, witness):
    return {
        "vertices": sorted((net.ids[v] for v in witness.vertices), key=str),
        "shortfalls": {
            str(net.ids[k]): format_rational(v) for k, v in sorted(witness.shortfalls.items())
        },
    }


def _emit(args, report, human_lines):
    out = sys.stdout
    close = False
    if getattr(args, "out_file", None):
        out = open(args.out_file, "w")
        close = True
    try:
        if getattr(args, "out", "json") == "csv":
            writer = csv.writer(out)
            writer.writerow(["enterprise", "investor", "amount", "collateral"])
            for row in report.get("collaterals", []):
                writer.writerow([row["enterprise"], row["investor"], row["amount"], row["collateral"]])
        else:
            json.dump(report, out, indent=2, sort_keys=True)
            out.write("\n")
        if out is sys.stdout:
            for line in human_lines:
                print(line, file=sys.stderr)
    finally:
        if close:
            out.close()


def _load(path):
    net = instances.load_network(path)
    report = validate_network(net)
    if not report.ok:
        raise DocumentError("; ".join(report.violations), "$")
    return net


def cmd_check(args):
    started = time.perf_counter()
    net = _load(args.network)
    result = solvability_check(net)
    report = {
        "report_version": REPORT_VERSION,
        "input_digest": _digest(args.network),
        "command": "check",
        "status": "solvable" if result.solvable else "infeasible",
        "timing_seconds": round(time.perf_counter() - started, 6),
    }
    human = ["status: %s" % report["status"]]
    if not result.solvable:
        report["witness"] = _witness_json(net, result.witness)
        human.append("witness vertices: %s" % ", ".join(map(str, report["witness"]["vertices"])))
    _emit(args, report, human)
    return 0 if result.solvable else 2


def cmd_solve(args):
    started = time.perf_counter()
    net = _load(args.network)
    try:
        sol = solve(net)
    except TooLargeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    report = {
        "report_version": REPORT_VERSION,
        "input_digest": _digest(args.network),
        "command": "solve",
        "method": sol.method,
        "status": sol.status.value,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }
    if sol.status is Status.INFEASIBLE:
        report["total"] = "infinite"
        report["nec"] = None
        report["witness"] = _witness_json(net, sol.witness)
        _emit(args, report, ["status: infeasible", "NEC: undefined (no viable matrix)"])
        return 2
    report["total"] = format_rational(sol.total)
    report["nec"] = format_rational(sol.nec)
    report["collaterals"] = [
        dict(
            _edge_ref(net, e),
            amount=format_rational(net.edges[e].amount),
            collateral=format_rational(sol.collaterals[e]),
        )
        for e in range(len(net.edges))
    ]
    report["elimination_order"] = [_edge_ref(net, e) for e in sol.order]
    report["star_totals"] = {
        str(net.ids[k]): format_rational(v) for k, v in sorted(sol.star_totals.items())
    }
    report["star_optima"] = {
        str(net.ids[k]): format_rational(v) for k, v in sorted(sol.star_optima.items())
    }
    human = [
        "method: %s" % sol.method,
        "total: %s (~%s)" % (report["total"], _decimal_hint(sol.total)),
        "NEC: %s (~%s)" % (report["nec"], _decimal_hint(sol.nec)),
    ]
    _emit(args, report, human)
    return 0


def _load_collaterals(net, path):
    # float rejection happens per collateral value via parse_rational; the
    # document may carry unrelated float fields (e.g. a solve report's timing)
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DocumentError("invalid JSON: %s" % exc, "$") from None
    rows = doc.get("collaterals") if isinstance(doc, dict) else None
    if rows is None:
        raise DocumentError("missing 'collaterals' list", "$")
    if not isinstance(rows, list):
        raise DocumentError("expected a list", "$.collaterals")
    index = {vid: v for v, vid in enumerate(net.ids)}
    amounts = {}
    for pos, rec in enumerate(rows):
        path_ = "$.collaterals[%d]" % pos
        if not isinstance(rec, dict):
            raise DocumentError("expected an object", path_)
        if "collateral" not in rec:
            raise DocumentError("missing field 'collateral'", path_)
        try:
            k = index[rec["enterprise"]]
            i = index[rec["investor"]]
        except (KeyError, TypeError):
            raise DocumentError("unknown vertex id", path_) from None
        edge = net.edge_index.get((k, i))
        if edge is None:
            raise DocumentError("collateral on a non-edge", path_)
        if edge in amounts:
            raise DocumentError("second collateral for the same edge", path_)
        amount = parse_rational(rec["collateral"], path_ + ".collateral")
        if amount < 0:
            raise DocumentError("collateral must be nonnegative", path_ + ".collateral")
        amounts[edge] = amount
    return CollateralMatrix(net, amounts)


def cmd_verify(args):
    started = time.perf_counter()
    net = _load(args.network)
    c = _load_collaterals(net, args.collaterals)
    order, stuck = iterated_elimination(net, c)
    viable = not stuck
    minimal = is_minimal(net, c) if viable else None
    report = {
        "report_version": REPORT_VERSION,
        "input_digest": _digest(args.network),
        "command": "verify",
        "status": "viable" if viable else "not-viable",
        "total": format_rational(c.total()),
        "minimal": minimal,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }
    if not viable:
        report["stuck_edges"] = [_edge_ref(net, e) for e in sorted(stuck)]
    human = ["status: %s" % report["status"]]
    if viable:
        human.append("minimal: %s" % minimal)
    else:
        human.append("stuck edges: %d" % len(stuck))
    _emit(args, report, human)
    return 0 if viable else 2


def _integers(option, text, count=None):
    """The comma-separated integers of a `gen` option, `count` of them if given."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise ValueError("%s takes %s comma-separated integers, got %r"
                         % (option, count or "only", text))
    return values


def cmd_gen(args):
    meta = {"generator": args.family, "seed": getattr(args, "seed", None)}
    try:
        if args.family == "cycle":
            net = instances.gen_cycle_family(args.k)
            meta["k"] = args.k
        elif args.family == "random":
            net = instances.random_network(
                args.n,
                args.d,
                acyclic=args.acyclic,
                weight_range=tuple(_integers("--weights", args.weights, 2)),
                seed=args.seed,
                large_alpha=args.large_alpha,
            )
            meta.update(n=args.n, d=args.d, acyclic=args.acyclic)
        elif args.family == "knapsack":
            xs = _integers("--xs", args.xs)
            star = instances.gen_knapsack_star(xs, args.t)
            net = star.to_network()
            meta.update(xs=xs, t=args.t)
        else:  # fvs
            pairs = [tuple(p.split("-")) for p in args.edges.split(",") if p]
            if any(len(p) != 2 for p in pairs):
                raise ValueError("--edges takes u-v pairs, got %r" % args.edges)
            net = instances.gen_fvs_gadget(pairs)
            meta["graph_edges"] = ["-".join(p) for p in pairs]
    except ValueError as exc:  # invalid generator parameters
        print("error: %s" % exc, file=sys.stderr)
        return 1
    text = instances.dumps_document(instances.serialize_network(net, meta))
    if args.out_file:
        with open(args.out_file, "w") as handle:
            handle.write(text)
        print("wrote %s" % args.out_file, file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="collat",
        description="Minimum-collateral schemes for networked investment games",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log solver dispatch")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a network and test solvability")
    p.add_argument("network")
    p.add_argument("--out-file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="compute optimal collaterals and the NEC")
    p.add_argument("network")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--out-file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a collateral matrix for viability and minimality")
    p.add_argument("network")
    p.add_argument("collaterals", help="JSON file with a 'collaterals' list (solve reports work)")
    p.add_argument("--out-file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate instance files")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("cycle", help="the 9-vertex cycle family")
    g.add_argument("--k", type=int, required=True)
    g = gen_sub.add_parser("random", help="seeded random network")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--acyclic", action="store_true")
    g.add_argument("--large-alpha", action="store_true")
    g.add_argument("--weights", default="1,9")
    g.add_argument("--seed", type=int, default=0)
    g = gen_sub.add_parser("knapsack", help="inverse-knapsack reduction star")
    g.add_argument("--xs", required=True, help="comma-separated item sizes")
    g.add_argument("--t", type=int, required=True)
    g = gen_sub.add_parser("fvs", help="feedback-vertex-set gadget network")
    g.add_argument("--edges", required=True, help="comma-separated u-v pairs, e.g. a-b,b-c,c-a")
    for g in gen_sub.choices.values():
        g.add_argument("--out-file")
        g.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(message)s")
    try:
        return args.func(args)
    except DocumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
