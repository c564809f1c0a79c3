"""Command-line front end.

Subcommands: `check` (validation + solvability), `solve` (optimal
collaterals + NEC), `verify` (viability/minimality of a user-supplied
matrix), `gen` (instance files).

`check`, `solve` and `verify` share one op path (`_report`): load and
validate the network, let the command compute its fields, status and exit
code, wrap them in the versioned envelope (`report_version`,
`input_digest`, `command`, `status`, `timing_seconds`) and serialize the
report as JSON, or as per-edge CSV for `solve --out csv`.  The records a
report shares with the documents that read it back (edge references,
`collaterals` rows) are built by `instances`.  Every document,
`gen`'s included, is written by `_emit`: to `--out-file` (as UTF-8), or
to stdout with a short human summary on stderr.

The argument parser is built once per process, by the first `main` call
(`build_parser` is cached); every call still parses into a fresh
namespace and applies its own `-v`.

Exit codes are uniform: 0 success / solvable / viable, 2 domain-negative
verdict (infeasible, not viable), 1 operational error (I/O, parse,
validation, invalid `gen` parameters, guard overrun, a result too long to
write, and usage errors such as a missing argument, a bad choice or an
unknown subcommand).  An operational error is one `error:` line on stderr
from `main`, and nothing is written; `--help` prints the usage and exits
0.  JSON reports carry exact "p/q" strings; the decimal renderings in
human output are 6-significant-digit hints only.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import logging
import sys
import time
from decimal import Decimal

from . import instances
from .analysis import _minimal_along, iterated_elimination, solvability_check
from .instances import DocumentError, RationalTooLongError, format_rational
from .model import validate_network
from .network import Status, TooLargeError, solve

REPORT_VERSION = 1


class ParameterError(Exception):
    """Invalid command-line parameters: a usage error, or `collat gen`
    parameters outside a generator's domain."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a `ParameterError` instead of exiting 2;
    subparsers are built with the same class."""

    def error(self, message):
        raise ParameterError("%s: %s" % (self.prog, message))


def _decimal_hint(f):
    try:
        return "%.6g" % float(f)
    except OverflowError:  # beyond a float's range
        return format(Decimal(f.numerator) / f.denominator, ".6g")


def _by_id(net, values):
    return {str(net.ids[k]): format_rational(v) for k, v in sorted(values.items())}


def _witness_json(net, witness):
    return {
        "vertices": sorted((net.ids[v] for v in witness.vertices), key=str),
        "shortfalls": _by_id(net, witness.shortfalls),
    }


def _emit(args, text, human_lines):
    """Write `text` to `--out-file` as UTF-8 bytes, or to stdout with
    `human_lines` on stderr."""
    if args.out_file:
        with open(args.out_file, "wb") as handle:
            handle.write(text.encode())
    else:
        sys.stdout.write(text)
        for line in human_lines:
            print(line, file=sys.stderr)


def _csv(report):
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, instances.COLLATERAL_FIELDS)
    writer.writeheader()
    writer.writerows(report.get("collaterals", []))
    return buffer.getvalue()


def _report(args):
    """The op path of `check`, `solve` and `verify`: load and validate the
    network, let the command compute its verdict, wrap it in the envelope
    and emit it.  Returns the command's exit code."""
    started = time.perf_counter()
    with open(args.network, "rb") as handle:
        data = handle.read()  # digested and parsed alike
    net = instances.loads_network(data)
    validation = validate_network(net)
    if not validation.ok:
        raise DocumentError("; ".join(validation.violations), "$")
    code, status, report, human = args.verdict(args, net)
    report.update(
        report_version=REPORT_VERSION,
        input_digest=hashlib.sha256(data).hexdigest(),
        command=args.command,
        status=status,
        timing_seconds=round(time.perf_counter() - started, 6),
    )
    _emit(args, _csv(report) if args.out == "csv" else instances.dumps_document(report), human)
    return code


def cmd_check(args, net):
    result = solvability_check(net)
    if result.solvable:
        return 0, "solvable", {}, ["status: solvable"]
    witness = _witness_json(net, result.witness)
    vertices = ", ".join(map(str, witness["vertices"]))
    return 2, "infeasible", {"witness": witness}, ["status: infeasible", "witness vertices: %s" % vertices]


def cmd_solve(args, net):
    sol = solve(net)
    fields = {"method": sol.method}
    if sol.status is Status.INFEASIBLE:
        fields.update(total="infinite", nec=None, witness=_witness_json(net, sol.witness))
        return 2, "infeasible", fields, ["status: infeasible", "NEC: undefined (no viable matrix)"]
    refs = instances.edge_refs(net)
    fields.update(
        total=format_rational(sol.total),
        nec=format_rational(sol.nec),
        collaterals=instances.collateral_rows(net, refs, sol.collaterals),
        elimination_order=[refs[e] for e in sol.order],
        star_totals=_by_id(net, sol.star_totals),
        star_optima=_by_id(net, sol.star_optima),
    )
    human = [
        "method: %s" % sol.method,
        "total: %s (~%s)" % (fields["total"], _decimal_hint(sol.total)),
        "NEC: %s (~%s)" % (fields["nec"], _decimal_hint(sol.nec)),
    ]
    return 0, "solved", fields, human


def cmd_verify(args, net):
    with open(args.collaterals, "rb") as handle:
        c = instances.loads_collaterals(net, handle.read())
    order, stuck = iterated_elimination(net, c)
    fields = {"total": format_rational(c.total())}
    if stuck:
        refs = instances.edge_refs(net)
        fields.update(minimal=None, stuck_edges=[refs[e] for e in sorted(stuck)])
        return 2, "not-viable", fields, ["status: not-viable", "stuck edges: %d" % len(stuck)]
    fields["minimal"] = _minimal_along(net, c, order)
    return 0, "viable", fields, ["status: viable", "minimal: %s" % fields["minimal"]]


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
            weights = _integers("--weights", args.weights, 2)
            net = instances.random_network(
                args.n,
                args.d,
                acyclic=args.acyclic,
                weight_range=tuple(weights),
                seed=args.seed,
                large_alpha=args.large_alpha,
            )
            meta.update(n=args.n, d=args.d, acyclic=args.acyclic, large_alpha=args.large_alpha,
                        weights=weights)
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
    except ValueError as exc:  # invalid generator parameters, not solver bugs
        raise ParameterError(exc) from None
    _emit(args, instances.dumps_document(instances.serialize_network(net, meta)), [])
    if args.out_file:
        print("wrote %s" % args.out_file, file=sys.stderr)
    return 0


@functools.cache
def build_parser():
    parser = _Parser(
        prog="collat",
        description="Minimum-collateral schemes for networked investment games",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log solver dispatch")
    sub = parser.add_subparsers(dest="command", required=True)

    def report(name, verdict, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("network")
        p.add_argument("--out-file")
        p.set_defaults(func=_report, verdict=verdict, out="json")
        return p

    report("check", cmd_check, "validate a network and test solvability")
    p = report("solve", cmd_solve, "compute optimal collaterals and the NEC")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p = report("verify", cmd_verify, "check a collateral matrix for viability and minimality")
    p.add_argument("collaterals", help="JSON file with a 'collaterals' list (solve reports work)")

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
    g = gen_sub.add_parser("fvs", help="digraph gadget network (optimum counts sink components)")
    g.add_argument("--edges", required=True, help="comma-separated u-v pairs, e.g. a-b,b-c,c-a")
    for g in gen_sub.choices.values():
        g.add_argument("--out-file")
        g.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # basicConfig is a no-op once the root logger has a handler, so each
        # call sets the level on the package logger itself
        logging.basicConfig(format="%(message)s")
        logging.getLogger("collat").setLevel(logging.INFO if args.verbose else logging.WARNING)
        return args.func(args)
    except (DocumentError, OSError, ParameterError, RationalTooLongError, TooLargeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
