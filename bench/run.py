#!/usr/bin/env python3
"""Closed-loop, seeded benchmark of the `collat` command line.

    python3 bench/run.py                               # all three workloads
    python3 bench/run.py --workload cyclic-dp --seed 3 --seconds 15
    python3 bench/run.py --workload gadget --trace 1   # per-layer numbers

One process, one thread, one client.  An op is one in-process call
`collat.cli.main(["solve" | "verify", <file>, "--out-file", <tmp>])`; each
op starts when the previous one returns.  Every solvable instance gets
`solve` and then `verify` of the report that solve wrote.  Answers are
checked against the frozen references in `catalog.json` after the timed
loop.  The end-to-end metrics are taken from op and set-up times scaled to
a reference machine speed (see `calibrate`); wall values are printed beside
them.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a fuller record goes to
`bench/results/`.  See `bench/README.md`.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = workloads.HERE.parent
SRC = ROOT / "src"
RESULTS = workloads.HERE / "results"

OP_LIMIT_S = 10.0
SETUP_REPEATS = 15
TAIL_BEYOND = 10
CALIBRATION_ITERS = 300
# A fixed scale: about the calibration loop's median time during runs on a
# 2-vCPU Intel Xeon VM under Python 3.11, so that scaled times there read
# close to wall times.
REFERENCE_CALIBRATION_S = 0.9e-3


class OpTimeout(BaseException):
    """Raised by the per-op alarm.  A BaseException, so no handler inside the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_collat():
    """(Re-)import `collat` from this checkout's `src/`.

    Earlier imports are dropped first, so the import is part of every set-up
    repetition.  Raises ImportError if the package is missing or would come
    from anywhere else.
    """
    for name in [n for n in sys.modules if n == "collat" or n.startswith("collat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("collat.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError("collat was imported from %s, not %s" % (cli.__file__, SRC))


def calibrate():
    """Seconds a fixed pure-Python loop takes now, best of three.

    A shared VM switches between a fast and a ~1.5x slower speed in phases
    of 10-60 s as its other tenants come and go, which is as long as a run.
    Every timed interval is therefore also reported scaled by
    REFERENCE_CALIBRATION_S over the mean of the calibrations read just
    before and just after it: that is its time at the reference speed.
    The loop does the kind of work the program's hot code does (frozenset
    keys, dict lookups, Fraction sums), so a slow phase slows both alike.
    The loop calls nothing in `collat`, so a change to the program moves
    scaled and wall times alike.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        sums = {}
        for i in range(CALIBRATION_ITERS):
            key = frozenset((i & 63, (i >> 2) & 63))
            sums[key] = sums.get(key, 0) + Fraction(i, 7)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds, before, after):
    return seconds * REFERENCE_CALIBRATION_S * 2 / (before + after)


def run_op(argv, limit):
    """One CLI call under the per-op time limit: (outcome, exit code, seconds).

    The CLI is looked up at call time, so a traced run sees the wrapper.
    """
    main = sys.modules["collat.cli"].main
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        try:
            rc = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", None, time.perf_counter() - start
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        return "raised %s: %s" % (type(exc).__name__, exc), None, time.perf_counter() - start
    return "returned", rc, time.perf_counter() - start


# ---------------------------------------------------------------------------
# set-up


def setup(catalog, workload, seed, workdir, tiny=False):
    """Import, write the seeded instance files and warm up.  Returns the
    rounds to play, each a list of (case id, case, path).  `tiny` is one
    round of the cheapest case of each stratum."""
    import_collat()
    strata = catalog["workloads"][workload]["strata"]
    cases = [s["cases"] for s in strata]
    if tiny:
        schedule = [[(j, min(range(len(c)), key=lambda i: c[i]["build_s"])) for j, c in enumerate(cases)]]
    else:
        schedule = workloads.rounds(cases, seed, max(len(c) for c in cases))
    plan = []
    written = {}
    for picks in schedule:
        plan.append([])
        for j, i in picks:
            case_id = "%s/%d" % (strata[j]["name"], i)
            if case_id not in written:
                written[case_id] = workdir / ("case-%d-%d.json" % (j, i))
                rng = random.Random("%d:%s" % (seed, case_id))
                workloads.write_case(cases[j][i]["spec"], written[case_id], rng)
            plan[-1].append((case_id, cases[j][i], written[case_id]))
    warm = workdir / "warmup.json"
    workloads.write_case({"gen": "cycle", "k": 3}, warm)
    for argv in (
        ["solve", str(warm), "--out-file", str(workdir / "warmup-solve.json")],
        ["verify", str(warm), str(workdir / "warmup-solve.json"), "--out-file", str(workdir / "warmup-verify.json")],
    ):
        outcome, rc, _ = run_op(argv, OP_LIMIT_S)
        if outcome != "returned" or rc != 0:
            raise RuntimeError("warm-up op %s failed: %s, exit %s" % (argv[0], outcome, rc))
    return plan


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Plays plan entries in order and keeps one record per op."""

    def __init__(self, workdir, tracer=None, tag="op"):
        self.workdir = workdir
        self.tracer = tracer
        self.tag = tag
        self.records = []
        self.round = 0

    def _op(self, command, argv, case_id, ref, out, solve_out=None):
        rec = {"op": len(self.records), "round": self.round, "command": command, "case": case_id, "out": out}
        # Each op starts from a collected heap, as a fresh CLI process would,
        # so garbage left by earlier ops does not land in its time.
        gc.collect()
        before = calibrate()
        if self.tracer is not None:
            self.tracer.start_op(rec["op"], command)
        rec["outcome"], rec["rc"], rec["seconds"] = run_op(argv, OP_LIMIT_S)
        if self.tracer is not None:
            self.tracer.finish_op()
        rec["scaled"] = scaled(rec["seconds"], before, calibrate())
        rec["ref"] = ref
        rec["solve_out"] = solve_out
        self.records.append(rec)
        return rec

    def play(self, entry):
        case_id, case, path = entry
        n = len(self.records)
        report = str(self.workdir / ("%s%d-solve.json" % (self.tag, n)))
        rec = self._op("solve", ["solve", str(path), "--out-file", report], case_id, case["ref"], report)
        if rec["outcome"] == "returned" and rec["rc"] == 0:
            checked = str(self.workdir / ("%s%d-verify.json" % (self.tag, n)))
            self._op(
                "verify",
                ["verify", str(path), report, "--out-file", checked],
                case_id,
                case["ref"],
                checked,
                solve_out=report,
            )

    def run_for(self, plan, seconds, unit):
        """Closed loop over the rounds of `plan` (cycled) until `seconds`
        have passed, stopping only after a whole multiple of `unit` rounds;
        returns (wall seconds, rounds played)."""
        start = time.perf_counter()
        deadline = start + seconds
        played = 0
        while played % unit or played == 0 or time.perf_counter() < deadline:
            self.round = played
            for entry in plan[played % len(plan)]:
                self.play(entry)
            played += 1
        return time.perf_counter() - start, played


def check_records(records):
    """Mark each record with `failure` (None when the op answered correctly)."""
    for rec in records:
        rec["failure"] = None
        if rec["outcome"] != "returned":
            rec["failure"] = rec["outcome"]
            continue
        if rec["rc"] not in (0, 2):
            rec["failure"] = "exit %s" % rec["rc"]
            continue
        try:
            with open(rec["out"]) as handle:
                report = json.load(handle)
            if rec["command"] == "solve":
                rec["failure"] = workloads.check_solve(rec["ref"], rec["rc"], report)
            else:
                with open(rec["solve_out"]) as handle:
                    solved = json.load(handle)
                rec["failure"] = workloads.check_verify(solved, rec["rc"], report)
        except (OSError, ValueError, KeyError) as exc:
            rec["failure"] = "unreadable report: %s" % exc


# ---------------------------------------------------------------------------
# metrics and the run record


def percentile(samples, p):
    """Nearest-rank percentile."""
    return sorted(samples)[max(1, math.ceil(p * len(samples) / 100)) - 1]


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, but never below the median."""
    n = len(samples)
    p = max(50, 100 * (n - TAIL_BEYOND) // n) if n > TAIL_BEYOND else 50
    return p, percentile(samples, p)


def latency(records, command, pass_rounds, key):
    """p50 and tail of one command's op times (`key`: "scaled" or
    "seconds"), taken in each pass of `pass_rounds` rounds and then the
    median over passes.  Every pass plays the same ops, so the tail is the
    same rank however many passes fit."""
    passes = {}
    for r in records:
        if r["command"] == command:
            passes.setdefault(r["round"] // pass_rounds, []).append(r[key] * 1e3)
    rows = []
    for samples in passes.values():
        p, value = tail(samples)
        rows.append({"count": len(samples), "p50_ms": percentile(samples, 50),
                     "tail_percentile": p, "tail_ms": value})
    return {
        "passes": rows,
        "p50_ms": statistics.median(row["p50_ms"] for row in rows) if rows else None,
        "tail_ms": statistics.median(row["tail_ms"] for row in rows) if rows else None,
    }


def end_to_end(records, setup_times, peak_rss_mb, pass_rounds, key="scaled"):
    """The end-to-end metrics from scaled times, or with key="seconds" from
    wall times."""
    solve = latency(records, "solve", pass_rounds, key)
    verify = latency(records, "verify", pass_rounds, key)
    completed = sum(r["outcome"] == "returned" for r in records)
    metrics = {
        "setup_s": (statistics.median(t[key] for t in setup_times), "s"),
        "ops_per_s": (completed / sum(r[key] for r in records), "ops/s"),
        "solve_p50_ms": (solve["p50_ms"], "ms"),
        "solve_tail_ms": (solve["tail_ms"], "ms"),
        "verify_p50_ms": (verify["p50_ms"], "ms"),
        "verify_tail_ms": (verify["tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, {"solve": solve, "verify": verify}


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
    }


def op_counts(records):
    counts = {}
    for rec in records:
        row = counts.setdefault(rec["command"], {"attempted": 0, "failed": 0})
        row["attempted"] += 1
        row["failed"] += rec["failure"] is not None
    return counts


def _values(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_probe(catalog, workload, workdir):
    """The workload's guard probe: one untimed solve outside `attempted`,
    which records how the program handles an input past its guards."""
    probe = catalog["workloads"][workload].get("probe")
    if probe is None:
        return None
    path = workdir / "probe.json"
    workloads.write_case(probe["spec"], path)
    outcome, rc, seconds = run_op(["solve", str(path), "--out-file", str(workdir / "probe-solve.json")], OP_LIMIT_S)
    return dict(probe, outcome=outcome, rc=rc, seconds=seconds)


def measure(args, catalog, workdir):
    """Set up, run the loop (and the traced replay) and check the answers;
    returns the result record and the metrics for the JSON line."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        plan = setup(catalog, args.workload, args.seed, workdir, args.tiny)
        seconds = time.perf_counter() - start
        setup_times.append({"seconds": seconds, "scaled": scaled(seconds, before, calibrate())})
    # A timed run plays whole passes over the catalog until the budget has
    # passed, so every case counts equally whatever the seed.  A traced run
    # plays half the budget untraced, in whole rounds, then replays exactly
    # those rounds traced and once more untraced.  The first pass warms the
    # memory allocator (the DP tables), so the overhead is the traced op time
    # over the second untraced one, both scaled.
    loop = Loop(workdir)
    if args.tiny:
        wall, played = loop.run_for(plan, 0, 1)
    elif args.trace:
        wall, played = loop.run_for(plan, args.seconds / 2, 1)
    else:
        wall, played = loop.run_for(plan, args.seconds, len(plan))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = None
    records = loop.records
    if args.trace:
        traced = Loop(workdir, Tracer(), tag="traced")
        traced.tracer.install()
        try:
            traced_wall, _ = traced.run_for(plan, 0, played)
        finally:
            traced.tracer.uninstall()
        again = Loop(workdir, tag="again")
        untraced_wall, _ = again.run_for(plan, 0, played)
        records = records + traced.records + again.records
    probe = run_probe(catalog, args.workload, workdir)
    check_records(records)
    metrics, latencies = end_to_end(loop.records, setup_times, peak_rss_mb, len(plan))
    wall_metrics, wall_latencies = end_to_end(loop.records, setup_times, peak_rss_mb, len(plan), "seconds")
    failed = sum(r["failure"] is not None for r in records)
    result = {
        "record": dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                       trace=args.trace, op_limit_s=OP_LIMIT_S, **machine_record()),
        "op_counts": op_counts(records),
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "rounds_played": played,
        "round_size": len(plan[0]),
        "timed_wall_s": wall,
        "setup_s_each": setup_times,
        "latency": latencies,
        "latency_wall": wall_latencies,
        "end_to_end": _values(metrics),
        "end_to_end_wall": _values(wall_metrics),
        "failures": [
            {k: r[k] for k in ("op", "command", "case", "failure")}
            for r in records if r["failure"] is not None
        ],
        "guard_probe": probe,
        "ops": [[r["case"], r["command"], r["seconds"], r["scaled"], r["outcome"], r["rc"]] for r in records],
    }
    if traced:
        metrics = traced.tracer.metrics()
        overhead = {
            "traced_s": sum(r["scaled"] for r in traced.records),
            "untraced_s": sum(r["scaled"] for r in again.records),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
        }
        metrics["bench.trace_overhead"] = (overhead["traced_s"] / overhead["untraced_s"], "ratio")
        result["per_layer"] = traced.tracer.table()
        result["per_layer_metrics"] = _values(metrics)
        result["trace_overhead"] = overhead
        spans_path = RESULTS / ("%s-seed%d-trace1-spans.jsonl" % (args.workload, args.seed))
        write_spans(spans_path, traced.tracer)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result, metrics


def write_spans(path, tracer):
    with open(path, "w") as handle:
        for op_id, span_id, parent, name, start, end in tracer.spans:
            handle.write(json.dumps({"op": op_id, "span": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
        for op_id, command, hot in tracer.hot_by_op:
            handle.write(json.dumps({"op": op_id, "command": command, "hot": hot}) + "\n")


def print_summary(result, metrics, result_path):
    rec = result["record"]
    print("workload %s  seed %d  %s s  trace %d  python %s  nproc %s  cpu %s  commit %s"
          % (rec["workload"], rec["seed"], rec["seconds"], rec["trace"], rec["python"],
             rec["nproc"], rec["cpu_model"], rec["commit"]))
    for command, lat in result["latency"].items():
        counts = result["op_counts"].get(command, {"attempted": 0, "failed": 0})
        per_pass = ", ".join("p%(tail_percentile)d of %(count)d" % row for row in lat["passes"])
        print("  %-6s ops %4d  failed %d  tail per timed pass: %s"
              % (command, counts["attempted"], counts["failed"], per_pass or "none"))
    print("  %-16s %12.4f ratio" % ("error_rate", result["error_rate"]))
    if "per_layer" in result:
        print_layer_table(result["per_layer"], result["trace_overhead"])
    else:
        print("  %-16s %12s %12s" % ("", "scaled", "wall"))
        for name, (value, unit) in metrics.items():
            wall = result["end_to_end_wall"][name]["value"]
            print("  %-16s %12.4f %12.4f %s" % (name, value, wall, unit))
    for failure in result["failures"][:10]:
        print("  FAILED op %(op)d %(command)s %(case)s: %(failure)s" % failure)
    probe = result["guard_probe"]
    if probe is not None:
        print("  guard probe (untimed, not in attempted): %s -> %s, exit %s after %.2f s"
              % (probe["why"], probe["outcome"], probe["rc"], probe["seconds"]))
    print("  result file: %s" % result_path.relative_to(ROOT))


def print_layer_table(table, overhead):
    commands = ("solve", "verify")
    print("per-layer (traced replay), self/total in wall ms:")
    print("  %-34s" % "layer" + "".join(
        " | %12s %10s %10s" % (c + " calls", "self", "total") for c in commands
    ) + " | errors")
    for name, row in table.items():
        cells = []
        for c in commands:
            stats = row["by_command"].get(c, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            cells.append(" | %12d %10.1f %10.1f" % (stats["calls"], stats["self_ms"], stats["total_ms"]))
        errors = ",".join("%s=%d" % kv for kv in sorted(row["errors"].items())) or "-"
        print("  %-34s" % name + "".join(cells) + " | " + errors)
    traced, untraced = overhead["traced_s"], overhead["untraced_s"]
    print("tracing overhead: traced op time %.3f s / untraced op time %.3f s (scaled) = %.3f"
          % (traced, untraced, traced / untraced))


def run_workload(args):
    catalog = workloads.load_catalog()
    signal.signal(signal.SIGALRM, _on_alarm)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-" % args.workload, dir=RESULTS))
    try:
        result, metrics = measure(args, catalog, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result_path = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(result_path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print_summary(result, metrics, result_path)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _values(metrics),
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        status = max(status, subprocess.run(argv).returncode)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: the cheapest case of each stratum, played once")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_collat()
    except ImportError as exc:
        print("error: cannot import collat from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
