import argparse
import builtins
import hashlib
import importlib
import json
import logging
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import collat.analysis
import collat.model
from collat import (
    CollateralMatrix,
    InvestmentNetwork,
    Status,
    gen_cycle_family,
    iterated_elimination,
    load_network,
    parse_document,
    random_network,
    save_network,
    solve,
)
from collat.cli import main
from collat.instances import collateral_rows, dumps_document, edge_refs, loads_collaterals
from collat.network import is_acyclic
from collat.star import STATE_GUARD
from helpers import spiked_22


@pytest.fixture
def cycle_path(tmp_path):
    path = tmp_path / "cycle.json"
    save_network(gen_cycle_family(3), path)
    return str(path)


@pytest.fixture
def infeasible_path(tmp_path):
    doc = {
        "version": 1,
        "vertices": [{"id": "P", "z": "1", "alpha": "1"}, {"id": "Q", "z": "1", "alpha": "1"}],
        "edges": [
            {"enterprise": "P", "investor": "Q", "amount": "2"},
            {"enterprise": "Q", "investor": "P", "amount": "2"},
        ],
    }
    path = tmp_path / "twocycle.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnvelope:
    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    @pytest.mark.parametrize("feasible", [True, False], ids=["positive", "negative"])
    def test_shared_fields(self, capsys, tmp_path, cycle_path, infeasible_path, command, feasible):
        path = cycle_path if feasible else infeasible_path
        argv = [command, path]
        if command == "verify":
            # full collaterals on the cycle family are viable; none on the
            # spikeless two-cycle leave both edges stuck
            net = load_network(path)
            rows = [
                {
                    "enterprise": net.ids[e.enterprise],
                    "investor": net.ids[e.investor],
                    "collateral": str(e.amount) if feasible else "0",
                }
                for e in net.edges
            ]
            c_path = tmp_path / "c.json"
            c_path.write_text(json.dumps({"collaterals": rows}))
            argv.append(str(c_path))
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert report["report_version"] == 1
        assert report["command"] == command
        with open(path, "rb") as handle:
            assert report["input_digest"] == hashlib.sha256(handle.read()).hexdigest()
        positive = {"check": "solvable", "solve": "solved", "verify": "viable"}[command]
        negative = {"check": "infeasible", "solve": "infeasible", "verify": "not-viable"}[command]
        assert (code, report["status"]) == ((0, positive) if feasible else (2, negative))
        assert type(report["timing_seconds"]) is float and report["timing_seconds"] >= 0


class TestCheck:
    def test_solvable(self, capsys, cycle_path):
        code, out, err = run(capsys, "check", cycle_path)
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "solvable"
        assert len(report["input_digest"]) == 64
        assert "status: solvable" in err

    def test_infeasible(self, capsys, infeasible_path):
        code, out, err = run(capsys, "check", infeasible_path)
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "infeasible"
        assert report["witness"]["vertices"] == ["P", "Q"]
        assert report["witness"]["shortfalls"] == {"P": "1", "Q": "1"}

    def test_missing_file(self, capsys, tmp_path):
        for command in ("check", "solve"):
            code, out, err = run(capsys, command, str(tmp_path / "nope.json"))
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "invalid JSON" in err

    def test_boolean_vertex_reference_is_an_input_error(self, capsys, tmp_path):
        # `"enterprise": true` would otherwise name the vertex whose id is 1
        doc = {"version": 1, "vertices": [{"id": 0}, {"id": 1, "z": "1", "alpha": "1"}],
               "edges": [{"enterprise": True, "investor": 0, "amount": "3"}]}
        net_path, out_path = tmp_path / "net.json", tmp_path / "out.json"
        net_path.write_text(json.dumps(doc))
        for command in ("check", "solve"):
            code, out, err = run(capsys, command, str(net_path), "--out-file", str(out_path))
            assert code == 1
            assert out == "" and not out_path.exists()
            assert err.startswith("error: $.edges[0].enterprise: ")
            assert len(err.splitlines()) == 1

    def test_unprofitable_network_is_an_input_error(self, capsys, tmp_path):
        doc = {
            "version": 1,
            "vertices": [{"id": "E", "z": "5", "alpha": "1"}, {"id": "p"}],
            "edges": [{"enterprise": "E", "investor": "p", "amount": "1"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "unprofitable" in err


class TestSolve:
    def test_cycle_family_json(self, capsys, cycle_path):
        code, out, err = run(capsys, "solve", cycle_path)
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "solved"
        assert report["method"] == "exact"
        assert report["total"] == "8"
        assert report["nec"] == "4/3"
        assert len(report["collaterals"]) == 9
        assert len(report["elimination_order"]) == 9
        assert sorted(report["star_totals"].values()) == ["2", "2", "4"]
        assert set(report["star_optima"]) == {"A", "B", "C"}
        assert "NEC: 4/3 (~1.33333)" in err

    def test_infeasible(self, capsys, infeasible_path):
        code, out, err = run(capsys, "solve", infeasible_path)
        assert code == 2
        report = json.loads(out)
        assert report["total"] == "infinite"
        assert report["nec"] is None
        assert report["witness"]["vertices"] == ["P", "Q"]
        assert "undefined" in err

    def test_verbose_logs_the_search_per_component(self, capsys, caplog, cycle_path):
        caplog.set_level(logging.INFO, logger="collat")
        code, _, _ = run(capsys, "-v", "solve", cycle_path)
        assert code == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "collat.network"]
        assert re.fullmatch(
            r"search: enterprises \{A, B, C\}: 9 edges, \d+ expansions, \d+ closed states, "
            r"\d+ bound entries",
            lines[0],
        )

    @pytest.mark.parametrize("calls", [["", "-v"], ["-v", ""]], ids=["quiet-first", "verbose-first"])
    def test_verbose_holds_per_call_in_one_process(self, cycle_path, calls):
        # `caplog` sets the logger level itself, so a fresh process is the
        # only place where one `main` call's -v can leak into the next
        script = (
            "import os, sys\n"
            "from collat.cli import main\n"
            "for flags in sys.argv[2:]:\n"
            "    print('call:' + flags, file=sys.stderr, flush=True)\n"
            "    main(flags.split() + ['solve', sys.argv[1], '--out-file', os.devnull])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, cycle_path, *calls],
                              capture_output=True, text=True, env=env, check=True)
        segments = proc.stderr.split("call:")[1:]
        assert len(segments) == 2
        for flags, segment in zip(calls, segments):
            logged = segment.splitlines()[1:]
            assert any(line.startswith("search: ") for line in logged) == bool(flags)
            assert bool(logged) == bool(flags)

    def test_csv_output(self, capsys, cycle_path):
        code, out, _ = run(capsys, "solve", cycle_path, "--out", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "enterprise,investor,amount,collateral"
        assert len(lines) == 10

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_guard_overrun_is_a_one_line_error(self, capsys, tmp_path, to_file):
        # the power-of-two star of tests/test_star.py behind a small upstream
        # enterprise that it funds: every subset sum is distinct
        amounts = [2**i for i in range(STATE_GUARD.bit_length())]
        d = len(amounts)
        edges = [(1, 2 + i, x) for i, x in enumerate(amounts)] + [(0, 1, 1), (0, d + 2, 1)]
        ids = ["A", "hub"] + ["s%d" % i for i in range(d)] + ["a"]
        net_path = tmp_path / "guard.json"
        save_network(
            InvestmentNetwork(d + 3, edges, cost={0: 1, 1: 1}, rate={0: 1, 1: 1}, ids=ids), net_path
        )
        target = tmp_path / "report.json"
        argv = ["solve", str(net_path)] + (["--out-file", str(target)] if to_file else [])
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: enterprise hub: star with")
        assert not target.exists()

    def test_one_validation_per_solve(self, capsys, monkeypatch, cycle_path):
        # `_report` validates the network; the solver reads the same report
        built = []
        report = collat.model.ValidationReport
        monkeypatch.setattr(collat.model, "ValidationReport",
                            lambda violations: built.append(violations) or report(violations))
        code, out, _ = run(capsys, "solve", cycle_path)
        assert (code, json.loads(out)["status"]) == (0, "solved")
        assert built == [[]]

    def test_out_file(self, capsys, cycle_path, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "solve", cycle_path, "--out-file", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["total"] == "8"


class TestVerify:
    def test_solve_report_round_trips(self, capsys, cycle_path, tmp_path):
        report_path = tmp_path / "sol.json"
        assert main(["solve", cycle_path, "--out-file", str(report_path)]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "verify", cycle_path, str(report_path))
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "viable"
        assert report["minimal"] is True
        assert report["total"] == "8"

    def test_zero_collaterals_not_viable(self, capsys, cycle_path, tmp_path):
        c_path = tmp_path / "zeros.json"
        c_path.write_text(json.dumps({"collaterals": []}))
        code, out, _ = run(capsys, "verify", cycle_path, str(c_path))
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "not-viable"
        assert report["stuck_edges"]

    def test_non_minimal_but_viable(self, capsys, cycle_path, tmp_path):
        net = gen_cycle_family(3)
        rows = [
            {
                "enterprise": net.ids[e.enterprise],
                "investor": net.ids[e.investor],
                "collateral": str(e.amount),
            }
            for e in net.edges
        ]
        c_path = tmp_path / "full.json"
        c_path.write_text(json.dumps({"collaterals": rows}))
        code, out, _ = run(capsys, "verify", cycle_path, str(c_path))
        assert code == 0
        assert json.loads(out)["minimal"] is False

    def test_minimal_needs_the_exact_lower_bound(self, capsys, tmp_path):
        # (3/2, 0, 1) is viable, so (151/100, 0, 1) is not minimal; lowering
        # the first coordinate by half the smallest collateral overshoots
        net = InvestmentNetwork(
            4, [(0, 1, 3), (0, 2, 2), (0, 3, 1)], cost={0: 3}, rate={0: 1}
        )
        net_path = tmp_path / "star.json"
        save_network(net, net_path)
        for first, minimal in (("151/100", False), ("3/2", True)):
            rows = [
                {"enterprise": 0, "investor": i, "collateral": c}
                for i, c in ((1, first), (2, "0"), (3, "1"))
            ]
            c_path = tmp_path / "c.json"
            c_path.write_text(json.dumps({"collaterals": rows}))
            code, out, _ = run(capsys, "verify", str(net_path), str(c_path))
            assert code == 0
            assert json.loads(out)["minimal"] is minimal

    @pytest.mark.parametrize("doc, path", [
        ({"collaterals": [{"enterprise": "A", "investor": "a1"}]}, "$.collaterals[0]"),
        ({"collaterals": {"A": "1"}}, "$.collaterals"),
        ({"collaterals": [{"enterprise": "A", "investor": "a1", "collateral": "0"},
                          {"enterprise": "A", "investor": "a2", "collateral": "-1"}]},
         "$.collaterals[1].collateral"),
        ({"collaterals": [{"enterprise": "A", "investor": "a1", "collateral": "1"},
                          {"enterprise": "A", "investor": "a1", "collateral": "0"}]},
         "$.collaterals[1]"),
        ({"rows": []}, "$"),
        ([], "$"),
    ], ids=["missing-collateral", "not-a-list", "negative", "duplicate-edge",
            "no-collaterals-key", "not-an-object"])
    def test_malformed_collaterals_rejected(self, capsys, cycle_path, tmp_path, doc, path):
        c_path = tmp_path / "bad.json"
        c_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", cycle_path, str(c_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: %s: " % path)

    @pytest.mark.parametrize("enterprise, investor, field", [
        (True, False, "enterprise"), (1, False, "investor"), (1.0, 0, "enterprise"),
    ], ids=["true", "false", "float"])
    def test_boolean_or_float_vertex_reference_rejected(self, capsys, tmp_path,
                                                         enterprise, investor, field):
        # true, false and 1.0 equal the ids 1, 0 and 1 as dict keys
        net_path = tmp_path / "net.json"
        save_network(InvestmentNetwork(2, [(1, 0, 3)], cost={1: 1}, rate={1: 1}), net_path)
        c_path, out_path = tmp_path / "c.json", tmp_path / "out.json"
        row = {"enterprise": enterprise, "investor": investor, "collateral": "0"}
        c_path.write_text(json.dumps({"collaterals": [row]}))
        code, out, err = run(capsys, "verify", str(net_path), str(c_path), "--out-file", str(out_path))
        assert code == 1
        assert out == "" and not out_path.exists()
        assert err.startswith("error: $.collaterals[0].%s: " % field)
        assert len(err.splitlines()) == 1

    def test_one_viability_run_per_verify(self, capsys, monkeypatch, cycle_path, tmp_path):
        # IESDS under the matrix gives the viable order, then one run per
        # positive collateral checks it at 0: nothing reruns the first run
        report_path = tmp_path / "sol.json"
        assert main(["solve", cycle_path, "--out-file", str(report_path)]) == 0
        positive = sum(row["collateral"] != "0"
                       for row in json.loads(report_path.read_text())["collaterals"])
        assert positive > 0
        calls = []
        eliminate = collat.analysis.eliminate
        monkeypatch.setattr(collat.analysis, "eliminate",
                            lambda *args: calls.append(args) or eliminate(*args))
        code, out, _ = run(capsys, "verify", cycle_path, str(report_path))
        assert (code, json.loads(out)["minimal"]) == (0, True)
        assert len(calls) == 1 + positive

    def test_collateral_above_its_amount_is_read_as_the_amount(self, capsys, cycle_path, tmp_path):
        solved = tmp_path / "sol.json"
        assert main(["solve", cycle_path, "--out-file", str(solved)]) == 0
        report = json.loads(solved.read_text())
        row = report["collaterals"][0]
        reports = []
        for times in (1, 10):
            row["collateral"] = str(times * Fraction(row["amount"]))
            solved.write_text(json.dumps(report))
            code, out, _ = run(capsys, "verify", cycle_path, str(solved))
            assert code == 0
            reports.append(json.loads(out))
            del reports[-1]["timing_seconds"]
        assert reports[0] == reports[1]
        net = load_network(cycle_path)
        assert loads_collaterals(net, solved.read_bytes()).amounts[0] is net.edges[0].amount

    def test_collateral_on_non_edge_rejected(self, capsys, cycle_path, tmp_path):
        c_path = tmp_path / "bad.json"
        c_path.write_text(
            json.dumps({"collaterals": [{"enterprise": "A", "investor": "b1", "collateral": "1"}]})
        )
        code, _, err = run(capsys, "verify", cycle_path, str(c_path))
        assert code == 1
        assert "non-edge" in err


class TestGen:
    def test_cycle_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "--k", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["k"] == 7
        assert len(doc["vertices"]) == 9

    def test_gen_then_solve(self, capsys, tmp_path):
        path = tmp_path / "rand.json"
        code, _, err = run(
            capsys, "gen", "random", "--n", "6", "--d", "2", "--acyclic",
            "--seed", "11", "--out-file", str(path),
        )
        assert code == 0 and "wrote" in err
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert json.loads(out)["nec"] == "1"

    def test_gen_knapsack(self, capsys):
        code, out, _ = run(capsys, "gen", "knapsack", "--xs", "3,2,2", "--t", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["xs"] == [3, 2, 2]
        assert len(doc["edges"]) == 4

    def test_gen_fvs(self, capsys):
        code, out, _ = run(capsys, "gen", "fvs", "--edges", "a-b,b-c,c-a")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 9

    def test_gen_determinism(self, capsys):
        _, first, _ = run(capsys, "gen", "random", "--n", "8", "--d", "3", "--seed", "5")
        _, second, _ = run(capsys, "gen", "random", "--n", "8", "--d", "3", "--seed", "5")
        assert first == second

    @pytest.mark.parametrize("argv, named", [
        (["cycle", "--k", "2"], ""),
        (["knapsack", "--xs", "1,2", "--t", "9"], ""),
        (["random", "--n", "4", "--d", "2", "--weights", "5,1"], ""),
        (["fvs", "--edges", "a"], ""),
        # documents `collat check` would reject, or a bare randrange error
        (["fvs", "--edges", "a-a,a-b,b-a"], "a-a is a self-loop"),
        (["fvs", "--edges", "a-b,a-b,b-a"], "a-b is repeated"),
        (["fvs", "--edges", "a-a_s1,a_s1-a"], "graph vertex a_s1 "),
        (["random", "--n", "4", "--d", "2", "--weights", "0,3", "--seed", "1"], "weight_range"),
        (["random", "--n", "4", "--d", "2", "--weights", "0,3", "--seed", "3"], "weight_range"),
        (["random", "--n", "4", "--d", "-1"], "max_out_degree"),
        # bare unpacking or int() errors that did not name the option
        (["random", "--n", "4", "--d", "2", "--weights", "5"], "--weights"),
        (["random", "--n", "4", "--d", "2", "--weights", "1,2,3"], "--weights"),
        (["random", "--n", "4", "--d", "2", "--weights", "a,b"], "--weights"),
        (["knapsack", "--xs", "1,,2", "--t", "2"], "--xs"),
        # documents outside the generators' domain, written without a word
        (["random", "--n", "-3", "--d", "2"], "n must be >= 0, got -3"),
        (["knapsack", "--xs", "3,2", "--t", "-1"], "t must be >= 0, got -1"),
        (["knapsack", "--xs", "0,2", "--t", "1"], "xs[0] = 0 must be positive"),
    ], ids=["cycle", "knapsack", "random", "fvs", "fvs-self-loop", "fvs-repeated-arc",
            "fvs-spike-name",
            "random-zero-weight", "random-zero-weight-no-cost", "random-negative-degree",
            "random-one-weight", "random-three-weights", "random-non-integer-weights",
            "knapsack-empty-item", "random-negative-n", "knapsack-negative-t",
            "knapsack-non-positive-item"])
    def test_invalid_parameters_are_one_line_errors(self, capsys, argv, named):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err
        assert len(err.strip().splitlines()) == 1


class TestParser:
    @pytest.mark.parametrize("argv, named", [
        (["solve"], "collat solve: "),
        (["solve", "{cycle}", "--out", "xml"], "collat solve: "),
        (["frobnicate", "{cycle}"], "'frobnicate'"),
        ([], "collat: "),
    ], ids=["no-network", "bad-out-choice", "unknown-subcommand", "no-arguments"])
    def test_usage_errors_are_one_line_errors(self, capsys, cycle_path, argv, named):
        # exit 2 is a negative verdict; a usage error is an operational one
        code, out, err = run(capsys, *[a.format(cycle=cycle_path) for a in argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err
        assert len(err.splitlines()) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: collat")

    def test_console_script_is_main(self):
        # the `collat` script an install writes calls this entry point
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"collat": "collat.cli:main"}
        module, _, name = scripts["collat"].partition(":")
        assert getattr(importlib.import_module(module), name) is main

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        run(capsys, "gen", "cycle", "--k", "2")
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        code, out, _ = run(capsys, "gen", "cycle", "--k", "3")
        assert code == 0 and json.loads(out)["meta"]["k"] == 3
        assert built == []

    def test_nothing_leaks_between_calls(self, capsys, cycle_path, tmp_path):
        code, out, _ = run(capsys, "solve", cycle_path, "--out", "csv")
        assert code == 0 and out.startswith("enterprise,investor,amount,collateral")
        code, out, _ = run(capsys, "solve", cycle_path)
        assert code == 0 and json.loads(out)["command"] == "solve"

        report_path = tmp_path / "sol.json"
        assert main(["solve", cycle_path, "--out-file", str(report_path)]) == 0
        run(capsys, "solve", cycle_path, "--out", "csv")
        code, out, _ = run(capsys, "verify", cycle_path, str(report_path))
        assert code == 0
        assert {"command": "verify", "status": "viable", "minimal": True}.items() <= json.loads(out).items()

        _, seeded, _ = run(capsys, "gen", "random", "--n", "5", "--d", "2", "--seed", "3")
        _, unseeded, _ = run(capsys, "gen", "random", "--n", "5", "--d", "2")
        _, zero, _ = run(capsys, "gen", "random", "--n", "5", "--d", "2", "--seed", "0")
        assert unseeded == zero != seeded


def _stdlib_text(path):
    with open(path) as handle:
        return json.dumps(json.load(handle), indent=2, sort_keys=True) + "\n"


class TestWrittenBytes:
    """Every report and generated document has the bytes of
    `json.dumps(indent=2, sort_keys=True)` and a final newline."""

    @pytest.mark.parametrize("command, feasible", [
        ("check", True), ("check", False), ("solve", True), ("solve", False),
        ("verify", True), ("verify", False),
    ], ids=["check-solvable", "check-infeasible", "solve-solved", "solve-infeasible",
            "verify-viable", "verify-not-viable"])
    def test_reports(self, capsys, tmp_path, cycle_path, command, feasible):
        # the spikeless two-cycle is infeasible; zero collaterals on the
        # cycle family are not viable
        path = cycle_path if feasible or command == "verify" else tmp_path / "two.json"
        if path != cycle_path:
            save_network(InvestmentNetwork(2, [(0, 1, 2), (1, 0, 2)], cost={0: 1, 1: 1},
                                           rate={0: 1, 1: 1}, ids=["P", "Q"]), path)
        argv = [command, str(path)]
        if command == "verify":
            c_path = tmp_path / "c.json"
            main(["solve", cycle_path, "--out-file", str(c_path)])
            if not feasible:
                rows = json.loads(c_path.read_text())["collaterals"]
                c_path.write_text(json.dumps({"collaterals": [dict(r, collateral="0") for r in rows]}))
            argv.append(str(c_path))
        out_path = tmp_path / "report.json"
        code = main(argv + ["--out-file", str(out_path)])
        assert code == (0 if feasible else 2)
        assert out_path.read_text() == _stdlib_text(out_path)

    @pytest.mark.parametrize("argv", [
        ["cycle", "--k", "4"], ["random", "--n", "9", "--d", "3", "--seed", "2"],
        ["random", "--n", "8", "--d", "3", "--acyclic", "--large-alpha"],
        ["knapsack", "--xs", "3,5,7", "--t", "4"], ["fvs", "--edges", "a-b,b-c,c-a,c-d,d-c"],
    ], ids=["cycle", "random", "random-acyclic-large-alpha", "knapsack", "fvs"])
    def test_generated_documents(self, capsys, tmp_path, argv):
        out_path = tmp_path / "doc.json"
        assert main(["gen"] + argv + ["--out-file", str(out_path)]) == 0
        assert out_path.read_text() == _stdlib_text(out_path)


class TestOneRead:
    def test_each_op_opens_the_network_file_once(self, capsys, monkeypatch, cycle_path, tmp_path):
        report_path = tmp_path / "sol.json"
        assert main(["solve", cycle_path, "--out-file", str(report_path)]) == 0
        opened = []
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open",
                            lambda file, *a, **k: opened.append(os.fspath(file)) or real_open(file, *a, **k))
        for argv in (["solve", cycle_path], ["verify", cycle_path, str(report_path)]):
            opened.clear()
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert opened.count(cycle_path) == 1


_UNREADABLE = {
    "utf-16-garbage": b"\xff\xfe\x00{",
    "latin-1-id": (b'{"version": 1, "vertices": [{"id": "\xe9", "z": "1", "alpha": "2"}, {"id": "p"}],'
                   b' "edges": [{"enterprise": "\xe9", "investor": "p", "amount": "2"}]}'),
    "over-deep": b"[" * 100_000 + b"]" * 100_000,
}


class TestUnreadableInput:
    """Undecodable or too-deeply nested input is one `error:` line."""

    @staticmethod
    def _one_line_error(capsys, argv, out_path):
        code, out, err = run(capsys, *argv, "--out-file", str(out_path))
        assert code == 1
        assert out == "" and not out_path.exists()
        assert err.startswith("error: $: invalid JSON: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", sorted(_UNREADABLE))
    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_network_file(self, capsys, tmp_path, cycle_path, command, kind):
        path = tmp_path / "bad.json"
        path.write_bytes(_UNREADABLE[kind])
        argv = [command, str(path)] + ([cycle_path] if command == "verify" else [])
        self._one_line_error(capsys, argv, tmp_path / "out.json")

    @pytest.mark.parametrize("kind", sorted(_UNREADABLE))
    def test_collateral_file(self, capsys, tmp_path, cycle_path, kind):
        path = tmp_path / "bad.json"
        path.write_bytes(_UNREADABLE[kind].replace(b'"version": 1', b'"collaterals": []'))
        self._one_line_error(capsys, ["verify", cycle_path, str(path)], tmp_path / "out.json")

    @pytest.mark.parametrize("first", ["1", 1])
    def test_collateral_true_after_one(self, capsys, tmp_path, cycle_path, first):
        rows = [{"enterprise": "A", "investor": "a1", "collateral": first},
                {"enterprise": "A", "investor": "a2", "collateral": True}]
        c_path = tmp_path / "c.json"
        c_path.write_text(json.dumps({"collaterals": rows}))
        code, out, err = run(capsys, "verify", cycle_path, str(c_path))
        assert (code, out) == (1, "")
        assert err == "error: $.collaterals[1].collateral: expected a rational, got a boolean\n"


# the ids 1 and "1" are distinct values, but a report keys enterprises by
# str(id): both stars' optima would share the key "1"
_COLLIDING_IDS = {
    "version": 1,
    "vertices": [{"id": 1, "z": "4", "alpha": "2"}, {"id": "1", "z": "7", "alpha": "3"},
                 {"id": "a"}, {"id": "b"}, {"id": "c"}, {"id": "d"}],
    "edges": [{"enterprise": 1, "investor": "a", "amount": "3"},
              {"enterprise": 1, "investor": "b", "amount": "3"},
              {"enterprise": "1", "investor": "c", "amount": "5"},
              {"enterprise": "1", "investor": "d", "amount": "5"}],
}


def _two_stars(a, b):
    """Stars E and F, each two investors of amount `a` (`b`) and cost the same."""
    return {
        "version": 1,
        "vertices": [{"id": "E", "z": a, "alpha": "3"}, {"id": "F", "z": b, "alpha": "3"},
                     {"id": "a"}, {"id": "b"}, {"id": "c"}, {"id": "d"}],
        "edges": [{"enterprise": "E", "investor": "a", "amount": a},
                  {"enterprise": "E", "investor": "b", "amount": a},
                  {"enterprise": "F", "investor": "c", "amount": b},
                  {"enterprise": "F", "investor": "d", "amount": b}],
    }


# every value has at most 3,495 digits, but the total's denominator,
# 3^5000 * 5^5000, has 5,881
_LONG_RESULT = _two_stars("1/%d" % 3 ** 5000, "1/%d" % 5 ** 5000)


class TestUnreportable:
    """A network whose report would lose entries or hold a rational too long
    to write is one `error:` line, and nothing is written."""

    @staticmethod
    def _one_line_error(capsys, tmp_path, argv, to_file, message):
        target = tmp_path / "report.out"
        code, out, err = run(capsys, *argv, *(["--out-file", str(target)] if to_file else []))
        assert (code, out, err) == (1, "", "error: %s\n" % message)
        assert not target.exists()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    @pytest.mark.parametrize("command", ["check", "solve", "verify"])
    def test_ids_equal_as_strings(self, capsys, tmp_path, command, to_file):
        net_path, c_path = tmp_path / "net.json", tmp_path / "c.json"
        net_path.write_text(json.dumps(_COLLIDING_IDS))
        c_path.write_text(json.dumps({"collaterals": []}))
        argv = [command, str(net_path)] + ([str(c_path)] if command == "verify" else [])
        self._one_line_error(capsys, tmp_path, argv, to_file,
                             "$: vertices 0 and 1: ids 1 and '1' are equal as strings")

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    @pytest.mark.parametrize("argv", [["solve"], ["solve", "--out", "csv"], ["verify"]],
                             ids=["solve", "solve-csv", "verify"])
    def test_result_too_long_to_write(self, capsys, tmp_path, argv, to_file):
        net_path, c_path = tmp_path / "net.json", tmp_path / "c.json"
        net_path.write_text(json.dumps(_LONG_RESULT))
        assert run(capsys, "check", str(net_path))[0] == 0
        # every collateral at its amount: viable, with the same long total
        c_path.write_text(json.dumps({"collaterals": [
            dict(e, collateral=e["amount"]) for e in _LONG_RESULT["edges"]]}))
        command, *options = argv
        argv = [command, str(net_path)] + ([str(c_path)] if command == "verify" else []) + options
        self._one_line_error(capsys, tmp_path, argv, to_file,
                             "a rational of more than 4300 digits is too long to write")

    def test_result_beyond_a_float_is_written(self, capsys, tmp_path):
        # the total 2e400 has no float for the stderr hint, but is written exactly
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(_two_stars("1e400", "1e400")))
        code, out, err = run(capsys, "solve", str(net_path))
        assert code == 0
        assert json.loads(out)["total"] == str(2 * 10 ** 400)
        assert "(~2.00000e+400)" in err

    def test_unprofitable_with_terms_too_long_to_write(self, capsys, tmp_path):
        # the total opportunity 1/3^5000 + 1/7^3000 has a 4,921-digit denominator
        doc = _two_stars("1/%d" % 3 ** 5000, "1")
        doc["edges"][1]["amount"] = "1/%d" % 7 ** 3000
        doc["vertices"][0]["alpha"] = "1/1000"
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (1, "")
        assert err == "error: $: enterprise 0: unprofitable (its terms are too long to write)\n"

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_exponent_beyond_the_digit_bound(self, capsys, tmp_path, to_file):
        # 1e5000 has 5,001 digits
        doc = _two_stars("1", "1")
        doc["edges"][0]["amount"] = "1e5000"
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(doc))
        self._one_line_error(capsys, tmp_path, ["solve", str(net_path)], to_file,
                             "$.edges[0].amount: rational has more than 4300 digits")

    def test_exponent_is_rejected_before_its_power_is_built(self, tmp_path):
        # Fraction("1e100000000") builds a 100-million-digit integer
        doc = _two_stars("1", "1")
        doc["edges"][0]["amount"] = "1e100000000"
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "collat.cli", "check", str(path)],
                              capture_output=True, text=True, env=env, timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: $.edges[0].amount: rational has more than 4300 digits\n"


def _mixed_ids_net(seed):
    """A seeded random network with int and string ids, its amounts and
    costs rescaled by a random rational so that most values are "p/q"."""
    rng = random.Random(seed)
    base = random_network(rng.randint(2, 8), 3, acyclic=rng.random() < 0.5, seed=seed)
    scale = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    ids = [rng.choice([v, "v%d" % v, "%d " % v, "é/%d" % v]) for v in range(base.n)]
    edges = [(e.enterprise, e.investor, e.amount * scale) for e in base.edges]
    return InvestmentNetwork(base.n, edges, cost=[z * scale for z in base.cost], rate=base.rate,
                             ids=ids)


class TestWrittenRowsReadBack:
    """What `collat solve` writes, `collat verify` reads back: a report's
    rows parse to the matrix they were built from, and each edge reference
    names the edge it was built from."""

    @pytest.mark.parametrize("seed", range(30))
    def test_collateral_rows(self, seed):
        net = _mixed_ids_net(seed)
        rng = random.Random(seed)
        refs = edge_refs(net)
        for _ in range(5):
            c = CollateralMatrix(net, [e.amount * Fraction(rng.randint(0, 6), rng.randint(1, 6))
                                       for e in net.edges])
            rows = collateral_rows(net, refs, c.amounts)
            assert [Fraction(row["amount"]) for row in rows] == [e.amount for e in net.edges]
            rng.shuffle(rows)  # a row names its edge by reference, not by position
            assert loads_collaterals(net, dumps_document({"collaterals": rows}).encode()) == c

    @pytest.mark.parametrize("seed", range(30))
    def test_report_references(self, capsys, tmp_path, seed):
        net = _mixed_ids_net(seed)
        names = [(net.ids[e.enterprise], net.ids[e.investor]) for e in net.edges]
        net_path, zeros_path = tmp_path / "net.json", tmp_path / "zeros.json"
        save_network(net, net_path)
        zeros_path.write_text(json.dumps({"collaterals": []}))
        sol = solve(net)
        code, out, _ = run(capsys, "solve", str(net_path))
        assert code == (0 if sol.status is Status.SOLVED else 2)
        if code == 0:
            report = json.loads(out)
            assert [(ref["enterprise"], ref["investor"]) for ref in report["elimination_order"]] \
                == [names[e] for e in sol.order]
            assert loads_collaterals(net, out.encode()) == CollateralMatrix(net, sol.collaterals)
        _, stuck = iterated_elimination(net, CollateralMatrix.zeros(net))
        code, out, _ = run(capsys, "verify", str(net_path), str(zeros_path))
        assert code == (2 if stuck else 0)
        if stuck:
            assert [(ref["enterprise"], ref["investor"]) for ref in json.loads(out)["stuck_edges"]] \
                == [names[e] for e in sorted(stuck)]


def _document(enterprises, investors, edges):
    """The network of a document with enterprises (id, z, alpha), then
    plain investors, and edges (enterprise, investor, amount)."""
    return parse_document({
        "version": 1,
        "vertices": ([{"id": v, "z": z, "alpha": a} for v, z, a in enterprises]
                     + [{"id": v} for v in investors]),
        "edges": [{"enterprise": k, "investor": i, "amount": x} for k, i, x in edges],
    })


def _divided_by_7(net):
    """`net` with its amounts and costs divided by 7: its values are "p/q"."""
    return InvestmentNetwork(net.n, [(e.enterprise, e.investor, e.amount / 7) for e in net.edges],
                             cost=[z / 7 for z in net.cost], rate=net.rate)


def _tie_nets():
    """(name, network) for each network whose reports `TestTieChoice`
    freezes: the cycle family, the 22-edge spiked cycle, the 37-edge
    large-alpha component and the same divided by 7, two wide acyclic
    networks, two hand-written ones and eight seeded cyclic random networks
    with a positive optimum, every other one divided by 7.

    wide (113 edges) and deep (108 edges, a 14-player star with partial
    collaterals) are acyclic, so `collat verify` runs star by star.
    escaped holds a 2-cycle and ids that every report string must escape:
    a quote, a backslash, non-ASCII letters, a tab, }{][,: and an integer.
    mixed is a 2-cycle A <-> B between stars D and E, where D invests in E
    and E in A, and a star U that A invests in, with "p/q" amounts."""
    yield "cycle3", gen_cycle_family(3)
    yield "cycle5", gen_cycle_family(5)
    yield "spiked22", spiked_22()
    big = random_network(20, 3, seed=4, large_alpha=True)
    yield "big", big
    yield "big7", _divided_by_7(big)
    yield "wide", random_network(40, 6, acyclic=True, seed=4)
    yield "deep", random_network(20, 14, acyclic=True, seed=5)
    q, b, t = 'say "hi"', "back\\slash é", "tab\there }{][,:"
    yield "escaped", _document(
        [(q, "2", "2"), (b, "2", "2"), (t, "3", "2")], [7, "ñ", "x"],
        [(q, b, "1"), (q, 7, "2"), (b, q, "1"), (b, "ñ", "2"), (t, 7, "2"), (t, "x", "3")])
    yield "mixed", _document(
        [("A", "3", "3"), ("B", "2", "2"), ("D", "3", "7/2"), ("E", "5/2", "5"),
         ("U", "5/2", "2")],
        ["a", "b", "d1", "d2", "e", "u1", "u2"],
        [("D", "d1", "3/2"), ("D", "d2", "5/2"), ("E", "D", "1"), ("E", "e", "2"),
         ("A", "B", "1"), ("B", "A", "1"), ("A", "a", "2"), ("B", "b", "2"),
         ("A", "E", "3/2"), ("U", "A", "1"), ("U", "u1", "3"), ("U", "u2", "1/2")])
    found, seed = 0, 0
    while found < 8:
        seed += 1
        net = random_network(5 + seed % 4, 3, seed=seed)
        if is_acyclic(net) or not solve(net).total:  # infeasible or free
            continue
        name = "random%d" % seed
        if found % 2:
            name += "/7"
            net = _divided_by_7(net)
        found += 1
        yield name, net


def _written(path):
    """The JSON at `path`, which must have the bytes of
    `json.dumps(indent=2, sort_keys=True)` and a final newline."""
    text = Path(path).read_text()
    assert text == _stdlib_text(path), path
    return json.loads(text)


def _report_digest(report):
    """SHA-256 of `report` without its `timing_seconds`."""
    report = dict(report)
    del report["timing_seconds"]
    return hashlib.sha256((json.dumps(report, indent=2, sort_keys=True) + "\n").encode()).hexdigest()


def _edit(solved, edited, pick, change):
    """Write to `edited` solve's report at `solved` with its first row whose
    (collateral, amount) `pick` accepts set to `change` of them."""
    report = json.loads(Path(solved).read_text())
    row = next(r for r in report["collaterals"]
               if pick(Fraction(r["collateral"]), Fraction(r["amount"])))
    row["collateral"] = str(change(Fraction(row["collateral"]), Fraction(row["amount"])))
    Path(edited).write_text(json.dumps(report))


def _tie_digests(tmp_path):
    """name -> the `_report_digest`s of `collat solve`, `collat verify` of
    its report, `collat verify` of a copy with the first positive
    collateral halved, and of a copy with the first collateral below its
    amount raised halfway towards it.

    Each run's exit code, verdict and bytes are checked on the way: the
    report is viable and minimal; the halved copy is not viable, and its
    stuck edges are those `model.eliminate` leaves from the empty set; the
    raised copy is viable but not minimal.  Dividing big's amounts and
    costs by 7 divides its total by 7 and keeps its NEC."""
    net_path, solved, edited, out = (str(tmp_path / name) for name in
                                     ("net.json", "solve.json", "edited.json", "out.json"))
    digests, totals, stuck = {}, {}, {}
    for name, net in _tie_nets():
        save_network(net, net_path)
        _written(net_path)
        assert main(["solve", net_path, "--out-file", solved]) == 0
        report = _written(solved)
        totals[name] = Fraction(report["total"]), report["nec"]
        assert main(["verify", net_path, solved, "--out-file", out]) == 0
        verdict = _written(out)
        assert (verdict["status"], verdict["minimal"]) == ("viable", True)
        digests[name] = [_report_digest(report), _report_digest(verdict)]

        _edit(solved, edited, lambda c, x: c > 0, lambda c, x: c / 2)
        assert main(["verify", net_path, edited, "--out-file", out]) == 2
        verdict = _written(out)
        assert verdict["status"] == "not-viable"
        c = loads_collaterals(net, Path(edited).read_bytes())
        refs = edge_refs(net)
        needs = collat.model.eliminate(net, c.on_scale)[3]
        stuck[name] = [refs[e] for e in sorted(needs)]
        assert verdict["stuck_edges"] == stuck[name]
        digests[name].append(_report_digest(verdict))

        _edit(solved, edited, lambda c, x: c < x, lambda c, x: (c + x) / 2)
        assert main(["verify", net_path, edited, "--out-file", out]) == 0
        verdict = _written(out)
        assert (verdict["status"], verdict["minimal"]) == ("viable", False)
        digests[name].append(_report_digest(verdict))
    assert len(stuck["mixed"]) > 2
    (big, nec), (big7, nec7) = totals["big"], totals["big7"]
    assert (big7, nec7) == (big / 7, nec)
    return digests


# `_tie_digests`, frozen: a change that moves the search's tie choice on
# purpose updates this table and says why
TIE_DIGESTS = {
    'cycle3': [
        '2f13ba98b4dc166fdbc0a24f41a0f933f11b6768548c62cb5edb1b7d7c9bc513',
        'fb86632d523d902e1264f833abfde7407cb515c130dd2a4f86b93110e408008c',
        '80bb58188c5df4feb29622c63b5bfa0d1bafa1a49f19a2bd94d855c4279ee18f',
        'ad99d89ff32b71d0110cc350554578ea1d9184c5a7044fc53913b6bb2a64a571',
    ],
    'cycle5': [
        '0db3e4ff6b713edd674c8174e599f545b83fe4a63d53b16f81456a2c97b92788',
        'd724547f030841f50326016a7e5fd21180ac24ef81204034737bced5fe7a11d3',
        '95b87f0ebdbc33d578c799194ce4fb85a131157815475b933978f8aafc150711',
        'd09de49bcbac0f2c65da2f464de2e5d26db7d4a7ca23c586c23a929036bb751c',
    ],
    'spiked22': [
        '7e48128a8ce3d00bd1023690ac41d6272e8cf011a6f29361928ca2de208c3645',
        'edbdbd752d1a8ca0c0ac4358f3223800c06c06d94afd22bd87c0a9d8227684df',
        'c67a0e040e6b5a5cdad81fab50289f41fe8095c94b72d8c2d436057ac928b813',
        'bcaf282db9abeee0718cfbc9c806aa5c1da39f1bfea0e4d89696446589939d7c',
    ],
    'big': [
        '7145ab3df0f0e4d3ab480f746baa207d112cc449f20f5e7da2f944d8311b914d',
        '9b5b6bcddebcb5c1c6a08c88ed85afed4a8c8f8ae32d880088f208b922d07d2b',
        '41384eadfcb25293fd7770a9a4c00096937ac12fbc7acf88947e0c01736abfbf',
        'cc54f934bf927d8a487ca12136ba3bc76fec60f29898290e7e7e1ee5249f1b50',
    ],
    'big7': [
        '8e4d23d3906ad6abda862866bc3b5837c2582977b5387a5364c509570efce8fb',
        '319f9a9d5bdf4a8659243630456d44cf998cb9c30503e46a1508258abc081ca9',
        'fe11717c470c2eb363014a753f1ba0dad9111b1887388d4cd4f9b454eead2e2b',
        '100c8b27d9f190c331accfeaeb4790d10d327424d8f0d810cfefbf32d025e1b1',
    ],
    'wide': [
        '399259d8c3010f157336f9b27d8e87aa7fa79b5a0ef066b7eaff3ddb62835dc7',
        'e1abe6299c31cd6c1703118e8a7a7da18777d9aca7e7f9c6137feb5046b9a214',
        'd9c14e930707a2bdb275982b5bfb182372c014e3079dbd0e9a0d3239f62a289f',
        '75457bdbe2c825d7fe04b62096b910017c9451557f696c0303fd8da417569764',
    ],
    'deep': [
        '5b1a04154bff46c254ac1e32e09d7e4d856047bd50d1fd6abda1bdd8571dcf2b',
        'ec1c1b037905de767b17ad35bf3174964834c3285a30c18a131ba89e57f0c2da',
        'fb1ac422d51179e162b328ef06a6ff0277889958c52a23207d24afda22f25244',
        'e21e82fb6608e62795bd27b10b4f9560c268f8e742b6bd01a130cc9db70b45f8',
    ],
    'escaped': [
        '2f8ee90cc1091e559dcfb04e79ad06ba4ee3b5c8616a1a13bca3f74be5d49f3f',
        '99f42ce40ec7085bb796c2dfe37d5345ec2c3b1cf6da9c5588ca22781ca3688d',
        'aa70b9b2083dc1dfcde19127111ba38117284974e04b86d68de80ac9cb58283f',
        '216f6e0062f7ad80f4437f4f286242047009b743874f92003b0356505387afe4',
    ],
    'mixed': [
        '4393cdd64ae615f0c66a6a64167d340e2f2fe0f0d00f683ee99cee638f516048',
        'dc0e4b87dc19f89b795e1f58d9bcec1874cb76905afe2612079fdd886ca419e0',
        '0a71c90e2d91626058c6745f83c204659817e1ead8efc49cf38b45599e38725f',
        'd0ce2308e242184167c1b09b2ff7d5ece4312c5989ddb54f116c83e3b521e1c8',
    ],
    'random2': [
        '68e3de2fa4436c45e8df03670219816133c1ac92e2ce2f83d6ea6cf2cb6d68d3',
        '869e8ae1c3a0d44a8e42c49951fc272c0cc79f9e3f523046e5fd8c6818065156',
        'bf96dd9f2e0a8b2b75bc141d65d30e93f9890b29532b75a30fd80f29fe093717',
        '58648281e8768d44ed5be46084f04954b9e3cd8fade70c34393f1728c737a62c',
    ],
    'random4/7': [
        '8d1a1809daec508b74517f64ef2b198d821d3d6cbd734b4841c2d114b3c833b6',
        '930121f2f8b63ca29bc586ef71c0b8d1a00830c401b68446bd21ac6fec349a28',
        'ba482824daf69a6a0d70d814b7fd15be849943c6324ab5aa62e56cc57b7cde8c',
        'e5b6249b12e510ebe84f7b69435e186594ad61ee507e8f51f18494d878695822',
    ],
    'random6': [
        'a26fcc99678c8b30d8f4a98124370fe821b696f15dc2c533c383e4d64faea732',
        '3c88b1cc5a21f5c908feb0154225f5bc56b4a3fc569f1401dd32fbd31d87220b',
        'ce3f2247d7c65f8745c493b99489d36b7c024241e2de7c5d4b16ce05009f86f9',
        'f6667a5cfd58d01fa42b994310e38bde7f288efb78a1912b428412979c630f60',
    ],
    'random7/7': [
        '6d5a40f2a2f080a7e2be9618e337915a2ec691101d2a4b210193166cb6968d2a',
        '7d30d102a287ab9cf6f7872f50da8770e63b6919373d82cc48bc4c8d384c8bc1',
        'f32b88c8411c244feef48abcdcc1d6cd1c4557d6d48d617cb703d92485f2cc10',
        '37e3cee4922cfba2ad92c5e6da8d2854af7fc48897e824fac29728a6f81ae59c',
    ],
    'random8': [
        'ab77955cccf7090c2a1a44c393a7082f58d8d476592bc672d095f97ea49e6f4e',
        'f4b41a80c8d8506f84effc98f5b30b7857eeff323a5b6170975defcccbe2b920',
        '74c930b120b06fcc2a3337d75f6132afb38e1501a34124c34e555ff61e6215e8',
        '4ed5c5bdec11c1c27b0fae9996fb744913b529d28cf3b1b06b3d87b1ac1f6282',
    ],
    'random17/7': [
        '38ffc05cd925a9f2e79d21650b50a5d9ac9c2a26b6e4f2a37f796519647af828',
        'eb9a52c4a6cac6fa1802408d070e715573a78cc9c0788f0cc09986c3946b37f7',
        '778094aba17241687f01955d0cc90450f7465edf1984180fc6e4c5258a1fef0c',
        'a86db4d34e940a0781bde4a6f6d937a5f022ad8df3fd93c1e63cd1be0a7ed0f1',
    ],
    'random19': [
        '1ea19d0d5b14bdced68e2c86e0506187326b00e164bc1854cbb9a54b8655a24c',
        '79e772acf1682ee75154546c74c87354008ec533fef38b0a0ecc519bc4c16ed1',
        'bcddbd8ff63beaaaa501a640d1a5a0ac4db474b74991f59c960ac6ebad65b95d',
        '062d9c84ad1546047ec0222cc56566c256155360c96dff0fedec07c2673c5191',
    ],
    'random23/7': [
        'b00cf872f4fe54467a6a9f2616dfbb2f80dd9dd13d1ba782e2277749d041baef',
        'd74dd047f9e613a962eda930035aeb356fdf8a79dc9cf6c6d1133eaf2687256a',
        'c97b183b25098b59f4407f77ea938af54c8ebc7d335f9335bbabeced57e5d75e',
        '78dc7adead9fd1b69572a4089380d19af70b6c6b790774196034e489a13d8607',
    ],
}


class TestTieChoice:
    """The catalog freezes a solve's status, total and NEC; this freezes
    which optimal matrix and elimination order `collat solve` returns among
    the optimal ones, and what `collat verify` reports on it and on two
    edited copies, one not viable and one not minimal."""

    def test_reports_match_the_frozen_digests(self, tmp_path):
        assert _tie_digests(tmp_path) == TIE_DIGESTS
