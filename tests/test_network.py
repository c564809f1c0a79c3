import dataclasses
import heapq
import math
import random
import re
import time
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collat import (
    CollateralMatrix,
    CyclicInputError,
    InvestmentNetwork,
    Status,
    TooLargeError,
    gen_cycle_family,
    default_determination,
    edge_need,
    enterprise_return,
    is_large_alpha,
    is_minimal,
    is_viable,
    random_network,
    solvability_check,
    solve,
    solve_dag,
    solve_exact,
    solve_large_alpha,
    solve_star,
    star_decomposition,
    validate_network,
)
from collat import model, network
from collat import star as star_module
from collat.model import ZERO, cascade, eliminate
from collat.network import is_acyclic
from collat.star import STATE_GUARD
from helpers import (
    assert_minimal,
    assert_valid_elimination_order,
    least_zero_full_total,
    spiked_22,
)


@pytest.fixture
def chain_net():
    # s --2--> P --2--> Q <--1-- t : P both runs an enterprise and invests in Q
    return InvestmentNetwork(
        4,
        [(1, 0, 2), (1, 3, 1), (0, 2, 2)],
        cost={0: 1, 1: 2},
        rate={0: 1, 1: 2},
    )


@pytest.fixture
def spiked_cycle_net():
    # P <-> Q cycle, each with a weight-2 spike; fractional-free but not
    # in the large-rate regime (rate == cost)
    return InvestmentNetwork(
        4,
        [(0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 3, 2)],
        cost={0: 2, 1: 2},
        rate={0: 2, 1: 2},
    )


class TestStarDecomposition:
    def test_cycle_family_stars(self):
        net = gen_cycle_family(7)
        stars = star_decomposition(net)
        assert len(stars) == 3
        for k, star, edge_ids in stars:
            assert sorted(star.amounts) == [1, 1, 7]
            assert star.cost == 8 and star.rate == 14
            assert [net.edges[e].enterprise for e in edge_ids] == [k] * 3

    def test_shared_investor_appears_in_both_stars(self, chain_net):
        stars = star_decomposition(chain_net)
        investors = {
            k: {chain_net.edges[e].investor for e in ids} for k, _, ids in stars
        }
        assert 0 in investors[1] and investors[0] == {2}


class TestSolveDag:
    def test_chain_network(self, chain_net):
        sol = solve_dag(chain_net)
        assert sol.status is Status.SOLVED
        assert sol.total == 1
        assert sol.nec == 1
        assert sol.star_optima == {0: 0, 1: 1}
        assert sol.star_totals == {0: 0, 1: 1}
        assert_valid_elimination_order(chain_net, sol.collaterals, list(sol.order))

    def test_rejects_cycles(self, spiked_cycle_net):
        with pytest.raises(CyclicInputError):
            solve_dag(spiked_cycle_net)

    def test_matches_exact_solver_on_random_dags(self):
        rng = random.Random(101)
        done = 0
        while done < 20:
            net = random_network(
                rng.randint(3, 7), 3, acyclic=True, seed=rng.randint(0, 10**6)
            )
            if not 0 < len(net.edges) <= 12:
                continue
            done += 1
            sol = solve_dag(net)
            assert sol.total == solve_exact(net).total
            assert sol.nec == 1
            assert is_viable(net, sol.collaterals)

    def test_is_solve_labelled_dag(self):
        rng = random.Random(211)
        for trial in range(30):
            net = random_network(rng.randint(2, 8), 3, acyclic=True, seed=rng.randint(0, 10**6))
            sol, ref = solve_dag(net), solve(net)
            assert sol.method == "dag"
            assert dataclasses.replace(sol, method=ref.method) == ref


def _need_at(net, resolved, edge):
    """`edge_need` with the edges in `resolved` (any iterable) and `edge`
    cooperating."""
    cooperate = 1 << edge
    for e in resolved:
        cooperate |= 1 << e
    return edge_need(net, cooperate, cascade(net, cooperate), edge)


class TestEdgeNeed:
    """The least collateral an edge needs once a set is resolved: the
    `edge_need` kernel."""

    def test_first_mover_pays_full_shortfall(self):
        net = InvestmentNetwork(3, [(0, 1, 1), (0, 2, 1)], cost={0: 1}, rate={0: 1})
        assert _need_at(net, frozenset(), 0) == 1

    def test_second_mover_free(self):
        net = InvestmentNetwork(3, [(0, 1, 1), (0, 2, 1)], cost={0: 1}, rate={0: 1})
        assert _need_at(net, frozenset({1}), 0) == 0

    def test_defaulting_investor_is_hopeless(self):
        net = InvestmentNetwork(
            4,
            [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 0, 1)],
            cost={0: 2, 1: 2},
            rate={0: 2, 1: 2},
        )
        # P's investment in Q: P is underfunded and defaults regardless
        assert _need_at(net, frozenset(), 3) is None

    def test_depends_on_set_not_order(self):
        rng = random.Random(103)
        for trial in range(20):
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            edges = list(net.all_edges())
            if len(edges) < 2:
                continue
            e = rng.choice(edges)
            rest = [x for x in edges if x != e]
            resolved = [x for x in rest if rng.random() < 0.5]
            rng.shuffle(resolved)
            a = _need_at(net, resolved, e)
            b = _need_at(net, sorted(resolved), e)
            assert a == b
            # against the definitional cascade and return
            state = default_determination(net, frozenset(resolved) | {e})
            if net.edges[e].investor in state.defaulted:
                assert a is None
            else:
                r = Fraction(0)
                if net.edges[e].enterprise not in state.defaulted:
                    r = enterprise_return(net, state.invest, e)
                assert a == max(Fraction(0), net.edges[e].amount - r)


class TestSolveExact:
    def test_cycle_family_totals(self):
        for k in (3, 7):
            net = gen_cycle_family(k)
            sol = solve_exact(net)
            assert sol.status is Status.SOLVED
            assert sol.total == k + 5
            assert sorted(sol.star_totals.values()) == [2, 2, k + 1]
            assert sum(sol.star_optima.values()) == 6
            assert sol.nec == Fraction(k + 5, 6)
            assert is_viable(net, sol.collaterals)
            assert_valid_elimination_order(net, sol.collaterals, list(sol.order))

    def test_spiked_cycle(self, spiked_cycle_net):
        sol = solve_exact(spiked_cycle_net)
        assert sol.status is Status.SOLVED
        assert is_viable(spiked_cycle_net, sol.collaterals)
        assert_minimal(spiked_cycle_net, sol.collaterals, is_viable)

    def test_infeasible_two_cycle(self):
        net = InvestmentNetwork(
            2, [(0, 1, 1), (1, 0, 1)], cost={0: 1, 1: 1}, rate={0: 5, 1: 5}
        )
        for oracle in (solve_exact, solve_large_alpha):
            sol = oracle(net)
            assert sol.status is Status.INFEASIBLE
            assert sol.method == "none"  # as `solve` labels it
            assert sol.witness.vertices == {0, 1}
            assert sol.collaterals is None and sol.nec is None

    def test_size_guard(self):
        edges = [(0, i + 1, 1) for i in range(21)]
        net = InvestmentNetwork(22, edges, cost={0: 1}, rate={0: 1})
        with pytest.raises(TooLargeError):
            solve_exact(net)

    def test_outputs_minimal_on_random_networks(self):
        rng = random.Random(107)
        done = 0
        while done < 15:
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            if not 0 < len(net.edges) <= 10 or not solvability_check(net).solvable:
                continue
            done += 1
            sol = solve_exact(net)
            assert is_viable(net, sol.collaterals)
            assert_minimal(net, sol.collaterals, is_viable)
            assert sol.total == sol.collaterals.total()


class TestSolveLargeAlpha:
    def test_cycle_family_matches_exact(self):
        for k in (3, 7):
            net = gen_cycle_family(k)
            sol = solve_large_alpha(net)
            assert sol.total == k + 5
            assert sol.total == least_zero_full_total(net)
            for e, amount in enumerate(sol.collaterals.amounts):
                assert amount in (0, net.edges[e].amount)

    def test_rejects_other_regimes(self, spiked_cycle_net):
        with pytest.raises(ValueError):
            solve_large_alpha(spiked_cycle_net)

    def test_matches_exact_on_random_instances(self):
        rng = random.Random(109)
        done = 0
        while done < 10:
            net = random_network(
                rng.randint(3, 6), 3, large_alpha=True, seed=rng.randint(0, 10**6)
            )
            if not 0 < len(net.edges) <= 10 or not solvability_check(net).solvable:
                continue
            done += 1
            assert solve_large_alpha(net).total == least_zero_full_total(net)


class TestNec:
    def test_cycle_premium(self):
        net = gen_cycle_family(13)
        sol = solve(net)
        assert sol.nec == 3
        assert sol.nec == sol.total / sum(sol.star_optima.values())

    def test_undefined_when_infeasible(self):
        net = InvestmentNetwork(
            2, [(0, 1, 1), (1, 0, 1)], cost={0: 1, 1: 1}, rate={0: 5, 1: 5}
        )
        assert solve(net).nec is None


class TestDispatcher:
    def test_single_star_route(self):
        net = InvestmentNetwork(
            4, [(0, 1, 3), (0, 2, 2), (0, 3, 1)], cost={0: 3}, rate={0: 1}
        )
        sol = solve(net)
        assert sol.method == "star"
        assert sol.total == Fraction(5, 2)

    def test_dag_route(self, chain_net):
        assert solve(chain_net).method == "dag"

    def test_large_alpha_route(self):
        net = gen_cycle_family(3)
        sol = solve(net)
        assert sol.method == "exact"
        assert sol.total == 8
        for e, amount in enumerate(sol.collaterals.amounts):
            assert amount in (0, net.edges[e].amount)

    def test_exact_route(self, spiked_cycle_net):
        sol = solve(spiked_cycle_net)
        assert sol.method == "exact"
        assert is_viable(spiked_cycle_net, sol.collaterals)

    def test_infeasible_route(self):
        net = InvestmentNetwork(
            2, [(0, 1, 1), (1, 0, 1)], cost={0: 1, 1: 1}, rate={0: 5, 1: 5}
        )
        sol = solve(net)
        assert sol.status is Status.INFEASIBLE
        assert sol.witness is not None

    def test_star_totals_partition_total(self):
        rng = random.Random(113)
        done = 0
        while done < 15:
            net = random_network(rng.randint(3, 7), 3, seed=rng.randint(0, 10**6))
            if not 0 < len(net.edges) <= 12 or not solvability_check(net).solvable:
                continue
            done += 1
            sol = solve(net)
            assert validate_network(net).ok
            assert sum(sol.star_totals.values(), Fraction(0)) == sol.total
            optima = sum(sol.star_optima.values(), Fraction(0))
            assert sol.nec == (sol.total / optima if optima else 1)
            assert sol.total == solve_exact(net).total
            assert_valid_elimination_order(net, sol.collaterals, list(sol.order))

    def test_is_acyclic(self, chain_net, spiked_cycle_net):
        assert is_acyclic(chain_net)
        assert not is_acyclic(spiked_cycle_net)
        self_edge = InvestmentNetwork(2, [(0, 1, 2), (0, 0, 1)], cost={0: 1}, rate={0: 1})
        assert not is_acyclic(self_edge)

    def test_guard_applies_per_component(self, spiked_cycle_net):
        copies = 6
        edges = [
            (e.enterprise + 4 * j, e.investor + 4 * j, e.amount)
            for j in range(copies)
            for e in spiked_cycle_net.edges
        ]
        params = {k + 4 * j: 2 for j in range(copies) for k in (0, 1)}
        net = InvestmentNetwork(4 * copies, edges, cost=params, rate=params)
        assert len(net.edges) == 24
        sol = solve(net)
        assert sol.method == "exact"
        assert sol.total == copies * solve_exact(spiked_cycle_net).total
        assert_valid_elimination_order(net, sol.collaterals, list(sol.order))
        with pytest.raises(TooLargeError):
            solve_exact(net)

    def test_search_solves_the_37_edge_large_alpha_component(self):
        # beyond the subset DP's guard; no oracle reaches this size
        net = random_network(20, 3, seed=4, large_alpha=True)
        sol = solve(net)
        assert sol.status is Status.SOLVED and sol.method == "exact"
        assert sol.total == 29
        assert is_viable(net, sol.collaterals)
        assert is_minimal(net, sol.collaterals)
        for e, amount in enumerate(sol.collaterals.amounts):
            assert amount in (0, net.edges[e].amount)
        assert_valid_elimination_order(net, sol.collaterals, list(sol.order))

    def test_star_guard_error_names_the_enterprise(self):
        # the power-of-two star of tests/test_star.py behind a small upstream
        # enterprise that it funds: every subset sum is distinct
        amounts = [2**i for i in range(STATE_GUARD.bit_length())]
        d = len(amounts)
        edges = [(1, 2 + i, x) for i, x in enumerate(amounts)] + [(0, 1, 1), (0, d + 2, 1)]
        ids = ["A", "hub"] + ["s%d" % i for i in range(d)] + ["a"]
        net = InvestmentNetwork(d + 3, edges, cost={0: 1, 1: 1}, rate={0: 1, 1: 1}, ids=ids)
        assert validate_network(net).ok
        with pytest.raises(TooLargeError, match="^enterprise hub: star with %d players" % d):
            solve(net)

    def test_search_solves_the_22_edge_spiked_component(self):
        net = spiked_22()
        sol = solve(net)
        assert sol.status is Status.SOLVED
        assert is_viable(net, sol.collaterals)
        assert is_minimal(net, sol.collaterals)
        assert_minimal(net, sol.collaterals, is_viable)

    def test_search_budget_error_names_the_component(self, monkeypatch):
        monkeypatch.setattr(network, "SEARCH_BUDGET", 3)
        started = time.perf_counter()
        with pytest.raises(TooLargeError) as err:
            solve(spiked_22())
        assert time.perf_counter() - started < 1
        assert re.match(
            r"search budget is 3 expansions plus bound entries; enterprises \{0, 1\} "
            r"with 22 edges reached \d+ expansions and \d+ bound entries$",
            str(err.value),
        )


@st.composite
def small_cyclic_networks(draw):
    """Seeded random networks with a cycle and at most 14 edges: integer,
    rescaled to rationals (amounts and costs over 2..13), or in the
    integer large-rate regime."""
    kind = draw(st.sampled_from(["integer", "rational", "large-alpha"]))
    net = random_network(draw(st.integers(4, 8)), 3, seed=draw(st.integers(0, 10**6)),
                         large_alpha=kind == "large-alpha")
    assume(0 < len(net.edges) <= 14 and not is_acyclic(net))
    if kind == "rational":
        q = draw(st.integers(2, 13))
        net = InvestmentNetwork(
            net.n, [(e.enterprise, e.investor, e.amount / q) for e in net.edges],
            cost=[z / q for z in net.cost], rate=net.rate,
        )
    return net


class TestSearchAgainstExact:
    """`solve` runs the best-first search on cyclic components; the
    whole-network subset DP of `solve_exact` is the oracle."""

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(small_cyclic_networks())
    def test_same_answer_as_the_subset_dp(self, net):
        sol, ref = solve(net), solve_exact(net)
        assert sol.status is ref.status
        assert sol.witness == ref.witness
        if sol.status is Status.SOLVED:
            assert sol.total == ref.total and sol.nec == ref.nec
            assert is_viable(net, sol.collaterals)
            assert_valid_elimination_order(net, sol.collaterals, list(sol.order))


class TestStarOptimaFromTheSearch:
    """`solve` takes a cyclic component's star optima from the search's
    root bound; `price_star` runs only on single-enterprise components."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(small_cyclic_networks())
    def test_root_bound_terms_are_the_star_optima(self, net):
        sol = solve(net)
        assume(sol.status is Status.SOLVED)
        assert sorted(sol.star_optima) == sorted(net.enterprise_set)
        for k, star, _ in star_decomposition(net):
            assert type(sol.star_optima[k]) is Fraction
            assert sol.star_optima[k] == solve_star(star).total

    @staticmethod
    def _cycle_with_upstream_star():
        # P <-> Q with spikes (one cyclic component), and R funded by P and
        # a spike of its own: a single-enterprise component
        edges = [(0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 3, 3), (4, 0, 2), (4, 5, 1)]
        params = {0: 2, 1: 2, 4: 1}
        return InvestmentNetwork(6, edges, cost=params, rate=params)

    def test_no_star_dp_runs_twice(self, monkeypatch, caplog):
        net = self._cycle_with_upstream_star()
        optima = {k: solve_star(star).total for k, star, _ in star_decomposition(net)}
        star_calls, dp_calls = [], []
        suffix_dp, price_star = star_module.suffix_dp, star_module.price_star

        def counted_price_star(amounts, cost, rate):
            star_calls.append(amounts)
            return price_star(amounts, cost, rate)

        def counted_suffix_dp(amounts, cost, rate, players, units):
            dp_calls.append((amounts, tuple(players), units))  # keeps both alive
            return suffix_dp(amounts, cost, rate, players, units)

        monkeypatch.setattr(star_module, "price_star", counted_price_star)
        monkeypatch.setattr(network, "suffix_dp", counted_suffix_dp)
        monkeypatch.setattr(star_module, "suffix_dp", counted_suffix_dp)
        with caplog.at_level("INFO", logger="collat.network"):
            sol = solve(net)
        assert sol.status is Status.SOLVED and sol.method == "exact"
        assert sol.star_optima == optima
        # one star pricing, for R alone (the network's scale is 1)
        assert [tuple(amounts) for amounts in star_calls] == [(2, 1)]
        keys = [(id(amounts), players) for amounts, players, _ in dp_calls]
        assert len(set(keys)) == len(keys)
        # one table of unit prices per star, shared by all its DPs
        tables = {(id(amounts), id(units)) for amounts, _, units in dp_calls}
        assert len(tables) == len({key for key, _ in tables}) == 3
        # one full-star DP per star: R's in price_star, P's and Q's at the root
        assert sum(len(players) == len(amounts) for amounts, players, _ in dp_calls) == 3
        entries = re.search(r"(\d+) bound entries", caplog.text)
        assert len(dp_calls) == 1 + int(entries.group(1))

    @staticmethod
    def _spiked(amount=1, cost=2, rate=2):
        # the spiked two-cycle, with enterprise 0's parameters and its
        # amount from enterprise 1 set by the caller
        edges = [(0, 1, amount), (0, 2, 2), (1, 0, 1), (1, 3, 2)]
        return InvestmentNetwork(4, edges, cost={0: cost, 1: 2}, rate={0: rate, 1: 2})

    @pytest.mark.parametrize("kwargs, message", [
        ({"rate": 1}, "enterprise 0: unprofitable ((1+1)(3-2) < 3)"),
        ({"amount": 0}, "edge 0 (0 -> 1): non-positive edge weight; "
                        "enterprise 0: unprofitable ((1+2)(2-2) < 2)"),
        ({"amount": -1}, "edge 0 (0 -> 1): non-positive edge weight; "
                         "enterprise 0: unprofitable ((1+2)(1-2) < 1)"),
        ({"rate": 0}, "enterprise 0: rate must be positive; "
                      "enterprise 0: unprofitable ((1+0)(3-2) < 3)"),
        ({"cost": -1}, "enterprise 0: negative cost"),
    ])
    def test_a_bad_star_in_a_cycle_raises_the_star_checks(self, kwargs, message):
        net = self._spiked(**kwargs)
        assert solvability_check(net).solvable and not is_acyclic(net)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            solve(net)

    def test_an_oversized_star_in_a_cycle_names_its_enterprise(self, monkeypatch):
        # the power-of-two hub of the acyclic guard test, now in a cycle
        # with the enterprise it funds
        amounts = [2**i for i in range(STATE_GUARD.bit_length())]
        d = len(amounts)
        edges = [(1, 2 + i, x) for i, x in enumerate(amounts)]
        edges += [(0, 1, 1), (0, d + 2, 1), (1, 0, 1)]
        ids = ["A", "hub"] + ["s%d" % i for i in range(d)] + ["a"]
        net = InvestmentNetwork(d + 3, edges, cost={0: 1, 1: 1}, rate={0: 1, 1: 1}, ids=ids)
        assert validate_network(net).ok and not is_acyclic(net)

        def no_expansion(*args):
            raise AssertionError("the search expanded a state")

        monkeypatch.setattr(network, "eliminate", no_expansion)
        with pytest.raises(TooLargeError, match="^enterprise hub: star with %d players" % (d + 1)):
            solve(net)

    def test_a_component_holding_every_edge_runs_on_the_network(self, monkeypatch):
        # the cycle family is one cyclic component with every edge; the
        # spiked two-cycle below an upstream star is a strict part
        seen = []
        search = network._search
        monkeypatch.setattr(network, "_search", lambda sub: seen.append(sub) or search(sub))
        whole = gen_cycle_family(3)
        assert solve(whole).total == 8
        part = self._cycle_with_upstream_star()
        assert solve(part).status is Status.SOLVED
        assert seen[0] is whole
        assert seen[1] is not part and len(seen[1].edges) == 4


class TestSingleEnterpriseRoute:
    """A single-enterprise component is priced on the network's scaled
    table, with no `StarInstance`; the network is validated before any
    component runs."""

    def test_matches_solve_star_on_the_star_instance(self):
        rng = random.Random(83)
        rescaled = 0
        for trial in range(80):
            net = random_network(rng.randint(3, 9), rng.randint(1, 4), seed=rng.randrange(10**6))
            if trial % 2:  # each star times its own p/q: the scale differs from the star's
                r = {k: Fraction(rng.randint(1, 12), rng.randint(2, 12))
                     for k in net.enterprise_set}
                edges = [(e.enterprise, e.investor, e.amount * r[e.enterprise]) for e in net.edges]
                cost = [z * r.get(k, 1) for k, z in enumerate(net.cost)]
                net = InvestmentNetwork(net.n, edges, cost, net.rate)
            for k, star, _ in star_decomposition(net):
                ours, theirs = star_module.star_solution(net, k), solve_star(star)
                rescaled += net.scale != math.lcm(star.cost.denominator,
                                                  *(x.denominator for x in star.amounts))
                assert ours.total == theirs.total and type(ours.total) is Fraction
                assert ours.collaterals == theirs.collaterals
                assert all(type(c) is Fraction for c in ours.collaterals)
                assert ours.order == theirs.order and ours.full_set == theirs.full_set
        assert rescaled > 50

    @staticmethod
    def _chain(amount=1, cost=2, rate=2):
        # enterprise 0, funded by enterprise 1 and a spike, with its
        # parameters and its amount from 1 set by the caller; 1 is funded by
        # two spikes: two single-enterprise components
        edges = [(0, 1, amount), (0, 2, 2), (1, 3, 1), (1, 4, 2)]
        return InvestmentNetwork(5, edges, cost={0: cost, 1: 2}, rate={0: rate, 1: 2})

    @pytest.mark.parametrize("kwargs, message", [
        ({"rate": 1}, "enterprise 0: unprofitable ((1+1)(3-2) < 3)"),
        ({"amount": 0}, "edge 0 (0 -> 1): non-positive edge weight; "
                        "enterprise 0: unprofitable ((1+2)(2-2) < 2)"),
        ({"rate": 0}, "enterprise 0: rate must be positive; "
                      "enterprise 0: unprofitable ((1+0)(3-2) < 3)"),
        ({"cost": -1}, "enterprise 0: negative cost"),
    ])
    def test_a_bad_single_enterprise_star_raises_the_star_checks(self, kwargs, message):
        net = self._chain(**kwargs)
        assert solvability_check(net).solvable and is_acyclic(net)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            solve(net)

    def test_profitability_is_checked_before_any_component_runs(self):
        # an oversized hub (its DP would trip the guard) downstream of an
        # unprofitable enterprise: the check comes first
        amounts = [2**i for i in range(STATE_GUARD.bit_length())]
        edges = [(0, 2 + i, x) for i, x in enumerate(amounts)] + [(1, 0, 2), (1, 2, 1)]
        net = InvestmentNetwork(len(amounts) + 2, edges, cost={0: 1, 1: 2}, rate={0: 1, 1: 1})
        assert solvability_check(net).solvable and is_acyclic(net)
        message = "enterprise 1: unprofitable ((1+1)(3-2) < 3)"
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            solve(net)


class TestStarCollateralObjects:
    """`solve` builds no Fraction per zero or full collateral, of a
    single-enterprise component or of a cyclic one."""

    def test_full_collaterals_are_the_amounts_and_the_zeros_one_object(self):
        net = random_network(8, 4, acyclic=True, seed=7)
        assert is_acyclic(net) and net.scale == 1
        c = solve(net).collaterals
        zeros = [v for v in c if v == 0]
        full = [e for e, x in enumerate(net.edges) if c[e] == x.amount]
        assert len(zeros) > 1 and len({id(v) for v in zeros}) == 1
        assert full and all(c[e] is net.edges[e].amount for e in full)
        assert any(0 < v < x.amount for v, x in zip(c, net.edges))  # a partial one too
        # every amount and cost divided by 7: the matrix is c / 7, in Fractions
        net7 = InvestmentNetwork(net.n, [(x.enterprise, x.investor, x.amount / 7) for x in net.edges],
                                 cost=[z / 7 for z in net.cost], rate=net.rate)
        assert net7.scale == 7
        c7 = solve(net7).collaterals
        assert c7.amounts == tuple(v / 7 for v in c)
        assert all(type(v) is Fraction for v in c7)

    def test_the_search_returns_its_collaterals_the_same_way(self):
        net = random_network(8, 3, seed=23)  # one cyclic component of 12 edges
        assert network._enterprise_components(net) == ((sorted(net.enterprise_set), True),)
        c = solve(net).collaterals
        zeros = [v for v in c if v == 0]
        full = [e for e, x in enumerate(net.edges) if c[e] == x.amount]
        assert len(zeros) > 1 and all(v is ZERO for v in zeros)
        assert full and all(c[e] is net.edges[e].amount for e in full)
        assert any(0 < v < x.amount for v, x in zip(c, net.edges))
        assert solve_exact(net).total == c.total()

    def test_the_subset_dp_returns_its_collaterals_the_same_way(self):
        net = random_network(8, 3, seed=23)
        sol = solve_exact(net)
        c = sol.collaterals
        zeros = [v for v in c if v == 0]
        full = [e for e, x in enumerate(net.edges) if c[e] == x.amount]
        assert len(zeros) > 1 and all(v is ZERO for v in zeros)
        assert full and all(c[e] is net.edges[e].amount for e in full)
        assert any(0 < v < x.amount for v, x in zip(c, net.edges))
        assert sol.total == solve(net).total


class TestRelabelling:
    """Permuting the vertices and the edge list keeps the status, the
    total, the NEC and each enterprise's star optimum.

    Proof: a relabelling maps the network onto an isomorphic one, edge to
    edge with the same amount, and each enterprise to one with the same
    cost and rate.  The cascade, every need and so viability are defined
    on that structure alone, so a collateral matrix is viable on one net
    iff its image is on the other, with the same total: the optima are
    equal, and so is solvability.  A star optimum depends only on the
    star's amounts, cost and rate, and the NEC is the total over their
    sum.  The search breaks ties on edge bitmasks, so the relabelled net
    takes another path, maybe to another optimal matrix; only these
    values are compared."""

    def test_four_relabellings_of_a_29_edge_cyclic_component(self):
        net = random_network(18, 4, seed=998695729)
        assert max(sum(len(net.out_edges[k]) for k in comp)
                   for comp, cyclic in network._enterprise_components(net) if cyclic) == 29
        want = solve(net)
        assert want.status is Status.SOLVED and want.method == "exact"
        rng = random.Random("relabel")
        for _ in range(4):
            perm = rng.sample(range(net.n), net.n)  # vertex v becomes perm[v]
            edges = [(perm[e.enterprise], perm[e.investor], e.amount)
                     for e in rng.sample(net.edges, len(net.edges))]
            cost, rate = [0] * net.n, [0] * net.n
            for v in range(net.n):
                cost[perm[v]], rate[perm[v]] = net.cost[v], net.rate[v]
            got = solve(InvestmentNetwork(net.n, edges, cost=cost, rate=rate))
            assert (got.status, got.total, got.nec) == (want.status, want.total, want.nec)
            assert got.star_optima == {perm[k]: v for k, v in want.star_optima.items()}


class TestSearchOnTheScale:
    """`_search` keeps every value on the network's scale, an int when its
    pair has den 1: on an integer-regime component the queue does no
    Fraction arithmetic, and only the star optima and the partial
    collaterals it returns are built as Fractions."""

    def test_a_large_alpha_component_builds_only_its_results(self, monkeypatch):
        net = random_network(10, 3, seed=4, large_alpha=True)  # one component of 19 edges
        assert is_large_alpha(net) and not is_acyclic(net) and net.scale == 1
        built, ops = [], []

        def counted(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(network, "Fraction", counted)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__lt__", "__eq__"):
            plain = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda a, b, plain=plain, name=name: (
                ops.append(name) or plain(a, b)))
        amounts, order, optima = network._search(net)
        monkeypatch.undo()
        assert ops == []
        positive = [e for e, v in amounts.items() if v]
        assert positive and len(built) <= len(optima) + len(positive)
        assert all(v is ZERO or v is net.edges[e].amount for e, v in amounts.items())
        assert sum(amounts.values()) == solve_exact(net).total


class TestInvalidNetworks:
    """Past the solvability gate, every entry point rejects what
    `validate_network` (and so `collat check`) rejects, in its words."""

    @pytest.mark.parametrize("solver", [solve, solve_exact, solve_dag, solve_large_alpha])
    @pytest.mark.parametrize("edges, ids, message", [
        ([(0, 1, 2), (0, 2, 2), (0, 0, 1)], None, "edge 2: self-edge at vertex 0"),
        ([(0, 1, 2), (0, 2, 2), (0, 1, 2)], None, "duplicate edge (0, 1)"),
        ([(0, 1, 2), (0, 2, 2)], [0, 1, "1"],
         "vertices 1 and 2: ids 1 and '1' are equal as strings"),
    ], ids=["self-edge", "duplicate-edge", "ids-equal-as-strings"])
    def test_a_solver_raises_the_violation(self, solver, edges, ids, message):
        net = InvestmentNetwork(3, edges, cost={0: 1}, rate={0: 2}, ids=ids)
        assert solvability_check(net).solvable and is_large_alpha(net)
        assert validate_network(net).violations == [message]
        if solver is solve_dag and not is_acyclic(net):
            # a self-edge is a cycle, and solve_dag checks for one first
            message = "network contains a directed cycle"
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            solver(net)


class TestExactTypes:
    """Every solver path returns Fractions.  The solvers work on integers
    scaled by a common denominator, and an int divided by the scale with
    `/` would silently be a float."""

    @staticmethod
    def _nets():
        rng = random.Random(71)
        for trial in range(36):
            kind = ("acyclic", "cyclic", "large-alpha")[trial % 3]
            net = random_network(rng.randint(4, 8), 3, acyclic=kind == "acyclic",
                                 seed=rng.randint(0, 10**6), large_alpha=kind == "large-alpha")
            q = rng.randint(2, 13)
            yield net
            yield InvestmentNetwork(
                net.n, [(e.enterprise, e.investor, e.amount / q) for e in net.edges],
                cost=[z / q for z in net.cost], rate=net.rate,
            )

    @staticmethod
    def _assert_solution(sol):
        if sol.status is not Status.SOLVED:
            return
        values = [*sol.collaterals.amounts, sol.total, sol.nec, *sol.star_optima.values()]
        assert all(type(v) is Fraction for v in values), values

    def test_solvers_and_kernels_return_fractions(self):
        rng = random.Random(72)
        scales = set()
        for net in self._nets():
            if not net.edges:
                continue
            scales.add(net.scale > 1)
            for _, star, _ in star_decomposition(net):
                ssol = solve_star(star)
                values = [*ssol.collaterals, ssol.total]
                assert all(type(v) is Fraction for v in values), values
            self._assert_solution(solve(net))
            if len(net.edges) <= 12:
                exact = solve_large_alpha if is_large_alpha(net) else solve_exact
                self._assert_solution(exact(net))
            m = len(net.edges)
            for _ in range(20):
                e = rng.randrange(m)
                cmask = rng.getrandbits(m) | 1 << e
                need = edge_need(net, cmask, cascade(net, cmask), e)
                assert need is None or type(need) is Fraction, need
            c = CollateralMatrix(net, [e.amount * Fraction(rng.randint(0, 4), 4) for e in net.edges])
            # the kernel's needs are integer pairs on the scale: edge_need times it
            _, resolved, _, needs = eliminate(net, c.on_scale)
            for e, pair in needs.items():
                cmask = resolved | 1 << e
                need = edge_need(net, cmask, cascade(net, cmask), e)
                if pair is None:
                    assert need is None
                else:
                    num, den = pair
                    assert type(num) is int and type(den) is int and den > 0, pair
                    assert Fraction(num, den) == need * net.scale, (pair, need)
        assert scales == {False, True}


# `TestKernelWork`'s counters, frozen: a change that moves them on purpose
# updates this table and says why
KERNEL_WORK = {"cascade calls": 17875, "cascade rows": 120972, "closures": 1863, "queue pops": 1883}


class TestKernelWork:
    """Deterministic counts of the kernel's work on one search-heavy net,
    which no timing shows without noise: `model.cascade` calls and the
    enterprise rows they test (all of `net.funding`, or the enterprises of
    `within`), and the search's closures (`network.eliminate`) and queue
    pops.  A pop that opens no closure is a stale queue entry: a state
    pushed again at a lower bound leaves its old entry behind."""

    def test_the_counters_match_the_frozen_ones(self, monkeypatch):
        net = random_network(18, 4, seed=998695729)
        assert len(net.edges) == 38
        assert [(len(comp), cyclic) for comp, cyclic in network._enterprise_components(net)] == [
            (1, False), (2, True), (1, False), (10, True)]
        work = dict.fromkeys(KERNEL_WORK, 0)
        plain_cascade, plain_eliminate = model.cascade, network.eliminate

        def counted_cascade(net, cooperate_mask, within=None):
            work["cascade calls"] += 1
            work["cascade rows"] += len(net.funding) if within is None else within.bit_count()
            return plain_cascade(net, cooperate_mask, within)

        def counted_eliminate(*args):
            work["closures"] += 1
            return plain_eliminate(*args)

        def counted_heappop(queue):
            work["queue pops"] += 1
            return heapq.heappop(queue)

        monkeypatch.setattr(model, "cascade", counted_cascade)
        monkeypatch.setattr(network, "eliminate", counted_eliminate)
        monkeypatch.setattr(network, "heapq", types.SimpleNamespace(
            heappush=heapq.heappush, heappop=counted_heappop))
        sol = solve(net)
        monkeypatch.undo()
        assert work == KERNEL_WORK
        assert work["queue pops"] > work["closures"]  # the stale-entry skip ran
        assert sol.total == Fraction(19720, 429) and sol.nec == Fraction(236640, 212707)
        assert is_viable(net, sol.collaterals) and is_minimal(net, sol.collaterals)
