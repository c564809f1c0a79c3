import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collat import (
    Action,
    CollateralMatrix,
    DocumentError,
    Edge,
    InvestmentNetwork,
    best_response,
    default_determination,
    edge_utility,
    enterprise_return,
    is_nash_equilibrium,
    player_utility,
    random_network,
    validate_network,
)
from collat import model
from collat.model import cascade, eliminate, least_collateral_pair, need_pair
from collat.star import StarInstance, _minimal_amount
from helpers import least_collateral


def star_net(amounts, z, alpha):
    edges = [(0, i + 1, x) for i, x in enumerate(amounts)]
    return InvestmentNetwork(len(amounts) + 1, edges, cost={0: z}, rate={0: alpha})


@pytest.fixture
def two_cycle_net():
    # P=0, Q=1, spikes s=2, t=3; edges (P,Q),(P,s),(Q,t),(Q,P)
    return InvestmentNetwork(
        4,
        [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 0, 1)],
        cost={0: 2, 1: 2},
        rate={0: 2, 1: 2},
    )


class TestValidation:
    def test_profitable_star_accepted(self):
        assert validate_network(star_net([2, 2], 1, 1)).ok

    def test_unprofitable_star_rejected(self):
        report = validate_network(star_net([1, 1], 2, 1))
        assert not report.ok
        assert any("unprofitable" in v for v in report.violations)

    def test_zero_weight_edge_rejected(self):
        net = InvestmentNetwork(2, [(0, 1, 0)], cost={0: 0}, rate={0: 1})
        assert any("non-positive edge weight" in v for v in validate_network(net).violations)

    def test_duplicate_and_self_edges_rejected(self):
        net = InvestmentNetwork(2, [(0, 1, 1), (0, 1, 2), (0, 0, 1)], cost={0: 0}, rate={0: 1})
        violations = " ".join(validate_network(net).violations)
        assert "duplicate edge" in violations and "self-edge" in violations

    @pytest.mark.parametrize("edges, bad", [
        ([(5, 0, 1)], 0), ([(-1, 0, 1)], 0), ([(0, 5, 1)], 0), ([(0, -1, 1)], 0),
        ([(0, 1, 2), (0, -1, 2)], 1), ([(0, 1, 2), (0, 7, 2)], 1),
    ], ids=["5", "-1", "investor-5", "investor--1", "second-investor--1", "second-investor-7"])
    def test_enterprise_out_of_range_is_a_value_error(self, edges, bad):
        # an investor too: `solvability_check` shifts a mask by each
        # investor, where a negative one would raise "negative shift count"
        # and 7 on 3 vertices would count as secured
        with pytest.raises(ValueError, match=r"^edge %d: endpoint out of range$" % bad):
            InvestmentNetwork(3, edges, cost={0: 1}, rate={0: 2})

    @pytest.mark.parametrize("n, edges", [
        (2.9, [(0, 1, 3)]), (True, [(0, 0, 3)]), ("2", [(0, 1, 3)]),
    ], ids=["float-n", "bool-n", "str-n"])
    def test_a_vertex_count_that_is_no_int_is_a_type_error(self, n, edges):
        # `int(2.9)` read as 2: the net built and solved
        with pytest.raises(TypeError, match="^n must be an int"):
            InvestmentNetwork(n, edges, cost={0: 1}, rate={0: 1})

    @pytest.mark.parametrize("edges, bad", [
        ([(0.2, 1.7, 3)], 0), ([(False, True, 3)], 0), ([(0, 1, 3), (0, 1.0, 3)], 1),
        ([Edge(0.0, 1, Fraction(3))], 0), ([("0", 1, 3)], 0),
    ], ids=["floats", "bools", "second-float", "edge-object", "str"])
    def test_an_endpoint_that_is_no_int_is_a_type_error(self, edges, bad):
        # `int()` read (0.2, 1.7) and (False, True) as the edge 0 -> 1
        with pytest.raises(TypeError, match=r"^edge %d: endpoints must be ints$" % bad):
            InvestmentNetwork(2, edges, cost={0: 1}, rate={0: 1})

    @pytest.mark.parametrize("key", [5, 2, -1, True, 0.0, "0"])
    @pytest.mark.parametrize("field", ["cost", "rate"])
    def test_a_per_vertex_key_that_is_no_vertex_is_a_value_error(self, field, key):
        # the key was dropped: `cost={5: 1, 0: 1}` priced vertex 0 alone
        with pytest.raises(ValueError, match="^per-vertex parameter: key %s is not an index below 2$"
                           % re.escape(repr(key))):
            InvestmentNetwork(2, [(0, 1, 3)], **{field: {key: 1}})

    @pytest.mark.parametrize("ids", [["E"], ["E", "a", "b", "c"]], ids=["short", "long"])
    def test_ids_of_another_length_are_rejected(self, ids):
        # a short list failed only when serialized; a long one lost ids
        with pytest.raises(ValueError, match="^ids length must equal n$"):
            InvestmentNetwork(3, [(0, 1, 2), (0, 2, 2)], cost={0: 1}, rate={0: 2}, ids=ids)

    def test_a_sequence_of_another_length_keeps_its_message(self):
        with pytest.raises(ValueError, match="^per-vertex parameter length must equal n$"):
            InvestmentNetwork(2, [(0, 1, 3)], cost=[1, 0, 0], rate={0: 2})
        with pytest.raises(ValueError, match="^collateral vector length must match edge count$"):
            CollateralMatrix(InvestmentNetwork(2, [(0, 1, 3)], cost={0: 1}, rate={0: 2}), [0, 0])

    def test_profitability_on_the_scaled_integers_matches_fractions(self):
        # random rational stars, some on the exact boundary (1+a)(X-Z) = X
        # and some with rates <= 0: the same stars are flagged, with the
        # same text, as by the Fraction formula
        rng = random.Random(29)

        def rational():
            return Fraction(rng.randint(1, 40), rng.randint(1, 9))

        flagged = boundary = 0
        for trial in range(400):
            amounts = [rational() for _ in range(rng.randint(1, 4))]
            x_total = sum(amounts)
            z = x_total * Fraction(rng.randint(0, 9), 10)
            if trial % 4 == 0:
                a = z / (x_total - z)
            else:
                a = Fraction(rng.randint(-6, 30), rng.randint(1, 7))
            expected = []
            if (1 + a) * (x_total - z) < x_total:
                expected.append("enterprise 0: unprofitable ((1+%s)(%s-%s) < %s)"
                                % (a, x_total, z, x_total))
            got = [v for v in validate_network(star_net(amounts, z, a)).violations
                   if "unprofitable" in v]
            assert got == expected
            flagged += bool(expected)
            boundary += (1 + a) * (x_total - z) == x_total
        assert 0 < flagged < 400 and boundary >= 100


class TestDefaultDetermination:
    def test_all_defect_defaults_everyone(self, two_cycle_net):
        state = default_determination(two_cycle_net, frozenset())
        assert state.defaulted == {0, 1}
        assert state.invest == frozenset()

    def test_all_cooperate_no_defaults(self, two_cycle_net):
        state = default_determination(two_cycle_net, two_cycle_net.all_edges())
        assert state.defaulted == frozenset()
        assert state.invest == two_cycle_net.all_edges()

    def test_two_step_cascade(self, two_cycle_net):
        # dropping P's spike forces P under, which pulls Q under via the cycle
        cooperate = two_cycle_net.all_edges() - {1}
        state = default_determination(two_cycle_net, cooperate)
        assert state.defaulted == {0, 1}
        assert state.invest == frozenset()  # (Q,t) feeds a defaulted enterprise

    def test_confluence_against_orderings(self):
        # a randomized-order reimplementation must reach the same fixed point,
        # also on copies whose amounts and costs need a common denominator
        rng = random.Random(7)
        denominators = random.Random(8)
        for trial in range(40):
            base = random_network(rng.randint(3, 7), 3, seed=rng.randint(0, 10**6))
            for net in (base, _rescaled(base, denominators)):
                edges = list(net.all_edges())
                cooperate = frozenset(e for e in edges if rng.random() < 0.6)
                reference = default_determination(net, cooperate)
                for _ in range(3):
                    assert _scrambled_cascade(net, cooperate, rng) == (
                        reference.defaulted,
                        reference.invest,
                    )
            assert net.scale > 1

    def test_monotone_in_cooperation(self):
        rng = random.Random(21)
        for trial in range(30):
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            edges = list(net.all_edges())
            small = frozenset(e for e in edges if rng.random() < 0.4)
            big = small | frozenset(e for e in edges if rng.random() < 0.4)
            s_small = default_determination(net, small)
            s_big = default_determination(net, big)
            assert s_small.invest <= s_big.invest
            assert s_small.defaulted >= s_big.defaulted


def _rescaled(net, rng):
    """A copy with every amount and cost divided by its own denominator."""
    return InvestmentNetwork(
        net.n,
        [(e.enterprise, e.investor, e.amount / rng.randint(2, 13)) for e in net.edges],
        cost=[z / rng.randint(2, 13) for z in net.cost],
        rate=net.rate,
    )


def _scrambled_cascade(net, cooperate, rng):
    """(defaulted, surviving invest edges) by Fraction sums, defaulting one
    random underfunded enterprise at a time."""
    defaulted = set()
    invest = set(cooperate)
    while True:
        candidates = []
        for k in net.enterprise_set:
            if k in defaulted:
                continue
            inflow = sum(
                (net.edges[e].amount for e in net.out_edges[k] if e in invest),
                Fraction(0),
            )
            if inflow < net.cost[k]:
                candidates.append(k)
        if not candidates:
            return frozenset(defaulted), frozenset(
                e for e in invest if net.edges[e].enterprise not in defaulted
            )
        k = rng.choice(candidates)
        defaulted.add(k)
        invest -= {e for e in invest if net.edges[e].investor == k}


class TestReturnsAndUtilities:
    def test_shared_return(self):
        net = star_net([2, 2], 1, 1)
        r = enterprise_return(net, net.all_edges(), 0)
        assert r == 3

    def test_lone_investor_return(self):
        net = star_net([2, 2], 1, 1)
        assert enterprise_return(net, frozenset({0}), 0) == 2

    def test_negative_net_clamps_to_zero(self):
        net = star_net([2, 1], 3, 1)
        assert enterprise_return(net, frozenset({0}), 0) == 0

    def test_return_requires_invest_edge(self):
        net = star_net([2, 2], 1, 1)
        with pytest.raises(ValueError):
            enterprise_return(net, frozenset({0}), 1)

    def test_return_monotone_in_invest_set(self):
        rng = random.Random(5)
        for trial in range(30):
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            edges = list(net.all_edges())
            if not edges:
                continue
            small = frozenset(e for e in edges if rng.random() < 0.5)
            big = small | frozenset(e for e in edges if rng.random() < 0.5)
            i_small = default_determination(net, small).invest
            i_big = default_determination(net, big).invest
            for e in i_small & i_big:
                assert enterprise_return(net, i_big, e) >= enterprise_return(net, i_small, e)

    def test_defect_pays_the_investment(self):
        net = star_net([2, 2], 1, 1)
        c = CollateralMatrix.zeros(net)
        assert edge_utility(net, c, frozenset({1}), 0) == 2

    def test_full_collateral_floors_at_investment(self):
        net = star_net([1, 1], 2, 1)  # lone investor return is 0
        c = CollateralMatrix(net, [1, 0])
        assert edge_utility(net, c, frozenset({0}), 0) == 1

    def test_profit_branch_ignores_collateral(self):
        net = star_net([2, 2], 1, 1)
        c = CollateralMatrix.zeros(net)
        assert edge_utility(net, c, net.all_edges(), 0) == 3

    def test_cooperate_while_in_default_pays_zero(self, two_cycle_net):
        c = CollateralMatrix.full(two_cycle_net)
        cooperate = two_cycle_net.all_edges() - {1}
        assert edge_utility(two_cycle_net, c, cooperate, 0) == 0

    def test_collateral_realized_when_enterprise_defaults(self, two_cycle_net):
        # spike t keeps investing in defaulted Q: gets its collateral back
        c = CollateralMatrix(two_cycle_net, {2: Fraction(1, 2)})
        cooperate = two_cycle_net.all_edges() - {1}
        assert edge_utility(two_cycle_net, c, cooperate, 2) == Fraction(1, 2)

    def test_player_utility_sums_incoming_edges(self):
        net = InvestmentNetwork(
            4, [(0, 3, 2), (1, 3, 1), (2, 3, 1)], cost={0: 1, 1: 0, 2: 0},
            rate={0: 1, 1: 1, 2: 1},
        )
        c = CollateralMatrix.zeros(net)
        assert player_utility(net, c, frozenset({0}), 3) == 2 + 1 + 1
        assert player_utility(net, c, frozenset(), 0) == 0

    def test_utility_monotone_in_collateral(self):
        rng = random.Random(11)
        for trial in range(25):
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            edges = list(net.all_edges())
            if not edges:
                continue
            cooperate = frozenset(e for e in edges if rng.random() < 0.7)
            base = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in edges]
            c = CollateralMatrix(net, base)
            e = rng.choice(edges)
            bumped = c.replace(e, c[e] + Fraction(1, 2))
            assert edge_utility(net, bumped, cooperate, e) >= edge_utility(net, c, cooperate, e)
            for other in edges:
                if other != e:
                    assert edge_utility(net, bumped, cooperate, other) == edge_utility(
                        net, c, cooperate, other
                    )


class TestBestResponse:
    def test_tie_breaks_to_invest(self):
        net = star_net([1, 1], 1, 1)
        c = CollateralMatrix.full(net)
        assert best_response(net, c, frozenset(), 0) is Action.COOPERATE

    def test_hopeless_lone_cooperator_defects(self):
        net = star_net([1, 1], 2, 1)
        c = CollateralMatrix.zeros(net)
        assert best_response(net, c, frozenset(), 0) is Action.DEFECT

    def test_zero_collateral_threshold(self):
        # x_i + sum(A) meeting Z(1 + 1/alpha) exactly flips to invest
        net = star_net([1, 3], 2, 1)
        c = CollateralMatrix.zeros(net)
        assert best_response(net, c, frozenset({1}), 0) is Action.COOPERATE

    def test_matches_utility_definition(self):
        # best_response runs on the edge-need kernel; the definition is
        # u_e(c, cooperate + e) >= x_e.  Collaterals sit exactly on, just
        # below and just above each threshold x - R, so ties are hit, also
        # on copies whose amounts and costs need a common denominator.
        rng = random.Random(17)
        denominators = random.Random(18)
        eps = Fraction(1, 97)
        partial_ties = 0
        for trial in range(30):
            base = random_network(rng.randint(3, 7), 3, seed=rng.randint(0, 10**6))
            for net in (base, _rescaled(base, denominators)):
                edges = list(net.all_edges())
                cooperate = frozenset(e for e in edges if rng.random() < 0.6)
                for e in edges:
                    x = net.edges[e].amount
                    state = default_determination(net, cooperate | {e})
                    if net.edges[e].investor in state.defaulted:
                        amounts = [Fraction(0), x]
                    else:
                        r = Fraction(0)
                        if net.edges[e].enterprise not in state.defaulted:
                            r = enterprise_return(net, state.invest, e)
                        threshold = max(Fraction(0), x - r)
                        amounts = [threshold, max(threshold - eps, Fraction(0)),
                                   min(threshold + eps, x)]
                        partial_ties += 0 < threshold < x
                        c = CollateralMatrix.zeros(net).replace(e, threshold)
                        assert best_response(net, c, cooperate, e) is Action.COOPERATE
                    for amount in amounts:
                        c = CollateralMatrix.zeros(net).replace(e, amount)
                        expected = edge_utility(net, c, cooperate | {e}, e) >= x
                        chosen = best_response(net, c, cooperate, e) is Action.COOPERATE
                        assert chosen == expected, (trial, e, amount)
            assert net.scale > 1
        assert partial_ties > 0

    def test_monotone_in_cooperate_set(self):
        rng = random.Random(13)
        for trial in range(25):
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            edges = list(net.all_edges())
            if not edges:
                continue
            c = CollateralMatrix(
                net, [Fraction(rng.randint(0, 2), rng.randint(1, 2)) for _ in edges]
            )
            small = frozenset(e for e in edges if rng.random() < 0.4)
            big = small | frozenset(e for e in edges if rng.random() < 0.5)
            for e in edges:
                if best_response(net, c, small, e) is Action.COOPERATE:
                    assert best_response(net, c, big, e) is Action.COOPERATE


class TestEliminate:
    """`eliminate` keeps its defaulted mask incrementally; `best_response`,
    on a full cascade, is the reference predicate."""

    @staticmethod
    def _nets(rng, denominators, trials):
        for trial in range(trials):
            base = random_network(rng.randint(3, 8), 3, seed=rng.randint(0, 10**6),
                                  large_alpha=trial % 3 == 2)
            yield base
            yield _rescaled(base, denominators)

    def _check(self, net, c, start, result):
        order, resolved, defaulted, needs = result
        assert resolved == start | sum(1 << e for e in order)
        assert defaulted == cascade(net, resolved)
        before = [e for e in range(len(net.edges)) if start >> e & 1]
        for t, e in enumerate(order):
            assert best_response(net, c, before + order[:t], e) is Action.COOPERATE
        assert sorted(needs) == [e for e in range(len(net.edges)) if not resolved >> e & 1]
        for e, need in needs.items():
            assert best_response(net, c, before + order, e) is Action.DEFECT
            cmask = resolved | 1 << e
            assert need == need_pair(net, cmask, cascade(net, cmask), e)

    def test_matches_the_reference_predicate(self):
        # random matrices from 0 to full, in quarters of each amount
        rng = random.Random(41)
        denominators = random.Random(42)
        shrunk = 0  # runs whose defaulted mask shrank, by cascade reruns
        for net in self._nets(rng, denominators, 60):
            c = CollateralMatrix(net, [e.amount * Fraction(rng.randint(0, 4), 4) for e in net.edges])
            result = eliminate(net, c.on_scale)
            self._check(net, c, 0, result)
            shrunk += result[2] != cascade(net, 0)
        assert shrunk > 20

    def test_from_a_resolved_set(self):
        # the search's and the minimality runs' use: start from any set
        rng = random.Random(43)
        denominators = random.Random(44)
        for net in self._nets(rng, denominators, 40):
            m = len(net.edges)
            c = CollateralMatrix(net, [e.amount * Fraction(rng.randint(0, 4), 4) for e in net.edges])
            start = sum(1 << e for e in range(m) if rng.random() < 0.4)
            self._check(net, c, start, eliminate(net, c.on_scale, start))

    def test_rescue_test_skips_cascade_reruns(self, monkeypatch):
        # enterprise 0 needs 2, and its edge from leaf 2 brings only 1: that
        # edge alone can never rescue it, so checking it reruns no cascade
        net = InvestmentNetwork(4, [(0, 1, 2), (0, 2, 1), (1, 0, 1), (1, 3, 1)],
                                cost={0: 2, 1: 1}, rate={0: 2, 1: 1})
        assert validate_network(net).ok
        counts = {"checks": 0, "reruns": 0}
        plain_cascade, plain_need = model.cascade, model.need_pair

        def counting_cascade(net, cooperate_mask, within=None):
            counts["reruns"] += within is not None  # eliminate's first call passes none
            return plain_cascade(net, cooperate_mask, within)

        def counting_need(net, cmask, dmask, e):
            # eliminate checks e into a defaulted enterprise iff it defaults
            # under the edges resolved so far: cmask without e
            before = plain_cascade(net, cmask & ~(1 << e))
            counts["checks"] += before >> net.edges[e].enterprise & 1
            return plain_need(net, cmask, dmask, e)

        monkeypatch.setattr(model, "cascade", counting_cascade)
        monkeypatch.setattr(model, "need_pair", counting_need)
        runs = []
        for mask in range(1 << len(net.edges)):
            c = CollateralMatrix(net, [e.amount if mask >> i & 1 else 0
                                       for i, e in enumerate(net.edges)])
            runs.append((c, eliminate(net, c.on_scale)))
        monkeypatch.undo()
        assert 0 < counts["reruns"] < counts["checks"]
        for c, result in runs:
            self._check(net, c, 0, result)

    def test_a_rescue_reruns_over_the_defaulted_enterprises(self, monkeypatch):
        # A = 0 and B = 1 default, and so does F = 2, where A invests.  A's
        # second edge rescues it: the rerun tests A, B and F, the defaulted
        # enterprises, and rescues A and F; B's second edge then reruns
        # over B alone
        edges = [(0, 3, 2), (0, 4, 2), (2, 0, 2), (2, 5, 2), (1, 6, 2), (1, 7, 2)]
        net = InvestmentNetwork(8, edges, cost={0: 3, 1: 3, 2: 3}, rate={0: 10, 1: 10, 2: 10})
        assert validate_network(net).ok
        tested = []
        plain_cascade = model.cascade
        monkeypatch.setattr(model, "cascade", lambda net, cmask, within=None: tested.append(
            within) or plain_cascade(net, cmask, within))
        c = CollateralMatrix.full(net)
        result = eliminate(net, c.on_scale, 0b1100)
        monkeypatch.undo()
        assert plain_cascade(net, 0b1100) == 0b111
        assert tested == [None, 0b111, 0b010]
        assert result[2] == 0
        self._check(net, c, 0b1100, result)


class TestLeastCollateral:
    """`least_collateral` and its integer pair `least_collateral_pair` on
    scaled integers against the Fraction reference `star._minimal_amount`
    (a player of amount a seeing the prefix P)."""

    @staticmethod
    def _reference(a, raised, cost, rate):
        return _minimal_amount(StarInstance([a], cost, rate), 0, Fraction(raised))

    @pytest.mark.parametrize("a, raised, cost, rate, expected", [
        (2, 5, 5, Fraction(1), 2),  # raised == cost: the whole amount
        (2, 4, 5, Fraction(1), 2),  # raised below cost
        (2, 6, 3, Fraction(1), 0),  # q P - (p+q)(P - Z) == 0 exactly
        (2, 4, 0, Fraction(1), 0),  # cost 0
        (2, 4, 3, Fraction(2, 3), Fraction(7, 6)),  # q > 1: 2 (12 - 5) / 12
    ], ids=["raised-equals-cost", "raised-below-cost", "zero-numerator", "zero-cost",
            "rate-with-q-above-1"])
    def test_boundaries(self, a, raised, cost, rate, expected):
        got = least_collateral(a, raised, cost, rate)
        assert got == expected == self._reference(a, raised, cost, rate)

    def test_matches_the_reference(self):
        rng = random.Random(51)
        for _ in range(2000):
            a = rng.randint(1, 9)
            raised = a + rng.randint(0, 30)
            rate = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            cost = rng.randint(0, 40)
            got = least_collateral(a, raised, cost, rate)
            num, den = least_collateral_pair(a, raised, cost, rate.as_integer_ratio())
            assert got == Fraction(num, den) == self._reference(a, raised, cost, rate)
            assert 0 <= got <= a and den > 0


class TestNashEquilibrium:
    def test_all_cooperate_always_an_equilibrium(self):
        rng = random.Random(3)
        for trial in range(20):
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            c = CollateralMatrix(
                net,
                [Fraction(rng.randint(0, 2), rng.randint(1, 2)) for _ in net.edges],
            )
            assert is_nash_equilibrium(net, c, net.all_edges())

    def test_all_defect_equilibrium_without_collateral(self):
        net = star_net([1, 1], 1, 1)
        assert is_nash_equilibrium(net, CollateralMatrix.zeros(net), frozenset())

    def test_full_collateral_kills_all_defect(self):
        net = star_net([1, 1], 1, 1)
        assert not is_nash_equilibrium(net, CollateralMatrix.full(net), frozenset())


class TestCollateralMatrix:
    def test_amounts_above_investment_normalized(self):
        net = star_net([2, 1], 1, 1)
        c = CollateralMatrix(net, [5, 1])
        assert c.amounts == (Fraction(2), Fraction(1))
        # on a scale of 6: cut to the edge's own amount, kept at or below it
        net = star_net([Fraction(3, 2), 1], Fraction(1, 3), 1)
        c = CollateralMatrix(net, [Fraction(8, 5), Fraction(1)])
        assert c.amounts == (Fraction(3, 2), 1) and c.amounts[0] is net.edges[0].amount
        assert CollateralMatrix(net, [Fraction(7, 5), 0]).amounts == (Fraction(7, 5), 0)

    def test_negative_rejected(self):
        net = star_net([2, 1], 1, 1)
        with pytest.raises(ValueError):
            CollateralMatrix(net, [-1, 0])

    def test_floats_rejected(self):
        net = star_net([2, 1], 1, 1)
        with pytest.raises(TypeError):
            CollateralMatrix(net, [0.5, 0])

    @pytest.mark.parametrize("key", [3, 1, -1, True, "0"])
    def test_a_key_that_is_no_edge_index_is_a_value_error(self, key):
        # the key was dropped: every collateral read as 0
        net = star_net([2], 1, 1)
        with pytest.raises(ValueError, match="^collateral vector: key %s is not an index below 1$"
                           % re.escape(repr(key))):
            CollateralMatrix(net, {key: 1})
        assert CollateralMatrix(net, {0: 1}).amounts == (1,)

    def test_on_scale_is_each_collateral_times_the_scale_built_once(self):
        net = star_net([Fraction(3, 2), 1], Fraction(1, 3), 1)
        assert net.scale == 6
        c = CollateralMatrix(net, [Fraction(1, 4), 0])
        pairs = c.on_scale
        assert pairs == ((6, 4), (0, 1)) and c.on_scale is pairs


class TestExactSum:
    PRIMES = (1009, 7919, 104729, 1299709, 15485863, 2**61 - 1)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.one_of(
        st.fractions(), st.integers(-10**6, 10**6), st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-10**30, 10**30), st.sampled_from(PRIMES)),
    ), max_size=12))
    @example([])
    @example([Fraction(0), 0, Fraction(0)])
    @example([Fraction(1, 1009), Fraction(-1, 1009)])
    def test_matches_the_fraction_sum(self, values):
        got = model.exact_sum(values)
        assert type(got) is Fraction
        assert got == sum(values, Fraction(0))


class TestAsMoney:
    def test_a_fraction_comes_back_as_is_and_a_float_still_raises(self):
        f = Fraction(3, 7)
        assert model.as_money(f) is f
        with pytest.raises(TypeError):
            model.as_money(0.5)

    def test_other_exact_values_convert(self):
        class Sub(Fraction):
            pass

        for value in (3, "3/7", Sub(3, 7)):
            money = model.as_money(value)
            assert type(money) is Fraction and money == Fraction(value)

    @pytest.mark.parametrize("text, value", [
        ("3/7", Fraction(3, 7)), (" 1/2 ", Fraction(1, 2)), ("1e3", 1000), ("-2", -2),
    ])
    def test_a_string_reads_with_the_document_grammar(self, text, value):
        money = model.as_money(text)
        assert type(money) is Fraction and money == value
        assert InvestmentNetwork(2, [(0, 1, text)]).edges[0].amount == value

    @pytest.mark.parametrize("build", [
        lambda v: InvestmentNetwork(2, [(0, 1, v)], cost={0: 0}, rate={0: 1}),
        lambda v: InvestmentNetwork(2, [(0, 1, 1)], cost={0: v}, rate={0: 1}),
        lambda v: InvestmentNetwork(2, [(0, 1, 1)], cost={0: 0}, rate={0: v}),
        lambda v: CollateralMatrix(InvestmentNetwork(2, [(0, 1, 1)]), [v]),
        lambda v: StarInstance([v], 0, 1),
        lambda v: StarInstance([1], v, 1),
        lambda v: StarInstance([1], 0, v),
    ], ids=["amount", "cost", "rate", "collateral", "star-amount", "star-cost", "star-rate"])
    def test_a_bool_is_refused_as_a_document_refuses_it(self, build):
        # `True` is an int to Python; as money it reads as 1 no more
        for value in (True, False):
            with pytest.raises(DocumentError, match="expected a rational, got a boolean"):
                build(value)
        with pytest.raises(TypeError):
            build(1.0)
        build(1)

    @pytest.mark.parametrize("text", ["1_000", "\u0661"], ids=["underscore", "arabic-indic-one"])
    def test_a_string_outside_the_grammar_is_refused_on_every_python(self, text):
        # `Fraction` reads "1_000" from Python 3.11 on, and reads "\u0661" as 1
        with pytest.raises(DocumentError, match="cannot parse rational"):
            model.as_money(text)
        with pytest.raises(DocumentError):
            InvestmentNetwork(2, [(0, 1, text)])
