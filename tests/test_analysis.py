import random
from fractions import Fraction

import pytest

import collat.analysis
import collat.model
from collat import (
    CollateralMatrix,
    InvestmentNetwork,
    full_collateral_condition,
    gen_cycle_family,
    is_large_alpha,
    is_minimal,
    is_viable,
    iterated_elimination,
    random_network,
    solvability_check,
    solve,
    solve_star,
    star_decomposition,
    zero_collateral_condition,
)
from collat.model import cascade, eliminate
from helpers import reference_is_minimal, unique_all_cooperate


def star_net(amounts, z, alpha):
    edges = [(0, i + 1, x) for i, x in enumerate(amounts)]
    return InvestmentNetwork(len(amounts) + 1, edges, cost={0: z}, rate={0: alpha})


def disjoint_union(a, b):
    """`a` and `b` side by side, `b`'s vertices renumbered after `a`'s: two
    funding branches that share no vertex."""
    edges = [(e.enterprise, e.investor, e.amount) for e in a.edges]
    edges += [(e.enterprise + a.n, e.investor + a.n, e.amount) for e in b.edges]
    return InvestmentNetwork(a.n + b.n, edges, cost=a.cost + b.cost, rate=a.rate + b.rate)


def chained(a, b, rng):
    """`a` upstream of `b`: their disjoint union plus one to three edges by
    which enterprises of `a` invest in enterprises of `b`.  An enterprise
    only raises more, so each stays profitable."""
    net = disjoint_union(a, b)
    edges = [(e.enterprise, e.investor, e.amount) for e in net.edges]
    if a.enterprise_set and b.enterprise_set:
        links = {(rng.choice(sorted(b.enterprise_set)) + a.n, rng.choice(sorted(a.enterprise_set)))
                 for _ in range(rng.randint(1, 3))}
        edges += [(k, i, rng.randint(1, 9)) for k, i in sorted(links)]
    return InvestmentNetwork(net.n, edges, cost=net.cost, rate=net.rate)


def bilateral(net):
    """The bilateral scheme: each star of `star_decomposition` priced on its
    own (`solve_star`), its vector placed on that star's edges."""
    amounts = {}
    for _, star, edge_ids in star_decomposition(net):
        amounts.update(zip(edge_ids, solve_star(star).collaterals))
    return CollateralMatrix(net, amounts)


def component_edges(net, e):
    """The edges into the vertices that edge e's enterprise k reaches and
    that reach k, following edges from enterprise to investor (k's
    enterprise component), by two walks over the edge list."""
    def reach(forward):
        seen, frontier = set(), {net.edges[e].enterprise}
        while frontier:
            seen |= frontier
            frontier = {x.investor if forward else x.enterprise for x in net.edges
                        if (x.enterprise if forward else x.investor) in frontier} - seen
        return seen
    both = reach(True) & reach(False)
    return {f for f, x in enumerate(net.edges) if x.enterprise in both}


class TestIteratedElimination:
    def test_full_collaterals_resolve_simple_star(self):
        net = star_net([1, 1], 1, 1)
        resolved, stuck = iterated_elimination(net, CollateralMatrix.full(net))
        assert stuck == frozenset()
        assert sorted(resolved) == [0, 1]

    def test_zero_collaterals_stick_on_simple_star(self):
        net = star_net([1, 1], 1, 1)
        resolved, stuck = iterated_elimination(net, CollateralMatrix.zeros(net))
        assert resolved == []
        assert stuck == net.all_edges()

    @pytest.mark.parametrize("k", [3, 5, 7, 12])
    def test_star_decomposition_collaterals_stick_on_cycle_family(self, k):
        # the per-star optima total 6, but leave the heavy spikes and the
        # cycle edges stuck; the network optimum is k + 5
        net = gen_cycle_family(k)
        c = bilateral(net)
        assert c.total() == 6 and solve(net).total == k + 5
        _, stuck = iterated_elimination(net, c)
        heavy_spikes = {e for e, edge in enumerate(net.edges) if edge.amount == k}
        assert stuck  # not viable: the decomposition sum never stabilizes a cycle
        assert heavy_spikes <= stuck
        assert not is_viable(net, c)

    def test_star_decomposition_collaterals_are_optimal_on_acyclic_networks(self):
        # without a cycle the bilateral scheme is viable and costs no more
        # than the network optimum
        rng = random.Random(29)
        for _ in range(60):
            net = random_network(rng.randint(3, 9), rng.randint(1, 4), acyclic=True,
                                 seed=rng.randrange(10**6))
            c = bilateral(net)
            assert is_viable(net, c)
            assert c.total() == solve(net).total

    def test_scan_order_does_not_change_stuck_set(self):
        # elimination sweeps in edge index order, so the same network with
        # its edge list permuted is scanned in another order
        rng = random.Random(17)
        for trial in range(30):
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            amounts = [Fraction(rng.randint(0, 2), rng.randint(1, 2)) for _ in net.edges]
            _, reference = iterated_elimination(net, CollateralMatrix(net, amounts))
            for _ in range(3):
                perm = list(range(len(net.edges)))  # new index -> old index
                rng.shuffle(perm)
                permuted = InvestmentNetwork(
                    net.n, [net.edges[e] for e in perm], net.cost, net.rate, net.ids
                )
                c = CollateralMatrix(permuted, [amounts[e] for e in perm])
                _, stuck = iterated_elimination(permuted, c)
                assert {perm[e] for e in stuck} == reference


class TestViability:
    def test_full_collaterals_viable_on_solvable_networks(self):
        rng = random.Random(29)
        for trial in range(20):
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            if solvability_check(net).solvable:
                assert is_viable(net, CollateralMatrix.full(net))

    def test_zero_collaterals_not_viable_on_simple_star(self):
        net = star_net([1, 1], 1, 1)
        assert not is_viable(net, CollateralMatrix.zeros(net))

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(31)
        done = 0
        while done < 25:
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            if not 0 < len(net.edges) <= 8:
                continue
            done += 1
            for c in (
                CollateralMatrix.full(net),
                CollateralMatrix.zeros(net),
                CollateralMatrix(
                    net,
                    [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in net.edges],
                ),
            ):
                assert is_viable(net, c) == unique_all_cooperate(net, c)


class TestMinimality:
    """`is_minimal`, whose runs start from the viable order's prefix,
    against `reference_is_minimal`, one run from the empty set per positive
    collateral."""

    def _matrices(self, net, rng):
        m = len(net.edges)
        for _ in range(4):  # from 0 to full, in quarters: many not viable
            yield CollateralMatrix(
                net, [e.amount * Fraction(rng.randint(0, 4), 4) for e in net.edges])
        sol = solve(net)
        if sol.collaterals is not None:
            c = sol.collaterals
            yield c
            below = [e for e in range(m) if c[e] < net.edges[e].amount]
            if below:
                e = rng.choice(below)
                yield c.replace(e, (c[e] + net.edges[e].amount) / 2)
        # zero collaterals but one stuck edge's, which stays short of its need:
        # every resolved edge is at 0, so only that edge's verdict counts
        needs = eliminate(net, CollateralMatrix.zeros(net))[3]
        if needs:
            e = rng.choice(sorted(needs))
            yield CollateralMatrix.zeros(net).replace(e, (needs[e] or net.edges[e].amount) / 2)

    def test_matches_the_reference(self):
        rng = random.Random(61)
        verdicts = []
        for trial in range(90):
            kind = trial % 3  # acyclic, cyclic, large-alpha
            net = random_network(rng.randint(3, 8), 3, acyclic=kind == 0,
                                 seed=rng.randint(0, 10**6), large_alpha=kind == 2)
            for c in self._matrices(net, rng):
                expected = reference_is_minimal(net, c)
                assert is_minimal(net, c) == expected, (trial, c)
                verdicts.append(expected)
        assert verdicts.count(True) > 50 and verdicts.count(False) > 200

    def test_matches_the_reference_on_wide_and_split_nets(self):
        # on small nets k's enterprise component holds most edges; on wide
        # DAGs, on two disjoint branches and on a cyclic net funding another
        # one most edges lie outside it, and the chained nets' runs only
        # hold if the upstream component resolves on its own
        rng = random.Random(67)
        verdicts = []
        for trial in range(60):
            if trial >= 40:
                net = chained(random_network(rng.randint(3, 7), 3, seed=rng.randint(0, 10**6)),
                              random_network(rng.randint(3, 7), 3, seed=rng.randint(0, 10**6),
                                             large_alpha=trial % 4 == 2), rng)
            elif trial % 2:
                net = random_network(rng.randint(10, 16), rng.randint(2, 5), acyclic=True,
                                     seed=rng.randint(0, 10**6))
            else:
                net = disjoint_union(
                    random_network(rng.randint(3, 8), 3, acyclic=True, seed=rng.randint(0, 10**6)),
                    random_network(rng.randint(3, 8), 3, seed=rng.randint(0, 10**6),
                                   large_alpha=trial % 4 == 2))
            for c in self._matrices(net, rng):
                expected = reference_is_minimal(net, c)
                assert is_minimal(net, c) == expected, (trial, c)
                verdicts.append(expected)
        assert verdicts.count(True) > 25 and verdicts.count(False) > 150

    def test_an_upstream_edge_stuck_under_c_stays_open(self):
        # u = 0, funded by 1 and 2, invests in k = 3 beside r = 4.  At zero
        # collaterals the edges into u stay stuck, so u defaults and (k, r)
        # needs its full 4; started resolved, u would pay and (k, r) need 0
        net = InvestmentNetwork(5, [(0, 1, 5), (0, 2, 5), (3, 0, 6), (3, 4, 4)],
                                cost={0: 8, 3: 5}, rate={0: 10, 3: 10})
        c = CollateralMatrix.zeros(net).replace(3, 4)
        assert not is_viable(net, c)
        assert is_minimal(net, c) and reference_is_minimal(net, c)

    def test_runs_start_with_the_irrelevant_edges_resolved(self, monkeypatch):
        # each run at 0 starts from the viable order's prefix plus every edge
        # not into the lowered edge's enterprise component, and from no
        # other edge; its `within` is the cascade of those outside edges
        runs = []
        real = collat.analysis.eliminate
        monkeypatch.setattr(collat.analysis, "eliminate",
                            lambda net, c, *args: runs.append((c, args)) or real(net, c, *args))
        rng = random.Random(73)
        checked = skipped = 0
        for trial in range(30):
            net = disjoint_union(
                random_network(rng.randint(4, 9), 3, acyclic=True, seed=rng.randint(0, 10**6)),
                random_network(rng.randint(4, 9), 3, acyclic=trial % 2 == 0,
                               seed=rng.randint(0, 10**6)))
            c = solve(net).collaterals
            if c is None:
                continue
            runs.clear()
            assert is_minimal(net, c)
            order = real(net, c)[0]
            for lowered, (start, within) in runs[1:]:
                (e,) = [f for f in range(len(net.edges)) if lowered[f] != c[f]]
                relevant = component_edges(net, e)
                prefix = set(order[:order.index(e)])
                starts = {f for f in range(len(net.edges)) if start >> f & 1}
                assert starts == prefix & relevant | set(range(len(net.edges))) - relevant
                assert within == cascade(net, start & ~sum(1 << f for f in relevant))
                checked += 1
                skipped += len(set(range(len(net.edges))) - relevant - prefix)
        assert checked > 60 and skipped > 500

    def test_runs_cost_in_proportion_to_the_lowered_component(self, monkeypatch):
        # on a 113-edge DAG each component is one star: the plain cascade
        # runs once per component with a positive collateral (its runs get
        # it as `within`), and every need priced is of an edge into the
        # lowered edge's component
        net = random_network(40, 6, acyclic=True, seed=4)
        assert len(net.edges) == 113
        c = solve(net).collaterals
        order, stuck = iterated_elimination(net, c)
        assert not stuck
        positive = [e for e in order if c[e]]
        components = {frozenset(component_edges(net, e)) for e in positive}
        assert len(positive) > len(components) > 1
        plain = []
        lowered, priced = [], []
        real_cascade, real_need = collat.model.cascade, collat.model.edge_need
        real_eliminate = collat.analysis.eliminate

        def counting_cascade(net, cooperate_mask, within=None):
            if within is None:
                plain.append(cooperate_mask)
            return real_cascade(net, cooperate_mask, within)

        def recording_eliminate(net, amounts, *args):
            (e,) = [f for f in range(len(net.edges)) if amounts[f] != c[f]]
            lowered.append(e)
            return real_eliminate(net, amounts, *args)

        def recording_need(net, cmask, dmask, edge):
            priced.append((lowered[-1], edge))
            return real_need(net, cmask, dmask, edge)

        monkeypatch.setattr(collat.model, "cascade", counting_cascade)
        monkeypatch.setattr(collat.analysis, "cascade", counting_cascade)
        monkeypatch.setattr(collat.analysis, "eliminate", recording_eliminate)
        monkeypatch.setattr(collat.model, "edge_need", recording_need)
        assert collat.analysis._minimal_along(net, c, order)
        monkeypatch.undo()
        assert lowered == positive
        assert 0 < len(plain) <= len(components)
        assert priced and all(edge in component_edges(net, e) for e, edge in priced)


class TestSolvability:
    def test_star_always_solvable(self):
        assert solvability_check(star_net([1, 1, 2], 2, 1)).solvable

    def test_spikeless_two_cycle_infeasible(self):
        net = InvestmentNetwork(2, [(0, 1, 1), (1, 0, 1)], cost={0: 1, 1: 1}, rate={0: 5, 1: 5})
        result = solvability_check(net)
        assert not result.solvable
        assert result.witness.vertices == {0, 1}
        assert result.witness.shortfalls == {0: 1, 1: 1}

    def test_two_cycle_with_spikes_solvable(self):
        net = InvestmentNetwork(
            4,
            [(0, 1, 1), (1, 0, 1), (0, 2, 1), (1, 3, 1)],
            cost={0: 1, 1: 1},
            rate={0: 5, 1: 5},
        )
        result = solvability_check(net)
        assert result.solvable
        assert result.secured == (0, 1)

    def test_verdict_matches_full_collateral_viability(self):
        rng = random.Random(37)
        for trial in range(25):
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            assert solvability_check(net).solvable == is_viable(net, CollateralMatrix.full(net))

    def test_secured_set_matches_full_collateral_elimination(self):
        # IESDS under full collaterals is an independent oracle: an edge
        # stays stuck iff its investor is an enterprise the closure left
        # unsecured
        rng = random.Random(43)
        infeasible = 0
        for trial in range(200):
            net = random_network(rng.randint(2, 8), 3, seed=rng.randint(0, 10**6),
                                 large_alpha=trial % 2 == 1)
            result = solvability_check(net)
            unsecured = net.enterprise_set - set(result.secured)
            _, stuck = iterated_elimination(net, CollateralMatrix.full(net))
            assert stuck == {e for e, edge in enumerate(net.edges) if edge.investor in unsecured}
            assert len(set(result.secured)) == len(result.secured)
            assert result.solvable == (not unsecured)
            infeasible += not result.solvable
        assert infeasible > 20

    def test_witness_satisfies_both_conditions(self):
        rng = random.Random(41)
        seen = 0
        trial = 0
        while seen < 5 and trial < 400:
            trial += 1
            net = random_network(rng.randint(3, 6), 3, seed=rng.randint(0, 10**6))
            result = solvability_check(net)
            if result.solvable:
                continue
            seen += 1
            w = result.witness.vertices
            # every vertex of W on a directed cycle inside W
            inside = [(e.enterprise, e.investor) for e in net.edges
                      if e.enterprise in w and e.investor in w]
            for v in w:
                assert _on_cycle(v, inside)
            # every enterprise in W short of external funding
            for k in w & net.enterprise_set:
                external = sum(
                    (net.edges[e].amount for e in net.out_edges[k]
                     if net.edges[e].investor not in w),
                    Fraction(0),
                )
                assert external < net.cost[k]
        assert seen == 5, "generator never produced infeasible instances"


def _on_cycle(v, edges):
    # DFS from v's successors back to v
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    stack = list(adj.get(v, []))
    seen = set()
    while stack:
        u = stack.pop()
        if u == v:
            return True
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj.get(u, []))
    return False


class TestThresholdConditions:
    def test_zero_collateral_boundary_counts(self):
        net = star_net([1, 3], 2, 1)
        assert zero_collateral_condition(net, 0, {2}, 1)

    def test_zero_collateral_below_threshold(self):
        net = star_net([1, 2], 2, 1)
        assert not zero_collateral_condition(net, 0, {2}, 1)

    def test_cycle_family_heavy_spike_invests_free(self):
        for k in (3, 7, 13):
            net = gen_cycle_family(k)
            # enterprise A: unit spike and cycle investor in, heavy spike asks
            heavy = next(
                e for e in net.out_edges[0] if net.edges[e].amount == k
            )
            others = {
                net.edges[e].investor for e in net.out_edges[0] if e != heavy
            }
            assert zero_collateral_condition(net, 0, others, net.edges[heavy].investor)

    def test_full_collateral_lone_investor(self):
        net = star_net([1], 1, 1)
        assert full_collateral_condition(net, 0, set(), 1)

    def test_full_collateral_under_cost(self):
        net = star_net([2, 1], 3, 1)
        assert full_collateral_condition(net, 0, {2}, 1)

    def test_partial_enough_above_cost(self):
        net = star_net([2, 2], 3, 1)
        assert not full_collateral_condition(net, 0, {2}, 1)


class TestLargeAlpha:
    def test_cycle_family_is_large_alpha(self):
        assert is_large_alpha(gen_cycle_family(3))

    def test_rate_equal_to_cost_is_not(self):
        net = star_net([3, 3], 2, 2)
        assert not is_large_alpha(net)

    def test_fractional_amounts_are_not(self):
        net = star_net([Fraction(3, 2), 3], 2, 5)
        assert not is_large_alpha(net)
