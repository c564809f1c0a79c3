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
    solve_exact,
    solve_star,
    star_decomposition,
    zero_collateral_condition,
)
from collat.cli import main as cli_main
from collat.instances import save_network
from collat.model import cascade, eliminate, need_value
from collat.network import solve_dag
from helpers import reference_iesds, reference_is_minimal, unique_all_cooperate


def star_net(amounts, z, alpha):
    edges = [(0, i + 1, x) for i, x in enumerate(amounts)]
    return InvestmentNetwork(len(amounts) + 1, edges, cost={0: z}, rate={0: alpha})


def disjoint_union(a, b):
    """`a` and `b` side by side, `b`'s vertices renumbered after `a`'s: two
    funding branches that share no vertex."""
    edges = [(e.enterprise, e.investor, e.amount) for e in a.edges]
    edges += [(e.enterprise + a.n, e.investor + a.n, e.amount) for e in b.edges]
    return InvestmentNetwork(a.n + b.n, edges, cost=a.cost + b.cost, rate=a.rate + b.rate)


def chained(a, b, rng, investors=None):
    """`a` upstream of `b`: their disjoint union plus one to three edges by
    which enterprises of `a` (of `investors`, if given) invest in
    enterprises of `b`.  An enterprise only raises more, so each stays
    profitable."""
    net = disjoint_union(a, b)
    edges = [(e.enterprise, e.investor, e.amount) for e in net.edges]
    investors = sorted(a.enterprise_set if investors is None else investors)
    if investors and b.enterprise_set:
        links = {(rng.choice(sorted(b.enterprise_set)) + a.n, rng.choice(investors))
                 for _ in range(rng.randint(1, 3))}
        edges += [(k, i, rng.randint(1, 9)) for k, i in sorted(links)]
    return InvestmentNetwork(net.n, edges, cost=net.cost, rate=net.rate)


def mixed(rng):
    """Stars on both sides of a random, usually cyclic, net: an acyclic net
    `down` whose enterprises invest in those of the random net (`chained`),
    whose enterprises invest in those of an acyclic net `up`.  Returns the
    network and the vertices of `down` and of the middle net."""
    down, middle, up = (random_network(rng.randint(3, 7), 3, acyclic=acyclic,
                                       seed=rng.randint(0, 10**6))
                        for acyclic in (True, False, True))
    net = chained(chained(down, middle, rng), up, rng,
                  [k + down.n for k in middle.enterprise_set])
    return net, range(down.n), range(down.n, down.n + middle.n)


def mixed_net():
    """A 2-cycle A <-> B, each with a spike, between stars D and E, where D
    invests in E and E in A, and a star U in which A invests; amounts in
    halves (the network of CI's `mixed` document)."""
    h = Fraction(1, 2)
    a, b, d, e, u, a1, b1, d1, d2, e1, u1, u2 = range(12)
    edges = [(d, d1, 3 * h), (d, d2, 5 * h), (e, d, 1), (e, e1, 2), (a, b, 1), (b, a, 1),
             (a, a1, 2), (b, b1, 2), (a, e, 3 * h), (u, a, 1), (u, u1, 3), (u, u2, h)]
    return InvestmentNetwork(12, edges, cost={a: 3, b: 2, d: 3, e: 5 * h, u: 5 * h},
                             rate={a: 3, b: 2, d: Fraction(7, 2), e: 5, u: 2})


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

    @staticmethod
    def _matrices(net, rng):
        """A random matrix in quarters of the amounts, then, if the network
        is solvable, `solve`'s minimal one, one collateral raised halfway
        to its amount and one positive collateral halved."""
        yield CollateralMatrix(net, [e.amount * Fraction(rng.randint(0, 4), 4) for e in net.edges])
        c = solve(net).collaterals
        if c is None:
            return
        yield c
        below = [e for e in range(len(net.edges)) if c[e] < net.edges[e].amount]
        if below:
            e = rng.choice(below)
            yield c.replace(e, (c[e] + net.edges[e].amount) / 2)
        positive = [e for e in range(len(net.edges)) if c[e]]
        if positive:
            e = rng.choice(positive)
            yield c.replace(e, c[e] / 2)

    def test_matches_the_reference_and_replays(self):
        # acyclic, cyclic and mixed nets: the stuck set is that of one
        # elimination run from the empty set, and each edge of the order
        # resolves at its prefix.  On mixed nets a star downstream of the
        # cycle stays stuck and defaults, which leaves an edge into the
        # middle net stuck with no need (its investor defaults)
        rng = random.Random(83)
        cases, kinds, defaulted_below = 0, set(), 0
        for trial in range(60):
            down = middle = range(0)
            if trial % 3 == 0:
                net = random_network(rng.randint(4, 14), rng.randint(2, 5), acyclic=True,
                                     seed=rng.randint(0, 10**6))
            elif trial % 3 == 1:
                net = random_network(rng.randint(3, 8), 3, seed=rng.randint(0, 10**6))
            else:
                net, down, middle = mixed(rng)
            matrices = list(self._matrices(net, rng))
            if down:  # full collaterals but none into `down`'s stars
                matrices.append(CollateralMatrix(
                    net, [0 if e.enterprise in down else e.amount for e in net.edges]))
            for c in matrices:
                order, stuck = iterated_elimination(net, c)
                reference = reference_iesds(net, c)
                assert stuck == set(reference), (trial, c)
                assert sorted(order) == sorted(net.all_edges() - stuck)
                prefix = 0
                for e in order:
                    mask = prefix | 1 << e
                    need = collat.model.edge_need(net, mask, cascade(net, mask), e)
                    assert need is not None and need <= c[e], (trial, c, e)
                    prefix = mask
                kinds.add((trial % 3, bool(stuck)))
                defaulted_below += any(reference[e] is None and net.edges[e].investor in down
                                       and net.edges[e].enterprise in middle for e in stuck)
                cases += 1
        assert cases > 200 and len(kinds) == 6 and defaulted_below > 5

    def test_stars_that_reach_no_cycle_run_no_elimination(self, monkeypatch, tmp_path):
        # the 113-edge DAG is closed star by star: no elimination run,
        # cascade or need; the mixed net runs one `eliminate`, for
        # the cycle and the star upstream of it
        net = random_network(40, 6, acyclic=True, seed=4)
        assert len(net.edges) == 113
        c = solve(net).collaterals
        calls = []

        def record(name):
            return lambda *args: calls.append(name)

        monkeypatch.setattr(collat.analysis, "eliminate", record("eliminate"))
        monkeypatch.setattr(collat.analysis, "cascade", record("cascade"), raising=False)
        monkeypatch.setattr(collat.model, "cascade", record("cascade"))
        monkeypatch.setattr(collat.model, "edge_need", record("edge_need"))
        monkeypatch.setattr(collat.model, "need_pair", record("need_pair"))
        order, stuck = iterated_elimination(net, c)
        monkeypatch.undo()
        assert calls == [] and not stuck and len(order) == 113

        net = mixed_net()
        sol = solve(net)
        lowered = sol.collaterals.replace(0, sol.collaterals[0] / 2)
        real = collat.analysis.eliminate
        monkeypatch.setattr(collat.analysis, "eliminate",
                            lambda *args: calls.append("eliminate") or real(*args))
        for c, viable in ((sol.collaterals, True), (lowered, False)):
            calls.clear()
            _, stuck = iterated_elimination(net, c)
            assert calls == ["eliminate"] and (not stuck) == viable
        monkeypatch.undo()
        assert stuck == set(reference_iesds(net, lowered)) and 2 in stuck  # (E, D)

        # one decomposition per network: across `solve_dag`, and across a
        # `collat verify` op of the mixed net
        real = collat.analysis._strongly_connected_components
        monkeypatch.setattr(collat.analysis, "_strongly_connected_components",
                            lambda adjacency: calls.append("scc") or real(adjacency))
        calls.clear()
        solve_dag(random_network(40, 6, acyclic=True, seed=4))
        assert calls == ["scc"]
        save_network(net, tmp_path / "mixed.json")
        assert cli_main(["solve", str(tmp_path / "mixed.json"),
                         "--out-file", str(tmp_path / "solve.json")]) == 0
        calls.clear()
        assert cli_main(["verify", str(tmp_path / "mixed.json"), str(tmp_path / "solve.json"),
                         "--out-file", str(tmp_path / "verify.json")]) == 0
        assert calls == ["scc"]


class TestBilateralContrast:
    """The paper's contrast between acyclic and cyclic networks, on the
    bilateral scheme (`bilateral`).  Its cyclic half, the cycle family
    stuck at a total of 6 below the optimum k + 5, is
    `TestIteratedElimination.test_star_decomposition_collaterals_stick_on_cycle_family`."""

    def test_the_bilateral_scheme_is_the_optimum_on_acyclic_networks(self):
        rng = random.Random("bilateral")
        nets = exact = 0
        while nets < 150:
            net = random_network(rng.randint(3, 12), rng.randint(1, 5), acyclic=True,
                                 seed=rng.randrange(10**6))
            if not solvability_check(net).solvable:
                continue
            nets += 1
            c, sol = bilateral(net), solve(net)
            assert is_viable(net, c)
            assert c == sol.collaterals and sol.nec == 1
            if len(net.edges) <= 14:
                exact += 1
                assert c.total() == solve_exact(net).total
        assert exact >= 100


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

    @pytest.mark.parametrize("check", [iterated_elimination, is_viable, is_minimal])
    def test_a_matrix_built_on_another_network_is_refused(self, check):
        # equal collaterals, but on X's scale: Y's verdict would silently change
        y = InvestmentNetwork(2, [(0, 1, Fraction(1, 3))], cost={0: Fraction(1, 3)}, rate={0: 1})
        x = InvestmentNetwork(2, [(0, 1, 1)], cost={0: 1}, rate={0: 1})
        assert is_viable(y, CollateralMatrix(y, [Fraction(1, 3)]))
        with pytest.raises(ValueError, match="^the collateral matrix must be built on the "
                                             "network it is checked on$"):
            check(y, CollateralMatrix(x, [Fraction(1, 3)]))

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
        needs = eliminate(net, [(0, 1)] * m)[3]
        if needs:
            e = rng.choice(sorted(needs))
            yield CollateralMatrix.zeros(net).replace(
                e, (need_value(net, e, needs[e]) or net.edges[e].amount) / 2)

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
        # each run at 0 (one per positive collateral into a cyclic
        # component; the first run is IESDS's own) starts from the prefix
        # of IESDS's viable order plus every edge not into the lowered
        # edge's enterprise component, and from no other edge
        runs = []
        real = collat.analysis.eliminate
        monkeypatch.setattr(collat.analysis, "eliminate",
                            lambda net, c, *args: runs.append((c, args)) or real(net, c, *args))
        rng = random.Random(73)
        checked = skipped = 0
        for trial in range(30):
            net = disjoint_union(
                random_network(rng.randint(6, 12), 4, acyclic=trial % 2 == 0,
                               seed=rng.randint(0, 10**6)),
                random_network(rng.randint(4, 9), 4, seed=rng.randint(0, 10**6)))
            c = solve(net).collaterals
            if c is None:
                continue
            order = iterated_elimination(net, c)[0]
            runs.clear()
            assert is_minimal(net, c)
            pairs = c.on_scale
            for lowered, (start,) in runs[1:]:
                (e,) = [f for f in range(len(net.edges)) if lowered[f] != pairs[f]]
                relevant = component_edges(net, e)
                prefix = set(order[:order.index(e)])
                starts = {f for f in range(len(net.edges)) if start >> f & 1}
                assert starts == prefix & relevant | set(range(len(net.edges))) - relevant
                checked += 1
                skipped += len(set(range(len(net.edges))) - relevant - prefix)
        assert checked > 60 and skipped > 500

    def test_an_acyclic_network_is_checked_star_by_star(self, monkeypatch):
        # on a 113-edge DAG each component is one star: each star with a
        # positive collateral is checked once on its row, and no
        # elimination run, cascade or need is needed
        net = random_network(40, 6, acyclic=True, seed=4)
        assert len(net.edges) == 113
        c = solve(net).collaterals
        order, stuck = iterated_elimination(net, c)
        assert not stuck
        stars = {net.edges[e].enterprise for e in order if c[e]}
        assert len(stars) > 1
        calls, rows = [], []

        def record(name):
            return lambda *args: calls.append(name)

        real = collat.analysis.minimal_in_order
        monkeypatch.setattr(collat.analysis, "eliminate", record("eliminate"))
        monkeypatch.setattr(collat.analysis, "cascade", record("cascade"), raising=False)
        monkeypatch.setattr(collat.model, "cascade", record("cascade"))
        monkeypatch.setattr(collat.model, "edge_need", record("edge_need"))
        monkeypatch.setattr(collat.model, "need_pair", record("need_pair"))
        monkeypatch.setattr(collat.analysis, "minimal_in_order",
                            lambda amounts, *args: rows.append(amounts) or real(amounts, *args))
        assert collat.analysis._minimal_along(net, c, order)
        monkeypatch.undo()
        assert calls == [] and len(rows) == len(stars)

    def test_the_star_path_matches_the_reference(self):
        # acyclic, split and chained nets under minimal, raised, lowered and
        # random matrices, and each of those with its stuck edges set to 0:
        # a non-viable matrix whose stuck edges, some into stars, carry no
        # collateral reaches `_minimal_along` too
        rng = random.Random(79)
        verdicts, stuck_cases = [], 0
        for trial in range(60):
            seeds = [rng.randint(0, 10**6) for _ in range(2)]
            if trial % 3 == 0:
                net = random_network(rng.randint(6, 14), rng.randint(2, 5), acyclic=True,
                                     seed=seeds[0])
            elif trial % 3 == 1:
                net = disjoint_union(
                    random_network(rng.randint(3, 8), 3, acyclic=True, seed=seeds[0]),
                    random_network(rng.randint(3, 8), 3, seed=seeds[1]))
            else:
                net = chained(random_network(rng.randint(3, 7), 3, acyclic=True, seed=seeds[0]),
                              random_network(rng.randint(3, 7), 3, acyclic=trial % 2 == 0,
                                             seed=seeds[1]), rng)
            stars = {comp[0] for comp, cyclic in collat.analysis._enterprise_components(net)
                     if not cyclic}
            matrices = list(self._matrices(net, rng))
            c = solve(net).collaterals
            if c is not None:
                positive = [e for e in range(len(net.edges)) if c[e]]
                if positive:
                    e = rng.choice(positive)
                    matrices.append(c.replace(e, c[e] / 2))
            for c in matrices:
                zeroed = c
                for e in eliminate(net, c.on_scale)[3]:
                    zeroed = zeroed.replace(e, 0)
                for m in (c, zeroed) if zeroed != c else (c,):
                    order, _, _, stuck = eliminate(net, m.on_scale)
                    if any(m[e] for e in stuck):
                        continue
                    expected = reference_is_minimal(net, m)
                    assert collat.analysis._minimal_along(net, m, order) == expected, (trial, m)
                    verdicts.append(expected)
                    stuck_cases += any(net.edges[e].enterprise in stars for e in stuck)
        assert verdicts.count(True) > 100 and verdicts.count(False) > 200 and stuck_cases > 150


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

    def test_a_player_with_no_edge_into_k_is_refused(self):
        net = star_net([1, 3], 2, 1)
        for condition in (zero_collateral_condition, full_collateral_condition):
            with pytest.raises(ValueError, match="^player 2 has no opportunity in enterprise 1$"):
                condition(net, 1, set(), 2)

    def test_rate_zero_frees_no_player(self):
        # Z (1 + 1/alpha) is unbounded at alpha = 0: no capital frees i
        above, covered = star_net([1, 3], 2, 0), star_net([1, 1], 2, 0)
        assert not zero_collateral_condition(above, 0, {2}, 1)
        assert not full_collateral_condition(above, 0, {2}, 1)
        assert not zero_collateral_condition(covered, 0, {2}, 1)
        assert full_collateral_condition(covered, 0, {2}, 1)

    def test_match_the_closed_forms_in_fractions(self):
        rng = random.Random(47)
        for _ in range(300):
            amounts = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(4)]
            z = Fraction(rng.randint(0, 20), rng.randint(1, 4))
            alpha = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            net, i = star_net(amounts, z, alpha), rng.randint(1, 4)
            investors = {v for v in range(1, 5) if rng.random() < 0.5}  # may hold i
            raised = amounts[i - 1] + sum(amounts[v - 1] for v in investors)
            assert zero_collateral_condition(net, 0, investors, i) == (
                raised >= z * (1 + 1 / alpha))
            assert full_collateral_condition(net, 0, investors, i) == (raised <= z)


class TestLargeAlpha:
    def test_cycle_family_is_large_alpha(self):
        assert is_large_alpha(gen_cycle_family(3))

    def test_rate_equal_to_cost_is_not(self):
        net = star_net([3, 3], 2, 2)
        assert not is_large_alpha(net)

    def test_fractional_amounts_are_not(self):
        net = star_net([Fraction(3, 2), 3], 2, 5)
        assert not is_large_alpha(net)

    @pytest.mark.parametrize("rate, large", [
        (Fraction(5, 2), True), (Fraction(3, 2), False), (Fraction(4, 2), False),
        (Fraction(201, 100), True),
    ])
    def test_a_rational_rate_on_an_integer_net(self, rate, large):
        # alpha = p/q > Z iff p > Z q, on the table's pair; 4/2 is Z itself
        net = star_net([3, 3], 2, rate)
        assert net.scale == 1 and is_large_alpha(net) is large
