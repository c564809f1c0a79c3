"""Network-level collateral solvers.

`solve` solves the strongly connected components (SCCs) of the enterprises,
edges oriented enterprise -> investor, downstream first: by then, investors
outside a component always pay, so the optimum is the sum of the component
optima.  A single enterprise is a star (`solve_star`; NEC 1 on acyclic
networks).  A cyclic component runs a dynamic program over resolved
edge-sets; the minimal collateral making an edge eliminable (`model.edge_need`
on the bitmask cascade `model.cascade`) depends only on the *set* of resolved
edges, so the order search drops from O(|E|!) to O(2^|E| |E|), with
`EXACT_GUARD` bounding |E| per component.  For integer inputs with
alpha_k > Z_k every positive collateral of an optimal solution is full; the
DP reaches that optimum as it does any other, so no separate search runs.
`Solution.method` names the whole-network route.  `solve_exact` and
`solve_large_alpha` take the whole network as one component (oracles).
"""
from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .analysis import (
    InfeasibilityWitness,
    _strongly_connected_components,
    is_large_alpha,
    solvability_check,
)
from .model import CollateralMatrix, InvestmentNetwork, TooLargeError, cascade, edge_need
from .star import StarInstance, solve_star

log = logging.getLogger(__name__)

EXACT_GUARD = 20


class CyclicInputError(ValueError):
    """The network contains a directed cycle where an acyclic one is required."""


class Status(enum.Enum):
    SOLVED = "solved"
    INFEASIBLE = "infeasible"


@dataclass
class Solution:
    status: Status
    collaterals: CollateralMatrix | None = None
    total: Fraction | None = None
    order: tuple = ()
    star_totals: dict = field(default_factory=dict)  # actual per-enterprise sums
    star_optima: dict = field(default_factory=dict)  # stand-alone star optima
    nec: Fraction | None = None  # total / sum of star optima; None if infeasible
    witness: InfeasibilityWitness | None = None
    method: str = ""


def star_decomposition(net):
    """One (enterprise, StarInstance, edge index tuple) per enterprise vertex.

    The same investor vertex may appear in several stars.
    """
    out = []
    for k in sorted(net.enterprise_set):
        edge_ids = tuple(net.out_edges[k])
        star = StarInstance(
            [net.edges[e].amount for e in edge_ids], net.cost[k], net.rate[k]
        )
        out.append((k, star, edge_ids))
    return out


def _enterprise_components(net):
    """Enterprise SCCs, downstream first (Tarjan emits a component only after
    every component it reaches), each as (sorted enterprises, cyclic flag)."""
    adjacency = {
        k: [net.edges[e].investor for e in net.out_edges[k]
            if net.edges[e].investor in net.enterprise_set]
        for k in sorted(net.enterprise_set)
    }
    return [
        (sorted(comp), len(comp) > 1 or any(k in adjacency[k] for k in comp))
        for comp in _strongly_connected_components(adjacency)
    ]


def is_acyclic(net):
    return not any(cyclic for _, cyclic in _enterprise_components(net))


def _per_star_sums(net, c):
    return {
        k: sum((c[e] for e in net.out_edges[k]), Fraction(0))
        for k in sorted(net.enterprise_set)
    }


def _solve_components(net, components, method):
    """Solve (enterprises, cyclic flag) components in the given order and
    concatenate, labelled `method`.  A cyclic component's sub-network keeps
    only its own enterprises' edges, so outside investors are plain
    investors, and gets the subset DP."""
    stars = {k: star for k, star, _ in star_decomposition(net)}

    def star_solution(k):
        try:
            return solve_star(stars[k])
        except TooLargeError as exc:
            raise TooLargeError("enterprise %s: %s" % (net.ids[k], exc)) from None

    star_optima, amounts, order = {}, {}, []
    for comp, cyclic in components:
        if cyclic:
            edge_ids = sorted(e for k in comp for e in net.out_edges[k])
            sub = InvestmentNetwork(net.n, [net.edges[e] for e in edge_ids],
                                    net.cost, net.rate, net.ids)
            local, local_order = _subset_dp(sub)
            # star optima only now, so an oversized component trips the guard first
            star_optima.update((k, star_solution(k).total) for k in comp)
        else:  # a single enterprise: its star solution is the component's
            ssol = star_solution(comp[0])
            star_optima[comp[0]] = ssol.total
            edge_ids, local, local_order = net.out_edges[comp[0]], ssol.collaterals, ssol.order
        for pos in local_order:
            amounts[edge_ids[pos]] = local[pos]
            order.append(edge_ids[pos])
    c = CollateralMatrix(net, amounts)
    total = c.total()
    denom = sum(star_optima.values(), Fraction(0))
    return Solution(
        status=Status.SOLVED,
        collaterals=c,
        total=total,
        order=tuple(order),
        star_totals=_per_star_sums(net, c),
        star_optima=star_optima,
        nec=Fraction(1) if denom == 0 else total / denom,
        method=method,
    )


def solve_dag(net):
    """Optimal collaterals for an acyclic network: solve each star of the
    decomposition independently and eliminate enterprises downstream first
    (an enterprise is fully secured before anyone upstream relies on it, so
    cascades never bite)."""
    components = _enterprise_components(net)
    if any(cyclic for _, cyclic in components):
        raise CyclicInputError("network contains a directed cycle")
    out = _solve_components(net, components, "dag")
    assert out.nec == 1
    return out


def _subset_dp(net):
    """Subset DP over resolved edge-sets of a solvable network: cost(S + e)
    relaxes over cost(S) + `edge_need` of e given S.  Every viable
    matrix admits an elimination order, so the DP minimum is the global
    optimum.  Returns (amounts by edge, elimination order)."""
    m = len(net.edges)
    if m > EXACT_GUARD:
        names = ", ".join(str(net.ids[k]) for k in sorted(net.enterprise_set))
        raise TooLargeError(
            "exact solver guard is |E| <= %d; enterprises {%s} have %d edges"
            % (EXACT_GUARD, names, m)
        )
    cascade_memo = {}
    size = 1 << m
    cost = [None] * size
    cost[0] = Fraction(0)
    parent = [-1] * size
    for s_mask in range(size):
        base = cost[s_mask]
        if base is None:
            continue
        for e in range(m):
            bit = 1 << e
            if s_mask & bit:
                continue
            cmask = s_mask | bit
            dmask = cascade_memo.get(cmask)
            if dmask is None:
                dmask = cascade_memo[cmask] = cascade(net, cmask)
            need = edge_need(net, cmask, dmask, e)
            if need is None:
                continue
            new_cost = base + need
            cur = cost[cmask]
            if cur is None or new_cost < cur:
                cost[cmask] = new_cost
                parent[cmask] = e

    full = size - 1
    assert cost[full] is not None  # guaranteed by the solvability check
    amounts = {}
    order = []
    s_mask = full
    while s_mask:
        e = parent[s_mask]
        prev = s_mask ^ (1 << e)
        amounts[e] = cost[s_mask] - cost[prev]
        order.append(e)
        s_mask = prev
    order.reverse()
    return amounts, order


def _solve_whole(net, method):
    check = solvability_check(net)
    if not check.solvable:
        return Solution(Status.INFEASIBLE, witness=check.witness, method=method)
    return _solve_components(net, [(sorted(net.enterprise_set), True)], method)


def solve_exact(net):
    """Exact minimum-total collaterals for any solvable network, by the
    subset DP on the whole network as one component; the oracle for `solve`."""
    return _solve_whole(net, "exact")


def solve_large_alpha(net):
    """`solve_exact` behind a check that the network is in the integer
    large-rate regime (`is_large_alpha`), labelled "large-alpha"; there
    every positive collateral of the optimum is full."""
    if not is_large_alpha(net):
        raise ValueError("network is not in the large-alpha regime")
    return _solve_whole(net, "large-alpha")


def solve(net):
    """Optimal collaterals for any network, by one pass over the enterprise
    SCCs downstream first; the subset DP's guard bounds each component's
    edge count.  `method` names the whole-network route: "star" (one
    enterprise), "dag" (acyclic), "exact" (some component is cyclic) or
    "none" (infeasible)."""
    check = solvability_check(net)
    if not check.solvable:
        return Solution(Status.INFEASIBLE, witness=check.witness, method="none")
    components = _enterprise_components(net)
    if any(cyclic for _, cyclic in components):
        method = "exact"
    else:
        method = "star" if len(net.enterprise_set) == 1 else "dag"
    out = _solve_components(net, components, method)
    log.info("solve ran %s over %d components", method, len(components))
    return out
