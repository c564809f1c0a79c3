"""Network-level collateral solvers.

Every entry point is a labelled view of one pass (`_solve_components`):
`solvability_check` first (if infeasible: the witness, method "none"),
then the strongly connected components (SCCs) of the enterprises, edges
oriented enterprise -> investor, downstream first
(`analysis._enterprise_components`, which also bounds each of `collat
verify`'s minimality runs and decides `is_acyclic`): by then, investors
outside a component always pay, so the optimum is the sum of the component
optima (a cyclic component holding every edge runs on the network itself,
any other on a sub-network of its enterprises' edges).  Before any
component runs, a solvable network must pass `validate_network` (else a
ValueError joins its violations), so every entry point rejects what
`collat check` rejects, in its words.  A single enterprise is a star
(`price_star` on the scaled table; NEC 1 on the acyclic networks
`solve_dag` takes).  In
`solve` a cyclic component runs an exact best-first (A*) search over
resolved edge-sets (`_search`): the minimal collateral making an edge
eliminable (`model.edge_need` on the bitmask cascade `model.cascade`)
depends only on the *set* of resolved edges, so states are sets, not
orders.  Each state jumps to its closure under zero-need eliminations
(`model.eliminate` with zero collaterals), and a consistent lower bound
(each star's no-default completion cost) steers the search, so it expands a
small fraction of the 2^|E| sets; a tie rule picks among optimal matrices,
and `SEARCH_BUDGET` bounds the work per component.  The root bound sums each
star's completion from nothing, which is the star's stand-alone optimum, so
the search hands those back as the component's star optima (the NEC's
denominator) and `price_star` runs only on single-enterprise components.
`solve_exact` and `solve_large_alpha` take the whole network as one
component and run the exhaustive subset dynamic program (`_subset_dp`,
O(2^|E| |E|), `EXACT_GUARD` on |E|) instead, with star optima from
`price_star`: the oracles, so they check the root bound too.
For integer inputs with alpha_k > Z_k every positive collateral of an
optimal solution is full; both reach that optimum as they do any other,
so no separate search runs.  `Solution.method` names the whole-network
route.
"""
from __future__ import annotations

import enum
import heapq
import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .analysis import (
    InfeasibilityWitness,
    _enterprise_components,
    is_large_alpha,
    solvability_check,
)
from .model import (
    CollateralMatrix,
    InvestmentNetwork,
    TooLargeError,
    cascade,
    edge_need,
    eliminate,
    validate_network,
)
from .star import StarInstance, cheapest, price_star, sigma, suffix_dp, unscale

log = logging.getLogger(__name__)

EXACT_GUARD = 20  # edges of one component in the subset DP
SEARCH_BUDGET = 1 << 14  # expansions plus bound entries per component in `_search`


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
    # total / sum of star optima; None if infeasible.  Star optima summing
    # to 0 give 1, even where the total is positive (an undefined ratio)
    nec: Fraction | None = None
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


def is_acyclic(net):
    return not any(cyclic for _, cyclic in _enterprise_components(net))


def _star_solution(net, k):
    """`price_star` on enterprise k's row of the scaled table; its guard
    error names k."""
    try:
        priced = price_star([net.scaled_amounts[e] for e in net.out_edges[k]],
                            net.scaled_costs[k], net.rate[k])
    except TooLargeError as exc:
        raise TooLargeError("enterprise %s: %s" % (net.ids[k], exc)) from None
    return unscale(priced, net.scale)


def _solve_components(net, components, method, cyclic_solver):
    """The one solver pass: `solvability_check` first (if infeasible, the
    witness and method "none"), then `validate_network` (a ValueError
    joining its violations with "; " if any), then the (enterprises,
    cyclic flag) components in the given order, concatenated and labelled
    `method`.  A single enterprise is priced by `_star_solution`.  A cyclic
    component's sub-network keeps only its own enterprises' edges (`net`
    itself if that is every edge), so outside investors are plain
    investors, and goes to `cyclic_solver`, which also returns the star
    optima: from `solve` the best-first search (`_search`, under
    `SEARCH_BUDGET`; its root bound), from the oracles the subset DP
    (`_subset_dp`, under `EXACT_GUARD`; `_star_solution`).  An investor
    out of range fails `validate_network` before `solvability_check`,
    whose closure shifts a mask by each investor."""
    if not all(0 <= e.investor < net.n for e in net.edges):
        raise ValueError("; ".join(validate_network(net).violations))
    check = solvability_check(net)
    if not check.solvable:
        return Solution(Status.INFEASIBLE, witness=check.witness, method="none")
    violations = validate_network(net).violations
    if violations:
        raise ValueError("; ".join(violations))
    star_optima, amounts, order = {}, {}, []
    for comp, cyclic in components:
        if cyclic:
            edge_ids = sorted(e for k in comp for e in net.out_edges[k])
            sub = net
            if len(edge_ids) < len(net.edges):
                sub = InvestmentNetwork(net.n, [net.edges[e] for e in edge_ids],
                                        net.cost, net.rate, net.ids)
            local, local_order, optima = cyclic_solver(sub)
            star_optima.update(optima)
        else:  # a single enterprise: its star solution is the component's
            ssol = _star_solution(net, comp[0])
            star_optima[comp[0]] = ssol.total
            edge_ids, local, local_order = net.out_edges[comp[0]], ssol.collaterals, ssol.order
        for pos in local_order:
            amounts[edge_ids[pos]] = local[pos]
            order.append(edge_ids[pos])
    c = CollateralMatrix(net, amounts)
    # every edge lies in one enterprise's out_edges: the star totals sum to c's
    star_totals = {k: sum((c[e] for e in net.out_edges[k]), Fraction(0))
                   for k in sorted(net.enterprise_set)}
    total = sum(star_totals.values(), Fraction(0))
    denom = sum(star_optima.values(), Fraction(0))
    return Solution(
        status=Status.SOLVED,
        collaterals=c,
        total=total,
        order=tuple(order),
        star_totals=star_totals,
        star_optima=star_optima,
        nec=Fraction(1) if denom == 0 else total / denom,
        method=method,
    )


def solve_dag(net):
    """`solve` for an acyclic network (CyclicInputError otherwise), a solved
    result labelled "dag": every component is one star, solved downstream
    first, so cascades never bite and the NEC is 1."""
    if not is_acyclic(net):
        raise CyclicInputError("network contains a directed cycle")
    out = solve(net)
    if out.status is Status.SOLVED:
        out.method = "dag"
    return out


def _component_names(net):
    return ", ".join(str(net.ids[k]) for k in sorted(net.enterprise_set))


def _subset_dp(net):
    """Subset DP over resolved edge-sets of a solvable network: cost(S + e)
    relaxes over cost(S) + `edge_need` of e given S.  Every viable
    matrix admits an elimination order, so the DP minimum is the global
    optimum.  The star optima come from `_star_solution`, first: an
    oversized star trips its guard, with its name, before the DP's own.
    Returns (amounts by edge, elimination order, star optima)."""
    optima = {k: _star_solution(net, k).total for k in sorted(net.enterprise_set)}
    m = len(net.edges)
    if m > EXACT_GUARD:
        raise TooLargeError(
            "exact solver guard is |E| <= %d; enterprises {%s} have %d edges"
            % (EXACT_GUARD, _component_names(net), m)
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
    return amounts, order, optima


def _search(net):
    """Best-first (A*) search over resolved edge-sets of a solvable network,
    with the optimum of `_subset_dp`.

    `edge_need` is antitone in the cooperating set, which gives two exact
    tools.  Free closure: an edge whose need is 0 can be eliminated first
    at no cost, after which no need rises, so each state jumps to its
    closure under zero-need eliminations (the same set in any order):
    `model.eliminate` with every collateral at 0, from the state and the
    cascade of its parent, which also leaves each child edge's need.
    Lower bound: h(S) sums, over the enterprises k, the least cost of
    resolving the rest of star k from S with no investor defaulting.
    Defaults only raise needs, so h never overestimates, and h(S) -
    h(S + e) is at most e's no-default need, itself at most need_e(S + e):
    h is consistent, so the first full state taken from the queue is
    optimal.  The root bound h(empty) prices each whole star, so its terms
    are the stand-alone star optima (an oversized star trips its DP guard,
    with its name, before any expansion).

    Ties: the queue yields the least bound, then the most resolved edges,
    then the least edge bitmask; a state keeps the first path to reach it
    at its least cost; a closure adds its free edges in the order of
    `model.eliminate`'s sweeps (index order, repeated until none is free).
    `SEARCH_BUDGET` caps the expansions plus the star-bound entries
    (TooLargeError beyond it); every memo lives for one call.
    Returns (amounts by edge, elimination order, star optima)."""
    m = len(net.edges)
    full = (1 << m) - 1
    zero, zeros = Fraction(0), [0] * m
    star_mask = {k: sum(1 << e for e in net.out_edges[k]) for k in net.enterprise_set}
    # per star: scaled amounts by local player, sigma as (player, edge)
    # pairs, and resolved edges -> completion
    stars = {}
    for k in star_mask:
        edges = net.out_edges[k]
        amounts = [net.scaled_amounts[e] for e in edges]
        stars[k] = (amounts, [(i, edges[i]) for i in sigma(amounts)], {})
    expansions = entries = 0

    def check_budget():
        if expansions + entries > SEARCH_BUDGET:
            raise TooLargeError(
                "search budget is %d expansions plus bound entries; enterprises {%s} "
                "with %d edges reached %d expansions and %d bound entries"
                % (SEARCH_BUDGET, _component_names(net), m, expansions, entries)
            )

    def completion(k, resolved):
        """Least cost of resolving the edges of star k outside the bitmask
        `resolved` with no investor defaulting: `suffix_dp` over them, the
        resolved ones counting as eliminated first at no cost; its
        `cheapest` integer pair becomes one Fraction per table entry."""
        nonlocal entries
        amounts, order, table = stars[k]
        value = table.get(resolved)
        if value is None:
            entries += 1
            check_budget()
            players = [i for i, e in order if not resolved >> e & 1]
            try:
                layer = suffix_dp(amounts, net.scaled_costs[k], net.rate[k], players)
            except TooLargeError as exc:
                raise TooLargeError("enterprise %s: %s" % (net.ids[k], exc)) from None
            num, den, _ = cheapest(layer)
            value = table[resolved] = Fraction(num, den * net.scale)
        return value

    # the root bound's terms: the stand-alone star optima
    optima = {k: completion(k, 0) for k in sorted(star_mask)}
    bound = sum(optima.values(), zero)
    # (bound, -resolved edges, raw mask, parent closed mask, edge, need)
    queue = [(bound, 0, 0, None, -1, zero)]
    best = {0: bound}  # raw mask -> least bound pushed
    # closed mask -> (parent, edge, cost, free edges, cascade)
    came_from = {None: (None, -1, zero, (), None)}
    while True:
        bound, _, raw, parent, edge, need = heapq.heappop(queue)
        if best[raw] is not bound:
            continue
        # the free closure; the needs left at it are the children's
        free, closed, dmask, needs = eliminate(net, zeros, raw, came_from[parent][4])
        if closed in came_from:
            continue
        g = came_from[parent][2] + need
        came_from[closed] = (parent, edge, g, free, dmask)
        if closed == full:
            break
        expansions += 1
        check_budget()
        for e, cneed in needs.items():
            if cneed is None:
                continue
            k = net.edges[e].enterprise
            resolved = closed & star_mask[k]
            cmask = closed | 1 << e
            child = bound + cneed - completion(k, resolved) + completion(k, resolved | 1 << e)
            prev = best.get(cmask)
            if prev is None or child < prev:
                best[cmask] = child
                heapq.heappush(queue, (child, -cmask.bit_count(), cmask, closed, e, cneed))
    log.info("search: enterprises {%s}: %d edges, %d expansions, %d closed states, "
             "%d bound entries", _component_names(net), m, expansions,
             len(came_from) - 1, entries)
    amounts, segments = {}, []
    while closed is not None:
        parent, edge, g, free, _ = came_from[closed]
        amounts.update((e, zero) for e in free)
        segments.append(free)
        if edge >= 0:
            amounts[edge] = g - came_from[parent][2]
            segments.append([edge])
        closed = parent
    return amounts, [e for segment in reversed(segments) for e in segment], optima


def solve_exact(net):
    """Exact minimum-total collaterals for any solvable network, by the
    subset DP on the whole network as one component; the oracle for `solve`."""
    return _solve_components(net, [(sorted(net.enterprise_set), True)], "exact", _subset_dp)


def solve_large_alpha(net):
    """`solve_exact` behind a check that the network is in the integer
    large-rate regime (`is_large_alpha`), labelled "large-alpha"; there
    every positive collateral of the optimum is full."""
    if not is_large_alpha(net):
        raise ValueError("network is not in the large-alpha regime")
    return _solve_components(net, [(sorted(net.enterprise_set), True)], "large-alpha", _subset_dp)


def solve(net):
    """Optimal collaterals for any network, by one pass over the enterprise
    SCCs downstream first; each cyclic component runs the best-first search
    (`_search`) under `SEARCH_BUDGET`, and among optimal matrices its tie
    rule picks one, so the matrix may differ from `solve_exact`'s while the
    status, total, NEC and witness do not.  `method` names the
    whole-network route: "star" (one enterprise), "dag" (acyclic), "exact"
    (some component is cyclic) or "none" (infeasible)."""
    components = _enterprise_components(net)
    if any(cyclic for _, cyclic in components):
        method = "exact"
    else:
        method = "star" if len(net.enterprise_set) == 1 else "dag"
    out = _solve_components(net, components, method, _search)
    log.info("solve ran %s over %d components", out.method, len(components))
    return out
