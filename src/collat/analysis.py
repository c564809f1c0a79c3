"""Equilibrium-structure machinery.

Iterated elimination of dominated strategies (IESDS), viability of a
collateral matrix (all-invest as the unique Nash equilibrium) and its
minimality, solvability of a network by collaterals, and the closed-form
zero/full-collateral threshold conditions.

IESDS (`iterated_elimination`) and the minimality test of a viable matrix
(`is_minimal`) work by enterprise component, as `solve` solves
(`_enterprise_components`, computed once per network and kept on it), and
keep the tie rule of `model.eliminate`: a player who is exactly
indifferent between investing and defecting invests.  IESDS closes each
star (single-enterprise component) that reaches no cyclic component on its
own row of the scaled table, downstream first (`star.close_star`, on
integers, with no cascade), and runs one `eliminate` over the rest,
started from the edges the stars resolved.  Minimality takes IESDS's
viable order and checks each positive collateral by component: a
collateral only moves the edges into its own component, as all upstream
of it resolves without reading it.  A star's collaterals are checked on
its row (`star.minimal_in_order`), with no elimination run or cascade, so
an acyclic network is checked star by star.  A collateral into a cyclic
component gets one run with that collateral at 0, started from the edges
resolved before it in the viable order and from every edge outside its
component.  `collat verify` hands its IESDS run's viable order to the
per-component checks (`_minimal_along`), so it runs IESDS once.  As
`eliminate` sweeps only the open edges, a run costs in proportion to the
edges into its component, not to the network.
Solvability is a secured-vertex closure on the same scaled funding table
(`InvestmentNetwork.funding`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import eliminate, least_collateral_pair
from .star import close_star, minimal_in_order


def iterated_elimination(net, c):
    """Greedy IESDS over edges, by enterprise component, downstream first
    (`_enterprise_components`): the closure of `model.eliminate` from the
    empty set.  `c` must be built on `net` itself (else ValueError).

    An edge resolves once its player -- with the resolved edges
    cooperating, everything else defecting, and the default cascade
    applied -- is solvent and weakly prefers to invest.  A star (a
    single-enterprise component) that reaches no cyclic component closes
    on its own row of the scaled table (`star.close_star`, on integers): its
    investors are settled downstream, so a defaulted one's edge stays stuck,
    each other edge's need reads only the capital its resolved edges raise,
    and the star's enterprise defaults iff that capital ends below its
    cost.  The rest (cyclic components and what is upstream of them) runs
    one `eliminate`, started from the edges the stars resolved.  Returns
    (resolved order, stuck edges): the stars' sweeps in component order,
    then `eliminate`'s in edge index order.  The stuck set does not depend
    on the scan order (monotone closure): a network with its edge list
    permuted leaves the same edges stuck.
    """
    if c.net is not net:
        raise ValueError("the collateral matrix must be built on the network it is checked on")
    pairs, scaled_amounts, costs = c.on_scale, net.scaled_amounts, net.scaled_costs
    order, resolved, defaulted, tangled = [], 0, 0, 0
    for comp, cyclic in _enterprise_components(net):
        k = comp[0]
        if cyclic or tangled and any(tangled >> i & 1 for _, i, _ in net.funding[k]):
            tangled |= sum(1 << v for v in comp)
            continue
        edges = net.out_edges[k]
        if defaulted:
            edges = [e for e, (_, i, _) in zip(edges, net.funding[k]) if not defaulted >> i & 1]
        joined, raised = close_star([scaled_amounts[e] for e in edges], costs[k], net.rate_pq[k],
                                    [pairs[e] for e in edges])
        for p in joined:
            order.append(edges[p])
            resolved |= 1 << edges[p]
        if raised < costs[k]:
            defaulted |= 1 << k
    if tangled:
        rest, _, _, needs = eliminate(net, pairs, resolved)
        return order + rest, frozenset(needs)
    return order, frozenset(e for e in range(len(net.edges)) if not resolved >> e & 1)


def is_viable(net, c):
    """True iff the collaterals make all-invest the unique Nash equilibrium.

    Dominance solvability to all-invest is equivalent to uniqueness of the
    all-invest equilibrium (dominance solvability forces uniqueness; the
    converse follows from monotonicity); the exhaustive
    profile-enumeration tests back this equivalence empirically.
    """
    _, stuck = iterated_elimination(net, c)
    return not stuck


def is_minimal(net, c):
    """True iff no single collateral of the viable matrix `c` can be lowered.

    With edge e at 0, IESDS resolves a set R without e.  Every other edge's
    payoff ignores c_e, so lowering c_e keeps the matrix viable iff e can
    still resolve at R; the collateral e needs is antitone in the resolved
    set, so its least value over the run is the one at R, and `c` is
    minimal iff every positive c_e equals it.

    IESDS under `c` (`iterated_elimination`) gives the viable order
    (`collat verify` hands over the run it has already made, see
    `_minimal_along`).  The edges resolved before e in it resolve with c_e
    at 0 as well (their needs ignore c_e), so e's run starts from that
    prefix: the closure is monotone, so it reaches the same R as a run
    from the empty set.  It
    also starts with the edges resolved under `c` outside e's enterprise
    component resolved: each either never reaches e's need or lies in R
    (`_minimal_along` proves it, and on a star runs that closure on the
    star's row alone).  A positive edge stuck under `c` makes
    `c` not minimal (not viable, in fact): at 0 it resolves a smaller set,
    where its need is no lower than its need under `c`, which exceeds c_e.
    """
    order, stuck = iterated_elimination(net, c)
    if any(c.amounts[e] for e in stuck):
        return False
    return _minimal_along(net, c, order)


def _minimal_along(net, c, order):
    """`is_minimal` given `order`, the order IESDS resolves under `c`, with
    no positive collateral left stuck, by enterprise component, as `solve`
    solves.

    A single-enterprise acyclic component {k} is checked as a star
    (`star.minimal_in_order` on k's row of the scaled table): p_1..p_r,
    the edges into k in `order`, in that order; p_j at 0 starts with
    p_1..p_(j-1) raised and closes over the rest.  That is exact: it is
    the run from the prefix and every edge outside {k} (below), since
    - k's investors cannot have k in their funding ancestry (k would then
      lie on a cycle), so their solvency reads only edges the run starts
      with resolved: every investor of an edge in `order` stays solvent;
    - an edge into k stuck under `c` stays stuck with a collateral
      lowered, as the closure is monotone in `c` (on `is_minimal`'s
      non-viable matrices such edges carry zero collateral);
    - with every investor solvent, a need into k reads only the sum of the
      resolved edges into k.
    So an acyclic network runs no `eliminate` and no cascade here.

    A cyclic component runs one `eliminate` per positive collateral e =
    (k, i) into it, at 0, started from the prefix resolved before it and
    from every edge of `order` not into k's enterprise component (on a
    viable `c`, as in `collat verify`: every edge outside that component).
    That start is exact too.  Write A for k's funding ancestry (k, its
    investors, theirs, ...; i's lies inside it).
    - e's need reads the edges into k and the solvency of k's investors
      and of i (`model.need_pair`), and a vertex's solvency reads the edges
      into it and its investors' solvency: so e's need, and whether an edge
      into A resolves, reads only the edges into A.
    - A vertex u of A outside k's component has an ancestry without k
      (else u and k would reach each other), so whether an edge into u
      resolves never reads c_e: if it resolves under `c`, it lies in the
      final set R of the run at 0 from the empty set.
    The prefix lies in R too and the closure is monotone, so the run
    reaches the same needs[e] without checking the edges it starts
    resolved (a pair on the scale, compared with c_e on integers).
    """
    pairs = c.on_scale
    rows = {}  # acyclic enterprise -> its edges in `order`
    relevant = {}  # enterprise of a cyclic component -> the edges into the component
    for comp, cyclic in _enterprise_components(net):
        if cyclic:
            mask = sum(bit for k in comp for bit, _, _ in net.funding[k])
            relevant.update(dict.fromkeys(comp, mask))
        else:
            rows[comp[0]] = []
    for e in order:
        row = rows.get(net.edges[e].enterprise)
        if row is not None:
            row.append(e)
    for k, row in rows.items():
        if any(pairs[e][0] for e in row) and not minimal_in_order(
                [net.scaled_amounts[e] for e in row], net.scaled_costs[k], net.rate_pq[k],
                [pairs[e] for e in row]):
            return False
    if not relevant:
        return True
    settled = sum(1 << e for e in order)
    prefix = 0
    for e in order:
        mask = relevant.get(net.edges[e].enterprise)
        if mask is not None and pairs[e][0]:
            lowered = pairs[:e] + ((0, 1),) + pairs[e + 1:]
            need, (cs, cd) = eliminate(net, lowered, prefix | settled & ~mask)[3].get(e), pairs[e]
            if need is None or need[0] * cd != cs * need[1]:
                return False
        prefix |= 1 << e
    return True


@dataclass(frozen=True)
class InfeasibilityWitness:
    """A vertex set W in which every vertex lies on a directed cycle inside W
    while every enterprise in W cannot cover its cost from outside W.  Such a
    set certifies that no collateral matrix is viable."""

    vertices: frozenset
    shortfalls: dict = field(hash=False, default_factory=dict)


@dataclass
class SolvabilityResult:
    solvable: bool
    witness: InfeasibilityWitness | None = None
    secured: tuple = ()


def solvability_check(net):
    """Decide whether any viable collateral matrix exists.

    A monotone closure on the scaled funding table: start with every
    non-enterprise vertex secured, and secure enterprise k once its
    investors in the secured set bring at least its cost (their money is
    guaranteed, by full collaterals downstream).  The network is solvable
    iff every enterprise ends up secured; `secured` lists the enterprises in
    the order the closure secured them.  On failure the witness comes from
    the unsecured vertices (`_witness`).
    """
    secured_mask = ~sum(1 << k for k in net.funding)
    secured = []
    changed = True
    while changed:
        changed = False
        for k, funding in net.funding.items():
            if secured_mask >> k & 1:
                continue
            raised = sum(amount for _, investor, amount in funding if secured_mask >> investor & 1)
            if raised >= net.scaled_costs[k]:
                secured_mask |= 1 << k
                secured.append(k)
                changed = True
    if len(secured) == len(net.funding):
        return SolvabilityResult(True, None, tuple(secured))
    return SolvabilityResult(False, _witness(net, secured_mask), tuple(secured))


def _witness(net, secured_mask):
    """Witness for infeasibility from the closure's unsecured vertices.

    Restricting the edges with an unsecured investor (oriented enterprise ->
    investor) to their sink strongly connected components yields a set W
    where every vertex lies on a cycle (a one-vertex sink component is
    dropped; on a profitable network an unsecured enterprise keeps an
    unsecured investor) and, by closure under those edges, each
    enterprise's investors outside W are exactly its secured ones -- whose
    total inflow is below its cost, or the closure would have secured it."""
    adjacency = {}
    for e in net.edges:
        if not secured_mask >> e.investor & 1:
            adjacency.setdefault(e.enterprise, []).append(e.investor)
            adjacency.setdefault(e.investor, [])
    components = _strongly_connected_components(adjacency)
    component_of = {}
    for idx, comp in enumerate(components):
        for v in comp:
            component_of[v] = idx
    sinks = set(range(len(components)))
    for v, heads in adjacency.items():
        for u in heads:
            if component_of[v] != component_of[u]:
                sinks.discard(component_of[v])
    vertices = set()
    for idx in sinks:
        if len(components[idx]) > 1:
            vertices.update(components[idx])
    shortfalls = {}
    for k in sorted(vertices & net.enterprise_set):
        external = sum(amount for _, investor, amount in net.funding[k] if investor not in vertices)
        if external < net.scaled_costs[k]:
            shortfalls[k] = Fraction(net.scaled_costs[k] - external, net.scale)
    return InfeasibilityWitness(frozenset(vertices), shortfalls)


def _enterprise_components(net):
    """Enterprise SCCs, downstream first (Tarjan emits a component only after
    every component it reaches), each as (sorted enterprises, cyclic flag).
    Computed once per network and kept on it (a network is not changed
    after it is built)."""
    if net._components is None:
        firms = net.enterprise_set
        adjacency = {k: [i for _, i, _ in net.funding[k] if i in firms] for k in sorted(firms)}
        components = []
        for comp in _strongly_connected_components(adjacency):
            comp = sorted(comp)
            components.append((comp, len(comp) > 1 or comp[0] in adjacency[comp[0]]))
        net._components = tuple(components)
    return net._components


def _strongly_connected_components(adjacency):
    """Tarjan's algorithm, iterative; returns a list of vertex sets."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    def visit(root):
        work = [(root, iter(adjacency.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = lowlink[u] = counter[0]
                    counter[0] += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(adjacency.get(u, ()))))
                    advanced = True
                    break
                if u in on_stack:
                    lowlink[v] = min(lowlink[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = set()
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    comp.add(u)
                    if u == v:
                        break
                components.append(comp)

    for v in adjacency:
        if v not in index:
            visit(v)
    return components


def _star_need(net, k, investor_set, i):
    edge = net.edge_index.get((k, i))
    if edge is None:
        raise ValueError("player %s has no opportunity in enterprise %s" % (i, k))
    x_i = net.scaled_amounts[edge]
    raised = x_i + sum(a for _, j, a in net.funding[k] if j in investor_set)
    return least_collateral_pair(x_i, raised, net.scaled_costs[k], net.rate_pq[k])


def zero_collateral_condition(net, k, investor_set, i):
    """True iff, with the investors in `investor_set` already investing in k,
    player i invests for free: x_ki + sum(A) >= Z_k (1 + 1/alpha_k)."""
    return _star_need(net, k, investor_set, i)[0] == 0


def full_collateral_condition(net, k, investor_set, i):
    """True iff player i's worst-case return is zero, so only a full
    collateral persuades her: x_ki + sum(A) <= Z_k."""
    num, den = _star_need(net, k, investor_set, i)
    return den == 1 and num != 0


def is_large_alpha(net):
    """Integer-input regime with alpha_k = p/q > Z_k (p > Z_k q) for every
    enterprise, where every positive collateral of an optimal solution is a
    full collateral (the table's scale is 1 iff every amount and cost is an int)."""
    pq = net.rate_pq
    return net.scale == 1 and all(pq[k][0] > z * pq[k][1] for k, z in net.scaled_costs.items())
