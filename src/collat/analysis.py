"""Equilibrium-structure machinery.

Iterated elimination of dominated strategies (IESDS), viability of a
collateral matrix (all-invest as the unique Nash equilibrium) and its
minimality, solvability of a network by collaterals, and the closed-form
zero/full-collateral threshold conditions.

IESDS (`iterated_elimination`) and the minimality test of a viable matrix
(`is_minimal`: one elimination run under the matrix for its viable order,
then one run per positive collateral with that collateral at 0, started
from the edges resolved before it in that order and from every edge
outside the lowered edge's enterprise component) are adapters over
`model.eliminate`, which holds the tie rule: a player who is exactly
indifferent between investing and defecting invests.  The components are
`solve`'s (`_enterprise_components`): a collateral only moves the edges
into its own component, as all upstream of it resolves without reading it.
`collat verify` hands its IESDS run's viable order to the per-collateral
runs (`_minimal_along`), so it runs the first elimination once.  Per
component, `_minimal_along` also computes once the cascade of the edges
its runs start resolved outside it, and hands it to each run as
`eliminate`'s `within`; as `eliminate` sweeps only the open edges, a run
costs in proportion to the edges into its component, not to the network.
Solvability is a secured-vertex closure on the same scaled funding table
(`InvestmentNetwork.funding`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import cascade, eliminate


def iterated_elimination(net, c):
    """Greedy IESDS over edges: `model.eliminate` from the empty set.

    An edge resolves once its player -- with the resolved edges
    cooperating, everything else defecting, and the default cascade
    applied -- is solvent and weakly prefers to invest.  Returns (resolved
    order, stuck edges).  The final stuck set does not depend on the scan
    order (monotone closure): `eliminate` sweeps in edge index order, and a
    network with its edge list permuted leaves the same edges stuck.
    """
    order, _, _, needs = eliminate(net, c)
    return order, frozenset(needs)


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

    One run under `c` gives the viable order (`collat verify` takes it from
    the IESDS run it has already made, see `_minimal_along`).  The edges
    resolved before e in it resolve with c_e at 0 as well (their needs
    ignore c_e), so e's run starts from that prefix: the closure is
    monotone, so it reaches the same R as a run from the empty set.  It
    also starts with the edges resolved under `c` outside e's enterprise
    component resolved: each either never reaches e's need or lies in R
    (`_minimal_along` proves it).  A positive edge stuck under `c` makes
    `c` not minimal (not viable, in fact): at 0 it resolves a smaller set,
    where its need is no lower than its need under `c`, which exceeds c_e.
    """
    order, _, _, stuck = eliminate(net, c)
    if any(c.amounts[e] for e in stuck):
        return False
    return _minimal_along(net, c, order)


def _minimal_along(net, c, order):
    """`is_minimal` given `order`, the order IESDS resolves under `c`, with
    no positive collateral left stuck: one run per positive collateral e =
    (k, i), at 0, started from the prefix resolved before it and from every
    edge of `order` not into k's enterprise component (on a viable `c`, as
    in `collat verify`: every edge outside that component).

    The start is exact.  Write A for k's funding ancestry (k, its
    investors, theirs, ...; i's lies inside it).
    - e's need reads the edges into k and the solvency of k's investors
      and of i (`model.edge_need`), and a vertex's solvency reads the edges
      into it and its investors' solvency: so e's need, and whether an edge
      into A resolves, reads only the edges into A.
    - A vertex u of A outside k's component has an ancestry without k
      (else u and k would reach each other), so whether an edge into u
      resolves never reads c_e: if it resolves under `c`, it lies in the
      final set R of the run at 0 from the empty set.
    The prefix lies in R too and the closure is monotone, so the run
    reaches the same needs[e] without checking the edges it starts
    resolved.  The components are computed once per call, and so, for each
    component holding a positive collateral, is the cascade of the edges
    its runs start resolved outside it: that set lies in every such run's
    start, so its cascade is `eliminate`'s `within`, and each run's first
    cascade tests only the enterprises that default without the component.
    """
    settled = sum(1 << e for e in order)
    relevant = {}  # enterprise -> the edges into its component
    for comp, _ in _enterprise_components(net):
        mask = sum(bit for k in comp for bit, _, _ in net.funding[k])
        relevant.update(dict.fromkeys(comp, mask))
    outside = {}  # component's edges -> (start outside it, its cascade)
    prefix = 0
    for e in order:
        if c.amounts[e]:
            mask = relevant[net.edges[e].enterprise]
            if mask not in outside:
                rest = settled & ~mask
                outside[mask] = rest, cascade(net, rest)
            rest, within = outside[mask]
            lowered = c.amounts[:e] + (0,) + c.amounts[e + 1:]
            if eliminate(net, lowered, prefix | rest, within)[3].get(e, 0) != c.amounts[e]:
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


def _star_sums(net, k, investor_set, i):
    edge = net.edge_index.get((k, i))
    if edge is None:
        raise ValueError("player %s has no opportunity in enterprise %s" % (i, k))
    x_i = net.edges[edge].amount
    others = Fraction(0)
    for e in net.out_edges[k]:
        if net.edges[e].investor in investor_set:
            others += net.edges[e].amount
    return x_i, others


def zero_collateral_condition(net, k, investor_set, i):
    """True iff, with the investors in `investor_set` already investing in k,
    player i invests for free: x_ki + sum(A) >= Z_k (1 + 1/alpha_k)."""
    x_i, others = _star_sums(net, k, investor_set, i)
    return x_i + others >= net.cost[k] * (1 + Fraction(1, 1) / net.rate[k])


def full_collateral_condition(net, k, investor_set, i):
    """True iff player i's worst-case return is zero, so only a full
    collateral persuades her: x_ki + sum(A) <= Z_k."""
    x_i, others = _star_sums(net, k, investor_set, i)
    return x_i + others <= net.cost[k]


def is_large_alpha(net):
    """Integer-input regime with alpha_k > Z_k for every enterprise, where
    every positive collateral of an optimal solution is a full collateral."""
    for e in net.edges:
        if e.amount.denominator != 1:
            return False
    for k in net.enterprise_set:
        if net.cost[k].denominator != 1:
            return False
        if not net.rate[k] > net.cost[k]:
            return False
    return True
