"""Equilibrium-structure machinery.

Iterated elimination of dominated strategies (IESDS), viability of a
collateral matrix (all-invest as the unique Nash equilibrium) and its
minimality, solvability of a network by collaterals, and the closed-form
zero/full-collateral threshold conditions.

IESDS (`iterated_elimination`) and the minimality test of a viable matrix
(`is_minimal`: one elimination run under the matrix for its viable order,
then one run per positive collateral with that collateral at 0, started
from the edges resolved before it in that order and from every edge
outside the lowered edge's funding ancestry) are adapters over
`model.eliminate`, which holds the tie rule: a player who is exactly
indifferent between investing and defecting invests.  An edge's need only
depends on the capital that flows into its enterprise, so it only moves
with the edges into that enterprise's funding ancestry (the enterprise, its
investors, their investors, ...); starting the others resolved leaves the
need exact and skips their checks.  `collat verify` already has the viable
order from its IESDS run and hands it to the per-collateral runs
(`_minimal_along`) directly, so it runs the first elimination once.
Solvability is a secured-vertex closure on the same scaled funding table
(`InvestmentNetwork.funding`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import eliminate


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
    monotone, so it reaches the same R as a run from the empty set.  The
    run also starts with every edge outside e's funding ancestry resolved,
    which leaves e's need at R unchanged (`_minimal_along` proves it).  A
    positive edge stuck under `c` makes `c` not minimal (not viable, in
    fact): at 0 it resolves a smaller set, where its need is no lower than
    its need under `c`, which exceeds c_e.
    """
    order, _, _, stuck = eliminate(net, c)
    if any(c.amounts[e] for e in stuck):
        return False
    return _minimal_along(net, c, order)


def _minimal_along(net, c, order):
    """`is_minimal` given `order`, the order IESDS resolves under `c`, with
    no positive collateral left stuck: one run per positive collateral e =
    (k, i), at 0, from the prefix resolved before it and every edge
    irrelevant to e already resolved.

    The funding ancestry of a vertex v is v, its investors, their
    investors, and so on; A = ancestry(k) | ancestry(i) (= ancestry(k), as
    i invests in k), and e's relevant edges are the edges into A.  The
    start mask is exact:
    - e's need depends only on which edges into k resolve, the solvency of
      k's investors and the solvency of i (`model.edge_need`);
    - a vertex's solvency in the cascade depends only on the edges into it
      and its investors' solvency, so the cascade's iteration on A never
      reads a vertex or an edge outside A, on cyclic nets too;
    - A is closed under "investor of", so every relevant edge's own
      relevant edges are relevant too: whether it resolves reads only
      relevant edges and its own collateral.
    The closure's relevant part, and with it e's need, therefore does not
    depend on any irrelevant edge, resolved or not: `eliminate(net,
    lowered, prefix | irrelevant)` returns the same needs[e] as
    `eliminate(net, lowered, prefix)`, without checking (and rerunning the
    cascade for) the irrelevant edges.  The ancestry is walked once per
    enterprise per call.
    """
    everything = (1 << len(net.edges)) - 1
    relevant = {}
    prefix = 0
    for e in order:
        if c.amounts[e]:
            k = net.edges[e].enterprise
            if k not in relevant:
                relevant[k] = _edges_into_ancestry(net, k)
            lowered = c.amounts[:e] + (0,) + c.amounts[e + 1:]
            start = prefix | everything & ~relevant[k]
            if eliminate(net, lowered, start)[3].get(e, 0) != c.amounts[e]:
                return False
        prefix |= 1 << e
    return True


def _edges_into_ancestry(net, k):
    """Bitmask of the edges into k's funding ancestry: the edges into k,
    into k's investors, into their investors, and so on."""
    edges, seen, stack = 0, 1 << k, [k]
    while stack:
        for bit, investor, _ in net.funding.get(stack.pop(), ()):
            edges |= bit
            if not seen >> investor & 1:
                seen |= 1 << investor
                stack.append(investor)
    return edges


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
