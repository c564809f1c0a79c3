"""Equilibrium-structure machinery.

Iterated elimination of dominated strategies (IESDS), viability of a
collateral matrix (all-invest as the unique Nash equilibrium), solvability of
a network by collaterals, and the closed-form zero/full-collateral threshold
conditions.

IESDS runs on the cooperate bitmask through `model.invests`, which holds the
single tie rule of the whole codebase: a player who is exactly indifferent
between investing and defecting invests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import CollateralMatrix, invests


def iterated_elimination(net, c, scan_order=None):
    """Greedy IESDS over edges.

    At each step, scan the unresolved edges for one whose player -- with the
    resolved edges cooperating, everything else defecting, and the default
    cascade applied -- is solvent and weakly prefers to invest; append it to
    the order.  Returns (resolved order, stuck edges).  The final stuck set
    does not depend on the scan order (monotone closure); `scan_order` exists
    so tests can check exactly that.
    """
    if scan_order is None:
        scan_order = range(len(net.edges))
    scan_order = list(scan_order)
    resolved = []
    resolved_mask = 0
    progress = True
    while progress:
        progress = False
        for edge in scan_order:
            if not resolved_mask >> edge & 1 and invests(net, c, resolved_mask, edge):
                resolved.append(edge)
                resolved_mask |= 1 << edge
                progress = True
    return resolved, frozenset(e for e in scan_order if not resolved_mask >> e & 1)


def is_viable(net, c):
    """True iff the collaterals make all-invest the unique Nash equilibrium.

    Dominance solvability to all-invest is equivalent to uniqueness of the
    all-invest equilibrium (dominance solvability forces uniqueness; the
    converse follows from monotonicity); the exhaustive
    profile-enumeration tests back this equivalence empirically.
    """
    _, stuck = iterated_elimination(net, c)
    return not stuck


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
    reduction_steps: list = field(default_factory=list)


def solvability_check(net):
    """Decide whether any viable collateral matrix exists.

    Runs the iterative graph reduction: while some enterprise's inflow from
    pure investors (spikes) covers its cost, delete it together with its
    spikes and re-source its own outgoing investments from fresh synthetic
    spike vertices.  The network is solvable iff the graph empties.  On
    failure the terminal cyclic core is returned as a witness.
    """
    # Working copy; synthetic spike ids start at net.n and are recorded in
    # the reduction steps for traceability.
    edges = [(e.enterprise, e.investor, e.amount) for e in net.edges]
    cost = {k: net.cost[k] for k in range(net.n)}
    next_id = net.n
    steps = []
    while edges:
        out_deg = {}
        for k, _, _ in edges:
            out_deg[k] = out_deg.get(k, 0) + 1
        removable = None
        for k in sorted(out_deg):
            spike_inflow = sum(
                (x for kk, i, x in edges if kk == k and out_deg.get(i, 0) == 0),
                Fraction(0),
            )
            if spike_inflow >= cost.get(k, Fraction(0)):
                removable = k
                break
        if removable is None:
            return SolvabilityResult(False, _witness_from_stuck_core(net), steps)
        replacements = []
        new_edges = []
        for k, i, x in edges:
            if k == removable:
                continue  # opportunities offered by the removed enterprise
            if i == removable:
                # the removed firm's own investment, now guaranteed: re-source
                # it from a fresh spike vertex
                replacements.append((next_id, k, x))
                new_edges.append((k, next_id, x))
                next_id += 1
            else:
                new_edges.append((k, i, x))
        steps.append({"removed": removable, "spawned": replacements})
        edges = new_edges
    return SolvabilityResult(True, None, steps)


def _witness_from_stuck_core(net):
    """Witness for infeasibility, from the stuck core of a full-collateral
    IESDS run.

    Restricting the stuck subgraph (edges oriented enterprise -> investor)
    to its sink strongly connected components yields a set W where every
    vertex lies on a cycle (a sink component cannot be a single vertex, as
    every stuck vertex keeps a stuck funding edge) and, by closure under
    stuck out-edges, each enterprise's investors outside W are exactly its
    resolved ones -- whose total inflow is below its cost, or the enterprise
    would not be stuck."""
    _, stuck = iterated_elimination(net, CollateralMatrix.full(net))
    adjacency = {}
    for e in stuck:
        edge = net.edges[e]
        adjacency.setdefault(edge.enterprise, []).append(edge.investor)
        adjacency.setdefault(edge.investor, [])
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
        external = sum(
            (net.edges[e].amount for e in net.out_edges[k] if net.edges[e].investor not in vertices),
            Fraction(0),
        )
        if external < net.cost[k]:
            shortfalls[k] = net.cost[k] - external
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
