"""Core model of the networked investment game.

A directed edge (k, i) with weight x_ki is an opportunity of player i to
invest the amount x_ki in the enterprise of vertex k.  Players decide per
edge whether to invest ("cooperate") or decline ("defect").  An enterprise
that fails to raise its operational cost defaults and withdraws all of its
own investments, which can cascade.

`InvestmentNetwork` builds the one table every layer after the parser
reads: it keeps Fractions it is given as they are, and scales the amounts
and enterprise costs once, with integer arithmetic (`scaled`), over a
common denominator (`scaled_amounts`, `scaled_costs`, and per enterprise
the `funding` rows); a component's sub-network goes through the same
constructor.  `validate_network` checks profitability on those integers
(`is_profitable`).  `cascade` is the one cascade loop: bitmasks over
edges and vertices, on the scaled integers.  On them `least_collateral` is
the solver's one least-collateral formula (`star._minimal_amount`: the
Fraction reference) and `edge_need`, on top of the cascade, the least
collateral that makes an edge invest.  `eliminate` is the one elimination
loop on top of both, and holds the tie rule (resolve iff solvent and c_e >=
need): IESDS, `collat verify`'s minimality test and the search's free
closure all run it.
`best_response` (on a full cascade), `default_determination`,
`enterprise_return`, `edge_utility` and `is_nash_equilibrium` stay as the
definitional reference.

All monetary quantities are `fractions.Fraction`.  Comparisons are exact and
ties are load-bearing (capital exactly covering the cost counts as solvent;
a payoff exactly matching the defect payoff resolves to investing), so
nothing in this package uses floats.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

Money = Fraction
_ZERO = Fraction(0)  # `edge_need`'s "nothing": one object, never rebuilt


def as_money(value):
    """Convert to an exact Fraction, rejecting floats outright.  A Fraction
    (not a subclass) is immutable and already exact, so it comes back as it
    is: the parser has built every amount, cost and rate already."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "float amounts are not allowed; pass int, Fraction or a 'p/q' string"
        )
    return Fraction(value)


class TooLargeError(ValueError):
    """The instance exceeds a solver's state-space guard; the solvers refuse
    rather than approximate (the problem is NP-hard in general)."""


@dataclass(frozen=True)
class Edge:
    """Investment opportunity: `investor` may put `amount` into `enterprise`."""

    enterprise: int
    investor: int
    amount: Fraction


class Action(enum.Enum):
    COOPERATE = "cooperate"
    DEFECT = "defect"


class InvestmentNetwork:
    """An investment network: vertices, weighted opportunity edges, and
    per-enterprise cost / interest-rate parameters.

    Vertices are integers 0..n-1; `ids` optionally carries external names for
    reporting.  `cost[k]` and `rate[k]` are only meaningful for enterprise
    vertices (non-zero out-degree); they default to 0 elsewhere.  An edge's
    enterprise must be a vertex (ValueError otherwise); an investor out of
    range is left to `validate_network`.
    """

    def __init__(self, n, edges, cost=None, rate=None, ids=None):
        self.n = n = int(n)
        norm = []
        for e in edges:
            if not isinstance(e, Edge):
                k, i, x = e
                e = Edge(int(k), int(i), as_money(x))
            elif type(e.amount) is not Fraction:
                e = Edge(e.enterprise, e.investor, as_money(e.amount))
            norm.append(e)
        self.edges = tuple(norm)
        self.cost = self._per_vertex(cost)
        self.rate = self._per_vertex(rate)
        self.ids = tuple(ids) if ids is not None else tuple(range(n))
        self.out_edges = {k: [] for k in range(n)}
        for idx, e in enumerate(self.edges):
            out = self.out_edges.get(e.enterprise)
            if out is None:
                raise ValueError("edge %d: endpoint out of range" % idx)
            out.append(idx)
        self.enterprise_set = frozenset(e.enterprise for e in self.edges)
        self.edge_index = {(e.enterprise, e.investor): idx for idx, e in enumerate(self.edges)}
        # the cascade's integers: every amount and enterprise cost times `scale`
        m, firms = len(self.edges), sorted(self.enterprise_set)
        self.scale, ints = scaled([e.amount for e in self.edges] + [self.cost[k] for k in firms])
        self.scaled_amounts = tuple(ints[:m])
        self.scaled_costs = dict(zip(firms, ints[m:]))
        self.funding = {
            k: tuple((1 << e, self.edges[e].investor, self.scaled_amounts[e])
                     for e in self.out_edges[k])
            for k in self.scaled_costs
        }

    def _per_vertex(self, values):
        """n Fractions, one per vertex; a sequence of n Fractions is kept
        as it is (as a tuple)."""
        if values is None:
            return (Fraction(0),) * self.n
        if isinstance(values, dict):
            return tuple(as_money(values.get(v, 0)) for v in range(self.n))
        out = tuple(values)
        if not all(type(v) is Fraction for v in out):
            out = tuple(as_money(v) for v in out)
        if len(out) != self.n:
            raise ValueError("per-vertex parameter length must equal n")
        return out

    def total_opportunities(self, k):
        """X_k: the sum of investment opportunities in enterprise k."""
        return sum((self.edges[e].amount for e in self.out_edges[k]), Fraction(0))

    def all_edges(self):
        return frozenset(range(len(self.edges)))

    def __repr__(self):
        return "InvestmentNetwork(n=%d, edges=%d)" % (self.n, len(self.edges))


@dataclass(frozen=True)
class InvestState:
    """Fixed point of the default cascade: defaulted vertices plus the
    surviving invest edges (cooperate edges whose investor is solvent and
    whose enterprise did not default)."""

    defaulted: frozenset
    invest: frozenset


class CollateralMatrix:
    """Per-edge nonnegative collateral amounts, aligned with a network's
    edge list.  Amounts above the investment are normalized down to it:
    they are payoff-equivalent and normalization keeps minimality tests
    well-defined."""

    def __init__(self, net, amounts):
        self.net = net
        if isinstance(amounts, dict):
            values = [amounts.get(e, 0) for e in range(len(net.edges))]
        else:
            values = list(amounts)
            if len(values) != len(net.edges):
                raise ValueError("collateral vector length must match edge count")
        out = []
        for v, edge in zip(values, net.edges):
            c, x = as_money(v), edge.amount
            if c.numerator < 0:
                raise ValueError("collateral amounts must be nonnegative")
            # min(c, x), exact on numerators and denominators
            out.append(x if c.numerator * x.denominator > x.numerator * c.denominator else c)
        self.amounts = tuple(out)

    @classmethod
    def zeros(cls, net):
        return cls(net, [0] * len(net.edges))

    @classmethod
    def full(cls, net):
        return cls(net, [e.amount for e in net.edges])

    def total(self):
        return sum(self.amounts, Fraction(0))

    def replace(self, edge, amount):
        values = list(self.amounts)
        values[edge] = amount
        return CollateralMatrix(self.net, values)

    def __getitem__(self, edge):
        return self.amounts[edge]

    def __iter__(self):
        return iter(self.amounts)

    def __eq__(self, other):
        return isinstance(other, CollateralMatrix) and self.amounts == other.amounts

    def __repr__(self):
        return "CollateralMatrix(%s)" % (self.amounts,)


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self):
        return not self.violations


def validate_network(net):
    """Check structural invariants and per-enterprise profitability.

    Ids must differ as strings: a report keys enterprises by `str(id)`, so
    ids such as 1 and "1" would share an entry.  Profitability requires
    (1 + alpha_k)(X_k - Z_k) >= X_k for every enterprise k
    (`is_profitable`, on the scaled integers; the Fractions are formatted
    only for a violation's text); unprofitable enterprises should be
    removed from the input rather than modeled.  Returns an itemized report
    and never raises.
    """
    violations = []
    first = {}
    for v, vid in enumerate(net.ids):
        u = first.setdefault(str(vid), v)
        if u != v:
            violations.append("vertices %d and %d: ids %r and %r are equal as strings"
                              % (u, v, net.ids[u], vid))
    seen = set()
    for idx, e in enumerate(net.edges):
        if net.scaled_amounts[idx] <= 0:
            violations.append("edge %d (%s -> %s): non-positive edge weight" % (idx, e.enterprise, e.investor))
        if e.enterprise == e.investor:
            violations.append("edge %d: self-edge at vertex %s" % (idx, e.enterprise))
        if not (0 <= e.enterprise < net.n and 0 <= e.investor < net.n):
            violations.append("edge %d: endpoint out of range" % idx)
        key = (e.enterprise, e.investor)
        if key in seen:
            violations.append("duplicate edge (%s, %s)" % key)
        seen.add(key)
    for k in sorted(net.enterprise_set):
        if net.scaled_costs[k] < 0:
            violations.append("enterprise %s: negative cost" % (k,))
        if net.rate[k].numerator <= 0:
            violations.append("enterprise %s: rate must be positive" % (k,))
        if not is_profitable(net, k):
            x_total = net.total_opportunities(k)
            try:
                terms = "((1+%s)(%s-%s) < %s)" % (net.rate[k], x_total, net.cost[k], x_total)
            except ValueError:  # a sum longer than Python writes an int
                terms = "(its terms are too long to write)"
            violations.append("enterprise %s: unprofitable %s" % (k, terms))
    return ValidationReport(violations)


def scaled(values):
    """(scale, ints): the Fractions `values` times their least common denominator."""
    scale = math.lcm(*{x.denominator for x in values})
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def profitable(total, cost, rate):
    """(1 + alpha)(X - Z) >= X on integers of one scale: (p+q)(X - Z) >= qX."""
    p, q = rate.numerator, rate.denominator
    return (p + q) * (total - cost) >= q * total


def is_profitable(net, k):
    """`profitable` on enterprise k's row of the scaled table."""
    return profitable(sum(a for _, _, a in net.funding[k]), net.scaled_costs[k], net.rate[k])


def cascade(net, cooperate_mask, within=None):
    """Least fixed point of the default cascade (worst-case, zero recovery),
    as the bitmask of defaulted vertices for a bitmask of cooperate edges.

    Repeatedly mark any enterprise whose raised capital falls strictly below
    its cost as defaulted, which drops all of that firm's own investments.
    The result is independent of processing order.  Raising exactly Z_k
    counts as solvent.

    The result is antitone in `cooperate_mask`, so for a superset of a mask
    whose cascade is known, `within` may pass that cascade: only its
    enterprises are tested, with the same result.
    """
    if within is None:
        firms = net.funding.items()
    else:
        firms = []
        while within:
            low = within & -within
            k = low.bit_length() - 1
            firms.append((k, net.funding[k]))
            within ^= low
    defaulted = 0
    changed = True
    while changed:
        changed = False
        for k, funding in firms:
            if defaulted >> k & 1:
                continue
            raised = 0
            for bit, investor, amount in funding:
                if cooperate_mask & bit and not defaulted >> investor & 1:
                    raised += amount
            if raised < net.scaled_costs[k]:
                defaulted |= 1 << k
                changed = True
    return defaulted


def default_determination(net, cooperate):
    """`cascade` on a set of cooperate edges, as an `InvestState`: the
    defaulted vertices plus the cooperate edges whose investor and
    enterprise both survive."""
    cooperate = frozenset(cooperate)
    mask = 0
    for e in cooperate:
        mask |= 1 << e
    defaulted = cascade(net, mask)
    return InvestState(
        frozenset(k for k in net.funding if defaulted >> k & 1),
        frozenset(
            e for e in cooperate
            if not defaulted >> net.edges[e].investor & 1
            and not defaulted >> net.edges[e].enterprise & 1
        ),
    )


def least_collateral(a, raised, cost, rate):
    """The solver's one least-collateral formula: a's worst-case shortfall
    a * clamp(1 - (1+alpha)(1 - Z/P), 0, 1), with P = `raised`, Z = `cost`
    and alpha = `rate`, on integers of one scale (an int, or a Fraction)."""
    if raised <= cost:
        return a
    # 1 - (1+p/q)(1 - Z/P) = (q P - (p+q)(P - Z)) / (q P)
    p, q = rate.numerator, rate.denominator
    num = q * raised - (p + q) * (raised - cost)
    if num <= 0:
        return 0
    return Fraction(a * num, q * raised)


def edge_need(net, cooperate_mask, defaulted_mask, edge):
    """Least collateral that makes `edge`'s player weakly prefer investing,
    with the edges of `cooperate_mask` (which holds `edge`) cooperating and
    `defaulted_mask = cascade(net, cooperate_mask)`.

    None if the investor defaults (the edge then pays 0 < x whatever the
    collateral), else `least_collateral` on the scaled integers, with P the
    enterprise's capital from its surviving cooperating investors (x if the
    enterprise defaults: then P < Z).  Only the result is a Fraction.
    """
    e = net.edges[edge]
    if defaulted_mask >> e.investor & 1:
        return None
    k = e.enterprise
    raised = 0
    for bit, investor, amount in net.funding[k]:
        if cooperate_mask & bit and not defaulted_mask >> investor & 1:
            raised += amount
    need = least_collateral(net.scaled_amounts[edge], raised, net.scaled_costs[k], net.rate[k])
    if type(need) is int:  # nothing or the whole amount
        return e.amount if need else _ZERO
    return need / net.scale


def eliminate(net, c, resolved=0, within=None):
    """Iterated elimination under the collaterals `c`, from the bitmask
    `resolved` (`within`, if given, is the cascade of a subset of it).

    Sweeps the unresolved edges in index order and resolves each edge e
    whose `edge_need` with `resolved | e` cooperating is not None and <=
    c_e -- the tie rule: exact indifference resolves to investing -- until
    a sweep resolves nothing.  The result is a monotone closure: the final
    set depends on neither the sweep order nor the edge list's order.
    Each sweep walks a list of the open edges only: the first is read off
    the bits outside `resolved`, each later one is the last sweep's
    unresolved edges (its `needs`, kept in index order), so a run costs
    in proportion to its open edges, not to the network.  The comparison
    with c_e is exact on numerators and denominators (c_e may be an int).
    The defaulted mask is kept along the way; only an edge into a defaulted
    enterprise k can change it, and then the cascade reruns over those
    enterprises alone -- unless the rescue test fails: if the edges of
    `resolved | e` into k raise less than Z_k even counting every investor,
    solvent or not, k defaults whatever the others do.  Adding e then
    changes the funding of k alone, which is in both fixed points, so the
    cascade is unchanged and the mask is kept without a rerun.  The test
    reads a pledged sum per enterprise (the scaled amounts of its resolved
    edges, summed when first read and then kept up to date), so it is
    `pledged[k] + x_e >= Z_k` in O(1).

    Returns (order, resolved mask, defaulted mask, needs), where `needs`
    maps each still-unresolved edge to its need at the final set
    (None if its investor would default).
    """
    defaulted = cascade(net, resolved, within)
    edges, funding, costs, amounts = net.edges, net.funding, net.scaled_costs, net.scaled_amounts
    sweep = []
    rest = ((1 << len(edges)) - 1) & ~resolved
    while rest:
        low = rest & -rest
        sweep.append(low.bit_length() - 1)
        rest ^= low
    pledged = {}
    order = []
    while True:
        needs = {}
        for e in sweep:
            bit = 1 << e
            cmask, dmask = resolved | bit, defaulted
            k = edges[e].enterprise
            if defaulted >> k & 1:
                pledge = pledged.get(k)
                if pledge is None:
                    pledge = pledged[k] = sum(a for b, _, a in funding[k] if resolved & b)
                if pledge + amounts[e] >= costs[k]:  # the rescue test
                    dmask = cascade(net, cmask, defaulted)
            need = edge_need(net, cmask, dmask, e)
            if need is not None:
                ce = c[e]
                if need.numerator * ce.denominator <= ce.numerator * need.denominator:
                    resolved, defaulted = cmask, dmask
                    order.append(e)
                    if k in pledged:
                        pledged[k] += amounts[e]
                    continue
            needs[e] = need
        if len(needs) == len(sweep):
            return order, resolved, defaulted, needs
        sweep = list(needs)


def enterprise_return(net, invest, edge):
    """Proportional share of the enterprise's net return for one invest edge,
    clamped at zero."""
    if edge not in invest:
        raise ValueError("return is undefined for a non-invest edge")
    e = net.edges[edge]
    k = e.enterprise
    raised = Fraction(0)
    for other in net.out_edges[k]:
        if other in invest:
            raised += net.edges[other].amount
    total_net = (1 + net.rate[k]) * (raised - net.cost[k])
    if total_net <= 0:
        return Fraction(0)
    return total_net * e.amount / raised


def edge_utility(net, c, cooperate, edge):
    """Utility of the player of one edge under a full cooperate profile.

    Defect pays the withheld amount; cooperating while in default pays
    nothing; investing pays min(R + c, x) when the return R does not exceed
    the investment, and R itself when it does.
    """
    cooperate = frozenset(cooperate)
    e = net.edges[edge]
    if edge not in cooperate:
        return e.amount
    state = default_determination(net, cooperate)
    if e.investor in state.defaulted:
        return Fraction(0)
    if e.enterprise in state.defaulted:
        r = Fraction(0)
    else:
        r = enterprise_return(net, state.invest, edge)
    if r > e.amount:
        return r
    return min(r + c[edge], e.amount)


def player_utility(net, c, cooperate, player):
    """Sum of the player's edge utilities over all incoming opportunities."""
    edges = [e for e, x in enumerate(net.edges) if x.investor == player]
    return sum((edge_utility(net, c, cooperate, e) for e in edges), Fraction(0))


def best_response(net, c, cooperate, edge):
    """Best action on one edge, all other edges held fixed by `cooperate`:
    with them and `edge` cooperating, invest iff the investor stays solvent
    and c_e >= `edge_need` on a full cascade.

    Ties resolve to investing; a player who would default when cooperating
    earns 0 < x and therefore defects.  The reference predicate for
    `eliminate`.
    """
    mask = 1 << edge
    for e in cooperate:
        mask |= 1 << e
    need = edge_need(net, mask, cascade(net, mask), edge)
    return Action.COOPERATE if need is not None and c[edge] >= need else Action.DEFECT


def is_nash_equilibrium(net, c, cooperate):
    """True iff every edge's chosen action is its best response."""
    cooperate = frozenset(cooperate)
    for edge in range(len(net.edges)):
        chosen = Action.COOPERATE if edge in cooperate else Action.DEFECT
        if best_response(net, c, cooperate, edge) is not chosen:
            return False
    return True
