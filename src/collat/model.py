"""Core model of the networked investment game.

A directed edge (k, i) with weight x_ki is an opportunity of player i to
invest the amount x_ki in the enterprise of vertex k.  Players decide per
edge whether to invest ("cooperate") or decline ("defect").  An enterprise
that fails to raise its operational cost defaults and withdraws all of its
own investments, which can cascade.

`InvestmentNetwork` builds the one table every layer after the parser reads:
it keeps Fractions it is given as they are, scales the amounts and
enterprise costs once, with integer arithmetic (`scaled`), over a common
denominator (`scaled_amounts`, `scaled_costs`, per enterprise the `funding`
rows), and keeps each rate as its pair (p, q) (`rate_pq`); a component's
sub-network goes through the same constructor.  `validate_network` checks
profitability on those integers (`is_profitable`, also `solve_star`'s), and
`exact_sum` adds Fractions the same way: the numerators over their least
common denominator, one Fraction per sum (the solvers' star totals, total
and NEC denominator, and `CollateralMatrix.total`).  `cascade` is the one
cascade loop: bitmasks over edges and vertices, on the scaled integers.  On
them `least_collateral_pair` is the solver's one least-collateral formula,
as an integer pair (`star._minimal_amount` is the Fraction reference), and
`need_pair`, on top of the cascade, that pair for the least collateral that
makes an edge invest; `need_value` turns a pair into its Fraction for the
kernel (`edge_need`), the search, the subset DP and a priced star
(`star.star_solution`).  `eliminate` is the one elimination loop on top of
both, on pairs (a collateral's is built once per matrix:
`CollateralMatrix.on_scale`), and holds the tie rule (resolve iff solvent
and c_e >= need): IESDS on cyclic components and what is upstream of them
(a star that reaches none closes on its own row, `star.close_star`),
`collat verify`'s minimality test on cyclic components and the search's
free closure run it.  `best_response` (on a full cascade),
`default_determination`, `enterprise_return`, `edge_utility` and
`is_nash_equilibrium` stay as the definitional reference.

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
from functools import cached_property

Money = Fraction
# one shared zero, never rebuilt: `edge_need`'s "nothing", a star's zero collateral
ZERO = Fraction(0)


def as_money(value):
    """An exact Fraction; a float raises TypeError.  A Fraction (not a
    subclass) is immutable and exact, so it comes back as it is: the parser
    builds every amount, cost and rate.  A string reads, and a bool is
    refused, as in a document on every Python (`instances.parse_rational`)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "float amounts are not allowed; pass int, Fraction or a 'p/q' string"
        )
    if isinstance(value, (str, bool)):
        from .instances import parse_rational  # `instances` imports this module
        return parse_rational(value)
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

    Vertices are the ints 0..n-1 (`n` and endpoints: TypeError otherwise, also
    for a bool); `ids` optionally carries external names.  `cost[k]` and
    `rate[k]` mean something only for enterprises (non-zero out-degree), 0
    elsewhere.  Endpoints and dict keys are vertices (ValueError otherwise).
    """

    def __init__(self, n, edges, cost=None, rate=None, ids=None):
        if type(n) is not int:
            raise TypeError("n must be an int, got %r" % (n,))
        self.n = n
        norm = []
        for e in edges:
            if not isinstance(e, Edge):
                k, i, x = e
                e = Edge(k, i, as_money(x))
            elif type(e.amount) is not Fraction:
                e = Edge(e.enterprise, e.investor, as_money(e.amount))
            norm.append(e)
        self.edges = tuple(norm)
        self.cost = self._per_vertex(cost)
        self.rate = self._per_vertex(rate)
        self.ids = tuple(ids) if ids is not None else tuple(range(n))
        if len(self.ids) != n:
            raise ValueError("ids length must equal n")
        self.out_edges = {k: [] for k in range(n)}
        for idx, e in enumerate(self.edges):
            if type(e.enterprise) is not int or type(e.investor) is not int:
                raise TypeError("edge %d: endpoints must be ints" % idx)
            out = self.out_edges.get(e.enterprise)
            if out is None or not 0 <= e.investor < n:
                raise ValueError("edge %d: endpoint out of range" % idx)
            out.append(idx)
        self.enterprise_set = frozenset(e.enterprise for e in self.edges)
        self.edge_index = {(e.enterprise, e.investor): idx for idx, e in enumerate(self.edges)}
        # the kernel's integers: amounts and enterprise costs times `scale`, rates as (p, q)
        m, firms = len(self.edges), sorted(self.enterprise_set)
        self.scale, ints = scaled([e.amount for e in self.edges] + [self.cost[k] for k in firms])
        self.scaled_amounts = tuple(ints[:m])
        self.scaled_costs = dict(zip(firms, ints[m:]))
        self.rate_pq = {k: self.rate[k].as_integer_ratio() for k in firms}
        self.funding = {
            k: tuple((1 << e, self.edges[e].investor, self.scaled_amounts[e])
                     for e in self.out_edges[k])
            for k in self.scaled_costs
        }
        # built on first use; `_components` by `analysis._enterprise_components`
        self._validation = self._components = None

    def _per_vertex(self, values):
        """One Fraction per vertex, 0 if `values` is None; Fractions are kept."""
        out = tuple(_by_index({} if values is None else values, self.n, "per-vertex parameter",
                              "per-vertex parameter length must equal n"))
        return out if all(type(v) is Fraction for v in out) else tuple(map(as_money, out))

    def all_edges(self):
        return frozenset(range(len(self.edges)))

    def __repr__(self):
        return "InvestmentNetwork(n=%d, edges=%d)" % (self.n, len(self.edges))


def _by_index(values, size, what, wrong_length):
    """`values`, a sequence of `size` or a dict by index (0 where a key is
    missing), as a list; another length (`wrong_length`) or key is a
    ValueError."""
    if not isinstance(values, dict):
        values = list(values)
        if len(values) != size:
            raise ValueError(wrong_length)
        return values
    for key in values:
        if type(key) is not int or not 0 <= key < size:
            raise ValueError("%s: key %r is not an index below %d" % (what, key, size))
    return [values.get(i, ZERO) for i in range(size)]


@dataclass(frozen=True)
class InvestState:
    """Fixed point of the default cascade: defaulted vertices plus the
    surviving invest edges (cooperate edges whose investor is solvent and
    whose enterprise did not default)."""

    defaulted: frozenset
    invest: frozenset


class CollateralMatrix:
    """Per-edge nonnegative collateral amounts on `net`'s edge list, checked
    and normalized here only: an amount above its investment is cut to it
    (payoff-equivalent; it keeps minimality tests well-defined).  IESDS
    reads a matrix only with the network it was built on."""

    def __init__(self, net, amounts):
        self.net = net
        values = _by_index(amounts, len(net.edges), "collateral vector",
                           "collateral vector length must match edge count")
        out, scale = [], net.scale
        for v, edge, xs in zip(values, net.edges, net.scaled_amounts):
            c = as_money(v)
            num, den = c.as_integer_ratio()
            if num < 0:
                raise ValueError("collateral amounts must be nonnegative")
            # min(c, x), exact, on the table's scale: x = xs / scale
            out.append(edge.amount if num * scale > xs * den else c)
        self.amounts = tuple(out)

    @cached_property
    def on_scale(self):
        """Each collateral c as (cs, cd) = (c.numerator * scale, c.denominator)
        on the network's scale: a need (num, den) on its table is at most c
        iff num * cd <= cs * den.  Built once per matrix."""
        scale = self.net.scale
        return tuple((c.numerator * scale, c.denominator) for c in self.amounts)

    @classmethod
    def zeros(cls, net):
        return cls(net, [0] * len(net.edges))

    @classmethod
    def full(cls, net):
        return cls(net, [e.amount for e in net.edges])

    def total(self):
        return exact_sum(self.amounts)

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
    and never raises.  The report is kept on `net` (a network is not
    changed after it is built), so each network is checked once.
    """
    if net._validation is not None:
        return net._validation
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
        key = (e.enterprise, e.investor)
        if key in seen:
            violations.append("duplicate edge (%s, %s)" % key)
        seen.add(key)
    for k in sorted(net.enterprise_set):
        if net.scaled_costs[k] < 0:
            violations.append("enterprise %s: negative cost" % (k,))
        if net.rate_pq[k][0] <= 0:
            violations.append("enterprise %s: rate must be positive" % (k,))
        if not is_profitable(net, k):
            x_total = Fraction(sum(a for _, _, a in net.funding[k]), net.scale)
            try:
                terms = "((1+%s)(%s-%s) < %s)" % (net.rate[k], x_total, net.cost[k], x_total)
            except ValueError:  # a sum longer than Python writes an int
                terms = "(its terms are too long to write)"
            violations.append("enterprise %s: unprofitable %s" % (k, terms))
    net._validation = report = ValidationReport(violations)
    return report


def scaled(values):
    """(scale, ints): the Fractions `values` times their least common denominator."""
    scale = math.lcm(*{x.denominator for x in values})
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def exact_sum(values):
    """`sum(values, Fraction(0))` as one Fraction: the numerators of
    `values` (Fractions or ints, in a collection read twice) over their
    least common denominator (`scaled`), added as integers."""
    scale, ints = scaled(values)
    return Fraction(sum(ints), scale)


def is_profitable(net, k):
    """(1 + alpha)(X - Z) >= X on enterprise k's row of the scaled table,
    for alpha = p/q (`rate_pq`): (p+q)(X - Z) >= qX on integers."""
    total, (p, q) = sum(a for _, _, a in net.funding[k]), net.rate_pq[k]
    return (p + q) * (total - net.scaled_costs[k]) >= q * total


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


def least_collateral_pair(a, raised, cost, pq):
    """The solver's one least-collateral formula: a's worst-case shortfall
    a * clamp(1 - (1+alpha)(1 - Z/P), 0, 1), with P = `raised`, Z = `cost`
    and alpha = p/q for `pq` = (p, q), on integers of one scale, as an
    unreduced integer pair (num, den), den > 0; den is 1 iff it is 0 or a."""
    if raised <= cost:
        return a, 1
    # 1 - (1+p/q)(1 - Z/P) = (q P - (p+q)(P - Z)) / (q P)
    p, q = pq
    num = q * raised - (p + q) * (raised - cost)
    if num <= 0:
        return 0, 1
    return a * num, q * raised  # q P >= 2, as q P = 1 gives num = -p


def need_pair(net, cooperate_mask, defaulted_mask, edge):
    """Least collateral that makes `edge`'s player weakly prefer investing,
    with the edges of `cooperate_mask` (which holds `edge`) cooperating and
    `defaulted_mask = cascade(net, cooperate_mask)`: None if the investor
    defaults (the edge then pays 0 < x whatever the collateral), else
    `least_collateral_pair` on the scaled table, (num, den) for the need
    num / (den * scale), with P the enterprise's capital from its surviving
    cooperating investors (x if the enterprise defaults: then P < Z)."""
    e = net.edges[edge]
    if defaulted_mask >> e.investor & 1:
        return None
    k = e.enterprise
    raised = 0
    for bit, investor, amount in net.funding[k]:
        if cooperate_mask & bit and not defaulted_mask >> investor & 1:
            raised += amount
    return least_collateral_pair(net.scaled_amounts[edge], raised, net.scaled_costs[k],
                                 net.rate_pq[k])


def need_value(net, edge, pair):
    """A `need_pair` of `edge` as a Fraction (None stays None): `ZERO` or
    the edge's own `amount` if 0 or full, else one Fraction."""
    if pair is None:
        return None
    num, den = pair
    if den == 1:
        return net.edges[edge].amount if num else ZERO
    return Fraction(num, den * net.scale)


def edge_need(net, cooperate_mask, defaulted_mask, edge):
    """`need_pair` as a Fraction (`need_value`)."""
    return need_value(net, edge, need_pair(net, cooperate_mask, defaulted_mask, edge))


def eliminate(net, c, resolved=0):
    """Iterated elimination under the collaterals `c` (integer pairs,
    `CollateralMatrix.on_scale`), from the bitmask `resolved`.

    Sweeps the unresolved edges in index order and resolves each edge e
    whose `need_pair` with `resolved | e` cooperating is not None and <=
    c_e -- the tie rule: exact indifference resolves to investing -- until
    a sweep resolves nothing.  The result is a monotone closure: the final
    set depends on neither the sweep order nor the edge list's order.
    Each sweep walks a list of the open edges only: the first is read off
    the bits outside `resolved`, each later one is the last sweep's
    unresolved edges (its `needs`, kept in index order), so a run costs
    in proportion to its open edges, not to the network.  A need (num,
    den) is compared with c_e = (cs, cd) on integers: num * cd <= cs * den.
    The defaulted mask is kept along the way; only an edge into a defaulted
    enterprise k can change it, and then the cascade reruns over the
    defaulted enterprises alone (`cascade`'s `within`: it is antitone, so
    the solvent ones stay solvent) -- unless the rescue test fails:
    if the edges of `resolved | e` into k raise less than Z_k even counting
    every investor, solvent or not, k defaults whatever the others do.
    Adding e then changes the funding of k alone, which is in both fixed
    points, so the cascade is unchanged and the mask is kept without a
    rerun.  The test reads a pledged sum per enterprise (the scaled amounts
    of its resolved edges, summed when first read and then kept up to
    date), so it is `pledged[k] + x_e >= Z_k` in O(1).

    Returns (order, resolved mask, defaulted mask, needs), where `needs`
    maps each still-unresolved edge to its `need_pair` at the final set
    (None if its investor would default; `need_value` is its Fraction).
    """
    defaulted = cascade(net, resolved)
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
            need = need_pair(net, cmask, dmask, e)
            if need is not None:
                cs, cd = c[e]
                if need[0] * cd <= cs * need[1]:
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
