"""Shared independent oracles for the test suite.

These deliberately avoid the solver code paths they are used to check:
equilibria are found by exhaustive enumeration of all pure profiles, and
elimination orders are re-validated position by position from the raw
best-response predicate; IESDS is one elimination run from the empty set
(`reference_iesds`), with no star-by-star closure; 0/full optima come from
IESDS on every 0/full matrix; minimality comes from one elimination run from the empty set per
positive collateral (`reference_is_minimal`), without the prefix seeding
of `is_minimal`; star optima come from pricing every one of the 2^d full
sets with `optimal_partial_for_set` (the Fraction reference formula),
which `solve_star` does not call: it prices with
`model.least_collateral_pair` on scaled integers (`least_collateral` is
its value, for a Fraction rate).  `fraction_suffix_dp` is the star DP with every cost a
Fraction, the reference each state of `star.suffix_dp`'s integer-pair
costs is checked against.  `spiked_22` is a shared network: the smallest
cyclic component beyond the subset DP's guard.
"""
from fractions import Fraction

from collat import (
    Action,
    CollateralMatrix,
    InvestmentNetwork,
    StarSolution,
    best_response,
    is_nash_equilibrium,
    is_viable,
    optimal_partial_for_set,
    sigma_for_set,
)
from collat.model import TooLargeError, eliminate, least_collateral_pair, need_value
from collat.star import STATE_GUARD

ENUMERATE_GUARD = 25


def enumerate_nash(net, c):
    """All pure Nash equilibria, as frozensets of cooperate edges, by brute
    force over the 2^|E| profiles."""
    m = len(net.edges)
    assert m <= 12, "exhaustive oracle guard"
    found = []
    for mask in range(1 << m):
        profile = frozenset(e for e in range(m) if mask >> e & 1)
        if is_nash_equilibrium(net, c, profile):
            found.append(profile)
    return found


def unique_all_cooperate(net, c):
    """True iff all-invest is the one and only pure Nash equilibrium."""
    return enumerate_nash(net, c) == [net.all_edges()]


def least_zero_full_total(net):
    """Least total over the viable matrices whose every collateral is 0 or
    the full investment, trying the 2^|E| of them cheapest first; None if
    none is viable."""
    m = len(net.edges)
    assert m <= 10, "exhaustive oracle guard"

    def total(mask):
        return sum((net.edges[e].amount for e in range(m) if mask >> e & 1), Fraction(0))

    for mask in sorted(range(1 << m), key=total):
        c = CollateralMatrix(net, [net.edges[e].amount if mask >> e & 1 else 0 for e in range(m)])
        if is_viable(net, c):
            return c.total()
    return None


def assert_valid_elimination_order(net, c, order):
    """Each position must weakly prefer investing (solvent, tie to invest)
    with only its predecessors already resolved."""
    assert sorted(order) == sorted(net.all_edges())
    for t, edge in enumerate(order):
        resolved = frozenset(order[:t])
        assert best_response(net, c, resolved, edge) is Action.COOPERATE, (
            "position %d (edge %d) is not eliminable" % (t, edge)
        )


def assert_minimal(net, c, is_viable):
    """Per-coordinate epsilon-reduction must break viability."""
    positives = [a for a in c.amounts if a > 0]
    if not positives:
        return
    eps = min(positives) / 2
    for e, amount in enumerate(c.amounts):
        if amount == 0:
            continue
        reduced = c.replace(e, amount - eps)
        assert not is_viable(net, reduced), "coordinate %d is reducible" % e


def reference_iesds(net, c):
    """IESDS as one elimination run from the empty set, with no
    decomposition: the stuck edges, each mapped to its need at the final
    set (None if its investor defaults)."""
    return eliminate(net, c.on_scale)[3]


def reference_is_minimal(net, c):
    """Minimality of a viable matrix with one whole elimination run from the
    empty set per positive collateral, that collateral at 0: `c` is minimal
    iff each such run leaves the edge exactly that collateral short."""
    pairs = c.on_scale
    return all(
        need_value(net, e, eliminate(net, pairs[:e] + ((0, 1),) + pairs[e + 1:])[3].get(
            e, (0, 1))) == amount
        for e, amount in enumerate(c.amounts) if amount
    )


def enumerate_star(star):
    """Minimum-total viable collateral vector via subset enumeration: every
    full set priced by `optimal_partial_for_set`.

    Among equal totals the lexicographically smallest full-collateral set is
    returned.
    """
    d = star.size
    if d > ENUMERATE_GUARD:
        raise ValueError("star has %d players; enumeration guard is %d" % (d, ENUMERATE_GUARD))
    if not star.is_profitable():
        raise ValueError("star instance is not profitable")
    best = None
    for mask in range(1 << d):
        full_set = tuple(i for i in range(d) if mask >> i & 1)
        c = optimal_partial_for_set(star, full_set)
        total = sum(c, Fraction(0))
        key = (total, full_set)
        if best is None or key < best[0]:
            best = (key, c, full_set)
    _, c, full_set = best
    return StarSolution(
        collaterals=c,
        total=sum(c, Fraction(0)),
        order=sigma_for_set(star, full_set),
        full_set=frozenset(full_set),
    )


def least_collateral(a, raised, cost, rate):
    """`model.least_collateral_pair` as a number for the Fraction `rate`,
    the view tests check pairs against: 0 or a as an int, a partial
    collateral as a Fraction."""
    num, den = least_collateral_pair(a, raised, cost, rate.as_integer_ratio())
    return num if den == 1 else Fraction(num, den)


def fraction_suffix_dp(amounts, cost, rate, players):
    """`star.suffix_dp` with each state's cost a Fraction (or an int) summed
    step by step: suffix sum t -> (least cost, full-set bitmask), cost ties
    to the larger bitmask."""
    d = len(amounts)
    total = sum(amounts)
    layer = {0: (0, 0)}  # t -> (least cost, full-set bitmask)

    def offer(key, price, mask):
        cur = nxt.get(key)
        if cur is None:
            if len(nxt) == STATE_GUARD:
                raise TooLargeError(
                    "star with %d players: DP layer %d reached %d states; the guard is %d"
                    % (d, step + 1, STATE_GUARD + 1, STATE_GUARD)
                )
        elif price > cur[0] or price == cur[0] and mask < cur[1]:
            return
        nxt[key] = (price, mask)

    for step, i in enumerate(reversed(players)):
        a, bit = amounts[i], 1 << (d - 1 - i)
        nxt = {}
        for t, (price, mask) in layer.items():
            offer(t, price + a, mask | bit)
            offer(t + a, price + least_collateral(a, total - t, cost, rate), mask)
        layer = nxt
    return layer


def spiked_22():
    """P <-> Q with 10 spikes each: one cyclic component of 22 edges."""
    edges = [(0, 1, 1), (1, 0, 1)]
    edges += [(k, 2 + 10 * k + s, 1) for k in (0, 1) for s in range(10)]
    return InvestmentNetwork(22, edges, cost={0: 2, 1: 2}, rate={0: 2, 1: 2})
