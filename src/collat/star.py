"""Optimal collaterals for a single enterprise (star network).

The search space is finite: every elimination order over the investors has a
unique minimal collateral vector, and an optimal solution always has the
shape "full collaterals to a set A first, then the remaining players in
sigma order (non-increasing investment, ties by index) with closed-form
partial collaterals".  In that form a non-full player i sees the prefix
P_i = X - (sum of the non-full players after i in sigma), so its collateral
depends on one number, not on which players make up A.  `suffix_dp` walks
the players from the last in sigma to the first with that suffix sum as the
dynamic-programming state and keeps the least cost per state: O(d * L)
steps, where a layer holds L <= min(2^d, distinct suffix sums) states, at
most X + 1 on integer inputs (pseudo-polynomial, as the inverse-knapsack
reduction allows).  `STATE_GUARD` bounds L.  `price_star` runs it on every
player of a checked star, on a row of the network's scaled table
(`star_solution`, the one star answer: the solvers' single-enterprise
components, the oracles' star optima, and `solve_star`, which prices a
`StarInstance` as its one-enterprise network), and `sigma` is the one
sort into sigma order.  A state's cost is an exact, unreduced integer
pair (num, den), compared by cross-multiplying: the formula
(`model.least_collateral_pair`; `_minimal_amount` is the Fraction
reference) is linear in the amount, so a partial step multiplies in the
unit price at its suffix sum t (`_unit_price`), which depends on the star
and t alone: each caller keeps one table of them per star for every
`suffix_dp` call on it.  No Fraction is built inside the DP or by
`price_star`, which returns integer pairs on the scale (`star_solution`
turns each into a Fraction through `model.need_value`), and its tie step
walks only the truncations the DP's last layer cannot rule out.  The form
also holds when some players are already eliminated at no cost, since they
only sit in every prefix: those who pay full come first, and swapping
adjacent partial players into sigma order never costs more.  So
`suffix_dp` over the others prices the cheapest completion, the network
search's lower bound.  `brute_force_star` walks all d! orders and serves as
the independent oracle.

`close_star` is the elimination closure of a star whose investors are
settled, on a row of the scaled table: a player joins once its need
(`model.least_collateral_pair`) is at most its collateral (an integer pair,
`CollateralMatrix.on_scale`).  IESDS closes each star that reaches no cyclic
component with it; `minimal_in_order`, `collat verify`'s minimality test of
a single-enterprise acyclic component, closes over later players each at 0.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    InvestmentNetwork,
    TooLargeError,
    as_money,
    is_profitable,
    least_collateral_pair,
    need_value,
)

STATE_GUARD = 1 << 15  # suffix-sum states in one layer of the star DP
BRUTE_FORCE_GUARD = 9


@dataclass(frozen=True)
class StarInstance:
    """A single enterprise: investor amounts, operational cost, interest rate."""

    amounts: tuple
    cost: Fraction
    rate: Fraction

    def __init__(self, amounts, cost, rate):
        object.__setattr__(self, "amounts", tuple(as_money(x) for x in amounts))
        object.__setattr__(self, "cost", as_money(cost))
        object.__setattr__(self, "rate", as_money(rate))
        for x in self.amounts:
            if x.numerator <= 0:
                raise ValueError("investment amounts must be positive")
        if self.cost.numerator < 0 or self.rate.numerator <= 0:
            raise ValueError("cost must be nonnegative and rate positive")

    @property
    def size(self):
        return len(self.amounts)

    def is_profitable(self):
        """`model.is_profitable` on the star's network (`to_network`)."""
        return is_profitable(self.to_network(), 0)

    def to_network(self):
        """Embed as an InvestmentNetwork: enterprise vertex 0, investors 1..d."""
        edges = [(0, i + 1, x) for i, x in enumerate(self.amounts)]
        cost = {0: self.cost}
        rate = {0: self.rate}
        return InvestmentNetwork(self.size + 1, edges, cost=cost, rate=rate)


@dataclass(frozen=True)
class StarSolution:
    collaterals: tuple
    total: Fraction
    order: tuple
    full_set: frozenset


def minimal_vector_for_order(star, order):
    """Unique minimal collateral vector making `order` an elimination order.

    Player sigma_i needs collateral covering her worst-case shortfall, with
    only the preceding players (and herself) investing:
    c = x * max(0, min(1, 1 - (1+alpha)[1 - Z / prefix_sum])).
    """
    if sorted(order) != list(range(star.size)):
        raise ValueError("order must be a permutation of the players")
    c = [None] * star.size
    prefix = Fraction(0)
    for idx in order:
        prefix += star.amounts[idx]
        c[idx] = _minimal_amount(star, idx, prefix)
    return tuple(c)


def _minimal_amount(star, player, prefix):
    """The per-order formula: the player's collateral when the players
    placed so far, herself included, sum to `prefix`."""
    inner = 1 - (1 + star.rate) * (1 - star.cost / prefix)
    return star.amounts[player] * max(Fraction(0), min(Fraction(1), inner))


def sigma(amounts):
    """The sigma order of the players: non-increasing amount, ties by index
    (a stable sort keeps equal amounts in index order, also reversed)."""
    return sorted(range(len(amounts)), key=amounts.__getitem__, reverse=True)


def sigma_for_set(star, full_set):
    """`full_set` in input order, then the other players in sigma order."""
    full_set = frozenset(full_set)
    return tuple(sorted(full_set) + [i for i in sigma(star.amounts) if i not in full_set])


def optimal_partial_for_set(star, full_set):
    """Collateral vector with full collaterals on `full_set` and the
    per-order minimal amounts (`_minimal_amount`) for everyone else,
    processed in sigma order after it: `minimal_vector_for_order` on
    `sigma_for_set`, with the full players' amounts in place of theirs.
    The reference pricing of a full set.
    """
    full_set = frozenset(full_set)
    c = list(minimal_vector_for_order(star, sigma_for_set(star, full_set)))
    for i in full_set:
        c[i] = star.amounts[i]
    return tuple(c)


def _unit_price(raised, cost, pq):
    """`least_collateral_pair(1, raised, cost, pq)` in lowest terms: the
    price per unit of amount with the prefix `raised` (the formula is
    linear in the amount, so an amount a costs a * num / den)."""
    num, den = least_collateral_pair(1, raised, cost, pq)
    g = math.gcd(num, den)
    return num // g, den // g


def suffix_dp(amounts, cost, pq, players, units):
    """The dynamic program of `price_star` on integer `amounts` and `cost`
    (one common scale), alpha = p/q for `pq` = (p, q): place `players`, a
    sub-sequence of sigma, while the players left out count as eliminated
    first at no cost (their amounts are in every prefix).  A full player
    adds its amount and leaves t alone; a partial player adds its least
    collateral with the prefix X - t raised, and moves t up by its amount.

    A cost is an exact, unreduced integer pair (num, den), den > 0: a full
    step adds a * den to num, a partial step multiplies in the unit price
    of its t, and two costs compare by cross-multiplying, so the loop
    builds no Fraction.  `units` is the caller's table of the star's unit
    prices, t -> `_unit_price` at the prefix X - t, read and filled here.
    A state's den is the product of the reduced unit denominators along
    its path, each at most q * X.

    Returns the last layer, suffix sum t -> (cost num, cost den, full-set
    bitmask with player 0 the most significant bit); per state, cost ties
    go to the larger bitmask.  Raises TooLargeError when a layer exceeds
    `STATE_GUARD` states.
    """
    d = len(amounts)
    total = sum(amounts)
    layer = {0: (0, 1, 0)}  # t -> (cost num, cost den, full-set bitmask)

    for step, i in enumerate(reversed(players)):
        a, bit = amounts[i], 1 << (d - 1 - i)
        nxt = {}
        for t, (num, den, mask) in layer.items():
            # full: pays a, t stays
            cur, price = nxt.get(t), num + a * den
            if cur is None or (lhs := price * cur[1]) < (rhs := cur[0] * den) or (
                    lhs == rhs and mask | bit >= cur[2]):
                nxt[t] = (price, den, mask | bit)
            # partial: pays a * un / ud, t moves up by a
            unit = units.get(t)
            if unit is None:
                unit = units[t] = _unit_price(total - t, cost, pq)
            un, ud = unit
            cur, price, pden = nxt.get(t + a), num * ud + a * un * den, den * ud
            if cur is None or (lhs := price * cur[1]) < (rhs := cur[0] * pden) or (
                    lhs == rhs and mask >= cur[2]):
                nxt[t + a] = (price, pden, mask)
        if len(nxt) > STATE_GUARD:
            raise TooLargeError(
                "star with %d players: DP layer %d reached %d states; the guard is %d"
                % (d, step + 1, STATE_GUARD + 1, STATE_GUARD)
            )
        layer = nxt
    return layer


def cheapest(layer):
    """The least-cost entry (num, den, mask) of a `suffix_dp` layer; cost
    ties go to the larger mask, as in the DP."""
    best = None
    for entry in layer.values():
        if best is not None:
            lhs, rhs = entry[0] * best[1], best[0] * entry[1]
            if lhs > rhs or lhs == rhs and entry[2] < best[2]:
                continue
        best = entry
    return best


def price_star(amounts, cost, pq):
    """A checked star's optimum on integers of one scale (alpha = p/q for
    `pq` = (p, q)): `suffix_dp` over all the players, then the tie step.
    Returns (collaterals, total, order, full set) on that scale.

    Ties go to the lexicographically smallest full-set tuple.  Per state the
    DP breaks cost ties toward the larger full-set bitmask, player 0 the
    most significant bit; adding the same later choices keeps that order,
    so the DP returns the largest optimal set A* in it.  If the smallest
    optimal tuple L differs from A*, the least index where they differ lies
    in A*, and L can only be smaller if it stops there: L is a truncation
    A* & [0, m) for some m in A*.  So the first such truncation, shortest
    first, that is optimal is the answer, else A* itself.  A truncation
    keeping the players `head` is one DP path to the last layer's state at
    X - sum(head), so it costs at least that state's least cost: it is
    walked only when that cost ties the optimum, and reads each unit price
    off the DP's table, as the DP has priced every step of it.  It builds
    no Fraction: a collateral is the pair (a * un, ud), or (a, 1) if full,
    and the total the DP's (num, den); as unit prices are in lowest terms,
    den is 1 exactly for 0 or the whole amount (`model.need_value`'s
    contract).

    Raises TooLargeError when a layer exceeds `STATE_GUARD` states.
    """
    d = len(amounts)
    order = sigma(amounts)
    units = {}  # t -> unit price at the prefix X - t
    layer = suffix_dp(amounts, cost, pq, order, units)
    best_num, best_den, best_mask = cheapest(layer)
    total = sum(amounts)
    full_set = [i for i in range(d) if best_mask & 1 << (d - 1 - i)]
    rest = total  # X - the sum of the head: the suffix sum its walk ends at
    for m in range(len(full_set) + 1):  # the truncations, then A* itself
        if m:
            rest -= amounts[full_set[m - 1]]
        num, den, _ = layer[rest]
        if num * best_den != best_num * den:
            continue  # the walk is one DP path to this state: it costs no less
        head, partial = full_set[:m], []
        num, den = total - rest, 1  # full players pay their amount
        t = 0  # the suffix sum of the partial players walked
        for i in reversed(order):
            if i not in head:
                un, ud = units[t]
                partial.append((i, un, ud))
                num, den = num * ud + amounts[i] * un * den, den * ud
                t += amounts[i]
        if num * best_den == best_num * den:
            break
    else:
        raise AssertionError("the DP optimum is not the total of its full set")
    c = [(a, 1) for a in amounts]
    for i, un, ud in partial:
        c[i] = (amounts[i] * un, ud)
    order = tuple(head) + tuple(i for i in order if i not in head)
    return c, (best_num, best_den), order, frozenset(head)


def star_solution(net, k):
    """`price_star` on enterprise k's row of the scaled table, as a
    `StarSolution`: `model.need_value` per collateral (`ZERO` if 0, the
    edge's own `amount` if full); its guard error names k."""
    edges = net.out_edges[k]
    try:
        c, (num, den), order, full_set = price_star(
            [net.scaled_amounts[e] for e in edges], net.scaled_costs[k], net.rate_pq[k])
    except TooLargeError as exc:
        raise TooLargeError("enterprise %s: %s" % (net.ids[k], exc)) from None
    collaterals = tuple(need_value(net, e, pair) for e, pair in zip(edges, c))
    return StarSolution(collaterals, Fraction(num, den * net.scale), order, full_set)


def close_star(amounts, cost, pq, collaterals, raised=0, start=0, failed=None):
    """The closure of a star's players `start`, `start` + 1, ... from the
    capital `raised`, on a row of the scaled table (`amounts`, `cost`,
    `pq`, and `collaterals` as pairs (cs, cd) on the scale): sweep them in
    that order, repeated until none joins.  A player joins once its need
    (num, den), `least_collateral_pair` at the sum with it, is at most its
    collateral, num * cd <= cs * den, and adds its amount (a monotone
    closure).  `failed`, if given, holds per player the most capital it has
    been seen not to join at (-1 if none), read and kept up to date: the
    need is antitone in the capital, so the player does not join at that
    much or less.  Returns (the players that joined, in the order they
    joined, the capital raised)."""
    joined, rest = [], range(start, len(amounts))
    while rest:
        left = []
        for f in rest:
            if failed is not None and raised <= failed[f]:
                left.append(f)
                continue
            a, (cs, cd) = amounts[f], collaterals[f]
            num, den = least_collateral_pair(a, raised + a, cost, pq)
            if num * cd <= cs * den:
                raised += a
                joined.append(f)
            else:
                if failed is not None:
                    failed[f] = raised
                left.append(f)
        if len(left) == len(rest):
            break
        rest = left
    return joined, raised


def minimal_in_order(amounts, cost, pq, collaterals):
    """True iff no positive collateral of a star can be lowered: `amounts`
    are the scaled amounts of the players that resolve, in the order they
    resolve, and `collaterals` their collaterals, as `close_star` takes.

    Player j at 0 starts with the players before it raised and closes over
    the later ones (`close_star`).  j's collateral is minimal iff its need
    at that sum equals it, compared on integers.  The players are checked
    last first and share what `close_star` learns of who fails to join: a
    later check starts from less capital, so a player that failed once is
    priced again only if the players that join lift the capital above it.
    """
    prefixes = list(itertools.accumulate(amounts, initial=0))
    failed = [-1] * len(amounts)
    for j in reversed(range(len(amounts))):
        cs, cd = collaterals[j]
        if cs:
            a = amounts[j]
            _, raised = close_star(amounts, cost, pq, collaterals, prefixes[j], j + 1, failed)
            num, den = least_collateral_pair(a, raised + a, cost, pq)
            if num * cd != cs * den:
                return False
    return True


def solve_star(star):
    """Minimum-total viable collateral vector: `star_solution` on the
    star's one-enterprise network (`to_network`), tested profitable
    (`model.is_profitable`) first; a guard error names enterprise 0."""
    net = star.to_network()
    if not is_profitable(net, 0):
        raise ValueError("star instance is not profitable")
    return star_solution(net, 0)


def brute_force_star(star):
    """Minimum over the per-order minimal vectors of all d! orders.

    A depth-first walk visits the orders in lexicographic order.  Orders
    that place the same set first share its prefix sum and the amounts it
    fixes, so each is priced once; ties keep the first order walked, i.e.
    the least `(total, order)`.  Test oracle for `solve_star`; refuses
    beyond the factorial guard.
    """
    d = star.size
    if d > BRUTE_FORCE_GUARD:
        raise ValueError("brute force guard is %d players" % BRUTE_FORCE_GUARD)
    full = (1 << d) - 1
    sums = {0: Fraction(0)}  # placed set -> prefix sum
    amounts = {}  # (placed set, last player) -> the last player's amount
    c, order, best = [None] * d, [], None

    def walk(placed, total):
        nonlocal best
        if placed == full:
            if best is None or total < best[0]:
                best = (total, tuple(order), tuple(c))
            return
        for i in range(d):
            if placed >> i & 1:
                continue
            nxt = placed | 1 << i
            amount = amounts.get((nxt, i))
            if amount is None:
                prefix = sums.get(nxt)
                if prefix is None:
                    prefix = sums[nxt] = sums[placed] + star.amounts[i]
                amount = amounts[nxt, i] = _minimal_amount(star, i, prefix)
            c[i] = amount
            order.append(i)
            walk(nxt, total + amount)
            order.pop()

    walk(0, Fraction(0))
    total, order, c = best
    full_set = frozenset(i for i in range(d) if c[i] == star.amounts[i])
    return StarSolution(c, total, order, full_set)
