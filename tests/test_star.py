import random
import time
from fractions import Fraction

import pytest

import collat
from collat import (
    StarInstance,
    TooLargeError,
    brute_force_star,
    gen_knapsack_star,
    is_viable,
    minimal_vector_for_order,
    optimal_partial_for_set,
    solve_star,
)
from collat import star as star_module
from collat.model import scaled
from collat.star import STATE_GUARD, cheapest, sigma, suffix_dp
from helpers import (
    assert_minimal,
    assert_valid_elimination_order,
    enumerate_star,
    fraction_suffix_dp,
    least_collateral,
)


def random_star(rng, max_players=7):
    d = rng.randint(1, max_players)
    amounts = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(d)]
    total = sum(amounts, Fraction(0))
    # profitable by construction: (1+alpha)(total - z) >= total
    z = Fraction(rng.randint(0, max(0, int(total) - 1)))
    if total - z <= 0:
        z = 0
    alpha = (
        Fraction(z, total - z) if z else Fraction(0)
    ) + Fraction(rng.randint(1, 8), rng.randint(1, 4))
    return StarInstance(amounts, z, alpha)


class TestStarInstance:
    def test_rejects_nonpositive_amounts(self):
        with pytest.raises(ValueError):
            StarInstance([1, 0], 1, 1)

    def test_profitability(self):
        assert StarInstance([2, 2], 1, 1).is_profitable()
        assert not StarInstance([1, 1], 2, 1).is_profitable()

    def test_network_embedding(self):
        net = StarInstance([2, 3], 1, 2).to_network()
        assert net.n == 3
        assert net.cost[0] == 1 and net.rate[0] == 2
        assert [(e.enterprise, e.investor, e.amount) for e in net.edges] == [
            (0, 1, 2),
            (0, 2, 3),
        ]


class TestMinimalVectorForOrder:
    def test_symmetric_pair(self):
        star = StarInstance([1, 1], 1, 1)
        assert minimal_vector_for_order(star, (0, 1)) == (1, 0)
        assert sum(minimal_vector_for_order(star, (1, 0))) == 1

    def test_three_player_order(self):
        star = StarInstance([3, 2, 1], 3, 1)
        c = minimal_vector_for_order(star, (2, 0, 1))
        assert c == (Fraction(3, 2), 0, 1)
        assert sum(c) == Fraction(5, 2)

    def test_single_rich_player_needs_nothing(self):
        star = StarInstance([4], 1, 1)
        assert minimal_vector_for_order(star, (0,)) == (0,)

    def test_rejects_non_permutations(self):
        star = StarInstance([1, 1], 1, 1)
        with pytest.raises(ValueError):
            minimal_vector_for_order(star, (0, 0))

    def test_vectors_are_viable_elimination_orders(self):
        rng = random.Random(19)
        for trial in range(30):
            star = random_star(rng, max_players=5)
            order = list(range(star.size))
            rng.shuffle(order)
            c = minimal_vector_for_order(star, tuple(order))
            if not star.is_profitable():
                continue
            net = star.to_network()
            edge_order = [net.edge_index[(0, i + 1)] for i in order]
            from collat import CollateralMatrix

            assert_valid_elimination_order(net, CollateralMatrix(net, list(c)), edge_order)


class TestOptimalPartialForSet:
    def test_three_player_shape(self):
        star = StarInstance([3, 2, 1], 3, 1)
        assert optimal_partial_for_set(star, {2}) == (Fraction(3, 2), 0, 1)

    def test_unprofitable_instance_allowed(self):
        star = StarInstance([2, 1], 2, 1)
        assert optimal_partial_for_set(star, {1}) == (Fraction(2, 3), 1)

    def test_all_full(self):
        star = StarInstance([3, 2, 1], 3, 1)
        assert optimal_partial_for_set(star, {0, 1, 2}) == (3, 2, 1)

    def test_matches_order_formula(self):
        rng = random.Random(23)
        for trial in range(40):
            star = random_star(rng, max_players=6)
            full = {i for i in range(star.size) if rng.random() < 0.4}
            from collat import sigma_for_set

            order = sigma_for_set(star, full)
            by_order = list(minimal_vector_for_order(star, order))
            for i in full:
                by_order[i] = star.amounts[i]
            assert optimal_partial_for_set(star, full) == tuple(by_order)

    def test_bounded_by_the_brute_force_optimum(self):
        # no full set prices below the least total over all d! orders, and
        # the optimum's own full set prices at it
        rng = random.Random(29)
        for trial in range(60):
            star = random_star(rng, max_players=6)
            bf = brute_force_star(star)
            for mask in range(1 << star.size):
                full = {i for i in range(star.size) if mask >> i & 1}
                assert sum(optimal_partial_for_set(star, full)) >= bf.total, (trial, full)
            assert sum(optimal_partial_for_set(star, bf.full_set)) == bf.total, trial


class TestSolveStar:
    def test_three_player_optimum(self):
        sol = solve_star(StarInstance([3, 2, 1], 3, 1))
        assert sol.total == Fraction(5, 2)
        assert sol.full_set == {2}

    def test_symmetric_pair_total(self):
        assert solve_star(StarInstance([1, 1], 1, 1)).total == 1

    def test_single_rich_player(self):
        sol = solve_star(StarInstance([4], 1, 1))
        assert sol.total == 0

    def test_rejects_unprofitable(self):
        with pytest.raises(ValueError):
            solve_star(StarInstance([1, 1], 2, 1))

    def test_agrees_with_brute_force(self):
        rng = random.Random(47)
        done = 0
        while done < 60:
            star = random_star(rng, max_players=6)
            if not star.is_profitable():
                continue
            done += 1
            assert solve_star(star).total == brute_force_star(star).total

    def test_outputs_viable_and_minimal(self):
        rng = random.Random(53)
        done = 0
        while done < 30:
            star = random_star(rng, max_players=5)
            if not star.is_profitable():
                continue
            done += 1
            sol = solve_star(star)
            net = star.to_network()
            from collat import CollateralMatrix

            c = CollateralMatrix(net, list(sol.collaterals))
            assert is_viable(net, c)
            assert_minimal(net, c, is_viable)

    def test_monotone_positive_partials(self):
        rng = random.Random(59)
        done = 0
        while done < 40:
            star = random_star(rng, max_players=6)
            if not star.is_profitable():
                continue
            done += 1
            sol = solve_star(star)
            partial = [
                i for i in range(star.size) if 0 < sol.collaterals[i] < star.amounts[i]
            ]
            for a in partial:
                for b in partial:
                    if star.amounts[a] > star.amounts[b]:
                        assert sol.collaterals[a] > sol.collaterals[b]
                        assert (
                            sol.collaterals[a] / star.amounts[a]
                            > sol.collaterals[b] / star.amounts[b]
                        )

    def test_one_in_for_free_tail(self):
        # once a player in the optimal order needs zero collateral, every
        # later player needs zero as well
        rng = random.Random(61)
        done = 0
        while done < 40:
            star = random_star(rng, max_players=6)
            if not star.is_profitable():
                continue
            done += 1
            sol = solve_star(star)
            seen_free = False
            for i in sol.order:
                if i in sol.full_set:
                    continue
                if seen_free:
                    assert sol.collaterals[i] == 0
                if sol.collaterals[i] == 0:
                    seen_free = True


def family_star(rng, family, d):
    """A profitable star with d players (d + 1 for a knapsack star of d
    items) from one of the differential test's families."""
    if family == "knapsack":
        xs = [rng.randint(1, 9) for _ in range(d)]
        return gen_knapsack_star(xs, rng.randint(0, sum(xs) - max(xs)))
    if family == "large-alpha":
        amounts = [rng.randint(1, 9) for _ in range(d)]
        z = rng.randint(0, sum(amounts) - 1)
        return StarInstance(amounts, z, z + rng.randint(1, 5))
    if family == "rational":
        amounts = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(d)]
    else:  # "ties": few distinct integer amounts, so many equal totals
        amounts = [rng.randint(1, 4) for _ in range(d)]
    total = sum(amounts, Fraction(0))
    z = Fraction(rng.randint(0, int(total) - 1)) if total > 1 else Fraction(0)
    alpha = (Fraction(z, total - z) if z else Fraction(0)) + Fraction(
        rng.randint(1, 8), rng.randint(1, 4)
    )
    return StarInstance(amounts, z, alpha)


def least_subset_sum_above(xs, t):
    """Least subset sum of xs strictly above t, from an int used as the
    bitset of reachable sums."""
    reach = 1
    for x in xs:
        reach |= reach << x
    above = reach >> (t + 1)
    return t + (above & -above).bit_length()


class TestAgainstEnumeration:
    @pytest.mark.parametrize("family", ["rational", "ties", "large-alpha", "knapsack"])
    def test_same_solution_as_enumeration(self, family):
        # 80 stars per family: one each of 11 and 12 players (a knapsack
        # star has one player more than its items), the rest up to 8
        rng = random.Random("enumeration-" + family)
        sizes = [11, 10 if family == "knapsack" else 12]
        sizes += [rng.randint(1, 8) for _ in range(78)]
        for d in sizes:
            star = family_star(rng, family, d)
            assert star.is_profitable() and star.size <= 12
            assert solve_star(star) == enumerate_star(star), star


def scaled_star(star):
    """A star's amounts and cost as integers of one scale, as it is priced."""
    _, ints = scaled((*star.amounts, star.cost))
    return ints[:-1], ints[-1]


class TestIntegerPairDP:
    """`suffix_dp` keeps each cost as an unreduced integer pair; state by
    state it matches `fraction_suffix_dp`, the DP on Fraction costs."""

    PRIMES = (1009, 7919, 104729, 1299709, 15485863)

    def _stars(self, rng):
        for family in ("rational", "ties", "large-alpha", "knapsack"):
            for _ in range(40):
                star = family_star(rng, family, rng.randint(1, 10))
                yield star
                # the same star on another scale
                r = Fraction(rng.randint(1, 60), rng.randint(1, 60))
                yield StarInstance([x * r for x in star.amounts], star.cost * r, star.rate)
        for _ in range(40):  # large coprime denominators
            d = rng.randint(1, 9)
            amounts = [Fraction(rng.randint(1, 10 ** 6), rng.choice(self.PRIMES)) for _ in range(d)]
            total = sum(amounts, Fraction(0))
            z = total * Fraction(rng.randint(0, 9), 10)
            alpha = (z / (total - z) if z else 0) + Fraction(rng.randint(1, 8), rng.choice(self.PRIMES))
            yield StarInstance(amounts, z, alpha)

    def test_every_state_matches_the_fraction_dp(self):
        rng = random.Random("integer-pair-dp")
        stars = 0
        for star in self._stars(rng):
            assert star.is_profitable()
            amounts, cost = scaled_star(star)
            order, units = sigma(amounts), {}
            # all of sigma (`price_star`), then sub-sequences (the search's
            # completions), on the star's one table of unit prices
            for players in [order] + [[i for i in order if rng.random() < 0.6] for _ in range(3)]:
                got = suffix_dp(amounts, cost, star.rate.as_integer_ratio(), players, units)
                want = fraction_suffix_dp(amounts, cost, star.rate, players)
                assert [(t, Fraction(num, den), mask) for t, (num, den, mask) in got.items()] == [
                    (t, price, mask) for t, (price, mask) in want.items()], star
                num, den, mask = cheapest(got)
                assert (Fraction(num, den), -mask) == min((price, -mask) for price, mask in want.values())
            stars += 1
        assert stars == 360

    def test_one_unit_price_per_suffix_sum_and_no_fraction_in_a_state(self, monkeypatch):
        calls, least_collateral_pair = [], star_module.least_collateral_pair

        def counted(a, raised, cost, pq):
            calls.append((a, raised))
            return least_collateral_pair(a, raised, cost, pq)

        monkeypatch.setattr(star_module, "least_collateral_pair", counted)
        star = family_star(random.Random(7), "rational", 10)
        amounts, cost = scaled_star(star)
        order, units, pq = sigma(amounts), {}, star.rate.as_integer_ratio()
        layer = suffix_dp(amounts, cost, pq, order, units)
        assert calls and all(a == 1 for a, _ in calls)
        assert len(set(calls)) == len(calls) == len(units)
        assert all(type(v) is int for entry in layer.values() for v in entry)
        # each unit price is in lowest terms, and a later call on the same
        # star reads the table: every suffix sum it meets is priced once
        total = sum(amounts)
        for t, unit in units.items():
            price = Fraction(least_collateral(1, total - t, cost, star.rate))
            assert unit == (price.numerator, price.denominator)
        suffix_dp(amounts, cost, pq, order[1::2], units)
        suffix_dp(amounts, cost, pq, order, units)
        assert len(set(calls)) == len(calls) == len(units)

    def test_widest_denominators(self):
        # 200 players of 1-3, alpha = 5/7 and Z = 150: most steps are
        # partial, so the unreduced pairs grow the most
        rng = random.Random(200)
        star = StarInstance([rng.randint(1, 3) for _ in range(200)], 150, Fraction(5, 7))
        amounts, cost = scaled_star(star)
        want = fraction_suffix_dp(amounts, cost, star.rate, sigma(amounts))
        assert solve_star(star).total == min(price for price, _ in want.values())


class TestMinimalInOrder:
    """`minimal_in_order` (checks the players last first and shares who
    failed to join at which capital) against a fresh closure per positive
    collateral from its prefix, priced by the Fraction reference
    `_minimal_amount`."""

    @staticmethod
    def _closure(star, collaterals, players, raised):
        """The players of `players` that join from the capital `raised`, in
        the order they join, and the capital then raised."""
        joined, changed = [], True
        while changed:
            changed = False
            for f in players:
                if f not in joined and star_module._minimal_amount(
                        star, f, raised + star.amounts[f]) <= collaterals[f]:
                    joined.append(f)
                    raised += star.amounts[f]
                    changed = True
        return joined, raised

    def test_matches_a_fresh_closure_per_collateral(self):
        # collaterals are the needs along a random order, some raised, some
        # full: a player that fails to join at one capital may join at a
        # larger one in an earlier player's closure
        rng = random.Random(89)
        verdicts = []
        for _ in range(3000):
            star = random_star(rng, 6)
            order = list(range(star.size))
            rng.shuffle(order)
            collaterals, prefix = [None] * star.size, Fraction(0)
            for i in order:
                prefix += star.amounts[i]
                need = star_module._minimal_amount(star, i, prefix)
                r = rng.random()
                collaterals[i] = (star.amounts[i] if r < 0.2 else
                                  min(need * rng.randint(2, 3) / 2, star.amounts[i]) if r < 0.3
                                  else need)
            row, _ = self._closure(star, collaterals, range(star.size), Fraction(0))
            expected = all(
                star_module._minimal_amount(star, j, raised + star.amounts[j]) == collaterals[j]
                for pos, j in enumerate(row) if collaterals[j]
                for raised in [self._closure(star, collaterals, row[pos + 1:],
                                             sum((star.amounts[f] for f in row[:pos]),
                                                 Fraction(0)))[1]])
            scale, ints = scaled((*star.amounts, star.cost))
            assert star_module.minimal_in_order(
                [ints[j] for j in row], ints[-1], star.rate.as_integer_ratio(),
                [(collaterals[j].numerator * scale, collaterals[j].denominator) for j in row]
            ) == expected, (star, collaterals)
            verdicts.append(expected)
        assert verdicts.count(True) > 500 and verdicts.count(False) > 500


class TestStateGuard:
    def test_forty_player_knapsack_star(self):
        rng = random.Random(83)
        for trial in range(3):
            xs = [rng.randint(1, 100) for _ in range(39)]
            t = rng.randint(0, sum(xs) - max(xs))
            sol = solve_star(gen_knapsack_star(xs, t))
            assert len(sol.collaterals) == 40
            full_sum = sum((sol.collaterals[i] for i in sol.full_set), Fraction(0))
            assert full_sum == least_subset_sum_above(xs, t)

    def test_distinct_sums_past_the_guard_refused_fast(self):
        # powers of two: every subset sum is distinct, so layer k holds 2^k
        # states and the one past STATE_GUARD trips it
        star = StarInstance([2**i for i in range(STATE_GUARD.bit_length())], 1, 1)
        started = time.perf_counter()
        with pytest.raises(TooLargeError, match="%d states; the guard is %d"
                           % (STATE_GUARD + 1, STATE_GUARD)):
            solve_star(star)
        assert time.perf_counter() - started < 1

    def test_error_type_is_shared(self):
        assert collat.TooLargeError is collat.model.TooLargeError is collat.network.TooLargeError
        assert issubclass(TooLargeError, ValueError)


class TestLargeAlphaStars:
    def _random_integer_star(self, rng):
        d = rng.randint(1, 6)
        amounts = [rng.randint(1, 9) for _ in range(d)]
        z = rng.randint(0, max(0, sum(amounts) - 1))
        alpha = z + rng.randint(1, 5)
        return StarInstance(amounts, z, alpha)

    def test_zero_or_full_structure(self):
        rng = random.Random(67)
        done = 0
        while done < 50:
            star = self._random_integer_star(rng)
            if not star.is_profitable():
                continue
            done += 1
            sol = solve_star(star)
            for i in range(star.size):
                assert sol.collaterals[i] in (0, star.amounts[i])

    def test_some_largest_player_pays_nothing(self):
        rng = random.Random(71)
        done = 0
        while done < 50:
            star = self._random_integer_star(rng)
            if not star.is_profitable() or star.size < 2:
                continue
            done += 1
            sol = solve_star(star)
            top = max(star.amounts)
            assert any(
                sol.collaterals[i] == 0
                for i in range(star.size)
                if star.amounts[i] == top
            )


class TestBruteForceStar:
    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_star(StarInstance([1] * 10, 1, 1))

    def test_symmetric_pair(self):
        assert brute_force_star(StarInstance([1, 1], 1, 1)).total == 1

    def test_three_player(self):
        assert brute_force_star(StarInstance([3, 2, 1], 3, 1)).total == Fraction(5, 2)


class TestIntegerScaling:
    """`solve_star` scales a star to integers and tests profitability on
    them; `StarInstance` checks signs on numerators."""

    def test_profitability_on_integers_matches_the_fraction_formula(self):
        rng = random.Random(61)
        boundary = 0
        for trial in range(400):
            d = rng.randint(1, 5)
            amounts = [Fraction(rng.randint(1, 20), rng.randint(1, 7)) for _ in range(d)]
            total = sum(amounts, Fraction(0))
            z = total * Fraction(rng.randint(0, 9), 10)
            if trial % 4 == 0 and z:  # exactly profitable: (1+alpha)(X-Z) == X
                alpha = z / (total - z)
                boundary += 1
            else:
                alpha = Fraction(rng.randint(1, 30), rng.randint(1, 9))
            star = StarInstance(amounts, z, alpha)
            if star.is_profitable():
                assert solve_star(star).total == brute_force_star(star).total
            else:
                with pytest.raises(ValueError, match="^star instance is not profitable$"):
                    solve_star(star)
        assert boundary > 50

    @pytest.mark.parametrize("amounts, cost, rate, message", [
        ([Fraction(1, 3), Fraction(-1, 3)], 1, 1, "investment amounts must be positive"),
        ([Fraction(1, 3), 0], 1, 1, "investment amounts must be positive"),
        ([1], Fraction(-1, 7), 1, "cost must be nonnegative and rate positive"),
        ([1], 0, Fraction(0, 7), "cost must be nonnegative and rate positive"),
        ([1], 0, Fraction(-2, 7), "cost must be nonnegative and rate positive"),
    ])
    def test_sign_checks(self, amounts, cost, rate, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            StarInstance(amounts, cost, rate)
