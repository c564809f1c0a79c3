"""Networks that no collateral scheme can stabilize.

Two firms funding only each other can both default no matter what
collaterals are promised: each needs the other's money to stay solvent, and
a defaulting firm withdraws its investment.  The solver refuses with a
witness: a vertex set where every vertex sits on a cycle and no enterprise
can cover its cost from outside the set.
"""
from collat import InvestmentNetwork, solvability_check, solve

# P and Q invest 2 in each other; Z = 1 each, so each is profitable on
# paper -- but only if the other actually pays.
hopeless = InvestmentNetwork(
    2,
    [(0, 1, 2), (1, 0, 2)],
    cost={0: 1, 1: 1},
    rate={0: 1, 1: 1},
    ids=["P", "Q"],
)
result = solvability_check(hopeless)
print("P <-> Q, no outside investors: solvable =", result.solvable)
w = result.witness
print("witness vertices:", sorted(hopeless.ids[v] for v in w.vertices))
for k, short in sorted(w.shortfalls.items()):
    print("  %s is short %s of outside funding" % (hopeless.ids[k], short))
print()

# Give each firm a single outside spike covering its cost and the check
# secures the cycle firm by firm: P from its spike, then Q, since P's
# investment in Q is as good as outside money once P is secured.
rescued = InvestmentNetwork(
    4,
    [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 3, 1)],
    cost={0: 1, 1: 1},
    rate={0: 1, 1: 1},
    ids=["P", "Q", "s", "t"],
)
result = solvability_check(rescued)
print("same cycle with one spike each: solvable =", result.solvable)
print("  secured in order:", " -> ".join(rescued.ids[k] for k in result.secured))

sol = solve(rescued)
print("optimal total:", sol.total, " NEC:", sol.nec)
