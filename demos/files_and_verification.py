"""Round-trip a network through the JSON document format and double-check a
collateral matrix by exhaustive game-theory machinery.

Everything is exact: amounts serialize as "p/q" strings and float literals
are rejected on input, so what you verify is exactly what you solved.
"""
import tempfile
from pathlib import Path

from collat import (
    CollateralMatrix,
    gen_cycle_family,
    is_nash_equilibrium,
    is_viable,
    load_network,
    save_network,
    solve,
)

net = gen_cycle_family(3)
with tempfile.TemporaryDirectory() as workdir:  # removed with its file on exit
    path = Path(workdir) / "cycle3.json"
    save_network(net, path, meta={"family": "cycle", "k": 3})
    print("wrote", path)
    print(path.read_text()[:260], "...")
    print()
    again = load_network(path)
assert again.edges == net.edges

sol = solve(again)
print("solved: total=%s NEC=%s" % (sol.total, sol.nec))

# Viability means all-invest is the unique Nash equilibrium.  Check both
# halves by hand: all-invest is an equilibrium, all-defect is not.
c = sol.collaterals
print("viable:", is_viable(again, c))
print("all-invest is a Nash equilibrium:",
      is_nash_equilibrium(again, c, again.all_edges()))
print("all-defect survives:", is_nash_equilibrium(again, c, frozenset()))

# Without the collaterals the market can freeze: all-defect is stable too.
zeros = CollateralMatrix.zeros(again)
print("with zero collaterals, all-defect survives:",
      is_nash_equilibrium(again, zeros, frozenset()))
