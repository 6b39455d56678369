"""Walk through equilibrium play and inefficiency metrics on a tiny game.

Player A picks a row and gets paid regardless of what B does; B picks a
column whose worth depends on A's row. That one-way structure means A has a
dominant choice per type, and whatever B does cannot change it. The gap
between that outcome and the best coordinated one is the price of anarchy.

Run:  python3 demos/poa_basics.py
"""

import numpy as np

from oneway import make_game, nash_outcome, poa_metrics, optimal_welfare

# A is a machine shop choosing a part finish (cheap or careful); B is the
# downstream assembler. Careful finishing costs the shop 1 but is worth 4
# to an assembler of type "fragile" and nothing to type "robust".
game = make_game(
    actions_a=["cheap", "careful"],
    actions_b=["assemble", "rework"],
    types_a=[("low_cost", 0.5), ("high_cost", 0.5)],
    types_b=[("fragile", 0.5), ("robust", 0.5)],
    payoff_a=[
        [3.0, 2.0],   # low_cost shop: careful finishing only costs 1
        [3.0, 0.5],   # high_cost shop: careful finishing costs 2.5
    ],
    payoff_b=[
        # fragile assembler: careful parts assemble cleanly
        [[1.0, 0.5], [4.0, 1.0]],
        # robust assembler barely cares
        [[2.0, 1.0], [2.2, 1.0]],
    ],
)

out = nash_outcome(game)
print("Equilibrium play (no payments):")
for t, a in out.action_a.items():
    print(f"  shop {t:9s} -> {a}")
for t, b in out.action_b.items():
    print(f"  assembler {t:8s} -> {b}")
print(f"  expected welfare: {out.expected_welfare:.4f}")

# The shop always picks "cheap": its own payoff column dominates. The
# fragile assembler loses the 4.0 outcome entirely.
print()
print("Per type-profile inefficiency:")
report = poa_metrics(game)
# The tables have a row per shop type and a column per assembler type.
for (i, k), poa in np.ndenumerate(report.per_type_poa):
    ta, tb = game.types_a[i], game.types_b[k]
    _, opt = optimal_welfare(game, (ta, tb))
    lo = report.prop1_lower[i, k]
    hi = report.prop1_upper[i, k]
    print(
        f"  ({ta}, {tb}): optimal {opt:.2f}, "
        f"PoA {poa:.4f}, bounded by [{lo:.4f}, {hi:.4f}]"
    )

print()
print("Aggregates (both are reported, they answer different questions):")
print(f"  expectation of per-profile ratios: {report.bayes_nash_poa:.4f}")
print(f"  ratio of expected welfares:        {report.welfare_ratio_poa:.4f}")
