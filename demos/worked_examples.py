"""The closed-form curves, checked against simulation.

Three scenarios with continuous private costs:

* a seller whose cooperative action costs U[0,100] while the buyer's stake
  is x: the tuned offer keeps the inefficiency below 1.21 for every x;
* the same at unit scale, where the worst stake has a closed form;
* power-law costs, where the tuned share and its guarantee are explicit.
"""

import numpy as np

from oneway import (
    acceptance_prob_example2,
    corollary_bound,
    example1b,
    example2,
    example2_poa_max,
    example1b_scenario,
    mc_poa,
    mc_single_offer,
    power_scenario,
)

print("stake sweep (cost ~ U[0,100], offer shares half the stake):")
xs = np.arange(0.0, 401.0, 1.0)
points = [example1b(float(x)) for x in xs]
worst = max(points, key=lambda p: p.poa)
for x in (50.0, 100.0, 200.0, 400.0):
    p = example1b(x)
    print(f"  x={x:5.0f}: welfare {p.expected_welfare:7.2f}, "
          f"optimal {p.optimal_welfare:7.2f}, PoA {p.poa:.4f}")
print(f"  worst over the sweep: PoA {worst.poa:.4f} at x={worst.param:.0f} (< 1.21)")

(mc,) = mc_single_offer([example1b_scenario(100.0)], 200_000, seed=1, accounting="aggregate")
print(f"  simulation at x=100: PoA {mc.poa_vs_ex_ante:.4f} "
      f"(analytic {example1b(100.0).poa:.4f})")

print()
mu_star, peak = example2_poa_max()
print(f"unit scale: PoA peaks at stake {mu_star:.6f} with value {peak:.6f}")
print(f"  curve check: example2({mu_star:.4f}).poa = {example2(mu_star).poa:.6f}")

print()
print("acceptance with n competing uniform costs tends to the threshold c:")
for n in (2, 10, 1000):
    row = ", ".join(
        f"P(c={c:.2f})={acceptance_prob_example2(c, n):.4f}" for c in (0.25, 0.5, 0.75)
    )
    print(f"  n={n:<5d} {row}")

print()
print("power-law costs: tuned share and guaranteed expected PoA")
betas = (0.25, 0.5, 1.0)
mcs = mc_poa([power_scenario(beta) for beta in betas], 100_000, seed=2)
for beta, mc in zip(betas, mcs):
    gamma_star, bound = corollary_bound(beta)
    print(f"  beta={beta:.2f}: share {gamma_star:.4f}, bound {bound:.4f}, "
          f"simulated mean PoA {mc.mean_poa:.4f}")
