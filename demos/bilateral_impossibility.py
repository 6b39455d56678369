"""Where bargaining hits a wall: two-sided uncertainty over a traded good.

A seller values the good somewhere in [0,1], a buyer likewise, and trade
should happen whenever the buyer values it strictly more. On discrete value
grids a linear program searches for transfers that make honesty, voluntary
participation, and budget balance all hold at once. Fine grids have no such
transfers; the LP hands back a dual certificate proving it, and a second
program prices the cheapest outside subsidy that restores feasibility.

The one-way setting dodges the wall entirely: only the acting side has
private payoff-relevant structure for the decision at hand, which is why
its single-offer mechanism needs no subsidy.
"""

from oneway import (
    BilateralTradeInstance,
    certificate_is_valid,
    check_properties,
    feasibility_lp,
    min_subsidy,
    refinement_sweep,
    uniform_grid_instance,
)

# One seller value, one buyer value, gains from trade: a fixed price works.
single = BilateralTradeInstance(
    seller_values=[0.25], seller_probs=[1.0], buyer_values=[0.75], buyer_probs=[1.0]
)
res = feasibility_lp(single)
print(f"single-pair instance: {res.verdict} (margin {res.margin:.4f})")
print(f"  mechanism honest/voluntary/balanced: {check_properties(single, res.mechanism).all_hold}")
print(f"  implied price: {res.mechanism.payment_a[0, 0]:.4f}")

print()
print("uniform grids, k values per side, overlapping supports:")
for row in refinement_sweep(range(2, 13)):
    line = f"  k={row.k:2d}  {row.verdict:10s} margin {row.margin: .6f}"
    if row.verdict == "infeasible":
        line += f"  min subsidy {row.subsidy:.6f}  certificate ok: {row.certificate_ok}"
    print(line)

print()
k = 8
inst = uniform_grid_instance(k)
res = feasibility_lp(inst)
if res.verdict == "infeasible":
    print(f"k={k}: infeasible, certificate re-verifies: {certificate_is_valid(res)}")
    sub = min_subsidy(inst)
    print(f"  cheapest subsidy restoring feasibility: {sub.subsidy:.6f}")
    props = check_properties(inst, sub.mechanism)
    print(f"  subsidized mechanism: efficient={props.efficient} honest={props.incentive_compatible}"
          f" voluntary={props.individually_rational} balanced={props.budget_balanced}")
    print("  (balanced is the property the subsidy deliberately gives up)")

# Dropping voluntary participation alone is also enough.
res_no_ir = feasibility_lp(uniform_grid_instance(10), include_ir=False)
print()
print(f"k=10 without the participation constraint: {res_no_ir.verdict}")
