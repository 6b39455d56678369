"""How a single take-it-or-leave-it offer recovers lost welfare.

B commits up front: "play this action and I pay you a gamma share of my
gain over my walk-away value." A's types then self-select; the ones whose
sacrifice is small enough accept. The demo shows B's outside option, the
candidate shares worth considering, the utility-maximizing offer, the
simpler welfare-oriented recipe, and the guarantee that comes with it.

Run:  python3 demos/single_offer_walkthrough.py
"""

from oneway import (
    Offer,
    bayes_poa_bound,
    evaluate_offer,
    gamma_candidates,
    make_game,
    optimal_offer,
    outside_option,
    run_single_offer,
    simplified_offer,
)

game = make_game(
    actions_a=["cheap", "careful"],
    actions_b=["assemble", "rework"],
    types_a=[("low_cost", 0.5), ("high_cost", 0.5)],
    types_b=[("fragile", 1.0)],
    payoff_a=[[3.0, 2.0], [3.0, 0.5]],
    payoff_b=[[[1.0, 0.5], [4.0, 1.0]]],
)

tb = "fragile"
out = outside_option(game, "careful", tb)
print(f"B's walk-away if 'careful' is refused: play {out.action_b!r}, "
      f"worth {out.payoff:.2f} against the refusers")

cands = gamma_candidates(game, "careful", tb)
print(f"shares worth considering for 'careful': {cands}")
print("(each one is exactly where some shop type flips to accepting)")
print()

for g in cands:
    ev = evaluate_offer(game, Offer("careful", g), tb)
    print(f"  gamma={g:<8.4f} accept prob {ev.acceptance_prob:.2f}  "
          f"E[u_B]={ev.planning_u_b:.4f}  E[welfare]={ev.expected_sw:.4f}")

best = optimal_offer(game, tb)
print()
print(f"selfish optimum for B: offer {best.offer.action_a!r} at "
      f"gamma={best.offer.gamma:.4f}, E[u_B]={best.evaluation.planning_u_b:.4f}")

simple = simplified_offer(game, tb)
bound = bayes_poa_bound(game, tb)
print(f"simplified recipe:     offer {simple.offer.action_a!r} at "
      f"gamma={simple.offer.gamma:.4f}, guaranteed E[PoA] <= {bound:.4f}")

# Resolve the two concrete interactions. The low-cost shop accepts; the
# high-cost one would need a bigger share than B offered.
print()
for ta in game.types_a:
    o = run_single_offer(game, simple.offer, ta, tb)
    verb = "accepts" if o.accepted else "rejects"
    print(f"  {ta:9s} {verb}: plays {o.profile.action_a!r}/{o.profile.action_b!r}, "
          f"transfer {o.transfer:.4f}, welfare {o.welfare:.4f}")
