"""Posted schedules of escalating offers, and why they buy nothing extra.

Instead of one offer, B posts a sequence: a share gamma_1 now, or with
probability p_2 a share gamma_2 later, and so on. A type accepts at the
first step whose implied share covers its sacrifice, discounted by the
risk that later steps never arrive. The punchline: the best schedule is
worth exactly the best single offer.
"""

import sys

from oneway import (
    Schedule,
    equivalence_gap,
    expected_outcome,
    optimize_schedule,
    random_game,
    s_values,
    simulate_schedule,
)

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 3

game = random_game(seed, n_actions_a=4, n_actions_b=3, n_types_a=4, n_types_b=2)
tb = game.types_b[0]

# A hand-written two-step schedule: 30% now, or a coin flip reaches a
# second chance at 50%.
sched = Schedule("a1", gammas=(0.3, 0.5), probs=(1.0, 0.5))
print(f"schedule on {sched.action_a!r}: gammas {sched.gammas}, reach probs {sched.probs}")
print(f"effective per-step acceptance thresholds S_i: {s_values(sched)}")
print("(a type accepts at step i once its share-of-gain need is below S_i)")

outcome = expected_outcome(game, sched, tb)
print()
print(f"B's planning value:    {outcome.planning_u_b:.6f}")
print(f"exact expected payoffs: u_A {outcome.expected_u_a:.6f}, "
      f"u_B {outcome.expected_u_b:.6f}, welfare {outcome.expected_sw:.6f}")
print(f"overall acceptance probability: {outcome.acceptance_prob:.4f}")

(sim,) = simulate_schedule(game, sched, [tb], samples=20_000, seed=seed)
print(f"simulated ({sim.samples} draws): planning value "
      f"{sim.mean_u_b_planning:.4f} +- {sim.ci_u_b_planning:.4f} (99% CI)")

print()
for n in (2, 3):
    opt = optimize_schedule(game, tb, n)
    gap = equivalence_gap(game, tb, n)
    print(f"best {n}-step schedule: value {opt.value:.6f}  "
          f"best single offer: {opt.single_offer_value:.6f}  gap {gap:.2e}")
    print(f"  certified by the exact decomposition (nondecreasing thresholds): "
          f"{opt.certified} (slack {opt.certification_slack:.2e})")
print()
print("the gap staying at zero is the point: escalation adds no leverage")
