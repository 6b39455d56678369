"""How many misses a batch of 99 percent intervals may have.

The Monte Carlo coverage tests run many independent simulations and count
how often the reported 99 percent half-width fails to cover the exact value.
Each derives its limit here from its number of tries, so that a correct
estimator fails only with a chance below ``alarm``.
"""

from __future__ import annotations

# Seeds of the coverage tests, at 20,000 draws a simulation.
COVERAGE_SEEDS = range(400)
# The per-draw oracles of ``mc_oracle`` take a few milliseconds a
# simulation at 20,000 draws, so they run on a tenth of those seeds.
ORACLE_SEEDS = range(40)


def miss_limit(trials: int, alarm: float = 1e-6) -> int:
    """The fewest misses of a 99 percent interval in ``trials`` independent
    tries whose binomial tail probability is below ``alarm``, exactly: 39 for
    1,600 tries. The chance of k misses is C(trials, k) 99^(trials - k) over
    100^trials, so the tail is compared in integers."""
    num, den = alarm.as_integer_ratio()
    whole = 100**trials
    term = 99**trials  # C(trials, 0) 99^trials
    below = 0
    for m in range(trials + 1):
        if (whole - below) * den < num * whole:
            return m
        below += term
        term = term * (trials - m) // ((m + 1) * 99)
    raise AssertionError("no limit")
