"""Multi-offer bargaining: a posted schedule of rising shares.

B commits to a sequence of shares gamma_1 < ... < gamma_n for one action,
together with continuation probabilities: after a rejection at step i the
process moves on to step i+1 with probability p_{i+1}, otherwise it ends and
both sides fall back to no-deal play. The risk of the process ending is what
disciplines A: her effective threshold at step i is the schedule value

    S_i = (gamma_i - p_{i+1} gamma_{i+1}) / (1 - p_{i+1})      (S_n = gamma_n)

and A accepts at the first step whose S_i covers her sacrifice ratio. When
the S_i are nondecreasing, that is A's best response, and the schedule's
value to B is a convex combination of single-offer values, so the best such
schedule recovers exactly the best single offer; the functions here make
both the equivalence and the simulation checkable.

The evaluator and its record are those of ``single_offer`` (a single
offer is the one-step schedule), so the equivalence gap of the optimizer is
exactly zero rather than float noise. The simulation draws how many runs
of each A type accept (multinomial over the types, then binomial over each
type's reach) rather than the runs themselves, so its cost does not grow
with the sample count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from . import streams
from .game import OneWayGame, _exact_sum
from .single_offer import (
    VALUE_TOL,
    Offer,
    OfferEvaluation,
    _settle,
    _terms,
    delta_a,  # noqa: F401  unused here; perfbench's tracer and self-test wrap this binding
    optimal_offer,
)


def schedule_errors(gammas: tuple[float, ...], probs: tuple[float, ...]) -> list[str]:
    errors: list[str] = []
    n = len(gammas)
    if n == 0:
        errors.append("schedule needs at least one step")
        return errors
    if len(probs) != n:
        errors.append(f"probs has length {len(probs)}, expected {n}")
        return errors
    for i, g in enumerate(gammas):
        if not math.isfinite(g) or not 0.0 <= g <= 1.0:
            errors.append(f"gamma[{i}] = {g!r} is outside [0, 1]")
    for i in range(1, n):
        if not gammas[i] > gammas[i - 1]:
            errors.append(f"gammas must be strictly increasing (step {i})")
    if probs[0] != 1.0:
        errors.append(f"probs[0] = {probs[0]!r}, the first offer must be certain (1.0)")
    for i, p in enumerate(probs):
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            errors.append(f"probs[{i}] = {p!r} is outside [0, 1]")
    for i in range(1, n):
        if probs[i] == 1.0:
            errors.append(
                f"probs[{i}] = 1.0 makes continuation certain and step {i} meaningless"
            )
    return errors


@dataclass(frozen=True)
class Schedule:
    """A committed offer schedule for one action of A."""

    action_a: str
    gammas: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        errors = schedule_errors(self.gammas, self.probs)
        if errors:
            raise ValueError("; ".join(errors))

    @property
    def n(self) -> int:
        return len(self.gammas)


def s_values(schedule: Schedule) -> tuple[float, ...]:
    """Effective thresholds (S_1, ..., S_n), one per step.

    Interior steps discount the next offer by its continuation probability;
    the last step has nothing after it, so S_n is gamma_n itself. Interior
    values can be negative when the next offer is attractive enough, which
    simply means nobody accepts early.
    """
    g, p = schedule.gammas, schedule.probs
    interior = [(g[i - 1] - p[i] * g[i]) / (1.0 - p[i]) for i in range(1, schedule.n)]
    return (*interior, g[-1])


def reach_probs(schedule: Schedule) -> tuple[float, ...]:
    """R_i: probability step i is reached at all (R_1 = 1)."""
    return tuple(accumulate(schedule.probs, mul))


def expected_outcome(game: OneWayGame, schedule: Schedule, type_b: str) -> OfferEvaluation:
    """The schedule's evaluation: realised expectations, and B's planning
    view in ``planning_u_b``. Both are reported so simulations can be
    checked against the estimand they actually sample."""
    terms = _terms(game, schedule.action_a, type_b)
    return terms.evaluate(game, s_values(schedule), reach_probs(schedule), schedule.gammas)


def expected_utility_B(game: OneWayGame, schedule: Schedule, type_b: str) -> float:
    """B's planning-view expected utility of committing to the schedule.

    Each type of A contributes the fallback value plus, if she accepts at
    step i, the retained share of the gain weighted by the probability the
    process survives to step i. Types that never accept contribute the
    fallback value alone.
    """
    return expected_outcome(game, schedule, type_b).planning_u_b


@dataclass(frozen=True)
class SimulationResult:
    samples: int
    acceptance_rate: float
    mean_u_a: float
    mean_u_b: float
    mean_sw: float
    mean_u_b_planning: float
    ci_u_a: float
    ci_u_b: float
    ci_sw: float
    ci_u_b_planning: float


def simulate_schedule(
    game: OneWayGame, schedule: Schedule, types_b: Sequence[str], samples: int, seed: int
) -> list[SimulationResult]:
    """Monte Carlo check of a schedule against each B type; one result per
    B type, in order, for ``samples`` in [1, 2**63) (numpy counts draws in
    int64).

    Reports realized means (matching expected_outcome) and the planning-view
    mean for B, where a failed process is booked at the fallback value
    (matching expected_utility_B).

    A draw's payoffs depend only on its A type and whether it accepts, so
    they are read off tables with two cells per type of positive prior
    (declined, accepted), and how many draws land in each cell is a
    sufficient statistic, drawn here directly: the A types' counts are
    Multinomial(samples, prior) over the types of positive prior, and each
    type's accepted count is Binomial(count, R), R being the probability
    that the step the type accepts at is reached (0 if it never accepts).
    Each cell is a group of equal draws for ``streams.interval``, so the
    work does not grow with ``samples``. B type k of the game
    draws from ``streams.stream(seed, k)``, so its result is the same
    whether it is simulated alone or with others.
    """
    if isinstance(types_b, str):
        raise TypeError("types_b must be a sequence of B type ids, not one id")
    if not 0 < samples < 1 << 63:
        raise ValueError(f"samples {samples} is outside [1, 2**63)")
    positive = np.flatnonzero(game.prior_a > 0.0)
    prior = game.prior_a[positive] / _exact_sum(game.prior_a[positive])
    results = []
    for type_b in types_b:
        terms = _terms(game, schedule.action_a, type_b)
        _, reach, transfer = _settle(terms, s_values(schedule), reach_probs(schedule), schedule.gammas)
        rng = streams.stream(seed, game.type_b_index(type_b))
        drawn = rng.multinomial(samples, prior)
        accepted = rng.binomial(drawn, reach[positive])
        pb_deal = terms.ub_accept - transfer
        pb_cell = np.column_stack((terms.ub_reject, pb_deal))
        plan_cell = np.column_stack((np.full_like(pb_deal, terms.outside.payoff), pb_deal))
        # u_a, u_b, welfare and B's planning view; A's payoff with the
        # transfer, and welfare, are inf where they pass the float range.
        with np.errstate(over="ignore"):
            pa_cell = np.column_stack((game.selfish_payoff_a, game.payoff_a[:, terms.ia] + transfer))
            table = np.stack((pa_cell, pb_cell, pa_cell + pb_cell, plan_cell))[:, positive].reshape(4, -1)
        c = np.column_stack((drawn - accepted, accepted)).ravel()
        means, ci = zip(*(streams.interval(c, row, 0.0) for row in table))
        results.append(SimulationResult(samples, int(np.sum(accepted)) / samples, *means, *ci))
    return results


@dataclass(frozen=True)
class ScheduleOptimum:
    """The best n-step schedule; ``certified`` when ``certification_slack``
    (``single_offer_value - value``) is at most ``VALUE_TOL``, which covers
    schedules with nondecreasing thresholds on positive-gain actions only."""

    schedule: Schedule
    value: float
    single_offer: Offer
    single_offer_value: float
    null_offer: bool
    certified: bool
    certification_slack: float


def _padded_gammas(x: float, n: int) -> tuple[float, ...]:
    """Strictly increasing gammas in [0, 1] starting at x; a ValueError
    when fewer than n - 1 floats lie above x."""
    pad = (1.0 - x) / n
    out = [x]
    for j in range(1, n):
        if out[-1] >= 1.0:
            raise ValueError(f"no room for n = {n} steps above the best share {x!r}")
        out.append(min(max(x + j * pad, math.nextafter(out[-1], 1.0)), 1.0))
    return tuple(out)


def optimize_schedule(game: OneWayGame, type_b: str, n: int) -> ScheduleOptimum:
    """Best n-step schedule for B, certified by an exact identity.

    A schedule with nondecreasing thresholds S (``s_values``) is worth
    sum_k R_k (1 - p_{k+1}) V(S_k) to B, V(S) being the single offer (action,
    S)'s value: a convex combination of single offers on its action. So on
    an action with a positive gain none beats the best single offer, and the
    optimum front-loads it: step one carries the best share, continuation
    probabilities are zero (so S_k = gamma_k), later gammas are padding that
    never plays, and the slack is the best single offer's value minus the
    schedule's. Not covered: non-monotone thresholds, where the first
    covering step is not A's best response, and actions without a positive
    gain, which the single-offer search skips.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    res = optimal_offer(game, type_b)
    schedule = Schedule(res.offer.action_a, _padded_gammas(res.offer.gamma, n), (1.0,) + (0.0,) * (n - 1))
    value = expected_utility_B(game, schedule, type_b)
    slack = res.evaluation.planning_u_b - value
    return ScheduleOptimum(
        schedule=schedule,
        value=value,
        single_offer=res.offer,
        single_offer_value=res.evaluation.planning_u_b,
        null_offer=res.null_offer,
        certified=slack <= VALUE_TOL,
        certification_slack=slack,
    )


def equivalence_gap(game: OneWayGame, type_b: str, n: int) -> float:
    """|value of the best n-step schedule - value of the best single offer|."""
    opt = optimize_schedule(game, type_b, n)
    return abs(opt.value - opt.single_offer_value)
