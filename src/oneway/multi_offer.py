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

The acceptance rule and the per-type terms are those of ``single_offer``
(a single offer is the one-step schedule), so the equivalence gap of the
optimizer is exactly zero rather than float noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from . import streams
from .game import OneWayGame
from .single_offer import (
    Offer,
    _settle,
    _terms,
    delta_a,  # noqa: F401  unused here; perfbench's tracer and self-test wrap this binding
    optimal_offer,
)
from .streams import Z99


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
    """Effective thresholds (S_0, S_1, ..., S_n) with S_0 = 0 by convention.

    Interior steps discount the next offer by its continuation probability;
    the last step has nothing after it, so S_n is gamma_n itself. Interior
    values can be negative when the next offer is attractive enough, which
    simply means nobody accepts early.
    """
    g, p = schedule.gammas, schedule.probs
    interior = [(g[i - 1] - p[i] * g[i]) / (1.0 - p[i]) for i in range(1, schedule.n)]
    return (0.0, *interior, g[-1])


def reach_probs(schedule: Schedule) -> tuple[float, ...]:
    """R_i: probability step i is reached at all (R_1 = 1)."""
    return tuple(accumulate(schedule.probs, mul))


def _settled(game: OneWayGame, schedule: Schedule, type_b: str):
    """The schedule's terms and, per A type, its accepting step, reach and transfer."""
    terms = _terms(game, schedule.action_a, type_b)
    return (terms, *_settle(terms, s_values(schedule)[1:], reach_probs(schedule), schedule.gammas))


def acceptance_step(game: OneWayGame, schedule: Schedule, type_a: str, type_b: str) -> int | None:
    """First step (1-indexed) whose threshold covers A's sacrifice, else None."""
    _, step, _, _ = _settled(game, schedule, type_b)
    return int(step[game.type_a_index(type_a)]) or None


def expected_utility_B(game: OneWayGame, schedule: Schedule, type_b: str) -> float:
    """B's planning-view expected utility of committing to the schedule.

    Each type of A contributes the fallback value plus, if she accepts at
    step i, the retained share of the gain weighted by the probability the
    process survives to step i. Types that never accept contribute the
    fallback value alone.
    """
    terms, _, reach, transfer = _settled(game, schedule, type_b)
    return terms.expected(game, reach, transfer).u_b_planning


@dataclass(frozen=True)
class MultiOfferEvaluation:
    """Realized-payoff expectations of a schedule (not B's planning view)."""

    schedule: Schedule
    type_b: str
    expected_u_a: float
    expected_u_b: float
    expected_sw: float
    acceptance_prob: float
    step_of_type: dict[str, int | None]


def expected_outcome(game: OneWayGame, schedule: Schedule, type_b: str) -> MultiOfferEvaluation:
    """Exact expected realized payoffs under the schedule.

    Differs from expected_utility_B on the rejection branch: here B's payoff
    is what she actually earns replying to A's selfish play, not the fallback
    value she planned around. Both are reported so simulations can be checked
    against the estimand they actually sample.
    """
    terms, step, reach, transfer = _settled(game, schedule, type_b)
    e = terms.expected(game, reach, transfer)
    return MultiOfferEvaluation(
        schedule=schedule,
        type_b=type_b,
        expected_u_a=e.u_a,
        expected_u_b=e.u_b,
        expected_sw=e.welfare,
        acceptance_prob=e.acceptance,
        step_of_type=dict(zip(game.types_a, [k or None for k in step.tolist()])),
    )


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
    game: OneWayGame, schedule: Schedule, type_b: str, samples: int, seed: int
) -> SimulationResult:
    """Monte Carlo check of a schedule, vectorized in fixed-size batches.

    Reports realized means (matching expected_outcome) and the planning-view
    mean for B, where a failed process is booked at the fallback value
    (matching expected_utility_B). Batches use counter-based streams keyed by
    (seed, batch index), so results are independent of batching and threads.

    A draw's payoffs depend only on its A type and whether it accepts, so
    they are read off tables with two cells per type (index 2 * type +
    accepted). Batches run on ``os.cpu_count()`` threads
    (``streams.run_batches``); each thread owns one uniform column, one
    output column that the four tables take turns to fill, and a mask.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    terms, _, reach, transfer = _settled(game, schedule, type_b)
    n_types = len(game.types_a)
    cdf = np.cumsum(game.prior_a)
    pb_deal = terms.ub_accept - transfer
    pa_cell = np.column_stack((game.selfish_payoff_a, game.payoff_a[:, terms.ia] + transfer)).ravel()
    pb_cell = np.column_stack((terms.ub_reject, pb_deal)).ravel()
    plan_cell = np.column_stack((np.full(n_types, terms.outside.payoff), pb_deal)).ravel()
    sw_cell = pa_cell + pb_cell

    def make_batch():
        n = min(samples, streams.BATCH_SIZE)
        u_buf, out_buf = np.empty((2, n))
        accept_buf = np.empty(n, dtype=bool)

        def batch(index: int, size: int):
            u, out, accept = u_buf[:size], out_buf[:size], accept_buf[:size]
            rng = streams.stream(seed, index)
            rng.random(out=u)
            cell = np.searchsorted(cdf, u, side="right")  # A's type, then its table cell
            np.clip(cell, 0, n_types - 1, out=cell)
            rng.random(out=u)
            # The indices are in range; mode="clip" lets take write straight
            # into its out array, which the default mode would copy through a
            # buffer.
            np.take(reach, cell, out=out, mode="clip")  # 0 for types that never accept
            np.less(u, out, out=accept)
            cell *= 2
            cell += accept
            stats = []
            for table in (pa_cell, pb_cell, sw_cell, plan_cell):
                np.take(table, cell, out=out, mode="clip")
                stats.append(streams.centre(out, out))
            return size, stats, int(np.count_nonzero(accept))

        return batch

    moments = streams.Moments(4)  # u_a, u_b, sw, u_b planning view
    accepted_total = 0
    for size, stats, hits in streams.run_batches(samples, make_batch):
        moments.merge(size, *zip(*stats))
        accepted_total += hits
    means = moments.means()
    ci = Z99 * moments.standard_errors()
    return SimulationResult(
        samples=samples,
        acceptance_rate=accepted_total / samples,
        mean_u_a=float(means[0]),
        mean_u_b=float(means[1]),
        mean_sw=float(means[2]),
        mean_u_b_planning=float(means[3]),
        ci_u_a=float(ci[0]),
        ci_u_b=float(ci[1]),
        ci_sw=float(ci[2]),
        ci_u_b_planning=float(ci[3]),
    )


@dataclass(frozen=True)
class ScheduleOptimum:
    """The best n-step schedule; ``certified`` when ``certification_slack``
    (``single_offer_value - value``) is at most 1e-9, which covers schedules
    with nondecreasing thresholds on positive-gain actions only."""

    schedule: Schedule
    value: float
    single_offer: Offer
    single_offer_value: float
    null_offer: bool
    certified: bool
    certification_slack: float
    outcome: MultiOfferEvaluation


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
    slack = res.evaluation.expected_u_b - value
    return ScheduleOptimum(
        schedule=schedule,
        value=value,
        single_offer=res.offer,
        single_offer_value=res.evaluation.expected_u_b,
        null_offer=res.null_offer,
        certified=slack <= 1e-9,
        certification_slack=slack,
        outcome=expected_outcome(game, schedule, type_b),
    )


def equivalence_gap(game: OneWayGame, type_b: str, n: int) -> float:
    """|value of the best n-step schedule - value of the best single offer|."""
    opt = optimize_schedule(game, type_b, n)
    return abs(opt.value - opt.single_offer_value)
