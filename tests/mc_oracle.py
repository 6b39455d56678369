"""Replaced Monte Carlo batch loops, kept as test-only per-draw oracles.

``mc_single_offer`` and ``simulate_schedule`` as they stood before the
batches were written into reused buffers: every batch draws both uniforms
with ``rng.uniform(size=...)`` and builds every payoff as a per-draw column
from fresh temporaries. ``Moments`` is the moment fold of the same version,
which kept sums and allocated its centring scratch on every ``add``, and
``ppf`` is the inverse CDF of the same version, out of place, with its
two laws' formulas chosen by the spec's parameters. Two changes
from the original: ``ppf(spec, q)`` for ``spec.ppf(q)``, and the single-offer
batch body moved into ``single_offer_columns``, which also serves the per-draw
columns to property tests, and whose payoff columns and fold are shared with
``single_offer_cells``. ``MCResult`` is that version's single-offer
result, the payoff and PoA estimates in one record; the package now returns
them from two estimators (``mc_single_offer`` and ``mc_poa``) as two records
whose fields keep these names. That version took an ``accounting`` of
"exact" (accept when the transfer covers the sacrifice) or "aggregate"
(accept on an independent coin, drawn after the sacrifices); the oracle
keeps both as the per-draw reference, since each package estimator runs in
one of them: ``mc_single_offer`` in aggregate accounting and ``mc_poa`` in
exact. The schedule result type, the streams and the schedule terms come
from the package.

The package now draws, for each single-offer batch, only the group of runs
it folds (the accepted draws for ``mc_single_offer``, the declined ones for
``mc_poa``): the group's size from its binomial law, then the group's
sacrifices alone. So it shares no draws with ``mc_single_offer`` here,
which remains the per-draw reference that both must agree with in
distribution. ``single_offer_cells`` draws the package's group sizes and
uniforms with the same calls, lays them out as per-draw columns (the
group's draws, then the other group's at a constant sacrifice) and folds
them as ``mc_single_offer`` does, so the package's moment arithmetic is
checked on the same draws: its fields agree with these to a few ulps of the
payoff scale rather than bit for bit, and its acceptance counts exactly.
A schedule simulation in the package likewise draws its (A type, accepted)
cell counts from their multinomial and binomial laws instead of drawing per
run, and ``simulate_schedule`` here remains its per-draw reference.
``simulate_schedule_cells`` draws the package's cell counts, lays them out
as per-draw columns and folds them as ``simulate_schedule`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oneway import streams
from oneway.analytics import ContinuousSpec, SingleOfferScenario
from oneway.game import OneWayGame
from oneway.multi_offer import Schedule, SimulationResult, reach_probs, s_values
from oneway.single_offer import _settle, _terms
from oneway.streams import Z99


def ppf(spec: ContinuousSpec, q):
    """The uniform law's formula where beta = 1, else the power law's on
    [0, high]; where both apply they agree bit for bit. The oracles draw
    from no other law."""
    q = np.asarray(q, dtype=np.float64)
    if spec.beta == 1.0:
        return spec.low + q * (spec.high - spec.low)
    if spec.low == 0.0:
        return spec.high * q ** (1.0 / spec.beta)
    raise ValueError(f"no oracle formula for beta {spec.beta!r} on [{spec.low!r}, {spec.high!r}]")


class Moments:
    def __init__(self, columns: int) -> None:
        self.count = 0
        self.sums = np.zeros(columns)
        self.m2 = np.zeros(columns)

    def add(self, *columns: np.ndarray) -> None:
        size = columns[0].size
        sums = np.array([np.sum(c) for c in columns])
        means = sums / size
        m2 = np.empty(len(columns))
        d = np.empty(size)
        for j, (c, m) in enumerate(zip(columns, means)):
            m2[j] = np.sum(np.square(np.subtract(c, m, out=d), out=d))
        if self.count:
            delta = means - self.sums / self.count
            m2 += delta * delta * (self.count * size / (self.count + size))
        self.count += size
        self.sums += sums
        self.m2 += m2

    def means(self) -> np.ndarray:
        return self.sums / self.count

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(self.m2 / self.count / self.count)


@dataclass(frozen=True)
class MCResult:
    samples: int
    accounting: str
    acceptance_rate: float
    mean_u_a: float
    mean_u_b: float
    mean_sw: float
    mean_poa: float
    max_poa: float
    ci_u_a: float
    ci_u_b: float
    ci_sw: float
    ci_poa: float
    poa_vs_ex_ante: float


def mc_single_offer(
    scenario: SingleOfferScenario, samples: int, seed: int, accounting: str = "exact"
) -> MCResult:
    if accounting not in ("exact", "aggregate"):
        raise ValueError('accounting must be "exact" or "aggregate"')
    if samples <= 0:
        raise ValueError("samples must be positive")
    columns = single_offer_columns(scenario, samples, seed, accounting)
    return _fold_columns(scenario, samples, accounting, columns)


def single_offer_cells(scenario: SingleOfferScenario, samples: int, seed: int, accounting: str) -> MCResult:
    """The package's draws for ``scenario`` in ``accounting``, laid out by
    ``single_offer_cell_columns`` and folded batch by batch as
    ``mc_single_offer`` folds its draws."""
    columns = single_offer_cell_columns(scenario, samples, seed, accounting)
    return _fold_columns(scenario, samples, accounting, columns)


def _fold_columns(scenario: SingleOfferScenario, samples: int, accounting: str, columns) -> MCResult:
    """Each batch's per-draw columns folded into ``Moments``."""
    spec = scenario.delta_a_spec
    base = scenario.a_default + scenario.b_outside
    moments = Moments(4)  # u_a, u_b, sw, poa
    max_poa = 0.0
    accepted = 0
    for accept, _, ua, ub, sw, poa in columns:
        accepted += int(np.count_nonzero(accept))
        max_poa = max(max_poa, float(np.max(poa)))
        moments.add(ua, ub, sw, poa)
    means = moments.means()
    ci = Z99 * moments.standard_errors()
    ex_ante_opt = max(base, base - spec.mean() + scenario.delta_b)
    return MCResult(
        samples=samples,
        accounting=accounting,
        acceptance_rate=accepted / samples,
        mean_u_a=float(means[0]),
        mean_u_b=float(means[1]),
        mean_sw=float(means[2]),
        mean_poa=float(means[3]),
        max_poa=max_poa,
        ci_u_a=float(ci[0]),
        ci_u_b=float(ci[1]),
        ci_sw=float(ci[2]),
        ci_poa=float(ci[3]),
        poa_vs_ex_ante=ex_ante_opt / float(means[2]),
    )


def single_offer_columns(scenario: SingleOfferScenario, samples: int, seed: int, accounting: str = "exact"):
    """Per batch: the accept flags and the sacrifice, u_a, u_b, welfare and
    PoA columns."""
    spec = scenario.delta_a_spec
    thr = scenario.gamma * scenario.delta_b
    p_model = spec.cdf(thr)
    for index, size in enumerate(streams.batch_sizes(samples)):
        rng = streams.stream(seed, index)
        u_delta = rng.uniform(size=size)
        u_coin = rng.uniform(size=size)
        delta = np.atleast_1d(ppf(spec, u_delta))
        if accounting == "exact":
            accept = delta <= thr
        else:
            accept = u_coin < p_model
        yield _payoff_columns(scenario, accept, delta)


def single_offer_cell_columns(scenario: SingleOfferScenario, samples: int, seed: int, accounting: str):
    """Per batch, the columns of ``single_offer_columns`` over the package's
    draws: the size k of the group the package folds, from the same stream
    with the same ``binomial`` call, and k uniforms after it, mapped to the
    group's sacrifices. In aggregate accounting the group is the accepted
    draws, at the quantiles u; in exact it is the declined draws, at the
    quantiles 1 - (1 - F(T)) u above the threshold T. The batch's other
    size - k draws, whose payoffs the estimator reads as constants, follow
    the group with their sacrifice at T."""
    spec = scenario.delta_a_spec
    thr = scenario.gamma * scenario.delta_b
    p_accept = spec.cdf(thr)
    p_decline = 1.0 - p_accept
    for index, size in enumerate(streams.batch_sizes(samples)):
        rng = streams.stream(seed, index)
        if accounting == "aggregate":
            k = rng.binomial(size, p_accept)
            group, accept = ppf(spec, rng.random(k)), np.arange(size) < k
        else:
            k = rng.binomial(size, p_decline)
            group, accept = ppf(spec, 1.0 - p_decline * rng.random(k)), np.arange(size) >= k
        yield _payoff_columns(scenario, accept, np.concatenate((group, np.full(size - k, thr))))


def _payoff_columns(scenario: SingleOfferScenario, accept: np.ndarray, delta: np.ndarray):
    """The accept flags, the sacrifices, and the u_a, u_b, welfare and PoA
    columns they give."""
    base = scenario.a_default + scenario.b_outside
    transfer = scenario.gamma * scenario.delta_b
    ua = np.where(accept, scenario.a_default - delta + transfer, scenario.a_default)
    ub = np.where(accept, scenario.b_outside + scenario.delta_b - transfer, scenario.b_outside)
    sw = ua + ub
    opt = np.maximum(base, base - delta + scenario.delta_b)
    poa = opt / sw
    return accept, delta, ua, ub, sw, poa


def simulate_schedule(
    game: OneWayGame, schedule: Schedule, type_b: str, samples: int, seed: int
) -> SimulationResult:
    if samples <= 0:
        raise ValueError("samples must be positive")
    terms = _terms(game, schedule.action_a, type_b)
    _, reach, _ = _settle(terms, s_values(schedule), reach_probs(schedule), schedule.gammas)
    n_types = len(game.types_a)
    cdf = np.cumsum(game.prior_a)

    def draws():
        for index, size in enumerate(streams.batch_sizes(samples)):
            rng = streams.stream(seed, index)
            u_type = rng.uniform(size=size)
            u_cont = rng.uniform(size=size)
            types = np.searchsorted(cdf, u_type, side="right")
            np.clip(types, 0, n_types - 1, out=types)
            yield types, u_cont < reach[types]  # reach is 0 for types that never accept

    return _fold_draws(game, schedule, type_b, samples, draws())


def simulate_schedule_cells(
    game: OneWayGame, schedule: Schedule, type_b: str, samples: int, seed: int
) -> SimulationResult:
    """The package's (A type, accepted) cell counts for ``type_b``, drawn
    from the same stream with the same calls, laid out as per-draw columns
    in type order and folded batch by batch as ``simulate_schedule`` folds
    its draws."""
    terms = _terms(game, schedule.action_a, type_b)
    _, reach, _ = _settle(terms, s_values(schedule), reach_probs(schedule), schedule.gammas)
    positive = np.flatnonzero(game.prior_a > 0.0)
    rng = streams.stream(seed, game.type_b_index(type_b))
    drawn = rng.multinomial(samples, game.prior_a[positive] / math.fsum(game.prior_a[positive]))
    accepted = rng.binomial(drawn, reach[positive])
    cells = np.column_stack((drawn - accepted, accepted)).ravel()
    types = np.repeat(np.repeat(positive, 2), cells)
    accept = np.repeat(np.tile([False, True], len(positive)), cells)
    ends = np.cumsum(streams.batch_sizes(samples))
    draws = zip(np.split(types, ends[:-1]), np.split(accept, ends[:-1]))
    return _fold_draws(game, schedule, type_b, samples, draws)


def _fold_draws(game: OneWayGame, schedule: Schedule, type_b: str, samples: int, draws) -> SimulationResult:
    """Each batch of (A type, accepted) draws as per-draw payoff columns,
    folded into ``Moments``."""
    terms = _terms(game, schedule.action_a, type_b)
    _, _, transfer = _settle(terms, s_values(schedule), reach_probs(schedule), schedule.gammas)
    ua_deal = game.payoff_a[:, terms.ia]
    moments = Moments(4)  # u_a, u_b, sw, u_b planning view
    accepted_total = 0
    for types, accept in draws:
        t = transfer[types]
        pa = np.where(accept, ua_deal[types] + t, game.selfish_payoff_a[types])
        pb_deal = terms.ub_accept - t
        pb = np.where(accept, pb_deal, terms.ub_reject[types])
        pb_plan = np.where(accept, pb_deal, terms.outside.payoff)
        accepted_total += int(np.count_nonzero(accept))
        moments.add(pa, pb, pa + pb, pb_plan)
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
