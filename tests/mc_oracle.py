"""Replaced Monte Carlo batch loops, kept as test-only per-draw oracles.

``mc_single_offer`` and ``simulate_schedule`` as they stood before the
batches were written into reused buffers: every batch draws both uniforms
with ``rng.uniform(size=...)`` and builds every payoff as a per-draw column
from fresh temporaries. ``Moments`` is the moment fold of the same version,
which kept sums and allocated its centring scratch on every ``add``, and
``ppf`` is the inverse CDF of the same version, out of place. Two changes
from the original: ``ppf(spec, q)`` for ``spec.ppf(q)``, and the single-offer
batch body moved into ``single_offer_columns``, which also serves the per-draw
columns to property tests. ``MCResult`` is that version's single-offer
result, the payoff and PoA estimates in one record; the package now returns
them from two estimators (``mc_single_offer`` and ``mc_poa``) as two records
whose fields keep these names. That version took an ``accounting`` of
"exact" (accept when the transfer covers the sacrifice) or "aggregate"
(accept on an independent coin, drawn after the sacrifices); the oracle
keeps both as the per-draw reference, since each package estimator runs in
one of them: ``mc_single_offer`` in aggregate accounting and ``mc_poa`` in
exact. The schedule result type, the streams and the schedule terms come
from the package.

The package now reduces each batch to sufficient statistics, so its fields
agree with these to a few ulps of the payoff scale rather than bit for bit;
the acceptance counts, which come from the same draws, agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oneway import streams
from oneway.analytics import ContinuousSpec, SingleOfferScenario
from oneway.game import OneWayGame
from oneway.multi_offer import Schedule, SimulationResult, reach_probs, s_values
from oneway.single_offer import _settle, _terms
from oneway.streams import Z99


def ppf(spec: ContinuousSpec, q):
    q = np.asarray(q, dtype=np.float64)
    if spec.kind == "uniform":
        return spec.low + q * (spec.high - spec.low)
    return spec.high * q ** (1.0 / spec.beta)


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
    spec = scenario.delta_a_spec
    base = scenario.a_default + scenario.b_outside
    moments = Moments(4)  # u_a, u_b, sw, poa
    max_poa = 0.0
    accepted = 0
    for accept, _, ua, ub, sw, poa in single_offer_columns(scenario, samples, seed, accounting):
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
    base = scenario.a_default + scenario.b_outside
    transfer = scenario.gamma * scenario.delta_b
    for index, size in enumerate(streams.batch_sizes(samples)):
        rng = streams.stream(seed, index)
        u_delta = rng.uniform(size=size)
        u_coin = rng.uniform(size=size)
        delta = np.atleast_1d(ppf(spec, u_delta))
        if accounting == "exact":
            accept = delta <= thr
        else:
            accept = u_coin < p_model
        ua = np.where(accept, scenario.a_default - delta + transfer, scenario.a_default)
        ub = np.where(
            accept, scenario.b_outside + scenario.delta_b - transfer, scenario.b_outside
        )
        sw = ua + ub
        opt = np.maximum(base, base - delta + scenario.delta_b)
        poa = opt / sw
        yield accept, delta, ua, ub, sw, poa


def simulate_schedule(
    game: OneWayGame, schedule: Schedule, type_b: str, samples: int, seed: int
) -> SimulationResult:
    if samples <= 0:
        raise ValueError("samples must be positive")
    terms = _terms(game, schedule.action_a, type_b)
    _, reach, transfer = _settle(terms, s_values(schedule)[1:], reach_probs(schedule), schedule.gammas)
    ua_deal = game.payoff_a[:, terms.ia]
    n_types = len(game.types_a)
    cdf = np.cumsum(game.prior_a)

    moments = Moments(4)  # u_a, u_b, sw, u_b planning view
    accepted_total = 0
    for index, size in enumerate(streams.batch_sizes(samples)):
        rng = streams.stream(seed, index)
        u_type = rng.uniform(size=size)
        u_cont = rng.uniform(size=size)
        types = np.searchsorted(cdf, u_type, side="right")
        np.clip(types, 0, n_types - 1, out=types)
        accept = u_cont < reach[types]  # reach is 0 for types that never accept
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
