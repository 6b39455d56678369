"""Closed-form worked examples, continuous-type scenarios and Monte Carlo.

The discrete engine in the other modules handles any finite game. The
canonical illustrations, though, live in continuous type space: A's sacrifice
for the cooperative action is drawn from a density, and the interesting
quantities (equilibrium welfare, the optimal share, the price of anarchy
curve) have closed forms. This module keeps those closed forms, the
continuous-to-discrete bridge, and a vectorized simulator that can sample a
scenario directly.

Accounting note. The closed-form welfare curves book every accepting type's
sacrifice at the population mean, i.e. acceptance is treated as independent
of the drawn sacrifice. The simulator therefore has two modes: "aggregate"
draws acceptance as an independent coin with the right probability and
converges to the closed forms; "exact" applies the real threshold rule
(accept exactly when the sacrifice is covered), which is the right estimand
for per-draw inefficiency bounds. The two agree on acceptance probability
and on B's utility, and differ on welfare whenever sacrifice and acceptance
are correlated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .game import OneWayGame, make_game
from .single_offer import Offer, _settle, _terms
from .streams import Z99


@dataclass(frozen=True)
class ContinuousSpec:
    """A one-parameter family of sacrifice distributions on [low, high].

    kind "uniform": flat on [low, high].
    kind "power": F(x) = (x / high)^beta on [0, high] (low is ignored, 0).
    """

    kind: str
    low: float
    high: float
    beta: float = 1.0

    @classmethod
    def uniform(cls, low: float, high: float) -> "ContinuousSpec":
        if not high > low:
            raise ValueError("uniform spec needs high > low")
        return cls("uniform", float(low), float(high))

    @classmethod
    def power(cls, beta: float, scale: float) -> "ContinuousSpec":
        if beta <= 0.0 or scale <= 0.0:
            raise ValueError("power spec needs beta > 0 and scale > 0")
        return cls("power", 0.0, float(scale), float(beta))

    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.low + self.high)
        return self.high * self.beta / (self.beta + 1.0)

    def cdf(self, x: float) -> float:
        if self.kind == "uniform":
            if x <= self.low:
                return 0.0
            if x >= self.high:
                return 1.0
            return (x - self.low) / (self.high - self.low)
        if x <= 0.0:
            return 0.0
        if x >= self.high:
            return 1.0
        return (x / self.high) ** self.beta

    def ppf(self, q, out: np.ndarray | None = None):
        """Inverse CDF, vectorized over q in [0, 1].

        With ``out`` (which may be ``q`` itself) the quantiles are written
        there in place instead of into a new array. A scalar q gives a scalar.
        """
        if out is None:
            out = np.array(q, dtype=np.float64)
        elif out is not q:
            np.copyto(out, q)
        if self.kind == "uniform":
            out *= self.high - self.low
            out += self.low
        else:
            out **= 1.0 / self.beta
            out *= self.high
        return out[()] if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.ppf(rng.uniform(size=size))


def discretize(spec: ContinuousSpec, k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """k quantile midpoints with equal weights 1/k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    qs = np.array([(i + 0.5) / k for i in range(k)])
    values = np.atleast_1d(spec.ppf(qs))
    return tuple(float(v) for v in values), (1.0 / k,) * k


# ---------------------------------------------------------------------------
# Worked example: A defaults to a payoff of 100; the cooperative action costs
# her delta ~ U[0, 100] and raises B's payoff by x over an outside value of 0.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    param: float
    threshold: float
    expected_welfare: float
    optimal_welfare: float
    poa: float


def _tuned_offer(stake: float, scale: float) -> CurvePoint:
    """B's utility-maximizing single offer when A's sacrifice is uniform on
    [0, scale] and B's stake is ``stake``: the threshold is stake/2, capped
    at scale, and welfare books the mean sacrifice scale/2 against accepted
    trades."""
    c_star = stake / 2.0 if stake <= 2.0 * scale else scale
    p = c_star / scale
    sw = scale + p * (stake - scale / 2.0)
    opt = max(scale, scale / 2.0 + stake)
    return CurvePoint(param=stake, threshold=c_star, expected_welfare=sw, optimal_welfare=opt, poa=opt / sw)


def example1b(x: float) -> CurvePoint:
    """Welfare and PoA of the tuned single offer as B's stake x varies.

    The offer maximizing B's utility sets the acceptance threshold at x/2
    (capped at the largest possible sacrifice, 100). Welfare books the mean
    sacrifice of 50 against accepted trades, matching the aggregate
    accounting documented in the module docstring.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be finite and non-negative, got {x!r}")
    return _tuned_offer(x, 100.0)


def example1b_no_payment_poa(x: float) -> float:
    """PoA with no bargaining at all: A plays her default, welfare is 100."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be finite and non-negative, got {x!r}")
    return max(100.0, 50.0 + x) / 100.0


def example2(mu1: float) -> CurvePoint:
    """Unit-scale variant: sacrifice ~ U[0, 1], B's stake is mu1."""
    if not 0.0 <= mu1 < math.inf:
        raise ValueError(f"mu1 must be finite and non-negative, got {mu1!r}")
    return _tuned_offer(mu1, 1.0)


def example2_poa_max() -> tuple[float, float]:
    """Where the unit-scale PoA curve peaks, and its value, in closed form."""
    mu_star = (math.sqrt(10.0) - 1.0) / 2.0
    value = 4.0 * (3.0 + 2.0 * math.sqrt(10.0)) / 31.0
    return mu_star, value


def expected_max_uniform(n: int) -> float:
    """Mean of the largest of n independent U[0, 1] draws."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n / (n + 1.0)


def acceptance_prob_example2(c: float, n: int) -> float:
    """Acceptance probability at threshold c with n-fold uniform competition;
    tends to c as n grows."""
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    if n < 2:
        raise ValueError("n must be at least 2")
    return (c * n - c**n) / (n - 1.0)


# ---------------------------------------------------------------------------
# Continuous single-offer scenarios and their simulator.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleOfferScenario:
    """A continuous-type single-offer situation.

    A's default action pays her a_default and pays B b_outside. The proposed
    action costs A a sacrifice drawn from delta_a_spec and raises B's payoff
    by delta_b; the standing offer shares a gamma fraction of that gain.
    """

    delta_a_spec: ContinuousSpec
    delta_b: float
    a_default: float
    b_outside: float
    gamma: float

    def __post_init__(self) -> None:
        if self.delta_b < 0.0:
            raise ValueError("delta_b must be non-negative")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.a_default + self.b_outside <= 0.0:
            raise ValueError("default welfare must be positive")


def example1b_scenario(x: float) -> SingleOfferScenario:
    """The worked example above as a simulatable scenario (stake x)."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be finite and non-negative, got {x!r}")
    gamma = 0.5 if x <= 200.0 else 100.0 / x
    return SingleOfferScenario(
        delta_a_spec=ContinuousSpec.uniform(0.0, 100.0),
        delta_b=float(x),
        a_default=100.0,
        b_outside=0.0,
        gamma=gamma,
    )


def power_scenario(beta: float, delta_b: float = 1.0) -> SingleOfferScenario:
    """Power-law sacrifices with the tuned share beta / (beta + 1).

    The default payoff equals the stake, so a sacrifice never exceeds what A
    already has; that keeps the per-outcome inefficiency bounds in force.
    """
    return SingleOfferScenario(
        delta_a_spec=ContinuousSpec.power(beta, delta_b),
        delta_b=float(delta_b),
        a_default=float(delta_b),
        b_outside=0.0,
        gamma=beta / (beta + 1.0),
    )


def scenario_game(scenario: SingleOfferScenario, k: int) -> OneWayGame:
    """Discretize a scenario into a finite game with k A-types.

    Action "propose" costs the type its sacrifice and raises B by delta_b
    over the outside value; action "default" is A's selfish play.
    """
    values, weights = discretize(scenario.delta_a_spec, k)
    payoff_a = [[scenario.a_default - d, scenario.a_default] for d in values]
    floor = min(scenario.a_default - d for d in values)
    if floor < 0.0:
        raise ValueError("scenario sacrifices exceed the default payoff; shift a_default up")
    payoff_b = [[[scenario.b_outside + scenario.delta_b], [scenario.b_outside]]]
    return make_game(
        actions_a=["propose", "default"],
        actions_b=["reply"],
        types_a=[(f"d{i + 1}", weights[i]) for i in range(k)],
        types_b=[("b1", 1.0)],
        payoff_a=payoff_a,
        payoff_b=payoff_b,
    )


def aggregate_accounting_welfare(game: OneWayGame, offer: Offer, type_b: str) -> float:
    """Expected welfare of an offer with the mean sacrifice booked against
    accepted trades (the closed-form curves' convention)."""
    terms = _terms(game, offer.action_a, type_b)
    _, reach, _ = _settle(terms, (offer.gamma,), (1.0,), (offer.gamma,))
    p = float(game.prior_a @ reach)
    e_ua_nash = float(game.prior_a @ terms.ua_selfish)
    e_da = float(game.prior_a @ terms.sacrifice)
    return e_ua_nash + terms.outside.payoff + p * (terms.gain - e_da)


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
    """Simulate a scenario with batched counter-based streams.

    Each batch draws a sacrifice uniform per sample and, in aggregate mode
    only, a coin uniform after them. The coin is the batch stream's second
    draw, so exact mode skips it and still samples the same sacrifices:
    switching accounting never reshuffles them. Batches run on
    ``os.cpu_count()`` threads (``streams.run_batches``); each thread owns
    three float columns and a mask of one batch each (the sacrifice, then
    the per-draw PoA; u_a, then u_b; welfare), and centres a column in
    place once nothing else reads it. Per-draw PoA compares against the
    draw's own optimum; poa_vs_ex_ante divides the aggregate optimum by mean
    welfare instead, which is what the closed-form curves report.
    """
    if accounting not in ("exact", "aggregate"):
        raise ValueError('accounting must be "exact" or "aggregate"')
    if samples <= 0:
        raise ValueError("samples must be positive")
    spec = scenario.delta_a_spec
    thr = scenario.gamma * scenario.delta_b
    p_model = spec.cdf(thr)
    base = scenario.a_default + scenario.b_outside
    transfer = scenario.gamma * scenario.delta_b
    ub_deal = scenario.b_outside + scenario.delta_b - transfer
    ub_cell = np.array([scenario.b_outside, ub_deal])  # B's payoff, indexed by accepted

    def make_batch():
        n = min(samples, streams.BATCH_SIZE)
        delta_buf, u_buf, sw_buf = np.empty((3, n))
        accept_buf = np.empty(n, dtype=bool)

        def batch(index: int, size: int):
            delta, u, sw, accept = delta_buf[:size], u_buf[:size], sw_buf[:size], accept_buf[:size]
            rng = streams.stream(seed, index)
            rng.random(out=delta)
            spec.ppf(delta, out=delta)
            if accounting == "exact":
                np.less_equal(delta, thr, out=accept)
            else:
                rng.random(out=u)  # the coin
                np.less(u, p_model, out=accept)
            cell = accept.view(np.uint8)
            # (a_default - delta) + transfer and (base - delta) + delta_b, in
            # that order: each rounding step shows in the reported means.
            ua = u
            ua.fill(scenario.a_default)
            np.add(np.subtract(scenario.a_default, delta, out=sw), transfer, out=sw)
            np.copyto(ua, sw, where=accept)
            # u_b is read off a two-entry table, several times faster than a
            # masked copy, whose branches follow the random mask; it is read
            # twice, first to be added into sw, then to be centred.
            np.take(ub_cell, cell, out=sw, mode="clip")
            np.add(ua, sw, out=sw)
            stats_ua = streams.centre(ua, ua)
            ub = u
            np.take(ub_cell, cell, out=ub, mode="clip")
            stats_ub = streams.centre(ub, ub)
            poa = delta
            np.add(np.subtract(base, delta, out=poa), scenario.delta_b, out=poa)
            np.maximum(poa, base, out=poa)
            np.divide(poa, sw, out=poa)
            top = float(np.max(poa))
            stats = (stats_ua, stats_ub, streams.centre(sw, sw), streams.centre(poa, poa))
            return size, stats, int(np.count_nonzero(accept)), top

        return batch

    moments = streams.Moments(4)  # u_a, u_b, sw, poa
    max_poa = 0.0
    accepted = 0
    for size, stats, hits, top in streams.run_batches(samples, make_batch):
        moments.merge(size, *zip(*stats))
        accepted += hits
        max_poa = max(max_poa, top)
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
