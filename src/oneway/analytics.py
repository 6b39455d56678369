"""Continuous-type scenarios and their Monte Carlo simulator.

The discrete engine in the other modules handles any finite game. The
canonical illustrations, though, live in continuous type space: A's sacrifice
for the cooperative action is drawn from a density, and the interesting
quantities (equilibrium welfare, the optimal share, the price of anarchy
curve) have closed forms. Those live in ``closed_form``, which imports no
numpy, so the commands that print only closed forms never load it; this
module holds the scenarios, whose sacrifices all follow one power law on
[low, high] (``ContinuousSpec``; the uniform law is its beta = 1 case), and
a vectorized simulator that samples them directly, and only
``--mc-samples`` runs it. The simulator has
one estimator per estimand, each folding only what it reports on a shared
batch driver (``_simulate``, which runs the batches in order on the calling
thread): ``mc_single_offer`` the accepted draws' sacrifices, for the
payoffs and welfare, and ``mc_poa`` the declined draws' forgone gains, for
the per-draw price of anarchy. A draw of the other group adds only a
constant, so a batch draws no run of it: it draws its group's size from the
group's binomial law, then only that group's sacrifices, and folds them by
``_group_moments``; ``streams.interval`` pools every batch's group with the
other group, a constant (``_pooled``).

Accounting note. The closed-form welfare curves book every accepting type's
sacrifice at the population mean ("aggregate" accounting), so
``mc_single_offer`` accepts with probability F(gamma * delta_b),
independent of the sacrifice: its accepted sacrifices follow the
unconditional law. ``mc_poa`` applies the real threshold rule ("exact"
accounting: accept exactly when the transfer covers the sacrifice), the
estimand of per-draw inefficiency bounds: its declined sacrifices follow
the law above the threshold. The two agree on acceptance and on B's
utility, and differ on welfare whenever sacrifice and acceptance are
correlated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import streams


@dataclass(frozen=True)
class ContinuousSpec:
    """A's sacrifice law: F(x) = ((x - low) / (high - low))^beta on
    [low, high], the uniform law at beta = 1. Every parameter is finite,
    with high > low and beta > 0."""

    low: float
    high: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        _check_finite(self, "low", "high", "beta")
        if not (self.high > self.low and self.beta > 0.0):
            raise ValueError(f"spec needs high > low and beta > 0, got {self!r}")

    @classmethod
    def uniform(cls, low: float, high: float) -> "ContinuousSpec":
        return cls(float(low), float(high))

    @classmethod
    def power(cls, beta: float, scale: float) -> "ContinuousSpec":
        return cls(0.0, float(scale), float(beta))

    def mean(self) -> float:
        # In this order low = 0 gives high * beta / (beta + 1) exactly.
        return self.low + (self.high - self.low) * self.beta / (self.beta + 1.0)

    def cdf(self, x: float) -> float:
        return min(max(0.0, (x - self.low) / (self.high - self.low)), 1.0) ** self.beta

    def ppf(self, q, out: np.ndarray | None = None):
        """Inverse CDF, vectorized over q in [0, 1].

        With ``out`` (which may be ``q`` itself) the quantiles are written
        there in place instead of into a new array. A scalar q gives a scalar.
        """
        if out is None:
            out = np.empty(np.shape(q))
        np.power(q, 1.0 / self.beta, out=out)
        out *= self.high - self.low
        out += self.low
        return out[()] if out.ndim == 0 else out


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
        _check_finite(self, "delta_b", "a_default", "b_outside")
        if self.delta_b < 0.0:
            raise ValueError("delta_b must be non-negative")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.a_default + self.b_outside <= 0.0:
            raise ValueError("default welfare must be positive")


def _check_finite(record, *names: str) -> None:
    for name in names:
        if not math.isfinite(value := getattr(record, name)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def example1b_scenario(x: float) -> SingleOfferScenario:
    """Worked example 1b (``closed_form.example1b``) as a simulatable
    scenario (stake x)."""
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


def power_scenario(beta: float) -> SingleOfferScenario:
    """The corollary's scenario: sacrifices with F(x) = x^beta on [0, 1], a
    stake and a default payoff of 1 (so a sacrifice never exceeds what A
    already has, which keeps the per-outcome inefficiency bounds in force),
    and the tuned share beta / (beta + 1)."""
    spec = ContinuousSpec.power(beta, 1.0)
    return SingleOfferScenario(spec, delta_b=1.0, a_default=1.0, b_outside=0.0, gamma=beta / (beta + 1.0))


@dataclass(frozen=True)
class MCResult:
    """Payoff estimates of one scenario (``mc_single_offer``)."""

    samples: int
    acceptance_rate: float
    mean_u_a: float
    mean_u_b: float
    mean_sw: float
    ci_u_a: float
    ci_u_b: float
    ci_sw: float
    poa_vs_ex_ante: float


@dataclass(frozen=True)
class MCPoAResult:
    """Per-draw price-of-anarchy estimates of one scenario (``mc_poa``)."""

    samples: int
    acceptance_rate: float
    mean_poa: float
    ci_poa: float
    max_poa: float


def mc_single_offer(scenarios: Sequence[SingleOfferScenario], samples: int, seed: int) -> list[MCResult]:
    """Estimate each scenario's u_a, u_b and welfare by simulation in
    aggregate accounting; one result per scenario, in order (batches as in
    ``_simulate``).

    The three payoffs are constant on declined draws and fall one for one
    with the sacrifice on accepted ones, so a batch keeps for them only the
    accepted sacrifices' group moments (``_MCTerms.payoffs``). poa_vs_ex_ante
    divides the aggregate optimum by mean welfare, which is what the
    closed-form curves report.
    """
    terms, folds = _simulate(scenarios, samples, seed, _fold_accepted)
    return [t.payoffs(samples, f) for t, f in zip(terms, folds)]


def mc_poa(scenarios: Sequence[SingleOfferScenario], samples: int, seed: int) -> list[MCPoAResult]:
    """Estimate each scenario's per-draw price of anarchy, the draw's own
    optimum over its welfare, by simulation in exact accounting: its mean,
    interval and largest value. One result per scenario, in order (batches
    as in ``_simulate``).

    An accepted draw's sacrifice is at most gamma * delta_b <= delta_b, so
    its trade gains welfare and its PoA is exactly 1. A declined draw keeps
    the default welfare base, and its PoA is 1 + g / base with g =
    max(delta_b - delta, 0) the gain it forgoes. A batch therefore keeps
    only the declined draws' gains: their group moments and largest value.
    """
    terms, folds = _simulate(scenarios, samples, seed, _fold_declined)
    return [t.poa(samples, f) for t, f in zip(terms, folds)]


def _simulate(scenarios: Sequence[SingleOfferScenario], samples: int, seed: int, fold):
    """The scenarios' constants, and per scenario its batches' folds, in
    batch order: ``fold(terms, rng, size, column)`` for a batch of ``size``
    runs drawn from ``rng``.

    Each estimator folds one group of a batch's runs, so a fold draws only
    that group (``_draw_group``): its size from its binomial law, then one
    uniform per member, mapped to the member's sacrifice. Every scenario of
    a call reopens the batch's stream, so its result is the same whether it
    is simulated alone or with others.

    Batches run in order on the calling thread, in one float column of one
    batch, which every fold fills and overwrites in turn. Every batch's
    folds are kept until all have run, so ``samples`` is capped at 2**32:
    65,536 batches, whose folds take about 58 MB for four scenarios.
    """
    if isinstance(scenarios, SingleOfferScenario):
        raise TypeError("scenarios must be a sequence of SingleOfferScenario, not one scenario")
    if not 0 < samples <= 1 << 32:
        raise ValueError(f"samples {samples} is outside [1, 2**32]")
    terms = [_MCTerms(sc) for sc in scenarios]
    if not terms:
        return terms, []

    column = np.empty(min(samples, streams.BATCH_SIZE))
    batches = [
        [fold(t, streams.stream(seed, i), size, column) for t in terms]
        for i, size in enumerate(streams.batch_sizes(samples))
    ]
    return terms, list(zip(*batches))


def _draw_group(rng: np.random.Generator, size: int, p: float, column: np.ndarray) -> np.ndarray:
    """Uniforms for the members of a group that each of ``size`` runs joins
    with probability ``p``: their count from Binomial(size, p), then one
    uniform each, written to the head of ``column``."""
    return rng.random(out=column[: rng.binomial(size, p)])


def _group_moments(values: np.ndarray) -> tuple[int, float, float]:
    """Count, mean and centred second moment of a group's values, which are
    overwritten; an empty group gives (0, 0.0, 0.0)."""
    if not values.size:
        return 0, 0.0, 0.0
    mean = np.sum(values) / values.size
    dev = np.subtract(values, mean, out=values)
    return values.size, mean, np.sum(np.square(dev, out=dev))


def _fold_accepted(
    t: "_MCTerms", rng: np.random.Generator, size: int, column: np.ndarray
) -> tuple[int, float, float]:
    """The accepted sacrifices' group moments. Acceptance is independent of
    the sacrifice, so the group is Binomial(size, F(T)) draws of the
    unconditional law."""
    delta = _draw_group(rng, size, t.p_accept, column)
    return _group_moments(t.spec.ppf(delta, out=delta))


def _fold_declined(
    t: "_MCTerms", rng: np.random.Generator, size: int, column: np.ndarray
) -> tuple[int, float, float, float]:
    """The declined draws' forgone gains max(delta_b - delta, 0): their
    group moments and largest value (0.0 when every draw accepts). The group
    is Binomial(size, 1 - F(T)) draws of the law above T, at the quantiles
    1 - (1 - F(T)) u."""
    q = _draw_group(rng, size, t.p_decline, column)
    q *= -t.p_decline
    q += 1.0
    delta = t.spec.ppf(q, out=q)
    gain = np.maximum(np.subtract(t.delta_b, delta, out=delta), 0.0, out=delta)
    top = float(np.max(gain)) if gain.size else 0.0
    return (*_group_moments(gain), top)


def _pooled(rest: float, samples: int, counts: np.ndarray, gaps, within) -> tuple[float, float]:
    """Mean and 99 percent half-width of ``samples`` draws: batch i's
    ``counts[i]`` draws lie ``gaps[i]`` above ``rest`` with centred second
    moment ``within[i]`` (a scalar stands for all), and the others equal it."""
    gaps, within = (np.append(np.broadcast_to(x, counts.shape), 0.0) for x in (gaps, within))
    mean, half_width = streams.interval(np.append(counts, samples - np.sum(counts)), gaps, within)
    return rest + mean, half_width


class _MCTerms:
    """A scenario's constants as one batch reads them."""

    def __init__(self, scenario: SingleOfferScenario) -> None:
        self.spec = scenario.delta_a_spec
        self.delta_b = scenario.delta_b
        # A accepts with probability F(T) in either accounting.
        self.transfer = scenario.gamma * scenario.delta_b
        self.p_accept = self.spec.cdf(self.transfer)
        self.p_decline = 1.0 - self.p_accept
        self.a_default = scenario.a_default
        self.b_outside = scenario.b_outside
        self.base = scenario.a_default + scenario.b_outside

    def payoffs(self, samples: int, folds) -> MCResult:
        """The result from the accepted sacrifices' batch moments. Each
        payoff lies a gap above its declined value: T - mu, delta_b - T and
        delta_b - mu, which carry no payoff offset (``_pooled``)."""
        k, mu, m2 = map(np.array, list(zip(*folds))[:3])
        t = self.transfer
        means, widths = zip(
            _pooled(self.a_default, samples, k, t - mu, m2),
            _pooled(self.b_outside, samples, k, self.delta_b - t, 0.0),
            _pooled(self.base, samples, k, self.delta_b - mu, m2),
        )
        ex_ante_opt = max(self.base, self.base - self.spec.mean() + self.delta_b)
        # MCResult lists the means of u_a, u_b and welfare, then their widths.
        return MCResult(samples, int(np.sum(k)) / samples, *means, *widths, ex_ante_opt / means[2])

    def poa(self, samples: int, folds) -> MCPoAResult:
        """The result from the declined draws' gains: PoA - 1 is gain / base
        on a declined draw and 0 on an accepted one."""
        k, mu, m2 = map(np.array, list(zip(*folds))[:3])
        gain, ci_gain = _pooled(0.0, samples, k, mu, m2)
        return MCPoAResult(
            samples=samples,
            acceptance_rate=(samples - int(np.sum(k))) / samples,
            mean_poa=1.0 + gain / self.base,
            ci_poa=ci_gain / self.base,
            max_poa=1.0 + max(top for *_, top in folds) / self.base,
        )
