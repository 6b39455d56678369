"""Continuous-type scenarios and their Monte Carlo simulator.

The discrete engine in the other modules handles any finite game. The
canonical illustrations, though, live in continuous type space: A's sacrifice
for the cooperative action is drawn from a density, and the interesting
quantities (equilibrium welfare, the optimal share, the price of anarchy
curve) have closed forms. Those live in ``closed_form``, which imports no
numpy, so the commands that print only closed forms never load it; this
module holds the scenarios as distributions and a vectorized simulator that
samples them directly, and only ``--mc-samples`` runs it. The simulator has
one estimator per estimand, each folding only what it reports on a shared
batch driver (``_simulate``): ``mc_single_offer`` the accepted draws'
sacrifices, for the payoffs and welfare, and ``mc_poa`` the declined
draws' forgone gains, for the per-draw price of anarchy. Both fold their
group by ``_group_moments`` and merge it with the other by ``_two_groups``.

Accounting note. The closed-form welfare curves book every accepting type's
sacrifice at the population mean, i.e. acceptance is treated as independent
of the drawn sacrifice. The simulator therefore has two modes: "aggregate"
draws acceptance as an independent coin with the right probability and
converges to the closed forms; "exact" applies the real threshold rule
(accept exactly when the sacrifice is covered), which is the right estimand
for per-draw inefficiency bounds and the only one ``mc_poa`` runs. The two
agree on acceptance probability and on B's utility, and differ on welfare
whenever sacrifice and acceptance are correlated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import streams
from .streams import Z99


@dataclass(frozen=True)
class ContinuousSpec:
    """A one-parameter family of sacrifice distributions on [low, high].

    kind "uniform": flat on [low, high].
    kind "power": F(x) = (x / high)^beta on [0, high] (low is ignored, 0).
    No other kind exists, and every parameter must be finite.
    """

    kind: str
    low: float
    high: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "power"):
            raise ValueError(f"kind must be 'uniform' or 'power', got {self.kind!r}")
        _check_finite(self, "low", "high", "beta")
        if self.kind == "uniform" and not self.high > self.low:
            raise ValueError("uniform spec needs high > low")
        if self.kind == "power" and not (self.beta > 0.0 and self.high > 0.0):
            raise ValueError("power spec needs beta > 0 and scale > 0")

    @classmethod
    def uniform(cls, low: float, high: float) -> "ContinuousSpec":
        return cls("uniform", float(low), float(high))

    @classmethod
    def power(cls, beta: float, scale: float) -> "ContinuousSpec":
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
            out = np.empty(np.shape(q))
        if self.kind == "uniform":
            np.multiply(q, self.high - self.low, out=out)
            out += self.low
        else:
            np.power(q, 1.0 / self.beta, out=out)
            out *= self.high
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


@dataclass(frozen=True)
class MCResult:
    """Payoff estimates of one scenario (``mc_single_offer``)."""

    samples: int
    accounting: str
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


def mc_single_offer(
    scenarios: Sequence[SingleOfferScenario], samples: int, seed: int, accounting: str = "exact"
) -> list[MCResult]:
    """Estimate each scenario's u_a, u_b and welfare by simulation; one
    result per scenario, in order (batches as in ``_simulate``).

    The three payoffs are constant on declined draws and fall one for one
    with the sacrifice on accepted ones, so a batch keeps for them only the
    accepted sacrifices' group moments; their means and intervals follow
    from those by the two-group merge (``_MCTerms.payoffs``). poa_vs_ex_ante
    divides the aggregate optimum by mean welfare, which is what the
    closed-form curves report.
    """
    terms, folds = _simulate(scenarios, samples, seed, accounting, _fold_accepted)
    return [t.payoffs(samples, accounting, _merge(f)) for t, f in zip(terms, folds)]


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
    terms, folds = _simulate(scenarios, samples, seed, "exact", _fold_declined)
    return [t.poa(samples, f) for t, f in zip(terms, folds)]


def _simulate(scenarios: Sequence[SingleOfferScenario], samples: int, seed: int, accounting: str, fold):
    """The scenarios' constants, and per scenario its batches' folds, in
    batch order: ``fold(terms, delta, accept, hits)`` with ``hits`` the
    batch's accepted count.

    Each batch draws a sacrifice uniform per sample and, in aggregate mode
    only, a coin uniform after them. The coin is the batch stream's second
    draw, so exact mode skips it and still samples the same sacrifices:
    switching accounting never reshuffles them. A batch draws its uniforms
    once for all the scenarios of a call and runs the scenarios on them in
    turn; each scenario folds its own statistics in batch order, so its
    result is the same whether it is simulated alone or with others.

    Batches run on ``os.cpu_count()`` threads (``streams.run_batches``).
    Each thread owns two float columns of one batch each: the uniforms,
    then the sacrifice ``delta``; the coin (aggregate mode), then the accept
    weights ``accept``, 1.0 on accepted draws and 0.0 on declined ones. A
    fold may overwrite both. With a second scenario the uniforms, and in
    aggregate mode the coin, outlive each scenario, so the thread keeps them
    in a column each of their own.
    """
    if isinstance(scenarios, SingleOfferScenario):
        raise TypeError("scenarios must be a sequence of SingleOfferScenario, not one scenario")
    if accounting not in ("exact", "aggregate"):
        raise ValueError('accounting must be "exact" or "aggregate"')
    if samples <= 0:
        raise ValueError("samples must be positive")
    terms = [_MCTerms(sc) for sc in scenarios]
    if not terms:
        return terms, []
    fused = len(terms) > 1

    def make_batch():
        n = min(samples, streams.BATCH_SIZE)
        delta_buf, accept_buf = np.empty((2, n))
        # Columns read by every scenario get their own buffer only when a
        # second scenario reads them after the first has reused its columns.
        q_buf = np.empty(n) if fused else delta_buf
        coin_buf = np.empty(n) if fused and accounting == "aggregate" else accept_buf

        def batch(index: int, size: int):
            delta, accept = delta_buf[:size], accept_buf[:size]
            q, coin = q_buf[:size], coin_buf[:size]
            rng = streams.stream(seed, index)
            rng.random(out=q)
            if accounting == "aggregate":
                rng.random(out=coin)
            per_scenario = []
            for t in terms:
                t.spec.ppf(q, out=delta)
                if accounting == "exact":
                    np.less_equal(delta, t.thr, out=accept)
                else:
                    np.less(coin, t.p_model, out=accept)
                # Exact: a batch's partial sums of 0.0 and 1.0 are integers
                # far below 2**53, and summing floats beats counting them.
                per_scenario.append(fold(t, delta, accept, int(np.sum(accept))))
            return per_scenario

        return batch

    return terms, list(zip(*streams.run_batches(samples, make_batch)))


def _group_moments(values: np.ndarray, weights: np.ndarray, count: int) -> tuple[int, float, float]:
    """Count, mean and centred second moment of the ``count`` values of
    weight 1.0, reduced over the whole column with the others weighted to
    zero: a masked reduction is far slower. ``values`` keeps the weighted
    values, and ``weights`` is overwritten."""
    values *= weights
    mean = np.sum(values) / count if count else 0.0
    dev = np.subtract(values, np.multiply(weights, mean, out=weights), out=weights)
    return count, mean, np.sum(np.square(dev, out=dev))


def _fold_accepted(t: "_MCTerms", delta: np.ndarray, accept: np.ndarray, hits: int) -> tuple[int, float, float]:
    """The accepted sacrifices' group moments."""
    return _group_moments(delta, accept, hits)


def _fold_declined(
    t: "_MCTerms", delta: np.ndarray, accept: np.ndarray, hits: int
) -> tuple[int, float, float, float]:
    """The declined draws' forgone gains max(delta_b - delta, 0): their
    group moments and largest value (0.0 when every draw accepts)."""
    gain = np.maximum(np.subtract(t.delta_b, delta, out=delta), 0.0, out=delta)
    moments = _group_moments(gain, np.subtract(1.0, accept, out=accept), delta.size - hits)
    return (*moments, float(np.max(gain)))


def _merge(folds) -> streams.Moments:
    """One group's moments over every batch, merged in batch order from
    each batch's leading (count, mean, centred second moment)."""
    moments = streams.Moments()
    for count, mean, m2, *_ in folds:
        moments.merge(count, mean, m2)
    return moments


def _two_groups(n: int, k: int, rest: float, gap: float, within: float) -> tuple[float, float]:
    """Mean and 99 percent half-width of n draws: n - k equal to ``rest``,
    and k lying ``gap`` above it on average with centred second moment
    ``within`` among themselves. The merge adds gap^2 k (n - k) / n."""
    # gap * (gap * k (n - k) / n), not gap**2 * (...): when every draw lands
    # in one group the factor is 0 even if gap**2 overflows.
    return rest + k / n * gap, Z99 * math.sqrt(within + gap * (gap * (k * (n - k) / n))) / n


class _MCTerms:
    """A scenario's constants as one batch reads them."""

    def __init__(self, scenario: SingleOfferScenario) -> None:
        self.spec = scenario.delta_a_spec
        self.delta_b = scenario.delta_b
        # A accepts exactly when the transfer covers her sacrifice.
        self.thr = self.transfer = scenario.gamma * scenario.delta_b
        self.p_model = self.spec.cdf(self.thr)
        self.a_default = scenario.a_default
        self.b_outside = scenario.b_outside
        self.base = scenario.a_default + scenario.b_outside

    def payoffs(self, samples: int, accounting: str, accepted: streams.Moments) -> MCResult:
        """The result from the accepted sacrifices' moments.

        Each payoff takes one value on the declined draws and that value
        plus a gap on the accepted ones, less the sacrifice's deviation from
        its accepted mean where the payoff moves with the sacrifice
        (``_two_groups``). The gaps T - mu, delta_b - T and delta_b - mu
        carry no payoff offset, so none cancels at large payoffs.
        """
        n, k, mu, m2 = samples, accepted.count, accepted.mean, accepted.m2
        t = self.transfer
        mean_u_a, ci_u_a = _two_groups(n, k, self.a_default, t - mu, m2)
        mean_u_b, ci_u_b = _two_groups(n, k, self.b_outside, self.delta_b - t, 0.0)
        mean_sw, ci_sw = _two_groups(n, k, self.base, self.delta_b - mu, m2)
        ex_ante_opt = max(self.base, self.base - self.spec.mean() + self.delta_b)
        return MCResult(
            samples=samples,
            accounting=accounting,
            acceptance_rate=k / samples,
            mean_u_a=mean_u_a,
            mean_u_b=mean_u_b,
            mean_sw=mean_sw,
            ci_u_a=ci_u_a,
            ci_u_b=ci_u_b,
            ci_sw=ci_sw,
            poa_vs_ex_ante=ex_ante_opt / mean_sw,
        )

    def poa(self, samples: int, folds) -> MCPoAResult:
        """The result from the declined draws' gains: PoA - 1 is gain / base
        on a declined draw and 0 on an accepted one."""
        declined = _merge(folds)
        gain, ci_gain = _two_groups(samples, declined.count, 0.0, declined.mean, declined.m2)
        return MCPoAResult(
            samples=samples,
            acceptance_rate=(samples - declined.count) / samples,
            mean_poa=1.0 + gain / self.base,
            ci_poa=ci_gain / self.base,
            max_poa=1.0 + max(top for *_, top in folds) / self.base,
        )
