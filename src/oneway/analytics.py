"""Closed-form worked examples, continuous-type scenarios and Monte Carlo.

The discrete engine in the other modules handles any finite game. The
canonical illustrations, though, live in continuous type space: A's sacrifice
for the cooperative action is drawn from a density, and the interesting
quantities (equilibrium welfare, the optimal share, the price of anarchy
curve) have closed forms. This module keeps those closed forms and a
vectorized simulator that can sample a scenario directly.

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
    scenarios: Sequence[SingleOfferScenario], samples: int, seed: int, accounting: str = "exact"
) -> list[MCResult]:
    """Simulate each scenario with batched counter-based streams; one result
    per scenario, in order.

    Each batch draws a sacrifice uniform per sample and, in aggregate mode
    only, a coin uniform after them. The coin is the batch stream's second
    draw, so exact mode skips it and still samples the same sacrifices:
    switching accounting never reshuffles them. A batch draws its uniforms
    once for all the scenarios of a call and runs the scenarios on them in
    turn; each scenario folds its own moments in batch order, so its result
    is the same whether it is simulated alone or with others.

    Batches run on ``os.cpu_count()`` threads (``streams.run_batches``).
    Each thread owns three float columns and a mask of one batch each: the
    uniforms, then the sacrifice, then the per-draw PoA; the coin (aggregate
    mode), then u_a's bits before the select, then u_b and welfare; u_a,
    then u_b; the accept flags. With a second scenario the uniforms, and in
    aggregate mode the coin, outlive each scenario, so the thread keeps them
    in a column each of their own. A column is centred in place once nothing
    else reads it.

    Per-draw PoA compares against the draw's own optimum; poa_vs_ex_ante
    divides the aggregate optimum by mean welfare instead, which is what the
    closed-form curves report.
    """
    if isinstance(scenarios, SingleOfferScenario):
        raise TypeError("scenarios must be a sequence of SingleOfferScenario, not one scenario")
    if accounting not in ("exact", "aggregate"):
        raise ValueError('accounting must be "exact" or "aggregate"')
    if samples <= 0:
        raise ValueError("samples must be positive")
    terms = [_MCTerms(sc) for sc in scenarios]
    fused = len(terms) > 1

    def make_batch():
        n = min(samples, streams.BATCH_SIZE)
        delta_buf, x_buf, u_buf = np.empty((3, n))
        accept_buf = np.empty(n, dtype=bool)
        # Columns read by every scenario get their own buffer only when a
        # second scenario reads them after the first has reused its columns.
        q_buf = np.empty(n) if fused else delta_buf
        coin_buf = np.empty(n) if fused and accounting == "aggregate" else x_buf

        def batch(index: int, size: int):
            delta, x, u, accept = delta_buf[:size], x_buf[:size], u_buf[:size], accept_buf[:size]
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
                # u_a is (a_default - delta) + transfer where A accepts and
                # a_default where she declines; u_b is ub_deal or b_outside.
                # Both are selected on the bits (``_select``), u_b twice:
                # first to be added into welfare, then to be centred. Sums
                # keep the order written here, (base - delta) + delta_b too,
                # as each rounding step shows in the reported means.
                flip = x.view(np.int64)
                np.add(np.subtract(t.a_default, delta, out=x), t.transfer, out=x)
                np.bitwise_xor(flip, t.ua_bits, out=flip)
                ua = _select(accept, flip, t.ua_bits, out=u)
                sw = _select(accept, t.ub_flip, t.ub_bits, out=x)
                np.add(ua, sw, out=sw)
                stats_ua = streams.centre(ua, ua)
                ub = _select(accept, t.ub_flip, t.ub_bits, out=u)
                stats_ub = streams.centre(ub, ub)
                poa = delta
                np.add(np.subtract(t.base, delta, out=poa), t.delta_b, out=poa)
                np.maximum(poa, t.base, out=poa)
                np.divide(poa, sw, out=poa)
                top = float(np.max(poa))
                stats = (stats_ua, stats_ub, streams.centre(sw, sw), streams.centre(poa, poa))
                per_scenario.append((stats, int(np.count_nonzero(accept)), top))
            return size, per_scenario

        return batch

    moments = [streams.Moments(4) for _ in terms]  # u_a, u_b, sw, poa
    max_poa = [0.0] * len(terms)
    accepted = [0] * len(terms)
    for size, per_scenario in streams.run_batches(samples, make_batch):
        for j, (stats, hits, top) in enumerate(per_scenario):
            moments[j].merge(size, *zip(*stats))
            accepted[j] += hits
            max_poa[j] = max(max_poa[j], top)
    return [
        t.result(samples, accounting, m, hits, top) for t, m, hits, top in zip(terms, moments, accepted, max_poa)
    ]


def _select(accept: np.ndarray, flip, off, out: np.ndarray) -> np.ndarray:
    """Write to ``out`` the float64 whose bits are ``off ^ flip`` where
    ``accept`` holds and ``off`` where it does not. ``flip`` and ``off`` are
    int64 bits, a column or a scalar each, and neither shares ``out``'s
    memory.

    The select is branch-free, ``off ^ (flip & mask)`` with a mask of all
    ones where ``accept`` holds, and exact on every bit pattern (signed
    zeros, NaN payloads, subnormals). It is several times faster than a
    masked ``np.copyto``, whose branches follow a random mask, and faster
    than a ``take`` from a two-entry table, which first converts the mask
    to a new index column.
    """
    bits = out.view(np.int64)
    np.negative(accept.view(np.int8), out=bits)  # -1 (all ones) where accepted
    np.bitwise_and(bits, flip, out=bits)
    np.bitwise_xor(bits, off, out=bits)
    return out


class _MCTerms:
    """A scenario's constants as one batch reads them."""

    def __init__(self, scenario: SingleOfferScenario) -> None:
        self.spec = scenario.delta_a_spec
        self.delta_b = scenario.delta_b
        # A accepts exactly when the transfer covers her sacrifice.
        self.thr = self.transfer = scenario.gamma * scenario.delta_b
        self.p_model = self.spec.cdf(self.thr)
        self.a_default = scenario.a_default
        self.ua_bits = np.float64(scenario.a_default).view(np.int64)  # A's payoff if she declines
        self.base = scenario.a_default + scenario.b_outside
        ub_deal = scenario.b_outside + scenario.delta_b - self.transfer
        self.ub_bits = np.float64(scenario.b_outside).view(np.int64)  # B's payoff if A declines
        self.ub_flip = np.float64(ub_deal).view(np.int64) ^ self.ub_bits  # its bits that change if she accepts

    def result(self, samples: int, accounting: str, moments: streams.Moments, accepted: int, max_poa: float):
        means = moments.means()
        ci = Z99 * moments.standard_errors()
        ex_ante_opt = max(self.base, self.base - self.spec.mean() + self.delta_b)
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
