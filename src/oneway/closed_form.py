"""The paper's closed forms: the worked examples and the offer guarantees.

Worked examples 1b and 2 put A's sacrifice on a uniform density and give
welfare, the tuned threshold and the price of anarchy (PoA) as formulas in
B's stake; the single-offer theorem and its power-law corollary bound the
expected PoA, and ``corollary_poa`` gives the corollary scenario's exact
expected PoA. None of them needs an array, so this module imports only the
standard library: ``examples`` (without ``--mc-samples``) and ``sweep``
read nothing else and run without numpy. ``analytics`` holds the same
examples as continuous scenarios and simulates them.

The welfare curves book every accepting type's sacrifice at the population
mean, the "aggregate" accounting of ``analytics``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# ---------------------------------------------------------------------------
# Worked example: A defaults to a payoff of 100; the cooperative action costs
# her delta ~ U[0, 100] and raises B's payoff by x over an outside value of 0.
# ---------------------------------------------------------------------------


class CurvePoint(NamedTuple):
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
    accounting documented in ``analytics``.
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
# Guarantees of a single offer on its expected PoA.
# ---------------------------------------------------------------------------


def theorem_bound(gamma: float, acceptance: float) -> float:
    """Guaranteed expected-PoA bound ((gamma+1)/gamma) * (1 - P(1-gamma))."""
    if gamma == 0.0:
        return math.inf
    return ((gamma + 1.0) / gamma) * (1.0 - acceptance * (1.0 - gamma))


def corollary_bound(beta: float) -> tuple[float, float]:
    """Closed-form share and expected-PoA bound for power-law sacrifices.

    With acceptance probability (gamma)^beta the tuned share is beta/(beta+1)
    and the guarantee is (2 + 1/beta) * (1 - beta^beta / (beta+1)^(beta+1)).
    The power ratio is exp(L) with L = -beta log(1 + 1/beta) - log(1 + beta),
    so the bound is (2 + 1/beta) * -expm1(L): the subtraction from 1 never
    cancels, and no power overflows.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    if 1.0 / beta == math.inf:  # a subnormal beta: the bound would read inf
        raise ValueError(f"beta must have a finite reciprocal, got {beta!r}")
    gamma_star = beta / (beta + 1.0)
    log_ratio = -beta * math.log1p(1.0 / beta) - math.log1p(beta)
    bound = (2.0 + 1.0 / beta) * -math.expm1(log_ratio)
    return (gamma_star, bound)


def corollary_poa(beta: float) -> tuple[float, float, float]:
    """Exact expected PoA, its supremum and the acceptance probability of
    the corollary's scenario (``analytics.power_scenario``: F(x) = x^beta
    on [0, 1], stake and default payoff 1, share gamma = beta/(beta+1)).

    A draw accepts when its sacrifice is at most gamma, with probability
    gamma^beta, and then has PoA 1; a declined draw's PoA is 2 - delta. So
    E[PoA] = 2 - gamma - gamma^beta + gamma^(beta+2), written with
    1 - gamma^beta = -expm1(beta log gamma) so that it does not cancel at
    small beta, and sup PoA = 2 - gamma.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    gamma = beta / (beta + 1.0)
    mean = (1.0 - gamma) - math.expm1(beta * math.log(gamma)) + gamma ** (beta + 2.0)
    return (mean, 2.0 - gamma, gamma**beta)
