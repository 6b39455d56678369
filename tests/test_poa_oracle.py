"""The broadcast PoA tables against the per-profile loops they replaced.

``poa_oracle`` keeps the old ``nash_outcome`` and ``poa_metrics``. The new
ones must return reports whose ``repr`` is identical, on ``random_suite``
instances and on variants of them with zero-prior types and zero-welfare
profiles (where the PoA is 1 or infinite).
"""

from __future__ import annotations

import numpy as np
import poa_oracle as oracle
import pytest

import oneway as ow


def _degenerate(game) -> ow.OneWayGame:
    """``game`` with a zero-prior type on each side, an A type earning
    nothing and a B type earning nothing against that type's equilibrium
    action (its first action), so some profiles have zero equilibrium
    welfare and some of those a positive optimum."""
    prior_a, prior_b = game.prior_a.copy(), game.prior_b.copy()
    for prior in (prior_a, prior_b):
        if len(prior) > 1:
            prior[-1] = 0.0
            prior /= prior.sum()
    payoff_a, payoff_b = game.payoff_a.copy(), game.payoff_b.copy()
    payoff_a[0] = 0.0
    payoff_b[0, 0] = 0.0
    return ow.OneWayGame(
        game.actions_a, game.actions_b, game.types_a, game.types_b,
        prior_a, prior_b, payoff_a, payoff_b,
    )


def _assert_reports_match(game) -> None:
    assert repr(ow.nash_outcome(game)) == repr(oracle.nash_outcome(game))
    assert repr(ow.poa_metrics(game)) == repr(oracle.poa_metrics(game))


@pytest.mark.parametrize("max_types_a", [6, 40])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_poa_matches_oracle(seed, max_types_a):
    for game in ow.random_suite(200, seed, max_types_a=max_types_a):
        _assert_reports_match(game)


@pytest.mark.parametrize("seed", [1, 2])
def test_poa_matches_oracle_on_degenerate_profiles(seed):
    infinite = ones = zero_prior = 0
    for game in ow.random_suite(200, seed, max_types_a=8, max_types_b=8):
        game = _degenerate(game)
        _assert_reports_match(game)
        report = ow.poa_metrics(game)
        infinite += len(report.infinite_profiles)
        ones += sum(v == 1.0 for v in report.per_type_poa.values())
        zero_prior += bool(np.any(game.prior_a == 0.0) or np.any(game.prior_b == 0.0))
    assert infinite > 0 and ones > 0 and zero_prior > 0
