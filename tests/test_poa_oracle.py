"""The broadcast PoA tables against the per-profile loops they replaced.

``poa_oracle`` keeps the old ``nash_outcome``, ``poa_metrics`` and
``poa_report_rows``. On ``random_suite`` instances and on variants of them
with zero-prior types and zero-welfare profiles (where the PoA is 1 or
infinite), the new outcome must have the oracle's ``repr``, every cell of
the new PoA tables the ``repr`` of the oracle's value for its profile, and
the new report rows the oracle's rows.

The oracle keeps the old lower bound, ``inf``, on profiles where nothing is
attainable (the package now reads that 0/0 as 1, like the PoA). These
instances have no such profile; ``test_equilibrium`` pins the new rule.
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
    new, old = ow.poa_metrics(game), oracle.poa_metrics(game)
    shape = (len(game.types_a), len(game.types_b))
    for name in ("per_type_poa", "prop1_lower", "prop1_upper"):
        table, cells = getattr(new, name), getattr(old, name)
        assert table.shape == shape and table.dtype == np.float64
        assert not table.flags.writeable
        # repr of a whole array rounds, so compare each cell as a Python float
        for ta, row in zip(game.types_a, table.tolist()):
            for tb, value in zip(game.types_b, row):
                assert repr(value) == repr(cells[ow.TypeProfile(ta, tb)]), (name, ta, tb)
    assert repr(new.bayes_nash_poa) == repr(old.bayes_nash_poa)
    assert repr(new.welfare_ratio_poa) == repr(old.welfare_ratio_poa)
    infinite = [ow.TypeProfile(game.types_a[i], game.types_b[k])
                for i, k in zip(*np.nonzero(np.isinf(new.per_type_poa)))]
    assert tuple(infinite) == old.infinite_profiles
    new_rows, old_rows = ow.poa_report_rows(game, new), oracle.poa_report_rows(game, old)
    assert repr(new_rows) == repr(old_rows)


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
        infinite += int(np.isinf(report.per_type_poa).sum())
        ones += int((report.per_type_poa == 1.0).sum())
        zero_prior += bool(np.any(game.prior_a == 0.0) or np.any(game.prior_b == 0.0))
    assert infinite > 0 and ones > 0 and zero_prior > 0
