"""No-payment equilibrium play and price-of-anarchy metrics.

Without transfers, player A simply maximizes her own payoff type by type.
Player B, whose payoff depends on A's action, best-responds in expectation
against A's equilibrium map. The inefficiency of that outcome is measured by
the price of anarchy (PoA): optimal welfare over equilibrium welfare.

Two aggregate metrics appear in reports and both are always labeled:

* ``bayes_nash_poa``: the expectation over type profiles of the per-profile
  welfare ratio (expectation of ratios).
* ``welfare_ratio_poa``: expected optimal welfare over expected equilibrium
  welfare (ratio of expectations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import OneWayGame, _exact_sum


@dataclass(frozen=True)
class NashOutcome:
    """Equilibrium maps for both players plus expected equilibrium welfare."""

    action_a: dict[str, str]
    action_b: dict[str, str]
    expected_welfare: float


def _nash_tables(game: OneWayGame) -> tuple[NashOutcome, np.ndarray]:
    """The equilibrium outcome and its welfare per type profile (A types by
    B types): ``pa[i, a*_i] + pb[k, a*_i, b*_k]``."""
    a_idx, b_idx = game.selfish_a, game.nash_b
    ub = game.payoff_b[np.arange(len(game.types_b)), a_idx[:, None], b_idx]
    with np.errstate(over="ignore"):
        welfare = game.selfish_payoff_a[:, None] + ub
    outcome = NashOutcome(
        action_a={t: game.actions_a[i] for t, i in zip(game.types_a, a_idx)},
        action_b={t: game.actions_b[i] for t, i in zip(game.types_b, b_idx)},
        expected_welfare=_expectation(game, welfare),
    )
    return outcome, welfare


def _expectation(game: OneWayGame, table: np.ndarray) -> float:
    """A table's expectation over the type profiles of positive probability."""
    weight = np.outer(game.prior_a, game.prior_b)
    return _exact_sum(weight[weight > 0.0] * table[weight > 0.0])


def nash_outcome(game: OneWayGame) -> NashOutcome:
    return _nash_tables(game)[0]


def _ratio(opt, eq):
    """``opt / eq`` elementwise, with 0 / 0 read as 1 and x / 0 as ``inf``
    (as is a quotient past the largest float); ``inf / inf`` stays ``nan``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(eq == 0.0, np.where(opt == 0.0, 1.0, np.inf), np.divide(opt, eq))


@dataclass(frozen=True, eq=False)
class PoAReport:
    """Per-profile PoA with Prop-style bounds and both aggregate metrics.

    The per-profile tables are read-only float arrays, A types by B types in
    the game's type order; ``np.isinf(per_type_poa)`` marks the profiles
    with zero equilibrium welfare and a positive optimum.
    """

    per_type_poa: np.ndarray
    bayes_nash_poa: float
    welfare_ratio_poa: float
    prop1_lower: np.ndarray
    prop1_upper: np.ndarray


def _optimal_table(game: OneWayGame) -> np.ndarray:
    """Optimal welfare per type profile (A types by B types): max over A's
    action of A's payoff plus B's best payoff for it, which equals the max
    over the full action grid exactly (rounding is monotone); ``inf`` past
    the largest float."""
    with np.errstate(over="ignore"):
        return np.max(game.payoff_a[:, None, :] + np.max(game.payoff_b, axis=2)[None, :, :], axis=2)


def poa_metrics(game: OneWayGame) -> PoAReport:
    """Exhaustive PoA sweep over type profiles.

    The per-profile lower bound is max_s u_B / (max_s u_A + u_B at equilibrium),
    read like the PoA where the denominator is 0, and the upper bound is
    (max_s u_A + max_s u_B) / max_s u_A (``inf`` where max_s u_A is 0).
    Zero-probability profiles appear in the tables but are excluded from the
    expectations, which are correctly rounded sums.
    """
    out, eq = _nash_tables(game)
    opt = _optimal_table(game)
    ua_best = game.selfish_payoff_a[:, None]
    ub_best = np.max(game.payoff_b, axis=(1, 2))[None, :]
    per, lower = _ratio(opt, eq), _ratio(ub_best, eq)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        upper = np.where(ua_best == 0.0, np.inf, (ua_best + ub_best) / ua_best)
    ratio = _ratio(_expectation(game, opt), out.expected_welfare)
    for table in (per, lower, upper):
        table.setflags(write=False)
    return PoAReport(per, _expectation(game, per), float(ratio), lower, upper)


def poa_report_rows(game: OneWayGame, report: PoAReport) -> dict[str, list]:
    """The ``poa`` report as named columns: one row per type profile in
    row-major order, then the two labeled summary rows."""
    blank = ["", ""]
    return {
        "type_A": [ta for ta in game.types_a for _ in game.types_b] + ["bayes_nash_poa", "welfare_ratio_poa"],
        "type_B": list(game.types_b) * len(game.types_a) + blank,
        "poa": report.per_type_poa.ravel().tolist() + [report.bayes_nash_poa, report.welfare_ratio_poa],
        "prop1_lower": report.prop1_lower.ravel().tolist() + blank,
        "prop1_upper": report.prop1_upper.ravel().tolist() + blank,
    }
