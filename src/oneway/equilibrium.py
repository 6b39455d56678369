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

from .game import (
    OneWayGame,
    StrategyProfile,
    TypeProfile,
    best_response_B,
    optimal_welfare,
    social_welfare,
)


def nash_action_A(game: OneWayGame, type_a: str) -> str:
    """A's equilibrium action: her own argmax, lowest index on ties."""
    row = game.payoff_a[game.type_a_index(type_a), :]
    return game.actions_a[int(np.argmax(row))]


def nash_action_B(game: OneWayGame, type_b: str) -> str:
    """B's best reply, in prior expectation, to A's equilibrium map."""
    a_idx = np.argmax(game.payoff_a, axis=1)  # A's action per type, ties to low index
    return game.actions_b[_reply_b(game, game.type_b_index(type_b), a_idx)]


def _reply_b(game: OneWayGame, itb: int, a_idx: np.ndarray) -> int:
    """Index of B type ``itb``'s best reply to A's action map ``a_idx``."""
    # expected payoff of each B action against the induced action distribution
    expected = game.prior_a @ game.payoff_b[itb, a_idx, :]
    return int(np.argmax(expected))


@dataclass(frozen=True)
class NashOutcome:
    """Equilibrium maps for both players plus expected equilibrium welfare."""

    action_a: dict[str, str]
    action_b: dict[str, str]
    expected_welfare: float


def _nash_tables(game: OneWayGame) -> tuple[NashOutcome, np.ndarray]:
    """The equilibrium outcome and its welfare per type profile (A types by
    B types): ``pa[i, a*_i] + pb[k, a*_i, b*_k]``."""
    a_idx = np.argmax(game.payoff_a, axis=1)  # A's action per type, ties to low index
    b_idx = [_reply_b(game, itb, a_idx) for itb in range(len(game.types_b))]
    ub = game.payoff_b[np.arange(len(game.types_b)), a_idx[:, None], b_idx]
    welfare = np.max(game.payoff_a, axis=1)[:, None] + ub
    weight = game.prior_a[:, None] * game.prior_b[None, :]
    outcome = NashOutcome(
        action_a={t: game.actions_a[i] for t, i in zip(game.types_a, a_idx)},
        action_b={t: game.actions_b[i] for t, i in zip(game.types_b, b_idx)},
        expected_welfare=_running_sum(weight * welfare),
    )
    return outcome, welfare


def _running_sum(terms: np.ndarray) -> float:
    """Sum in row-major order, one term at a time, as a loop accumulating
    from 0.0 would (``np.sum`` adds pairwise and rounds differently)."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def nash_outcome(game: OneWayGame) -> NashOutcome:
    return _nash_tables(game)[0]


def poa_of_type(game: OneWayGame, types: TypeProfile | tuple[str, str]) -> float:
    """Per-profile price of anarchy: optimal welfare / equilibrium welfare.

    Zero equilibrium welfare with a positive optimum is reported as ``inf``;
    zero over zero is 1 (nothing is lost where nothing is attainable).
    """
    ta, tb = types
    _, opt = optimal_welfare(game, (ta, tb))
    eq = social_welfare(game, (nash_action_A(game, ta), nash_action_B(game, tb)), (ta, tb))
    return float(_ratio(opt, eq))


def _ratio(opt, eq):
    """``opt / eq`` elementwise, with 0 / 0 read as 1 and x / 0 as ``inf``
    (as is a quotient past the largest float)."""
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
    over the full action grid exactly (rounding is monotone)."""
    return np.max(game.payoff_a[:, None, :] + np.max(game.payoff_b, axis=2)[None, :, :], axis=2)


def poa_metrics(game: OneWayGame) -> PoAReport:
    """Exhaustive PoA sweep over type profiles.

    The per-profile lower bound is max_s u_B / (max_s u_A + u_B at equilibrium),
    read like the PoA where the denominator is 0, and the upper bound is
    (max_s u_A + max_s u_B) / max_s u_A (``inf`` where max_s u_A is 0).
    Zero-probability profiles appear in the tables but are excluded from the
    expectations, which add the profiles one at a time in row-major order.
    """
    out, eq = _nash_tables(game)
    opt = _optimal_table(game)
    ua_best = np.max(game.payoff_a, axis=1)[:, None]
    ub_best = np.max(game.payoff_b, axis=(1, 2))[None, :]
    weight = game.prior_a[:, None] * game.prior_b[None, :]
    live = weight > 0.0
    per, lower = _ratio(opt, eq), _ratio(ub_best, eq)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        upper = np.where(ua_best == 0.0, np.inf, (ua_best + ub_best) / ua_best)
        expectation = _running_sum((weight * per)[live])
    ratio = _ratio(_running_sum((weight * opt)[live]), out.expected_welfare)
    for table in (per, lower, upper):
        table.setflags(write=False)
    return PoAReport(per, expectation, float(ratio), lower, upper)


def joint_max_strategy(game: OneWayGame, types: TypeProfile | tuple[str, str]) -> StrategyProfile:
    """Profile maximizing max(u_A, u_B), a two-approximation of optimal welfare.

    When A's side attains the larger maximum, B's coordinate is completed with
    her best response so the profile never wastes B's payoff.
    """
    ta, tb = types
    ita = game.type_a_index(ta)
    itb = game.type_b_index(tb)
    ua_best = float(np.max(game.payoff_a[ita]))
    ub_best = float(np.max(game.payoff_b[itb]))
    if ua_best >= ub_best:
        sa = game.actions_a[int(np.argmax(game.payoff_a[ita]))]
        return StrategyProfile(sa, best_response_B(game, sa, tb))
    flat = int(np.argmax(game.payoff_b[itb]))
    ia, ib = divmod(flat, len(game.actions_b))
    return StrategyProfile(game.actions_a[ia], game.actions_b[ib])


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
