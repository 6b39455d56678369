"""The no-payment equilibrium welfare, PoA sweep and PoA report rows as they
stood before the broadcast tables, kept verbatim as a test-only oracle.

``nash_outcome`` and ``poa_metrics`` loop over type profiles and call
``social_welfare`` and ``optimal_welfare`` once per profile, collecting
each expectation's terms and summing them by ``math.fsum``, since the
package's expectations became correctly rounded. The equilibrium
maps come from this module's own loops, ``nash_action_A`` and
``nash_action_B``, so that they check the game's selfish and reply tables
rather than read them.
``poa_metrics`` returns its per-profile maps as dicts keyed by
``TypeProfile``, in a local ``PoAReport``; ``poa_report_rows`` reads them
back one key at a time. ``poa_of_type`` is the per-profile PoA from the
equilibrium maps, one profile per call, with the package's ratio
conventions.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from oneway.equilibrium import NashOutcome, _ratio
from oneway.game import (
    OneWayGame,
    StrategyProfile,
    TypeProfile,
    optimal_welfare,
    social_welfare,
)


class PoAReport(NamedTuple):
    per_type_poa: dict[TypeProfile, float]
    bayes_nash_poa: float
    welfare_ratio_poa: float
    prop1_lower: dict[TypeProfile, float]
    prop1_upper: dict[TypeProfile, float]
    infinite_profiles: tuple[TypeProfile, ...] = ()


def nash_action_A(game: OneWayGame, type_a: str) -> str:
    """A's equilibrium action: her own argmax, the first one on ties."""
    row = [game.u_a(a, type_a) for a in game.actions_a]
    return game.actions_a[row.index(max(row))]


def nash_action_B(game: OneWayGame, type_b: str) -> str:
    """B's best reply, in prior expectation, to A's equilibrium map; the
    first one on ties."""
    selfish = [nash_action_A(game, ta) for ta in game.types_a]
    expected = []
    for sb in game.actions_b:
        total = 0.0
        for fa, sa in zip(game.prior_a.tolist(), selfish):
            total += fa * game.u_b((sa, sb), type_b)
        expected.append(total)
    return game.actions_b[expected.index(max(expected))]


def poa_of_type(game: OneWayGame, types: TypeProfile | tuple[str, str]) -> float:
    """Per-profile price of anarchy: optimal welfare / equilibrium welfare.

    Zero equilibrium welfare with a positive optimum is reported as ``inf``;
    zero over zero is 1 (nothing is lost where nothing is attainable).
    """
    ta, tb = types
    _, opt = optimal_welfare(game, (ta, tb))
    eq = social_welfare(game, (nash_action_A(game, ta), nash_action_B(game, tb)), (ta, tb))
    return float(_ratio(opt, eq))


def nash_outcome(game: OneWayGame) -> NashOutcome:
    action_a = {t: nash_action_A(game, t) for t in game.types_a}
    action_b = {t: nash_action_B(game, t) for t in game.types_b}
    terms = []
    for ta, fa in zip(game.types_a, game.prior_a):
        for tb, fb in zip(game.types_b, game.prior_b):
            w = social_welfare(game, (action_a[ta], action_b[tb]), (ta, tb))
            terms.append(float(fa) * float(fb) * w)
    return NashOutcome(action_a=action_a, action_b=action_b, expected_welfare=math.fsum(terms))


def poa_metrics(game: OneWayGame) -> PoAReport:
    """Exhaustive PoA sweep over type profiles.

    The per-profile lower bound is max_s u_B / (max_s u_A + u_B at equilibrium)
    and the upper bound is (max_s u_A + max_s u_B) / max_s u_A. Zero-probability
    profiles appear in the maps but are excluded from the expectations.
    """
    out = nash_outcome(game)
    per: dict[TypeProfile, float] = {}
    lower: dict[TypeProfile, float] = {}
    upper: dict[TypeProfile, float] = {}
    infinite: list[TypeProfile] = []
    expectation = []
    opt_mean = []
    for ita, ta in enumerate(game.types_a):
        fa = float(game.prior_a[ita])
        ua_best = float(np.max(game.payoff_a[ita]))
        for itb, tb in enumerate(game.types_b):
            fb = float(game.prior_b[itb])
            key = TypeProfile(ta, tb)
            profile = StrategyProfile(out.action_a[ta], out.action_b[tb])
            eq_w = social_welfare(game, profile, key)
            _, opt_w = optimal_welfare(game, key)
            ub_best = float(np.max(game.payoff_b[itb]))
            per[key] = 1.0 if (eq_w == 0.0 and opt_w == 0.0) else (
                float("inf") if eq_w == 0.0 else opt_w / eq_w
            )
            lower[key] = float("inf") if eq_w == 0.0 else ub_best / eq_w
            upper[key] = float("inf") if ua_best == 0.0 else (ua_best + ub_best) / ua_best
            if not np.isfinite(per[key]):
                infinite.append(key)
            if fa * fb > 0.0:
                expectation.append(fa * fb * per[key])
                opt_mean.append(fa * fb * opt_w)
    expectation, opt_mean = math.fsum(expectation), math.fsum(opt_mean)
    ratio = (
        1.0
        if (opt_mean == 0.0 and out.expected_welfare == 0.0)
        else (float("inf") if out.expected_welfare == 0.0 else opt_mean / out.expected_welfare)
    )
    return PoAReport(
        per_type_poa=per,
        bayes_nash_poa=float(expectation),
        welfare_ratio_poa=float(ratio),
        prop1_lower=lower,
        prop1_upper=upper,
        infinite_profiles=tuple(infinite),
    )


def poa_report_rows(game: OneWayGame, report: PoAReport) -> tuple[list[str], list[list]]:
    """Flatten a report for CSV output; two labeled summary rows at the end."""
    columns = ["type_A", "type_B", "poa", "prop1_lower", "prop1_upper"]
    rows: list[list] = []
    for ta in game.types_a:
        for tb in game.types_b:
            key = TypeProfile(ta, tb)
            rows.append([ta, tb, report.per_type_poa[key], report.prop1_lower[key], report.prop1_upper[key]])
    rows.append(["bayes_nash_poa", "", report.bayes_nash_poa, "", ""])
    rows.append(["welfare_ratio_poa", "", report.welfare_ratio_poa, "", ""])
    return columns, rows
