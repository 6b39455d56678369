"""Replaced implementations of the offer layer, kept verbatim as test-only
oracles.

The evaluators as they stood before the shared acceptance rule:
``evaluate_offer``, ``expected_utility_B`` and ``expected_outcome`` are the
per-type-loop implementations; ``restricted_types``, ``delta_a``,
``outside_option`` and ``delta_b`` come along so the oracle shares no code
with the evaluators it checks beyond the game model, ``best_response_B``
and the result types; so do ``s_values`` and ``reach_probs``. Only the
imports differ from the originals: the schedule evaluators' function-local
``delta_b`` import is the module-level one here.

The schedule optimizer's certification sweep as it stood before the exact
decomposition: ``certification_probe`` re-evaluates the neighbouring
schedules of an optimum with the package's ``expected_utility_B`` and
``gamma_candidates``, as the original did, and also returns them.

The offer searches as they stood before the sorted sweep: ``optimal_offer``,
``simplified_offer``, ``gamma_candidates`` and ``_minimal_share`` score
every candidate share with one call of the package's evaluators each. They
call the package's ``evaluate_offer``, ``acceptance_prob``, ``delta_a`` and
``delta_b`` (through ``package``), as the originals did, so an offer both
searches pick comes with an identical evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from oneway import multi_offer
from oneway import single_offer as package
from oneway.game import OneWayGame, best_response_B
from oneway.multi_offer import MultiOfferEvaluation, Schedule
from oneway.single_offer import (
    VALUE_TOL,
    Offer,
    OfferEvaluation,
    OfferSearchResult,
    OutsideOption,
)


def restricted_types(game: OneWayGame, action_a: str) -> tuple[str, ...]:
    """Types of A for which ``action_a`` is not among her selfish optima."""
    ia = game.action_a_index(action_a)
    best = np.max(game.payoff_a, axis=1)
    return tuple(
        t for i, t in enumerate(game.types_a) if game.payoff_a[i, ia] != best[i]
    )


def delta_a(game: OneWayGame, action_a: str) -> np.ndarray:
    """A's sacrifice for playing ``action_a``, per type (aligned with types_a)."""
    ia = game.action_a_index(action_a)
    return np.max(game.payoff_a, axis=1) - game.payoff_a[:, ia]


def outside_option(game: OneWayGame, action_a: str, type_b: str) -> OutsideOption:
    restricted = restricted_types(game, action_a)
    idx = [game.type_a_index(t) for t in restricted]
    mass = float(np.sum(game.prior_a[idx])) if idx else 0.0
    itb = game.type_b_index(type_b)
    if not idx or mass <= 0.0:
        ab = best_response_B(game, action_a, type_b)
        return OutsideOption(ab, float(game.u_b((action_a, ab), type_b)), restricted, mass)
    weights = game.prior_a[idx] / mass
    nash_actions = np.argmax(game.payoff_a, axis=1)
    vals = weights @ game.payoff_b[itb, nash_actions[idx], :]
    ib = int(np.argmax(vals))
    return OutsideOption(game.actions_b[ib], float(vals[ib]), restricted, mass)


def delta_b(game: OneWayGame, action_a: str, type_b: str) -> float:
    """B's gain from the offered action over her fallback (may be negative)."""
    br = best_response_B(game, action_a, type_b)
    return float(game.u_b((action_a, br), type_b)) - outside_option(game, action_a, type_b).payoff


def evaluate_offer(game: OneWayGame, offer: Offer, type_b: str) -> OfferEvaluation:
    """Expected utilities and welfare of an offer, exact per-type accounting.

    B's utility uses her planning view: the fallback value on rejection plus
    the retained share of the gain on acceptance. A's utility and welfare
    are computed per type from realized play (accept: the offered profile
    with the transfer; reject: A's selfish action against B's fallback reply).
    """
    action, gamma = offer
    out = outside_option(game, action, type_b)
    br = best_response_B(game, action, type_b)
    ub_accept = float(game.u_b((action, br), type_b))
    db = ub_accept - out.payoff
    da = delta_a(game, action)
    accept_mask = da <= gamma * db
    p = float(np.sum(game.prior_a[accept_mask]))
    e_ub = out.payoff + p * (1.0 - gamma) * db
    ia = game.action_a_index(action)
    nash_idx = np.argmax(game.payoff_a, axis=1)
    e_ua = 0.0
    e_sw = 0.0
    for i in range(len(game.types_a)):
        f = float(game.prior_a[i])
        if accept_mask[i]:
            ua = float(game.payoff_a[i, ia])
            e_ua += f * (ua + gamma * db)
            e_sw += f * (ua + ub_accept)
        else:
            ua = float(np.max(game.payoff_a[i]))
            e_ua += f * ua
            e_sw += f * (ua + float(game.u_b((game.actions_a[int(nash_idx[i])], out.action_b), type_b)))
    return OfferEvaluation(
        offer=offer,
        type_b=type_b,
        acceptance_prob=p,
        delta_b=db,
        outside=out,
        expected_u_a=e_ua,
        expected_u_b=float(e_ub),
        expected_sw=e_sw,
        accepting_types=tuple(t for i, t in enumerate(game.types_a) if accept_mask[i]),
    )


def s_values(schedule: Schedule) -> tuple[float, ...]:
    """Effective thresholds (S_0, S_1, ..., S_n) with S_0 = 0 by convention.

    Interior steps discount the next offer by its continuation probability;
    the last step has nothing after it, so S_n is gamma_n itself. Interior
    values can be negative when the next offer is attractive enough, which
    simply means nobody accepts early.
    """
    g, p = schedule.gammas, schedule.probs
    n = schedule.n
    out = [0.0]
    for i in range(1, n):
        out.append((g[i - 1] - p[i] * g[i]) / (1.0 - p[i]))
    out.append(g[n - 1])
    return tuple(out)


def reach_probs(schedule: Schedule) -> tuple[float, ...]:
    """R_i: probability step i is reached at all (R_1 = 1)."""
    out = []
    acc = 1.0
    for p in schedule.probs:
        acc *= p
        out.append(acc)
    return tuple(out)


def expected_utility_B(game: OneWayGame, schedule: Schedule, type_b: str) -> float:
    """B's planning-view expected utility of committing to the schedule.

    Each type of A contributes the fallback value plus, if she accepts at
    step i, the retained share of the gain weighted by the probability the
    process survives to step i. Types that never accept contribute the
    fallback value alone.
    """
    out = outside_option(game, schedule.action_a, type_b)
    db = delta_b(game, schedule.action_a, type_b)
    da = delta_a(game, schedule.action_a)
    s = s_values(schedule)
    reach = reach_probs(schedule)
    total = 0.0
    for i in range(len(game.types_a)):
        f = float(game.prior_a[i])
        contrib = out.payoff
        for step in range(1, schedule.n + 1):
            if float(da[i]) <= s[step] * db:
                contrib += reach[step - 1] * (1.0 - schedule.gammas[step - 1]) * db
                break
        total += f * contrib
    return total


def expected_outcome(game: OneWayGame, schedule: Schedule, type_b: str) -> MultiOfferEvaluation:
    """Exact expected realized payoffs under the schedule.

    Differs from expected_utility_B on the rejection branch: here B's payoff
    is what she actually earns replying to A's selfish play, not the fallback
    value she planned around. Both are reported so simulations can be checked
    against the estimand they actually sample.
    """
    out = outside_option(game, schedule.action_a, type_b)
    db = delta_b(game, schedule.action_a, type_b)
    da = delta_a(game, schedule.action_a)
    s = s_values(schedule)
    reach = reach_probs(schedule)
    br = best_response_B(game, schedule.action_a, type_b)
    ub_accept = float(game.u_b((schedule.action_a, br), type_b))
    ia = game.action_a_index(schedule.action_a)
    nash_idx = np.argmax(game.payoff_a, axis=1)
    e_ua = e_ub = e_sw = 0.0
    p_accept = 0.0
    steps: dict[str, int | None] = {}
    for i, ta in enumerate(game.types_a):
        f = float(game.prior_a[i])
        step = None
        for k in range(1, schedule.n + 1):
            if float(da[i]) <= s[k] * db:
                step = k
                break
        steps[ta] = step
        ua_nash = float(np.max(game.payoff_a[i]))
        ub_reject = float(game.u_b((game.actions_a[int(nash_idx[i])], out.action_b), type_b))
        if step is None:
            e_ua += f * ua_nash
            e_ub += f * ub_reject
            e_sw += f * (ua_nash + ub_reject)
            continue
        r = reach[step - 1]
        transfer = schedule.gammas[step - 1] * db
        ua_accept = float(game.payoff_a[i, ia])
        p_accept += f * r
        e_ua += f * (r * (ua_accept + transfer) + (1.0 - r) * ua_nash)
        e_ub += f * (r * (ub_accept - transfer) + (1.0 - r) * ub_reject)
        e_sw += f * (r * (ua_accept + ub_accept) + (1.0 - r) * (ua_nash + ub_reject))
    return MultiOfferEvaluation(
        schedule=schedule,
        type_b=type_b,
        expected_u_a=e_ua,
        expected_u_b=e_ub,
        expected_sw=e_sw,
        acceptance_prob=p_accept,
        step_of_type=steps,
    )


def _minimal_share(da: float, db: float) -> float:
    """Smallest float g with da <= g * db, starting from the exact ratio.

    The plain quotient da / db can land one ulp to either side of the set
    {g : da <= g * db}, which would make an offer built from it silently miss
    (or overpay) the type it is meant to capture. A couple of nextafter steps
    settle it on the boundary.
    """
    g = da / db
    if g < 0.0:
        g = 0.0
    while g * db < da:
        g = math.nextafter(g, math.inf)
    while g > 0.0:
        lower = math.nextafter(g, -math.inf)
        if lower < 0.0 or lower * db < da:
            break
        g = lower
    return g


def gamma_candidates(game: OneWayGame, action_a: str, type_b: str) -> list[float]:
    """Shares worth considering: 0 plus every type's break-even share in [0, 1].

    B's expected utility is piecewise linear in gamma with kinks exactly where
    some type becomes indifferent, so the maximum is attained on this grid.
    Each candidate is the smallest representable share that the indifferent
    type actually accepts under the ``da <= gamma * db`` rule.
    """
    cands = {0.0}
    db = package.delta_b(game, action_a, type_b)
    if db > 0.0:
        for v in package.delta_a(game, action_a):
            r = _minimal_share(float(v), db)
            if 0.0 <= r <= 1.0:
                cands.add(r)
    return sorted(cands)


def optimal_offer(game: OneWayGame, type_b: str) -> OfferSearchResult:
    """B's utility-maximizing offer for her type.

    Searches every action with a strictly positive gain and every candidate
    share. Near-ties (within 1e-9 of the best value) resolve to the smaller
    gamma and then the lower action index, which keeps results stable under
    payoff jitter. If no action has positive gain the result is a null offer:
    the action with the largest gain at gamma 0 (see ``OfferSearchResult``).
    """
    scored: list[tuple[float, float, int, OfferEvaluation]] = []
    for ia, action in enumerate(game.actions_a):
        if package.delta_b(game, action, type_b) <= 0.0:
            continue
        for g in gamma_candidates(game, action, type_b):
            ev = package.evaluate_offer(game, Offer(action, g), type_b)
            scored.append((ev.expected_u_b, g, ia, ev))
    if not scored:
        dbs = np.asarray([package.delta_b(game, a, type_b) for a in game.actions_a])
        offer = Offer(game.actions_a[int(np.argmax(dbs))], 0.0)
        return OfferSearchResult(offer, package.evaluate_offer(game, offer, type_b), null_offer=True)
    best = max(s[0] for s in scored)
    cluster = [s for s in scored if s[0] >= best - VALUE_TOL]
    cluster.sort(key=lambda s: (s[1], s[2]))
    _, g, ia, ev = cluster[0]
    return OfferSearchResult(Offer(game.actions_a[ia], g), ev, null_offer=False)


def simplified_offer(game: OneWayGame, type_b: str) -> OfferSearchResult:
    """Welfare-oriented recipe: fix the action B likes best, then pick the
    share maximizing acceptance_prob * (1 - gamma). Ties go to the smaller
    share; a non-positive gain forces gamma 0."""
    vals = np.asarray(
        [float(game.u_b((a, best_response_B(game, a, type_b)), type_b)) for a in game.actions_a]
    )
    action = game.actions_a[int(np.argmax(vals))]
    db = package.delta_b(game, action, type_b)
    gamma = 0.0
    if db > 0.0:
        best_v = -math.inf
        for g in gamma_candidates(game, action, type_b):
            v = package.acceptance_prob(game, Offer(action, g), type_b) * (1.0 - g)
            if v > best_v:
                best_v, gamma = v, g
    offer = Offer(action, gamma)
    return OfferSearchResult(offer, package.evaluate_offer(game, offer, type_b), null_offer=False)


def certification_probe(game: OneWayGame, type_b: str, schedule: Schedule) -> tuple[float, list[Schedule]]:
    """The best improvement over ``schedule`` among its neighbours, and the
    neighbours: each gamma moved to the adjacent break-even thresholds, each
    continuation probability nudged by 0.01. The slack is 0.0 when there are
    no neighbours."""
    n, action, probs = schedule.n, schedule.action_a, schedule.probs
    value = multi_offer.expected_utility_B(game, schedule, type_b)
    thresholds = package.gamma_candidates(game, action, type_b)
    slack = -math.inf
    candidates: list[Schedule] = []
    for i in range(n):
        g = schedule.gammas[i]
        below = [t for t in thresholds if t < g]
        above = [t for t in thresholds if t > g]
        for t in ([max(below)] if below else []) + ([min(above)] if above else []):
            new_g = list(schedule.gammas)
            new_g[i] = t
            if all(new_g[k] < new_g[k + 1] for k in range(n - 1)):
                candidates.append(Schedule(action, tuple(new_g), probs))
    for j in range(1, n):
        for dp in (-0.01, 0.01):
            new_p = list(probs)
            new_p[j] = min(max(new_p[j] + dp, 0.0), 0.99)
            if new_p[j] != probs[j]:
                candidates.append(Schedule(action, schedule.gammas, tuple(new_p)))
    for cand in candidates:
        slack = max(slack, multi_offer.expected_utility_B(game, cand, type_b) - value)
    if not candidates:
        slack = 0.0
    return slack, candidates
