"""Single-offer bargaining: B proposes an action and a revenue share.

B publishes an offer (s_A, gamma): if A plays s_A, B pays A a gamma fraction
of B's gain over her fallback. The fallback is what B can secure by replying
optimally to the equilibrium play of the types that would ever decline, so
the offer is evaluated against a rational threat point rather than a fixed
one. A accepts exactly when the shared gain covers her own sacrifice.

A single offer is the one-step schedule of ``multi_offer``: threshold and
share gamma, reached with certainty. One evaluator (``_Terms.evaluate``)
serves both: it settles the per-type terms (``_terms``) by the acceptance
rule (``_settle``) and returns one record (``OfferEvaluation``), so a single
offer and its one-step schedule evaluate to identical floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import theorem_bound
from .equilibrium import _optimal_table, _ratio
from .game import OneWayGame, StrategyProfile, _exact_sum, _frozen

VALUE_TOL = 1e-9


class Offer(NamedTuple):
    action_a: str
    gamma: float


@dataclass(frozen=True)
class OutsideOption:
    """B's fallback reply and its expected value if the offer is declined,
    read off the game's ``fallback_b`` and ``fallback_payoff_b`` tables."""

    action_b: str
    payoff: float


@dataclass(frozen=True, eq=False)
class OfferEvaluation:
    """Prior expectations of an offer, or of a schedule, to one type of B,
    each correctly rounded, so none depends on the order of A's types.

    ``expected_u_b`` is realised: a type that declines plays selfishly and B
    earns her actual reply to that play. ``planning_u_b`` is B's planning
    view, which books the fallback value on rejection instead. ``step`` is a
    read-only intp array of each A type's accepting step (1-indexed, 0 for
    never; a single offer has one step), in the game's A-type order.
    """

    acceptance_prob: float
    delta_b: float
    outside: OutsideOption
    expected_u_a: float
    expected_u_b: float
    planning_u_b: float
    expected_sw: float
    step: np.ndarray


@dataclass(frozen=True, eq=False)
class OfferSearchResult:
    """An offer plus its evaluation.

    ``null_offer`` marks the degenerate case where no action of A improves
    on B's fallback. The offer is then the best-gain action at share 0,
    evaluated like any other offer: only the types for which that action is
    already a selfish optimum play it, unpaid. When it is every type's
    selfish optimum, as in games without payoff ties, this is equilibrium
    play.
    """

    offer: Offer
    evaluation: OfferEvaluation
    null_offer: bool = False


@dataclass(frozen=True)
class SingleOfferOutcome:
    accepted: bool
    profile: StrategyProfile
    transfer: float
    payoff_a: float
    payoff_b: float
    welfare: float


def delta_a(game: OneWayGame, action_a: str) -> np.ndarray:
    """A's sacrifice for playing ``action_a``, per type (aligned with types_a);
    a read-only column of ``game.sacrifice_a``."""
    return game.sacrifice_a[:, game.action_a_index(action_a)]


def outside_option(game: OneWayGame, action_a: str, type_b: str) -> OutsideOption:
    ia, itb = game.action_a_index(action_a), game.type_b_index(type_b)
    return OutsideOption(game.actions_b[game.fallback_b[itb, ia]], float(game.fallback_payoff_b[itb, ia]))


@dataclass(frozen=True, eq=False)
class _Terms:
    """What offering one action means to one type of B.

    ``reply`` is the index of B's best reply to the offered action,
    ``ub_accept`` its payoff and ``gain`` that payoff over the fallback. The
    arrays run over A's types: the sacrifice of playing the action (a
    read-only column of ``game.sacrifice_a``) and B's realized payoff when
    A plays selfishly and B falls back.
    """

    ia: int
    outside: OutsideOption
    reply: int
    ub_accept: float
    gain: float
    sacrifice: np.ndarray
    ub_reject: np.ndarray

    def evaluate(self, game: OneWayGame, thresholds, reach, shares) -> OfferEvaluation:
        """The schedule's evaluation: each type of A settles at its step
        (``_settle``), strikes the deal there with that step's ``reach``
        probability at its share of the gain, and otherwise plays selfishly.
        Each expectation is a correctly rounded sum over A's types, in which
        a branch counts only where its probability is positive, so a payoff
        sum past the float range reads ``inf``, never ``nan``."""
        step, reach, transfer = _settle(self, thresholds, reach, shares)
        miss, ua_selfish = 1.0 - reach, game.selfish_payoff_a
        ua_deal = game.payoff_a[:, self.ia]

        def weigh(p: np.ndarray, x) -> np.ndarray:
            return np.multiply(p, x, out=np.zeros(p.shape), where=p > 0.0)

        def expect(deal, reject=0.0) -> float:
            return _exact_sum(weigh(game.prior_a, weigh(reach, deal) + weigh(miss, reject)))

        with np.errstate(over="ignore"):
            return OfferEvaluation(
                acceptance_prob=_exact_sum(game.prior_a * reach),
                delta_b=self.gain,
                outside=self.outside,
                expected_u_a=expect(ua_deal + transfer, ua_selfish),
                expected_u_b=expect(self.ub_accept - transfer, self.ub_reject),
                planning_u_b=self.outside.payoff + expect(self.gain - transfer),
                expected_sw=expect(ua_deal + self.ub_accept, ua_selfish + self.ub_reject),
                step=_frozen(step),
            )

    def realized(
        self, game: OneWayGame, ita: int, accepted: bool, transfer: float
    ) -> tuple[StrategyProfile, float, float]:
        """Profile and payoffs of A type ``ita`` after the deal or its refusal."""
        if accepted:
            profile = StrategyProfile(game.actions_a[self.ia], game.actions_b[self.reply])
            return profile, float(game.payoff_a[ita, self.ia]) + transfer, self.ub_accept - transfer
        profile = StrategyProfile(game.actions_a[game.selfish_a[ita]], self.outside.action_b)
        return profile, float(game.selfish_payoff_a[ita]), float(self.ub_reject[ita])


def _terms(game: OneWayGame, action_a: str, type_b: str) -> _Terms:
    ia, itb = game.action_a_index(action_a), game.type_b_index(type_b)
    out = outside_option(game, action_a, type_b)
    reply = int(game.reply_b[itb, ia])
    ub_accept = float(game.payoff_b[itb, ia, reply])
    ub_reject = game.payoff_b[itb, game.selfish_a, game.fallback_b[itb, ia]]
    gain = ub_accept - out.payoff
    return _Terms(ia, out, reply, ub_accept, gain, game.sacrifice_a[:, ia], ub_reject)


def _settle(terms: _Terms, thresholds, reach, shares) -> tuple[np.ndarray, ...]:
    """The acceptance rule: each type of A accepts at the first step whose
    threshold times B's gain covers her sacrifice, found by one
    ``searchsorted`` in the running maximum of those products. Returns, per A
    type, the accepting step (1-indexed, 0 for never), the probability that
    step is reached and the transfer paid there (both 0 for types that never
    accept). A single offer (a, gamma) is the one-step schedule: thresholds
    and shares (gamma,), reach (1.0,).
    """
    cover = np.maximum.accumulate(np.asarray(thresholds, dtype=np.float64) * terms.gain)
    step = (np.searchsorted(cover, terms.sacrifice) + 1) % (cover.size + 1)  # past the end: 0
    accepted = step > 0
    reach_of = np.where(accepted, np.asarray(reach, dtype=np.float64)[step - 1], 0.0)
    transfer = np.where(accepted, np.asarray(shares, dtype=np.float64)[step - 1] * terms.gain, 0.0)
    return step, reach_of, transfer


def delta_b(game: OneWayGame, action_a: str, type_b: str) -> float:
    """B's gain from the offered action over her fallback (may be negative)."""
    return _terms(game, action_a, type_b).gain


def acceptance_prob(game: OneWayGame, offer: Offer, type_b: str) -> float:
    """Prior mass of A types accepting: sacrifice at most gamma * gain."""
    return evaluate_offer(game, offer, type_b).acceptance_prob


def _minimal_shares(da: np.ndarray, db: float) -> np.ndarray:
    """Smallest floats g >= 0 with da <= g * db, elementwise.

    The plain quotient da / db can land one ulp to either side of the set
    {g : da <= g * db}, which would make an offer built from it silently miss
    (or overpay) the type it is meant to capture. Each share steps up until
    it covers, then bisects down on its bit pattern, which orders
    nonnegative floats: the boundary lies within two ulps unless a subnormal
    db rounds the product coarsely; an overflowing quotient is the share inf."""
    with np.errstate(over="ignore"):
        g = da / db
    g[g < 0.0] = 0.0
    while (up := g * db < da).any():
        g[up] = np.nextafter(g[up], np.inf)
    hi = g.view(np.int64)
    lo = np.maximum(hi - 2, 0)
    lo[lo.view(np.float64) * db >= da] = -1  # lo must not cover; -1 lies below 0.0
    while (hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        covers = mid.view(np.float64) * db >= da
        hi, lo = np.where(covers, mid, hi), np.where(covers, lo, mid)
    return hi.view(np.float64)


def _sweep(game: OneWayGame, terms: _Terms) -> tuple[np.ndarray, np.ndarray]:
    """Candidate shares, ascending: 0 plus every type's break-even share in
    [0, 1], and the prior mass of the A types accepting each (``_settle``'s
    rule). Only meaningful for a positive gain. The least covering share
    rises with the sacrifice, so in ``sacrifice_order``, after a share 0 of
    no mass, the shares come out sorted, and a share's accepting mass is the
    game's ``prefix_mass`` at the end of its run of equal shares. A share
    is at most 1 exactly when the sacrifice is at most the gain."""
    da = terms.sacrifice[game.sacrifice_order[:, terms.ia]]
    g = np.concatenate(([0.0], _minimal_shares(da[: np.searchsorted(da, terms.gain, side="right")], terms.gain)))
    last = np.flatnonzero(np.append(g[1:] != g[:-1], True))
    return g[last], game.prefix_mass[last, terms.ia]


def gamma_candidates(game: OneWayGame, action_a: str, type_b: str) -> list[float]:
    """Shares worth considering: 0 plus every type's break-even share in [0, 1].

    B's expected utility is piecewise linear in gamma with kinks exactly where
    some type becomes indifferent, so the maximum is attained on this grid.
    Each candidate is the smallest representable share that the indifferent
    type actually accepts under the ``da <= gamma * db`` rule; all of them
    come from one vectorised pass over A's types.
    """
    terms = _terms(game, action_a, type_b)
    return _sweep(game, terms)[0].tolist() if terms.gain > 0.0 else [0.0]


def evaluate_offer(game: OneWayGame, offer: Offer, type_b: str) -> OfferEvaluation:
    """The offer's evaluation as its one-step schedule: threshold and share
    gamma, reached with certainty."""
    return _terms(game, offer.action_a, type_b).evaluate(game, (offer.gamma,), (1.0,), (offer.gamma,))


def optimal_offer(game: OneWayGame, type_b: str) -> OfferSearchResult:
    """B's utility-maximizing offer for her type.

    Searches every action with a strictly positive gain and every candidate
    share. One sorted sweep per action scores all its candidates: a share's
    value is the fallback plus the accepting mass times the retained gain.
    Near-ties (within 1e-9 of the best value) resolve to the smaller gamma
    and then the lower action index, which keeps results stable under payoff
    jitter. Only the winner is evaluated by ``evaluate_offer``. If no action
    has positive gain the result is a null offer: the action with the
    largest gain at gamma 0 (see ``OfferSearchResult``).
    """
    all_terms = [_terms(game, a, type_b) for a in game.actions_a]
    values, shares, actions = [], [], []
    for terms in all_terms:
        if terms.gain <= 0.0:
            continue
        g, mass = _sweep(game, terms)
        values.append(terms.outside.payoff + mass * (terms.gain - g * terms.gain))
        shares.append(g)
        actions.append(np.full(len(g), terms.ia))
    if not values:
        offer = Offer(game.actions_a[int(np.argmax([t.gain for t in all_terms]))], 0.0)
        return OfferSearchResult(offer, evaluate_offer(game, offer, type_b), null_offer=True)
    values, shares, actions = map(np.concatenate, (values, shares, actions))
    cluster = np.flatnonzero(values >= values.max() - VALUE_TOL)
    best = cluster[np.lexsort((actions[cluster], shares[cluster]))[0]]
    offer = Offer(game.actions_a[actions[best]], float(shares[best]))
    return OfferSearchResult(offer, evaluate_offer(game, offer, type_b), null_offer=False)


def simplified_offer(game: OneWayGame, type_b: str) -> OfferSearchResult:
    """Welfare-oriented recipe: fix the action B likes best, then pick the
    first (smallest) share maximizing acceptance_prob * (1 - gamma), which
    the sweep's masses give exactly; a non-positive gain forces gamma 0."""
    reply_value = np.max(game.payoff_b[game.type_b_index(type_b)], axis=1)
    action = game.actions_a[int(np.argmax(reply_value))]
    terms = _terms(game, action, type_b)
    gamma = 0.0
    if terms.gain > 0.0:
        g, mass = _sweep(game, terms)
        gamma = float(g[np.argmax(mass * (1.0 - g))])
    offer = Offer(action, gamma)
    return OfferSearchResult(offer, evaluate_offer(game, offer, type_b), null_offer=False)


def run_single_offer(
    game: OneWayGame, offer: Offer, type_a: str, type_b: str
) -> SingleOfferOutcome:
    """Resolve one interaction deterministically (ties accept)."""
    terms = _terms(game, offer.action_a, type_b)
    step, _, transfer = _settle(terms, (offer.gamma,), (1.0,), (offer.gamma,))
    ita = game.type_a_index(type_a)
    accepted = bool(step[ita])
    paid = float(transfer[ita])
    profile, pa, pb = terms.realized(game, ita, accepted, paid)
    return SingleOfferOutcome(accepted, profile, paid, pa, pb, pa + pb)


def accept_reject_poa(gamma: float) -> tuple[float, float]:
    """Worst-case welfare ratios of the two outcomes of a gamma-share offer.

    Acceptance loses at most a factor 1 + gamma, rejection at most 1 + 1/gamma
    (infinite at gamma 0, where rejection carries no guarantee).
    """
    reject = math.inf if gamma == 0.0 else 1.0 + 1.0 / gamma
    return (1.0 + gamma, reject)


def bayes_poa_bound(game: OneWayGame, type_b: str) -> float:
    """Expected-PoA guarantee delivered by the simplified offer for a type."""
    res = simplified_offer(game, type_b)
    return theorem_bound(res.offer.gamma, res.evaluation.acceptance_prob)


@dataclass(frozen=True, eq=False)
class SimplifiedReport:
    """The simplified offer to one B type, audited per A type in read-only
    arrays (the game's A-type order): acceptance, the outcome's welfare, its
    optimum, their ratio and its accept/reject bound. Welfare is B's
    planning view: rejection books B's side at the fallback payoff (what B
    counts on when committing), which makes the per-outcome bound a theorem.
    """

    type_b: str
    offer: Offer
    acceptance_prob: float
    accepted: np.ndarray
    welfare: np.ndarray
    optimal: np.ndarray
    poa: np.ndarray
    branch_bound: np.ndarray
    expected_poa: float
    poa_bound: float


def simplified_strategy_report(game: OneWayGame) -> dict[str, SimplifiedReport]:
    """Per-B-type audit of the simplified offer against its guarantees."""
    reports: dict[str, SimplifiedReport] = {}
    live = game.prior_a > 0.0
    optimal_table = _optimal_table(game)
    for itb, tb in enumerate(game.types_b):
        res = simplified_offer(game, tb)
        gamma = res.offer.gamma
        terms = _terms(game, res.offer.action_a, tb)
        accepted = _frozen(res.evaluation.step > 0)
        with np.errstate(over="ignore"):
            deal = game.payoff_a[:, terms.ia] + terms.ub_accept
            welfare = np.where(accepted, deal, game.selfish_payoff_a + terms.outside.payoff)
        optimal = optimal_table[:, itb]
        poa = _ratio(optimal, welfare)
        p = res.evaluation.acceptance_prob
        reports[tb] = SimplifiedReport(
            type_b=tb,
            offer=res.offer,
            acceptance_prob=p,
            accepted=accepted,
            welfare=_frozen(welfare),
            optimal=_frozen(optimal),
            poa=_frozen(poa),
            branch_bound=_frozen(np.where(accepted, *accept_reject_poa(gamma))),
            expected_poa=_exact_sum(game.prior_a[live] * poa[live]),
            poa_bound=theorem_bound(gamma, p),
        )
    return reports
