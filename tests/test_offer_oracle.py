"""The shared acceptance rule and the sorted offer sweep against the
implementations they replaced.

``offer_oracle`` keeps the old ``evaluate_offer``, ``expected_utility_B`` and
``expected_outcome``. On ``random_suite`` instances the new evaluators must
give the same accepting types and steps exactly and the same values within
1e-12 relative; a single offer must equal its one-step schedule exactly, and
the optimizer's equivalence gap must be exactly zero, null offers included.

It also keeps the per-candidate searches ``optimal_offer``,
``simplified_offer`` and ``gamma_candidates``. The sweep must pick the same
offers with identical evaluations and list identical candidates, on
``random_suite`` and on games with many exact payoff ties. The sweep's shares and masses must
equal those of the per-call sorts it replaced, ``_shares`` and
``_acceptance_mass``, bit for bit. ``_settle`` must return the steps,
reach and transfers of the bool table it replaced, ``covers_settle``, on any
schedule, and ``simplified_offer`` the offers of its near-tie rescoring,
``rescored_simplified_offer``.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import offer_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneway as ow

REL = 1e-12
# The evaluation record's expectations.
VALUES = ("acceptance_prob", "expected_u_a", "expected_u_b", "planning_u_b", "expected_sw")


@functools.cache
def _suite(seed: int) -> list:
    return ow.random_suite(200, seed)


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


def _shares(game, action, type_b):
    return sorted(set(ow.gamma_candidates(game, action, type_b)) | {0.0, 1.0})


def _random_schedule(rng: random.Random, game) -> ow.Schedule:
    """1-4 steps, strictly increasing shares (sometimes hitting 0 and 1) and
    continuation probabilities in [0, 1), so interior thresholds are often
    non-monotone and sometimes negative."""
    n = rng.randint(1, 4)
    gammas = sorted({rng.choice((0.0, 1.0, rng.random())) for _ in range(n)})
    probs = [1.0] + [rng.choice((0.0, 0.5, rng.random() * 0.999)) for _ in gammas[1:]]
    return ow.Schedule(rng.choice(game.actions_a), tuple(gammas), tuple(probs))


@pytest.mark.parametrize("seed", [1, 2])
def test_offers_match_oracle(seed):
    checked = 0
    for game in _suite(seed):
        for tb in game.types_b:
            for action in game.actions_a:
                for gamma in _shares(game, action, tb):
                    offer = ow.Offer(action, gamma)
                    got = ow.evaluate_offer(game, offer, tb)
                    want = oracle.evaluate_offer(game, offer, tb)
                    assert np.array_equal(got.step, want.step), (offer, tb)
                    assert got.outside == want.outside
                    assert got.delta_b == want.delta_b
                    for field in VALUES:
                        assert _close(getattr(got, field), getattr(want, field)), (offer, tb, field)
                    checked += 1
    assert checked > 4000


@pytest.mark.parametrize("seed", [1, 2])
def test_schedules_match_oracle(seed):
    rng = random.Random(seed)
    non_monotone = 0
    for game in _suite(seed):
        for tb in game.types_b:
            for _ in range(3):
                schedule = _random_schedule(rng, game)
                assert ow.s_values(schedule) == oracle.s_values(schedule)[1:]
                assert ow.reach_probs(schedule) == oracle.reach_probs(schedule)
                s = ow.s_values(schedule)
                non_monotone += any(a > b for a, b in zip(s, s[1:]))
                assert _close(
                    ow.expected_utility_B(game, schedule, tb),
                    oracle.expected_utility_B(game, schedule, tb),
                ), (schedule, tb)
                got = ow.expected_outcome(game, schedule, tb)
                want = oracle.expected_outcome(game, schedule, tb)
                assert np.array_equal(got.step, want.step), (schedule, tb)
                assert got.outside == want.outside
                assert got.delta_b == want.delta_b
                for field in VALUES:
                    assert _close(getattr(got, field), getattr(want, field)), (schedule, tb, field)
    assert non_monotone > 100


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    index=st.integers(0, 199),
    seed=st.integers(1, 3),
    pick=st.integers(0, 10**6),
)
def test_single_offer_is_the_one_step_schedule(index, seed, pick):
    game = _suite(seed)[index]
    tb = game.types_b[pick % len(game.types_b)]
    action = game.actions_a[pick % len(game.actions_a)]
    shares = _shares(game, action, tb)
    gamma = shares[pick % len(shares)]
    single = ow.evaluate_offer(game, ow.Offer(action, gamma), tb)
    schedule = ow.Schedule(action, (gamma,), (1.0,))
    assert _same_evaluation(single, ow.expected_outcome(game, schedule, tb))
    assert single.planning_u_b == ow.expected_utility_B(game, schedule, tb)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equivalence_gap_is_exactly_zero(seed):
    for game in _suite(seed):
        for tb in game.types_b:
            for n in (2, 3):
                assert ow.equivalence_gap(game, tb, n) == 0.0, (tb, n)


@pytest.mark.parametrize("seed", range(4, 12))
def test_null_offer_gap_is_exactly_zero(seed):
    """A null offer is evaluated like any other offer, so it and its padded
    schedule share one formula. On these tie-free games the evaluation is
    still equilibrium play, checked against the equilibrium formula."""
    nulls = 0
    for game in ow.random_suite(200, seed, max_types_a=8):
        nash_a = np.argmax(game.payoff_a, axis=1)
        for itb, tb in enumerate(game.types_b):
            res = ow.optimal_offer(game, tb)
            if not res.null_offer:
                continue
            nulls += 1
            assert ow.equivalence_gap(game, tb, 2) == 0.0, tb
            ib = game.action_b_index(ow.nash_outcome(game).action_b[tb])
            e_ua = math.fsum(game.prior_a * np.max(game.payoff_a, axis=1))
            e_ub = math.fsum(game.prior_a * game.payoff_b[itb, nash_a, ib])
            ev = res.evaluation
            assert ev.expected_u_a == e_ua
            assert math.isclose(ev.expected_u_b, e_ub, rel_tol=REL)
            assert math.isclose(ev.expected_sw, e_ua + e_ub, rel_tol=REL)
    assert nulls > 0


@functools.cache
def _search_suite(seed: int, max_types_a: int) -> list:
    return ow.random_suite(200, seed, max_types_a=max_types_a)


def _same_evaluation(got, want) -> bool:
    """Every field equal, the accepting steps elementwise."""
    same = all(getattr(got, f) == getattr(want, f) for f in ("delta_b", "outside", *VALUES))
    return same and np.array_equal(got.step, want.step)


def _assert_searches_match(game) -> None:
    for tb in game.types_b:
        for search in ("optimal_offer", "simplified_offer"):
            got = getattr(ow, search)(game, tb)
            want = getattr(oracle, search)(game, tb)
            assert (got.offer, got.null_offer) == (want.offer, want.null_offer), (search, tb)
            assert _same_evaluation(got.evaluation, want.evaluation), (search, tb)
        for action in game.actions_a:
            assert ow.gamma_candidates(game, action, tb) == oracle.gamma_candidates(game, action, tb)


@pytest.mark.parametrize("max_types_a", [6, 40])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_offer_search_matches_oracle(seed, max_types_a):
    nulls = 0
    for game in _search_suite(seed, max_types_a):
        _assert_searches_match(game)
        nulls += sum(ow.optimal_offer(game, tb).null_offer for tb in game.types_b)
    assert nulls > 0


def _tied_game(rng: np.random.Generator):
    """Small integer payoffs and priors with few distinct values, so shares,
    acceptance masses and offer values tie exactly."""
    n_aa, n_ab, n_ta = (int(x) for x in rng.integers(2, [5, 4, 9]))
    weights = rng.integers(0, 4, n_ta).astype(float)
    weights[0] += 1.0
    return ow.make_game(
        [f"a{j}" for j in range(n_aa)],
        [f"b{j}" for j in range(n_ab)],
        [(f"t{i}", w) for i, w in enumerate(weights / weights.sum())],
        [("u1", 0.5), ("u2", 0.5)],
        rng.integers(0, 4, (n_ta, n_aa)).astype(float),
        rng.integers(0, 4, (2, n_aa, n_ab)).astype(float),
    )


def test_offer_search_matches_oracle_on_tied_games():
    rng = np.random.default_rng(982)
    for _ in range(700):
        _assert_searches_match(_tied_game(rng))


def test_sweep_matches_oracle_bit_for_bit():
    """One sacrifice order per game gives the shares and accepting masses of
    a sort per call (``oracle._shares`` and ``oracle._acceptance_mass``) bit
    for bit, on ``random_suite`` and on tied games, where sacrifices and
    shares tie and some A types have zero prior."""
    from oneway.single_offer import _sweep, _terms

    rng = np.random.default_rng(982)
    games = [*_suite(1), *_suite(2), *(_tied_game(rng) for _ in range(700))]
    sets = tied = 0
    for game in games:
        for action in game.actions_a:
            for tb in game.types_b:
                terms = _terms(game, action, tb)
                if terms.gain <= 0.0:
                    continue
                shares, mass = _sweep(game, terms)
                want = oracle._shares(terms)
                assert shares.tobytes() == want.tobytes(), (action, tb)
                assert mass.tobytes() == oracle._acceptance_mass(game, terms, want).tobytes(), (action, tb)
                sets += 1
                tied += np.unique(terms.sacrifice).size < terms.sacrifice.size
    zero_prior = sum(bool(np.any(game.prior_a == 0.0)) for game in games)
    assert sets > 3000 and tied > 1000 and zero_prior > 100  # 3,942, 1,897 and 445


@pytest.mark.parametrize("seed", [1, 2])
def test_reply_to_selfish_play_matches_per_type_product(seed):
    """The replaced algorithm: B's fallback as the per-type weighted product
    ``weights @ payoff_b[itb, selfish[idx], :]`` and ``nash_b`` as the
    argmax of ``prior_a @ payoff_b[itb, selfish, :]``. The reply may differ
    only where the top two values lie within 1e-12; the value within 1e-12
    relative."""
    cells = 0
    for game in _suite(seed):
        selfish = np.argmax(game.payoff_a, axis=1)
        for itb in range(len(game.types_b)):
            assert game.nash_b[itb] == np.argmax(game.prior_a @ game.payoff_b[itb, selfish, :])
            for ia in range(len(game.actions_a)):
                idx = np.flatnonzero(game.payoff_a[:, ia] != np.max(game.payoff_a, axis=1))
                mass = float(np.sum(game.prior_a[idx]))
                if mass <= 0.0:
                    continue
                vals = (game.prior_a[idx] / mass) @ game.payoff_b[itb, selfish[idx], :]
                reply, value = int(game.fallback_b[itb, ia]), float(game.fallback_payoff_b[itb, ia])
                top = np.sort(vals)[::-1]
                assert reply == np.argmax(vals) or top[0] - top[1] <= 1e-12, (itb, ia)
                assert math.isclose(value, vals.max(), rel_tol=REL, abs_tol=0.0), (itb, ia)
                cells += 1
    assert cells > 1500


def _settles_alike(terms, thresholds, reach, shares) -> bool:
    """``_settle`` and the bool-table rule it replaced return the same
    steps, reach and transfers, dtypes and bits included."""
    from oneway.single_offer import _settle

    got = _settle(terms, thresholds, reach, shares)
    want = oracle.covers_settle(terms, thresholds, reach, shares)
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_settle_matches_the_covers_table(seed):
    """On every (action, B type) of the suite, a random schedule's steps
    equal the table's, non-monotone thresholds included, and so do they
    with B's gain set to zero and negated."""
    from dataclasses import replace

    from oneway.single_offer import _terms

    rng = random.Random(seed)
    non_monotone = non_positive = 0
    for game in _search_suite(seed, 12):
        for action in game.actions_a:
            for tb in game.types_b:
                schedule = _random_schedule(rng, game)
                s = ow.s_values(schedule)
                non_monotone += any(a > b for a, b in zip(s, s[1:]))
                args = (s, ow.reach_probs(schedule), schedule.gammas)
                terms = _terms(game, action, tb)
                non_positive += terms.gain <= 0.0
                for gain in (terms.gain, 0.0, -terms.gain):
                    assert _settles_alike(replace(terms, gain=gain), *args), (action, tb, schedule, gain)
    assert non_monotone > 150 and non_positive > 700  # 162-213 and 775-865 of 1,903-2,075


@pytest.mark.parametrize("gain", [1.0, 0.0, -1.0])
def test_settle_matches_the_covers_table_on_long_schedules(gain):
    """10**5 steps of thresholds in random order, both signs, on 12 A types,
    and the same thresholds sorted."""
    from dataclasses import replace

    from oneway.single_offer import _terms

    game = ow.random_game(seed=5, n_types_a=12)
    terms = replace(_terms(game, game.actions_a[0], game.types_b[0]), gain=gain)
    rng = np.random.default_rng(7)
    scale = float(np.max(game.sacrifice_a))
    thresholds = rng.normal(0.0, scale, 10**5)
    reach, shares = rng.random(10**5), rng.random(10**5)
    assert _settles_alike(terms, thresholds, reach, shares)
    assert _settles_alike(terms, np.sort(thresholds), reach, shares)


def test_simplified_offer_matches_the_rescoring_oracle():
    """The first best share of the sweep's exact masses is the share the
    near-tie rescoring picked, on ``random_suite`` and on tied games."""
    rng = np.random.default_rng(982)
    games = [*(g for seed in (1, 2, 3) for g in _search_suite(seed, 12)), *(_tied_game(rng) for _ in range(300))]
    for game in games:
        for tb in game.types_b:
            got, want = ow.simplified_offer(game, tb), oracle.rescored_simplified_offer(game, tb)
            assert (got.offer, got.null_offer) == (want.offer, want.null_offer), tb
            assert _same_evaluation(got.evaluation, want.evaluation), tb
