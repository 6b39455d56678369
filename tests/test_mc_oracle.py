"""The buffered Monte Carlo batches against the loops they replaced.

``mc_oracle`` keeps ``mc_single_offer`` and ``simulate_schedule`` as they
were when every batch drew both uniforms with ``rng.uniform(size=...)`` and
built its columns from fresh temporaries. The buffered versions must return
results whose every field is ``repr``-equal to the oracle's: same draws,
same acceptance, same sums, so the same report bytes. Sample counts cover
one draw, a partial batch, exactly one batch, one batch plus one draw and
several batches with a ragged tail. The batches run on worker threads, so
the comparison is repeated under several ``os.cpu_count()`` values.
"""

from __future__ import annotations

import dataclasses
import os

import mc_oracle as oracle
import numpy as np
import pytest

import oneway as ow
from oneway import analytics, streams

SAMPLES = (1, 1_000, streams.BATCH_SIZE, streams.BATCH_SIZE + 1, 200_001)
SEEDS = (1, 2, 3)

SCENARIOS = {
    "1b-x100": analytics.example1b_scenario(100.0),  # gamma = 1/2 branch
    "1b-x300": analytics.example1b_scenario(300.0),  # gamma = 100 / x branch
    **{f"power-{b}": analytics.power_scenario(b) for b in (0.25, 0.5, 0.75, 1.0)},
    "uniform-offset": analytics.SingleOfferScenario(
        delta_a_spec=ow.ContinuousSpec.uniform(2.0, 7.0),
        delta_b=9.0,
        a_default=10.0,
        b_outside=1.5,
        gamma=0.6,
    ),
}


def test_example1b_scenarios_cover_both_share_branches():
    assert SCENARIOS["1b-x100"].gamma == 0.5
    assert SCENARIOS["1b-x300"].gamma == 100.0 / 300.0


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("accounting", ["exact", "aggregate"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_mc_single_offer_matches_oracle(name, accounting, samples):
    scenario = SCENARIOS[name]
    for seed in SEEDS:
        got = analytics.mc_single_offer(scenario, samples, seed, accounting)
        want = oracle.mc_single_offer(scenario, samples, seed, accounting)
        assert repr(got) == repr(want), (name, accounting, samples, seed)


def _schedule(rng: np.random.Generator, action: str, n: int) -> ow.Schedule:
    gammas = np.sort(rng.choice(np.linspace(0.05, 0.95, 91), size=n, replace=False))
    probs = (1.0, *rng.uniform(0.05, 0.9, size=n - 1))
    return ow.Schedule(action, tuple(gammas), probs)


def _schedule_cases():
    """(game, schedule) pairs on ``random_suite`` games, the same games with
    some A types at prior 0, and one game with 48 A types."""
    suite = ow.random_suite(8, 20261018, max_types_a=8)
    zero = []
    for game in suite[:4]:
        if len(game.types_a) > 1:
            prior = game.prior_a.copy()
            prior[::2] = 0.0
            zero.append(dataclasses.replace(game, prior_a=prior / prior.sum()))
    wide = ow.random_game(seed=5, n_actions_a=4, n_types_a=48, n_types_b=2)
    rng = np.random.default_rng(20261018)
    cases = []
    for i, game in enumerate([*suite, *zero, wide]):
        action = game.actions_a[int(rng.integers(len(game.actions_a)))]
        cases.append((game, _schedule(rng, action, 1 + 2 * (i % 2))))
    return cases


CASES = _schedule_cases()


def test_schedule_cases_cover_the_corners():
    """Some types have prior 0, some positive-prior types never accept, some
    accept, and one game has at least 40 A types."""
    zero_prior = never = accepts = False
    for game, schedule in CASES:
        zero_prior |= bool(np.any(game.prior_a == 0.0))
        for tb in game.types_b:
            _, step, _, _ = ow.multi_offer._settled(game, schedule, tb)
            never |= bool(np.any((step == 0) & (game.prior_a > 0.0)))
            accepts |= bool(np.any(step > 0))
    assert zero_prior and never and accepts
    assert max(len(game.types_a) for game, _ in CASES) >= 40


@pytest.mark.parametrize("samples", SAMPLES)
def test_simulate_schedule_matches_oracle(samples):
    for i, (game, schedule) in enumerate(CASES):
        for tb in game.types_b:
            for seed in SEEDS:
                got = ow.simulate_schedule(game, schedule, tb, samples, seed)
                want = oracle.simulate_schedule(game, schedule, tb, samples, seed)
                assert repr(got) == repr(want), (i, tb, samples, seed)


THREAD_SAMPLES = (1, streams.BATCH_SIZE, streams.BATCH_SIZE + 1, 200_001)


@pytest.mark.parametrize("cpus", [1, 2, 3, 8, None])
def test_results_do_not_depend_on_the_thread_count(monkeypatch, cpus):
    """Batches run on ``os.cpu_count()`` threads and fold in batch order, so
    every field matches the single-threaded oracle on any core count,
    including runs with fewer batches than threads and a ragged last batch."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    game, schedule = CASES[1]
    for samples in THREAD_SAMPLES:
        for accounting in ("exact", "aggregate"):
            got = analytics.mc_single_offer(SCENARIOS["power-0.5"], samples, 7, accounting)
            want = oracle.mc_single_offer(SCENARIOS["power-0.5"], samples, 7, accounting)
            assert repr(got) == repr(want), (cpus, samples, accounting)
        got = ow.simulate_schedule(game, schedule, game.types_b[0], samples, 7)
        want = oracle.simulate_schedule(game, schedule, game.types_b[0], samples, 7)
        assert repr(got) == repr(want), (cpus, samples)


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_a_failing_batch_reaches_the_caller(monkeypatch, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    make_stream = streams.stream

    def stream(seed, index=0):
        if index == 2:
            raise RuntimeError("batch 2 failed")
        return make_stream(seed, index)

    monkeypatch.setattr(streams, "stream", stream)
    game, schedule = CASES[0]
    with pytest.raises(RuntimeError, match="batch 2 failed"):
        analytics.mc_single_offer(SCENARIOS["1b-x100"], 200_001, 1)
    with pytest.raises(RuntimeError, match="batch 2 failed"):
        ow.simulate_schedule(game, schedule, game.types_b[0], 200_001, 1)
