"""The buffered Monte Carlo batches against the loops they replaced.

``mc_oracle`` keeps ``mc_single_offer`` and ``simulate_schedule`` as they
were when every batch drew both uniforms with ``rng.uniform(size=...)`` and
built its columns from fresh temporaries. The buffered versions must return
results whose every field is ``repr``-equal to the oracle's: same draws,
same acceptance, same sums, so the same report bytes. Sample counts cover
one draw, a partial batch, exactly one batch, one batch plus one draw and
several batches with a ragged tail. The batches run on worker threads, so
the comparison is repeated under several ``os.cpu_count()`` values. A call
over several scenarios or B types shares each batch's draws between them,
and must give each the oracle's result for it alone.
"""

from __future__ import annotations

import dataclasses
import os
import tracemalloc

import mc_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # A default payoff of negative zero, a bit pattern the select must copy.
    # The means add every column to 0.0 and so cannot show a zero's sign;
    # test_select_equals_a_masked_copy_bit_for_bit checks the bits.
    "signed-zero-default": analytics.SingleOfferScenario(
        delta_a_spec=ow.ContinuousSpec.uniform(0.0, 1.0),
        delta_b=1.0,
        a_default=-0.0,
        b_outside=1.0,
        gamma=0.5,
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
        (got,) = analytics.mc_single_offer([scenario], samples, seed, accounting)
        want = oracle.mc_single_offer(scenario, samples, seed, accounting)
        assert repr(got) == repr(want), (name, accounting, samples, seed)


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("accounting", ["exact", "aggregate"])
def test_one_call_over_every_scenario_matches_oracle(accounting, samples):
    """The scenarios of one call share each batch's draws; each result is
    still the oracle's for that scenario alone."""
    names = sorted(SCENARIOS)
    for seed in SEEDS:
        got = analytics.mc_single_offer([SCENARIOS[n] for n in names], samples, seed, accounting)
        assert len(got) == len(names)
        for name, result in zip(names, got):
            want = oracle.mc_single_offer(SCENARIOS[name], samples, seed, accounting)
            assert repr(result) == repr(want), (name, accounting, samples, seed)


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
    """Every B type of a game in one call, and each alone."""
    for i, (game, schedule) in enumerate(CASES):
        for seed in SEEDS:
            got = ow.simulate_schedule(game, schedule, game.types_b, samples, seed)
            assert len(got) == len(game.types_b)
            for tb, result in zip(game.types_b, got):
                want = oracle.simulate_schedule(game, schedule, tb, samples, seed)
                assert repr(result) == repr(want), (i, tb, samples, seed)
                (alone,) = ow.simulate_schedule(game, schedule, [tb], samples, seed)
                assert repr(alone) == repr(want), (i, tb, samples, seed)


THREAD_SAMPLES = (1, streams.BATCH_SIZE, streams.BATCH_SIZE + 1, 200_001)


@pytest.mark.parametrize("cpus", [1, 2, 3, 8, None])
def test_results_do_not_depend_on_the_thread_count(monkeypatch, cpus):
    """Batches run on ``os.cpu_count()`` threads and fold in batch order, so
    every field matches the single-threaded oracle on any core count,
    including runs with fewer batches than threads and a ragged last batch."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    names = sorted(SCENARIOS)
    for samples in THREAD_SAMPLES:
        for accounting in ("exact", "aggregate"):
            got = analytics.mc_single_offer([SCENARIOS[n] for n in names], samples, 7, accounting)
            for name, result in zip(names, got):
                want = oracle.mc_single_offer(SCENARIOS[name], samples, 7, accounting)
                assert repr(result) == repr(want), (cpus, samples, accounting, name)
        for i, (game, schedule) in enumerate(CASES):
            got = ow.simulate_schedule(game, schedule, game.types_b, samples, 7)
            for tb, result in zip(game.types_b, got):
                want = oracle.simulate_schedule(game, schedule, tb, samples, 7)
                assert repr(result) == repr(want), (cpus, samples, i, tb)


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
        analytics.mc_single_offer([SCENARIOS["1b-x100"]], 200_001, 1)
    with pytest.raises(RuntimeError, match="batch 2 failed"):
        ow.simulate_schedule(game, schedule, game.types_b, 200_001, 1)


def test_a_bare_scenario_or_type_id_is_rejected():
    """Both take sequences; a ``str`` is one too, so a lone B type id would
    otherwise be read as one id per character."""
    game, schedule = CASES[0]
    with pytest.raises(TypeError, match="sequence"):
        analytics.mc_single_offer(SCENARIOS["1b-x100"], 1_000, 1)
    with pytest.raises(TypeError, match="sequence"):
        ow.simulate_schedule(game, schedule, game.types_b[0], 1_000, 1)
    assert analytics.mc_single_offer([], 1_000, 1) == []
    assert ow.simulate_schedule(game, schedule, [], 1_000, 1) == []


# Bit patterns where a select that goes through float arithmetic, or through
# a float register that quiets NaNs, would differ from a copy.
SPECIAL_BITS = [
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # quiet NaN
    0xFFF8000000000001,  # negative quiet NaN with a payload
    0x7FF0000000000001,  # signalling NaN
    0x7FFFFFFFFFFFFFFF,  # NaN with every payload bit set
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
    0x7FEFFFFFFFFFFFFF,  # largest finite
]
_bits = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(_bits, _bits, st.booleans()), min_size=1, max_size=64),
    scalar_on=st.booleans(),
    scalar_off=st.booleans(),
)
def test_select_equals_a_masked_copy_bit_for_bit(rows, scalar_on, scalar_off):
    """``on`` and ``off`` are columns, or their first entries as scalars:
    u_a selects a column against a scalar, u_b a scalar against another."""
    on = np.array([r[0] for r in rows], dtype=np.uint64).view(np.int64)
    off = np.array([r[1] for r in rows], dtype=np.uint64).view(np.int64)
    on, off = on[0] if scalar_on else on, off[0] if scalar_off else off
    accept = np.array([r[2] for r in rows])
    want = np.broadcast_to(off, accept.shape).copy().view(np.float64)
    np.copyto(want, np.broadcast_to(on, accept.shape).view(np.float64), where=accept)
    out = np.empty(len(rows))
    assert analytics._select(accept, on ^ off, off, out=out) is out
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def _peak_bytes(fn) -> int:
    """Peak traced allocation of ``fn()`` above what was held before it."""
    fn()  # warm up: per-game tables and first-use allocations
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


COLUMN = 8 * streams.BATCH_SIZE  # bytes in one float column of a full batch
# Result objects, small tables and numpy's cast buffers (8,192 elements,
# 64 KiB): well under the one column any budget below would have to miss by.
SLACK = COLUMN // 4


def test_memory_budget_per_thread(monkeypatch):
    """On one thread, one scenario holds three float columns and a mask: no
    more than before the draws were shared, which also made an index column
    for a table read. A call over four scenarios keeps the uniforms in one
    more column, and in aggregate mode the coin in a second. A schedule
    call holds two float columns, a mask and the ``searchsorted`` index,
    however many B types it runs."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    samples = 3 * streams.BATCH_SIZE
    four = [SCENARIOS[f"power-{b}"] for b in (0.25, 0.5, 0.75, 1.0)]
    for accounting, kept in (("exact", 1), ("aggregate", 2)):
        one = _peak_bytes(lambda: analytics.mc_single_offer(four[:1], samples, 1, accounting))
        assert one <= 3 * COLUMN + COLUMN // 8 + SLACK, (accounting, one / COLUMN)
        fused = _peak_bytes(lambda: analytics.mc_single_offer(four, samples, 1, accounting))
        assert fused <= one + kept * COLUMN + SLACK, (accounting, fused / COLUMN)
    game, schedule = CASES[-1]
    one = _peak_bytes(lambda: ow.simulate_schedule(game, schedule, game.types_b[:1], samples, 1))
    assert one <= 3 * COLUMN + COLUMN // 8 + SLACK, one / COLUMN
    every = _peak_bytes(lambda: ow.simulate_schedule(game, schedule, game.types_b, samples, 1))
    assert every <= one + SLACK, every / COLUMN
