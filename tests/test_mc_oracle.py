"""The Monte Carlo estimators against the per-draw loops they replaced.

``mc_oracle`` keeps ``mc_single_offer`` and ``simulate_schedule`` as they
were when every batch built each payoff as a per-draw column from fresh
temporaries, the single offer in both accountings. The package draws, for
each single-offer batch, only the group of runs it folds (the accepted
sacrifices for the payoffs, the declined draws' forgone gains for
``mc_poa``): the group's size from its binomial law, then the group alone.
Each single-offer estimator runs in one accounting and is paired with the
oracle in that one: ``mc_single_offer`` in aggregate accounting, ``mc_poa``
in exact. ``mc_poa`` rests on an identity that a property below checks on
the oracle's exact-accounting columns: an accepted draw's PoA is exactly 1
and a declined draw's is 1 plus its forgone gain over the default welfare.
The oracle lays the package's own group draws out as per-draw columns
(``single_offer_cells``), and each estimator's fields are compared with
that fold's fields of the same name. So every acceptance rate must be
``repr``-equal to the oracle's, and every other field within ``ULPS``
machine epsilons of the payoff scale: the largest payoff or sacrifice
bound of the scenario. Sample counts cover one draw, a partial batch,
exactly one batch, one batch plus one draw and several batches with a
ragged tail. Every scenario of a call reopens each batch's stream, and
must get the package's own result for it alone. The per-draw loop shares
no draws with the package; it is the reference in distribution, through
the coverage tests in ``test_analytics``. The batches run in order on the
calling thread, and the same-draws comparisons pin that order: a batch
folded out of place would fold another batch's stream.

A schedule simulation draws each B type's (A type, accepted) cell counts
from their law in place of the draws, so it shares no draws with the
oracle's per-draw loop: each of the two must cover the exact outcome as
often as its 99 percent intervals promise. The oracle also lays the
package's own cell counts out as draws and folds them per draw, and the
package's fields must agree with that fold as a single offer's do with its
oracle. Each B type's result must be the same alone or in one call with
the others.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import tracemalloc

import mc_oracle as oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oneway as ow
from interval_coverage import COVERAGE_SEEDS, ORACLE_SEEDS, miss_limit
from oneway import analytics, streams

# The worst error over the cases and the property below is 1.9 machine
# epsilons of the payoff scale, on a schedule's mean welfare (1.0 on a
# single offer's mean or largest PoA, 0.9 on any interval); the bound sits
# above that.
ULPS = 16

SAMPLES = (1, 1_000, streams.BATCH_SIZE, streams.BATCH_SIZE + 1, 200_001)
# Each single-offer estimator by the one oracle accounting it runs in.
BY_ACCOUNTING = {"aggregate": analytics.mc_single_offer, "exact": analytics.mc_poa}
ESTIMATORS = tuple(BY_ACCOUNTING.values())
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
    # A default payoff of negative zero: u_a's declined value, which the
    # two-group merge adds to the accepted share of the gap.
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


def _single_scale(sc: analytics.SingleOfferScenario) -> float:
    """A bound on every payoff and sacrifice of the scenario."""
    spec = sc.delta_a_spec
    return abs(sc.a_default) + abs(sc.b_outside) + sc.delta_b + max(abs(spec.low), abs(spec.high))


def _assert_close(got, want, scale: float, where) -> None:
    """Each field of ``got`` against ``want``'s field of the same name:
    acceptance ``repr``-equal; every other float field within ``ULPS``
    epsilons of ``scale``; the integer and string fields equal."""
    assert repr(got.acceptance_rate) == repr(want.acceptance_rate), where
    tol = ULPS * sys.float_info.epsilon * scale
    for field in dataclasses.fields(got):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(g, float) and field.name != "acceptance_rate":
            assert abs(g - w) <= tol, (where, field.name, g, w, abs(g - w) / tol)
        else:
            assert g == w, (where, field.name)


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("accounting", ["exact", "aggregate"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_mc_single_offer_matches_oracle(name, accounting, samples):
    """Each estimator against the oracle's fold of the same draws in its
    accounting: the payoffs (``mc_single_offer``) in aggregate, the per-draw
    PoA (``mc_poa``) in exact."""
    scenario, run = SCENARIOS[name], BY_ACCOUNTING[accounting]
    for seed in SEEDS:
        want = oracle.single_offer_cells(scenario, samples, seed, accounting)
        (got,) = run([scenario], samples, seed)
        _assert_close(got, want, _single_scale(scenario), (run.__name__, name, samples, seed))


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("accounting", ["exact", "aggregate"])
def test_one_call_over_every_scenario_matches_oracle(accounting, samples):
    """Each scenario of one call reopens each batch's stream; each result of
    the estimator that runs in ``accounting`` is its result for that
    scenario alone, and the oracle's fold of the same draws."""
    names, run = sorted(SCENARIOS), BY_ACCOUNTING[accounting]
    for seed in SEEDS:
        got = run([SCENARIOS[n] for n in names], samples, seed)
        assert len(got) == len(names)
        for name, result in zip(names, got):
            where = (run.__name__, name, samples, seed)
            (alone,) = run([SCENARIOS[name]], samples, seed)
            assert repr(result) == repr(alone), where
            want = oracle.single_offer_cells(SCENARIOS[name], samples, seed, accounting)
            _assert_close(result, want, _single_scale(SCENARIOS[name]), where)


def _two_pass(values: list[float]) -> tuple[float, float]:
    """Mean and 99 percent half-width of ``values`` by two ``math.fsum`` passes."""
    n = len(values)
    mean = math.fsum(values) / n
    return mean, streams.Z99 * math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n / n)


def _poa_column(sc: analytics.SingleOfferScenario, accept: list[bool], delta: list[float]) -> list[float]:
    """Per-draw PoA over correctly rounded welfare sums (``math.fsum``). The
    oracle's column sums base - delta + delta_b left to right, which cancels
    when the sacrifice is large against the welfare: at a sacrifice near 1e8
    and a welfare near 0.7 its PoA is off by about 1e-9 relative."""
    base = sc.a_default + sc.b_outside
    out = []
    for a, d in zip(accept, delta):
        traded = math.fsum((base, sc.delta_b, -d))
        out.append(max(base, traded) / (traded if a else base))
    return out


# Payoff offsets: negative zero, zero, and values up to 1e8.
_offset = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 1e8]), st.floats(0.0, 1e8))


def _scenario(a_default, b_outside, power, low, width, beta, reach, gamma) -> analytics.SingleOfferScenario:
    """Sacrifices on [low, low + width] (power: on [0, width]), with the
    offer's threshold at ``reach`` of that range. The default welfare is at
    least twice the range's width, so welfare stays away from zero and PoA
    well conditioned."""
    if power:
        spec = ow.ContinuousSpec.power(beta, width)
        low = 0.0
    else:
        spec = ow.ContinuousSpec.uniform(low, low + width)
    if a_default + b_outside < 2 * width:
        b_outside = 2 * width
    return analytics.SingleOfferScenario(spec, (low + reach * width) / gamma, a_default, b_outside, gamma)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    a_default=_offset,
    b_outside=_offset,
    power=st.booleans(),
    low=_offset,
    width=st.floats(1e-3, 10.0),
    beta=st.floats(0.1, 4.0),
    reach=st.floats(0.0, 1.5),
    gamma=st.floats(0.05, 1.0),
    samples=st.sampled_from([1, 2, 3, 1_000, streams.BATCH_SIZE + 999]),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # A's default payoff is negative zero
    a_default=-0.0, b_outside=2.0, power=False, low=0.0, width=1.0, beta=1.0,
    reach=0.5, gamma=0.5, samples=1_000, seed=0,
)
@example(  # every offset at 1e8, over two batches
    a_default=1e8, b_outside=1e8, power=False, low=1e8, width=1.0, beta=1.0,
    reach=0.5, gamma=0.5, samples=streams.BATCH_SIZE + 999, seed=1,
)
@example(  # sacrifices near 1e8 against a welfare near 0.7
    a_default=-0.0, b_outside=-0.0, power=False, low=1e8, width=0.3516861419359604, beta=1.0,
    reach=0.5, gamma=1.0, samples=1, seed=1,
)
def test_two_group_moments_match_a_two_pass_reference(
    a_default, b_outside, power, low, width, beta, reach, gamma, samples, seed
):
    """u_a, u_b and welfare (``mc_single_offer``), and PoA (``mc_poa``),
    each pooled by ``streams.interval``, against ``math.fsum`` two-pass moments
    of the package's own draws laid out as per-draw columns
    (``single_offer_cell_columns``, aggregate and exact accounting), with
    PoA from ``_poa_column``."""
    sc = _scenario(a_default, b_outside, power, low, width, beta, reach, gamma)
    (got,) = analytics.mc_single_offer([sc], samples, seed)
    batches = list(oracle.single_offer_cell_columns(sc, samples, seed, "aggregate"))
    accept, _, ua, ub, sw, _ = (np.concatenate(c).tolist() for c in zip(*batches))
    assert repr(got.acceptance_rate) == repr(sum(accept) / samples)
    tol = ULPS * sys.float_info.epsilon * _single_scale(sc)
    for field, column in (("u_a", ua), ("u_b", ub), ("sw", sw)):
        mean, ci = _two_pass(column)
        assert abs(getattr(got, f"mean_{field}") - mean) <= tol, field
        assert abs(getattr(got, f"ci_{field}") - ci) <= tol, field
    (got_poa,) = analytics.mc_poa([sc], samples, seed)
    batches = list(oracle.single_offer_cell_columns(sc, samples, seed, "exact"))
    accept, delta = (np.concatenate(c).tolist() for c in list(zip(*batches))[:2])
    assert repr(got_poa.acceptance_rate) == repr(sum(accept) / samples)
    poa = _poa_column(sc, accept, delta)
    mean, ci = _two_pass(poa)
    poa_tol = ULPS * sys.float_info.epsilon * max(poa)
    assert abs(got_poa.mean_poa - mean) <= poa_tol
    assert abs(got_poa.ci_poa - ci) <= poa_tol
    assert abs(got_poa.max_poa - max(poa)) <= poa_tol


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    a_default=_offset,
    b_outside=_offset,
    power=st.booleans(),
    low=_offset,
    width=st.floats(1e-3, 10.0),
    beta=st.floats(0.1, 4.0),
    reach=st.floats(0.0, 1.5),
    gamma=st.floats(0.05, 1.0),
    samples=st.sampled_from([1, 2, 3, 1_000, streams.BATCH_SIZE + 999]),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # every offset at 1e8, over two batches
    a_default=1e8, b_outside=1e8, power=False, low=1e8, width=1.0, beta=1.0,
    reach=0.5, gamma=0.5, samples=streams.BATCH_SIZE + 999, seed=1,
)
def test_accepted_draws_have_poa_one_and_declined_ones_their_forgone_gain(
    a_default, b_outside, power, low, width, beta, reach, gamma, samples, seed
):
    """The identity ``mc_poa`` folds on, on the oracle's exact-accounting
    columns, drawn per draw and laid out from the package's draws: an
    accepted draw's sacrifice is at most gamma * delta_b <= delta_b, so its
    PoA is exactly 1, and a declined draw's PoA is 1 + max(delta_b - delta,
    0) / base. So the largest PoA is 1 + the largest declined gain / base,
    as ``mc_poa`` reports it from its own draws."""
    sc = _scenario(a_default, b_outside, power, low, width, beta, reach, gamma)
    base = sc.a_default + sc.b_outside
    for columns in (oracle.single_offer_columns, oracle.single_offer_cell_columns):
        batches = list(columns(sc, samples, seed, "exact"))
        accept, delta = (np.concatenate(c).tolist() for c in list(zip(*batches))[:2])
        gains = []
        for a, d, poa in zip(accept, delta, _poa_column(sc, accept, delta)):
            if a:
                assert d <= sc.delta_b, (columns.__name__, d, sc.delta_b)
                assert poa == 1.0, (columns.__name__, poa)
            else:
                gains.append(max(sc.delta_b - d, 0.0))
                assert abs(poa - (1.0 + gains[-1] / base)) <= ULPS * sys.float_info.epsilon * poa, (d, poa)
    (got,) = analytics.mc_poa([sc], samples, seed)
    assert got.max_poa == 1.0 + max(gains, default=0.0) / base


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
            step = ow.expected_outcome(game, schedule, tb).step
            never |= bool(np.any((step == 0) & (game.prior_a > 0.0)))
            accepts |= bool(np.any(step > 0))
    assert zero_prior and never and accepts
    assert max(len(game.types_a) for game, _ in CASES) >= 40


def _schedule_scale(game: ow.OneWayGame, schedule: ow.Schedule, type_b: str) -> float:
    """A bound on every payoff a draw can book: A's, with the transfer, plus
    B's, realised or planned."""
    terms = ow.single_offer._terms(game, schedule.action_a, type_b)
    _, _, transfer = ow.single_offer._settle(
        terms, ow.s_values(schedule), ow.reach_probs(schedule), schedule.gammas
    )
    a = np.abs(np.concatenate((game.selfish_payoff_a, game.payoff_a[:, terms.ia] + transfer)))
    b = np.abs(np.concatenate((terms.ub_reject, terms.ub_accept - transfer, [terms.outside.payoff])))
    return float(a.max() + b.max())


@pytest.mark.parametrize("samples", SAMPLES)
def test_simulate_schedule_matches_oracle(samples):
    """Every B type of a game in one call against the oracle's per-draw
    fold of the same cell counts, laid out as draws."""
    for i, (game, schedule) in enumerate(CASES):
        for seed in SEEDS:
            got = ow.simulate_schedule(game, schedule, game.types_b, samples, seed)
            assert len(got) == len(game.types_b)
            for tb, result in zip(game.types_b, got):
                want = oracle.simulate_schedule_cells(game, schedule, tb, samples, seed)
                _assert_close(result, want, _schedule_scale(game, schedule, tb), (i, tb, samples, seed))


SCHEDULE_FIELDS = {"u_a": "expected_u_a", "u_b": "expected_u_b", "sw": "expected_sw", "u_b_planning": "planning_u_b"}


def _schedule_misses(simulate, seeds) -> tuple[dict, dict]:
    """Misses of each field's 99 percent interval around the exact
    ``expected_outcome`` over ``CASES`` x ``seeds`` x B types at 20,000
    draws, and the tries: intervals no wider than 1e-9 belong to fields
    constant on the drawn cells, and are not counted."""
    misses, trials = dict.fromkeys(SCHEDULE_FIELDS, 0), dict.fromkeys(SCHEDULE_FIELDS, 0)
    for game, schedule in CASES:
        exact = [ow.expected_outcome(game, schedule, tb) for tb in game.types_b]
        for seed in seeds:
            for result, want in zip(simulate(game, schedule, seed), exact):
                for field, name in SCHEDULE_FIELDS.items():
                    ci = getattr(result, f"ci_{field}")
                    if ci > 1e-9:
                        trials[field] += 1
                        misses[field] += abs(getattr(result, f"mean_{field}") - getattr(want, name)) > ci
    return misses, trials


def test_schedule_intervals_cover_the_exact_outcome():
    """The package draws each B type's cell counts from their law, and the
    oracle draw by draw, so they share no draws; each passes one coverage
    check against the exact outcome. At 400 seeds the package misses 149
    of 13,200 u_a intervals, 125 of 10,800 u_b, 141 of 13,200 welfare and
    114 of 10,000 planning-view intervals (limits 191, 162, 191 and 152);
    at 40 seeds the oracle misses 7, 10, 8 and 4 (limits 35, 30, 35 and
    29)."""

    def package(game, schedule, seed):
        return ow.simulate_schedule(game, schedule, game.types_b, 20_000, seed)

    def per_draw(game, schedule, seed):
        return [oracle.simulate_schedule(game, schedule, tb, 20_000, seed) for tb in game.types_b]

    for simulate, seeds in ((package, COVERAGE_SEEDS), (per_draw, ORACLE_SEEDS)):
        misses, trials = _schedule_misses(simulate, seeds)
        for field in SCHEDULE_FIELDS:
            assert misses[field] < miss_limit(trials[field]), (simulate.__name__, field, misses, trials)


@pytest.mark.parametrize("samples", (*SAMPLES, 2**63 - 1))
def test_each_b_type_is_the_same_alone_or_together(samples):
    for i, (game, schedule) in enumerate(CASES):
        for seed in SEEDS:
            got = ow.simulate_schedule(game, schedule, game.types_b, samples, seed)
            assert len(got) == len(game.types_b)
            for tb, result in zip(game.types_b, got):
                (alone,) = ow.simulate_schedule(game, schedule, [tb], samples, seed)
                assert repr(alone) == repr(result), (i, tb, samples, seed)


@pytest.mark.parametrize("samples", [1, 1_000, 2**63 - 1])
def test_schedules_no_type_accepts_read_exact_zeros(samples):
    """Where no A type of positive prior accepts, a B type reads acceptance
    0.0 and a zero-width planning view at any sample count."""
    checked = 0
    for i, (game, schedule) in enumerate(CASES):
        for tb, result in zip(game.types_b, ow.simulate_schedule(game, schedule, game.types_b, samples, 3)):
            if ow.expected_outcome(game, schedule, tb).acceptance_prob == 0.0:
                assert result.acceptance_rate == 0.0 and result.ci_u_b_planning == 0.0, (i, tb)
                checked += 1
    assert checked >= 10


@pytest.mark.parametrize("failing", [1, 2, 8])
def test_a_failing_batch_reaches_the_caller(monkeypatch, failing):
    """Batch ``i`` draws from stream ``i``; the failing batch is neither the
    first nor the last (a ragged one follows it), so the error must stop
    the in-order run in its middle and reach the caller unchanged."""
    make_stream = streams.stream
    samples = (failing + 1) * streams.BATCH_SIZE + 1

    def stream(seed, index=0):
        if index == failing:
            raise RuntimeError(f"batch {index} failed")
        return make_stream(seed, index)

    monkeypatch.setattr(streams, "stream", stream)
    for estimator in ESTIMATORS:
        with pytest.raises(RuntimeError, match=f"batch {failing} failed"):
            estimator([SCENARIOS["1b-x100"]], samples, 1)


def test_a_failing_stream_reaches_the_caller(monkeypatch):
    """Each B type of a schedule call opens one stream, keyed by its index
    in the game; the last one fails, after the others have drawn."""
    game, schedule = CASES[0]
    last = len(game.types_b) - 1
    assert last > 0
    make_stream = streams.stream

    def stream(seed, index=0):
        if index == last:
            raise RuntimeError(f"stream {index} failed")
        return make_stream(seed, index)

    monkeypatch.setattr(streams, "stream", stream)
    with pytest.raises(RuntimeError, match=f"stream {last} failed"):
        ow.simulate_schedule(game, schedule, game.types_b, 200_001, 1)


def test_empty_inputs_draw_nothing(monkeypatch):
    def stream(seed, index=0):
        raise AssertionError("an empty call opened a batch stream")

    monkeypatch.setattr(streams, "stream", stream)
    game, schedule = CASES[0]
    for estimator in ESTIMATORS:
        assert estimator([], 10**7, 1) == []
    assert ow.simulate_schedule(game, schedule, [], 10**7, 1) == []


def test_a_bare_scenario_or_type_id_is_rejected():
    """Both take sequences; a ``str`` is one too, so a lone B type id would
    otherwise be read as one id per character."""
    game, schedule = CASES[0]
    for estimator in ESTIMATORS:
        with pytest.raises(TypeError, match="sequence"):
            estimator(SCENARIOS["1b-x100"], 1_000, 1)
        assert estimator([], 1_000, 1) == []
    with pytest.raises(TypeError, match="sequence"):
        ow.simulate_schedule(game, schedule, game.types_b[0], 1_000, 1)
    assert ow.simulate_schedule(game, schedule, [], 1_000, 1) == []


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


def test_memory_budget():
    """Either estimator holds one float column and no mask, whatever the
    number of scenarios: each scenario of a batch draws only its group's
    uniforms into that column, and maps them to sacrifices (and gains) and
    folds them in place, so a second column would break the budget. A
    schedule call draws its cell counts directly and holds no batch column
    at all, however many B types it runs."""
    samples = 3 * streams.BATCH_SIZE
    four = [SCENARIOS[f"power-{b}"] for b in (0.25, 0.5, 0.75, 1.0)]
    for run in ESTIMATORS:
        for scenarios in (four[:1], four):
            held = _peak_bytes(lambda: run(scenarios, samples, 1))
            assert held <= COLUMN + SLACK, (run.__name__, len(scenarios), held / COLUMN)
    game, schedule = CASES[-1]
    for types in (game.types_b[:1], game.types_b):
        held = _peak_bytes(lambda: ow.simulate_schedule(game, schedule, types, samples, 1))
        assert held <= SLACK, (len(types), held / COLUMN)
