import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oneway as ow
from offer_oracle import certification_probe


def sched(gammas, probs, action="a1"):
    return ow.Schedule(action, tuple(gammas), tuple(probs))


def test_schedule_validation():
    sched([0.2, 0.5], [1.0, 0.5])  # fine
    with pytest.raises(ValueError, match="first offer must be certain"):
        sched([0.2, 0.5], [0.9, 0.5])
    with pytest.raises(ValueError, match="strictly increasing"):
        sched([0.5, 0.5], [1.0, 0.5])
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        sched([0.2, 1.5], [1.0, 0.5])
    with pytest.raises(ValueError, match="meaningless"):
        sched([0.2, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError, match="expected 2"):
        sched([0.2, 0.5], [1.0])
    with pytest.raises(ValueError, match="at least one step"):
        sched([], [])


def test_s_values():
    s = ow.s_values(sched([0.3, 0.5], [1.0, 0.5]))
    assert s[0] == 0.0
    assert s[1] == pytest.approx(0.1, abs=1e-12)
    assert s[2] == 0.5
    # an attractive second offer pushes the first threshold negative
    s2 = ow.s_values(sched([0.2, 0.5], [1.0, 0.5]))
    assert s2[1] < 0.0
    # one step: thresholds collapse to (0, gamma)
    assert ow.s_values(sched([0.4], [1.0])) == (0.0, 0.4)


def test_reach_probs():
    assert ow.reach_probs(sched([0.3, 0.5], [1.0, 0.5])) == (1.0, 0.5)
    assert ow.reach_probs(sched([0.1, 0.2, 0.5], [1.0, 0.5, 0.2])) == (1.0, 0.5, 0.1)


def test_acceptance_step_g1(g1):
    s = sched([0.3, 0.5], [1.0, 0.5])
    assert ow.acceptance_step(g1, s, "t1", "u1") == 1
    assert ow.acceptance_step(g1, s, "t2", "u1") == 2
    # negative interior threshold delays even a zero-sacrifice type
    assert ow.acceptance_step(g1, sched([0.2, 0.5], [1.0, 0.5]), "t1", "u1") == 2
    # threshold too low for t2 altogether
    assert ow.acceptance_step(g1, sched([0.1], [1.0]), "t2", "u1") is None


def test_expected_utility_b_g1(g1):
    s = sched([0.3, 0.5], [1.0, 0.5])
    v = ow.expected_utility_B(g1, s, "u1")
    # t1 accepts at step 1 (share .3), t2 at step 2 (reached w.p. .5, share .5)
    assert v == 0.5 * (0.0 + 1.0 * (1.0 - 0.3) * 4.0) + 0.5 * (0.0 + 0.5 * (1.0 - 0.5) * 4.0)
    assert v == 1.9


def test_one_step_schedule_equals_single_offer(g1):
    v = ow.expected_utility_B(g1, sched([0.25], [1.0]), "u1")
    assert v == ow.evaluate_offer(g1, ow.Offer("a1", 0.25), "u1").expected_u_b
    assert v == 3.0


def test_expected_outcome_g1(g1):
    out = ow.expected_outcome(g1, sched([0.3, 0.5], [1.0, 0.5]), "u1")
    assert out.step_of_type == {"t1": 1, "t2": 2}
    assert out.acceptance_prob == 0.75
    assert out.expected_u_a == 2.35
    assert out.expected_u_b == 1.9
    assert out.expected_sw == 4.25


def test_simulate_schedule_matches_exact_values(g1):
    s = sched([0.3, 0.5], [1.0, 0.5])
    sim = ow.simulate_schedule(g1, s, "u1", samples=60_000, seed=9)
    exact = ow.expected_outcome(g1, s, "u1")
    assert abs(sim.acceptance_rate - exact.acceptance_prob) < 0.01
    assert abs(sim.mean_u_a - exact.expected_u_a) <= 5 * sim.ci_u_a
    assert abs(sim.mean_u_b - exact.expected_u_b) <= 5 * sim.ci_u_b
    assert abs(sim.mean_sw - exact.expected_sw) <= 5 * sim.ci_sw
    planning = ow.expected_utility_B(g1, s, "u1")
    assert abs(sim.mean_u_b_planning - planning) <= 5 * sim.ci_u_b_planning
    assert sim.ci_sw > 0.0


def test_simulate_schedule_deterministic(g1):
    s = sched([0.3, 0.5], [1.0, 0.5])
    a = ow.simulate_schedule(g1, s, "u1", samples=70_000, seed=4)
    b = ow.simulate_schedule(g1, s, "u1", samples=70_000, seed=4)
    assert a == b
    c = ow.simulate_schedule(g1, s, "u1", samples=70_000, seed=5)
    assert c.mean_sw != a.mean_sw
    with pytest.raises(ValueError):
        ow.simulate_schedule(g1, s, "u1", samples=0, seed=1)


def test_optimize_schedule_g1(g1):
    opt = ow.optimize_schedule(g1, "u1", 2)
    assert opt.schedule.gammas == (0.25, 0.625)
    assert opt.schedule.probs == (1.0, 0.0)
    assert opt.value == 3.0
    assert opt.single_offer == ow.Offer("a1", 0.25)
    assert opt.single_offer_value == 3.0
    assert not opt.null_offer
    assert opt.certified
    assert opt.certification_slack <= 1e-9
    assert opt.outcome.acceptance_prob == 1.0
    with pytest.raises(ValueError):
        ow.optimize_schedule(g1, "u1", 0)


def test_optimize_schedule_without_room_to_pad_names_n_and_the_share():
    # the best share is 1 - 2**-52; two floats lie above it, 1 - 2**-53 and 1
    s = 2**30 * (1 - 2**-52)
    game = ow.make_game(
        ["a1", "a2"], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
        [[2**31, 2**31 - s]], [[[0.0], [2**30]]],
    )
    assert ow.optimize_schedule(game, "u1", 3).schedule.gammas == (1 - 2**-52, 1 - 2**-53, 1.0)
    with pytest.raises(ValueError, match=r"n = 4 .* 0\.9999999999999998$"):
        ow.optimize_schedule(game, "u1", 4)


def test_equivalence_gap_fixtures(g1, g2):
    assert ow.equivalence_gap(g1, "u1", 2) == 0.0
    assert ow.equivalence_gap(g1, "u1", 3) == 0.0
    assert ow.equivalence_gap(g2, "u1", 2) == 0.0


def test_schedule_value_never_beats_single_offer():
    # a schedule on an action is a lottery over single offers on that action,
    # so its value cannot exceed the best single-offer value there
    rng = np.random.default_rng(0)
    for seed in range(12):
        game = ow.random_game(seed=seed)
        for tb in game.types_b:
            for action in game.actions_a:
                shares = ow.gamma_candidates(game, action, tb) + [1.0]
                target = max(
                    ow.evaluate_offer(game, ow.Offer(action, g), tb).expected_u_b
                    for g in shares
                )
                for _ in range(8):
                    pair = np.sort(rng.uniform(0.0, 1.0, size=2))
                    if pair[1] <= pair[0]:
                        continue
                    p2 = float(rng.uniform(0.0, 0.99))
                    s = ow.Schedule(action, (float(pair[0]), float(pair[1])), (1.0, p2))
                    v = ow.expected_utility_B(game, s, tb)
                    assert v <= target + 1e-9


def test_optimize_schedule_certified_on_random_games():
    for seed in range(12):
        game = ow.random_game(seed=seed)
        for tb in game.types_b:
            for n in (2, 3):
                opt = ow.optimize_schedule(game, tb, n)
                assert opt.certified, (seed, tb, n, opt.certification_slack)
                assert abs(opt.value - opt.single_offer_value) <= 1e-9
                assert len(opt.schedule.gammas) == n
                g = opt.schedule.gammas
                assert all(g[i] < g[i + 1] for i in range(n - 1))
                # the old local probe finds nothing the exact certificate misses,
                # and every schedule it probes is inside the certificate's scope
                probe_slack, neighbours = certification_probe(game, tb, opt.schedule)
                assert probe_slack <= opt.certification_slack, (seed, tb, n)
                for cand in (opt.schedule, *neighbours):
                    s = ow.s_values(cand)[1:]
                    assert all(a <= b for a, b in zip(s, s[1:])), (seed, tb, n, cand)
    # the exact certificate costs one evaluation, so ten thousand steps stay cheap
    opt = ow.optimize_schedule(ow.random_game(1), "u1", 10_000)
    assert opt.certified and len(opt.schedule.gammas) == 10_000


def test_z99_constant():
    assert ow.Z99 == 2.5758293035489004
    assert math.erf(ow.Z99 / math.sqrt(2.0)) == pytest.approx(0.99, abs=1e-12)


def test_simulation_ci_survives_large_payoff_offset():
    # A constant added to A's payoffs leaves every sacrifice, and so every
    # decision, in place; u_A and welfare shift by that constant and their
    # interval widths must not change.
    base = ow.random_game(seed=5)
    schedule = sched([0.3, 0.6, 0.9], [1.0, 0.7, 0.4], action="a3")  # accepted at steps 2-3

    def run(offset):
        game = ow.make_game(
            base.actions_a, base.actions_b,
            zip(base.types_a, base.prior_a), zip(base.types_b, base.prior_b),
            base.payoff_a + offset, base.payoff_b,
        )
        return ow.simulate_schedule(game, schedule, "u1", samples=200_000, seed=9)

    near, far = run(1.0), run(1e8)
    assert 0.0 < near.acceptance_rate == far.acceptance_rate < 1.0
    for field in ("ci_u_a", "ci_sw"):
        assert getattr(near, field) > 0.0
        assert getattr(far, field) == pytest.approx(getattr(near, field), rel=1e-6), field


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_monotone_schedule_never_beats_the_best_single_offer(seed, data):
    """A schedule whose effective thresholds are nondecreasing, on an action
    with a positive gain, is worth no more to B than her best single offer:
    its value is sum_k R_k (1 - p_{k+1}) V(S_k), a convex combination of the
    single offers (action, S_k). (Non-monotone thresholds are not covered:
    there the first-covering-step rule is not A's best response.)"""
    game = ow.random_suite(1, seed, max_types_a=12)[0]
    tb = data.draw(st.sampled_from(game.types_b))
    gaining = [a for a in game.actions_a if ow.delta_b(game, a, tb) > 0.0]
    assume(gaining)
    action = data.draw(st.sampled_from(gaining))
    shares = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True))
    gammas = sorted(shares)
    probs = data.draw(st.lists(st.floats(0.0, 0.95), min_size=len(gammas) - 1, max_size=len(gammas) - 1))
    schedule = ow.Schedule(action, gammas, (1.0, *probs))
    thresholds = ow.s_values(schedule)[1:]
    assume(all(a <= b for a, b in zip(thresholds, thresholds[1:])))
    best = ow.optimal_offer(game, tb).evaluation.expected_u_b
    value = ow.expected_utility_B(game, schedule, tb)
    assert value <= best + 1e-9
    reach, onward = ow.reach_probs(schedule), (*probs, 0.0)
    decomposed = sum(
        r * (1.0 - p) * ow.evaluate_offer(game, ow.Offer(action, s), tb).expected_u_b
        for r, p, s in zip(reach, onward, thresholds)
    )
    assert math.isclose(value, decomposed, rel_tol=1e-12)


@pytest.mark.xfail(strict=True, reason="first covering step is not A's best response on non-monotone thresholds")
def test_non_monotone_schedule_does_not_beat_the_best_single_offer():
    """A counterexample to the first-covering-step rule: the thresholds
    (0.131, -2.384, 0.585) dip, so types that should wait for step 3 are
    booked at step 1 and the schedule reads 0.1136 above the best offer."""
    game = ow.random_suite(120, 1, max_types_a=12)[119]
    assert ow.delta_b(game, "a2", "u2") > 0.0
    schedule = ow.Schedule("a2", (0.1386, 0.1424, 0.5848), (1.0, 0.666, 0.851))
    best = ow.optimal_offer(game, "u2").evaluation.expected_u_b
    assert ow.expected_utility_B(game, schedule, "u2") <= best + 1e-9
