import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneway as ow
from oneway.single_offer import VALUE_TOL


def test_restricted_types_g1(g1):
    assert ow.outside_option(g1, "a1", "u1").restricted_types == ("t2",)
    assert ow.outside_option(g1, "a2", "u1").restricted_types == ("t1",)


def test_delta_a_g1(g1):
    assert ow.delta_a(g1, "a1").tolist() == [0.0, 1.0]
    assert ow.delta_a(g1, "a2").tolist() == [1.0, 0.0]


def test_outside_option_g1(g1):
    out1 = ow.outside_option(g1, "a1", "u1")
    # only t2 declines a1; it plays a2 and B's best reply earns nothing
    assert out1.action_b == "b1"
    assert out1.payoff == 0.0
    assert out1.restricted_types == ("t2",)
    assert out1.restricted_mass == 0.5
    out2 = ow.outside_option(g1, "a2", "u1")
    assert out2.payoff == 4.0


def test_outside_option_zero_mass_degenerates():
    # both types already prefer a1, so nobody would ever decline it
    game = ow.make_game(
        ["a1", "a2"], ["b1", "b2"], [("t1", 1.0)], [("u1", 1.0)],
        [[3.0, 1.0]], [[[1.0, 5.0], [0.0, 0.0]]],
    )
    out = ow.outside_option(game, "a1", "u1")
    assert out.restricted_types == ()
    assert out.restricted_mass == 0.0
    assert out.action_b == "b2"
    assert out.payoff == 5.0
    assert ow.delta_b(game, "a1", "u1") == 0.0


def test_delta_b_g1(g1):
    assert ow.delta_b(g1, "a1", "u1") == 4.0
    assert ow.delta_b(g1, "a2", "u1") == -4.0


def test_acceptance_prob_g1(g1):
    assert ow.acceptance_prob(g1, ow.Offer("a1", 0.25), "u1") == 1.0
    assert ow.acceptance_prob(g1, ow.Offer("a1", 0.20), "u1") == 0.5
    assert ow.acceptance_prob(g1, ow.Offer("a1", 0.0), "u1") == 0.5


def test_indifference_accepts(g1):
    # t2's sacrifice is exactly gamma * delta_b at gamma 0.25
    outcome = ow.run_single_offer(g1, ow.Offer("a1", 0.25), "t2", "u1")
    assert outcome.accepted


def test_gamma_candidates_g1(g1):
    assert ow.gamma_candidates(g1, "a1", "u1") == [0.0, 0.25]
    assert ow.gamma_candidates(g1, "a2", "u1") == [0.0]


def test_evaluate_offer_g1(g1):
    ev = ow.evaluate_offer(g1, ow.Offer("a1", 0.25), "u1")
    assert ev.acceptance_prob == 1.0
    assert ev.delta_b == 4.0
    assert ev.expected_u_b == 3.0
    assert ev.expected_u_a == 2.0
    assert ev.expected_sw == 5.0
    assert ev.accepting_types == ("t1", "t2")
    assert ow.evaluate_offer(g1, ow.Offer("a1", 0.0), "u1").expected_u_b == 2.0
    assert ow.evaluate_offer(g1, ow.Offer("a1", 1.0), "u1").expected_u_b == 0.0


def test_optimal_offer_g1(g1):
    res = ow.optimal_offer(g1, "u1")
    assert not res.null_offer
    assert res.offer == ow.Offer("a1", 0.25)
    assert res.evaluation.expected_u_b == 3.0


def test_optimal_offer_g2(g2):
    res = ow.optimal_offer(g2, "u1")
    assert res.offer == ow.Offer("a1", 0.2)
    assert res.evaluation.expected_u_b == 4.0


def test_simplified_offer_g1(g1):
    res = ow.simplified_offer(g1, "u1")
    assert res.offer == ow.Offer("a1", 0.25)
    assert res.evaluation.acceptance_prob == 1.0


def test_null_offer_path():
    game = ow.make_game(
        ["a1", "a2"], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
        [[2.0, 1.0]], [[[4.0], [1.0]]],
    )
    res = ow.optimal_offer(game, "u1")
    assert res.null_offer
    assert res.offer == ow.Offer("a1", 0.0)
    # the evaluation is plain equilibrium play
    assert res.evaluation.expected_u_a == 2.0
    assert res.evaluation.expected_u_b == 4.0
    assert res.evaluation.expected_sw == 6.0


def test_run_single_offer_g1(g1):
    acc = ow.run_single_offer(g1, ow.Offer("a1", 0.25), "t2", "u1")
    assert acc.accepted
    assert acc.profile == ow.StrategyProfile("a1", "b1")
    assert acc.transfer == 1.0
    assert acc.payoff_a == 1.0
    assert acc.payoff_b == 3.0
    assert acc.welfare == 4.0
    rej = ow.run_single_offer(g1, ow.Offer("a1", 0.20), "t2", "u1")
    assert not rej.accepted
    assert rej.profile == ow.StrategyProfile("a2", "b1")
    assert rej.transfer == 0.0
    assert rej.welfare == 1.0


def test_accept_reject_poa_values():
    assert ow.accept_reject_poa(0.25) == (1.25, 5.0)
    assert ow.accept_reject_poa(1.0) == (2.0, 2.0)
    accept, reject = ow.accept_reject_poa(0.0)
    assert accept == 1.0
    assert reject == math.inf


def test_theorem_bound_values():
    assert ow.theorem_bound(1.0, 1.0) == 2.0
    assert ow.theorem_bound(0.25, 1.0) == 1.25
    assert ow.theorem_bound(0.5, 0.5) == 2.25
    assert ow.theorem_bound(0.0, 0.7) == math.inf


def test_bayes_poa_bound_g1(g1):
    assert ow.bayes_poa_bound(g1, "u1") == 1.25


def test_corollary_bound_unit_beta_exact():
    assert ow.corollary_bound(1.0) == (0.5, 2.25)


def test_corollary_bound_monotone_and_validates():
    prev = None
    for beta in np.linspace(0.1, 3.0, 30):
        gamma, bound = ow.corollary_bound(float(beta))
        assert 0.0 < gamma < 1.0
        assert bound > 1.0
        if prev is not None:
            assert bound < prev
        prev = bound
    with pytest.raises(ValueError):
        ow.corollary_bound(0.0)
    with pytest.raises(ValueError):
        ow.corollary_bound(-1.0)


def test_simplified_strategy_report_g1(g1):
    rep = ow.simplified_strategy_report(g1)["u1"]
    assert rep.offer == ow.Offer("a1", 0.25)
    assert rep.acceptance_prob == 1.0
    assert rep.poa_bound == 1.25
    assert rep.expected_poa == 1.0
    by_type = {r.type_a: r for r in rep.records}
    assert by_type["t1"].welfare == 6.0 and by_type["t1"].poa == 1.0
    assert by_type["t2"].welfare == 4.0 and by_type["t2"].poa == 1.0
    assert all(r.accepted for r in rep.records)
    assert all(r.branch_bound == 1.25 for r in rep.records)


# -- invariants on random instances ----------------------------------------

def _random_games(count, **kwargs):
    return [ow.random_game(seed=s, **kwargs) for s in range(count)]


def test_acceptance_prob_monotone_in_gamma():
    for game in _random_games(20):
        for tb in game.types_b:
            for action in game.actions_a:
                if ow.delta_b(game, action, tb) <= 0.0:
                    continue
                probs = [
                    ow.acceptance_prob(game, ow.Offer(action, g), tb)
                    for g in np.linspace(0.0, 1.0, 21)
                ]
                assert all(q >= p for p, q in zip(probs, probs[1:]))


def test_expected_u_b_matches_per_type_planning_sum():
    for game in _random_games(15):
        for tb in game.types_b:
            for action in game.actions_a:
                for gamma in (0.0, 0.3, 0.7, 1.0):
                    ev = ow.evaluate_offer(game, ow.Offer(action, gamma), tb)
                    da = ow.delta_a(game, action)
                    total = 0.0
                    for i in range(len(game.types_a)):
                        f = float(game.prior_a[i])
                        if da[i] <= gamma * ev.delta_b:
                            total += f * (ev.outside.payoff + (1.0 - gamma) * ev.delta_b)
                        else:
                            total += f * ev.outside.payoff
                    assert ev.expected_u_b == pytest.approx(total, abs=1e-9)


def test_optimal_offer_dominates_gamma_grid():
    for game in _random_games(15):
        for tb in game.types_b:
            res = ow.optimal_offer(game, tb)
            if res.null_offer:
                continue
            for action in game.actions_a:
                if ow.delta_b(game, action, tb) <= 0.0:
                    continue
                for g in np.linspace(0.0, 1.0, 201):
                    ev = ow.evaluate_offer(game, ow.Offer(action, float(g)), tb)
                    assert res.evaluation.expected_u_b >= ev.expected_u_b - 1e-12
            # the reported value is attained by re-evaluating the offer
            again = ow.evaluate_offer(game, res.offer, tb)
            assert again.expected_u_b == res.evaluation.expected_u_b


def test_run_single_offer_consistency():
    for game in _random_games(15):
        for tb in game.types_b:
            res = ow.optimal_offer(game, tb)
            ev = res.evaluation
            for ta in game.types_a:
                outcome = ow.run_single_offer(game, res.offer, ta, tb)
                assert outcome.payoff_a + outcome.payoff_b == outcome.welfare
                if not res.null_offer:
                    assert outcome.accepted == (ta in ev.accepting_types)
                assert outcome.transfer >= 0.0


def test_simplified_report_bounds_hold():
    # the guarantees are upper bounds; the planning-view ratio can dip below
    # one when the fallback expectation exceeds a profile's own optimum
    for game in _random_games(30):
        for tb, rep in ow.simplified_strategy_report(game).items():
            assert rep.expected_poa > 0.0
            for record in rep.records:
                assert record.poa <= record.branch_bound + 1e-9
            if math.isfinite(rep.poa_bound):
                assert rep.expected_poa <= rep.poa_bound + 1e-9


def test_gamma_candidates_sit_exactly_on_kinks():
    # every positive candidate is the smallest float capturing its type: one
    # ulp lower and somebody walks away (regression for a ratio round-trip
    # that used to make offers miss their own break-even type)
    for game in _random_games(25):
        for tb in game.types_b:
            for action in game.actions_a:
                if ow.delta_b(game, action, tb) <= 0.0:
                    continue
                for g in ow.gamma_candidates(game, action, tb):
                    p_here = ow.acceptance_prob(game, ow.Offer(action, g), tb)
                    if g == 0.0:
                        continue
                    below = math.nextafter(g, -math.inf)
                    p_below = ow.acceptance_prob(game, ow.Offer(action, below), tb)
                    assert p_below < p_here


def test_optimal_offer_welfare_vs_simplified_logged():
    """Welfare comparison between B's selfish optimum and the simplified rule.

    B's own utility at the optimum provably dominates whenever the
    simplified action is in the optimizer's search space (positive gain),
    and that part is asserted. The analogous claim for social welfare is
    not an invariant of this model: the optimum maximizes B's cut, not the
    pie, and random instances do produce cases where the simplified offer
    yields the larger pie (roughly 6 in 100 draws). Those are counted and
    printed, not failed on.
    """
    welfare_losses = []
    checks = 0
    for i, game in enumerate(_random_games(120, n_actions_a=4, n_actions_b=3,
                                           n_types_a=4, n_types_b=2)):
        for tb in game.types_b:
            opt = ow.optimal_offer(game, tb)
            simp = ow.simplified_offer(game, tb)
            if not opt.null_offer and ow.delta_b(game, simp.offer.action_a, tb) > 0.0:
                # up to VALUE_TOL may be traded away by the stable tie-break
                assert opt.evaluation.expected_u_b >= simp.evaluation.expected_u_b - VALUE_TOL
            checks += 1
            if opt.evaluation.expected_sw < simp.evaluation.expected_sw - 1e-9:
                welfare_losses.append(
                    (i, tb, opt.evaluation.expected_sw, simp.evaluation.expected_sw)
                )
    assert checks == 240
    print(f"selfish optimum trailed simplified welfare in {len(welfare_losses)}"
          f"/{checks} cases")
    for row in welfare_losses[:5]:
        print("  seed {} type {}: optimal E[SW] {:.4f} < simplified {:.4f}".format(*row))


def test_value_tol_is_small():
    assert VALUE_TOL == 1e-9


@pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
def test_corollary_bound_rejects_non_finite_and_non_positive_beta(beta):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        ow.corollary_bound(beta)


def _offer_mechanism(game, strategy):
    """The single offer as a table mechanism, one column per B type: the
    accepting types of A play the offered action, B replies with her best
    response and pays the share of her gain; the others play their selfish
    optimum against the fallback reply, and nothing is paid."""
    shape = (len(game.types_a), len(game.types_b))
    act = np.repeat(np.argmax(game.payoff_a, axis=1)[:, None], shape[1], axis=1)
    reply = np.zeros(shape, dtype=np.intp)
    pay = np.zeros(shape)
    for k, tb in enumerate(game.types_b):
        res = strategy(game, tb)
        a = res.offer.action_a
        deal = np.isin(game.types_a, res.evaluation.accepting_types)
        reply[:, k] = game.action_b_index(res.evaluation.outside.action_b)
        act[deal, k] = game.action_a_index(a)
        reply[deal, k] = game.action_b_index(ow.best_response_B(game, a, tb))
        pay[deal, k] = res.offer.gamma * ow.delta_b(game, a, tb)
    return ow.OneWayMechanism(act, reply, pay, -pay)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), strategy=st.sampled_from([ow.optimal_offer, ow.simplified_offer]))
def test_single_offer_is_a_side_ic_ex_post_ir_and_budget_balanced(seed, strategy):
    """The abstract's claims for the single offer, on A's side: it is
    budget-balanced, no A type gains by misreporting or by walking away,
    and every A type does at least as well as selfish play in every cell.
    B's side is not claimed: her interim IC and IR can fail in realised
    payoffs, because she plans around the fallback value rather than what
    a rejecting type's selfish play pays her."""
    game = ow.random_suite(1, seed, max_types_a=8)[0]
    mech = _offer_mechanism(game, strategy)
    rep = ow.check_one_way_properties(game, mech)
    assert rep.budget_balanced
    assert not [w for w in rep.witnesses if w.startswith("A type")]
    rows = np.arange(len(game.types_a))[:, None]
    realised = game.payoff_a[rows, mech.action_a] + mech.payment_a
    assert np.all(realised >= np.max(game.payoff_a, axis=1)[:, None] - 1e-9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16))
def test_simplified_offer_meets_its_theorem_bound(seed):
    """The simplified offer's expected PoA (planning view) is at most the
    guarantee ((gamma + 1) / gamma) * (1 - P (1 - gamma)), in every B type."""
    game = ow.random_suite(1, seed, max_types_a=10)[0]
    for tb, report in ow.simplified_strategy_report(game).items():
        assert report.expected_poa <= report.poa_bound, (seed, tb)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(beta=st.floats(0.01, 20.0))
def test_corollary_bound_is_the_theorem_bound_at_the_tuned_share(beta):
    """With acceptance probability gamma**beta, the corollary's share
    beta / (beta + 1) maximizes B's retained mass gamma**beta * (1 - gamma),
    and its bound is the theorem's bound at that share."""
    gamma_star, bound = ow.corollary_bound(beta)
    assert math.isclose(gamma_star, beta / (beta + 1.0), rel_tol=1e-12)
    assert math.isclose(bound, ow.theorem_bound(gamma_star, gamma_star**beta), rel_tol=1e-12)
    grid = np.linspace(0.0, 1.0, 20_001)
    assert np.all(grid**beta * (1.0 - grid) <= gamma_star**beta * (1.0 - gamma_star))
