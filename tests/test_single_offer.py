import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oneway as ow
from oneway.single_offer import VALUE_TOL


def test_restricted_types_g1(g1):
    # the types that would ever decline an action are those that decline it
    # at share 0: the ones for which it is not a selfish optimum
    assert ow.evaluate_offer(g1, ow.Offer("a1", 0.0), "u1").step.tolist() == [1, 0]
    assert ow.evaluate_offer(g1, ow.Offer("a2", 0.0), "u1").step.tolist() == [0, 1]


def test_delta_a_g1(g1):
    assert ow.delta_a(g1, "a1").tolist() == [0.0, 1.0]
    assert ow.delta_a(g1, "a2").tolist() == [1.0, 0.0]


def test_outside_option_g1(g1):
    out1 = ow.outside_option(g1, "a1", "u1")
    # only t2 declines a1; it plays a2 and B's best reply earns nothing
    assert out1.action_b == "b1"
    assert out1.payoff == 0.0
    out2 = ow.outside_option(g1, "a2", "u1")
    assert out2.payoff == 4.0


def test_outside_option_zero_mass_degenerates():
    # both types already prefer a1, so nobody would ever decline it
    game = ow.make_game(
        ["a1", "a2"], ["b1", "b2"], [("t1", 1.0)], [("u1", 1.0)],
        [[3.0, 1.0]], [[[1.0, 5.0], [0.0, 0.0]]],
    )
    out = ow.outside_option(game, "a1", "u1")
    assert out == ow.OutsideOption("b2", 5.0)
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
    assert ev.planning_u_b == ev.expected_u_b == 3.0  # every type accepts
    assert ev.expected_u_a == 2.0
    assert ev.expected_sw == 5.0
    assert ev.step.dtype == np.intp and ev.step.tolist() == [1, 1]
    assert not ev.step.flags.writeable
    assert ow.evaluate_offer(g1, ow.Offer("a1", 0.0), "u1").planning_u_b == 2.0
    assert ow.evaluate_offer(g1, ow.Offer("a1", 1.0), "u1").planning_u_b == 0.0


def test_optimal_offer_g1(g1):
    res = ow.optimal_offer(g1, "u1")
    assert not res.null_offer
    assert res.offer == ow.Offer("a1", 0.25)
    assert res.evaluation.planning_u_b == 3.0


def test_optimal_offer_g2(g2):
    res = ow.optimal_offer(g2, "u1")
    assert res.offer == ow.Offer("a1", 0.2)
    assert res.evaluation.planning_u_b == 4.0


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
    assert rep.welfare.tolist() == [6.0, 4.0]
    assert rep.poa.tolist() == [1.0, 1.0]
    assert rep.accepted.tolist() == [True, True]
    assert rep.branch_bound.tolist() == [1.25, 1.25]
    for table in (rep.accepted, rep.welfare, rep.optimal, rep.poa, rep.branch_bound):
        assert not table.flags.writeable


def test_simplified_strategy_report_past_the_float_range():
    """Every type accepts a1 at share 0, and each deal's welfare passes the
    largest float: it reads ``inf`` without a warning, and ``inf / inf``
    stays ``nan``."""
    game = ow.make_game(
        ["a1", "a2"], ["b1", "b2"], [("t1", 0.5), ("t2", 0.5)], [("u1", 1.0)],
        [[1.5e308, 1e308], [1.6e308, 0.0]], [[[1.7e308, 0.0], [1.7e308, 1.7e308]]],
    )
    rep = ow.simplified_strategy_report(game)["u1"]
    assert rep.welfare.tolist() == rep.optimal.tolist() == [math.inf, math.inf]
    assert np.isnan(rep.poa).all() and math.isnan(rep.expected_poa)


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
                    assert ev.planning_u_b == pytest.approx(total, abs=1e-9)


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
                    assert res.evaluation.planning_u_b >= ev.planning_u_b - 1e-12
            # the reported value is attained by re-evaluating the offer
            again = ow.evaluate_offer(game, res.offer, tb)
            assert again.planning_u_b == res.evaluation.planning_u_b


def test_run_single_offer_consistency():
    for game in _random_games(15):
        for tb in game.types_b:
            res = ow.optimal_offer(game, tb)
            ev = res.evaluation
            for ta in game.types_a:
                outcome = ow.run_single_offer(game, res.offer, ta, tb)
                assert outcome.payoff_a + outcome.payoff_b == outcome.welfare
                if not res.null_offer:
                    assert outcome.accepted == (ev.step[game.type_a_index(ta)] > 0)
                assert outcome.transfer >= 0.0


def test_simplified_report_bounds_hold():
    # the guarantees are upper bounds; the planning-view ratio can dip below
    # one when the fallback expectation exceeds a profile's own optimum
    for game in _random_games(30):
        for tb, rep in ow.simplified_strategy_report(game).items():
            assert rep.expected_poa > 0.0
            assert np.all(rep.poa <= rep.branch_bound + 1e-9)
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
                assert opt.evaluation.planning_u_b >= simp.evaluation.planning_u_b - VALUE_TOL
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


def test_corollary_bound_rejects_a_beta_without_a_finite_reciprocal():
    with pytest.raises(ValueError, match="beta must have a finite reciprocal, got 5e-324"):
        ow.corollary_bound(5e-324)


def _decimal_corollary_bound(beta: float) -> float:
    """(2 + 1/beta) * (1 - beta^beta / (beta+1)^(beta+1)) at 60 digits, from
    the logarithm of the power ratio; log(1 + x) and exp(x) - 1 are summed as
    series for tiny x, where 1 + x would round to 1 even at 60 digits."""

    def series(x: Decimal, coefficient) -> Decimal:
        return sum(coefficient(k) * x**k for k in range(1, 13))

    def log1p(x: Decimal) -> Decimal:
        return series(x, lambda k: Decimal((-1) ** (k + 1)) / k) if x < Decimal("1e-6") else (1 + x).ln()

    def expm1(x: Decimal) -> Decimal:
        return series(x, lambda k: 1 / Decimal(math.factorial(k))) if abs(x) < Decimal("1e-6") else x.exp() - 1

    with localcontext() as ctx:
        ctx.prec = 60
        b = Decimal(beta)
        return float((2 + 1 / b) * -expm1(-b * log1p(1 / b) - log1p(b)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(exponent=st.floats(-300.0, 300.0))
@example(exponent=-300.0).via("1e-300 read 0.0, not 691.78")
@example(exponent=-16.0).via("1e-16 read 36.64, not 37.84")
@example(exponent=20.0).via("1e20 raised OverflowError")
@example(exponent=300.0)
def test_corollary_bound_matches_a_decimal_reference(exponent):
    """The bound is accurate to a few ulps over beta in [1e-300, 1e300]: the
    power ratio neither cancels against 1 at small beta nor overflows at
    large beta."""
    beta = 10.0**exponent
    _, bound = ow.corollary_bound(beta)
    assert math.isclose(bound, _decimal_corollary_bound(beta), rel_tol=4 * sys.float_info.epsilon), beta


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
        deal = res.evaluation.step > 0
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
@given(seed=st.integers(0, 2**16), strategy=st.sampled_from([ow.optimal_offer, ow.simplified_offer]))
def test_single_offer_reveals_one_bit_of_a_type(seed, strategy):
    """The abstract's claim that the mechanism is privacy-preserving: A
    never reports her type, and B's reply and both payments depend on it
    only through whether she accepts. For each B type they are constant
    over the accepting A types and over the declining ones."""
    game = ow.random_suite(1, seed, max_types_a=8)[0]
    mech = _offer_mechanism(game, strategy)
    for k, tb in enumerate(game.types_b):
        accepted = strategy(game, tb).evaluation.step > 0
        for branch in (accepted, ~accepted):
            seen = zip(mech.action_b[branch, k], mech.payment_a[branch, k], mech.payment_b[branch, k])
            assert len(set(seen)) <= 1, (tb, accepted)


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


# Sacrifices as multiples of the gain: zero, subnormal multiples and shares
# up to 4. A quotient that overflows has its own test below.
_RATIO = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 4.0))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    ratios=st.lists(_RATIO, min_size=1, max_size=12),
    gain=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-6, 1e6)),
)
@example(ratios=[0.0, 5e-324, 1e-300, 1.0], gain=1.0)
@example(ratios=[0.0, 1e-300, 1.0, 3.0], gain=5e-324)
@example(ratios=[1.0, 2.0, 3.0], gain=0.1)
def test_minimal_shares_are_least_covering_and_rise_with_the_sacrifice(ratios, gain):
    """``_sweep`` relies on this: each share is the least float g with
    da <= g * db, so over sacrifices in ascending order (each one tied here)
    the shares never fall."""
    from oneway.single_offer import _minimal_shares

    da = np.sort(np.array(ratios + ratios)) * gain
    g = _minimal_shares(da, gain)
    assert np.all(g[1:] >= g[:-1])
    assert np.all(g * gain >= da)
    assert np.all((g == 0.0) | (np.nextafter(g, -np.inf) * gain < da))


def test_minimal_share_of_an_overflowing_quotient_is_inf():
    """A sacrifice of 1.0 against a gain of 5e-324 has no finite covering
    share: the quotient overflows to inf without a warning."""
    from oneway.single_offer import _minimal_shares

    assert _minimal_shares(np.array([1.0]), 5e-324).tolist() == [math.inf]


def test_offer_search_settles_shares_of_a_subnormal_gain():
    """A gain of 4 subnormal units rounds g * gain so coarsely that t1's
    break-even share (sacrifice 3 units) lies just above 0.625, 2**50 ulps
    below the quotient 0.75: far more than a walk down one ulp at a time
    can take."""
    game = ow.make_game(
        ["a1", "a2"], ["b1"], [("t1", 0.5), ("t2", 0.5)], [("u1", 1.0)],
        [[0.0, 1.5e-323], [1.0, 0.0]], [[[2e-323], [0.0]]],
    )
    share = math.nextafter(0.625, 1.0)
    assert ow.gamma_candidates(game, "a1", "u1") == [0.0, share]
    assert ow.acceptance_prob(game, ow.Offer("a1", share), "u1") == 1.0
    assert ow.acceptance_prob(game, ow.Offer("a1", 0.625), "u1") == 0.5
    assert ow.optimal_offer(game, "u1").offer == ow.Offer("a1", 0.0)


def test_shares_equal_np_unique_bit_for_bit():
    """``_sweep`` keeps the last of each run of equal shares itself; on every
    candidate set of a suite its shares are np.unique's array, signed zeros
    included."""
    from oneway.single_offer import _minimal_shares, _sweep, _terms

    sets = repeats = 0
    for game in ow.random_suite(50, 1):
        for action in game.actions_a:
            for tb in game.types_b:
                terms = _terms(game, action, tb)
                if terms.gain <= 0.0:
                    continue
                g = _minimal_shares(terms.sacrifice, terms.gain)
                candidates = np.concatenate(([0.0], g[g <= 1.0]))
                want = np.unique(candidates)
                got, _ = _sweep(game, terms)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (action, tb)
                sets += 1
                repeats += want.size < candidates.size
    assert sets > 100 and repeats > 0  # 331 sets, 166 with a repeated share


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_evaluator_acceptance_is_the_sweep_mass_bit_for_bit(seed):
    """A single offer's accepting types are a prefix of ``sacrifice_order``,
    and the evaluator sums the prior in that order as the sweep does, so at
    every candidate share of every positive gain the two masses are one
    float."""
    from oneway.single_offer import _sweep, _terms

    shares = 0
    for game in ow.random_suite(200, seed, max_types_a=12):
        for action in game.actions_a:
            for tb in game.types_b:
                terms = _terms(game, action, tb)
                if terms.gain <= 0.0:
                    continue
                g, mass = _sweep(game, terms)
                got = [ow.evaluate_offer(game, ow.Offer(action, x), tb).acceptance_prob for x in g.tolist()]
                assert got == mass.tolist(), (action, tb)
                shares += g.size
    assert shares > 2500  # 3,185, 3,009 and 2,861


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_simplified_share_is_the_first_best_of_the_evaluator(seed):
    """The simplified offer's share is the first (smallest) candidate
    maximizing acceptance_prob * (1 - gamma), each scored by the evaluator."""
    paid = 0
    for game in ow.random_suite(200, seed, max_types_a=12):
        for tb in game.types_b:
            offer = ow.simplified_offer(game, tb).offer
            shares = ow.gamma_candidates(game, offer.action_a, tb)
            scores = [ow.acceptance_prob(game, ow.Offer(offer.action_a, g), tb) * (1.0 - g) for g in shares]
            assert offer.gamma == shares[int(np.argmax(scores))], tb
            paid += offer.gamma > 0.0
    assert paid > 200  # 266, 264 and 249


def test_settle_holds_no_table_of_types_by_steps():
    """On 200 A types and a 10**5-step schedule, ``_settle`` allocates far
    less than one bool table of A types by steps (20 MB)."""
    import tracemalloc

    from oneway.single_offer import _settle, _terms

    game = ow.random_game(seed=1, n_types_a=200)
    terms = _terms(game, game.actions_a[0], game.types_b[0])
    rng = np.random.default_rng(0)
    thresholds, reach, shares = np.sort(rng.random(10**5)), rng.random(10**5), rng.random(10**5)
    tracemalloc.start()
    try:
        step, _, _ = _settle(terms, thresholds, reach, shares)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step.shape == (200,) and step.max() > 10**4
    assert peak < 200 * 10**5, peak
