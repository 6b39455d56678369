import math
from fractions import Fraction

import numpy as np
import pytest

import oneway as ow
from oneway import analytics, closed_form, streams


def test_continuous_spec_uniform():
    spec = ow.ContinuousSpec.uniform(0.0, 100.0)
    assert spec.mean() == 50.0
    assert spec.cdf(-5.0) == 0.0
    assert spec.cdf(25.0) == 0.25
    assert spec.cdf(150.0) == 1.0
    assert spec.ppf(0.25) == 25.0
    qs = np.linspace(0.0, 1.0, 11)
    back = [spec.cdf(float(v)) for v in spec.ppf(qs)]
    assert back == pytest.approx(qs.tolist(), abs=1e-12)
    with pytest.raises(ValueError):
        ow.ContinuousSpec.uniform(1.0, 1.0)


def test_continuous_spec_power():
    spec = ow.ContinuousSpec.power(2.0, 1.0)
    assert spec.mean() == pytest.approx(2.0 / 3.0)
    assert spec.cdf(1.0) == 1.0
    assert spec.cdf(0.5) == 0.25
    assert spec.ppf(0.25) == pytest.approx(0.5)
    # beta = 1 collapses to uniform on [0, scale]
    flat = ow.ContinuousSpec.power(1.0, 1.0)
    assert float(flat.ppf(0.3)) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        ow.ContinuousSpec.power(0.0, 1.0)
    with pytest.raises(ValueError):
        ow.ContinuousSpec.power(1.0, -2.0)


@pytest.mark.parametrize("kind", ["normal", "Uniform", ""])
def test_continuous_spec_rejects_unknown_kinds(kind):
    with pytest.raises(ValueError, match="kind must be 'uniform' or 'power'"):
        ow.ContinuousSpec(kind, 0.0, 2.0)


def test_spec_sampling_matches_cdf():
    # inverse-transform sampling, as the Monte Carlo batches draw
    spec = ow.ContinuousSpec.power(0.5, 1.0)
    q = streams.stream(3, 0).random(50_000)
    draws = spec.ppf(q, out=q)
    assert float(draws.min()) >= 0.0
    assert float(draws.max()) <= 1.0
    # empirical CDF at a few points, 4-sigma slack
    for x in (0.2, 0.5, 0.8):
        emp = float(np.mean(draws <= x))
        sd = math.sqrt(spec.cdf(x) * (1.0 - spec.cdf(x)) / 50_000)
        assert abs(emp - spec.cdf(x)) <= 4.0 * sd


def discretize(spec, k):
    """k quantile midpoints of ``spec`` with equal weights 1/k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    qs = np.array([(i + 0.5) / k for i in range(k)])
    values = np.atleast_1d(spec.ppf(qs))
    return tuple(float(v) for v in values), (1.0 / k,) * k


def scenario_game(scenario, k):
    """A scenario as a finite game with k A types, one per quantile
    midpoint: action "propose" costs the type its sacrifice and raises B by
    delta_b over the outside value; action "default" is A's selfish play."""
    values, weights = discretize(scenario.delta_a_spec, k)
    if min(scenario.a_default - d for d in values) < 0.0:
        raise ValueError("scenario sacrifices exceed the default payoff; shift a_default up")
    return ow.make_game(
        actions_a=["propose", "default"],
        actions_b=["reply"],
        types_a=[(f"d{i + 1}", weights[i]) for i in range(k)],
        types_b=[("b1", 1.0)],
        payoff_a=[[scenario.a_default - d, scenario.a_default] for d in values],
        payoff_b=[[[scenario.b_outside + scenario.delta_b], [scenario.b_outside]]],
    )


def aggregate_accounting_welfare(game, offer, type_b):
    """Expected welfare of an offer with the mean sacrifice booked against
    accepted trades (the closed-form curves' convention)."""
    p = ow.acceptance_prob(game, offer, type_b)
    e_ua_nash = float(game.prior_a @ game.selfish_payoff_a)
    e_da = float(game.prior_a @ ow.delta_a(game, offer.action_a))
    fallback = ow.outside_option(game, offer.action_a, type_b).payoff
    return e_ua_nash + fallback + p * (ow.delta_b(game, offer.action_a, type_b) - e_da)


def test_discretize():
    spec = ow.ContinuousSpec.uniform(0.0, 100.0)
    assert discretize(spec, 2) == ((25.0, 75.0), (0.5, 0.5))
    assert discretize(spec, 1) == ((50.0,), (1.0,))
    values, weights = discretize(ow.ContinuousSpec.power(1.0, 1.0), 4)
    assert values == (0.125, 0.375, 0.625, 0.875)
    assert weights == (0.25,) * 4
    with pytest.raises(ValueError):
        discretize(spec, 0)


def test_example_curve_key_points():
    pt = ow.example1b(100.0)
    assert pt.threshold == 50.0
    assert pt.expected_welfare == 125.0
    assert pt.optimal_welfare == 150.0
    assert pt.poa == 1.2
    assert ow.example1b(0.0).poa == 1.0
    # large stakes: the threshold caps and inefficiency vanishes
    top = ow.example1b(400.0)
    assert top.threshold == 100.0
    assert top.expected_welfare == 450.0
    assert top.poa == 1.0
    # the two branches meet at the cap
    assert ow.example1b(200.0).threshold == 100.0
    assert ow.example1b(200.0).expected_welfare == 100.0 + 1.0 * 150.0
    with pytest.raises(ValueError):
        ow.example1b(-1.0)


def test_example_curve_sweep_peak():
    best = max((ow.example1b(float(x)).poa, x) for x in range(0, 401))
    assert 1.2 <= best[0] <= 1.21
    assert 100 < best[1] < 120


def test_no_payment_poa():
    assert ow.example1b_no_payment_poa(150.0) == 2.0
    assert ow.example1b_no_payment_poa(0.0) == 1.0
    assert ow.example1b_no_payment_poa(50.0) == 1.0
    assert ow.example1b_no_payment_poa(400.0) == 4.5


def test_unit_scale_curve_matches_rescaled_curve():
    assert ow.example2(1.0).poa == pytest.approx(1.2, abs=1e-15)
    for mu in np.linspace(0.0, 4.0, 41):
        big = ow.example1b(100.0 * float(mu))
        small = ow.example2(float(mu))
        assert big.poa == pytest.approx(small.poa, abs=1e-12)


def test_curve_peak_closed_form_against_numeric_search():
    mu_star, value = ow.example2_poa_max()
    assert mu_star == pytest.approx((math.sqrt(10.0) - 1.0) / 2.0, abs=0.0)
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda m: -ow.example2(m).poa, bounds=(0.5, 2.0), method="bounded",
        options={"xatol": 1e-12},
    )
    assert res.x == pytest.approx(mu_star, abs=1e-7)
    assert -res.fun == pytest.approx(value, abs=1e-10)
    assert ow.example2(mu_star).poa == pytest.approx(value, rel=1e-15)


def test_acceptance_prob_limit():
    # closed form at n = 2 is one minus the miss probability squared
    for c in (0.0, 0.3, 0.7, 1.0):
        assert ow.acceptance_prob_example2(c, 2) == pytest.approx(1.0 - (1.0 - c) ** 2)
    for c in (0.1, 0.5, 0.9):
        assert abs(ow.acceptance_prob_example2(c, 10**6) - c) <= 1e-5
    assert ow.acceptance_prob_example2(0.0, 100) == 0.0
    assert ow.acceptance_prob_example2(1.0, 100) == 1.0
    with pytest.raises(ValueError):
        ow.acceptance_prob_example2(1.5, 10)
    with pytest.raises(ValueError):
        ow.acceptance_prob_example2(0.5, 1)


def test_scenario_validation():
    spec = ow.ContinuousSpec.uniform(0.0, 1.0)
    with pytest.raises(ValueError, match="delta_b"):
        ow.SingleOfferScenario(spec, -1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="gamma"):
        ow.SingleOfferScenario(spec, 1.0, 1.0, 0.0, 1.5)
    with pytest.raises(ValueError, match="default welfare"):
        ow.SingleOfferScenario(spec, 1.0, 0.0, 0.0, 0.5)


_UNIT = ow.ContinuousSpec.uniform(0.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name, make",
    [
        ("beta", lambda v: ow.ContinuousSpec.power(v, 1.0)),
        ("high", lambda v: ow.ContinuousSpec.power(1.0, v)),
        ("low", lambda v: ow.ContinuousSpec.uniform(v, 1.0)),
        ("high", lambda v: ow.ContinuousSpec.uniform(0.0, v)),
        ("delta_b", lambda v: ow.SingleOfferScenario(_UNIT, v, 1.0, 0.0, 0.5)),
        ("a_default", lambda v: ow.SingleOfferScenario(_UNIT, 1.0, v, 0.0, 0.5)),
        ("b_outside", lambda v: ow.SingleOfferScenario(_UNIT, 1.0, 1.0, v, 0.5)),
    ],
    ids=["power-beta", "power-scale", "uniform-low", "uniform-high", "delta_b", "a_default", "b_outside"],
)
def test_non_finite_parameters_are_rejected(name, make, value):
    """A NaN or infinite parameter would make every Monte Carlo estimate
    NaN; it is refused when the spec or scenario is built."""
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        make(value)


def test_example_scenarios():
    sc = ow.example1b_scenario(100.0)
    assert sc.gamma == 0.5
    assert sc.delta_b == 100.0
    assert sc.delta_a_spec.mean() == 50.0
    assert ow.example1b_scenario(400.0).gamma == 0.25
    ps = ow.power_scenario(1.0)
    assert ps.gamma == 0.5
    assert ps.a_default == 1.0
    assert ps.delta_a_spec.kind == "power"


def test_scenario_game_structure():
    game = scenario_game(ow.example1b_scenario(100.0), 2)
    assert game.actions_a == ("propose", "default")
    assert game.types_a == ("d1", "d2")
    assert game.u_a("propose", "d1") == 75.0
    assert game.u_a("default", "d2") == 100.0
    assert game.u_b(("propose", "reply"), "b1") == 100.0
    assert ow.delta_b(game, "propose", "b1") == 100.0
    # sacrifices above the default payoff are rejected outright
    big = ow.SingleOfferScenario(
        ow.ContinuousSpec.uniform(0.0, 10.0), 1.0, 2.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="exceed"):
        scenario_game(big, 4)


def test_discretized_offer_matches_curve():
    # with a fine grid, the discrete engine lands on the curve's threshold
    # and its aggregate-accounting welfare reproduces the closed form
    game = scenario_game(ow.example1b_scenario(100.0), 200)
    res = ow.optimal_offer(game, "b1")
    assert not res.null_offer
    assert res.offer.action_a == "propose"
    assert abs(res.offer.gamma * 100.0 - 50.0) <= 0.5
    agg = aggregate_accounting_welfare(game, res.offer, "b1")
    assert agg == pytest.approx(125.0, abs=1e-9)


def test_aggregate_accounting_on_full_acceptance(g1):
    # everyone accepts, so both accountings agree with the exact evaluation
    ev = ow.evaluate_offer(g1, ow.Offer("a1", 0.25), "u1")
    agg = aggregate_accounting_welfare(g1, ow.Offer("a1", 0.25), "u1")
    assert ev.acceptance_prob == 1.0
    assert agg == ev.expected_sw == 5.0


def test_mc_single_offer_aggregate_matches_curve():
    sc = ow.example1b_scenario(100.0)
    (res,) = ow.mc_single_offer([sc], samples=200_000, seed=11)
    assert abs(res.acceptance_rate - 0.5) < 0.005
    assert abs(res.mean_sw - 125.0) <= 5.0 * res.ci_sw
    assert abs(res.poa_vs_ex_ante - 1.2) < 0.01
    assert res.ci_sw > 0.0


def test_mc_single_offer_exact_per_draw_bounds():
    sc = ow.example1b_scenario(100.0)
    (poa,) = ow.mc_poa([sc], samples=100_000, seed=11)
    accept_bound, reject_bound = ow.accept_reject_poa(sc.gamma)
    assert poa.max_poa <= max(accept_bound, reject_bound) + 1e-9
    assert poa.mean_poa >= 1.0
    # the threshold and the coin accept with the same probability F(T)
    (res,) = ow.mc_single_offer([sc], samples=100_000, seed=11)
    assert abs(poa.acceptance_rate - res.acceptance_rate) < 0.01


def test_mc_single_offer_deterministic():
    sc = ow.power_scenario(0.5)
    a = ow.mc_single_offer([sc], samples=70_000, seed=2)
    b = ow.mc_single_offer([sc], samples=70_000, seed=2)
    assert a == b
    c = ow.mc_single_offer([sc], samples=70_000, seed=3)
    assert c[0].mean_sw != a[0].mean_sw
    with pytest.raises(ValueError):
        ow.mc_single_offer([sc], samples=0, seed=1)
    assert ow.mc_poa([sc], samples=70_000, seed=2) == ow.mc_poa([sc], samples=70_000, seed=2)
    with pytest.raises(ValueError):
        ow.mc_poa([sc], samples=0, seed=1)


def test_power_scenario_bound_holds_in_expectation():
    betas = (0.25, 0.5, 1.0)
    scenarios = [ow.power_scenario(beta) for beta in betas]
    results = ow.mc_poa(scenarios, samples=50_000, seed=7)
    for beta, sc, res in zip(betas, scenarios, results):
        _, bound = ow.corollary_bound(beta)
        assert res.mean_poa <= bound
        accept_bound, reject_bound = ow.accept_reject_poa(sc.gamma)
        assert res.max_poa <= max(accept_bound, reject_bound) + 1e-9


def _corollary_mean(beta):
    """Exact E[PoA] of ``power_scenario(beta)``, 2 - g - g^beta + g^(beta+2)
    with g = beta / (beta + 1), written with ``expm1`` so that 1 - g^beta
    does not cancel at small beta."""
    g = beta / (beta + 1.0)
    return (1.0 - g) - math.expm1(beta * math.log(g)) + g ** (beta + 2.0)


def test_corollary_bound_exceeds_the_exact_mean():
    # The smallest margin on this grid is 1.0000000026.
    for beta in np.logspace(-4.0, 4.0, 401).tolist():
        _, bound = ow.corollary_bound(beta)
        assert bound - _corollary_mean(beta) >= 1.0 - 1e-9, beta


def _miss_limit(trials, alarm=1e-6):
    """The fewest misses of a 99 percent interval in ``trials`` independent
    tries whose binomial tail probability is below ``alarm``, in exact
    rationals: 39 for 1,600 tries."""
    p = Fraction(1, 100)
    below = Fraction(0)
    for m in range(trials + 1):
        if 1 - below < alarm:
            return m
        below += math.comb(trials, m) * p**m * (1 - p) ** (trials - m)
    raise AssertionError("no limit")


COVERAGE_SEEDS = range(400)


def test_mc_poa_interval_covers_the_exact_mean():
    # 400 seeds x 4 betas at 20,000 draws: 13 misses against a limit of 39.
    betas = (0.25, 0.5, 0.75, 1.0)
    scenarios = [ow.power_scenario(beta) for beta in betas]
    misses = 0
    for seed in COVERAGE_SEEDS:
        for beta, res in zip(betas, ow.mc_poa(scenarios, 20_000, seed)):
            misses += abs(res.mean_poa - _corollary_mean(beta)) > res.ci_poa
    assert misses < _miss_limit(len(COVERAGE_SEEDS) * len(betas)), misses


def test_mc_single_offer_intervals_cover_the_exact_payoffs():
    # Aggregate accounting: with p = F(T) and mu the mean sacrifice,
    # E[u_a] = a_default + p (T - mu), E[u_b] = b_outside + p (delta_b - T)
    # and E[welfare] = base + p (delta_b - mu). 400 seeds x 4 scenarios at
    # 20,000 draws: 16, 12 and 23 misses against a limit of 39.
    scenarios = [
        ow.example1b_scenario(100.0),
        ow.example1b_scenario(300.0),
        ow.power_scenario(0.5),
        ow.SingleOfferScenario(ow.ContinuousSpec.uniform(2.0, 7.0), 9.0, 10.0, 1.5, 0.6),
    ]
    exact = []
    for sc in scenarios:
        t = sc.gamma * sc.delta_b
        p, mu = sc.delta_a_spec.cdf(t), sc.delta_a_spec.mean()
        exact.append({
            "u_a": sc.a_default + p * (t - mu),
            "u_b": sc.b_outside + p * (sc.delta_b - t),
            "sw": sc.a_default + sc.b_outside + p * (sc.delta_b - mu),
        })
    misses = dict.fromkeys(exact[0], 0)
    for seed in COVERAGE_SEEDS:
        for res, want in zip(ow.mc_single_offer(scenarios, 20_000, seed), exact):
            for field, value in want.items():
                misses[field] += abs(getattr(res, f"mean_{field}") - value) > getattr(res, f"ci_{field}")
    limit = _miss_limit(len(COVERAGE_SEEDS) * len(scenarios))
    assert max(misses.values()) < limit, misses


def test_z99_reexport():
    assert analytics.Z99 == ow.Z99


def test_mc_ci_survives_large_payoff_offset():
    # Shifting A's default payoff moves u_A and welfare by a constant, so
    # their interval widths must not change; raw sums of squares at 1e8
    # cancel to a zero width.
    def run(offset):
        sc = ow.SingleOfferScenario(
            ow.ContinuousSpec.uniform(0.0, 1.0), delta_b=1.0, a_default=offset,
            b_outside=0.0, gamma=0.5,
        )
        (res,) = ow.mc_single_offer([sc], samples=200_000, seed=5)
        return res

    near, far = run(1.0), run(1e8)
    assert near.acceptance_rate == far.acceptance_rate
    for field in ("ci_u_a", "ci_sw"):
        assert getattr(near, field) > 0.0
        assert getattr(far, field) == pytest.approx(getattr(near, field), rel=1e-6), field


@pytest.mark.parametrize("samples", [10, 200_001])
@pytest.mark.parametrize("accounting", ["exact", "aggregate"])
def test_mc_means_survive_payoffs_near_the_largest_float(accounting, samples):
    # At x = 1e308 every draw's welfare is finite but ten of them sum to
    # inf; means folded as means stay finite, and so PoA stays at least 1.
    # Each estimator runs in its own accounting: the payoffs
    # (``mc_single_offer``) in aggregate, the per-draw PoA (``mc_poa``) in
    # exact.
    sc = ow.example1b_scenario(1e308)
    with np.errstate(over="raise"):
        if accounting == "aggregate":
            (res,) = ow.mc_single_offer([sc], samples=samples, seed=1)
        else:
            (res,) = ow.mc_poa([sc], samples=samples, seed=1)
    assert res.acceptance_rate == 1.0
    if accounting == "aggregate":
        for field in ("mean_u_a", "mean_u_b", "mean_sw", "ci_sw"):
            assert math.isfinite(getattr(res, field)), field
        assert res.mean_sw > 1e307
        assert res.poa_vs_ex_ante >= 1.0
    else:
        assert math.isfinite(res.mean_poa)
        assert res.mean_poa >= 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize(
    "fn,name",
    [
        (closed_form.example1b, "x"),
        (closed_form.example1b_no_payment_poa, "x"),
        (analytics.example1b_scenario, "x"),
        (closed_form.example2, "mu1"),
    ],
)
def test_worked_examples_reject_non_finite_stakes(fn, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
        fn(value)
