import math

import mc_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneway as ow
from interval_coverage import COVERAGE_SEEDS, ORACLE_SEEDS, miss_limit
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


def test_continuous_spec_shifted_power_law():
    """One law on [low, high]: F(x) = ((x - low) / (high - low))^beta."""
    spec = ow.ContinuousSpec(2.0, 6.0, 0.5)
    assert spec.mean() == 2.0 + 4.0 / 3.0
    assert spec.cdf(1.0) == 0.0
    assert spec.cdf(3.0) == 0.5
    assert spec.cdf(7.0) == 1.0
    assert spec.ppf(0.5) == 3.0
    assert spec.ppf(np.array([0.0, 1.0])).tolist() == [2.0, 6.0]
    for bad in ((1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0, -1.0)):
        with pytest.raises(ValueError, match="spec needs"):
            ow.ContinuousSpec(*bad)


# The uniform and power laws' own formulas, as the spec kept them when each
# was a separate kind: the one law must reproduce them bit for bit.
def _uniform_ppf(low, high, q):
    return np.multiply(q, high - low) + low


def _power_ppf(beta, scale, q):
    return np.power(q, 1.0 / beta) * scale


def _uniform_cdf(low, high, x):
    if x <= low:
        return 0.0
    if x >= high:
        return 1.0
    return (x - low) / (high - low)


def _power_cdf(beta, scale, x):
    if x <= 0.0:
        return 0.0
    if x >= scale:
        return 1.0
    return (x / scale) ** beta


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


_QS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).map(np.array)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(low=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6), q=_QS)
def test_uniform_ppf_is_the_uniform_formula(low, width, q):
    high = low + width
    spec = ow.ContinuousSpec.uniform(low, high)
    assert _bits(spec.ppf(q)) == _bits(_uniform_ppf(low, high, q))
    assert _bits(spec.ppf(q[0])) == _bits(_uniform_ppf(low, high, np.asarray(q[0])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(beta=st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(1e-2, 1e2)),
       scale=st.floats(1e-3, 1e6), q=_QS)
def test_power_ppf_is_the_power_formula(beta, scale, q):
    spec = ow.ContinuousSpec.power(beta, scale)
    assert _bits(spec.ppf(q)) == _bits(_power_ppf(beta, scale, q))
    assert _bits(spec.ppf(q[0])) == _bits(_power_ppf(beta, scale, np.asarray(q[0])))
    out = q.copy()
    assert spec.ppf(out, out=out) is out
    assert _bits(out) == _bits(_power_ppf(beta, scale, q))


# The scenarios the command line builds: example 1b's and the corollary's.
_CLI_SPECS = [
    (ow.ContinuousSpec.uniform(0.0, 100.0), lambda x: _uniform_cdf(0.0, 100.0, x), 50.0),
    *(
        (ow.ContinuousSpec.power(b, 1.0), lambda x, b=b: _power_cdf(b, 1.0, x), 1.0 * b / (b + 1.0))
        for b in (0.25, 0.5, 0.75, 1.0)
    ),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.one_of(st.floats(-1.0, 101.0), st.floats(allow_nan=False), st.sampled_from([-0.0, 0.0, 1.0, 100.0])))
def test_cli_spec_cdf_and_mean_are_the_kinds_formulas(x):
    for spec, cdf, mean in _CLI_SPECS:
        assert _bits(spec.cdf(x)) == _bits(cdf(x))
        assert _bits(spec.mean()) == _bits(mean)


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
    assert (ps.delta_a_spec.low, ps.delta_a_spec.high, ps.delta_a_spec.beta) == (0.0, 1.0, 1.0)
    assert ow.power_scenario(0.25).delta_a_spec.beta == 0.25


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
    assert ow.mc_poa([sc], samples=70_000, seed=2) == ow.mc_poa([sc], samples=70_000, seed=2)
    # every batch's folds are kept until the last has run, so the count is
    # capped where 65,536 batches hold about 58 MB
    for samples in (0, -1, 2**32 + 1, 2**63, 2**64):
        for estimator in (ow.mc_single_offer, ow.mc_poa):
            with pytest.raises(ValueError, match=r"outside \[1, 2\*\*32\]"):
                estimator([sc], samples=samples, seed=1)


def test_mc_estimators_accept_the_largest_count(monkeypatch):
    """2**32 draws are accepted and handed to the batch split whole; the
    split is stubbed to give no batches, as the draws themselves take over
    a minute."""
    totals = []

    def batch_sizes(total):
        totals.append(total)
        return []

    monkeypatch.setattr(streams, "batch_sizes", batch_sizes)
    for estimator in (analytics.mc_single_offer, analytics.mc_poa):
        assert estimator([ow.power_scenario(0.5)], samples=2**32, seed=1) == []
    assert totals == [2**32, 2**32]


def test_power_scenario_bound_holds_in_expectation():
    betas = (0.25, 0.5, 1.0)
    scenarios = [ow.power_scenario(beta) for beta in betas]
    results = ow.mc_poa(scenarios, samples=50_000, seed=7)
    for beta, sc, res in zip(betas, scenarios, results):
        _, bound = ow.corollary_bound(beta)
        assert res.mean_poa <= bound
        accept_bound, reject_bound = ow.accept_reject_poa(sc.gamma)
        assert res.max_poa <= max(accept_bound, reject_bound) + 1e-9


def test_corollary_poa_matches_its_integral():
    """E[PoA] is the acceptance times 1 plus the integral of 2 - delta
    against beta delta^(beta-1) above gamma, and the supremum is the
    declined PoA at the threshold."""
    for beta in (0.25, 0.5, 0.75, 1.0, 3.0):
        mean, supremum, acceptance = ow.corollary_poa(beta)
        gamma, _ = ow.corollary_bound(beta)
        declined = 2.0 * (1.0 - gamma**beta) - beta / (beta + 1.0) * (1.0 - gamma ** (beta + 1.0))
        assert mean == pytest.approx(acceptance + declined, rel=1e-14), beta
        assert supremum == 2.0 - gamma and acceptance == gamma**beta, beta
    assert ow.corollary_poa(1.0) == (1.125, 1.5, 0.5)
    for beta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            ow.corollary_poa(beta)


def test_corollary_bound_exceeds_the_exact_mean():
    # The smallest margin on this grid is 1.0000000026.
    for beta in np.logspace(-4.0, 4.0, 401).tolist():
        _, bound = ow.corollary_bound(beta)
        assert bound - ow.corollary_poa(beta)[0] >= 1.0 - 1e-9, beta


COROLLARY_BETAS = (0.25, 0.5, 0.75, 1.0)  # the defaults of ``examples --which corollary``


def test_mc_poa_interval_covers_the_exact_mean():
    """The package and the per-draw oracle (exact accounting), which share
    no draws, each pass one coverage check against the exact mean. 400
    seeds x 4 betas at 20,000 draws: the package misses 5 against a limit
    of 39 (the betas share each batch's stream, so their misses come
    together); at 40 seeds the oracle misses 2 against a limit of 11."""
    scenarios = [ow.power_scenario(beta) for beta in COROLLARY_BETAS]
    exact = [ow.corollary_poa(beta)[0] for beta in COROLLARY_BETAS]

    def package(seed):
        return ow.mc_poa(scenarios, 20_000, seed)

    def per_draw(seed):
        return [oracle.mc_single_offer(sc, 20_000, seed, "exact") for sc in scenarios]

    for simulate, seeds in ((package, COVERAGE_SEEDS), (per_draw, ORACLE_SEEDS)):
        misses = sum(
            abs(res.mean_poa - mean) > res.ci_poa
            for seed in seeds
            for res, mean in zip(simulate(seed), exact)
        )
        assert misses < miss_limit(len(seeds) * len(scenarios)), (simulate.__name__, misses)


def test_mc_poa_covers_the_exact_mean_at_ten_million_draws():
    """At the north star's 10^7 draws, seed 1: each default beta's 99
    percent interval covers the exact mean, the acceptance lies within its
    binomial 99 percent half-width of gamma^beta, and no draw's PoA exceeds
    the supremum by more than rounding."""
    n = 10**7
    results = ow.mc_poa([ow.power_scenario(beta) for beta in COROLLARY_BETAS], n, 1)
    for beta, res in zip(COROLLARY_BETAS, results):
        mean, supremum, acceptance = ow.corollary_poa(beta)
        assert abs(res.mean_poa - mean) <= res.ci_poa, (beta, res.mean_poa, mean, res.ci_poa)
        half_width = streams.Z99 * math.sqrt(acceptance * (1.0 - acceptance) / n)
        assert abs(res.acceptance_rate - acceptance) <= half_width, beta
        assert 1.0 <= res.max_poa <= supremum + 1e-12, beta


def test_mc_single_offer_intervals_cover_the_exact_payoffs():
    """Aggregate accounting: with p = F(T) and mu the mean sacrifice,
    E[u_a] = a_default + p (T - mu), E[u_b] = b_outside + p (delta_b - T)
    and E[welfare] = base + p (delta_b - mu). The package and the per-draw
    oracle, which share no draws, each pass one coverage check. 400 seeds x
    4 scenarios at 20,000 draws: the package misses 17, 19 and 18 against a
    limit of 39; at 40 seeds the oracle misses 0, 1 and 1 against a limit
    of 11."""
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

    def package(seed):
        return ow.mc_single_offer(scenarios, 20_000, seed)

    def per_draw(seed):
        return [oracle.mc_single_offer(sc, 20_000, seed, "aggregate") for sc in scenarios]

    for simulate, seeds in ((package, COVERAGE_SEEDS), (per_draw, ORACLE_SEEDS)):
        misses = dict.fromkeys(exact[0], 0)
        for seed in seeds:
            for res, want in zip(simulate(seed), exact):
                for field, value in want.items():
                    misses[field] += abs(getattr(res, f"mean_{field}") - value) > getattr(res, f"ci_{field}")
        assert max(misses.values()) < miss_limit(len(seeds) * len(scenarios)), (simulate.__name__, misses)


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
