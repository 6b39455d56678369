"""Acceptance gate: one test per headline guarantee, at its stated tolerance.

Each test here is an end-to-end check of something the package promises:
closed-form curves, simulation agreement, bound soundness on random
instances, optimizer equivalences, LP certificates, and byte-level
determinism of the command line reports. Runtime budgets are asserted
where a promise includes one.
"""

import json
import math
import time

import numpy as np
import pytest

import oneway as ow
from oneway import cli

SUITE_SEED = 20260819


def _run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report_rows(text):
    body = [ln for ln in text.splitlines() if not ln.startswith("# ")]
    return body[0].split(","), [ln.split(",") for ln in body[1:]]


@pytest.fixture(scope="module")
def suite200():
    return ow.random_suite(
        200, SUITE_SEED, max_actions_a=6, max_actions_b=6, max_types_a=6, max_types_b=6
    )


# ---------------------------------------------------------------------------
# 1. Stake sweep: piecewise closed forms, the 1.21 cap, and the Monte Carlo
#    cross-check of the x=100 point.
# ---------------------------------------------------------------------------


def test_stake_sweep_matches_piecewise_curves_and_simulation(capsys):
    started = time.perf_counter()

    code, out, _ = _run_cli(capsys, ["examples", "--which", "1b", "--sweep"])
    assert code == 0
    _, rows = _report_rows(out)
    assert len(rows) == 401  # x = 0..400 step 1

    max_poa = 0.0
    for r in rows:
        x = float(r[0])
        c_star = x / 2.0 if x <= 200.0 else 100.0
        sw = 100.0 + (c_star / 100.0) * (x - 50.0)
        opt = max(100.0, 50.0 + x)
        assert abs(float(r[1]) - c_star) <= 1e-9
        assert abs(float(r[2]) - sw) <= 1e-9
        assert abs(float(r[3]) - opt) <= 1e-9
        assert abs(float(r[4]) - opt / sw) <= 1e-9
        max_poa = max(max_poa, float(r[4]))
    assert max_poa <= 1.21
    assert max_poa >= 1.2  # the peak near x=108 is on the grid

    at_100 = ow.example1b(100.0)
    assert abs(at_100.poa - 1.2) <= 1e-9

    (mc,) = ow.mc_single_offer([ow.example1b_scenario(100.0)], 10**6, SUITE_SEED)
    assert abs(mc.poa_vs_ex_ante - 1.2) <= 0.012  # within 1% of the analytic value

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


# ---------------------------------------------------------------------------
# 2. Unit-scale curve: the peak equals its closed form; the n-competitor
#    acceptance probability approaches its large-n limit.
# ---------------------------------------------------------------------------


def test_unit_scale_peak_and_acceptance_limit():
    started = time.perf_counter()

    mu_star, peak = ow.example2_poa_max()
    closed = 4.0 * (3.0 + 2.0 * math.sqrt(10.0)) / 31.0
    assert abs(peak - closed) <= 1e-12
    assert abs(ow.example2(mu_star).poa - closed) <= 1e-10

    grid_max = max(ow.example2(m).poa for m in np.linspace(0.0, 4.0, 10_001))
    assert abs(grid_max - closed) <= 1e-6

    n = 10**6
    for c in np.linspace(0.0, 1.0, 21):
        assert abs(ow.acceptance_prob_example2(float(c), n) - c) <= 1e-5

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


# ---------------------------------------------------------------------------
# 3. Power-law guarantee: the beta=1 pair is exact, and simulated mean
#    inefficiency never exceeds the closed-form bound.
# ---------------------------------------------------------------------------


def test_power_law_bound_exact_pair_and_simulation():
    started = time.perf_counter()

    assert ow.corollary_bound(1.0) == (0.5, 2.25)

    betas = (0.25, 0.5, 0.75, 1.0)
    mcs = ow.mc_poa([ow.power_scenario(beta) for beta in betas], 10**5, SUITE_SEED)
    for beta, mc in zip(betas, mcs):
        _, bound = ow.corollary_bound(beta)
        assert mc.mean_poa <= bound, (beta, mc.mean_poa, bound)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


# ---------------------------------------------------------------------------
# 4. Simplified-offer guarantees audited on 200 random instances: the
#    expected inefficiency never exceeds its bound, and every single
#    outcome respects its accept/reject branch bound.
# ---------------------------------------------------------------------------


def test_simplified_offer_bounds_hold_on_random_instances(suite200):
    started = time.perf_counter()

    checked = 0
    for game in suite200:
        for tb, report in ow.simplified_strategy_report(game).items():
            assert report.expected_poa <= report.poa_bound + 1e-9, (tb, report)
            held = report.poa <= report.branch_bound + 1e-9
            assert held.all(), (tb, np.flatnonzero(~held))
            checked += held.size
    assert checked > 0

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


# ---------------------------------------------------------------------------
# 5. The per-profile inefficiency sandwich holds with plain comparisons on
#    the same 200 instances: lower bound <= PoA <= upper bound, no epsilon.
# ---------------------------------------------------------------------------


def test_poa_sandwich_holds_exactly(suite200):
    for game in suite200:
        report = ow.poa_metrics(game)
        for key, poa in np.ndenumerate(report.per_type_poa):
            assert report.prop1_lower[key] <= poa, (key, report.prop1_lower[key], poa)
            assert poa <= report.prop1_upper[key], (key, poa, report.prop1_upper[key])


# ---------------------------------------------------------------------------
# 6. Offer schedules buy nothing: on 100 random instances the optimized
#    multi-step schedule value matches the best single offer.
# ---------------------------------------------------------------------------


def test_schedules_match_single_offers():
    started = time.perf_counter()

    suite = ow.random_suite(100, SUITE_SEED + 1)
    for game in suite:
        for tb in game.types_b:
            for n in (2, 3):
                gap = ow.equivalence_gap(game, tb, n)
                assert gap <= 1e-6, (tb, n, gap)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget is 5min"


# ---------------------------------------------------------------------------
# 7. Independent oracles: a dense share-grid search agrees with the offer
#    optimizer, and explicit loop enumeration agrees with the equilibrium
#    metrics bit for bit.
# ---------------------------------------------------------------------------


def _grid_best_offer_value(game, type_b):
    """Two-stage brute force: 1e5-point share grid, then a local refine."""
    best = None
    for action in game.actions_a:
        db = ow.delta_b(game, action, type_b)
        if db <= 0.0:
            continue
        out = ow.outside_option(game, action, type_b)
        da = ow.delta_a(game, action)

        def value_on(gammas):
            accept = da[:, None] <= gammas[None, :] * db
            p = game.prior_a @ accept
            return out.payoff + p * (1.0 - gammas) * db

        coarse = np.linspace(0.0, 1.0, 100_000)
        v = value_on(coarse)
        i = int(np.argmax(v))
        fine = np.linspace(coarse[max(i - 1, 0)], coarse[min(i + 1, len(coarse) - 1)], 1001)
        local = max(float(np.max(value_on(fine))), float(v[i]))
        best = local if best is None else max(best, local)
    return best


def _enumerated_poa(game):
    """Equilibrium inefficiency by explicit loops, no vectorized shortcuts."""
    nash_a = []
    for ita in range(len(game.types_a)):
        besti, bestv = 0, float(game.payoff_a[ita, 0])
        for ia in range(1, len(game.actions_a)):
            v = float(game.payoff_a[ita, ia])
            if v > bestv:
                besti, bestv = ia, v
        nash_a.append(besti)
    nash_b = []
    for itb in range(len(game.types_b)):
        besti, bestv = 0, -math.inf
        for ib in range(len(game.actions_b)):
            v = 0.0
            for ita in range(len(game.types_a)):
                v += float(game.prior_a[ita]) * float(game.payoff_b[itb, nash_a[ita], ib])
            if v > bestv:
                besti, bestv = ib, v
        nash_b.append(besti)
    per = {}
    bayes = 0.0
    for ita, ta in enumerate(game.types_a):
        fa = float(game.prior_a[ita])
        for itb, tb in enumerate(game.types_b):
            fb = float(game.prior_b[itb])
            eq = float(
                game.payoff_a[ita, nash_a[ita]] + game.payoff_b[itb, nash_a[ita], nash_b[itb]]
            )
            opt = -math.inf
            for ia in range(len(game.actions_a)):
                for ib in range(len(game.actions_b)):
                    w = float(game.payoff_a[ita, ia] + game.payoff_b[itb, ia, ib])
                    if w > opt:
                        opt = w
            if eq == 0.0:
                poa = 1.0 if opt == 0.0 else math.inf
            else:
                poa = opt / eq
            per[(ta, tb)] = poa
            if fa * fb > 0.0:
                bayes += fa * fb * poa
    return per, bayes


def test_optimizer_and_metrics_match_brute_force():
    for game in ow.random_suite(
        50, SUITE_SEED + 2, max_actions_a=4, max_actions_b=3, max_types_a=4, max_types_b=3
    ):
        for tb in game.types_b:
            res = ow.optimal_offer(game, tb)
            grid = _grid_best_offer_value(game, tb)
            if res.null_offer:
                assert grid is None
            else:
                assert abs(res.evaluation.planning_u_b - grid) <= 1e-6, (tb, grid)

    for game in ow.random_suite(
        25, SUITE_SEED + 3, max_actions_a=4, max_actions_b=4, max_types_a=4, max_types_b=4
    ):
        report = ow.poa_metrics(game)
        per, bayes = _enumerated_poa(game)
        for (ta, tb), poa in per.items():
            assert report.per_type_poa[game.type_a_index(ta), game.type_b_index(tb)] == poa, (ta, tb)
        assert report.bayes_nash_poa == bayes


# ---------------------------------------------------------------------------
# 8. Trade feasibility: the easy cases are feasible, and every infeasible
#    grid in the 2..20 sweep carries a dual certificate that re-verifies.
#    The verdict trend across grid sizes is reported, not asserted.
# ---------------------------------------------------------------------------


def test_trade_feasibility_sweep_with_certificates():
    started = time.perf_counter()

    single = ow.BilateralTradeInstance(
        seller_values=[0.25], seller_probs=[1.0], buyer_values=[0.75], buyer_probs=[1.0]
    )
    res = ow.feasibility_lp(single)
    assert res.verdict == "feasible"
    assert res.mechanism is not None
    assert ow.check_properties(single, res.mechanism).all_hold

    no_ir = ow.feasibility_lp(ow.uniform_grid_instance(10), include_ir=False)
    assert no_ir.verdict == "feasible"

    trend = []
    for row in ow.refinement_sweep(range(2, 21)):
        assert row.verdict in {"feasible", "marginal", "infeasible"}
        assert row.subsidy >= 0.0
        trend.append((row.k, row.verdict, row.margin, row.subsidy))
        if row.verdict == "infeasible":
            recheck = ow.feasibility_lp(ow.uniform_grid_instance(row.k))
            assert ow.certificate_is_valid(recheck, 1e-7)
            assert recheck.certificate_residual <= 1e-7
            assert row.subsidy > 0.0
        elif row.verdict == "feasible":
            assert row.subsidy <= 1e-6

    print("grid refinement trend (k, verdict, margin, min subsidy):")
    for k, verdict, margin, subsidy in trend:
        print(f"  k={k:2d}  {verdict:10s}  margin={margin: .6f}  subsidy={subsidy:.6f}")

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget is 5min"


# ---------------------------------------------------------------------------
# 9. Determinism: every subcommand, re-run with the same seed and config,
#    produces byte-identical output.
# ---------------------------------------------------------------------------


def test_every_subcommand_is_byte_deterministic(capsys, tmp_path):
    instance = tmp_path / "game.json"
    assert cli.run(["gen", "--seed", "5", "--out", str(instance)]) == 0
    schedule = tmp_path / "schedule.json"
    schedule.write_text(
        json.dumps({"action": "a1", "gammas": [0.4, 0.6], "probs": [1.0, 0.5]}),
        encoding="utf-8",
    )
    trade = tmp_path / "trade.json"
    trade.write_text(
        json.dumps(
            {
                "seller": {"values": [0.0, 0.5], "probs": [0.5, 0.5]},
                "buyer": {"values": [0.5, 1.0], "probs": [0.5, 0.5]},
            }
        ),
        encoding="utf-8",
    )
    capsys.readouterr()

    battery = [
        ["validate", str(instance)],
        ["nash", str(instance)],
        ["poa", str(instance)],
        ["single-offer", str(instance)],
        ["single-offer", str(instance), "--offer-strategy", "simplified"],
        ["multi-offer", str(instance), "--optimize", "--n", "3"],
        ["multi-offer", str(instance), "--schedule", str(schedule), "--samples", "2000"],
        ["ms-check", "--instance", str(trade)],
        ["ms-check", "--refine", "6"],
        ["examples", "--which", "1b", "--x", "100", "--mc-samples", "5000"],
        ["examples", "--which", "1b", "--sweep", "--from", "0", "--to", "20", "--step", "1"],
        ["examples", "--which", "2", "--mu1", "1.5"],
        ["examples", "--which", "corollary", "--mc-samples", "5000"],
        ["gen", "--seed", "9"],
        ["sweep", "--param", "beta", "--from", "0.25", "--to", "1.0", "--step", "0.25"],
    ]
    for argv in battery:
        code1, out1, _ = _run_cli(capsys, argv)
        code2, out2, _ = _run_cli(capsys, argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
        assert out1, argv
