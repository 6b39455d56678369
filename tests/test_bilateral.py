import dataclasses

import numpy as np
import pytest

import oneway as ow
import trade_oracle
from oneway import bilateral


def test_instance_canonicalization():
    a = ow.BilateralTradeInstance([0.75, 0.25], [0.3, 0.7], [0.5], [1.0])
    b = ow.BilateralTradeInstance([0.25, 0.75], [0.7, 0.3], [0.5], [1.0])
    assert a == b
    assert a.seller_values == (0.25, 0.75)
    assert a.seller_probs == (0.7, 0.3)


def test_instance_validation():
    with pytest.raises(ValueError, match="seller"):
        ow.BilateralTradeInstance([], [], [0.5], [1.0])
    with pytest.raises(ValueError, match="probabilities sum"):
        ow.BilateralTradeInstance([0.5], [0.9], [0.5], [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        ow.BilateralTradeInstance([-0.5], [1.0], [0.5], [1.0])
    with pytest.raises(ValueError, match="equal-length"):
        ow.BilateralTradeInstance([0.5, 0.6], [1.0], [0.5], [1.0])


def test_uniform_grid_instance():
    inst = ow.uniform_grid_instance(2)
    assert inst.seller_values == (0.25, 0.75)
    assert inst.seller_probs == (0.5, 0.5)
    assert inst.buyer_values == (0.25, 0.75)
    inst2 = ow.uniform_grid_instance(4, low=0.0, high=100.0)
    assert inst2.seller_values == (12.5, 37.5, 62.5, 87.5)
    with pytest.raises(ValueError):
        ow.uniform_grid_instance(0)
    # 1 / k summed one term at a time falls 1.9e-12 short of 1 at this size
    big = ow.uniform_grid_instance(100_000)
    assert len(big.seller_values) == len(big.buyer_probs) == 100_000


def _prior_accepted(make, probs) -> bool:
    try:
        make(probs)
    except ValueError as err:
        assert "sum" in str(err)
        return False
    return True


def _trade_side(probs):
    return ow.BilateralTradeInstance(range(len(probs)), probs, [0.5], [1.0])


def _game_prior(probs):
    return ow.make_game(
        actions_a=["a1"],
        actions_b=["b1"],
        types_a=[(f"t{i}", p) for i, p in enumerate(probs)],
        types_b=[("u1", 1.0)],
        payoff_a=[[0.0]] * len(probs),
        payoff_b=[[[0.0]]],
    )


@pytest.mark.parametrize(
    "probs, accepted",
    [
        ([0.1] * 10, True),
        ([1e-5] * 100_000, True),
        # one term at a time, the tiny terms vanish: short by 2e-12, or exactly 1
        ([1.0 - 2e-12] + [5e-17] * 40_000, True),
        ([1.0] + [1e-16] * 20_000, False),
        ([0.5, 0.5 + 2e-12], False),
    ],
    ids=["tenths", "1e-5", "absorbed-short", "absorbed-over", "over"],
)
def test_trade_side_and_game_prior_check_their_sums_alike(probs, accepted):
    """Both checks take the correctly rounded sum, with the same tolerance."""
    assert _prior_accepted(_trade_side, probs) is accepted
    assert _prior_accepted(_game_prior, probs) is accepted


def test_efficient_allocation_strict():
    inst = ow.uniform_grid_instance(2)
    sigma = ow.efficient_allocation(inst)
    # trade only when the buyer strictly values it more; ties keep the good
    assert sigma.tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_single_pair_with_gains_is_feasible():
    inst = ow.BilateralTradeInstance([0.25], [1.0], [0.75], [1.0])
    res = ow.feasibility_lp(inst)
    assert res.verdict == "feasible"
    assert res.margin == pytest.approx(0.25, abs=1e-9)
    assert res.constraints == 2
    # the margin-maximizing price splits the surplus down the middle
    assert res.mechanism.payment_a[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert ow.check_properties(inst, res.mechanism).all_hold


def test_single_pair_without_gains_is_marginal():
    rev = ow.BilateralTradeInstance([0.75], [1.0], [0.25], [1.0])
    assert ow.feasibility_lp(rev).verdict == "marginal"
    tie = ow.BilateralTradeInstance([0.5], [1.0], [0.5], [1.0])
    assert ow.feasibility_lp(tie).verdict == "marginal"


def test_two_point_grid_feasible():
    inst = ow.uniform_grid_instance(2)
    res = ow.feasibility_lp(inst)
    assert res.verdict == "feasible"
    assert res.margin == pytest.approx(1.0 / 24.0, abs=1e-9)
    assert ow.check_properties(inst, res.mechanism).all_hold
    assert ow.min_subsidy(inst).subsidy == 0.0


def test_six_point_grid_infeasible_with_certificate():
    inst = ow.uniform_grid_instance(6)
    res = ow.feasibility_lp(inst)
    assert res.verdict == "infeasible"
    assert res.margin < -1e-7
    assert res.mechanism is None
    assert ow.certificate_is_valid(res)
    assert res.certificate_residual <= 1e-7
    assert res.certificate_value < 0.0
    assert float(np.max(res.certificate)) == pytest.approx(1.0, abs=1e-12)
    sub = ow.min_subsidy(inst)
    assert sub.subsidy > 0.0
    assert sub.subsidy == pytest.approx(0.023148148148148, abs=1e-9)
    # the subsidized mechanism keeps every property except budget balance
    rep = ow.check_properties(inst, sub.mechanism)
    assert rep.efficient and rep.incentive_compatible and rep.individually_rational
    assert not rep.budget_balanced


def test_certificate_rejected_when_tampered():
    inst = ow.uniform_grid_instance(6)
    res = ow.feasibility_lp(inst)
    broken = dataclasses.replace(res, certificate_value=1.0)
    assert not ow.certificate_is_valid(broken)
    no_cert = dataclasses.replace(res, certificate=None)
    assert not ow.certificate_is_valid(no_cert)


def test_dropping_ir_restores_feasibility():
    inst = ow.uniform_grid_instance(10)
    assert ow.feasibility_lp(inst).verdict == "infeasible"
    res = ow.feasibility_lp(inst, include_ir=False)
    assert res.verdict == "feasible"
    assert res.margin == pytest.approx(0.005, abs=1e-9)
    rep = ow.check_properties(inst, res.mechanism)
    assert rep.efficient and rep.budget_balanced and rep.incentive_compatible
    assert not rep.individually_rational


def test_unconstrained_system_is_trivially_feasible():
    inst = ow.BilateralTradeInstance([0.25], [1.0], [0.75], [1.0])
    res = ow.feasibility_lp(inst, include_ir=False)
    assert res.verdict == "feasible"
    assert res.constraints == 0


def test_to_one_way_embedding():
    inst = ow.uniform_grid_instance(2)
    game = ow.to_one_way(inst)
    assert ow.validate(game) == []
    assert game.actions_a == ("keep", "transfer")
    assert game.actions_b == ("none",)
    assert game.u_a("keep", "s1") == 0.25
    assert game.u_a("transfer", "s2") == 0.0
    assert game.u_b(("transfer", "none"), "b2") == 0.75
    assert game.u_b(("keep", "none"), "b2") == 0.0
    # welfare structure: keep earns the seller value, trade the buyer value
    _, opt = ow.optimal_welfare(game, ("s1", "b2"))
    assert opt == 0.75


def _verdicts(rep):
    return (rep.efficient, rep.budget_balanced,
            rep.incentive_compatible, rep.individually_rational)


def _both_checks(inst, mech):
    """The audit and the trade-form loop of ``trade_oracle``."""
    return ow.check_properties(inst, mech), trade_oracle.check_properties(inst, trade_oracle.trade_form(mech))


def _shifted(mech, shift):
    """``mech`` with ``shift`` added to the seller's payments."""
    return dataclasses.replace(mech, payment_a=mech.payment_a + shift)


def _flipped(mech):
    """``mech`` with the efficient trade at (s1, b3) turned off."""
    action_a = mech.action_a.copy()
    action_a[0, 2] = 0
    return dataclasses.replace(mech, action_a=action_a)


def test_representations_agree_verdict_for_verdict():
    inst = ow.uniform_grid_instance(3)
    base = ow.feasibility_lp(inst).mechanism
    variants = [base]
    # break budget balance on one cell
    variants.append(_shifted(base, np.eye(3)[0][:, None] * 0.1))
    # shift the seller's payments down uniformly: IC survives, IR does not
    variants.append(_shifted(base, -0.5))
    # flip an efficient trade off
    variants.append(_flipped(base))
    # and the subsidized mechanism for an infeasible grid
    inst6 = ow.uniform_grid_instance(6)
    sub6 = ow.min_subsidy(inst6)
    for instance, mech in [(inst, v) for v in variants] + [(inst6, sub6.mechanism)]:
        audit, loop = _both_checks(instance, mech)
        assert _verdicts(audit) == _verdicts(loop), (audit.witnesses, loop.witnesses)
        assert trade_oracle.witness_counts(audit) == trade_oracle.witness_counts(loop)


def test_violation_witnesses_name_the_problem():
    inst = ow.uniform_grid_instance(3)
    rep = ow.check_properties(inst, _shifted(ow.feasibility_lp(inst).mechanism, -0.5))
    assert not rep.all_hold
    assert any("walk-away" in w for w in rep.witnesses)
    assert any("sum to" in w for w in rep.witnesses)


def test_witnesses_print_plain_floats():
    inst = ow.uniform_grid_instance(3)
    base = ow.feasibility_lp(inst).mechanism
    for mech in (_flipped(base), _shifted(base, -0.5)):
        rep = ow.check_properties(inst, mech)
        assert rep.witnesses
        assert not [w for w in rep.witnesses if "np." in w]
    rep = ow.check_properties(inst, _flipped(base))
    # the trade is audited on its one-way embedding: seller types s1, s2, s3
    # and buyer types b1, b2, b3 in increasing order of value
    assert rep.witnesses == (
        "profile at (s1, b3) yields 0.16666666666666666 < optimum 0.8333333333333334",
        "A type s2 gains 0.07407407407407418 reporting s1",
        "B type b3 gains 0.12962962962962965 reporting b1",
        "B type b3 gains 0.2592592592592593 reporting b2",
        "B type b3 gets -0.11111111111111116 < walk-away 0.0",
    )


def test_impossibility_onset_on_uniform_grids():
    # coarse grids admit an efficient, balanced, IC and IR mechanism; the
    # five-point grid sits exactly on the boundary; finer grids do not, and
    # each carries a Farkas certificate that re-verifies
    rows = {row.k: row for row in ow.refinement_sweep(range(2, 21))}
    for k in (2, 3, 4):
        assert rows[k].verdict == "feasible" and rows[k].subsidy == 0.0
    assert rows[5].verdict == "marginal"
    for k in range(6, 21):
        assert rows[k].verdict == "infeasible", k
        assert rows[k].certificate_ok and rows[k].certificate_residual <= 1e-7
        assert rows[k].subsidy > 0.0
        assert ow.certificate_is_valid(ow.feasibility_lp(ow.uniform_grid_instance(k)))


def test_refinement_sweep_structure():
    rows = ow.refinement_sweep(range(2, 8), workers=2)
    assert [r.k for r in rows] == [2, 3, 4, 5, 6, 7]
    for row in rows:
        assert row.verdict in ("feasible", "marginal", "infeasible")
        assert row.subsidy >= 0.0
        if row.verdict == "infeasible":
            assert row.certificate_ok
            assert row.certificate_residual <= 1e-7
            assert row.subsidy > 0.0
        if row.verdict == "feasible":
            assert row.subsidy <= 1e-9
    # worker count must not change results
    serial = ow.refinement_sweep(range(2, 8), workers=1)
    assert serial == rows


def _trade_instance(seed):
    """A random trade instance with one to four values per side: small
    enough that some admit an efficient, balanced, IC and IR mechanism."""
    rng = np.random.default_rng(seed)
    ns, nb = rng.integers(1, 5, size=2)
    return ow.BilateralTradeInstance(
        rng.random(ns), rng.dirichlet(np.ones(ns)), rng.random(nb), rng.dirichlet(np.ones(nb))
    )


@pytest.mark.parametrize(
    "inst",
    [ow.uniform_grid_instance(k) for k in range(2, 9)] + [_trade_instance(seed) for seed in range(60)],
)
def test_trade_mechanisms_are_audited_tables_on_the_embedding(inst):
    # both LPs trade efficiently; the margin LP's mechanism, where it is
    # feasible, has every property, and the subsidy LP's every one but
    # budget balance
    game = ow.to_one_way(inst)
    feas, sub = ow.feasibility_lp(inst), ow.min_subsidy(inst)
    mechs = [sub.mechanism] + ([feas.mechanism] if feas.verdict == "feasible" else [])
    for mech in mechs:
        assert np.array_equal(mech.action_a, ow.efficient_allocation(inst))
        assert not mech.action_b.any()
    rep = ow.check_one_way_properties(game, sub.mechanism)
    assert rep.efficient and rep.incentive_compatible and rep.individually_rational, rep.witnesses
    if feas.verdict == "feasible":
        assert ow.check_one_way_properties(game, feas.mechanism).all_hold
        assert ow.check_properties(inst, feas.mechanism) == ow.check_one_way_properties(game, feas.mechanism)


def test_one_way_reservation_values():
    # B's walk-away in the embedding is her payoff against equilibrium play,
    # which is zero because the seller keeps the good on her own
    inst = ow.uniform_grid_instance(2)
    game = ow.to_one_way(inst)
    rep = ow.check_one_way_properties(game, ow.feasibility_lp(inst).mechanism)
    assert rep.all_hold
    out = ow.nash_outcome(game)
    assert out.action_a["s1"] == "keep"
    assert out.action_b["b1"] == "none"


def _grid_mechanism():
    inst = ow.uniform_grid_instance(3)
    return ow.to_one_way(inst), ow.feasibility_lp(inst).mechanism


@pytest.mark.parametrize("name", ["action_a", "action_b", "payment_a", "payment_b"])
def test_one_way_audit_rejects_misshapen_tables(name):
    game, om = _grid_mechanism()
    bad = dataclasses.replace(om, **{name: getattr(om, name)[:, :2]})
    with pytest.raises(ValueError, match=rf"{name} has shape \(3, 2\), expected \(3, 3\)"):
        ow.check_one_way_properties(game, bad)


@pytest.mark.parametrize(
    "name, value", [("action_a", -1), ("action_a", 2), ("action_b", -1), ("action_b", 1)]
)
def test_one_way_audit_rejects_indices_out_of_range(name, value):
    # a negative index would otherwise wrap to the last action silently
    game, om = _grid_mechanism()
    table = getattr(om, name).copy()
    table[1, 2] = value
    n = len(game.actions_a if name == "action_a" else game.actions_b)
    with pytest.raises(ValueError, match=rf"{name} must hold action indices in \[0, {n}\)"):
        ow.check_one_way_properties(game, dataclasses.replace(om, **{name: table}))


def test_feasibility_row_makes_two_solves_per_instance(monkeypatch):
    """One feasibility LP and one subsidy LP per grid, whatever the verdict:
    an infeasible verdict's certificate is checked without another solve."""
    solves = []
    solve = bilateral.linprog

    def counted(*args, **kwargs):
        solves.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(bilateral, "linprog", counted)
    seen = {}
    for k in (2, 5, 6, 7, 30):
        before = len(solves)
        seen[k] = (bilateral.feasibility_row(ow.uniform_grid_instance(k), k).verdict, len(solves) - before)
    assert seen == {
        2: ("feasible", 2),
        5: ("marginal", 2),
        6: ("infeasible", 2),
        7: ("infeasible", 2),
        30: ("infeasible", 2),
    }
