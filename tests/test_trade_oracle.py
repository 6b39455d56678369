"""The interim trade LPs and table audits against the loops they replace.

``trade_oracle`` keeps the original builders over ex-post transfers. Both
forms must give the same verdicts, constraint counts, margins and minimum
deficits; every certificate read from the interim LP's duals must be a
Farkas certificate for the dense ex-post system, checked here on the dense
matrix itself rather than through ``certificate_residual``. It also keeps
the per-type-pair audit loops, on the trade form and on the one-way
embedding, which must reach the audit's verdicts; the one-way loop must also
give its witnesses, and the trade-form loop as many per property.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneway as ow
from oneway.bilateral import CERT_TOL
import trade_oracle

VALUE_TOL = 1e-9


def _random_instance(seed: int) -> ow.BilateralTradeInstance:
    rng = np.random.default_rng(seed)
    ns, nb = rng.integers(1, 21, size=2)
    return ow.BilateralTradeInstance(
        rng.random(ns), rng.dirichlet(np.ones(ns)), rng.random(nb), rng.dirichlet(np.ones(nb))
    )


def _assert_dense_certificate(inst, res, include_ir):
    A, b = trade_oracle._constraint_system(inst, include_ir=include_ir)
    y = res.certificate
    assert y.shape == (A.shape[0],)
    assert np.all(y >= 0.0)
    assert float(np.max(np.abs(A.T @ y))) <= CERT_TOL
    assert float(b @ y) < 0.0


def _assert_feasibility_agrees(inst, include_ir=True):
    res = ow.feasibility_lp(inst, include_ir=include_ir)
    dense = trade_oracle.feasibility_lp(inst, include_ir=include_ir)
    assert res.verdict == dense.verdict
    assert res.constraints == dense.constraints
    assert res.margin == pytest.approx(dense.margin, abs=VALUE_TOL)
    if res.verdict == "infeasible":
        assert ow.certificate_is_valid(res)
        _assert_dense_certificate(inst, res, include_ir)
    else:
        rep = ow.check_properties(inst, res.mechanism)
        assert rep.efficient and rep.budget_balanced
        if res.verdict == "feasible":
            assert rep.incentive_compatible
            assert rep.individually_rational or not include_ir


def _assert_subsidy_agrees(inst):
    sub = ow.min_subsidy(inst)
    dense = trade_oracle.min_subsidy(inst)
    assert sub.raw_min_deficit == pytest.approx(dense.raw_min_deficit, abs=VALUE_TOL)
    assert sub.subsidy == pytest.approx(dense.subsidy, abs=VALUE_TOL)
    mech = sub.mechanism
    assert float(np.max(mech.payment_a + mech.payment_b)) <= sub.raw_min_deficit + VALUE_TOL
    rep = ow.check_properties(inst, mech)
    assert rep.efficient and rep.incentive_compatible and rep.individually_rational


@pytest.mark.parametrize("k", range(2, 26))
def test_uniform_grid_matches_dense_oracle(k):
    inst = ow.uniform_grid_instance(k)
    _assert_feasibility_agrees(inst)
    _assert_subsidy_agrees(inst)


@pytest.mark.parametrize("seed", range(200))
def test_random_instance_matches_dense_oracle(seed):
    inst = _random_instance(seed)
    _assert_feasibility_agrees(inst)
    _assert_subsidy_agrees(inst)


def test_certificate_residual_matches_dense_product():
    inst = _random_instance(3)
    res = ow.feasibility_lp(inst)
    assert res.verdict == "infeasible"
    A, b = trade_oracle._constraint_system(inst)
    dense = float(np.max(np.abs(A.T @ res.certificate)))
    assert res.certificate_residual == pytest.approx(dense, abs=1e-15)
    assert res.certificate_value == pytest.approx(float(b @ res.certificate), abs=1e-15)


# Small grids with ties in value and types of probability zero: weights are
# small integers, so equal values and zero weights are both common.
_side = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 3)), min_size=1, max_size=6
).filter(lambda pairs: any(w for _, w in pairs))


def _side_args(pairs):
    total = sum(w for _, w in pairs)
    return [v / 8.0 for v, _ in pairs], [w / total for _, w in pairs]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seller=_side, buyer=_side, include_ir=st.booleans())
def test_interim_and_dense_verdicts_agree(seller, buyer, include_ir):
    inst = ow.BilateralTradeInstance(*_side_args(seller), *_side_args(buyer))
    _assert_feasibility_agrees(inst, include_ir)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seller=_side, buyer=_side)
def test_adjacent_ic_rows_imply_every_ic_row(seller, buyer):
    """``min_subsidy`` keeps only the IC rows between neighbouring values.
    Its optimum's interim transfers must satisfy every row of the full
    interim system, ties in value and types of probability zero included,
    and its deficit must be the dense LP's."""
    inst = ow.BilateralTradeInstance(*_side_args(seller), *_side_args(buyer))
    _assert_subsidy_agrees(inst)
    mech = ow.min_subsidy(inst).mechanism
    f1, f2 = np.asarray(inst.seller_probs), np.asarray(inst.buyer_probs)
    z = np.concatenate([mech.payment_a @ f2, -(f1 @ mech.payment_b)])
    A, b = ow.bilateral._interim_system(inst)
    assert float(np.max(A[:, :-1] @ z - b)) <= 1e-9


def _verdicts(rep):
    return (rep.efficient, rep.budget_balanced, rep.incentive_compatible, rep.individually_rational)


_NUMBER = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+|-?inf|nan")


def _assert_same_witnesses(tables, loop):
    """The one-way audit adds its interim sums in another order than the
    loops, so its numbers may differ in the last bits (at most ~20 terms of
    size <= 100 here, so well inside 1e-12); the witnesses themselves and
    their order may not."""
    assert [_NUMBER.sub("#", w) for w in tables] == [_NUMBER.sub("#", w) for w in loop]
    got = [float(x) for w in tables for x in _NUMBER.findall(w)]
    want = [float(x) for w in loop for x in _NUMBER.findall(w)]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _mechanism(inst, kind, seed):
    """One of four mechanisms on ``inst``: the margin LP's (or, where there
    is none, the subsidy LP's), the subsidy LP's, the subsidy LP's with the
    seller's payments shifted down, or that one with random trades flipped
    and noise on the seller's payments."""
    base = ow.min_subsidy(inst).mechanism
    if kind == "feasible":
        return ow.feasibility_lp(inst).mechanism or base
    if kind == "subsidy":
        return base
    if kind == "shifted":
        return dataclasses.replace(base, payment_a=base.payment_a - 0.25)
    rng = np.random.default_rng(seed)
    flips = rng.random(base.action_a.shape) < 0.3
    noise = rng.normal(0.0, 0.05, base.payment_a.shape)
    return dataclasses.replace(
        base, action_a=np.where(flips, 1 - base.action_a, base.action_a), payment_a=base.payment_a + noise
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    seller=_side,
    buyer=_side,
    kind=st.sampled_from(["feasible", "subsidy", "shifted", "perturbed"]),
    seed=st.integers(0, 2**16),
)
def test_audits_match_loop_oracle(seller, buyer, kind, seed):
    inst = ow.BilateralTradeInstance(*_side_args(seller), *_side_args(buyer))
    mech = _mechanism(inst, kind, seed)
    audit = ow.check_properties(inst, mech)
    trade = trade_oracle.check_properties(inst, trade_oracle.trade_form(mech))
    assert _verdicts(audit) == _verdicts(trade)
    assert trade_oracle.witness_counts(audit) == trade_oracle.witness_counts(trade)
    loop = trade_oracle.check_one_way_properties(ow.to_one_way(inst), mech)
    assert _verdicts(loop) == _verdicts(audit)
    _assert_same_witnesses(audit.witnesses, loop.witnesses)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    game_seed=st.integers(0, 10_000),
    types=st.tuples(st.integers(1, 6), st.integers(1, 5)),
    seed=st.integers(0, 2**16),
    balanced=st.booleans(),
)
def test_one_way_audit_matches_loop_oracle_on_random_games(game_seed, types, seed, balanced):
    game = ow.random_game(seed=game_seed, n_types_a=types[0], n_types_b=types[1])
    rng = np.random.default_rng(seed)
    shape = (len(game.types_a), len(game.types_b))
    pay_a = rng.normal(size=shape)
    om = ow.OneWayMechanism(
        rng.integers(len(game.actions_a), size=shape),
        rng.integers(len(game.actions_b), size=shape),
        pay_a,
        -pay_a if balanced else rng.normal(size=shape),
    )
    tables = ow.check_one_way_properties(game, om)
    loop = trade_oracle.check_one_way_properties(game, om)
    assert _verdicts(tables) == _verdicts(loop)
    _assert_same_witnesses(tables.witnesses, loop.witnesses)
