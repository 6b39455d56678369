import math
import warnings

import numpy as np
import poa_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneway as ow


def test_nash_actions_g1(g1):
    assert ow.nash_action_A(g1, "t1") == "a1"
    assert ow.nash_action_A(g1, "t2") == "a2"
    assert ow.nash_action_B(g1, "u1") == "b1"


def test_nash_action_b_uses_expected_payoff(g2):
    # against the equilibrium mix (a1 w.p. .5, a2 w.p. .5) b2 earns 2.5 > 2.0
    assert ow.nash_action_B(g2, "u1") == "b2"


def test_nash_outcome_g1(g1):
    out = ow.nash_outcome(g1)
    assert out.action_a == {"t1": "a1", "t2": "a2"}
    assert out.action_b == {"u1": "b1"}
    # .5*(2+4) + .5*(1+0)
    assert out.expected_welfare == 3.5


def test_poa_per_type_g1(g1):
    assert ow.poa_of_type(g1, ("t1", "u1")) == 1.0
    assert ow.poa_of_type(g1, ("t2", "u1")) == 4.0


def test_poa_metrics_g1(g1):
    rep = ow.poa_metrics(g1)
    assert rep.per_type_poa[0, 0] == 1.0
    assert rep.per_type_poa[1, 0] == 4.0
    assert rep.bayes_nash_poa == 2.5
    # E[opt] = .5*6 + .5*4 = 5, E[nash welfare] = 3.5
    assert rep.welfare_ratio_poa == 5.0 / 3.5
    assert not np.isinf(rep.per_type_poa).any()


def test_prop1_bounds_g1(g1):
    rep = ow.poa_metrics(g1)
    # (t1,u1): eq welfare 6, max u_B 4 -> lower 2/3; max u_A 2 -> upper 3
    assert rep.prop1_lower[0, 0] == 4.0 / 6.0
    assert rep.prop1_upper[0, 0] == 3.0
    # (t2,u1): eq welfare 1, bounds 4 and 5, and poa sits at the lower bound
    assert rep.prop1_lower[1, 0] == 4.0
    assert rep.prop1_upper[1, 0] == 5.0


@pytest.mark.parametrize(
    "payoff_a, payoff_b, expected",
    [
        # (u_A + u_B) / u_A for the upper bound passes the largest float
        ([[5e-324]], [[[1.0]]], (1.0, 1.0, math.inf)),
        # so do opt / eq for the PoA and max u_B / eq for the lower bound
        ([[5e-324, 0.0]], [[[0.0], [1.0]]], (math.inf, math.inf, math.inf)),
    ],
)
def test_subnormal_welfare_gives_inf_without_warnings(payoff_a, payoff_b, expected):
    actions = [f"a{j + 1}" for j in range(len(payoff_a[0]))]
    game = ow.make_game(actions, ["b1"], [("t1", 1.0)], [("u1", 1.0)], payoff_a, payoff_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = ow.poa_metrics(game)
    assert (rep.per_type_poa[0, 0], rep.prop1_lower[0, 0], rep.prop1_upper[0, 0]) == expected


def test_zero_welfare_conventions():
    # equilibrium welfare 0 while a positive-welfare profile exists
    game = ow.make_game(
        ["a1", "a2"], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
        [[0.0, 0.0]], [[[0.0], [3.0]]],
    )
    assert ow.poa_of_type(game, ("t1", "u1")) == math.inf
    rep = ow.poa_metrics(game)
    assert np.isinf(rep.per_type_poa).tolist() == [[True]]
    assert rep.bayes_nash_poa == math.inf

    # nothing attainable anywhere: 0/0 counts as 1
    flat = ow.make_game(
        ["a1"], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
        [[0.0]], [[[0.0]]],
    )
    assert ow.poa_of_type(flat, ("t1", "u1")) == 1.0
    frep = ow.poa_metrics(flat)
    assert frep.per_type_poa.tolist() == [[1.0]]
    # the lower bound reads 0/0 as the PoA does, not as inf above it
    assert frep.prop1_lower.tolist() == [[1.0]]
    assert frep.bayes_nash_poa == 1.0
    assert frep.welfare_ratio_poa == 1.0


def test_zero_probability_type_excluded_from_expectations():
    game = ow.make_game(
        ["a1", "a2"], ["b1"], [("t1", 1.0), ("t2", 0.0)], [("u1", 1.0)],
        [[2.0, 1.0], [0.0, 1.0]], [[[4.0], [0.0]]],
    )
    rep = ow.poa_metrics(game)
    # t2 alone is inefficient (poa 4) but carries no prior mass
    assert rep.per_type_poa[1, 0] == 4.0
    assert rep.bayes_nash_poa == 1.0
    assert rep.welfare_ratio_poa == 1.0


def _brute_poa(game):
    """Pure-python PoA enumeration mirroring the documented conventions."""
    nash_a = {}
    for ta in game.types_a:
        best, arg = None, None
        for sa in game.actions_a:
            v = game.u_a(sa, ta)
            if best is None or v > best:
                best, arg = v, sa
        nash_a[ta] = arg
    nash_b = {}
    for tb in game.types_b:
        best, arg = None, None
        for sb in game.actions_b:
            v = 0.0
            for ta, fa in zip(game.types_a, game.prior_a):
                v += float(fa) * game.u_b((nash_a[ta], sb), tb)
            if best is None or v > best:
                best, arg = v, sb
        nash_b[tb] = arg
    per = {}
    expectation = 0.0
    for ta, fa in zip(game.types_a, game.prior_a):
        for tb, fb in zip(game.types_b, game.prior_b):
            eq = game.u_a(nash_a[ta], ta) + game.u_b((nash_a[ta], nash_b[tb]), tb)
            opt = None
            for sa in game.actions_a:
                for sb in game.actions_b:
                    w = game.u_a(sa, ta) + game.u_b((sa, sb), tb)
                    if opt is None or w > opt:
                        opt = w
            if eq == 0.0:
                ratio = 1.0 if opt == 0.0 else math.inf
            else:
                ratio = opt / eq
            per[(ta, tb)] = ratio
            if float(fa) * float(fb) > 0.0:
                expectation += float(fa) * float(fb) * ratio
    return per, expectation


@pytest.mark.parametrize("seed", range(20))
def test_poa_matches_brute_enumeration(seed):
    game = ow.random_game(seed=seed, n_actions_a=4, n_actions_b=4,
                          n_types_a=4, n_types_b=4)
    per, expectation = _brute_poa(game)
    rep = ow.poa_metrics(game)
    for (ta, tb), value in per.items():
        assert rep.per_type_poa[game.type_a_index(ta), game.type_b_index(tb)] == value
    assert rep.bayes_nash_poa == expectation


@st.composite
def _games(draw):
    """Small games whose payoffs are often 0 or tied (small integers) and
    otherwise arbitrary, with zero-prior types on either side."""
    na, nb, nta, ntb = (draw(st.integers(1, 4)) for _ in range(4))
    pay = st.one_of(st.integers(0, 2).map(float), st.floats(0.0, 10.0))

    def prior(n):
        w = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
        return [x / sum(w) for x in w]

    def table(*shape):
        return np.reshape(draw(st.lists(pay, min_size=math.prod(shape), max_size=math.prod(shape))), shape)

    return ow.make_game(
        [f"a{j}" for j in range(na)], [f"b{j}" for j in range(nb)],
        zip([f"t{i}" for i in range(nta)], prior(nta)),
        zip([f"u{k}" for k in range(ntb)], prior(ntb)),
        table(nta, na), table(ntb, na, nb),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(game=_games())
def test_poa_tables_keep_the_sandwich_and_match_poa_of_type(game):
    """On every profile, lower bound <= PoA <= upper bound with plain
    comparisons, and the table cell is ``poa_of_type``'s value."""
    rep = ow.poa_metrics(game)
    for (i, k), poa in np.ndenumerate(rep.per_type_poa):
        assert rep.prop1_lower[i, k] <= poa <= rep.prop1_upper[i, k], (i, k)
        assert poa == ow.poa_of_type(game, (game.types_a[i], game.types_b[k])), (i, k)


def test_joint_max_strategy_two_approximation(g1):
    # the factor-2 guarantee is asserted; exact equality (the loss actually
    # hitting 2) is a knife-edge that random payoffs never produce, so its
    # frequency is only reported
    assert ow.joint_max_strategy(g1, ("t2", "u1")) == ow.StrategyProfile("a1", "b1")
    ties = 0
    total = 0
    for seed in range(30):
        game = ow.random_game(seed=seed)
        for ta in game.types_a:
            for tb in game.types_b:
                profile = ow.joint_max_strategy(game, (ta, tb))
                w = ow.social_welfare(game, profile, (ta, tb))
                _, opt = ow.optimal_welfare(game, (ta, tb))
                assert 2.0 * w >= opt
                total += 1
                if 2.0 * w == opt:
                    ties += 1
    print(f"two-approximation was exactly tight in {ties}/{total} profiles")


def test_poa_report_rows_shape(g1):
    table = ow.poa_report_rows(g1, ow.poa_metrics(g1))
    assert list(table) == ["type_A", "type_B", "poa", "prop1_lower", "prop1_upper"]
    rows = [list(row) for row in zip(*table.values())]
    columns, old_rows = oracle.poa_report_rows(g1, oracle.poa_metrics(g1))
    assert list(table) == columns
    assert [repr(row) for row in rows] == [repr(row) for row in old_rows]
    assert len(rows) == 4
    assert rows[0][:2] == ["t1", "u1"]
    assert rows[2][0] == "bayes_nash_poa"
    assert rows[2][2] == 2.5
    assert rows[3][0] == "welfare_ratio_poa"
