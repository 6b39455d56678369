import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oneway as ow


def test_make_game_basic_lookups(g1):
    assert g1.actions_a == ("a1", "a2")
    assert g1.actions_b == ("b1",)
    assert g1.types_a == ("t1", "t2")
    assert g1.types_b == ("u1",)
    assert g1.u_a("a1", "t1") == 2.0
    assert g1.u_a("a2", "t2") == 1.0
    assert g1.u_b(("a1", "b1"), "u1") == 4.0
    assert g1.u_b(ow.StrategyProfile("a2", "b1"), "u1") == 0.0


def test_unknown_identifiers_raise(g1):
    with pytest.raises(KeyError, match="unknown A action"):
        g1.action_a_index("a9")
    with pytest.raises(KeyError, match="unknown B action"):
        g1.action_b_index("zz")
    with pytest.raises(KeyError, match="unknown A type"):
        g1.type_a_index("t9")
    with pytest.raises(KeyError, match="unknown B type"):
        g1.type_b_index("u9")


def test_payoff_arrays_are_read_only(g1):
    with pytest.raises(ValueError):
        g1.payoff_a[0, 0] = 99.0
    with pytest.raises(ValueError):
        g1.prior_a[0] = 0.7


def test_validate_rejects_bad_inputs():
    with pytest.raises(ValueError, match="prior_a sums to"):
        ow.make_game(
            ["a1"], ["b1"], [("t1", 0.6), ("t2", 0.6)], [("u1", 1.0)],
            [[1.0], [1.0]], [[[1.0]]],
        )
    with pytest.raises(ValueError, match="negative or non-finite"):
        ow.make_game(
            ["a1"], ["b1"], [("t1", -0.5), ("t2", 1.5)], [("u1", 1.0)],
            [[1.0], [1.0]], [[[1.0]]],
        )
    with pytest.raises(ValueError, match="duplicate identifiers"):
        ow.make_game(
            ["a1", "a1"], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
            [[1.0, 2.0]], [[[1.0], [1.0]]],
        )
    with pytest.raises(ValueError, match="payoff_a has shape"):
        ow.make_game(
            ["a1", "a2"], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
            [[1.0]], [[[1.0], [1.0]]],
        )
    with pytest.raises(ValueError, match="payoff_b has shape"):
        ow.make_game(
            ["a1"], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
            [[1.0]], [[[1.0, 2.0]]],
        )
    with pytest.raises(ValueError, match="non-negative money"):
        ow.make_game(
            ["a1"], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
            [[-1.0]], [[[1.0]]],
        )
    with pytest.raises(ValueError, match="non-finite"):
        ow.make_game(
            ["a1"], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
            [[float("nan")]], [[[1.0]]],
        )
    with pytest.raises(ValueError, match="is empty"):
        ow.make_game(
            [], ["b1"], [("t1", 1.0)], [("u1", 1.0)],
            [[]], [[[]]],
        )


def test_validate_on_valid_game_is_empty(g1):
    assert ow.validate(g1) == []


def test_best_response_lowest_index_tie():
    game = ow.make_game(
        ["a1"], ["b1", "b2", "b3"], [("t1", 1.0)], [("u1", 1.0)],
        [[1.0]], [[[3.0, 3.0, 1.0]]],
    )
    assert ow.best_response_B(game, "a1", "u1") == "b1"


def test_best_response_picks_max(g2):
    assert ow.best_response_B(g2, "a1", "u1") == "b2"
    assert ow.best_response_B(g2, "a2", "u1") == "b1"


TABLES = (
    "selfish_a", "selfish_payoff_a", "sacrifice_a", "sacrifice_order",
    "reply_b", "nash_b", "fallback_b", "fallback_payoff_b",
)


def test_no_payment_tables_g2(g2):
    # t1 prefers a1 (2 vs 1), t2 prefers a2 (1 vs 0); against that mix b2
    # earns 2.5 > 2.0, and against a2 both replies tie at 0
    assert g2.selfish_a.tolist() == [0, 1]
    assert g2.selfish_payoff_a.tolist() == [2.0, 1.0]
    assert g2.sacrifice_a.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert g2.sacrifice_order.tolist() == [[0, 1], [1, 0]]
    assert g2.reply_b.tolist() == [[1, 0]]
    assert g2.nash_b.tolist() == [1]
    # declining a1 leaves t2 on a2, where both replies earn 0; declining a2
    # leaves t1 on a1, where b2 earns 5
    assert g2.fallback_b.tolist() == [[0, 1]]
    assert g2.fallback_payoff_b.tolist() == [[0.0, 5.0]]


def test_no_payment_tables_are_cached_read_only_and_column_contiguous():
    game = ow.random_game(seed=3, n_actions_a=4, n_types_a=5)
    for name in TABLES:
        table = getattr(game, name)
        assert getattr(game, name) is table
        assert not table.flags.writeable
    assert all(game.sacrifice_a[:, j].flags.c_contiguous for j in range(4))


def test_no_payment_tables_agree_across_threads():
    """First use from more threads than cores at once (``cached_property``
    takes no lock from Python 3.12 on) hands every thread the same tables."""

    def tables(game):
        return {name: getattr(game, name).tolist() for name in TABLES}

    expected = tables(ow.random_game(seed=5, n_actions_a=6, n_types_a=40, n_types_b=6))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            game = ow.random_game(seed=5, n_actions_a=6, n_types_a=40, n_types_b=6)
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(lambda _: tables(game), range(8), timeout=60))
            assert all(s == expected for s in seen)
    finally:
        sys.setswitchinterval(old)


def test_no_payment_tables_break_ties_to_the_lowest_index():
    game = ow.make_game(
        ["a1", "a2", "a3"], ["b1", "b2"], [("t1", 0.5), ("t2", 0.5)], [("u1", 1.0)],
        [[1.0, 3.0, 3.0], [2.0, 2.0, 0.0]], [[[1.0, 1.0], [0.0, 2.0], [2.0, 0.0]]],
    )
    assert game.selfish_a.tolist() == [1, 0]
    # both types sacrifice 0 for a2: the sort keeps them in type order
    assert game.sacrifice_order.tolist() == [[1, 0, 0], [0, 1, 1]]
    assert game.reply_b.tolist() == [[0, 1, 0]]
    # against the selfish map (a2, a1), b1 earns 0.5 in expectation and b2 1.5
    assert game.nash_b.tolist() == [1]


def test_social_welfare_is_payoff_sum(g1):
    assert ow.social_welfare(g1, ("a1", "b1"), ("t1", "u1")) == 6.0
    assert ow.social_welfare(g1, ("a2", "b1"), ("t2", "u1")) == 1.0


def test_optimal_welfare_hand_values(g1):
    profile, value = ow.optimal_welfare(g1, ("t2", "u1"))
    assert profile == ow.StrategyProfile("a1", "b1")
    assert value == 4.0
    profile, value = ow.optimal_welfare(g1, ("t1", "u1"))
    assert profile == ow.StrategyProfile("a1", "b1")
    assert value == 6.0


def _brute_optimal(game, ta, tb):
    # independent pure-python maximization, first profile wins ties
    best = None
    best_profile = None
    for sa in game.actions_a:
        for sb in game.actions_b:
            w = game.u_a(sa, ta) + game.u_b((sa, sb), tb)
            if best is None or w > best:
                best = w
                best_profile = (sa, sb)
    return best_profile, best


def test_optimal_welfare_matches_brute_force_on_random_games():
    for seed in range(25):
        game = ow.random_game(seed=seed, n_actions_a=4, n_actions_b=3,
                              n_types_a=3, n_types_b=2)
        for ta in game.types_a:
            for tb in game.types_b:
                profile, value = ow.optimal_welfare(game, (ta, tb))
                bprofile, bvalue = _brute_optimal(game, ta, tb)
                assert value == bvalue
                assert tuple(profile) == bprofile


def test_game_arrays_are_float64(g1):
    assert g1.payoff_a.dtype == np.float64
    assert g1.payoff_b.dtype == np.float64
    assert g1.prior_a.dtype == np.float64
