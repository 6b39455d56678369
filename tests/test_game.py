import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneway as ow
from oneway.game import _exact_sum


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
    "selfish_a", "selfish_payoff_a", "sacrifice_a", "sacrifice_order", "prefix_mass",
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


def _rounded(terms) -> float:
    """The exact sum of ``terms``, rounded once (``Fraction`` to float)."""
    return float(sum(map(Fraction, terms), Fraction(0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    terms=st.lists(
        st.one_of(st.floats(0.0, 1e-300), st.floats(0.0, 1e300), st.sampled_from([5e-324, 1e-310, 0.1, 1e300])),
        max_size=30,
    ),
    negate=st.booleans(),
)
def test_exact_sum_is_correctly_rounded(terms, negate):
    """Subnormal and huge terms alike: the sum is rounded once, whatever the
    order, and an empty sum is 0.0."""
    terms = [-t for t in terms] if negate else terms
    want = _rounded(terms)
    assert _exact_sum(np.array(terms)) == want
    assert _exact_sum(np.array(terms[::-1])) == want


def test_exact_sum_edges():
    assert _exact_sum(np.array([])) == 0.0
    assert _exact_sum([5e-324] * 3) == 1.5e-323 == _rounded([5e-324] * 3)
    assert _exact_sum([1e308, 5e307, 1e-300]) == _rounded([1e308, 5e307, 1e-300])
    # 0.1 * 10 sums to 0.9999999999999999 one term at a time
    assert _exact_sum([0.1] * 10) == 1.0
    # a partial sum past the float range is the terms' infinity, not an error
    assert _exact_sum([1.7e308, 1.7e308]) == math.inf
    assert _exact_sum([0.0, -1.7e308, -1.7e308]) == -math.inf
    assert _exact_sum([math.inf, 1.0]) == math.inf


@st.composite
def _priors(draw, n):
    """``n`` unequal priors, some zero and some tiny, that sum to about 1."""
    weights = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-12, 1.0), st.sampled_from([5e-324, 1e-300])), min_size=n, max_size=n,
    )))
    weights[draw(st.integers(0, n - 1))] += 1.0
    return weights / weights.sum()


def _with_prior(game, prior_a, order=None) -> ow.OneWayGame:
    """``game`` with A's prior replaced and, given ``order``, A's types
    listed in that order."""
    order = np.arange(len(game.types_a)) if order is None else np.asarray(order)
    return ow.OneWayGame(
        actions_a=game.actions_a,
        actions_b=game.actions_b,
        types_a=tuple(game.types_a[i] for i in order),
        types_b=game.types_b,
        prior_a=np.asarray(prior_a)[order],
        prior_b=game.prior_b,
        payoff_a=game.payoff_a[order],
        payoff_b=game.payoff_b,
    )


@st.composite
def _unequal_games(draw):
    """A random game of 2-12 A types, with unequal priors and often tied
    payoffs (rounded to integers on some draws), and a relabelling of A's
    types."""
    n = draw(st.integers(2, 12))
    game = ow.random_game(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_actions_a=draw(st.integers(2, 4)),
        n_actions_b=draw(st.integers(1, 3)),
        n_types_a=n,
        n_types_b=draw(st.integers(1, 3)),
    )
    if draw(st.booleans()):
        game = ow.OneWayGame(game.actions_a, game.actions_b, game.types_a, game.types_b, game.prior_a,
                             game.prior_b, np.round(game.payoff_a / 3.0), np.round(game.payoff_b / 3.0))
    return _with_prior(game, draw(_priors(n))), draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_unequal_games())
def test_prefix_mass_is_fsum_of_every_prefix(case):
    game, _ = case
    table = game.prefix_mass
    assert table.shape == (len(game.types_a) + 1, len(game.actions_a))
    for ia, order in enumerate(game.sacrifice_order.T):
        prior = game.prior_a[order].tolist()
        assert table[:, ia].tolist() == [math.fsum(prior[:k]) for k in range(len(prior) + 1)]


EVALUATION = ("acceptance_prob", "delta_b", "outside", "expected_u_a", "expected_u_b", "planning_u_b", "expected_sw")


def _same_evaluation(got, want, order) -> None:
    for field in EVALUATION:
        assert getattr(got, field) == getattr(want, field), field
    assert np.array_equal(got.step, want.step[order])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_unequal_games())
def test_results_invariant_under_relabelling_a_types(case):
    """Every prior-weighted sum over A's types is correctly rounded, so
    listing A's types in another order moves no bit of any offer, evaluation,
    fallback, equilibrium or PoA value, with unequal priors."""
    game, order = case
    relabelled = _with_prior(game, game.prior_a, order)
    assert np.array_equal(relabelled.fallback_b, game.fallback_b)
    assert np.array_equal(relabelled.fallback_payoff_b, game.fallback_payoff_b)
    for tb in game.types_b:
        for search in (ow.optimal_offer, ow.simplified_offer):
            got, want = search(relabelled, tb), search(game, tb)
            assert (got.offer, got.null_offer) == (want.offer, want.null_offer), tb
            _same_evaluation(got.evaluation, want.evaluation, order)
        for action in game.actions_a:
            schedule = ow.Schedule(action, (0.1, 0.4, 0.9), (1.0, 0.5, 0.3))
            _same_evaluation(ow.expected_outcome(relabelled, schedule, tb), ow.expected_outcome(game, schedule, tb), order)
    got, want = ow.nash_outcome(relabelled), ow.nash_outcome(game)
    assert (got.action_a, got.action_b, got.expected_welfare) == (want.action_a, want.action_b, want.expected_welfare)
    got, want = ow.poa_metrics(relabelled), ow.poa_metrics(game)
    assert (got.bayes_nash_poa, got.welfare_ratio_poa) == (want.bayes_nash_poa, want.welfare_ratio_poa)
    assert np.array_equal(got.per_type_poa, want.per_type_poa[order])
    got, want = ow.simplified_strategy_report(relabelled), ow.simplified_strategy_report(game)
    assert [r.expected_poa for r in got.values()] == [r.expected_poa for r in want.values()]
