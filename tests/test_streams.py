import numpy as np
import pytest

from oneway import streams


def test_same_key_reproduces():
    a = streams.stream(7, 3).uniform(size=10)
    b = streams.stream(7, 3).uniform(size=10)
    assert (a == b).all()


def test_distinct_indices_differ():
    a = streams.stream(7, 0).uniform(size=10)
    b = streams.stream(7, 1).uniform(size=10)
    assert not (a == b).all()


def test_batch_sizes():
    assert streams.batch_sizes(10, batch=4) == [4, 4, 2]
    assert streams.batch_sizes(8, batch=4) == [4, 4]
    assert streams.batch_sizes(3, batch=4) == [3]
    assert streams.batch_sizes(0, batch=4) == []
    assert sum(streams.batch_sizes(1_000_000)) == 1_000_000
    with pytest.raises(ValueError):
        streams.batch_sizes(-1)


def test_generated_games_are_valid_and_reproducible():
    import oneway as ow

    g = ow.random_game(seed=11)
    h = ow.random_game(seed=11)
    assert ow.validate(g) == []
    assert (g.payoff_a == h.payoff_a).all()
    assert (g.payoff_b == h.payoff_b).all()
    assert g.actions_a == h.actions_a
    other = ow.random_game(seed=12)
    assert not (g.payoff_a == other.payoff_a).all()
    assert np.isclose(float(g.prior_a.sum()), 1.0)


def test_random_suite_sizes_and_determinism():
    import oneway as ow

    suite1 = ow.random_suite(8, seed=5)
    suite2 = ow.random_suite(8, seed=5)
    assert len(suite1) == 8
    for a, b in zip(suite1, suite2):
        assert (a.payoff_a == b.payoff_a).all()
        assert 2 <= len(a.actions_a) <= 6
        assert 1 <= len(a.actions_b) <= 4
        assert ow.validate(a) == []
