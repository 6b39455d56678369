import hashlib
import math
import os
import threading

import numpy as np
import pytest

from oneway import analytics, cli, generate, streams


def test_same_key_reproduces():
    a = streams.stream(7, 3).uniform(size=10)
    b = streams.stream(7, 3).uniform(size=10)
    assert (a == b).all()


def test_distinct_indices_differ():
    a = streams.stream(7, 0).uniform(size=10)
    b = streams.stream(7, 1).uniform(size=10)
    assert not (a == b).all()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_seeds_outside_64_bits_are_rejected(seed):
    # masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 + 3 would alias 3
    with pytest.raises(ValueError, match=r"is outside \[0, 2\*\*64\)"):
        streams.stream(seed)


def test_64_bit_seeds_are_distinct():
    draws = [streams.stream(seed).uniform(size=4) for seed in (0, 3, 2**63, 2**64 - 1)]
    assert len({d.tobytes() for d in draws}) == 4


@pytest.mark.parametrize(
    ("seed", "index"), [(0, 0), (1, 0), (1, 152), (7, 3), (2**63, 1), (2**64 - 1, 0), (2**64 - 1, 458)]
)
def test_batch_stream_is_the_seeds_spawned_pcg64dxsm_child(seed, index):
    child = np.random.SeedSequence(seed).spawn(index + 1)[index]
    want = np.random.Generator(np.random.PCG64DXSM(child)).random(8)
    assert streams.stream(seed, index).random(8).tobytes() == want.tobytes()


# sha256 of ``oneway gen --seed 7 --types-a 200 --types-b 200``'s stdout, and
# of the payoff_a then payoff_b bytes of ``random_suite(50, 1)``, game by game.
# Every benchmark input and pinned suite is a generated game, so a change to
# the instance streams, or a Monte Carlo stream change that reaches them, must
# fail here rather than silently move them.
GEN_DIGEST = "7a04eab6d13007254f0fbda2cbc672f614704ca55d0422ff7a984330b8cbf013"
SUITE_DIGEST = "430dad1fdc036cbbca710f0a07b635d45f3d6a8ad212fae722df7fd19cfcfd1e"


def test_generated_instances_keep_their_bytes(capsys):
    assert cli.run(["gen", "--seed", "7", "--types-a", "200", "--types-b", "200"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GEN_DIGEST
    digest = hashlib.sha256()
    for game in generate.random_suite(50, 1):
        digest.update(game.payoff_a.tobytes())
        digest.update(game.payoff_b.tobytes())
    assert digest.hexdigest() == SUITE_DIGEST


def test_batch_sizes():
    size = streams.BATCH_SIZE
    assert streams.batch_sizes(0) == []
    assert streams.batch_sizes(1) == [1]
    assert streams.batch_sizes(size) == [size]
    assert streams.batch_sizes(size + 1) == [size, 1]
    assert streams.batch_sizes(2 * size + 5) == [size, size, 5]
    with pytest.raises(ValueError):
        streams.batch_sizes(-1)


# Worst errors of ``Moments`` against the two-pass ``math.fsum`` reference,
# measured with the fold of means over 600 random splits of up to 4 x 70,000
# values: 7.9e-16 of |mean| + standard error for the means (offset 0), and
# 1.2e-10 relative for the standard errors (offset 1e8; 3.0e-16 at offset
# 0). The fold of sums it replaced gave 6.1e-16 and 2.0e-9 over 3,400
# splits. The tolerances sit a few times above those. The measurement
# covers splits whose batches mostly hold many values; 1,500 random splits
# of the shape drawn here (1 to 6 batches of 1 to 3,000 values) gave at
# most 6.3e-10 at offset 1e8. It does not cover splits of few values at
# offset 1e8, where each merge's difference of two batch means carries an
# ulp of 1e8 (about 1.5e-8) against a spread of 1. Over random splits of 2
# to 6 batches, the standard error's worst relative error was 4.1e-8 for 2
# to 9 values in all (3,000 splits), 1.1e-8 for 30 to 49 (3,000), 8.2e-9
# for 50 to 99 (33,000) and 6.5e-9 for 100 to 199 (33,000): the region
# above SE_TOL ends near 50 values. So at offset 1e8 the splits drawn for
# SE_TOL hold at least SCOPE_VALUES values, and a strict xfail runs splits
# below it.
MEAN_TOL = 2e-15
SE_TOL = 1e-8
SCOPE_VALUES = 100


class _RawMoments:
    """The fold ``Moments`` replaced: raw sums and sums of squares, here
    rebuilt from each batch's centred statistics."""

    def __init__(self) -> None:
        self.count = 0
        self.sum = self.squares = 0.0

    def merge(self, size: int, mean: float, m2: float) -> None:
        self.count += size
        self.sum += size * mean
        self.squares += m2 + size * mean * mean

    @property
    def mean(self) -> float:
        return self.sum / self.count

    @property
    def m2(self) -> float:
        return self.squares - self.sum * self.mean


def _data(batches: list[int], seed: int, offset: float) -> np.ndarray:
    """Two columns, with spreads 1 and 100 around ``offset``."""
    return offset + np.random.default_rng(seed).standard_normal((2, sum(batches))) * [[1.0], [100.0]]


def _check_fold(fold, batches: list[int], seed: int, offset: float) -> None:
    """Fold each column of ``_data`` on its own, each batch reduced by the
    simulators' group fold (every value of weight 1.0) and merged as the
    simulators do, and compare with a two-pass ``math.fsum`` reference."""
    for column in _data(batches, seed, offset):
        values = column.tolist()
        moments = fold()
        for batch in np.split(column.copy(), np.cumsum(batches)[:-1]):
            moments.merge(*analytics._group_moments(batch, np.ones(batch.size), batch.size))
        mean, se = moments.mean, np.sqrt(moments.m2 / moments.count / moments.count)
        ref_mean = math.fsum(values) / len(values)
        ref_se = math.sqrt(math.fsum((v - ref_mean) ** 2 for v in values) / len(values) / len(values))
        assert abs(mean - ref_mean) <= MEAN_TOL * (abs(ref_mean) + ref_se)
        assert abs(se - ref_se) <= SE_TOL * ref_se  # also fails on NaN


def _splits(offset: float) -> list[tuple[list[int], int]]:
    """150 (batches, seed) pairs from a generator seeded by the offset: 1 to
    6 batches of 1 to 3,000 values, at least two values in all and, at
    offset 1e8, at least SCOPE_VALUES."""
    rng = np.random.default_rng(int(offset))
    least = SCOPE_VALUES if offset >= 1e8 else 2
    splits = []
    while len(splits) < 150:
        batches = rng.integers(1, 3_001, size=rng.integers(1, 7)).tolist()
        seed = int(rng.integers(2**32))
        if sum(batches) >= least:
            splits.append((batches, seed))
    return splits


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_moments_match_two_pass_reference(offset):
    _check_fold(streams.Moments, [3, 2_500], 0, offset)  # a small batch, then a larger one
    for batches, seed in _splits(offset):
        _check_fold(streams.Moments, batches, seed, offset)


def test_moments_mean_after_a_one_value_leading_batch():
    """A merge moves the mean by a share of the difference of the two
    means, and that step rounds relative to its own size. Stepping from the
    one-value batch to the larger one would move nearly the whole
    difference, as wide as the data's spread, and put this mean 4.5e-15 of
    |mean| + standard error off, above MEAN_TOL; stepping from the larger
    side moves 1/1402 of it. ``mc_single_offer`` merges its accepted draws'
    batches, which hold one value when acceptance is rare."""
    _check_fold(streams.Moments, [1, 1401], 1, 0.0)


@pytest.mark.xfail(strict=True, reason="batch means at offset 1e8 carry an ulp of 1e8 against a spread of 1")
def test_moments_standard_error_below_the_scope_at_a_large_offset():
    """Splits the SE_TOL measurement does not cover, from the corner below
    SCOPE_VALUES where the error is largest: 150 splits of 2 to 6 batches of
    one or two values at offset 1e8. Each merge's difference of means
    carries an ulp of 1e8 (about 1.5e-8) against a spread of 1. Of 2,000
    such splits, 1.6% put the standard error above SE_TOL; of these 150,
    the 21st (batches [2, 2]) does."""
    rng = np.random.default_rng(1)
    for _ in range(150):
        batches = rng.integers(1, 3, size=rng.integers(2, 7)).tolist()
        _check_fold(streams.Moments, batches, int(rng.integers(2**32)), 1e8)


def test_group_moments_of_a_weighted_column_are_the_groups_own():
    """The values of weight 0.0 change neither the group's mean nor its
    centred second moment, whatever their size, and the group keeps its
    weighted values in place."""
    rng = np.random.default_rng(3)
    weights = (rng.random(1_001) < 0.4).astype(float)
    column = 1e8 + rng.standard_normal(1_001)
    group = column[weights == 1.0]
    count, mean, m2 = analytics._group_moments(column.copy(), weights.copy(), group.size)
    assert count == group.size
    assert abs(mean - math.fsum(group.tolist()) / group.size) <= MEAN_TOL * abs(mean)
    assert abs(m2 - math.fsum((v - mean) ** 2 for v in group.tolist())) <= 1e-12 * m2
    kept = column.copy()
    analytics._group_moments(kept, weights.copy(), group.size)
    assert kept.tobytes() == (column * weights).tobytes()
    assert analytics._group_moments(column.copy(), np.zeros(column.size), 0) == (0, 0.0, 0.0)


def test_run_batches_keeps_batch_order_and_one_factory_per_lane(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    made, ran = [], {}

    def make_batch():
        lane = object()
        made.append(threading.get_ident())

        def batch(index, size):
            ran[index] = lane
            return index, size

        return batch

    total = 7 * streams.BATCH_SIZE + 5
    assert streams.run_batches(total, make_batch) == list(enumerate(streams.batch_sizes(total)))
    assert len(made) == 3 and threading.get_ident() not in made
    assert len(set(ran.values())) == 3
    for index, lane in ran.items():  # batch i in the lane of batch i mod 3
        assert lane is ran[index % 3]

    made.clear()
    assert streams.run_batches(5, make_batch) == [(0, 5)]  # one batch runs inline
    assert made == [threading.get_ident()]
    assert streams.run_batches(0, make_batch) == []


def test_raw_sum_of_squares_fold_fails_the_moments_check():
    _check_fold(_RawMoments, [3, 2_500], 0, 0.0)
    with pytest.raises(AssertionError):
        _check_fold(_RawMoments, [3, 2_500], 0, 1e8)


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
