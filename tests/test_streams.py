import hashlib
import math

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


# Worst errors of ``interval`` against the two-pass ``math.fsum`` reference,
# over 600 random splits of up to 4 x 70,000 values: 6.0e-16 of |mean| +
# standard error for the means (offset 0), and 6.8e-11 relative for the
# standard errors (offset 1e8; 4.3e-16 at offset 0). On the same splits the
# ordered merge of Chan, Golub & LeVeque that it replaced gave 6.0e-16 and
# 8.0e-11; the fold of sums before that gave 6.1e-16 and 2.0e-9 over 3,400
# splits. Without its second step from the pooled mean, ``interval``'s
# mean reached 3.2e-15, above MEAN_TOL, where a small batch's mean lies far
# from the others. The tolerances sit a few times above those. The
# measurement covers splits whose batches mostly hold many values; 1,500
# random splits of the shape drawn here (1 to 6 batches of 1 to 3,000
# values) gave at most 6.7e-10 at offset 1e8. It does not cover splits of
# few values at offset 1e8, where each batch mean carries an ulp of 1e8
# (about 1.5e-8) against a spread of 1. Over random splits of 2 to 6
# batches, 3,000 each, the standard error's worst relative error was
# 3.5e-8 for 2 to 9 values in all, 8.1e-9 for 30 to 49, 5.8e-9 for 50 to
# 99 and 4.1e-9 for 100 to 199 (the ordered merge: 6.1e-7, 8.1e-9, 6.1e-9
# and 4.2e-9): the region above SE_TOL lies below 50 values. So at offset
# 1e8 the splits drawn for SE_TOL hold at least SCOPE_VALUES values, and a
# strict xfail runs splits below it.
MEAN_TOL = 2e-15
SE_TOL = 1e-8
SCOPE_VALUES = 100


class _RawMoments:
    """The fold centred moments replaced: raw sums and sums of squares, here
    rebuilt from each batch's centred statistics and merged in order."""

    def __init__(self) -> None:
        self.count = 0
        self.sum = self.squares = 0.0

    def merge(self, size: int, mean: float, m2: float) -> None:
        self.count += size
        self.sum += size * mean
        self.squares += m2 + size * mean * mean

    @classmethod
    def interval(cls, counts, means, within) -> tuple[float, float]:
        """``streams.interval``'s result from the raw sums."""
        raw = cls()
        for group in zip(counts, means, within):
            raw.merge(*group)
        mean = raw.sum / raw.count
        return mean, streams.Z99 * np.sqrt(raw.squares - raw.sum * mean) / raw.count


def _data(batches: list[int], seed: int, offset: float) -> np.ndarray:
    """Two columns, with spreads 1 and 100 around ``offset``."""
    return offset + np.random.default_rng(seed).standard_normal((2, sum(batches))) * [[1.0], [100.0]]


def _check_fold(pool, batches: list[int], seed: int, offset: float) -> None:
    """Pool each column of ``_data`` on its own, each batch reduced by the
    simulators' group fold and the batches pooled by ``pool`` (``interval``
    or a stand-in), and compare with a two-pass ``math.fsum`` reference."""
    for column in _data(batches, seed, offset):
        values = column.tolist()
        groups = [analytics._group_moments(b) for b in np.split(column.copy(), np.cumsum(batches)[:-1])]
        mean, half_width = pool(*zip(*groups))
        se = half_width / streams.Z99
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
    _check_fold(streams.interval, [3, 2_500], 0, offset)  # a small batch, then a larger one
    _check_fold(streams.interval, [131, 68_299, 10_642], 3_823_366_323, offset)  # a small batch's mean far off
    for batches, seed in _splits(offset):
        _check_fold(streams.interval, batches, seed, offset)


def test_moments_mean_after_a_one_value_leading_batch():
    """A batch of one value next to a batch of 1,401: the two means lie as
    far apart as the data's spread. An ordered merge that steps from the
    one-value batch to the larger one moves the mean by nearly that whole
    difference and put it 4.5e-15 of |mean| + standard error off, above
    MEAN_TOL. ``interval`` sums each batch's share times its gap correctly
    rounded, so each term rounds relative to its own size.
    ``mc_single_offer`` pools its accepted draws' batches, which hold one
    value when acceptance is rare."""
    _check_fold(streams.interval, [1, 1401], 1, 0.0)


@pytest.mark.parametrize("value", [0.1, -3e300, 1.7e308, math.inf, -math.inf])
def test_interval_of_equal_empty_and_overflowing_groups(value):
    """Groups that share one mean give exactly that mean and a width of
    0.0, infinities included, and groups with no draws are ignored: an
    empty group with a NaN mean and moment changes nothing. A second moment
    past the float range gives an infinite width."""
    assert streams.interval([3, 2**40, 1], [value] * 3, 0.0) == (value, 0.0)
    nan = math.nan
    assert streams.interval([3, 0, 2**40, 1], [value, nan, value, value], [0.0, nan, 0.0, 0.0]) == (value, 0.0)
    pooled = streams.interval([2, 5], [1.0, 3.0], [0.5, 4.0])
    assert streams.interval([2, 0, 5], [1.0, -7.0, 3.0], [0.5, 9.0, 4.0]) == pooled
    assert streams.interval([1, 1], [-1e154, 1e154], 0.0) == (0.0, math.inf)


@pytest.mark.xfail(strict=True, reason="batch means at offset 1e8 carry an ulp of 1e8 against a spread of 1")
def test_moments_standard_error_below_the_scope_at_a_large_offset():
    """Splits the SE_TOL measurement does not cover, from the corner below
    SCOPE_VALUES where the error is largest: 150 splits of 2 to 6 batches of
    one or two values at offset 1e8. Each batch mean carries an ulp of 1e8
    (about 1.5e-8) against a spread of 1. Of 2,000 such splits, 1.2% put
    the standard error above SE_TOL (1.6% with the ordered merge that
    ``interval`` replaced); of these 150, the 21st (batches [2, 2]) does."""
    rng = np.random.default_rng(1)
    for _ in range(150):
        batches = rng.integers(1, 3, size=rng.integers(2, 7)).tolist()
        _check_fold(streams.interval, batches, int(rng.integers(2**32)), 1e8)


def test_raw_sum_of_squares_fold_fails_the_moments_check():
    _check_fold(_RawMoments.interval, [3, 2_500], 0, 0.0)
    with pytest.raises(AssertionError):
        _check_fold(_RawMoments.interval, [3, 2_500], 0, 1e8)


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
