"""Deterministic random streams.

Every Monte Carlo batch draws from its own PCG64DXSM generator, seeded by
the ``index``-th child that numpy's ``SeedSequence`` spawns from the master
seed: numpy's documented scheme for independent parallel streams, and a
generator that fills doubles more than twice as fast as Philox. Distinct
indices give independent streams, so a batch's draws depend only on
``(seed, index)`` and on no batch run before it. (Generated instances draw
from a Philox key of their own, in ``generate``, so that the games a seed
names stay fixed whatever the Monte Carlo streams become.) Each batch
reduces what it drew to sufficient statistics: a count, a mean and a
centred second moment of one group of draws, which ``interval`` pools with
the other groups into a mean and a 99 percent half-width. Its sums are
correctly rounded, so results are bit-identical for a fixed seed.

A simulation that reopens a batch's stream draws the same values again:
each scenario of a single-offer call (``analytics.mc_single_offer`` and
``analytics.mc_poa``) reopens it, and so gets the same result alone or with
others. ``multi_offer.simulate_schedule`` runs no batches: it draws each B
type's cell counts from stream ``index``, the B type's index in its game.
"""

from __future__ import annotations

import math

import numpy as np

# Number of simulated runs folded into one stream; see ``batch_sizes``.
BATCH_SIZE = 1 << 16

# 99.5th percentile of the standard normal: half-width multiplier for a
# two-sided 99 percent confidence interval.
Z99 = 2.5758293035489004


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for Monte Carlo batch ``index`` under ``seed``, a seed in
    [0, 2**64): a PCG64DXSM on the seed's ``index``-th spawned child, equal
    to ``SeedSequence(seed).spawn(index + 1)[index]``. Seeds keep the range
    of the instance generator's Philox key, one 64-bit word, so one seed
    names both a game and its simulations."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(index,))))


def batch_sizes(total: int) -> list[int]:
    """Split ``total`` draws into batches of ``BATCH_SIZE`` (last one ragged)."""
    if total < 0:
        raise ValueError("total must be non-negative")
    out = [BATCH_SIZE] * (total // BATCH_SIZE)
    if total % BATCH_SIZE:
        out.append(total % BATCH_SIZE)
    return out


def interval(counts, means, within) -> tuple[float, float]:
    """Mean and 99 percent half-width of the draws of several groups, each
    given as its count, mean and centred second moment (one ``within`` may
    stand for all); groups with no draws are dropped.

    The mean is the smallest group mean plus a ``math.fsum`` of each group's
    share times its gap above it; the second moment, a ``math.fsum`` of the
    groups' own and of each count times its squared gap from the mean. A gap
    between equal values is 0, infinities included. Gaps carry no offset
    common to the draws, so the width stays right far from zero and the
    mean finite wherever the draws are, in any order of the groups.
    """
    counts, means, within = np.broadcast_arrays(counts, np.asarray(means, dtype=float), within)
    drawn = counts > 0
    counts, means, within = counts[drawn], means[drawn], within[drawn]
    n = int(np.sum(counts))
    shares = counts / n
    low = float(np.min(means))
    mean = low + _fsum(shares * _gaps(means, low))
    if math.isfinite(mean):
        # Gaps above ``low`` round at the scale of the means' range; one
        # more step from ``mean`` rounds at the scale of their spread.
        mean += _fsum(shares * _gaps(means, mean))
    with np.errstate(over="ignore"):
        m2 = _fsum(np.append(within, counts * np.square(_gaps(means, mean))))
    return mean, Z99 * math.sqrt(m2) / n


def _gaps(values: np.ndarray, base: float) -> np.ndarray:
    """``values - base``, 0 where the two are equal (so inf - inf is 0)."""
    return np.subtract(values, base, out=np.zeros(values.shape), where=values != base)


def _fsum(terms: np.ndarray) -> float:
    """``math.fsum`` of float64 ``terms``; inf where it passes the float range."""
    try:
        return math.fsum(memoryview(terms))
    except OverflowError:
        return math.inf
