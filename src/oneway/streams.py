"""Deterministic random streams.

Every Monte Carlo batch draws from its own PCG64DXSM generator, seeded by
the ``index``-th child that numpy's ``SeedSequence`` spawns from the master
seed: numpy's documented scheme for independent parallel streams, and a
generator that fills doubles more than twice as fast as Philox. Distinct
indices give independent streams, so the batches of a Monte Carlo run need
no shared state: ``run_batches`` runs them on ``os.cpu_count()`` threads
and returns their results in batch order. (Generated instances draw from a
Philox key of their own, in ``generate``, so that the games a seed names
stay fixed whatever the Monte Carlo streams become.) Each batch reduces
what it drew to sufficient statistics: a count, a mean and a centred second
moment of one group of draws, which ``Moments.merge`` folds in batch
order, or integer cell counts, whose sum does not depend on the order at
all. Results are therefore bit-identical for a fixed seed on any number of
cores.

A batch's draws depend only on ``(seed, index)``, so one batch can draw its
columns once and run several simulations on them, each folding its own
statistics. ``make_batch`` builds the buffers one thread owns for all its
batches: each single-offer estimator (``analytics.mc_single_offer`` and
``analytics.mc_poa``) keeps two float columns and no mask, its accept flags
being a column of 1.0 and 0.0 weights (one more column for the uniforms
with a second scenario, and one for ``mc_single_offer``'s coin too);
``multi_offer.simulate_schedule`` keeps two float columns, a mask and an
index column.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

import numpy as np

# Number of simulated runs folded into one stream; see ``batch_sizes``.
BATCH_SIZE = 1 << 16

# 99.5th percentile of the standard normal: half-width multiplier for a
# two-sided 99 percent confidence interval.
Z99 = 2.5758293035489004

T = TypeVar("T")


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


def run_batches(total: int, make_batch: Callable[[], Callable[[int, int], T]]) -> list[T]:
    """Results of ``batch(index, size)`` over ``batch_sizes(total)``, in batch
    order.

    ``make_batch()`` builds one thread's batch function, so each thread owns
    the buffers it closes over. Batch ``i`` runs on thread ``i mod W``, with
    ``W = min(os.cpu_count(), batches)``; with one thread the batches run
    inline, without a pool. numpy releases the interpreter lock in the
    stream fills, elementwise ufuncs and ``take``, which is where a batch
    spends most of its time; its reductions (``np.sum``, ``np.max``) hold
    the lock. An exception in a batch is raised here once every thread has
    stopped.
    """
    sizes = batch_sizes(total)
    workers = min(os.cpu_count() or 1, len(sizes))
    if workers <= 1:
        batch = make_batch()
        return [batch(i, size) for i, size in enumerate(sizes)]

    def lane(first: int) -> list[T]:
        batch = make_batch()
        return [batch(i, sizes[i]) for i in range(first, len(sizes), workers)]

    results: list = [None] * len(sizes)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        lanes = [pool.submit(lane, w) for w in range(workers)]
        for w, future in enumerate(lanes):
            results[w::workers] = future.result()
    return results


class Moments:
    """Count, mean and centred second moment of one column, folded in one
    batch at a time.

    Each batch is centred on its own mean and merged with the update of
    Chan, Golub & LeVeque (1979). Raw sums of squares would cancel
    catastrophically once the values sit far from zero (at a payoff offset
    of 1e8 they report a zero-width interval); centred moments do not. The
    fold keeps means rather than sums, so it stays finite wherever the
    values do: n times a mean near the largest float would overflow. The
    update is not associative in floating point, so batches are merged in
    batch order whichever thread computed them.
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def merge(self, size: int, mean: float, m2: float) -> None:
        """Fold in one batch of ``size`` values, given as its mean and
        centred second moment. An empty batch changes nothing."""
        if not size:
            return
        total = self.count + size
        mean, m2 = float(mean), float(m2)
        delta = mean - self.mean
        if self.count:
            m2 += delta * delta * (self.count * size / total)
        # Step from the larger side, as the step's rounding scales with it.
        if size > self.count:
            self.mean = mean - delta * (self.count / total)
        else:
            self.mean += delta * (size / total)
        self.count = total
        self.m2 += m2
