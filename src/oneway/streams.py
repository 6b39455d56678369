"""Deterministic random streams.

Every stochastic routine in the package draws from a counter-based generator
(Philox) keyed by ``(master seed, stream index)``. Distinct indices give
independent streams, so batches of Monte Carlo work can run in any order, or
in parallel, and still reproduce bit-identical results for a fixed seed.
Batch results are folded together with ``Moments``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Number of simulated runs folded into one stream; see ``batch_sizes``.
BATCH_SIZE = 1 << 16

# 99.5th percentile of the standard normal: half-width multiplier for a
# two-sided 99 percent confidence interval.
Z99 = 2.5758293035489004


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream ``index`` under ``seed``."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def batch_sizes(total: int, batch: int = BATCH_SIZE) -> list[int]:
    """Split ``total`` draws into fixed-size batches (last one ragged)."""
    if total < 0:
        raise ValueError("total must be non-negative")
    out = [batch] * (total // batch)
    if total % batch:
        out.append(total % batch)
    return out


class Moments:
    """Count, sums and centred second moments of several columns, folded in
    one batch at a time.

    Each batch is centred on its own mean and merged with the update of
    Chan, Golub & LeVeque (1979). Raw sums of squares would cancel
    catastrophically once the values sit far from zero (at a payoff offset
    of 1e8 they report a zero-width interval); centred moments do not. The
    centring scratch is kept across batches and grown when a larger one
    arrives: a fresh batch-sized temporary per call costs page faults.
    """

    def __init__(self, columns: int) -> None:
        self.count = 0
        self.sums = np.zeros(columns)
        self.m2 = np.zeros(columns)
        self._scratch = np.empty(0)

    def add(self, *columns: np.ndarray) -> None:
        size = columns[0].size
        sums = np.array([np.sum(c) for c in columns])
        means = sums / size
        m2 = np.empty(len(columns))
        if self._scratch.size < size:
            self._scratch = np.empty(size)
        d = self._scratch[:size]
        for j, (c, m) in enumerate(zip(columns, means)):
            m2[j] = np.sum(np.square(np.subtract(c, m, out=d), out=d))
        if self.count:
            delta = means - self.sums / self.count
            m2 += delta * delta * (self.count * size / (self.count + size))
        self.count += size
        self.sums += sums
        self.m2 += m2

    def means(self) -> np.ndarray:
        return self.sums / self.count

    def standard_errors(self) -> np.ndarray:
        """Standard errors of the column means (population variance)."""
        return np.sqrt(self.m2 / self.count / self.count)

