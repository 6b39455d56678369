"""Seeded random instance generation."""

from __future__ import annotations

import math

import numpy as np

from .game import OneWayGame, make_game


def _instance_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Philox generator keyed ``(seed, index)`` for instance ``index`` under
    ``seed``, a seed in [0, 2**64): each is one 64-bit word of the key, so a
    wider seed would alias. Instances keep this counter-based key, not the
    Monte Carlo batches' generator (``streams.stream``), so the games a seed
    names do not move when the simulation streams change."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _game_from_rng(
    rng: np.random.Generator,
    n_actions_a: int,
    n_actions_b: int,
    n_types_a: int,
    n_types_b: int,
    a_scale: float,
    b_scale: float,
) -> OneWayGame:
    for name, n in (
        ("n_actions_a", n_actions_a),
        ("n_actions_b", n_actions_b),
        ("n_types_a", n_types_a),
        ("n_types_b", n_types_b),
    ):
        if n < 1:
            raise ValueError(f"{name} must be at least 1")
    if not (0.0 < a_scale < math.inf and 0.0 < b_scale < math.inf):
        raise ValueError(f"scales must be finite and positive, got {a_scale!r} and {b_scale!r}")
    payoff_a = rng.uniform(0.0, a_scale, size=(n_types_a, n_actions_a))
    payoff_b = rng.uniform(0.0, b_scale, size=(n_types_b, n_actions_a, n_actions_b))
    return make_game(
        actions_a=[f"a{i + 1}" for i in range(n_actions_a)],
        actions_b=[f"b{i + 1}" for i in range(n_actions_b)],
        types_a=[(f"t{i + 1}", 1.0 / n_types_a) for i in range(n_types_a)],
        types_b=[(f"u{i + 1}", 1.0 / n_types_b) for i in range(n_types_b)],
        payoff_a=payoff_a,
        payoff_b=payoff_b,
    )


def random_game(
    seed: int,
    n_actions_a: int = 3,
    n_actions_b: int = 2,
    n_types_a: int = 3,
    n_types_b: int = 2,
    a_scale: float = 10.0,
    b_scale: float = 10.0,
) -> OneWayGame:
    """One game with uniform random payoffs and equal-weight priors."""
    rng = _instance_stream(seed)
    return _game_from_rng(rng, n_actions_a, n_actions_b, n_types_a, n_types_b, a_scale, b_scale)


def random_suite(
    count: int,
    seed: int,
    max_actions_a: int = 6,
    max_actions_b: int = 4,
    max_types_a: int = 6,
    max_types_b: int = 4,
    a_scale: float = 10.0,
    b_scale: float = 10.0,
) -> list[OneWayGame]:
    """A reproducible batch of games with sizes drawn per instance.

    Instance i draws from the Philox stream keyed (seed, i), not from the
    Monte Carlo batches' PCG64DXSM streams, so the suite is stable under
    reordering, extending the count only appends, and a change to the
    simulation streams leaves every generated game as it was.
    """
    games = []
    for i in range(count):
        rng = _instance_stream(seed, i)
        n_aa = int(rng.integers(2, max_actions_a + 1))
        n_ab = int(rng.integers(1, max_actions_b + 1))
        n_ta = int(rng.integers(1, max_types_a + 1))
        n_tb = int(rng.integers(1, max_types_b + 1))
        games.append(_game_from_rng(rng, n_aa, n_ab, n_ta, n_tb, a_scale, b_scale))
    return games
