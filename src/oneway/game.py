"""Core types and primitives for two-player one-way games.

A one-way game has two players, A and B, each with a finite action set and a
finite private type set. Types are independent draws from commonly known
priors. Player A's payoff depends only on her own action and type; player B's
payoff depends on the full action profile and on B's type. All payoffs are
non-negative amounts of money (quasi-linear utilities).

Public functions take and return string identifiers. The game also carries
read-only per-game tables of no-payment play (A's selfish map, payoffs and
sacrifices; B's best replies, her equilibrium reply and her fallback if A
declines an action) as arrays in the game's own order, so that every layer
reads one copy of that play. B's replies to A's selfish play all come from
one rule, ``_selfish_reply``. Every prior-weighted sum over A's types is
correctly rounded (``_exact_sum``, ``prefix_mass``), so no result depends on
how a game lists A's types. Ties are always broken toward the lowest index,
which makes every operation in the package deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Priors must sum to one within this absolute tolerance.
PRIOR_TOL = 1e-12


class StrategyProfile(NamedTuple):
    action_a: str
    action_b: str


class TypeProfile(NamedTuple):
    type_a: str
    type_b: str


@dataclass(frozen=True, eq=False)
class OneWayGame:
    """Immutable one-way game on dense payoff tables.

    ``payoff_a`` has shape ``(len(types_a), len(actions_a))``: A's payoff never
    depends on B's action. ``payoff_b`` has shape
    ``(len(types_b), len(actions_a), len(actions_b))``.
    """

    actions_a: tuple[str, ...]
    actions_b: tuple[str, ...]
    types_a: tuple[str, ...]
    types_b: tuple[str, ...]
    prior_a: np.ndarray
    prior_b: np.ndarray
    payoff_a: np.ndarray
    payoff_b: np.ndarray

    def __post_init__(self) -> None:
        for name in ("actions_a", "actions_b", "types_a", "types_b"):
            object.__setattr__(self, name, tuple(str(x) for x in getattr(self, name)))
        for name in ("prior_a", "prior_b", "payoff_a", "payoff_b"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- identifier lookups ------------------------------------------------

    @cached_property
    def _indices(self) -> dict[str, dict[str, int]]:
        kinds = ("A action", "B action", "A type", "B type")
        ids = (self.actions_a, self.actions_b, self.types_a, self.types_b)
        return {kind: {x: i for i, x in enumerate(xs)} for kind, xs in zip(kinds, ids)}

    def _index(self, kind: str, key: str) -> int:
        try:
            return self._indices[kind][key]
        except KeyError:
            raise KeyError(f"unknown {kind} {key!r}") from None

    def action_a_index(self, action: str) -> int:
        return self._index("A action", action)

    def action_b_index(self, action: str) -> int:
        return self._index("B action", action)

    def type_a_index(self, t: str) -> int:
        return self._index("A type", t)

    def type_b_index(self, t: str) -> int:
        return self._index("B type", t)

    # -- payoff lookups ----------------------------------------------------

    def u_a(self, action_a: str, type_a: str) -> float:
        return float(self.payoff_a[self.type_a_index(type_a), self.action_a_index(action_a)])

    def u_b(self, profile: StrategyProfile | tuple[str, str], type_b: str) -> float:
        sa, sb = profile
        return float(
            self.payoff_b[
                self.type_b_index(type_b),
                self.action_a_index(sa),
                self.action_b_index(sb),
            ]
        )

    # -- no-payment play: read-only index tables, ties to the lowest index --

    @cached_property
    def selfish_a(self) -> np.ndarray:
        """A's selfish (equilibrium) action index per A type."""
        return _frozen(np.argmax(self.payoff_a, axis=1))

    @cached_property
    def selfish_payoff_a(self) -> np.ndarray:
        """A's selfish payoff per A type."""
        return _frozen(np.max(self.payoff_a, axis=1))

    @cached_property
    def sacrifice_a(self) -> np.ndarray:
        """A types by A actions: what playing the action costs the type
        against her selfish payoff. Column-major, so that each action's
        column is contiguous."""
        return _frozen(np.asfortranarray(self.selfish_payoff_a[:, None] - self.payoff_a))

    @cached_property
    def sacrifice_order(self) -> np.ndarray:
        """A types by A actions: each action's A types by their sacrifice for
        it, ascending, ties in type order."""
        return _frozen(np.argsort(self.sacrifice_a, axis=0, kind="stable"))

    @cached_property
    def prefix_mass(self) -> np.ndarray:
        """(A types + 1) by A actions: row k is the prior mass of the action's
        first k types in ``sacrifice_order``, correctly rounded: the priors,
        scaled to integers, are summed exactly and divided back once."""
        ratios = [p.as_integer_ratio() for p in self.prior_a.tolist()]
        scale = max(d for _, d in ratios)
        units = [n * (scale // d) for n, d in ratios]
        columns = [accumulate((units[i] for i in order), initial=0) for order in self.sacrifice_order.T.tolist()]
        return _frozen(np.array([[s / scale for s in column] for column in columns]).T)

    @cached_property
    def reply_b(self) -> np.ndarray:
        """B types by A actions: B's best reply index to the action."""
        return _frozen(np.argmax(self.payoff_b, axis=2))

    @cached_property
    def nash_b(self) -> np.ndarray:
        """B's equilibrium reply index per B type: her best reply, in prior
        expectation, to A's selfish map."""
        return _selfish_reply(self, self.prior_a)[0]

    @cached_property
    def _fallback(self) -> tuple[np.ndarray, np.ndarray]:
        """B's reply if A declines each action, and its value: her best
        reply to the selfish play of the types that decline (positive
        sacrifice) under their renormalised prior; where they have zero
        mass, her best reply to the action itself."""
        replies, values = self.reply_b.copy(), np.max(self.payoff_b, axis=2)
        for ia, declines in enumerate(self.sacrifice_a.T > 0.0):
            if (mass := _exact_sum(self.prior_a[declines])) > 0.0:
                replies[:, ia], values[:, ia] = _selfish_reply(self, np.where(declines, self.prior_a, 0.0) / mass)
        return _frozen(replies), _frozen(values)

    fallback_b = property(lambda self: self._fallback[0], doc="B types by A actions: B's fallback reply index.")
    fallback_payoff_b = property(lambda self: self._fallback[1], doc="B types by A actions: its value to B.")


def _selfish_reply(game: OneWayGame, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each B type's best reply (lowest index on ties) to A's selfish play
    under ``weights`` over A's types, and its value. B's payoff depends on
    A's type only through her action, so the weights are summed, correctly
    rounded, per selfish action, then the actions' payoff rows in index order."""
    mix = [_exact_sum(weights[game.selfish_a == a]) for a in range(len(game.actions_a))]
    value = np.zeros((len(game.types_b), len(game.actions_b)))
    for a in np.flatnonzero(mix):
        value += mix[a] * game.payoff_b[:, a, :]
    reply = np.argmax(value, axis=1)
    return _frozen(reply), _frozen(value[np.arange(len(reply)), reply])


def _exact_sum(terms) -> float:
    """The correctly rounded sum of ``terms``, 0.0 if none. Every caller sums
    terms of one sign, so a sum past the float range is that sign's infinity."""
    terms = np.asarray(terms, dtype=np.float64)
    try:
        return math.fsum(memoryview(terms[terms != 0.0]))
    except OverflowError:
        return math.inf if terms.max() > 0.0 else -math.inf


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def make_game(
    actions_a: Sequence[str],
    actions_b: Sequence[str],
    types_a: Iterable[tuple[str, float]],
    types_b: Iterable[tuple[str, float]],
    payoff_a: Sequence[Sequence[float]],
    payoff_b: Sequence[Sequence[Sequence[float]]],
) -> OneWayGame:
    """Build a game from ``(type id, prior)`` pairs and nested payoff lists.

    ``payoff_a[i][j]`` is A's payoff for type i playing action j;
    ``payoff_b[k][j][m]`` is B's payoff for B type k at profile (j, m).
    Raises ValueError if the resulting game fails :func:`validate`.
    """
    ta = list(types_a)
    tb = list(types_b)
    game = OneWayGame(
        actions_a=tuple(actions_a),
        actions_b=tuple(actions_b),
        types_a=tuple(t for t, _ in ta),
        types_b=tuple(t for t, _ in tb),
        prior_a=np.array([p for _, p in ta], dtype=np.float64),
        prior_b=np.array([p for _, p in tb], dtype=np.float64),
        payoff_a=np.array(payoff_a, dtype=np.float64),
        payoff_b=np.array(payoff_b, dtype=np.float64),
    )
    errors = validate(game)
    if errors:
        raise ValueError("; ".join(errors))
    return game


def validate(game: OneWayGame) -> list[str]:
    """Return a list of human-readable problems; empty means the game is valid."""
    errors: list[str] = []
    for label, ids in (
        ("actions_a", game.actions_a),
        ("actions_b", game.actions_b),
        ("types_a", game.types_a),
        ("types_b", game.types_b),
    ):
        if len(ids) == 0:
            errors.append(f"{label} is empty")
        if len(set(ids)) != len(ids):
            errors.append(f"{label} contains duplicate identifiers")

    for label, prior, n in (
        ("prior_a", game.prior_a, len(game.types_a)),
        ("prior_b", game.prior_b, len(game.types_b)),
    ):
        if prior.shape != (n,):
            errors.append(f"{label} has shape {prior.shape}, expected ({n},)")
            continue
        if np.any(~np.isfinite(prior)) or np.any(prior < 0):
            errors.append(f"{label} has negative or non-finite entries")
        elif n > 0 and abs((total := _exact_sum(prior)) - 1.0) > PRIOR_TOL:
            errors.append(f"{label} sums to {total!r}, expected 1 within {PRIOR_TOL}")

    shape_a = (len(game.types_a), len(game.actions_a))
    if game.payoff_a.shape != shape_a:
        errors.append(f"payoff_a has shape {game.payoff_a.shape}, expected {shape_a}")
    shape_b = (len(game.types_b), len(game.actions_a), len(game.actions_b))
    if game.payoff_b.shape != shape_b:
        errors.append(f"payoff_b has shape {game.payoff_b.shape}, expected {shape_b}")

    for label, table in (("payoff_a", game.payoff_a), ("payoff_b", game.payoff_b)):
        if table.size and np.any(~np.isfinite(table)):
            errors.append(f"{label} has non-finite entries")
        elif table.size and np.any(table < 0):
            errors.append(f"{label} has negative entries; payoffs are non-negative money")
    return errors


def best_response_B(game: OneWayGame, action_a: str, type_b: str) -> str:
    """B's payoff-maximizing reply to ``action_a``, lowest index on ties."""
    return game.actions_b[game.reply_b[game.type_b_index(type_b), game.action_a_index(action_a)]]


def social_welfare(
    game: OneWayGame, profile: StrategyProfile | tuple[str, str], types: TypeProfile | tuple[str, str]
) -> float:
    """Sum of both players' payoffs at a pure profile; transfers never enter."""
    sa, sb = profile
    ta, tb = types
    return float(game.u_a(sa, ta) + game.u_b((sa, sb), tb))


def optimal_welfare(
    game: OneWayGame, types: TypeProfile | tuple[str, str]
) -> tuple[StrategyProfile, float]:
    """Welfare-maximizing profile for a realized type pair.

    Ties broken toward the lowest (A action, B action) index pair.
    """
    ta, tb = types
    grid = game.payoff_a[game.type_a_index(ta), :, None] + game.payoff_b[game.type_b_index(tb)]
    flat = int(np.argmax(grid))
    ia, ib = divmod(flat, grid.shape[1])
    return StrategyProfile(game.actions_a[ia], game.actions_b[ib]), float(grid[ia, ib])
