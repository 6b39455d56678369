"""Bilateral trade on discrete value grids, and its one-way embedding.

A seller holds a good worth v1 to her; a buyer values it at v2. Both values
are private, drawn from independent discrete priors. Efficiency demands trade
exactly when the buyer's value is higher. The functions here ask whether any
direct mechanism can be simultaneously efficient, budget-balanced, Bayes-Nash
incentive compatible and interim individually rational on a given grid.
Incentive and participation constraints see transfers only through their
interim means, and under budget balance any interim pair with zero expected
sum is realised ex post by x_ij = a_i + b_j (Myerson & Satterthwaite 1983),
so the linear programs run over interim transfers: ns + nb columns, not
ns * nb. Infeasibility comes with a Farkas certificate read from the margin
LP's duals and re-verified arithmetically against the ex-post system, and a
companion LP reports the smallest pointwise subsidy that restores feasibility.

Both LPs call the module-level ``linprog``, which imports
``scipy.optimize.linprog`` on its first call and forwards to it unchanged.
Importing this module (or the package) therefore does not load scipy; only
solving a trade LP does. The command line runs this module only in
``ms-check``, which solves them. The solvers look the name up as a module
global on every call, so code that rebinds ``bilateral.linprog`` (a tracer,
a test double) sees every solve.

The same trade problem embeds into a one-way game (the seller's payoff does
not depend on the buyer's single dummy action). There is one mechanism type,
``OneWayMechanism``, A types by B types tables with one audit; the trade LPs
return theirs on the embedding, the seller as A and the buyer as B.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .equilibrium import _optimal_table
from .game import PRIOR_TOL, OneWayGame, _exact_sum, _selfish_reply, make_game

MARGIN_TOL = 1e-7
CERT_TOL = 1e-7
MARGIN_CAP = 1e9
# HiGHS accepts a basis whose rows are violated by up to its feasibility
# tolerances (1e-7 by default). The interim rows have unit coefficients, so
# such a basis can shift the margin by that much; tighter tolerances keep the
# interim optima within 1e-9 of the ex-post ones.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: scipy.optimize
    takes most of the package's import time and only the trade LPs need it."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _canonical_side(values: Sequence[float], probs: Sequence[float], side: str):
    vals = [float(v) for v in values]
    ps = [float(p) for p in probs]
    if len(vals) != len(ps) or not vals:
        raise ValueError(f"{side}: values and probs must be equal-length and non-empty")
    for v in vals:
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{side}: values must be finite and non-negative, got {v!r}")
    for p in ps:
        if not math.isfinite(p) or p < 0.0:
            raise ValueError(f"{side}: probabilities must be finite and non-negative, got {p!r}")
    if abs((total := _exact_sum(ps)) - 1.0) > PRIOR_TOL:
        raise ValueError(f"{side}: probabilities sum to {total!r}, expected 1")
    order = sorted(range(len(vals)), key=lambda i: vals[i])
    return tuple(vals[i] for i in order), tuple(ps[i] for i in order)


@dataclass(frozen=True)
class BilateralTradeInstance:
    """Discrete seller/buyer value grids. Stored sorted by value, so two
    inputs differing only in type labels produce identical instances."""

    seller_values: tuple[float, ...]
    seller_probs: tuple[float, ...]
    buyer_values: tuple[float, ...]
    buyer_probs: tuple[float, ...]

    def __init__(self, seller_values, seller_probs, buyer_values, buyer_probs):
        sv, sp = _canonical_side(seller_values, seller_probs, "seller")
        bv, bp = _canonical_side(buyer_values, buyer_probs, "buyer")
        object.__setattr__(self, "seller_values", sv)
        object.__setattr__(self, "seller_probs", sp)
        object.__setattr__(self, "buyer_values", bv)
        object.__setattr__(self, "buyer_probs", bp)


def uniform_grid_instance(k: int, low: float = 0.0, high: float = 1.0) -> BilateralTradeInstance:
    """Both values uniform on [low, high], discretized to k quantile midpoints."""
    if k < 1:
        raise ValueError("k must be at least 1")
    vals = tuple(low + (high - low) * (i + 0.5) / k for i in range(k))
    probs = (1.0 / k,) * k
    return BilateralTradeInstance(vals, probs, vals, probs)


def efficient_allocation(instance: BilateralTradeInstance) -> np.ndarray:
    """Trade indicator sigma[i, j]: 1 exactly when the buyer values it more."""
    sv = np.asarray(instance.seller_values)
    bv = np.asarray(instance.buyer_values)
    return (sv[:, None] < bv[None, :]).astype(np.float64)


def to_one_way(instance: BilateralTradeInstance) -> OneWayGame:
    """Embed trade as a one-way game: the seller keeps or hands over the good.

    The buyer has a single dummy reply, making the seller's payoff trivially
    independent of it. Keeping pays the seller her value; handing over pays
    the buyer his.
    """
    ns = len(instance.seller_values)
    nb = len(instance.buyer_values)
    payoff_a = [[v, 0.0] for v in instance.seller_values]
    payoff_b = [[[0.0], [v]] for v in instance.buyer_values]
    return make_game(
        actions_a=["keep", "transfer"],
        actions_b=["none"],
        types_a=[(f"s{i + 1}", instance.seller_probs[i]) for i in range(ns)],
        types_b=[(f"b{j + 1}", instance.buyer_probs[j]) for j in range(nb)],
        payoff_a=payoff_a,
        payoff_b=payoff_b,
    )


@dataclass(frozen=True, eq=False)
class OneWayMechanism:
    """A direct mechanism on a one-way game, as read-only tables indexed
    [A type, B type] in the game's type order: A's action index, B's reply
    index, and the payment to each player."""

    action_a: np.ndarray
    action_b: np.ndarray
    payment_a: np.ndarray
    payment_b: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            dtype = np.float64 if f.name.startswith("payment") else None
            arr = np.array(getattr(self, f.name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, f.name, arr)


def _trade_mechanism(instance: BilateralTradeInstance, pay_seller, pay_buyer) -> OneWayMechanism:
    """Efficient trade on ``to_one_way(instance)`` (action 1 hands the good over), with these payments."""
    traded = efficient_allocation(instance).astype(np.intp)
    return OneWayMechanism(traded, np.zeros_like(traded), pay_seller, pay_buyer)


@dataclass(frozen=True)
class PropertyReport:
    efficient: bool
    budget_balanced: bool
    incentive_compatible: bool
    individually_rational: bool
    witnesses: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return (
            self.efficient
            and self.budget_balanced
            and self.incentive_compatible
            and self.individually_rational
        )


def _ic_witnesses(u: np.ndarray, label: str, names: Sequence[str], tol: float) -> list[str]:
    """IC violations of a (true type x report) interim-utility table, in
    row-major order: the gain of each report over the truthful diagonal."""
    gain = u - np.diag(u)[:, None]
    bad = gain > tol
    return [
        f"{label} {names[i]} gains {g!r} reporting {names[k]}"
        for (i, k), g in zip(np.argwhere(bad).tolist(), gain[bad].tolist())
    ]


def check_properties(
    instance: BilateralTradeInstance, mech: OneWayMechanism, tol: float = 1e-9
) -> PropertyReport:
    """Audit a trade mechanism on ``to_one_way(instance)``: efficiency,
    budget balance, Bayes-Nash incentive compatibility and interim
    individual rationality. Near-ties in values (within tol) leave the
    allocation free; the witnesses name seller types s1, s2, ... and buyer
    types b1, b2, ... in increasing order of value."""
    return check_one_way_properties(to_one_way(instance), mech, tol)


def _checked_tables(game: OneWayGame, mech: OneWayMechanism) -> None:
    """Raise a ValueError naming the first table that is not A types by B
    types, or whose entries are not indices of the game's actions."""
    shape = (len(game.types_a), len(game.types_b))
    sizes = {"action_a": len(game.actions_a), "action_b": len(game.actions_b)}
    for f in fields(mech):
        table, n = getattr(mech, f.name), sizes.get(f.name)
        if table.shape != shape:
            raise ValueError(f"{f.name} has shape {table.shape}, expected {shape}")
        if n and not (np.issubdtype(table.dtype, np.integer) and np.all((table >= 0) & (table < n))):
            raise ValueError(f"{f.name} must hold action indices in [0, {n})")


def check_one_way_properties(
    game: OneWayGame, mech: OneWayMechanism, tol: float = 1e-9
) -> PropertyReport:
    """Audit a mechanism on a one-way game: efficiency, budget balance,
    Bayes-Nash incentive compatibility and interim individual rationality.

    Each report induces a distribution over A's actions (for A) or over
    action profiles (for B); one bincount each gives it, and the interim
    utilities, true type by report, are the payoff tables against those
    distributions plus the expected payments. Reservation utilities come
    from no-mechanism play: A falls back to her selfish optimum, B to her
    expected payoff against A's equilibrium map. Witness strings name every
    violation, property by property in type order.
    """
    _checked_tables(game, mech)
    act, reply = mech.action_a, mech.action_b
    pay_a, pay_b = mech.payment_a, mech.payment_b
    pa, pb = game.payoff_a, game.payoff_b
    (na, nb), n_act, n_reply = act.shape, len(game.actions_a), len(game.actions_b)

    welfare = pa[np.arange(na)[:, None], act] + pb[np.arange(nb), act, reply]
    opt = _optimal_table(game)
    short = welfare < opt - tol
    eff = [
        f"profile at ({game.types_a[i]}, {game.types_b[k]}) yields {w!r} < optimum {o!r}"
        for (i, k), w, o in zip(np.argwhere(short).tolist(), welfare[short].tolist(), opt[short].tolist())
    ]
    worst_bb = float(np.max(np.abs(pay_a + pay_b)))
    bb = [] if worst_bb <= tol else [f"payments sum to {worst_bb!r} somewhere, expected 0"]

    # W_a[r, s]: probability that A's report r leads to action s; W_b[r, s * n_reply + m]:
    # probability that B's report r leads to the profile (s, m)
    rows_a = np.arange(na)[:, None] * n_act + act
    W_a = np.bincount(
        rows_a.ravel(), np.broadcast_to(game.prior_b, act.shape).ravel(), na * n_act
    ).reshape(na, n_act)
    rows_b = (np.arange(nb)[None, :] * n_act + act) * n_reply + reply
    W_b = np.bincount(
        rows_b.ravel(), np.broadcast_to(game.prior_a[:, None], act.shape).ravel(), nb * n_act * n_reply
    ).reshape(nb, n_act * n_reply)
    u_a = pa @ W_a.T + pay_a @ game.prior_b
    u_b = pb.reshape(nb, -1) @ W_b.T + game.prior_a @ pay_b
    ic = _ic_witnesses(u_a, "A type", game.types_a, tol)
    ic += _ic_witnesses(u_b, "B type", game.types_b, tol)
    walk_b = _selfish_reply(game, game.prior_a)[1]
    sides = (("A", game.types_a, u_a, game.selfish_payoff_a), ("B", game.types_b, u_b, walk_b))
    ir = [
        f"{side} type {t} gets {x!r} < walk-away {r!r}"
        for side, types, u, walk in sides
        for t, x, r in zip(types, np.diag(u).tolist(), walk.tolist())
        if x < r - tol
    ]
    return PropertyReport(not eff, not bb, not ic, not ir, tuple(eff + bb + ic + ir))


def _reports(n: int, adjacent: bool) -> tuple[np.ndarray, np.ndarray]:
    """(true type, report) pairs of one side's IC rows, the report varying
    fastest: every other type, or with ``adjacent`` only the neighbours in
    value order."""
    if not adjacent:
        return np.nonzero(~np.eye(n, dtype=bool))
    true = np.arange(n).repeat(2)
    report = true + np.tile([-1, 1], n)
    keep = (report >= 0) & (report < n)
    return true[keep], report[keep]


def _interim_system(
    instance: BilateralTradeInstance, include_ir: bool = True, adjacent: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (A, b) of A (z, m) <= b over z = (X_s, Y), the seller's expected
    receipt per seller type and then the buyer's expected payment per buyer
    type, and the margin LP's common slack m, whose column is all ones. Rows
    run seller IC, buyer IC, seller IR, buyer IR; IC rows are ordered (true
    type, report) with the report varying fastest. A is written into one
    array, the only dense copy of the system.

    With ``adjacent`` a type's IC rows name only its neighbours in value
    order. Without a margin they imply the others: the efficient trade
    makes K and G nondecreasing in value, so for i < k < l the rows
    (i, k) and (k, l) add up to at least (i, l), since v_k (K_k - K_l) <=
    v_i (K_k - K_l), and the same holds downwards and for the buyer. A
    margin m would enter that sum twice, so a negative one needs every row.
    """
    sv = np.asarray(instance.seller_values)
    bv = np.asarray(instance.buyer_values)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    ns, nb = len(sv), len(bv)
    sigma = efficient_allocation(instance)
    K = (1.0 - sigma) @ f2
    G = f1 @ sigma
    i, k = _reports(ns, adjacent)
    j, l = _reports(nb, adjacent)
    ic = len(i) + len(j)
    A = np.zeros((ic + (ns + nb if include_ir else 0), ns + nb + 1))
    rows = np.arange(ic)
    A[rows, np.concatenate([k, ns + j])] = 1.0
    A[rows, np.concatenate([i, ns + l])] = -1.0
    rhs = [sv[i] * (K[i] - K[k]), bv[j] * (G[j] - G[l])]
    if include_ir:
        A[ic + np.arange(ns + nb), np.arange(ns + nb)] = np.repeat([-1.0, 1.0], [ns, nb])
        rhs += [sv * (K - 1.0), bv * G]
    A[:, -1] = 1.0
    return A, np.concatenate(rhs)


@dataclass(frozen=True)
class FeasibilityResult:
    """Unless infeasible, ``mechanism`` is on ``to_one_way(instance)``, with
    the seller's receipt in ``payment_a`` and the buyer's in ``payment_b``."""

    verdict: str  # "feasible" | "marginal" | "infeasible"
    margin: float
    constraints: int
    mechanism: OneWayMechanism | None
    certificate: np.ndarray | None
    certificate_residual: float | None
    certificate_value: float | None


def feasibility_lp(instance: BilateralTradeInstance, include_ir: bool = True) -> FeasibilityResult:
    """Decide whether an efficient, balanced, IC and IR mechanism exists.

    Maximizes the common slack margin m of all IC and IR rows over the
    interim transfers (X_s, Y) subject to f1 . X_s = f2 . Y. Any such pair
    is realised ex post by x_ij = X_s_i + Y_j - f1 . X_s (the buyer pays
    the seller x), so this is the ex-post LP in ns + nb columns.

    A margin of at least -1e-7 returns the realising transfers as a
    mechanism: above 1e-7 it is feasible, and in [-1e-7, 1e-7] the verdict
    is "marginal" and deliberately unsigned. Below -1e-7 it is infeasible, and
    the LP's inequality duals y >= 0 (scaled to max 1) are a Farkas
    certificate for the ex-post system A x <= b: dual feasibility makes the
    interim rows' y-combination a multiple of the balance row (f1, -f2),
    which lifts to zero ex post, so A'y = 0, and b'y has the margin's sign.
    Both are re-checked with plain arithmetic.
    """
    A, b = _interim_system(instance, include_ir=include_ir)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    (nrows, ncols), ns = A.shape, len(f1)
    c = np.zeros(ncols)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=A,
        b_ub=b,
        A_eq=np.concatenate([f1, -f2, [0.0]])[None, :],
        b_eq=[0.0],
        bounds=[(None, None)] * (ncols - 1) + [(None, MARGIN_CAP)],
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"margin LP failed: {res.message}")
    margin = float(res.x[-1])
    if margin >= -MARGIN_TOL:
        X_s, Y = res.x[:ns], res.x[ns:-1]
        x = X_s[:, None] + Y[None, :] - f1 @ X_s
        mech = _trade_mechanism(instance, x, -x)
        verdict = "feasible" if margin > MARGIN_TOL else "marginal"
        return FeasibilityResult(verdict, margin, nrows, mech, None, None, None)
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    y = y / np.max(y)
    # the ex-post row of pair (i, j) is f2_j times seller column i plus
    # f1_i times buyer column j, so (A'y)_ij = f2_j u_i + f1_i v_j
    u, v = np.split(A[:, :-1].T @ y, [ns])
    residual = float(np.max(np.abs(u[:, None] * f2[None, :] + f1[:, None] * v[None, :])))
    return FeasibilityResult("infeasible", margin, nrows, None, y, residual, float(b @ y))


def certificate_is_valid(result: FeasibilityResult, tol: float = CERT_TOL) -> bool:
    """Arithmetic re-check of a Farkas certificate, independent of the solver."""
    if result.certificate is None:
        return False
    y = result.certificate
    return bool(
        np.all(y >= 0.0)
        and result.certificate_residual is not None
        and result.certificate_residual <= tol
        and result.certificate_value is not None
        and result.certificate_value < 0.0
    )


@dataclass(frozen=True)
class SubsidyResult:
    subsidy: float
    raw_min_deficit: float
    mechanism: OneWayMechanism


def min_subsidy(instance: BilateralTradeInstance) -> SubsidyResult:
    """Smallest pointwise budget deficit making an efficient IC + IR mechanism
    on ``to_one_way(instance)`` possible: payment_a + payment_b <= d
    everywhere. A feasible instance yields d <= 0; the subsidy clamps at 0.

    The pointwise bound can never beat the expected deficit f1 . X_s + f2 . X_b
    (X_b = -Y is the buyer's expected receipt), and it meets it: the
    transfers t_s = X_s_i + f2 . X_b - X_b_j and t_b = X_b_j + f1 . X_s - X_s_i
    have those interim means and sum to the expected deficit everywhere. So
    one LP over the interim rows, minimizing f1 . X_s - f2 . Y, gives d.
    Its IC rows are the adjacent ones alone, which imply the rest
    (``_interim_system``).
    """
    A, b = _interim_system(instance, adjacent=True)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    ns = len(f1)
    res = linprog(
        np.concatenate([f1, -f2]),
        A_ub=A[:, :-1],
        b_ub=b,
        bounds=[(None, None)] * (A.shape[1] - 1),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"subsidy LP failed: {res.message}")
    X_s, X_b = res.x[:ns], -res.x[ns:]
    d_star = float(f1 @ X_s + f2 @ X_b)
    t_s = X_s[:, None] + (f2 @ X_b - X_b)[None, :]
    t_b = X_b[None, :] + (f1 @ X_s - X_s)[:, None]
    mech = _trade_mechanism(instance, t_s, t_b)
    return SubsidyResult(subsidy=max(0.0, d_star), raw_min_deficit=d_star, mechanism=mech)


@dataclass(frozen=True)
class RefinementRow:
    k: int | None
    verdict: str
    margin: float
    subsidy: float
    certificate_ok: bool | None
    certificate_residual: float | None


def feasibility_row(instance: BilateralTradeInstance, k: int | None = None) -> RefinementRow:
    """Verdict, margin, minimum subsidy and certificate check of one
    instance; ``certificate_ok`` is None unless the verdict is infeasible."""
    feas = feasibility_lp(instance)
    sub = min_subsidy(instance)
    cert_ok = certificate_is_valid(feas) if feas.verdict == "infeasible" else None
    residual = feas.certificate_residual
    return RefinementRow(k, feas.verdict, feas.margin, sub.subsidy, cert_ok, residual)


def refinement_sweep(ks: Iterable[int], workers: int | None = None) -> list[RefinementRow]:
    """Feasibility and minimum subsidy across grid refinements of the same
    continuous trade problem (both values uniform on [0, 1]), on ``workers``
    threads (default: one per CPU).

    Rows come back ordered by k regardless of worker scheduling. The trend
    is for the caller to inspect; nothing about monotonicity is assumed here.
    """
    ks = list(ks)

    def solve(k: int) -> RefinementRow:
        return feasibility_row(uniform_grid_instance(k), k)

    count = workers if workers is not None else os.cpu_count() or 1
    if count <= 1 or len(ks) <= 1:
        return [solve(k) for k in ks]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(solve, ks))
