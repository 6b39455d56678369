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
Importing this module (and the package, and its command line) therefore
does not load scipy; only solving a trade LP does. The solvers look the
name up as a module global on every call, so code that rebinds
``bilateral.linprog`` (a tracer, a test double) sees every solve.

The same trade problem embeds into a one-way game (the seller's payoff does
not depend on the buyer's single dummy action), and the property checks can
be run on either representation; they agree verdict for verdict.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .equilibrium import _optimal_table, _reply_b
from .game import OneWayGame, StrategyProfile, make_game

PROB_TOL = 1e-12
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
    if abs(sum(ps) - 1.0) > PROB_TOL:
        raise ValueError(f"{side}: probabilities sum to {sum(ps)!r}, expected 1")
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


@dataclass(frozen=True)
class DirectMechanism:
    """Allocation plus transfers paid TO each agent, indexed [seller, buyer]."""

    allocation: np.ndarray
    t_seller: np.ndarray
    t_buyer: np.ndarray


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


@dataclass(frozen=True)
class OneWayMechanism:
    """A direct mechanism stated on the one-way representation."""

    profile: dict[tuple[str, str], StrategyProfile]
    payment_a: dict[tuple[str, str], float]
    payment_b: dict[tuple[str, str], float]


def mechanism_to_one_way(
    instance: BilateralTradeInstance, mech: DirectMechanism
) -> tuple[OneWayGame, OneWayMechanism]:
    game = to_one_way(instance)
    pairs = list(product(game.types_a, game.types_b))
    traded = (np.asarray(mech.allocation) > 0.5).ravel().tolist()
    profile = {
        p: StrategyProfile("transfer" if t else "keep", "none") for p, t in zip(pairs, traded)
    }
    pay_a = dict(zip(pairs, np.asarray(mech.t_seller, dtype=np.float64).ravel().tolist()))
    pay_b = dict(zip(pairs, np.asarray(mech.t_buyer, dtype=np.float64).ravel().tolist()))
    return game, OneWayMechanism(profile, pay_a, pay_b)


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
    instance: BilateralTradeInstance, mech: DirectMechanism, tol: float = 1e-9
) -> PropertyReport:
    """Audit a trade mechanism: efficiency, budget balance, Bayes-Nash
    incentive compatibility and interim individual rationality.

    Near-ties in values (within tol) leave the allocation free. Witness
    strings name every violation, property by property in type order.
    """
    sv = np.asarray(instance.seller_values)
    bv = np.asarray(instance.buyer_values)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    sigma = np.asarray(mech.allocation, dtype=np.float64)
    ts = np.asarray(mech.t_seller, dtype=np.float64)
    tb = np.asarray(mech.t_buyer, dtype=np.float64)
    s_names = [repr(v) for v in instance.seller_values]
    b_names = [repr(v) for v in instance.buyer_values]

    missed = (sv[:, None] < bv[None, :] - tol) & (sigma < 0.5)
    wasted = (sv[:, None] > bv[None, :] + tol) & (sigma > 0.5)
    eff = [
        f"no trade at seller {s_names[i]} < buyer {b_names[j]}"
        if missed[i, j]
        else f"trade at seller {s_names[i]} > buyer {b_names[j]}"
        for i, j in np.argwhere(missed | wasted).tolist()
    ]
    worst_bb = float(np.max(np.abs(ts + tb)))
    bb = [] if worst_bb <= tol else [f"transfers sum to {worst_bb!r} somewhere, expected 0"]

    # interim utilities, true type by report: the seller keeps with prob K
    # and is paid X_s; the buyer gets the good with prob G, is paid X_b
    u_s = sv[:, None] * ((1.0 - sigma) @ f2) + ts @ f2
    u_b = bv[:, None] * (f1 @ sigma) + f1 @ tb
    ic = _ic_witnesses(u_s, "seller", s_names, tol) + _ic_witnesses(u_b, "buyer", b_names, tol)
    ir = [
        f"seller {n} is {-x!r} below her walk-away value"
        for n, x in zip(s_names, (np.diag(u_s) - sv).tolist())
        if x < -tol
    ]
    ir += [
        f"buyer {n} is {-x!r} below zero"
        for n, x in zip(b_names, np.diag(u_b).tolist())
        if x < -tol
    ]
    return PropertyReport(not eff, not bb, not ic, not ir, tuple(eff + bb + ic + ir))


def check_one_way_properties(
    game: OneWayGame, mech: OneWayMechanism, tol: float = 1e-9
) -> PropertyReport:
    """The same audit stated on a one-way game.

    Reservation utilities come from no-mechanism play: A falls back to her
    selfish optimum, B to her expected payoff against A's equilibrium map.
    """
    pairs = list(product(game.types_a, game.types_b))
    shape = (len(game.types_a), len(game.types_b))
    profiles = [mech.profile[p] for p in pairs]
    act = np.reshape([game.action_a_index(p.action_a) for p in profiles], shape)
    reply = np.reshape([game.action_b_index(p.action_b) for p in profiles], shape)
    pay_a = np.reshape([mech.payment_a[p] for p in pairs], shape)
    pay_b = np.reshape([mech.payment_b[p] for p in pairs], shape)
    pa, pb = game.payoff_a, game.payoff_b

    welfare = pa[np.arange(shape[0])[:, None], act] + pb[np.arange(shape[1]), act, reply]
    opt = _optimal_table(game)
    eff = [
        f"profile at ({ta}, {tb}) yields {w!r} < optimum {o!r}"
        for (ta, tb), w, o in zip(pairs, welfare.ravel().tolist(), opt.ravel().tolist())
        if w < o - tol
    ]
    worst_bb = float(np.max(np.abs(pay_a + pay_b)))
    bb = [] if worst_bb <= tol else [f"payments sum to {worst_bb!r} somewhere, expected 0"]

    # interim utilities, true type by report, B's reply held at the profile's
    u_a = (pa[:, act] + pay_a) @ game.prior_b
    u_b = game.prior_a @ (pb[:, act, reply] + pay_b)
    ic = _ic_witnesses(u_a, "A type", game.types_a, tol)
    ic += _ic_witnesses(u_b, "B type", game.types_b, tol)
    a_idx = np.argmax(pa, axis=1)
    b_idx = [_reply_b(game, itb, a_idx) for itb in range(shape[1])]
    walk_b = game.prior_a @ pb[np.arange(shape[1]), a_idx[:, None], b_idx]
    sides = (("A", game.types_a, u_a, np.max(pa, axis=1)), ("B", game.types_b, u_b, walk_b))
    ir = [
        f"{side} type {t} gets {x!r} < walk-away {r!r}"
        for side, types, u, walk in sides
        for t, x, r in zip(types, np.diag(u).tolist(), walk.tolist())
        if x < r - tol
    ]
    return PropertyReport(not eff, not bb, not ic, not ir, tuple(eff + bb + ic + ir))


def _interim_system(
    instance: BilateralTradeInstance, include_ir: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (A, b) of A z <= b over z = (X_s, Y): the seller's expected
    receipt per seller type, then the buyer's expected payment per buyer
    type. Rows run seller IC, buyer IC, seller IR, buyer IR; IC rows are
    ordered (true type, report) with the report varying fastest."""
    sv = np.asarray(instance.seller_values)
    bv = np.asarray(instance.buyer_values)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    ns, nb = len(sv), len(bv)
    sigma = efficient_allocation(instance)
    K = (1.0 - sigma) @ f2
    G = f1 @ sigma
    eye_s, eye_b = np.eye(ns), np.eye(nb)
    i, k = np.nonzero(~np.eye(ns, dtype=bool))
    j, l = np.nonzero(~np.eye(nb, dtype=bool))
    rows = [
        np.hstack([eye_s[k] - eye_s[i], np.zeros((len(i), nb))]),
        np.hstack([np.zeros((len(j), ns)), eye_b[j] - eye_b[l]]),
    ]
    rhs = [sv[i] * (K[i] - K[k]), bv[j] * (G[j] - G[l])]
    if include_ir:
        rows += [np.hstack([-eye_s, np.zeros((ns, nb))]), np.hstack([np.zeros((nb, ns)), eye_b])]
        rhs += [sv * (K - 1.0), bv * G]
    return np.vstack(rows), np.concatenate(rhs)


@dataclass(frozen=True)
class FeasibilityResult:
    verdict: str  # "feasible" | "marginal" | "infeasible"
    margin: float
    constraints: int
    mechanism: DirectMechanism | None
    certificate: np.ndarray | None
    certificate_residual: float | None
    certificate_value: float | None


def feasibility_lp(instance: BilateralTradeInstance, include_ir: bool = True) -> FeasibilityResult:
    """Decide whether an efficient, balanced, IC and IR mechanism exists.

    Maximizes the common slack margin m of all IC and IR rows over the
    interim transfers (X_s, Y) subject to f1 . X_s = f2 . Y. Any such pair
    is realised ex post by x_ij = X_s_i + Y_j - f1 . X_s (the buyer pays
    the seller x), so this is the ex-post LP in ns + nb columns.

    A margin above 1e-7 is feasible and the realising transfers are
    returned as a concrete mechanism; in [-1e-7, 1e-7] the verdict is
    "marginal" and deliberately unsigned. Below -1e-7 it is infeasible, and
    the LP's inequality duals y >= 0 (scaled to max 1) are a Farkas
    certificate for the ex-post system A x <= b: dual feasibility makes the
    interim rows' y-combination a multiple of the balance row (f1, -f2),
    which lifts to zero ex post, so A'y = 0, and b'y has the margin's sign.
    Both are re-checked with plain arithmetic.
    """
    A, b = _interim_system(instance, include_ir=include_ir)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    ns, nrows = len(f1), len(b)
    c = np.zeros(A.shape[1] + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=np.hstack([A, np.ones((nrows, 1))]),
        b_ub=b,
        A_eq=np.concatenate([f1, -f2, [0.0]])[None, :],
        b_eq=[0.0],
        bounds=[(None, None)] * A.shape[1] + [(None, MARGIN_CAP)],
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"margin LP failed: {res.message}")
    margin = float(res.x[-1])
    if margin >= -MARGIN_TOL:
        X_s, Y = res.x[:ns], res.x[ns:-1]
        x = X_s[:, None] + Y[None, :] - f1 @ X_s
        mech = DirectMechanism(allocation=efficient_allocation(instance), t_seller=x, t_buyer=-x)
        verdict = "feasible" if margin > MARGIN_TOL else "marginal"
        return FeasibilityResult(verdict, margin, nrows, mech, None, None, None)
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    y = y / np.max(y)
    # the ex-post row of pair (i, j) is f2_j times seller column i plus
    # f1_i times buyer column j, so (A'y)_ij = f2_j u_i + f1_i v_j
    u, v = np.split(A.T @ y, [ns])
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
    mechanism: DirectMechanism


def min_subsidy(instance: BilateralTradeInstance) -> SubsidyResult:
    """Smallest pointwise budget deficit making an efficient IC + IR mechanism
    possible. Budget balance is relaxed to t_seller + t_buyer <= d everywhere;
    a feasible instance yields d <= 0 and the reported subsidy clamps at 0.

    The pointwise bound can never beat the expected deficit f1 . X_s + f2 . X_b
    (X_b = -Y is the buyer's expected receipt), and it meets it: the
    transfers t_s = X_s_i + f2 . X_b - X_b_j and t_b = X_b_j + f1 . X_s - X_s_i
    have those interim means and sum to the expected deficit everywhere. So
    one LP over the interim rows, minimizing f1 . X_s - f2 . Y, gives d.
    """
    A, b = _interim_system(instance)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    ns = len(f1)
    res = linprog(
        np.concatenate([f1, -f2]),
        A_ub=A,
        b_ub=b,
        bounds=[(None, None)] * A.shape[1],
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"subsidy LP failed: {res.message}")
    X_s, X_b = res.x[:ns], -res.x[ns:]
    d_star = float(f1 @ X_s + f2 @ X_b)
    t_s = X_s[:, None] + (f2 @ X_b - X_b)[None, :]
    t_b = X_b[None, :] + (f1 @ X_s - X_s)[:, None]
    mech = DirectMechanism(allocation=efficient_allocation(instance), t_seller=t_s, t_buyer=t_b)
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
