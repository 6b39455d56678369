"""Dense ex-post trade LPs and loop audits, kept as a test oracle for
``oneway.bilateral``.

These are the original builders over ex-post transfers: one column per
(seller, buyer) value pair, or two per pair plus the deficit for the
subsidy LP, with rows filled by Python loops. They are exact but slow;
the package solves the same problems in interim form, and the tests
compare the two. The property audits here are the original per-type-pair
loops, one on the trade form and one on the one-way embedding; the package
has a single audit, on interim tables of the embedding. The oracle states
its mechanisms in its own trade form, ``TradeMechanism``, rather than in
the package's ``OneWayMechanism``; ``trade_form`` converts the package's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from oneway.bilateral import (
    MARGIN_CAP,
    MARGIN_TOL,
    BilateralTradeInstance,
    FeasibilityResult,
    OneWayMechanism,
    PropertyReport,
    SubsidyResult,
    efficient_allocation,
)
from oneway.game import OneWayGame, StrategyProfile, optimal_welfare, social_welfare


class TradeMechanism(NamedTuple):
    """Allocation plus transfers paid TO each agent, indexed [seller, buyer]."""

    allocation: np.ndarray
    t_seller: np.ndarray
    t_buyer: np.ndarray


def trade_form(mech: OneWayMechanism) -> TradeMechanism:
    """A trade mechanism on ``to_one_way``'s game in the oracle's form: the
    seller's action (1 hands the good over) is the allocation."""
    return TradeMechanism(mech.action_a.astype(np.float64), mech.payment_a, mech.payment_b)


def _constraint_system(
    instance: BilateralTradeInstance, include_ir: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (A, b) of A x <= b over x = seller transfers, with budget balance
    substituted (the buyer pays exactly what the seller receives)."""
    sv = np.asarray(instance.seller_values)
    bv = np.asarray(instance.buyer_values)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    ns, nb = len(sv), len(bv)
    sigma = efficient_allocation(instance)
    K = (1.0 - sigma) @ f2
    G = f1 @ sigma
    nvar = ns * nb

    def var(i: int, j: int) -> int:
        return i * nb + j

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for i in range(ns):
        for k in range(ns):
            if i == k:
                continue
            row = np.zeros(nvar)
            for j in range(nb):
                row[var(k, j)] += f2[j]
                row[var(i, j)] -= f2[j]
            rows.append(row)
            rhs.append(float(sv[i] * (K[i] - K[k])))
    for j in range(nb):
        for k in range(nb):
            if j == k:
                continue
            row = np.zeros(nvar)
            for i in range(ns):
                row[var(i, j)] += f1[i]
                row[var(i, k)] -= f1[i]
            rows.append(row)
            rhs.append(float(bv[j] * (G[j] - G[k])))
    if include_ir:
        for i in range(ns):
            row = np.zeros(nvar)
            for j in range(nb):
                row[var(i, j)] -= f2[j]
            rows.append(row)
            rhs.append(float(sv[i] * (K[i] - 1.0)))
        for j in range(nb):
            row = np.zeros(nvar)
            for i in range(ns):
                row[var(i, j)] += f1[i]
            rows.append(row)
            rhs.append(float(bv[j] * G[j]))
    if not rows:
        return np.zeros((0, nvar)), np.zeros(0)
    return np.asarray(rows), np.asarray(rhs)


def feasibility_lp(instance: BilateralTradeInstance, include_ir: bool = True) -> FeasibilityResult:
    """Decide whether an efficient, balanced, IC and IR mechanism exists.

    Maximizes the common slack margin of all constraints. A margin above
    1e-7 is feasible and the maximizing transfers are returned as a concrete
    mechanism; below -1e-7 is infeasible and a Farkas certificate (y >= 0,
    A'y = 0, b'y < 0) is computed and re-verified with plain arithmetic;
    in between the verdict is "marginal" and deliberately unsigned.
    """
    A, b = _constraint_system(instance, include_ir=include_ir)
    nrows, nvar = A.shape
    A_margin = np.hstack([A, np.ones((nrows, 1))])
    c = np.zeros(nvar + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * nvar + [(None, MARGIN_CAP)]
    res = linprog(c, A_ub=A_margin, b_ub=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"margin LP failed: {res.message}")
    margin = float(res.x[-1])
    sigma = efficient_allocation(instance)
    if margin > MARGIN_TOL:
        x = res.x[:nvar].reshape(len(instance.seller_values), len(instance.buyer_values))
        mech = TradeMechanism(sigma, x, -x)
        return FeasibilityResult("feasible", margin, nrows, mech, None, None, None)
    if margin >= -MARGIN_TOL:
        x = res.x[:nvar].reshape(len(instance.seller_values), len(instance.buyer_values))
        mech = TradeMechanism(sigma, x, -x)
        return FeasibilityResult("marginal", margin, nrows, mech, None, None, None)
    far = linprog(b, A_eq=A.T, b_eq=np.zeros(nvar), bounds=[(0.0, 1.0)] * nrows, method="highs")
    if far.status != 0:
        raise RuntimeError(f"certificate LP failed: {far.message}")
    y = np.asarray(far.x)
    scale = float(np.max(np.abs(y)))
    if scale > 0.0:
        y = y / scale
    residual = float(np.max(np.abs(A.T @ y)))
    value = float(b @ y)
    return FeasibilityResult("infeasible", margin, nrows, None, y, residual, value)


def min_subsidy(instance: BilateralTradeInstance) -> SubsidyResult:
    """Smallest pointwise budget deficit making an efficient IC + IR mechanism
    possible. Budget balance is relaxed to t_seller + t_buyer <= d everywhere;
    a feasible instance yields d <= 0 and the reported subsidy clamps at 0.
    """
    sv = np.asarray(instance.seller_values)
    bv = np.asarray(instance.buyer_values)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    ns, nb = len(sv), len(bv)
    sigma = efficient_allocation(instance)
    K = (1.0 - sigma) @ f2
    G = f1 @ sigma
    nv = ns * nb

    def vs(i: int, j: int) -> int:
        return i * nb + j

    def vb(i: int, j: int) -> int:
        return nv + i * nb + j

    d_col = 2 * nv
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for i in range(ns):
        for k in range(ns):
            if i == k:
                continue
            row = np.zeros(2 * nv + 1)
            for j in range(nb):
                row[vs(k, j)] += f2[j]
                row[vs(i, j)] -= f2[j]
            rows.append(row)
            rhs.append(float(sv[i] * (K[i] - K[k])))
    for j in range(nb):
        for k in range(nb):
            if j == k:
                continue
            row = np.zeros(2 * nv + 1)
            for i in range(ns):
                row[vb(i, k)] += f1[i]
                row[vb(i, j)] -= f1[i]
            rows.append(row)
            rhs.append(float(bv[j] * (G[j] - G[k])))
    for i in range(ns):
        row = np.zeros(2 * nv + 1)
        for j in range(nb):
            row[vs(i, j)] -= f2[j]
        rows.append(row)
        rhs.append(float(sv[i] * (K[i] - 1.0)))
    for j in range(nb):
        row = np.zeros(2 * nv + 1)
        for i in range(ns):
            row[vb(i, j)] -= f1[i]
        rows.append(row)
        rhs.append(float(bv[j] * G[j]))
    for i in range(ns):
        for j in range(nb):
            row = np.zeros(2 * nv + 1)
            row[vs(i, j)] = 1.0
            row[vb(i, j)] = 1.0
            row[d_col] = -1.0
            rows.append(row)
            rhs.append(0.0)
    c = np.zeros(2 * nv + 1)
    c[d_col] = 1.0
    res = linprog(
        c,
        A_ub=np.asarray(rows),
        b_ub=np.asarray(rhs),
        bounds=[(None, None)] * (2 * nv + 1),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"subsidy LP failed: {res.message}")
    d_star = float(res.x[d_col])
    t_s = res.x[:nv].reshape(ns, nb)
    t_b = res.x[nv : 2 * nv].reshape(ns, nb)
    mech = TradeMechanism(sigma, t_s, t_b)
    return SubsidyResult(subsidy=max(0.0, d_star), raw_min_deficit=d_star, mechanism=mech)


def check_properties(
    instance: BilateralTradeInstance, mech: TradeMechanism, tol: float = 1e-9
) -> PropertyReport:
    """Audit a trade mechanism: efficiency, budget balance, Bayes-Nash
    incentive compatibility and interim individual rationality.

    Near-ties in values (within tol) leave the allocation free. Witness
    strings pinpoint the first few violations of each property.
    """
    sv = np.asarray(instance.seller_values)
    bv = np.asarray(instance.buyer_values)
    f1 = np.asarray(instance.seller_probs)
    f2 = np.asarray(instance.buyer_probs)
    sigma = np.asarray(mech.allocation, dtype=np.float64)
    ts = np.asarray(mech.t_seller, dtype=np.float64)
    tb = np.asarray(mech.t_buyer, dtype=np.float64)
    witnesses: list[str] = []

    efficient = True
    for i in range(len(sv)):
        for j in range(len(bv)):
            if sv[i] < bv[j] - tol and sigma[i, j] < 0.5:
                efficient = False
                witnesses.append(f"no trade at seller {sv[i]!r} < buyer {bv[j]!r}")
            elif sv[i] > bv[j] + tol and sigma[i, j] > 0.5:
                efficient = False
                witnesses.append(f"trade at seller {sv[i]!r} > buyer {bv[j]!r}")

    worst_bb = float(np.max(np.abs(ts + tb)))
    budget_balanced = worst_bb <= tol
    if not budget_balanced:
        witnesses.append(f"transfers sum to {worst_bb!r} somewhere, expected 0")

    # interim quantities. Seller keeps with prob K, is paid X_s; buyer gets
    # the good with prob G, is paid X_b (usually negative).
    keep = 1.0 - sigma
    K = keep @ f2
    X_s = ts @ f2
    G = f1 @ sigma
    X_b = f1 @ tb

    ic = True
    for i in range(len(sv)):
        truthful = sv[i] * K[i] + X_s[i]
        for k in range(len(sv)):
            gain = (sv[i] * K[k] + X_s[k]) - truthful
            if gain > tol:
                ic = False
                witnesses.append(f"seller {sv[i]!r} gains {gain!r} reporting {sv[k]!r}")
    for j in range(len(bv)):
        truthful = bv[j] * G[j] + X_b[j]
        for k in range(len(bv)):
            gain = (bv[j] * G[k] + X_b[k]) - truthful
            if gain > tol:
                ic = False
                witnesses.append(f"buyer {bv[j]!r} gains {gain!r} reporting {bv[k]!r}")

    ir = True
    for i in range(len(sv)):
        slack = (sv[i] * K[i] + X_s[i]) - sv[i]
        if slack < -tol:
            ir = False
            witnesses.append(f"seller {sv[i]!r} is {-slack!r} below her walk-away value")
    for j in range(len(bv)):
        slack = bv[j] * G[j] + X_b[j]
        if slack < -tol:
            ir = False
            witnesses.append(f"buyer {bv[j]!r} is {-slack!r} below zero")

    return PropertyReport(efficient, budget_balanced, ic, ir, tuple(witnesses))


def check_one_way_properties(
    game: OneWayGame, mech: OneWayMechanism, tol: float = 1e-9
) -> PropertyReport:
    """The same audit stated on a one-way game.

    Reservation utilities come from no-mechanism play: A falls back to her
    selfish optimum, B to her expected payoff against A's equilibrium map.
    Both maps come from plain loops here (first index on ties), not from
    the game's tables.
    """
    # the mechanism's tables, looked up one type pair at a time
    cells = {
        (ta, tb): (ita, itb)
        for ita, ta in enumerate(game.types_a)
        for itb, tb in enumerate(game.types_b)
    }
    profile = {
        p: StrategyProfile(game.actions_a[mech.action_a[c]], game.actions_b[mech.action_b[c]])
        for p, c in cells.items()
    }
    payment_a = {p: float(mech.payment_a[c]) for p, c in cells.items()}
    payment_b = {p: float(mech.payment_b[c]) for p, c in cells.items()}

    witnesses: list[str] = []
    efficient = True
    worst_bb = 0.0
    for ta in game.types_a:
        for tb in game.types_b:
            prof = profile[(ta, tb)]
            w = social_welfare(game, prof, (ta, tb))
            _, opt = optimal_welfare(game, (ta, tb))
            if w < opt - tol:
                efficient = False
                witnesses.append(f"profile at ({ta}, {tb}) yields {w!r} < optimum {opt!r}")
            bb = abs(payment_a[(ta, tb)] + payment_b[(ta, tb)])
            worst_bb = max(worst_bb, bb)
    budget_balanced = worst_bb <= tol
    if not budget_balanced:
        witnesses.append(f"payments sum to {worst_bb!r} somewhere, expected 0")

    ic = True
    for ta in game.types_a:
        def util_a(report: str, true: str = ta) -> float:
            total = 0.0
            for jtb, tb in enumerate(game.types_b):
                prof = profile[(report, tb)]
                total += float(game.prior_b[jtb]) * (
                    game.u_a(prof.action_a, true) + payment_a[(report, tb)]
                )
            return total

        truthful = util_a(ta)
        for other in game.types_a:
            gain = util_a(other) - truthful
            if gain > tol:
                ic = False
                witnesses.append(f"A type {ta} gains {gain!r} reporting {other}")
    for tb in game.types_b:
        def util_b(report: str, true: str = tb) -> float:
            total = 0.0
            for ita, ta in enumerate(game.types_a):
                prof = profile[(ta, report)]
                total += float(game.prior_a[ita]) * (
                    game.u_b(prof, true) + payment_b[(ta, report)]
                )
            return total

        truthful = util_b(tb)
        for other in game.types_b:
            gain = util_b(other) - truthful
            if gain > tol:
                ic = False
                witnesses.append(f"B type {tb} gains {gain!r} reporting {other}")

    ir = True
    nash_a = {}
    for ta in game.types_a:
        payoffs = [game.u_a(sa, ta) for sa in game.actions_a]
        nash_a[ta] = game.actions_a[payoffs.index(max(payoffs))]
    for ita, ta in enumerate(game.types_a):
        truthful = 0.0
        for jtb, tb in enumerate(game.types_b):
            prof = profile[(ta, tb)]
            truthful += float(game.prior_b[jtb]) * (
                game.u_a(prof.action_a, ta) + payment_a[(ta, tb)]
            )
        reservation = game.u_a(nash_a[ta], ta)
        if truthful < reservation - tol:
            ir = False
            witnesses.append(f"A type {ta} gets {truthful!r} < walk-away {reservation!r}")
    for jtb, tb in enumerate(game.types_b):
        truthful = 0.0
        reservation = 0.0
        expected = [
            sum(float(fa) * game.u_b((nash_a[ta], s), tb) for fa, ta in zip(game.prior_a, game.types_a))
            for s in game.actions_b
        ]
        sb = game.actions_b[expected.index(max(expected))]
        for ita, ta in enumerate(game.types_a):
            prof = profile[(ta, tb)]
            fa = float(game.prior_a[ita])
            truthful += fa * (game.u_b(prof, tb) + payment_b[(ta, tb)])
            reservation += fa * game.u_b((nash_a[ta], sb), tb)
        if truthful < reservation - tol:
            ir = False
            witnesses.append(f"B type {tb} gets {truthful!r} < walk-away {reservation!r}")

    return PropertyReport(efficient, budget_balanced, ic, ir, tuple(witnesses))


def witness_counts(rep: PropertyReport) -> tuple[int, int, int, int]:
    """Witnesses per property (efficiency, budget balance, IC, IR), read
    from the trade-form wording or the one-way wording alike."""
    bb = sum("sum to" in w for w in rep.witnesses)
    ic = sum(" gains " in w for w in rep.witnesses)
    ir = sum("walk-away" in w or "below zero" in w for w in rep.witnesses)
    return (len(rep.witnesses) - bb - ic - ir, bb, ic, ir)
