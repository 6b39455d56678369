"""Dense ex-post trade LPs, kept as a test oracle for ``oneway.bilateral``.

These are the original builders over ex-post transfers: one column per
(seller, buyer) value pair, or two per pair plus the deficit for the
subsidy LP, with rows filled by Python loops. They are exact but slow;
the package solves the same problems in interim form, and the tests
compare the two.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from oneway.bilateral import (
    MARGIN_CAP,
    MARGIN_TOL,
    BilateralTradeInstance,
    DirectMechanism,
    FeasibilityResult,
    SubsidyResult,
    efficient_allocation,
)


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
        mech = DirectMechanism(allocation=sigma, t_seller=x, t_buyer=-x)
        return FeasibilityResult("feasible", margin, nrows, mech, None, None, None)
    if margin >= -MARGIN_TOL:
        x = res.x[:nvar].reshape(len(instance.seller_values), len(instance.buyer_values))
        mech = DirectMechanism(allocation=sigma, t_seller=x, t_buyer=-x)
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
    mech = DirectMechanism(allocation=sigma, t_seller=t_s, t_buyer=t_b)
    return SubsidyResult(subsidy=max(0.0, d_star), raw_min_deficit=d_star, mechanism=mech)
