"""Output checks for the benchmark's commands.

Each report must parse, carry the expected columns and row count, and hold
the right values. Values are compared, never bytes, so a change that alters
report formatting on purpose still passes:

- seed-independent reports (closed-form curves, the uniform-grid trade sweep)
  against values recorded from the package as of commit a839576, in
  ``golden.json``;
- seed-dependent reports against oracles computed here from the input files
  (vectorised offer search, PoA tables, schedule thresholds, and the trade
  LPs in interim form);
- Monte Carlo estimates against closed forms or exact evaluations, within a
  stated multiple of their reported 99% half-widths.

Tolerances: LP values 1e-7 absolute plus 1e-7 relative (the trade LP's own
margin tolerance), oracle values 1e-9 relative, closed forms 1e-12 relative.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

LP_TOL = 1e-7
ORACLE_TOL = 1e-9
CLOSED_TOL = 1e-12
# Multiple of a reported 99% half-width (z = 2.576) within which a Monte
# Carlo estimate must land: 2 x 2.576 = 5.2 standard errors.
CI_MULTIPLE = 2.0
Z99 = 2.5758293035489004
GOLDEN = Path(__file__).with_name("golden.json")


class CheckFailure(Exception):
    pass


def parse_report(text: str) -> tuple[dict, list[str], list[dict]]:
    """Split a report into its '# key: value' header, columns and rows."""
    lines = text.splitlines()
    header = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].strip().partition(": ")
        header[key] = value
        i += 1
    body = list(csv.reader(lines[i:]))
    if not body:
        raise CheckFailure("report has no column line")
    columns = body[0]
    rows = []
    for n, cells in enumerate(body[1:], start=1):
        if len(cells) != len(columns):
            raise CheckFailure(f"row {n} has {len(cells)} cells for {len(columns)} columns")
        rows.append(dict(zip(columns, cells)))
    return header, columns, rows


def _num(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CheckFailure(f"expected a number, got {cell!r}") from None


def _close(name: str, got: float, want: float, rel: float, abs_tol: float = 0.0) -> None:
    if math.isinf(want) or math.isinf(got):
        if got != want:
            raise CheckFailure(f"{name}: got {got!r}, expected {want!r}")
        return
    if not abs(got - want) <= abs_tol + rel * max(1.0, abs(want)):
        raise CheckFailure(f"{name}: got {got!r}, expected {want!r}")


def _within_ci(name: str, est: float, exact: float, half_width: float) -> None:
    limit = CI_MULTIPLE * half_width + ORACLE_TOL * max(1.0, abs(exact))
    if not abs(est - exact) <= limit:
        raise CheckFailure(f"{name}: estimate {est!r} is {abs(est - exact)!r} from {exact!r}, limit {limit!r}")


def _binomial_half_width(p: float, n: int) -> float:
    return Z99 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise CheckFailure(f"expected true or false, got {cell!r}")
    return cell == "true"


def _report(text: str, subcommand: str, columns: list[str], nrows: int) -> list[dict]:
    header, cols, rows = parse_report(text)
    if header.get("subcommand") != subcommand:
        raise CheckFailure(f"subcommand header {header.get('subcommand')!r}, expected {subcommand!r}")
    missing = [c for c in columns if c not in cols]
    if missing:
        raise CheckFailure(f"missing columns {missing}")
    if len(rows) != nrows:
        raise CheckFailure(f"{len(rows)} rows, expected {nrows}")
    return rows


class GameOracle:
    """Reference computations on a game file, independent of the package."""

    def __init__(self, path: Path):
        data = json.loads(path.read_text(encoding="utf-8"))
        self.actions_a = data["actions_A"]
        self.actions_b = data["actions_B"]
        self.types_a = [t["id"] for t in data["types_A"]]
        self.types_b = [t["id"] for t in data["types_B"]]
        self.fa = np.array([t["prob"] for t in data["types_A"]], dtype=np.float64)
        self.fb = np.array([t["prob"] for t in data["types_B"]], dtype=np.float64)
        self.pa = np.array(data["payoff_A"], dtype=np.float64)
        self.pb = np.array(data["payoff_B"], dtype=np.float64)
        self.nash_a = np.argmax(self.pa, axis=1)
        self.best_a = np.max(self.pa, axis=1)

    def nash_b(self, k: int) -> int:
        return int(np.argmax(self.fa @ self.pb[k, self.nash_a, :]))

    def outside(self, j: int, k: int) -> tuple[int, float]:
        """B's fallback reply and value when A rejects an offer for action j."""
        restricted = self.pa[:, j] != self.best_a
        mass = float(np.sum(self.fa[restricted]))
        if not restricted.any() or mass <= 0.0:
            br = int(np.argmax(self.pb[k, j]))
            return br, float(self.pb[k, j, br])
        vals = (self.fa[restricted] / mass) @ self.pb[k, self.nash_a[restricted], :]
        ib = int(np.argmax(vals))
        return ib, float(vals[ib])

    def gain(self, j: int, k: int) -> float:
        return float(np.max(self.pb[k, j])) - self.outside(j, k)[1]

    def sacrifice(self, j: int) -> np.ndarray:
        return self.best_a - self.pa[:, j]

    def candidates(self, j: int, db: float) -> tuple[np.ndarray, np.ndarray]:
        """Kink shares in [0, 1] and the acceptance mass at each (share 0
        first). Mass is summed in sacrifice space, so no share rounding
        enters it."""
        da = self.sacrifice(j)
        order = np.argsort(da, kind="stable")
        da_s = da[order]
        cum = np.cumsum(self.fa[order])
        last = np.searchsorted(da_s, da_s, side="right") - 1
        gammas = da_s / db
        keep = gammas <= 1.0
        p0 = float(np.sum(self.fa[da <= 0.0]))
        return np.concatenate([[0.0], gammas[keep]]), np.concatenate([[p0], cum[last][keep]])

    def optimal_offer(self, k: int) -> dict:
        """B's best single offer: value, share, action; ties within 1e-9
        go to the smaller share, then the lower action index."""
        scored = []
        for j in range(len(self.actions_a)):
            db = self.gain(j, k)
            if db <= 0.0:
                continue
            out = self.outside(j, k)[1]
            gammas, probs = self.candidates(j, db)
            values = out + probs * (1.0 - gammas) * db
            scored.extend(zip(values.tolist(), gammas.tolist(), [j] * len(gammas)))
        if not scored:
            ib = self.nash_b(k)
            value = float(self.fa @ self.pb[k, self.nash_a, ib])
            return {"value": value, "gamma": 0.0, "action": None, "null": True}
        best = max(s[0] for s in scored)
        value, gamma, j = min((s for s in scored if s[0] >= best - 1e-9), key=lambda s: (s[1], s[2]))
        return {"value": value, "gamma": gamma, "action": self.actions_a[j], "null": False}

    def simplified_offer(self, k: int) -> dict:
        j = int(np.argmax(np.max(self.pb[k], axis=1)))
        db = self.gain(j, k)
        out = self.outside(j, k)[1]
        gamma, prob = 0.0, float(np.sum(self.fa[self.sacrifice(j) <= 0.0]))
        if db > 0.0:
            gammas, probs = self.candidates(j, db)
            order = np.argsort(gammas, kind="stable")
            best_v = -math.inf
            for g, p in zip(gammas[order].tolist(), probs[order].tolist()):
                if p * (1.0 - g) > best_v:
                    best_v, gamma, prob = p * (1.0 - g), g, p
        bound = math.inf if gamma == 0.0 else ((gamma + 1.0) / gamma) * (1.0 - prob * (1.0 - gamma))
        return {
            "action": self.actions_a[j],
            "gamma": gamma,
            "acceptance": prob,
            "value": out + prob * (1.0 - gamma) * db,
            "bound": bound,
        }

    def schedule(self, spec: dict, k: int) -> dict:
        """Exact planning value, welfare and acceptance of a posted schedule."""
        j = self.actions_a.index(spec["action"])
        g, p = spec["gammas"], spec["probs"]
        n = len(g)
        s = [0.0] + [(g[i - 1] - p[i] * g[i]) / (1.0 - p[i]) for i in range(1, n)] + [g[n - 1]]
        reach = np.cumprod(p).tolist()
        out_b, out = self.outside(j, k)
        db = self.gain(j, k)
        da = self.sacrifice(j)
        ub_accept = float(np.max(self.pb[k, j]))
        plan = sw = accept = 0.0
        for i in range(len(self.types_a)):
            f = float(self.fa[i])
            ua_nash = float(self.best_a[i])
            reject_sw = ua_nash + float(self.pb[k, self.nash_a[i], out_b])
            step = next((m for m in range(1, n + 1) if float(da[i]) <= s[m] * db), None)
            if step is None:
                plan += f * out
                sw += f * reject_sw
                continue
            r = reach[step - 1]
            plan += f * (out + r * (1.0 - g[step - 1]) * db)
            sw += f * (r * (float(self.pa[i, j]) + ub_accept) + (1.0 - r) * reject_sw)
            accept += f * r
        return {"planning": plan, "welfare": sw, "acceptance": accept}

    def poa_tables(self) -> dict:
        nb = np.array([self.nash_b(k) for k in range(len(self.types_b))])
        eq = self.best_a[:, None] + self.pb[:, self.nash_a, :][np.arange(len(self.types_b)), :, nb].T
        opt = np.max(self.pa[:, None, :, None] + self.pb[None, :, :, :], axis=(2, 3))
        ub_best = np.max(self.pb, axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            per = np.where(eq == 0.0, np.where(opt == 0.0, 1.0, np.inf), opt / eq)
            lower = np.where(eq == 0.0, np.inf, ub_best[None, :] / eq)
            upper = np.where(
                self.best_a[:, None] == 0.0, np.inf, (self.best_a[:, None] + ub_best[None, :]) / self.best_a[:, None]
            )
        w = self.fa[:, None] * self.fb[None, :]
        live = w > 0.0
        expected_eq = float(np.sum(w * eq))
        opt_mean = float(np.sum(w[live] * opt[live]))
        return {
            "per": per,
            "lower": lower,
            "upper": upper,
            "eq_welfare": expected_eq,
            "bayes": float(np.sum(w[live] * per[live])),
            "ratio": opt_mean / expected_eq if expected_eq else math.inf,
        }


def trade_oracle(path: Path) -> dict:
    """Margin and minimum subsidy of a trade instance from the LPs in interim
    (reduced) form: transfers enter IC and IR only through their interim
    means, and with budget balance any interim pair with zero expected sum
    is realisable ex post (Myerson & Satterthwaite 1983)."""
    from scipy.optimize import linprog

    data = json.loads(path.read_text(encoding="utf-8"))

    def side(block):
        order = np.argsort(block["values"], kind="stable")
        return np.asarray(block["values"])[order], np.asarray(block["probs"])[order]

    sv, f1 = side(data["seller"])
    bv, f2 = side(data["buyer"])
    ns, nb = len(sv), len(bv)
    sigma = (sv[:, None] < bv[None, :]).astype(np.float64)
    keep = (1.0 - sigma) @ f2
    get = f1 @ sigma

    rows, rhs = [], []
    for i in range(ns):
        for k in range(ns):
            if i != k:
                r = np.zeros(ns + nb)
                r[k], r[i] = 1.0, -1.0
                rows.append(r)
                rhs.append(sv[i] * (keep[i] - keep[k]))
    # buyer interim payment Y_j: reporting k instead of j swaps Y_j for Y_k
    for j in range(nb):
        for k in range(nb):
            if j != k:
                r = np.zeros(ns + nb)
                r[ns + j], r[ns + k] = 1.0, -1.0
                rows.append(r)
                rhs.append(bv[j] * (get[j] - get[k]))
    for i in range(ns):
        r = np.zeros(ns + nb)
        r[i] = -1.0
        rows.append(r)
        rhs.append(sv[i] * (keep[i] - 1.0))
    for j in range(nb):
        r = np.zeros(ns + nb)
        r[ns + j] = 1.0
        rows.append(r)
        rhs.append(bv[j] * get[j])
    A, b = np.asarray(rows), np.asarray(rhs)

    # margin: max m with A x + m <= b and f1 . X_s = f2 . Y
    c = np.zeros(ns + nb + 1)
    c[-1] = -1.0
    balance = np.concatenate([f1, -f2, [0.0]])[None, :]
    res = linprog(
        c, A_ub=np.hstack([A, np.ones((len(b), 1))]), b_ub=b, A_eq=balance, b_eq=[0.0],
        bounds=[(None, None)] * (ns + nb) + [(None, 1e9)], method="highs",
    )
    if res.status != 0:
        raise CheckFailure(f"oracle margin LP failed: {res.message}")
    margin = float(res.x[-1])
    # subsidy: the buyer's interim transfer received is X_b = -Y, and the
    # smallest pointwise deficit equals the least expected deficit
    # f1 . X_s + f2 . X_b over the same rows.
    res = linprog(
        np.concatenate([f1, -f2]), A_ub=A, b_ub=b, bounds=[(None, None)] * (ns + nb), method="highs",
    )
    if res.status != 0:
        raise CheckFailure(f"oracle subsidy LP failed: {res.message}")
    return {"margin": margin, "subsidy": max(0.0, float(res.fun))}


class Checker:
    """Checks the outputs of one workload's commands in one work directory."""

    def __init__(self, workdir: Path, golden: dict | None = None):
        self.workdir = workdir
        self.golden = golden if golden is not None else json.loads(GOLDEN.read_text(encoding="utf-8"))
        self._oracles: dict[str, object] = {}

    def _oracle(self, key: str, make):
        if key not in self._oracles:
            self._oracles[key] = make()
        return self._oracles[key]

    def game(self, name: str) -> GameOracle:
        return self._oracle(name, lambda: GameOracle(self.workdir / name))

    def check(self, kind: str, argv: tuple[str, ...], text: str) -> None:
        """Raise CheckFailure unless ``text``, the output of ``argv``, is right."""
        getattr(self, "_" + kind.replace("-", "_"))(argv, text)

    # -- reports on games ----------------------------------------------------

    def _validate(self, argv, text):
        if text != f"ok: {argv[1]}\n":
            raise CheckFailure(f"validate printed {text!r}")

    def _nash(self, argv, text):
        g = self.game(argv[1])
        rows = _report(text, "nash", ["kind", "id", "value"], len(g.types_a) + len(g.types_b) + 1)
        for i, t in enumerate(g.types_a):
            if rows[i]["value"] != g.actions_a[g.nash_a[i]]:
                raise CheckFailure(f"nash_A {t}: {rows[i]['value']!r}")
        for k, t in enumerate(g.types_b):
            if rows[len(g.types_a) + k]["value"] != g.actions_b[g.nash_b(k)]:
                raise CheckFailure(f"nash_B {t}: {rows[len(g.types_a) + k]['value']!r}")
        _close("expected_welfare", _num(rows[-1]["value"]), g.poa_tables()["eq_welfare"], ORACLE_TOL)

    def _poa(self, argv, text):
        g = self.game(argv[1])
        na, nb = len(g.types_a), len(g.types_b)
        rows = _report(text, "poa", ["type_A", "type_B", "poa", "prop1_lower", "prop1_upper"], na * nb + 2)
        ref = g.poa_tables()
        for col, table in (("poa", "per"), ("prop1_lower", "lower"), ("prop1_upper", "upper")):
            got = np.array([float(r[col]) for r in rows[:-2]]).reshape(na, nb)
            want = ref[table]
            ok = (got == want) | (np.abs(got - want) <= ORACLE_TOL * np.maximum(1.0, np.abs(want)))
            if not ok.all():
                i, k = np.argwhere(~ok)[0]
                raise CheckFailure(f"{col} at ({g.types_a[i]}, {g.types_b[k]}): {got[i, k]!r} vs {want[i, k]!r}")
        if [r["type_A"] for r in rows[-2:]] != ["bayes_nash_poa", "welfare_ratio_poa"]:
            raise CheckFailure("summary rows missing")
        _close("bayes_nash_poa", _num(rows[-2]["poa"]), ref["bayes"], ORACLE_TOL)
        _close("welfare_ratio_poa", _num(rows[-1]["poa"]), ref["ratio"], ORACLE_TOL)

    def _single_offer_optimal(self, argv, text):
        g = self.game(argv[1])
        rows = _report(text, "single-offer", ["type_B", "action", "gamma", "expected_u_B", "null_offer"], len(g.types_b))
        for k, row in enumerate(rows):
            ref = g.optimal_offer(k)
            if _bool(row["null_offer"]) != ref["null"]:
                raise CheckFailure(f"{row['type_B']}: null_offer {row['null_offer']}")
            if not ref["null"] and row["action"] != ref["action"]:
                raise CheckFailure(f"{row['type_B']}: action {row['action']!r}, expected {ref['action']!r}")
            _close(f"{row['type_B']} gamma", _num(row["gamma"]), ref["gamma"], ORACLE_TOL)
            _close(f"{row['type_B']} expected_u_B", _num(row["expected_u_B"]), ref["value"], ORACLE_TOL)

    def _single_offer_simplified(self, argv, text):
        g = self.game(argv[1])
        cols = ["type_B", "action", "gamma", "acceptance_prob", "expected_u_B", "poa_bound"]
        rows = _report(text, "single-offer", cols, len(g.types_b))
        for k, row in enumerate(rows):
            ref = g.simplified_offer(k)
            if row["action"] != ref["action"]:
                raise CheckFailure(f"{row['type_B']}: action {row['action']!r}, expected {ref['action']!r}")
            _close(f"{row['type_B']} gamma", _num(row["gamma"]), ref["gamma"], ORACLE_TOL)
            _close(f"{row['type_B']} acceptance_prob", _num(row["acceptance_prob"]), ref["acceptance"], ORACLE_TOL)
            _close(f"{row['type_B']} expected_u_B", _num(row["expected_u_B"]), ref["value"], ORACLE_TOL)
            _close(f"{row['type_B']} poa_bound", _num(row["poa_bound"]), ref["bound"], ORACLE_TOL)

    def _multi_offer_optimize(self, argv, text):
        g = self.game(argv[1])
        cols = ["type_B", "value", "single_offer_gamma", "single_offer_value", "gap", "certified"]
        rows = _report(text, "multi-offer", cols, len(g.types_b))
        for k, row in enumerate(rows):
            ref = g.optimal_offer(k)
            value = _num(row["value"])
            if not _num(row["gap"]) <= ORACLE_TOL * max(1.0, abs(value)):
                raise CheckFailure(f"{row['type_B']}: gap {row['gap']}")
            if not _bool(row["certified"]):
                raise CheckFailure(f"{row['type_B']}: not certified")
            _close(f"{row['type_B']} value", value, ref["value"], ORACLE_TOL)
            _close(f"{row['type_B']} single_offer_gamma", _num(row["single_offer_gamma"]), ref["gamma"], ORACLE_TOL)

    def _multi_offer_schedule(self, argv, text):
        g = self.game(argv[1])
        spec = json.loads((self.workdir / argv[argv.index("--schedule") + 1]).read_text(encoding="utf-8"))
        sim = "--samples" in argv
        cols = ["type_B", "planning_value", "expected_welfare", "acceptance_prob"]
        if sim:
            cols += ["sim_planning_value", "sim_planning_ci99", "sim_welfare", "sim_welfare_ci99", "sim_acceptance"]
        rows = _report(text, "multi-offer", cols, len(g.types_b))
        for k, row in enumerate(rows):
            ref = g.schedule(spec, k)
            tb = row["type_B"]
            _close(f"{tb} planning_value", _num(row["planning_value"]), ref["planning"], ORACLE_TOL)
            _close(f"{tb} expected_welfare", _num(row["expected_welfare"]), ref["welfare"], ORACLE_TOL)
            _close(f"{tb} acceptance_prob", _num(row["acceptance_prob"]), ref["acceptance"], ORACLE_TOL)
            if sim:
                n = int(argv[argv.index("--samples") + 1])
                _within_ci(f"{tb} sim_planning_value", _num(row["sim_planning_value"]), ref["planning"],
                           _num(row["sim_planning_ci99"]))
                _within_ci(f"{tb} sim_welfare", _num(row["sim_welfare"]), ref["welfare"], _num(row["sim_welfare_ci99"]))
                _within_ci(f"{tb} sim_acceptance", _num(row["sim_acceptance"]), ref["acceptance"],
                           _binomial_half_width(ref["acceptance"], n))

    # -- closed forms, Monte Carlo and trade LPs -------------------------------

    def _golden(self, argv, text):
        """Every cell equal to the value recorded in golden.json: text
        cells exactly, numbers within LP_TOL (closed forms are far tighter,
        but the sweep's LP values share this record)."""
        key = " ".join(argv)
        want = self.golden[key]
        rows = _report(text, want["subcommand"], want["columns"], len(want["rows"]))
        for n, (row, ref) in enumerate(zip(rows, want["rows"])):
            for col, cell in zip(want["columns"], ref):
                got = row[col]
                try:
                    w = float(cell)
                except ValueError:
                    if got != cell:
                        raise CheckFailure(f"row {n} {col}: {got!r}, expected {cell!r}") from None
                    continue
                tol = CLOSED_TOL if want.get("closed_form") else LP_TOL
                _close(f"row {n} {col}", _num(got), w, tol, abs_tol=0.0 if want.get("closed_form") else LP_TOL)
            if row.get("verdict") == "infeasible" and not _bool(row["certificate_ok"]):
                raise CheckFailure(f"row {n}: infeasible grid without a valid certificate")

    def _ms_check_instance(self, argv, text):
        rows = _report(text, "ms-check", ["verdict", "margin", "min_subsidy", "certificate_ok"], 1)
        row = rows[0]
        ref = self._oracle("trade", lambda: trade_oracle(self.workdir / argv[argv.index("--instance") + 1]))
        margin = _num(row["margin"])
        _close("margin", margin, ref["margin"], LP_TOL, abs_tol=LP_TOL)
        _close("min_subsidy", _num(row["min_subsidy"]), ref["subsidy"], LP_TOL, abs_tol=LP_TOL)
        expected = "feasible" if ref["margin"] > 1e-6 else "infeasible" if ref["margin"] < -1e-6 else row["verdict"]
        if row["verdict"] != expected:
            raise CheckFailure(f"verdict {row['verdict']!r}, expected {expected!r}")
        if expected == "infeasible" and not _bool(row["certificate_ok"]):
            raise CheckFailure("infeasible instance without a valid certificate")

    def _mc_corollary(self, argv, text):
        """Power-law sacrifices d = U^(1/beta) on [0, 1], stake 1, default 1,
        share g = beta/(beta+1): accepted draws have PoA 1, rejected ones
        2 - d, so E[PoA] = g^b + 2(1 - g^b) - b/(b+1)(1 - g^(b+1))."""
        cols = ["beta", "gamma_star", "poa_bound", "mc_mean_poa", "mc_poa_ci99", "mc_max_poa", "mc_acceptance"]
        rows = _report(text, "examples", cols, 4)
        n = int(argv[argv.index("--mc-samples") + 1])
        for row, beta in zip(rows, (0.25, 0.5, 0.75, 1.0)):
            _close("beta", _num(row["beta"]), beta, CLOSED_TOL)
            g = beta / (beta + 1.0)
            bound = (2.0 + 1.0 / beta) * (1.0 - beta**beta / (beta + 1.0) ** (beta + 1.0))
            _close(f"beta {beta} gamma_star", _num(row["gamma_star"]), g, CLOSED_TOL)
            _close(f"beta {beta} poa_bound", _num(row["poa_bound"]), bound, CLOSED_TOL)
            accept = g**beta
            mean_poa = accept + 2.0 * (1.0 - accept) - g * (1.0 - g ** (beta + 1.0))
            _within_ci(f"beta {beta} mc_mean_poa", _num(row["mc_mean_poa"]), mean_poa, _num(row["mc_poa_ci99"]))
            _within_ci(f"beta {beta} mc_acceptance", _num(row["mc_acceptance"]), accept, _binomial_half_width(accept, n))
            if not 1.0 <= _num(row["mc_max_poa"]) <= 2.0:
                raise CheckFailure(f"beta {beta} mc_max_poa {row['mc_max_poa']}")

    def _mc_1b(self, argv, text):
        """Sacrifice U[0, 100], default 100, stake x: the threshold is x/2
        (capped at 100), and aggregate accounting books the mean sacrifice
        50 against accepted trades: E[welfare] = 100 + P (x - 50)."""
        cols = ["x", "threshold", "expected_welfare", "optimal_welfare", "poa", "mc_welfare", "mc_welfare_ci99",
                "mc_poa", "mc_acceptance"]
        row = _report(text, "examples", cols, 1)[0]
        n = int(argv[argv.index("--mc-samples") + 1])
        x = float(argv[argv.index("--x") + 1])
        thr = min(x / 2.0, 100.0)
        p = thr / 100.0
        sw = 100.0 + p * (x - 50.0)
        opt = max(100.0, 50.0 + x)
        for col, want in (("x", x), ("threshold", thr), ("expected_welfare", sw), ("optimal_welfare", opt),
                          ("poa", opt / sw)):
            _close(col, _num(row[col]), want, CLOSED_TOL)
        ci = _num(row["mc_welfare_ci99"])
        _within_ci("mc_welfare", _num(row["mc_welfare"]), sw, ci)
        _within_ci("mc_poa", _num(row["mc_poa"]), opt / sw, ci * opt / sw**2)
        _within_ci("mc_acceptance", _num(row["mc_acceptance"]), p, _binomial_half_width(p, n))
