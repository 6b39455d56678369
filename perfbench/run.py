"""End-to-end and per-layer benchmark of the ``oneway`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from ``src/`` next to this
directory. One closed-loop client issues the workload's commands in order,
each as a fresh ``python -m oneway.cli`` subprocess, and repeats the command
list (a pass) until ``--seconds`` have elapsed, with at least two passes so
that every command is repeated. With ``--trace 1`` the same commands run
in-process through ``oneway.cli.run`` instead, alternating untraced and traced
passes, and the per-layer numbers come from the traced ones.

Every output is checked (see checks.py). The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs the four workloads in turn and prints each one's metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

MIN_PASSES = 2
SETUP_REPS = 7
IMPORT_REPS = 3
COMMAND_TIMEOUT_S = 120.0
MIB = 1024.0 * 1024.0

# (name, unit, better). BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("import.total_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("io.load_game.total_s", "s", "lower"),
    ("io.write_report.total_s", "s", "lower"),
    ("io.report_bytes", "bytes", "lower"),
    ("equilibrium.poa_metrics.total_s", "s", "lower"),
    ("equilibrium.poa_metrics.self_s", "s", "lower"),
    ("equilibrium.nash_outcome.total_s", "s", "lower"),
    ("equilibrium.poa_report_rows.total_s", "s", "lower"),
    ("game.optimal_welfare.calls", "count", "lower"),
    ("game.optimal_welfare.self_s", "s", "lower"),
    ("game.social_welfare.calls", "count", "lower"),
    ("game.social_welfare.self_s", "s", "lower"),
    ("game.best_response_B.calls", "count", "lower"),
    ("single_offer.optimal_offer.total_s", "s", "lower"),
    ("single_offer.simplified_offer.total_s", "s", "lower"),
    ("single_offer.evaluate_offer.calls", "count", "lower"),
    ("single_offer.evaluate_offer.self_s", "s", "lower"),
    ("single_offer.outside_option.calls", "count", "lower"),
    ("single_offer.outside_option.self_s", "s", "lower"),
    ("single_offer.delta_a.calls", "count", "lower"),
    ("single_offer.delta_b.calls", "count", "lower"),
    ("single_offer.gamma_candidates.calls", "count", "lower"),
    ("single_offer.search_yield", "ratio", "higher"),
    ("multi_offer.optimize_schedule.total_s", "s", "lower"),
    ("multi_offer.expected_utility_B.calls", "count", "lower"),
    ("multi_offer.simulate_schedule.total_s", "s", "lower"),
    ("multi_offer.sim_draws_per_s", "1/s", "higher"),
    ("bilateral.refinement_sweep.total_s", "s", "lower"),
    ("bilateral.feasibility_lp.total_s", "s", "lower"),
    ("bilateral.min_subsidy.total_s", "s", "lower"),
    ("bilateral.lp_build_s", "s", "lower"),
    ("bilateral.highs_solve_s", "s", "lower"),
    ("bilateral.linprog.calls", "count", "lower"),
    ("bilateral.lp_rows", "count", "lower"),
    ("bilateral.lp_cols", "count", "lower"),
    ("bilateral.lp_nnz", "count", "lower"),
    ("bilateral.lp_dense_mb", "MB", "lower"),
    ("bilateral.highs_iterations", "count", "lower"),
    ("bilateral.pool_busy_frac", "fraction", "higher"),
    ("bilateral.certificates_ok_frac", "fraction", "higher"),
    ("analytics.mc_single_offer.total_s", "s", "lower"),
    ("analytics.mc_draws_per_s", "1/s", "higher"),
    ("streams.stream.calls", "count", "lower"),
    ("streams.stream.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
# Per-layer values that must repeat exactly from pass to pass.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


class BenchmarkError(Exception):
    """The benchmark itself cannot run (as opposed to a failed command)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("ONEWAY_THREADS", None)  # the program's default worker count: nproc
    return env


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], cwd: Path, timeout: float = COMMAND_TIMEOUT_S) -> ChildResult:
    """Run one process to completion; its own rusage comes from wait4."""
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss * 1024.0 / MIB,  # ru_maxrss is in KiB on Linux
            code=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
        )


def oneway_argv(args) -> list[str]:
    return [sys.executable, "-m", "oneway.cli", *args]


def run_ok(argv: list[str], cwd: Path) -> ChildResult:
    res = run_child(argv, cwd)
    if res.code != 0:
        raise BenchmarkError(f"{' '.join(argv[1:])} exited {res.code}: {res.stderr.decode(errors='replace')[-400:]}")
    return res


@dataclass
class Outcome:
    """Checks every output of a run: values once per distinct output, and
    byte-identical repeats of each command."""

    checker: checks.Checker
    attempted: int = 0
    failed: int = 0
    first: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def record(self, index: int, cmd: workloads.Command, code: int, output: bytes, stderr: str = "") -> None:
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit code {code}: {stderr[-400:]}"
        else:
            digest = (index, hashlib.sha256(output).hexdigest())
            if self.first.setdefault(index, digest) != digest:
                problem = "output differs from the command's first run"
            else:
                if digest not in self.verdicts:
                    try:
                        self.checker.check(cmd.check, cmd.argv, output.decode("utf-8"))
                        self.verdicts[digest] = None
                    except (checks.CheckFailure, ValueError, KeyError, IndexError) as exc:
                        self.verdicts[digest] = f"{type(exc).__name__}: {exc}"
                problem = self.verdicts[digest]
        if problem is not None:
            self.failed += 1
            print(f"FAILED: oneway {' '.join(cmd.argv)}: {problem}", file=sys.stderr)


def command_output(cmd: workloads.Command, workdir: Path, stdout: bytes) -> bytes:
    return (workdir / cmd.out).read_bytes() if cmd.out else stdout


# ---------------------------------------------------------------------------
# End-to-end run: every command a fresh subprocess.
# ---------------------------------------------------------------------------


def measure_setup(inputs: workloads.Inputs, workdir: Path) -> list[float]:
    """Fresh interpreter: import oneway.cli, load the workload's inputs, exit."""
    loads = [f"io.load_game({g!r})" for g in inputs.games]
    if inputs.schedule:
        loads.append(f"io.load_schedule_file({inputs.schedule!r})")
    if inputs.trade:
        loads.append(f"io.load_bilateral({inputs.trade!r})")
    code = "import oneway.cli; from oneway import io; " + "; ".join(loads)
    return [run_ok([sys.executable, "-c", code], workdir).wall_s for _ in range(SETUP_REPS)]


def end_to_end(cmds, inputs, workdir: Path, seconds: float, outcome: Outcome) -> dict:
    setup = measure_setup(inputs, workdir)
    walls, cpus, rss = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results = [run_child(oneway_argv(c.argv), workdir) for c in cmds]
        walls.append(time.perf_counter() - t0)
        cpus.append(sum(r.cpu_s for r in results))
        rss.append(max(r.rss_mb for r in results))
        for i, (c, r) in enumerate(zip(cmds, results)):
            output = command_output(c, workdir, r.stdout) if r.code == 0 else b""
            outcome.record(i, c, r.code, output, r.stderr.decode(errors="replace"))
    return {"wall_s": walls, "setup_s": setup, "cpu_s": cpus, "peak_rss_mb": rss}


# ---------------------------------------------------------------------------
# Traced run: the same commands in-process, with and without the tracer.
# ---------------------------------------------------------------------------


def import_times(workdir: Path) -> tuple[float, float]:
    """Median over runs of ``python -X importtime -c 'import oneway.cli'``:
    all import time of the oneway package tree, and the self time of every
    scipy module in it."""
    totals, scipys = [], []
    for _ in range(IMPORT_REPS):
        res = run_ok([sys.executable, "-X", "importtime", "-c", "import oneway.cli"], workdir)
        total = scipy = 0
        for line in res.stderr.decode().splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            self_us, cumulative_us, name = int(parts[0].split(":")[1]), int(parts[1]), parts[2]
            if name.strip().startswith("scipy"):
                scipy += self_us
            if name.strip() in ("oneway", "oneway.cli") and name == " " + name.strip():
                total += cumulative_us
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return statistics.median(totals), statistics.median(scipys)


def inprocess_pass(cli, cmds, workdir: Path, outcome: Outcome, tracer=None) -> float:
    """One pass through ``oneway.cli.run``; returns its wall time."""
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        for cmd in cmds:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                span = tracer.begin("cli.run") if tracer else None
                try:
                    code = cli.run(list(cmd.argv))
                except Exception:  # a crash counts as a failed command
                    code, err = -1, io.StringIO(traceback.format_exc())
                finally:
                    if span is not None:
                        tracer.end(span)
            results.append((code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    for i, (cmd, (code, out, err)) in enumerate(zip(cmds, results)):
        output = command_output(cmd, workdir, out.encode()) if code == 0 else b""
        outcome.record(i, cmd, code, output, err)
    return wall


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    summary = tracing.summarize(spans)

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def attr(name: str, key: str) -> float:
        return summary.get(name, {}).get("attrs", {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {name: get(*name.rsplit(".", 1)) for name, _, _ in PER_LAYER if name.endswith(("calls", "total_s", "self_s"))}
    pool_capacity = sum((s.end - s.start) * s.attrs["workers"] for s in spans if s.name == "bilateral.pool")
    m.update({
        "io.report_bytes": attr("io.write_report", "bytes"),
        "single_offer.search_yield": ratio(
            get("single_offer.optimal_offer", "calls") + get("single_offer.simplified_offer", "calls"),
            get("single_offer.evaluate_offer", "calls"),
        ),
        "multi_offer.sim_draws_per_s": ratio(
            attr("multi_offer.simulate_schedule", "samples"), get("multi_offer.simulate_schedule", "total_s")
        ),
        "bilateral.lp_build_s": get("bilateral.feasibility_lp", "self_s") + get("bilateral.min_subsidy", "self_s"),
        "bilateral.highs_solve_s": get("bilateral.linprog", "total_s"),
        "bilateral.lp_rows": attr("bilateral.linprog", "rows"),
        "bilateral.lp_cols": attr("bilateral.linprog", "cols"),
        "bilateral.lp_nnz": attr("bilateral.linprog", "nnz"),
        "bilateral.lp_dense_mb": attr("bilateral.linprog", "dense_bytes") / MIB,
        "bilateral.highs_iterations": attr("bilateral.linprog", "nit"),
        "bilateral.pool_busy_frac": ratio(get("bilateral.pool_task", "total_s"), pool_capacity),
        "bilateral.certificates_ok_frac": ratio(
            attr("bilateral.certificate_is_valid", "ok"), get("bilateral.certificate_is_valid", "calls")
        ),
        "analytics.mc_draws_per_s": ratio(
            attr("analytics.mc_single_offer", "samples"), get("analytics.mc_single_offer", "total_s")
        ),
        "cli.self_s": get("cli.run", "self_s"),
    })
    return m


def traced(cmds, workdir: Path, seconds: float, outcome: Outcome) -> dict:
    imports = import_times(workdir)
    sys.path.insert(0, str(SRC))
    import oneway.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "oneway").resolve():
        raise BenchmarkError(f"imported oneway from {cli.__file__}, not from {SRC}")
    layers: list[dict] = []
    overheads = []
    start = time.perf_counter()
    while len(layers) < MIN_PASSES or time.perf_counter() - start < seconds:
        plain = inprocess_pass(cli, cmds, workdir, outcome)
        t = tracing.Tracer()
        with tracing.instrument(t):
            wall = inprocess_pass(cli, cmds, workdir, outcome, tracer=t)
        overheads.append((wall - plain) / plain)
        layers.append(layer_metrics(t.spans))
    for name in COUNTS:
        if len({m[name] for m in layers}) != 1:
            print(f"WARNING: {name} differs between traced passes: {[m[name] for m in layers]}", file=sys.stderr)
    samples = {name: [m[name] for m in layers] for name in layers[0]}
    samples["import.total_s"], samples["import.scipy_s"] = [imports[0]], [imports[1]]
    samples["trace.overhead_frac"] = overheads
    return samples


# ---------------------------------------------------------------------------


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():  # a plain checkout has none; never ask an enclosing repository
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "oneway").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "workers": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"tail percentile needs 11 or more samples, have {n}"
    q = math.floor(100.0 * (n - 10) / n)
    return f"p{q} {statistics.quantiles(values, n=100, method='inclusive')[q - 1]:.4f}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Outcome]:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs, cmds = workloads.prepare(name, seed, workdir, lambda argv: run_ok(oneway_argv(argv), workdir))
        outcome = Outcome(checks.Checker(workdir))
        if trace:
            samples = traced(cmds, workdir, seconds, outcome)
        else:
            samples = end_to_end(cmds, inputs, workdir, seconds, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(f"# {name}: seed {seed}, {len(cmds)} commands per pass, trace {int(trace)}")
    values = {}
    for metric, _, _ in PER_LAYER if trace else END_TO_END:
        series = samples[metric]
        value = statistics.median(series)
        values[metric] = round(value) if metric in COUNTS else value
        shown = ""
        if metric in ("wall_s", "setup_s"):
            shown = f" (median of {len(series)}: {' '.join(f'{v:.3f}' for v in series)}; {tail(series)})"
        print(f"  {metric:40s} {values[metric]:.6g} {UNITS[metric]}{shown}")
    print(f"  {'fail_frac':40s} {outcome.failed / max(outcome.attempted, 1):.6g} fraction "
          f"({outcome.failed} of {outcome.attempted} commands)")
    return values, outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oneway" / "cli.py").is_file():
        print(f"error: no oneway package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            values, outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + m: {"value": v, "unit": UNITS[m]} for m, v in values.items()})
            attempted += outcome.attempted
            failed += outcome.failed
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
