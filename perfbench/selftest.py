"""Self-tests of the benchmark: tracer arithmetic and the output checker.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class ScriptedClock:
    """Each thread reads its own list of times, in order."""

    def __init__(self, script: dict[str, list[float]]):
        self.script = {name: iter(times) for name, times in script.items()}

    def __call__(self) -> float:
        return next(self.script[threading.current_thread().name])


class TracerArithmetic(unittest.TestCase):
    def test_nested_self_time(self):
        t = tracing.Tracer(clock=ScriptedClock({"MainThread": [0.0, 1.0, 3.0, 4.0, 4.5, 10.0]}))
        with t.span("outer"):
            with t.span("a"):
                pass
            with t.span("b"):
                pass
        summary = tracing.summarize(t.spans)
        self.assertEqual(summary["outer"]["total_s"], 10.0)
        self.assertEqual(summary["outer"]["self_s"], 10.0 - 2.0 - 0.5)
        self.assertEqual(summary["a"]["self_s"], 2.0)

    def test_children_on_two_threads_overlap_once(self):
        # main: sweep [0, 10]; worker-a: task [1, 4] holding lp [1.5, 3];
        # worker-b: task [2, 6]. Both tasks are open at once.
        clock = ScriptedClock({
            "MainThread": [0.0, 10.0],
            "worker-a": [1.0, 1.5, 3.0, 4.0],
            "worker-b": [2.0, 6.0],
        })
        t = tracing.Tracer(clock=clock)
        both_open = threading.Barrier(2, timeout=10)

        def work(nested: bool):
            with t.inherit(sweep), t.span("task"):
                both_open.wait()
                if nested:
                    with t.span("lp"):
                        pass

        sweep = t.begin("sweep")
        threads = [
            threading.Thread(target=work, args=(True,), name="worker-a"),
            threading.Thread(target=work, args=(False,), name="worker-b"),
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
            self.assertFalse(th.is_alive())
        t.end(sweep)

        selfs = tracing.self_times(t.spans)
        by_name = {}
        for s in t.spans:
            by_name.setdefault(s.name, []).append(s)
        lp = by_name["lp"][0]
        self.assertEqual(lp.parent.thread, lp.thread)  # per-thread stacks
        self.assertIs(lp.parent.parent, sweep)
        self.assertEqual(selfs[id(sweep)], 10.0 - 5.0)  # union of [1, 4] and [2, 6]
        self.assertEqual(sorted(selfs[id(s)] for s in by_name["task"]), [1.5, 4.0])
        summary = tracing.summarize(t.spans)
        self.assertEqual(summary["task"]["calls"], 2)
        self.assertEqual(summary["task"]["total_s"], 7.0)

    def test_instrumented_sweep_accounts_for_its_time(self):
        import oneway.bilateral as bilateral
        import oneway.single_offer as single_offer
        import oneway.multi_offer as multi_offer

        original = (bilateral.feasibility_lp, bilateral.linprog, bilateral.ThreadPoolExecutor, multi_offer.delta_a)
        t = tracing.Tracer()
        with tracing.instrument(t):
            self.assertIsNot(multi_offer.delta_a, single_offer.delta_a.__wrapped__)  # re-bound name wrapped
            self.assertIs(multi_offer.delta_a, single_offer.delta_a)
            rows = bilateral.refinement_sweep([2, 3, 4, 5], workers=2)
        self.assertEqual(
            (bilateral.feasibility_lp, bilateral.linprog, bilateral.ThreadPoolExecutor, multi_offer.delta_a), original
        )
        self.assertEqual([r.k for r in rows], [2, 3, 4, 5])
        metrics = run.layer_metrics(t.spans)
        self.assertEqual(metrics["bilateral.linprog.calls"], sum(2 + (r.verdict == "infeasible") for r in rows))
        self.assertGreater(metrics["bilateral.lp_nnz"], 0)
        self.assertTrue(0.0 < metrics["bilateral.pool_busy_frac"] <= 1.0)
        tasks = [s for s in t.spans if s.name == "bilateral.pool_task"]
        self.assertEqual(len(tasks), 4)
        self.assertTrue(all(s.parent.name == "bilateral.pool" for s in tasks))
        self.assertTrue(all(s.parent.name == "bilateral.pool_task" for s in t.spans if s.name == "bilateral.feasibility_lp"))
        # self time plus the union of the children is the whole duration
        selfs = tracing.self_times(t.spans)
        sweep = next(s for s in t.spans if s.name == "bilateral.refinement_sweep")
        self.assertGreaterEqual(selfs[id(sweep)], 0.0)
        self.assertLess(selfs[id(sweep)], sweep.end - sweep.start)


@contextlib.contextmanager
def chdir(path: Path):
    old = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def gen_in_process(workdir: Path):
    import oneway.cli as cli

    def gen(argv):
        with contextlib.redirect_stdout(io.StringIO()), chdir(workdir):
            if cli.run(argv) != 0:
                raise RuntimeError(f"gen failed: {argv}")

    return gen


def cli_output(workdir: Path, argv) -> str:
    import oneway.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), chdir(workdir):
        if cli.run(list(argv)) != 0:
            raise RuntimeError(f"command failed: {argv}")
    return out.getvalue()


class CheckerCatchesCorruption(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.workdir = Path(self._tmp.name)
        _, self.cmds = workloads.prepare("cli-small", 3, self.workdir, gen_in_process(self.workdir))

    def tearDown(self):
        self._tmp.cleanup()

    def outcome(self):
        return run.Outcome(checks.Checker(self.workdir))

    def test_every_cli_small_output_passes(self):
        outcome = self.outcome()
        for i, cmd in enumerate(self.cmds):
            outcome.record(i, cmd, 0, cli_output(self.workdir, cmd.argv).encode())
        self.assertEqual((outcome.attempted, outcome.failed), (len(self.cmds), 0))

    def test_corrupted_reports_count_as_failures(self):
        cmd = next(c for c in self.cmds if c.check == "single-offer-optimal")
        good = cli_output(self.workdir, cmd.argv)
        lines = good.splitlines(keepends=True)
        cells = lines[-1].split(",")
        cells[9] = repr(float(cells[9]) * 1.001)  # expected_u_B
        corrupted = {
            "value": "".join(lines[:-1] + [",".join(cells)]),
            "dropped row": "".join(lines[:-1]),
            "truncated": good[: len(good) // 2],
            "empty": "",
        }
        for what, text in corrupted.items():
            with self.subTest(what):
                outcome = self.outcome()
                with contextlib.redirect_stderr(io.StringIO()):
                    outcome.record(0, cmd, 0, text.encode())
                self.assertEqual(outcome.failed, 1)

    def test_changed_repeat_and_exit_code_count_as_failures(self):
        cmd = next(c for c in self.cmds if c.check == "golden")
        good = cli_output(self.workdir, cmd.argv).encode()
        outcome = self.outcome()
        with contextlib.redirect_stderr(io.StringIO()):
            outcome.record(0, cmd, 0, good)
            outcome.record(0, cmd, 0, good.replace(b"\n", b"\r\n"))  # same values, other bytes
            outcome.record(0, cmd, 1, b"")
        self.assertEqual((outcome.attempted, outcome.failed), (3, 2))

    def test_golden_values_are_compared_not_bytes(self):
        cmd = next(c for c in self.cmds if c.argv == ("examples", "--which", "corollary"))
        text = cli_output(self.workdir, cmd.argv)
        checker = checks.Checker(self.workdir)
        checker.check(cmd.check, cmd.argv, text.replace("0.2,", "0.20000000000000001,"))
        with self.assertRaises(checks.CheckFailure):
            checker.check(cmd.check, cmd.argv, text.replace("0.2,", "0.2001,"))


class BenchmarkFile(unittest.TestCase):
    def test_lists_what_run_py_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WHY))
        self.assertEqual([w["why"] for w in spec["workloads"]], list(workloads.WHY.values()))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
