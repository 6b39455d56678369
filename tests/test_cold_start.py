"""Cold start: what a fresh interpreter loads, and on how many threads.

``import oneway`` loads none of the package's modules, so neither numpy nor
scipy: each exported name is imported on first use (PEP 562). That leaves
``oneway.cli`` free to set its BLAS default before numpy loads: unless the
user sets ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``, the CLI sets
``OPENBLAS_NUM_THREADS=1``, so no idle OpenBLAS pool spins beside a
single-threaded command. Library users never get that default.

``scipy.optimize`` is most of the package's import time, and only the
bilateral-trade LPs use it, through ``bilateral.linprog``, which imports it
on first call.

Each test runs a fresh interpreter, because the test process itself has long
since imported numpy, scipy and ``oneway.cli``. The children start with
neither BLAS variable set unless a test sets one.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import oneway

SRC = str(Path(oneway.__file__).resolve().parents[1])

SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# The modules perfbench's tracer indexes in sys.modules after ``import oneway.cli``.
TRACED_MODULES = ("io", "game", "equilibrium", "single_offer", "multi_offer", "bilateral", "analytics", "streams")


def _child(code: str, *args: str, blas: dict[str, str] | None = None) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout of oneway,
    with only the BLAS thread variables in ``blas`` set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas or {})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr


def test_import_oneway_loads_nothing_and_keeps_the_environment():
    _child(
        """
        import os, sys

        before = dict(os.environ)
        import oneway

        loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "oneway"))
        assert loaded == ["oneway"], loaded
        assert dict(os.environ) == before
        """
    )


def test_cli_import_loads_the_traced_modules():
    _child(
        f"""
        import sys
        import oneway.cli

        missing = [m for m in {TRACED_MODULES!r} if "oneway." + m not in sys.modules]
        assert not missing, missing
        """
    )


def test_every_export_is_its_modules_attribute():
    _child(
        """
        import importlib
        import oneway

        assert oneway._EXPORTS and set(oneway.__all__) <= set(dir(oneway))
        for module, names in oneway._EXPORTS.items():
            mod = getattr(oneway, module)
            assert mod is importlib.import_module("oneway." + module), module
            for name in names:
                ns = {}
                exec(f"from oneway import {name}", ns)
                assert ns[name] is getattr(oneway, name) is getattr(mod, name), name
        """
    )


def test_unknown_name_raises_attribute_error():
    _child(
        """
        import oneway

        try:
            oneway.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc), exc
        else:
            raise AssertionError("oneway.no_such_name did not raise")
        """
    )


def test_cli_defaults_blas_to_one_thread():
    _child(
        """
        import os
        import oneway.cli

        assert os.environ.get("OPENBLAS_NUM_THREADS") == "1", os.environ.get("OPENBLAS_NUM_THREADS")
        assert "OMP_NUM_THREADS" not in os.environ
        """
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_cli_process_runs_on_one_thread():
    _child(
        """
        import os
        import oneway.cli

        tasks = os.listdir("/proc/self/task")
        assert len(tasks) == 1, tasks
        """
    )


@pytest.mark.parametrize("var", BLAS_VARS)
def test_user_blas_setting_is_kept(var):
    want = {k: "2" if k == var else None for k in BLAS_VARS}
    _child(
        f"""
        import os
        import oneway.cli

        got = {{k: os.environ.get(k) for k in {BLAS_VARS!r}}}
        assert got == {want!r}, got
        """,
        blas={var: "2"},
    )


@pytest.mark.parametrize("module", ["oneway", "oneway.cli"])
def test_import_leaves_scipy_unloaded(module):
    _child(
        f"""
        import sys
        import {module}
        loaded = {SCIPY_LOADED}
        assert not loaded, loaded
        """
    )


def test_small_subcommands_leave_scipy_unloaded(tmp_path):
    _child(
        f"""
        import contextlib, io, json, sys
        from oneway import cli

        d = sys.argv[1]
        game, sched = d + "/small.json", d + "/sched.json"
        with open(sched, "w") as fh:
            json.dump({{"action": "a1", "gammas": [0.2, 0.5, 0.8], "probs": [1.0, 0.5, 0.25]}}, fh)
        invocations = [
            ["gen", "--seed", "7", "--out", game],
            ["validate", game],
            ["nash", game],
            ["poa", game],
            ["single-offer", game],
            ["single-offer", game, "--offer-strategy", "simplified"],
            ["multi-offer", game, "--optimize", "--n", "3"],
            ["multi-offer", game, "--schedule", sched],
            ["examples", "--which", "2"],
            ["examples", "--which", "corollary"],
            ["sweep", "--param", "beta"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in invocations:
                assert cli.run(argv) == 0, argv
        loaded = {SCIPY_LOADED}
        assert not loaded, loaded
        """,
        str(tmp_path),
    )


def test_trade_check_loads_scipy():
    _child(
        """
        import contextlib, io, sys
        from oneway import cli

        assert "scipy.optimize" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["ms-check", "--refine", "3"]) == 0
        assert "scipy.optimize" in sys.modules
        """
    )


def test_lazy_linprog_forwards_to_scipy():
    _child(
        """
        import sys
        import numpy as np
        from oneway import bilateral

        # max x + 2y subject to x + y <= 4, x + 3y <= 6, x, y >= 0
        problem = dict(
            c=[-1.0, -2.0],
            A_ub=[[1.0, 1.0], [1.0, 3.0]],
            b_ub=[4.0, 6.0],
            bounds=[(0.0, None), (0.0, None)],
            method="highs",
            options=bilateral._HIGHS_OPTIONS,
        )
        assert "scipy" not in sys.modules
        got = bilateral.linprog(**problem)
        from scipy.optimize import linprog

        want = linprog(**problem)
        assert np.array_equal(got.x, want.x), (got.x, want.x)
        assert got.fun == want.fun and got.status == want.status == 0
        assert np.allclose(got.x, [3.0, 1.0]) and got.fun == -5.0
        """
    )
