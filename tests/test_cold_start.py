"""Cold start: only solving a trade LP loads scipy.

``scipy.optimize`` is most of the package's import time, and only the
bilateral-trade LPs use it, through ``bilateral.linprog``, which imports it
on first call. Each test runs a fresh interpreter, because the test process
itself has long since imported scipy.
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


def _child(code: str, *args: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout of oneway."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr


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
