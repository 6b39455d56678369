"""Cold start: what a fresh interpreter loads and runs, and on how many threads.

``import oneway`` loads none of the package's modules, so neither numpy nor
scipy: each exported name is imported on first use (PEP 562). That leaves
``oneway.cli`` free to set its BLAS default before numpy loads: unless the
user sets ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``, the CLI sets
``OPENBLAS_NUM_THREADS=1``, so no idle OpenBLAS pool spins beside a
single-threaded command. Library users never get that default; that every
report reads the same under one BLAS thread and two is ``battery.py``'s check.

``import oneway.cli`` runs only ``cli`` and ``io``, and so loads no numpy.
It registers the package's other modules in ``sys.modules`` lazily, so each
is compiled and run only when a subcommand first reads one of its
attributes. The closed forms live in ``closed_form``, which imports the
standard library alone, so ``examples`` without ``--mc-samples`` and
``sweep`` never load numpy. A module has run iff
``type(sys.modules[name]) is types.ModuleType``: ``type()`` does not trigger
a lazy load, where reading an attribute would. The tests pin the modules
each subcommand runs, that ``ms-check``, the one command with a thread
pool, prints after lazy loads what it prints after eager imports, and that
the commands that run ``streams`` load no thread pool at all.

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
# The package's submodules that have run, not just been registered.
RAN = "sorted(n[7:] for n, m in sys.modules.items() if n.startswith('oneway.') and type(m) is types.ModuleType)"


def _child(code: str, *args: str, blas: dict[str, str] | None = None) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout of oneway,
    with only the BLAS thread variables in ``blas`` set; returns its stdout."""
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
    return res.stdout


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


def test_cli_import_registers_the_traced_modules():
    _child(
        f"""
        import sys, types
        import oneway.cli

        missing = [m for m in {TRACED_MODULES!r} if "oneway." + m not in sys.modules]
        assert not missing, missing
        ran = {RAN}
        assert ran == ["cli", "io"], ran
        assert "numpy" not in sys.modules
        """
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small game and a schedule on its first action, written by the test process."""
    from oneway import generate, io

    d = tmp_path_factory.mktemp("cold_start")
    io.save_game(generate.random_game(seed=7), str(d / "small.json"))
    (d / "sched.json").write_text('{"action": "a1", "gammas": [0.2, 0.5, 0.8], "probs": [1.0, 0.5, 0.25]}')
    return d


# The modules each subcommand runs besides cli and io.
OFFERS = ["closed_form", "equilibrium", "game", "single_offer"]
SUBCOMMAND_RUNS = [
    (["validate", "{d}/small.json"], ["game"]),
    (["nash", "{d}/small.json"], ["equilibrium", "game"]),
    (["poa", "{d}/small.json"], ["equilibrium", "game"]),
    (["single-offer", "{d}/small.json"], OFFERS),
    (["sweep", "--param", "beta"], ["closed_form"]),
    (["multi-offer", "{d}/small.json", "--optimize"], sorted([*OFFERS, "multi_offer", "streams"])),
    (
        ["multi-offer", "{d}/small.json", "--schedule", "{d}/sched.json", "--samples", "100"],
        sorted([*OFFERS, "multi_offer", "streams"]),
    ),
    (["examples", "--which", "2"], ["closed_form"]),
    (["examples", "--which", "2", "--sweep"], ["closed_form"]),
    (["examples", "--which", "1b"], ["closed_form"]),
    (["examples", "--which", "1b", "--mc-samples", "100"], ["analytics", "closed_form", "streams"]),
    (["examples", "--which", "corollary"], ["closed_form"]),
    (["examples", "--which", "corollary", "--mc-samples", "100"], ["analytics", "closed_form", "streams"]),
    (["ms-check", "--refine", "3"], ["bilateral", "equilibrium", "game"]),
    (["gen", "--out", "{d}/new.json"], ["game", "generate"]),
]


@pytest.mark.parametrize(
    ("argv", "extra"), SUBCOMMAND_RUNS, ids=[" ".join(a).replace("{d}/", "") for a, _ in SUBCOMMAND_RUNS]
)
def test_subcommand_runs_only_the_modules_it_uses(inputs, argv, extra):
    want = sorted(["cli", "io", *extra])
    _child(
        f"""
        import contextlib, io, sys, types
        from oneway import cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(sys.argv[1:]) == 0, sys.argv[1:]
        ran = {RAN}
        assert ran == {want!r}, ran
        """,
        *(a.format(d=inputs) for a in argv),
    )


# The closed-form commands, which load numpy only to simulate (--mc-samples).
NUMPY_LOADS = [
    (["examples", "--which", "2"], False),
    (["examples", "--which", "1b"], False),
    (["examples", "--which", "2", "--sweep"], False),
    (["examples", "--which", "corollary"], False),
    (["sweep", "--param", "beta"], False),
    (["examples", "--which", "1b", "--mc-samples", "100"], True),
    (["examples", "--which", "corollary", "--mc-samples", "100"], True),
]


@pytest.mark.parametrize(("argv", "loads"), NUMPY_LOADS, ids=[" ".join(a) for a, _ in NUMPY_LOADS])
def test_closed_forms_run_without_numpy(argv, loads):
    _child(
        f"""
        import contextlib, io, sys
        from oneway import cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(sys.argv[1:]) == 0, sys.argv[1:]
        assert ("numpy" in sys.modules) is {loads!r}
        """,
        *argv,
    )


# The closed forms' records are named tuples, so these commands load neither
# dataclasses nor inspect, which dataclasses imports.
LEAN = [["examples", "--which", "2"], ["examples", "--which", "corollary"], ["sweep", "--param", "beta"]]


@pytest.mark.parametrize("argv", LEAN, ids=[" ".join(a) for a in LEAN])
def test_closed_forms_load_neither_dataclasses_nor_inspect(argv):
    _child(
        """
        import contextlib, io, sys
        from oneway import cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(sys.argv[1:]) == 0, sys.argv[1:]
        loaded = sorted({"dataclasses", "inspect"} & set(sys.modules))
        assert not loaded, loaded
        """,
        *argv,
    )


# The offer searches: they sort their candidate shares without np.unique,
# whose check for masked arrays imports numpy.ma (about 15 ms).
OFFER_SEARCHES = [
    ["single-offer", "{d}/small.json"],
    ["single-offer", "{d}/small.json", "--offer-strategy", "simplified"],
    ["multi-offer", "{d}/small.json", "--optimize"],
]


@pytest.mark.parametrize("argv", OFFER_SEARCHES, ids=[" ".join(a).replace("{d}/", "") for a in OFFER_SEARCHES])
def test_offer_search_leaves_numpy_ma_unloaded(inputs, argv):
    _child(
        """
        import contextlib, io, sys
        from oneway import cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(sys.argv[1:]) == 0, sys.argv[1:]
        assert "numpy.ma" not in sys.modules
        """,
        *(a.format(d=inputs) for a in argv),
    )


# The commands that run ``streams``: their batches run on the calling thread,
# so they load no thread pool, nor the logging that concurrent.futures
# imports. (numpy itself imports threading; ms-check's sweep pool loads both.)
STREAM_COMMANDS = [
    ["examples", "--which", "corollary", "--mc-samples", "100"],
    ["examples", "--which", "1b", "--mc-samples", "100"],
    ["multi-offer", "{d}/small.json", "--schedule", "{d}/sched.json", "--samples", "100"],
    ["multi-offer", "{d}/small.json", "--optimize"],
]


@pytest.mark.parametrize("argv", STREAM_COMMANDS, ids=[" ".join(a).replace("{d}/", "") for a in STREAM_COMMANDS])
def test_stream_commands_load_no_thread_pool(inputs, argv):
    _child(
        """
        import contextlib, io, sys
        from oneway import cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(sys.argv[1:]) == 0, sys.argv[1:]
        loaded = sorted({"concurrent.futures", "logging"} & set(sys.modules))
        assert not loaded, loaded
        """,
        *(a.format(d=inputs) for a in argv),
    )


EAGER = (
    "analytics",
    "bilateral",
    "closed_form",
    "equilibrium",
    "game",
    "generate",
    "io",
    "multi_offer",
    "single_offer",
    "streams",
)


@pytest.mark.parametrize(
    "argv",
    [["examples", "--which", "corollary", "--mc-samples", "200000"], ["ms-check", "--refine", "6"]],
    ids=["corollary-mc", "ms-check"],
)
def test_first_touch_gives_the_eager_report(argv):
    """The command's report equals the one printed after every module was
    imported before ``oneway.cli``. Only ``ms-check`` starts a thread pool,
    on modules that the command itself loaded; the Monte Carlo command
    stays as a lazily loaded command with many batches."""

    def report(imports: str, ran_before: list[str]) -> str:
        return _child(
            f"""
            import sys, types
            {imports}
            from oneway import cli

            ran = [m for m in {RAN} if m != "cli"]
            assert ran == {ran_before!r}, ran
            assert cli.run(sys.argv[1:]) == 0
            """,
            *argv,
        )

    lazy = report("", ["io"])
    eager = report("from oneway import " + ", ".join(EAGER), list(EAGER))
    assert lazy and lazy == eager


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
