"""The command battery, ``battery.py``, on a short list of rows: the working
tree passes, a source tree whose reports differ is caught, and a row given
the wrong exit code fails."""

import shutil

import pytest

import battery

SHORT = battery.table(
    """
    0 examples --which 2
    1 validate dir
    2 nash
    0 nash game.json --out nash.csv
    0 single-offer big.json
    0 nash order.json
    """
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("battery") / "inputs"
    battery.write_inputs(root)
    return root


@pytest.fixture(scope="module")
def changed(inputs, tmp_path_factory):
    """A copy of ``src/`` whose reports state another tolerance, and the
    short list's failures with it as the second tree."""
    src = tmp_path_factory.mktemp("changed") / "src"
    shutil.copytree(battery.SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "oneway" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert "\nTOL_DEFAULT = 1e-9\n" in text
    cli.write_text(text.replace("\nTOL_DEFAULT = 1e-9\n", "\nTOL_DEFAULT = 1e-8\n"), encoding="utf-8")
    return str(src), battery.check(SHORT, inputs, [src])


def test_working_tree_passes(changed):
    src, failures = changed
    assert [f for f in failures if f[1] != src] == []


def test_a_changed_report_is_caught(changed):
    src, failures = changed
    caught = {str(row): how for row, _, how in failures}
    changed_rows = ["nash game.json --out nash.csv", "nash order.json", "nash reversed.json", "single-offer big.json"]
    assert sorted(caught) == changed_rows
    assert caught["nash game.json --out nash.csv"].startswith("nash.csv line 4, column ")
    assert caught["single-offer big.json"].startswith("stdout line 4, column ")
    assert "1e-09" in caught["single-offer big.json"] and "1e-08" in caught["single-offer big.json"]


def test_a_wrong_exit_code_fails(inputs):
    failures = battery.check(battery.table("0 nash"), inputs)
    assert [(str(row), against, how) for row, against, how in failures] == [("nash", "exit code", "2, not 0")]
