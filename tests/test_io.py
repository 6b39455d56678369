import hashlib
import io
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import report_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oneway as ow
import oneway.io
from oneway.io import format_column, write_report


def test_game_round_trip(tmp_path, g1):
    path = str(tmp_path / "g1.json")
    ow.save_game(g1, path)
    loaded = ow.load_game(path)
    assert loaded.actions_a == g1.actions_a
    assert loaded.actions_b == g1.actions_b
    assert loaded.types_a == g1.types_a
    assert loaded.types_b == g1.types_b
    assert (loaded.payoff_a == g1.payoff_a).all()
    assert (loaded.payoff_b == g1.payoff_b).all()
    assert (loaded.prior_a == g1.prior_a).all()


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_load_game_missing_file(tmp_path):
    path = str(tmp_path / "nope.json")
    with pytest.raises(ow.InstanceFormatError) as exc:
        ow.load_game(path)
    msg = str(exc.value)
    assert path in msg
    assert "\n" not in msg


def test_load_game_bad_version(tmp_path):
    path = _write(tmp_path, "v.json", {"version": 7})
    with pytest.raises(ow.InstanceFormatError, match="version"):
        ow.load_game(path)


def test_load_game_missing_field_names_field(tmp_path, g1):
    data = ow.game_to_dict(g1)
    del data["payoff_B"]
    path = _write(tmp_path, "m.json", data)
    with pytest.raises(ow.InstanceFormatError, match="payoff_B"):
        ow.load_game(path)


def test_load_game_ragged_payoff_names_axis(tmp_path, g1):
    data = ow.game_to_dict(g1)
    data["payoff_A"] = [[2.0, 1.0], [0.0]]
    path = _write(tmp_path, "r.json", data)
    with pytest.raises(ow.InstanceFormatError, match="actions_A"):
        ow.load_game(path)


def test_load_game_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ow.InstanceFormatError, match="valid JSON"):
        ow.load_game(str(path))


def test_load_game_rejects_invalid_game(tmp_path, g1):
    data = ow.game_to_dict(g1)
    data["types_A"][0]["prob"] = 0.9
    path = _write(tmp_path, "p.json", data)
    with pytest.raises(ow.InstanceFormatError, match="prior_a sums to"):
        ow.load_game(path)


def test_load_schedule_file(tmp_path):
    path = _write(tmp_path, "s.json",
                  {"action": "a1", "gammas": [0.2, 0.5], "probs": [1.0, 0.5]})
    action, gammas, probs = ow.load_schedule_file(path)
    assert action == "a1"
    assert gammas == (0.2, 0.5)
    assert probs == (1.0, 0.5)


def test_load_schedule_length_mismatch(tmp_path):
    path = _write(tmp_path, "s.json",
                  {"action": "a1", "gammas": [0.2, 0.5], "probs": [1.0]})
    with pytest.raises(ow.InstanceFormatError, match="match gammas"):
        ow.load_schedule_file(path)


def test_load_bilateral_sorts_by_value(tmp_path):
    path = _write(tmp_path, "b.json", {
        "seller": {"values": [0.75, 0.25], "probs": [0.5, 0.5]},
        "buyer": {"values": [0.5], "probs": [1.0]},
    })
    inst = ow.load_bilateral(path)
    assert inst.seller_values == (0.25, 0.75)
    assert inst.buyer_values == (0.5,)


def test_load_bilateral_bad_probs(tmp_path):
    path = _write(tmp_path, "b.json", {
        "seller": {"values": [0.5], "probs": [0.8]},
        "buyer": {"values": [0.5], "probs": [1.0]},
    })
    with pytest.raises(ow.InstanceFormatError, match="valid trade instance"):
        ow.load_bilateral(path)


_SCHEDULE = {"action": "a1", "gammas": [0.2, 0.5], "probs": [1.0, 0.5]}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("gammas", "0.2", "field 'gammas': expected a non-empty list of numbers"),
        ("gammas", [], "field 'gammas': expected a non-empty list of numbers"),
        ("gammas", [0.2, True], "field 'gammas': expected a non-empty list of numbers"),
        ("probs", [1.0, "x"], "field 'probs': expected a non-empty list of numbers"),
        ("probs", None, "field 'probs': expected a non-empty list of numbers"),
        ("probs", [1.0], "field 'probs': expected length 2 to match gammas"),
        ("gammas", [0.2], "field 'probs': expected length 1 to match gammas"),
    ],
    ids=["string", "empty", "bool", "text", "null", "short", "long"],
)
def test_load_schedule_messages(tmp_path, field, value, message):
    path = _write(tmp_path, "s.json", {**_SCHEDULE, field: value})
    with pytest.raises(ow.InstanceFormatError) as exc:
        ow.load_schedule_file(path)
    assert str(exc.value) == f"{path}: {message}"


_TRADE = {
    "seller": {"values": [0.25, 0.75], "probs": [0.5, 0.5]},
    "buyer": {"values": [0.5], "probs": [1.0]},
}


@pytest.mark.parametrize(
    "side, block, message",
    [
        ("seller", [0.25], "field 'seller': expected an object {\"values\", \"probs\"}"),
        ("seller", {"probs": [1.0]}, "field 'seller.values': expected a non-empty list of numbers"),
        ("seller", {"values": [], "probs": []},
         "field 'seller.values': expected a non-empty list of numbers"),
        ("buyer", {"values": [0.5], "probs": [False]},
         "field 'buyer.probs': expected a non-empty list of numbers"),
        ("buyer", {"values": [0.5], "probs": "1"},
         "field 'buyer.probs': expected a non-empty list of numbers"),
        ("seller", {"values": [0.25, 0.75], "probs": [1.0]},
         "field 'seller.probs': expected length 2 to match values"),
        ("buyer", {"values": [0.5], "probs": [0.5, 0.5]},
         "field 'buyer.probs': expected length 1 to match values"),
    ],
    ids=["not-object", "missing", "empty", "bool", "string", "short", "long"],
)
def test_load_bilateral_messages(tmp_path, side, block, message):
    path = _write(tmp_path, "b.json", {**_TRADE, side: block})
    with pytest.raises(ow.InstanceFormatError) as exc:
        ow.load_bilateral(path)
    assert str(exc.value) == f"{path}: {message}"


def test_config_hash_is_order_insensitive():
    h1 = ow.config_hash({"b": 1, "a": 2})
    h2 = ow.config_hash({"a": 2, "b": 1})
    assert h1 == h2
    expected = hashlib.sha256(b'{"a":2,"b":1}').hexdigest()
    assert h1 == expected


def test_format_cell():
    """The cell rules, one cell of each kind in one column."""
    assert format_column(["x", True, False, 3, 0.1, 1 / 3, float("inf")]) == [
        "x", "true", "false", "3", "0.1", repr(1 / 3), "inf",
    ]


@pytest.mark.parametrize("value", [0.1, 1 / 3, 1e-300, 2.0**60, -0.0, float("inf")])
def test_format_cell_numpy_float_matches_float(value):
    assert format_column([np.float64(value)]) == format_column([value]) == [repr(value)]


def test_format_cell_bool():
    assert format_column([True, False]) == ["true", "false"]


def test_format_cell_numpy_bool():
    assert format_column([np.bool_(True), np.bool_(False)]) == ["true", "false"]


def test_format_cell_numpy_int():
    assert format_column([np.int64(7)]) == ["7"]


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308]),
)
_INTS = st.integers(-(2**63), 2**63 - 1)
_CELLS = [
    _FLOATS,
    _FLOATS.map(np.float64),
    st.booleans(),
    st.booleans().map(np.bool_),
    _INTS,
    _INTS.map(np.int64),
    st.text(max_size=6),
    st.just(""),
    st.none(),
]


@st.composite
def _tables(draw):
    """Up to five named columns of one length; each column holds one kind
    of cell or a mix of all of them."""
    rows = draw(st.integers(0, 8))
    names = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=4), max_size=5, unique=True))
    kinds = _CELLS + [st.one_of(_CELLS)]
    return {
        name: draw(st.lists(kinds[draw(st.integers(0, len(kinds) - 1))], min_size=rows, max_size=rows))
        for name in names
    }


def _assert_matches_the_row_oracle(table) -> None:
    config = {"seed": 3, "x": 1.5}
    new, old = io.StringIO(), io.StringIO()
    write_report(new, "demo", config, table, "in", "sched")
    oracle.write_report(old, "demo", config, list(table), list(zip(*table.values())), "in", "sched")
    assert new.getvalue() == old.getvalue()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(table=_tables())
@example(table={"a": [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324], "b": ["", "x", True, 3, None, np.float64(0.1)]})
@example(table={"a": []})
def test_write_report_matches_the_row_oracle(table):
    """Column-wise formatting writes the bytes of the cell-at-a-time writer
    fed the same table as rows, also with blocks of three rows."""
    _assert_matches_the_row_oracle(table)
    with mock.patch.object(oneway.io, "_BLOCK_ROWS", 3):
        _assert_matches_the_row_oracle(table)


def test_poa_report_across_blocks_matches_the_row_oracle():
    game = ow.random_game(seed=1, n_types_a=70, n_types_b=70)
    table = ow.poa_report_rows(game, ow.poa_metrics(game))
    assert len(table["poa"]) > oneway.io._BLOCK_ROWS
    _assert_matches_the_row_oracle(table)


_COLUMN_CELLS = [
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans(),
    st.booleans().map(np.bool_),
    _INTS,
    st.text(max_size=6),
]


@st.composite
def _columns(draw):
    """A column of floats only (Python's and numpy's), of strings only, or
    of any mix of cell kinds; sometimes with a trailing empty cell, as the
    closed-form peak row leaves in ``examples --which 2``."""
    kinds = draw(st.sampled_from([_COLUMN_CELLS[:2], _COLUMN_CELLS[-1:], _COLUMN_CELLS]))
    column = draw(st.lists(st.one_of(kinds), max_size=12))
    return column + [""] if draw(st.booleans()) else column


@settings(derandomize=True, deadline=None, max_examples=300)
@given(column=_columns())
@example(column=[0.1, np.float64(-0.0), math.nan, ""])
@example(column=[np.float32(0.1), 0.1, np.bool_(True), 1])
def test_format_column_matches_the_cell_oracle(column):
    """Choosing the rule once per column gives the cells of the per-cell
    rule."""
    assert format_column(column) == [oracle.format_cell(v) for v in column]


def test_write_report_rejects_ragged_columns():
    buf = io.StringIO()
    with pytest.raises(ValueError, match="differ in length"):
        write_report(buf, "demo", {}, {"a": [1, 2], "b": [1]})
    assert buf.getvalue() == ""


def test_schedule_hash_is_the_canonical_parse(tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text('{"probs": [1, 0.5], "action": "a1", "gammas": [0.25, 1]}', encoding="utf-8")
    parsed = ow.load_schedule_file(str(path))
    canon = {"action": "a1", "gammas": [0.25, 1.0], "probs": [1.0, 0.5]}
    assert ow.schedule_hash(*parsed) == ow.config_hash(canon)


def test_write_report_schedule_digest_follows_input_digest(g1):
    buf = io.StringIO()
    schedule = ow.schedule_hash("a1", (0.5,), (1.0,))
    write_report(buf, "demo", {}, {"a": [1]}, ow.input_hash(g1), schedule)
    lines = buf.getvalue().splitlines()
    assert lines[5] == "# input-sha256: " + ow.input_hash(g1)
    assert lines[6] == "# schedule-sha256: " + schedule
    assert lines[7] == "a"


def test_write_report_layout():
    buf = io.StringIO()
    config = {"seed": 5, "x": 1.5}
    write_report(buf, "demo", config, {"a": [1, "s"], "b": [2.5, True]})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# oneway v0.1.0"
    assert lines[1] == "# subcommand: demo"
    assert lines[2] == "# seed: 5"
    assert lines[3].startswith("# config: ")
    assert lines[4] == "# config-sha256: " + ow.config_hash(config)
    assert lines[5] == "a,b"
    assert lines[6] == "1,2.5"
    assert lines[7] == "s,true"
    # no instance, no input digest line
    assert len(lines) == 8


@pytest.mark.filterwarnings("ignore::UserWarning")  # older setuptools call [tool.setuptools] beta
def test_package_metadata_reads_the_one_version_string():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyprojecttoml.read_configuration(str(path))["project"]
    assert project["version"] == ow.__version__ == oneway.io.TOOL_VERSION


def test_write_report_input_digest_follows_config_hash(g1):
    buf = io.StringIO()
    config = {"instance": "g1.json"}
    write_report(buf, "demo", config, {"a": [1]}, ow.input_hash(g1))
    lines = buf.getvalue().splitlines()
    assert lines[4] == "# config-sha256: " + ow.config_hash(config)
    assert lines[5] == "# input-sha256: " + ow.config_hash(ow.game_to_dict(g1))
    assert lines[6] == "a"
    assert lines[7] == "1"


def test_input_hash_identifies_content(tmp_path, g1, g2):
    path = str(tmp_path / "game.json")
    ow.save_game(g1, path)
    first = ow.load_game(path)
    ow.save_game(g2, path)
    second = ow.load_game(path)
    # two different games saved at one path
    assert ow.input_hash(first) != ow.input_hash(second)
    # one game saved at two paths
    other = str(tmp_path / "elsewhere.json")
    ow.save_game(g2, other)
    assert ow.input_hash(ow.load_game(other)) == ow.input_hash(second)


def test_write_report_seed_fallback():
    buf = io.StringIO()
    write_report(buf, "demo", {}, {"a": []})
    assert "# seed: none" in buf.getvalue()


def test_write_report_deterministic(g1):
    table = ow.poa_report_rows(g1, ow.poa_metrics(g1))
    a, b = io.StringIO(), io.StringIO()
    write_report(a, "poa", {"instance": "g1"}, table)
    write_report(b, "poa", {"instance": "g1"}, table)
    assert a.getvalue() == b.getvalue()
