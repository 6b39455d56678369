"""End-to-end checks of the command line interface.

Everything goes through run() with captured stdout/stderr, so these tests see
exactly what a shell user sees: exit codes, report bytes, error messages.
"""

import json
import re

import pytest

import oneway.io as owio
from oneway import cli


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The rejection tests below name each case, in its test id, by its error
# message; these cases are named by a phrase of it, and here is the whole
# message, which their stderr must give byte for byte.
_WHOLE_MESSAGE = {
    "--mc-samples applies to": "--mc-samples applies to --which corollary and to --which 1b without --sweep",
    "--x applies to": "--x applies to --which 1b without --sweep",
    "--mu1 applies to": "--mu1 applies to --which 2 without --sweep",
    "--beta applies to": "--beta applies to --which corollary",
    "--seed applies to": "--seed applies to --which corollary and to --which 1b without --sweep",
    "x must be finite": "x must be finite and non-negative, got inf",
    "mu1 must be finite": "mu1 must be finite and non-negative, got nan",
    "must be finite": "--from, --to and --step must be finite",
    "more than 1000000 points": "--from, --to and --step give more than 1000000 points",
}


def _split_report(text):
    """Header comment lines, column names, data rows (cells still strings)."""
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("# ")]
    return header, body[0].split(","), [ln.split(",") for ln in body[1:]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def instance(workdir):
    # Default gen sizes: actions a1..a3 / b1..b2, types t1..t3 / u1..u2.
    path = workdir / "game.json"
    assert cli.run(["gen", "--seed", "7", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def schedule_file(workdir):
    path = workdir / "schedule.json"
    path.write_text(
        json.dumps({"action": "a1", "gammas": [0.3, 0.5], "probs": [1.0, 0.5]}),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="module")
def trade_file(workdir):
    path = workdir / "trade.json"
    path.write_text(
        json.dumps(
            {
                "seller": {"values": [0.25], "probs": [1.0]},
                "buyer": {"values": [0.75], "probs": [1.0]},
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def test_validate_ok(capsys, instance):
    code, out, err = _run(capsys, ["validate", instance])
    assert code == 0
    assert out == f"ok: {instance}\n"
    assert err == ""


def test_validate_rejects_garbage(capsys, workdir):
    bad = workdir / "bad.json"
    bad.write_text("not json at all", encoding="utf-8")
    code, out, err = _run(capsys, ["validate", str(bad)])
    assert code == 1
    assert out == ""
    assert err.startswith("invalid:")


def test_validate_missing_file(capsys):
    code, out, err = _run(capsys, ["validate", "/no/such/file.json"])
    assert code == 1
    assert err.startswith("invalid:")


def test_no_subcommand_is_usage_error(capsys):
    code, out, err = _run(capsys, [])
    assert code == 2


@pytest.mark.parametrize(
    "content,expected",
    [(b"\xff\xfe{}", "UTF-8 text"), (b"[" * 100_000 + b"]" * 100_000, "valid JSON (nested too deeply)")],
    ids=["not-utf-8", "nested-too-deeply"],
)
@pytest.mark.parametrize(
    "argv,prefix",
    [
        (["validate", "FILE"], "invalid"),
        (["nash", "FILE"], "error"),
        (["multi-offer", "INSTANCE", "--schedule", "FILE"], "error"),
        (["ms-check", "--instance", "FILE"], "error"),
    ],
    ids=["validate", "nash", "multi-offer", "ms-check"],
)
def test_unparsable_files_get_the_one_line_diagnostic(capsys, tmp_path, instance, content, expected, argv, prefix):
    """A game, schedule or trade file that is not UTF-8 text, or whose JSON
    is nested too deeply for the parser, is an invalid file named in one
    line, as a file that is not JSON is."""
    path = tmp_path / "input.json"
    path.write_bytes(content)
    argv = [{"INSTANCE": instance, "FILE": str(path)}.get(a, a) for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"{prefix}: {path}: field '<file>': expected {expected}\n"


# The flags each subcommand reads, as its --help lists them.
_FLAGS = {
    "validate": [],
    "nash": ["--out"],
    "poa": ["--out"],
    "single-offer": ["--type-b", "--offer-strategy", "--out"],
    "multi-offer": ["--optimize", "--schedule", "--n", "--type-b", "--samples", "--seed", "--out"],
    "ms-check": ["--instance", "--refine", "--out"],
    "examples": [
        "--which", "--sweep", "--x", "--mu1", "--beta", "--from", "--to", "--step", "--mc-samples", "--seed", "--out",
    ],
    "gen": ["--seed", "--actions-a", "--actions-b", "--types-a", "--types-b", "--a-scale", "--b-scale", "--out"],
    "sweep": ["--param", "--from", "--to", "--step", "--out"],
}


@pytest.mark.parametrize("command", [None, *_FLAGS])
def test_help_lists_the_flags_each_command_reads(capsys, command):
    """``oneway --help`` names every subcommand, and each subcommand's
    --help lists exactly the flags it reads, and exits 0."""
    code, out, err = _run(capsys, ["--help"] if command is None else [command, "--help"])
    assert code == 0
    assert err == ""
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out))
    if command is None:
        assert flags == {"--help"}
        assert all(name in out for name in _FLAGS)
    else:
        assert out.startswith(f"usage: oneway {command} ")
        assert flags == {"--help", *_FLAGS[command]}


def test_gen_stdout_matches_file(capsys, workdir, instance):
    code, out, err = _run(capsys, ["gen", "--seed", "7"])
    assert code == 0
    assert out == (workdir / "game.json").read_text(encoding="utf-8")
    data = json.loads(out)
    assert data["version"] == 1
    assert data["actions_A"] == ["a1", "a2", "a3"]


def test_gen_reruns_identical(capsys):
    code1, out1, _ = _run(capsys, ["gen", "--seed", "11"])
    code2, out2, _ = _run(capsys, ["gen", "--seed", "11"])
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = _run(capsys, ["gen", "--seed", "12"])
    assert out3 != out1


@pytest.mark.parametrize(
    "flags,got",
    [
        (["--a-scale", "nan"], "nan and 10.0"),
        (["--a-scale", "inf"], "inf and 10.0"),
        (["--b-scale", "nan"], "10.0 and nan"),
        (["--b-scale", "inf"], "10.0 and inf"),
        (["--b-scale", "0"], "10.0 and 0.0"),
    ],
)
def test_gen_rejects_non_finite_and_non_positive_scales(capsys, flags, got):
    """A scale that is not a finite positive number is a one-line error,
    not numpy's traceback from drawing the payoffs."""
    code, out, err = _run(capsys, ["gen", *flags])
    assert code == 1
    assert out == ""
    assert err == f"error: scales must be finite and positive, got {got}\n"


def test_nash_report_shape(capsys, instance):
    code, out, err = _run(capsys, ["nash", instance])
    assert code == 0
    header, columns, rows = _split_report(out)
    assert header[0].startswith("# oneway v")
    assert header[1] == "# subcommand: nash"
    assert header[2] == "# seed: none"
    assert header[3].startswith("# config: ")
    assert header[4].startswith("# config-sha256: ")
    assert header[5].startswith("# input-sha256: ")
    assert len(header) == 6
    assert columns == ["kind", "id", "value"]
    # 3 A types + 2 B types + the welfare summary line
    assert len(rows) == 6
    assert [r[0] for r in rows[:3]] == ["nash_A"] * 3
    assert [r[0] for r in rows[3:5]] == ["nash_B"] * 2
    assert rows[5][0] == "expected_welfare"
    assert float(rows[5][2]) > 0.0


def test_poa_report_shape(capsys, instance):
    code, out, err = _run(capsys, ["poa", instance])
    assert code == 0
    _, columns, rows = _split_report(out)
    assert columns == ["type_A", "type_B", "poa", "prop1_lower", "prop1_upper"]
    # 3x2 type profiles plus two summary rows
    assert len(rows) == 8
    assert rows[6][0] == "bayes_nash_poa"
    assert rows[7][0] == "welfare_ratio_poa"
    for r in rows[:6]:
        assert float(r[2]) >= 1.0


def test_out_flag_writes_same_bytes(capsys, workdir, instance):
    target = workdir / "poa.csv"
    code, out, err = _run(capsys, ["poa", instance, "--out", str(target)])
    assert code == 0
    assert out == ""
    code2, out2, _ = _run(capsys, ["poa", instance])
    assert code2 == 0
    assert target.read_text(encoding="utf-8") == out2


def test_single_offer_both_strategies(capsys, instance):
    code, out, _ = _run(capsys, ["single-offer", instance])
    assert code == 0
    _, columns, rows = _split_report(out)
    assert columns[0] == "type_B"
    assert len(rows) == 2
    for r in rows:
        assert r[1] == "optimal"
        assert 0.0 <= float(r[3]) <= 1.0
        assert r[12] == ""  # bound column only filled for the simplified rule

    code, out, _ = _run(capsys, ["single-offer", instance, "--offer-strategy", "simplified"])
    assert code == 0
    _, _, rows = _split_report(out)
    for r in rows:
        assert r[1] == "simplified"
        assert float(r[12]) >= 1.0


# B gains 5e-324 from a2 over her fallback; it costs t1 a sacrifice of 1.0.
TINY_GAIN_GAME = {
    "version": 1,
    "actions_A": ["a1", "a2"],
    "actions_B": ["b1"],
    "types_A": [{"id": "t1", "prob": 1.0}],
    "types_B": [{"id": "u1", "prob": 1.0}],
    "payoff_A": [[1.0, 0.0]],
    "payoff_B": [[[0.0], [5e-324]]],
}


@pytest.mark.parametrize(
    ("argv", "column"),
    [
        (["single-offer"], "acceptance_prob"),
        (["single-offer", "--offer-strategy", "simplified"], "acceptance_prob"),
        (["multi-offer", "--optimize"], "value"),
    ],
    ids=["optimal", "simplified", "multi-offer"],
)
def test_offer_search_on_a_tiny_gain_writes_nothing_to_stderr(capsys, workdir, argv, column):
    """t1's break-even share overflows to inf, which no offer reaches, so
    nobody accepts and B earns nothing over her fallback, without a warning."""
    path = workdir / "tiny_gain.json"
    path.write_text(json.dumps(TINY_GAIN_GAME), encoding="utf-8")
    code, out, err = _run(capsys, [argv[0], str(path), *argv[1:]])
    assert (code, err) == (0, "")
    _, columns, rows = _split_report(out)
    assert rows[0][columns.index(column)] == "0.0"


# Every type accepts a1 at share 0, and A's plus B's payoff passes the
# largest float on every profile.
OVERFLOW_GAME = {
    "version": 1,
    "actions_A": ["a1", "a2"],
    "actions_B": ["b1", "b2"],
    "types_A": [{"id": "t1", "prob": 0.5}, {"id": "t2", "prob": 0.5}],
    "types_B": [{"id": "u1", "prob": 1.0}],
    "payoff_A": [[1.5e308, 1e308], [1.6e308, 0.0]],
    "payoff_B": [[[1.7e308, 0.0], [1.7e308, 1.7e308]]],
}


@pytest.mark.parametrize(
    ("argv", "column", "want"),
    [
        (["single-offer"], "expected_welfare", "inf"),
        (["single-offer", "--offer-strategy", "simplified"], "expected_welfare", "inf"),
        (["multi-offer", "--schedule"], "expected_welfare", "inf"),
        (["multi-offer", "--optimize"], "value", "1.7e+308"),
        (["nash"], "value", "inf"),
        (["poa"], "poa", "nan"),
        (["multi-offer", "--samples", "100", "--schedule"], "sim_welfare", "inf"),
        (["multi-offer", "--samples", "100", "--schedule"], "sim_welfare_ci99", "0.0"),
    ],
    ids=["optimal", "simplified", "schedule", "optimize", "nash", "poa", "sim-welfare", "sim-welfare-ci"],
)
def test_welfare_past_the_float_range_reads_inf(capsys, workdir, schedule_file, argv, column, want):
    """A branch of probability 0 adds nothing, even where its payoffs sum
    past the largest float, so the last row's expected welfare is ``inf``
    rather than ``nan``, with nothing on stderr. In ``poa`` both welfare
    tables are ``inf``, and ``inf / inf`` stays ``nan``. Every drawn cell of
    the schedule's simulated welfare is ``inf``, so it reads ``inf`` with a
    width of 0.0."""
    path = workdir / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_GAME), encoding="utf-8")
    extra = [schedule_file] if argv[-1] == "--schedule" else []
    code, out, err = _run(capsys, [argv[0], str(path), *argv[1:], *extra])
    assert (code, err) == (0, "")
    _, columns, rows = _split_report(out)
    assert rows[-1][columns.index(column)] == want


def test_single_offer_type_filter(capsys, instance):
    code, out, _ = _run(capsys, ["single-offer", instance, "--type-b", "u2"])
    assert code == 0
    _, _, rows = _split_report(out)
    assert len(rows) == 1
    assert rows[0][0] == "u2"


def test_unknown_type_b_exits_one(capsys, instance):
    code, out, err = _run(capsys, ["single-offer", instance, "--type-b", "zz"])
    assert code == 1
    assert err == "error: unknown B type 'zz'\n"


def test_multi_offer_needs_a_mode(capsys, instance):
    code, out, err = _run(capsys, ["multi-offer", instance])
    assert code == 2
    assert "usage" in err


def test_multi_offer_optimize(capsys, instance):
    code, out, _ = _run(capsys, ["multi-offer", instance, "--optimize", "--n", "2"])
    assert code == 0
    _, columns, rows = _split_report(out)
    assert columns[:3] == ["type_B", "n", "action"]
    assert len(rows) == 2
    for r in rows:
        assert r[1] == "2"
        # schedule value never loses to the best single offer
        assert float(r[5]) >= float(r[7]) - 1e-9
        assert r[10] in {"true", "false"}


def test_multi_offer_schedule_eval(capsys, instance, schedule_file):
    code, out, _ = _run(capsys, ["multi-offer", instance, "--schedule", schedule_file])
    assert code == 0
    header, columns, rows = _split_report(out)
    assert "sim_welfare" not in columns
    assert header[2] == "# seed: 42"
    assert len(rows) == 2
    for r in rows:
        assert r[1] == "a1"
        assert 0.0 <= float(r[7]) <= 1.0


def test_multi_offer_schedule_with_samples(capsys, instance, schedule_file):
    argv = ["multi-offer", instance, "--schedule", schedule_file, "--samples", "400"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    _, columns, rows = _split_report(out)
    assert columns[-1] == "sim_acceptance"
    for r in rows:
        exact = float(r[3])
        sim = float(r[8])
        ci = float(r[9])
        assert abs(sim - exact) <= 5.0 * ci + 1e-12


def test_multi_offer_unknown_schedule_action(capsys, instance, workdir):
    path = workdir / "bad_schedule.json"
    path.write_text(
        json.dumps({"action": "zzz", "gammas": [0.5], "probs": [1.0]}), encoding="utf-8"
    )
    code, out, err = _run(capsys, ["multi-offer", instance, "--schedule", str(path)])
    assert code == 1
    assert err == "error: unknown A action 'zzz'\n"


def test_ms_check_instance(capsys, trade_file):
    code, out, _ = _run(capsys, ["ms-check", "--instance", trade_file])
    assert code == 0
    _, columns, rows = _split_report(out)
    assert columns == ["k", "verdict", "margin", "min_subsidy",
                       "certificate_ok", "certificate_residual"]
    assert len(rows) == 1
    assert rows[0][1] == "feasible"
    assert abs(float(rows[0][2]) - 0.25) < 1e-9
    assert float(rows[0][3]) == 0.0


def test_ms_check_refine(capsys):
    code, out, _ = _run(capsys, ["ms-check", "--refine", "5"])
    assert code == 0
    _, _, rows = _split_report(out)
    assert [r[0] for r in rows] == ["2", "3", "4", "5"]
    assert all(r[1] in {"feasible", "marginal", "infeasible"} for r in rows)


def test_ms_check_refine_too_small(capsys):
    code, out, err = _run(capsys, ["ms-check", "--refine", "1"])
    assert code == 1
    assert "at least 2" in err


@pytest.mark.parametrize("refine", ["201", "1000", str(10**12)])
def test_ms_check_refine_too_large(capsys, refine):
    """The trade LPs are dense, so a finer grid is a one-line error, not an
    allocation of gigabytes (30 GB at 1,000 values a side)."""
    code, out, err = _run(capsys, ["ms-check", "--refine", refine])
    assert code == 1
    assert out == ""
    assert err == f"error: --refine {refine} is above 200 values per side\n"


# 100,000 probabilities of 1e-5 sum to 1 - 1.9e-12 one term at a time, and
# to exactly 1 when correctly rounded, so the instance loads.
@pytest.mark.parametrize("sellers, buyers", [(201, 3), (2, 201), (100_000, 100_000)])
def test_ms_check_instance_too_large(capsys, tmp_path, sellers, buyers):
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps(
            {
                "seller": {"values": [i / sellers for i in range(sellers)], "probs": [1 / sellers] * sellers},
                "buyer": {"values": [i / buyers for i in range(buyers)], "probs": [1 / buyers] * buyers},
            }
        ),
        encoding="utf-8",
    )
    code, out, err = _run(capsys, ["ms-check", "--instance", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {path} has more than 200 values on a side\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 3)])
@pytest.mark.parametrize(
    "argv",
    [
        ["examples", "--which", "1b", "--mc-samples", "1000", "--seed"],
        ["examples", "--which", "corollary", "--mc-samples", "1000", "--seed"],
        ["multi-offer", "INSTANCE", "--schedule", "SCHEDULE", "--samples", "1000", "--seed"],
        ["gen", "--seed"],
        ["examples", "--which", "1b", "--seed"],
        ["examples", "--which", "corollary", "--seed"],
        ["multi-offer", "INSTANCE", "--schedule", "SCHEDULE", "--seed"],
    ],
)
def test_seeds_outside_64_bits_are_rejected(capsys, instance, schedule_file, argv, seed):
    """A stream's key is one 64-bit word, so a seed outside [0, 2**64) is an
    error rather than an alias of the seed it equals modulo 2**64, also in
    the modes that draw nothing and only print the seed in their header."""
    argv = [{"INSTANCE": instance, "SCHEDULE": schedule_file}.get(a, a) for a in argv] + [seed]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: seed {seed} is outside [0, 2**64)\n"


def test_largest_seed_is_accepted(capsys):
    code, out, err = _run(capsys, ["examples", "--which", "1b", "--mc-samples", "1000", "--seed", str(2**64 - 1)])
    assert code == 0 and err == ""
    _, zero, _ = _run(capsys, ["examples", "--which", "1b", "--mc-samples", "1000", "--seed", "0"])
    assert _split_report(out)[2] != _split_report(zero)[2]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["examples", "--which", "2", "--mc-samples", "1000"], "--mc-samples applies to"),
        (["examples", "--which", "2", "--sweep", "--mc-samples", "1000"], "--mc-samples applies to"),
        (["examples", "--which", "1b", "--sweep", "--mc-samples", "1000"], "--mc-samples applies to"),
        (["examples", "--which", "1b", "--mc-samples", "-1"], "--mc-samples must be non-negative"),
        (["examples", "--which", "corollary", "--mc-samples", "-5"], "--mc-samples must be non-negative"),
        (["multi-offer", "INSTANCE", "--optimize", "--samples", "1000"], "--samples applies to --schedule only"),
        (["multi-offer", "INSTANCE", "--schedule", "SCHEDULE", "--samples", "-1"], "--samples must be non-negative"),
        (
            ["multi-offer", "INSTANCE", "--schedule", "SCHEDULE", "--samples", str(2**63)],
            f"samples {2**63} is outside [1, 2**63)",
        ),
        (["examples", "--which", "1b", "--mc-samples", str(2**63)], f"samples {2**63} is outside [1, 2**32]"),
        (["examples", "--which", "corollary", "--mc-samples", str(2**63)], f"samples {2**63} is outside [1, 2**32]"),
        (["examples", "--which", "1b", "--mc-samples", str(2**32 + 1)], f"samples {2**32 + 1} is outside [1, 2**32]"),
        (
            ["examples", "--which", "corollary", "--mc-samples", str(2**32 + 1)],
            f"samples {2**32 + 1} is outside [1, 2**32]",
        ),
    ],
)
def test_sample_flags_without_a_simulation_are_rejected(capsys, instance, schedule_file, argv, message):
    """A sample count that no simulation would use, or more draws than a
    simulation takes (2**63 - 1 for a schedule, 2**32 for a single offer),
    is an error, not a report without the simulation or a traceback."""
    argv = [{"INSTANCE": instance, "SCHEDULE": schedule_file}.get(a, a) for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {_WHOLE_MESSAGE.get(message, message)}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["examples", "--which", "1b", "--sweep", "--x", "5"], "--x applies to --which 1b without --sweep"),
        (["examples", "--which", "2", "--x", "5"], "--x applies to"),
        (["examples", "--which", "corollary", "--x", "5"], "--x applies to"),
        (["examples", "--which", "2", "--sweep", "--mu1", "0.5"], "--mu1 applies to --which 2 without --sweep"),
        (["examples", "--which", "1b", "--mu1", "0.5"], "--mu1 applies to"),
        (["examples", "--which", "1b", "--beta", "0.3"], "--beta applies to --which corollary"),
        (["examples", "--which", "2", "--sweep", "--beta", "0.3"], "--beta applies to"),
        (
            ["examples", "--which", "corollary", "--sweep", "--from", "0.1", "--to", "0.3", "--step", "0.1"],
            "--sweep does not apply to --which corollary",
        ),
        (["examples", "--which", "corollary", "--from", "0.1"], "--from does not apply to --which corollary"),
        (["examples", "--which", "corollary", "--step", "0.1"], "--step does not apply to --which corollary"),
        (["examples", "--which", "1b", "--from", "0"], "--from applies to --sweep only"),
        (["examples", "--which", "2", "--to", "3"], "--to applies to --sweep only"),
        (["examples", "--which", "1b", "--x", "50", "--step", "5"], "--step applies to --sweep only"),
        (["multi-offer", "INSTANCE", "--schedule", "SCHEDULE", "--n", "7"], "--n applies to --optimize only"),
        (
            ["examples", "--which", "2", "--seed", "5"],
            "--seed applies to --which corollary and to --which 1b without --sweep",
        ),
        (["examples", "--which", "2", "--sweep", "--seed", "5"], "--seed applies to"),
        (["examples", "--which", "1b", "--sweep", "--seed", "5"], "--seed applies to"),
        (["multi-offer", "INSTANCE", "--optimize", "--seed", "5"], "--seed applies to --schedule only"),
    ],
)
def test_flags_the_mode_does_not_read_are_rejected(capsys, instance, schedule_file, argv, message):
    """A flag that the selected mode would ignore is an error, not a report
    whose config does not record it."""
    argv = [{"INSTANCE": instance, "SCHEDULE": schedule_file}.get(a, a) for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {_WHOLE_MESSAGE.get(message, message)}\n"


@pytest.mark.parametrize(
    "implicit,explicit",
    [
        (["examples", "--which", "1b"], ["--x", "100"]),
        (["examples", "--which", "2"], ["--mu1", "1"]),
        (["multi-offer", "INSTANCE", "--optimize"], ["--n", "2"]),
        (["examples", "--which", "1b"], ["--seed", "42"]),
        (["examples", "--which", "1b", "--mc-samples", "1000"], ["--seed", "42"]),
        (["examples", "--which", "corollary"], ["--seed", "42"]),
        (["examples", "--which", "corollary", "--beta", "0.5", "--mc-samples", "1000"], ["--seed", "42"]),
        (["multi-offer", "INSTANCE", "--schedule", "SCHEDULE"], ["--seed", "42"]),
        (["multi-offer", "INSTANCE", "--schedule", "SCHEDULE", "--samples", "1000"], ["--seed", "42"]),
        (["gen"], ["--seed", "42"]),
    ],
)
def test_omitted_flags_report_their_defaults(capsys, instance, schedule_file, implicit, explicit):
    """Leaving out --x, --mu1, --n or --seed gives the same report bytes as
    passing its default."""
    implicit = [{"INSTANCE": instance, "SCHEDULE": schedule_file}.get(a, a) for a in implicit]
    code1, out1, _ = _run(capsys, implicit)
    code2, out2, _ = _run(capsys, implicit + explicit)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["examples", "--which", "1b", "--x", "nan"], "x must be finite and non-negative, got nan"),
        (["examples", "--which", "1b", "--x", "inf", "--mc-samples", "1000"], "x must be finite"),
        (["examples", "--which", "2", "--mu1", "inf"], "mu1 must be finite and non-negative, got inf"),
        (["examples", "--which", "2", "--mu1", "nan"], "mu1 must be finite"),
        (["examples", "--which", "corollary", "--beta", "nan"], "beta must be positive and finite, got nan"),
        (["examples", "--which", "corollary", "--beta", "inf"], "beta must be positive and finite, got inf"),
        (["examples", "--which", "1b", "--sweep", "--from", "5", "--to", "1"], "--to 1.0 is below --from 5.0"),
        (["examples", "--which", "2", "--sweep", "--to", "nan"], "--from, --to and --step must be finite"),
        (["examples", "--which", "2", "--sweep", "--from=-inf"], "must be finite"),
        (["sweep", "--param", "beta", "--step", "nan"], "--from, --to and --step must be finite"),
        (["sweep", "--param", "beta", "--to", "inf"], "must be finite"),
        (["sweep", "--param", "beta", "--from", "1.5", "--to", "0.5"], "--to 0.5 is below --from 1.5"),
        (["sweep", "--param", "beta", "--step", "0"], "--step must be positive, got 0.0"),
        (["sweep", "--param", "beta", "--from", "0.1", "--to", "1e308", "--step", "1e-300"], "more than 1000000 points"),
        (["sweep", "--param", "beta", "--from", "0.1", "--to", "1e9", "--step", "1e-3"], "more than 1000000 points"),
        (["examples", "--which", "2", "--sweep", "--from", "0", "--to", "1e6", "--step", "1"], "more than 1000000 points"),
        (["multi-offer", "INSTANCE", "--optimize", "--n", "1000001"], "--n 1000001 is above 1000000 steps"),
    ],
)
def test_non_finite_and_reversed_numbers_are_rejected(capsys, instance, argv, message):
    """A NaN or infinite parameter, a reversed range, a non-positive step,
    a range of more than ``MAX_POINTS`` points and a schedule of more than
    ``MAX_POINTS`` steps are errors, not reports of ``nan`` rows, no rows,
    a traceback or an allocation of gigabytes."""
    argv = [{"INSTANCE": instance}.get(a, a) for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {_WHOLE_MESSAGE.get(message, message)}\n"


def test_examples_1b_point_with_mc(capsys):
    argv = ["examples", "--which", "1b", "--x", "100", "--mc-samples", "2000"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    _, columns, rows = _split_report(out)
    assert columns[-1] == "mc_acceptance"
    assert len(rows) == 1
    assert abs(float(rows[0][4]) - 1.2) < 1e-9
    assert 0.0 < float(rows[0][9]) <= 1.0


def test_examples_1b_sweep(capsys):
    argv = ["examples", "--which", "1b", "--sweep", "--from", "0", "--to", "10", "--step", "5"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    _, _, rows = _split_report(out)
    assert [float(r[0]) for r in rows] == [0.0, 5.0, 10.0]


def test_examples_2_point(capsys):
    code, out, _ = _run(capsys, ["examples", "--which", "2", "--mu1", "1.0"])
    assert code == 0
    _, _, rows = _split_report(out)
    assert len(rows) == 2
    assert rows[1][0] == "poa_max_closed_form"
    assert float(rows[1][4]) > float(rows[0][4])


def test_examples_corollary_defaults(capsys):
    code, out, _ = _run(capsys, ["examples", "--which", "corollary"])
    assert code == 0
    _, columns, rows = _split_report(out)
    assert columns == ["beta", "gamma_star", "poa_bound"]
    assert [float(r[0]) for r in rows] == [0.25, 0.5, 0.75, 1.0]


def test_examples_which_required(capsys):
    code, out, err = _run(capsys, ["examples"])
    assert code == 2


@pytest.mark.parametrize(
    "argv,expected_rows",
    [
        (["sweep", "--param", "beta", "--from", "0.5", "--to", "1.0", "--step", "0.5"], 2),
    ],
)
def test_sweep_row_counts(capsys, argv, expected_rows):
    code, out, _ = _run(capsys, argv)
    assert code == 0
    _, _, rows = _split_report(out)
    assert len(rows) == expected_rows


def test_reports_rerun_byte_identical(capsys, instance, schedule_file, trade_file):
    invocations = [
        ["nash", instance],
        ["poa", instance],
        ["single-offer", instance],
        ["single-offer", instance, "--offer-strategy", "simplified"],
        ["multi-offer", instance, "--optimize", "--n", "3"],
        ["multi-offer", instance, "--schedule", schedule_file, "--samples", "300"],
        ["ms-check", "--instance", trade_file],
        ["ms-check", "--refine", "4"],
        ["examples", "--which", "1b", "--x", "100", "--mc-samples", "500"],
        ["examples", "--which", "corollary", "--beta", "0.5", "--mc-samples", "300"],
        ["sweep", "--param", "beta", "--from", "0.5", "--to", "1.0", "--step", "0.25"],
    ]
    for argv in invocations:
        code1, out1, _ = _run(capsys, argv)
        code2, out2, _ = _run(capsys, argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv


def test_report_header_hash_matches_config(capsys, instance):
    code, out, _ = _run(capsys, ["nash", instance])
    assert code == 0
    header, _, _ = _split_report(out)
    config = json.loads(header[3][len("# config: "):])
    assert header[4] == f"# config-sha256: {owio.config_hash(config)}"


def _input_digest(out):
    header, _, _ = _split_report(out)
    assert header[5].startswith("# input-sha256: ")
    return header[5][len("# input-sha256: "):]


def test_input_digest_follows_content_not_path(capsys, tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    digests, configs = {}, {}
    for seed in (7, 8):
        assert cli.run(["gen", "--seed", str(seed), "--out", str(one)]) == 0
        assert cli.run(["gen", "--seed", str(seed), "--out", str(two)]) == 0
        _, out_one, _ = _run(capsys, ["single-offer", str(one)])
        _, out_two, _ = _run(capsys, ["single-offer", str(two)])
        # one game at two paths: configs differ, the input digest does not
        assert _split_report(out_one)[0][4] != _split_report(out_two)[0][4]
        assert _input_digest(out_one) == _input_digest(out_two)
        digests[seed] = _input_digest(out_one)
        configs[seed] = _split_report(out_one)[0][4]
    # two games saved at one path: the config is the same, the digest is not
    assert configs[7] == configs[8]
    assert digests[7] != digests[8]


def test_input_digest_of_trade_instance(capsys, tmp_path, trade_file):
    _, out, _ = _run(capsys, ["ms-check", "--instance", trade_file])
    assert _input_digest(out) == owio.input_hash(owio.load_bilateral(trade_file))
    # listing the types in another order describes the same instance
    data = {
        "buyer": {"probs": [0.5, 0.5], "values": [0.9, 0.3]},
        "seller": {"probs": [0.5, 0.5], "values": [0.6, 0.2]},
    }
    digests = set()
    for k, order in enumerate(([0, 1], [1, 0])):
        path = tmp_path / f"trade{k}.json"
        sides = {
            side: {key: [block[key][i] for i in order] for key in block}
            for side, block in data.items()
        }
        path.write_text(json.dumps(sides), encoding="utf-8")
        _, out, _ = _run(capsys, ["ms-check", "--instance", str(path)])
        digests.add(_input_digest(out))
    assert len(digests) == 1


def _schedule_digest(out):
    header, _, _ = _split_report(out)
    assert len(header) == 7
    assert header[5].startswith("# input-sha256: ")
    assert header[6].startswith("# schedule-sha256: ")
    return header[6][len("# schedule-sha256: "):]


def test_schedule_digest_follows_content_not_path(capsys, instance, tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    digests = {}
    for gammas in ([0.2, 0.5], [0.3, 0.9]):
        text = json.dumps({"action": "a1", "gammas": gammas, "probs": [1.0, 0.5]})
        one.write_text(text, encoding="utf-8")
        two.write_text(text, encoding="utf-8")
        _, out_one, _ = _run(capsys, ["multi-offer", instance, "--schedule", str(one)])
        _, out_two, _ = _run(capsys, ["multi-offer", instance, "--schedule", str(two)])
        # one schedule at two paths: the schedule digest is the same
        assert _schedule_digest(out_one) == _schedule_digest(out_two)
        assert _input_digest(out_one) == _input_digest(out_two)
        digests[tuple(gammas)] = (_split_report(out_one)[0], _schedule_digest(out_one))
    # two schedules saved at one path: same config and input digest, different schedule digest
    (head_a, digest_a), (head_b, digest_b) = digests.values()
    assert head_a[:6] == head_b[:6]
    assert digest_a != digest_b
    assert digest_a == owio.schedule_hash("a1", (0.2, 0.5), (1.0, 0.5))


def test_optimize_report_has_no_schedule_digest(capsys, instance):
    _, out, _ = _run(capsys, ["multi-offer", instance, "--optimize"])
    header, _, _ = _split_report(out)
    assert len(header) == 6
    assert not any(ln.startswith("# schedule-sha256: ") for ln in header)


def test_reports_without_an_instance_have_no_input_digest(capsys):
    _, out, _ = _run(capsys, ["ms-check", "--refine", "3"])
    header, _, _ = _split_report(out)
    assert len(header) == 5
    assert not any(ln.startswith("# input-sha256: ") for ln in header)
