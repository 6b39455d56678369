"""The command battery: every ``oneway`` command the project pins, run as
the console script runs it, and checked for byte-identical reports.

    python tests/battery.py [OTHER/src ...]

Each row is an exit code and an argv: ``TABLE``, then the benchmark's
commands at seeds 1 and 3. Each runs in a fresh copy of inputs the battery
writes, by relative path, with ``PYTHONPATH=<tree>/src``, under
``OPENBLAS_NUM_THREADS=1`` and again under ``=2``. A row fails when

- its exit code is not the row's;
- its stderr breaks the rule for that code: empty on 0; on 1, one line
  starting ``invalid: `` for ``validate`` and ``error: `` otherwise; on 2,
  starting ``usage: oneway``;
- the two runs differ in exit code, stdout, stderr or ``--out`` bytes;
- on ``order.json``, its sorted report body (the lines that are not ``#``
  comments) differs from that on ``reversed.json``, A's types reversed;
- another tree given as an argument differs from this one (thread count 1).

It prints each failed check, with the row's argv and the first differing
line and column, and a summary; it exits 1 if a check failed. Every
comparison is between runs on one machine, so nothing expected is committed.
"""

import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CLI = "import sys; from oneway.cli import main; main()"
ORDER, REVERSED = "order.json", "reversed.json"
FILES = {
    "schedule.json": {"action": "a1", "gammas": [0.2, 0.5], "probs": [1.0, 0.5]},
    "trade.json": {
        "seller": {"values": [0.1, 0.4, 0.7], "probs": [0.3, 0.3, 0.4]},
        "buyer": {"values": [0.2, 0.5, 0.9], "probs": [0.5, 0.25, 0.25]},
    },
    # B gains 5e-324 from a2 over her fallback; it costs t1 a sacrifice of 1.0,
    # so t1's break-even share overflows.
    "tiny.json": {
        "version": 1, "actions_A": ["a1", "a2"], "actions_B": ["b1"],
        "types_A": [{"id": "t1", "prob": 1.0}], "types_B": [{"id": "u1", "prob": 1.0}],
        "payoff_A": [[1.0, 0.0]], "payoff_B": [[[0.0], [5e-324]]],
    },
    # Every type accepts a1 at share 0, and A's plus B's payoff passes the
    # largest float on every profile.
    "overflow.json": {
        "version": 1, "actions_A": ["a1", "a2"], "actions_B": ["b1", "b2"],
        "types_A": [{"id": "t1", "prob": 0.5}, {"id": "t2", "prob": 0.5}], "types_B": [{"id": "u1", "prob": 1.0}],
        "payoff_A": [[1.5e308, 1e308], [1.6e308, 0.0]], "payoff_B": [[[1.7e308, 0.0], [1.7e308, 1.7e308]]],
    },
    "cli/schedule.json": {"action": "a1", "gammas": [0.3, 0.5], "probs": [1.0, 0.5]},
    "cli/trade.json": {"seller": {"values": [0.25], "probs": [1.0]}, "buyer": {"values": [0.75], "probs": [1.0]}},
}


class Row(NamedTuple):
    code: int
    argv: tuple[str, ...]

    @property
    def out(self) -> str | None:
        return self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None

    def __str__(self) -> str:
        return shlex.join(self.argv)


def table(text: str) -> list[Row]:
    """One row a line: the exit code, then the argv as a shell splits it."""
    lines = (shlex.split(line, comments=True) for line in text.splitlines())
    return [Row(int(line[0]), tuple(line[1:])) for line in lines if line]


TABLE = table(
    """
    0 gen --out game.json
    0 gen --seed 7
    0 validate game.json
    # A file that is a 400-digit payoff, not UTF-8 text, or a directory is invalid, in one line.
    1 validate huge.json
    1 validate latin.json
    1 validate dir
    1 nash dir
    0 --help
    0 validate --help
    0 nash --help
    0 poa --help
    0 single-offer --help
    0 multi-offer --help
    0 ms-check --help
    0 examples --help
    0 gen --help
    0 sweep --help
    # What argparse rejects exits 2; every other error, a flag the mode does not read too, exits 1.
    2 nash
    1 examples --which 2 --x 5
    0 nash game.json
    0 poa game.json
    0 single-offer game.json
    0 single-offer game.json --offer-strategy simplified
    0 single-offer tiny.json
    0 multi-offer game.json --optimize
    0 multi-offer game.json --schedule schedule.json --samples 1000
    0 multi-offer overflow.json --schedule schedule.json --samples 100
    # A schedule simulation draws its cell counts, not each run, so 2**63 - 1 draws finish. The
    # single-offer estimators keep every batch's folds, so they reject 2**32 + 1 (2**32 takes minutes).
    0 multi-offer game.json --schedule schedule.json --samples 9223372036854775807
    1 multi-offer game.json --schedule schedule.json --samples 9223372036854775808
    1 examples --which 1b --mc-samples 9223372036854775808
    1 examples --which 1b --mc-samples 4294967297
    # x = 0: no draw accepts, x = 400: every draw does; the top seed passes through SeedSequence.
    0 examples --which 1b --mc-samples 1000
    0 examples --which 1b --x 0 --mc-samples 1000
    0 examples --which 1b --x 400 --mc-samples 1000
    0 examples --which corollary --mc-samples 1000
    0 examples --which corollary --mc-samples 1000 --seed 18446744073709551615
    # The closed forms reject a seed outside [0, 2**64) although they draw nothing.
    0 examples --which 2
    0 examples --which corollary
    1 examples --which 1b --seed -1
    0 sweep --param beta
    0 ms-check --refine 3
    0 ms-check --instance trade.json
    # OpenBLAS splits a product across threads only on long vectors: 20,000 A types, and
    # 40,000 A types with 50 B actions, the shape on which a BLAS fallback once moved.
    0 examples --which corollary --mc-samples 200000 --seed 3
    0 examples --which 1b --mc-samples 200000 --seed 3
    0 multi-offer game.json --schedule schedule.json --samples 200000
    0 single-offer big.json
    0 single-offer big.json --offer-strategy simplified
    0 multi-offer big.json --schedule schedule.json
    0 nash big.json
    0 single-offer wide.json
    0 nash wide.json
    # 2,000 A types with unequal priors; each row also runs on A's types reversed.
    0 single-offer order.json
    0 single-offer order.json --offer-strategy simplified
    0 multi-offer order.json --schedule schedule.json
    0 nash order.json
    0 poa order.json
    # Every report command once more, on the instance of tests/test_cli.py.
    0 nash cli/game.json
    0 poa cli/game.json
    0 single-offer cli/game.json
    0 single-offer cli/game.json --offer-strategy simplified
    0 multi-offer cli/game.json --optimize --n 3
    0 multi-offer cli/game.json --schedule cli/schedule.json --samples 300
    0 ms-check --instance cli/trade.json
    0 ms-check --refine 4
    0 examples --which 1b --x 100 --mc-samples 500
    0 examples --which corollary --beta 0.5 --mc-samples 300
    0 sweep --param beta --from 0.5 --to 1.0 --step 0.25
    """
)


def _oneway(argv, cwd: Path, src: Path = SRC, threads: str = "1") -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    path = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    env.update(PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
    return subprocess.run([sys.executable, "-c", CLI, *argv], cwd=cwd, env=env, capture_output=True, timeout=600)


def _gen(cwd: Path, argv) -> bytes:
    """The stdout of ``oneway ARGV``, a ``gen``, run in ``cwd`` with this checkout."""
    res = _oneway(argv, cwd)
    res.check_returncode()
    return res.stdout


def _dump(path: Path, data) -> None:
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def write_inputs(root: Path) -> None:
    """Write the files that ``TABLE`` reads into ``root``."""
    (root / "cli").mkdir(parents=True)
    (root / "dir").mkdir()
    _gen(root, ["gen", "--out", "game.json"])
    _gen(root, ["gen", "--types-a", "20000", "--out", "big.json"])
    _gen(root, ["gen", "--types-a", "40000", "--actions-b", "50", "--out", "wide.json"])
    _gen(root, ["gen", "--seed", "7", "--out", "cli/game.json"])
    huge = json.loads((root / "game.json").read_text(encoding="utf-8"))
    huge["payoff_A"][0][0] = int("9" * 400)
    _dump(root / "huge.json", huge)
    (root / "latin.json").write_bytes(b"\xff\xfe{}")
    for name, data in FILES.items():
        _dump(root / name, data)
    game = json.loads(_gen(root, ["gen", "--types-a", "2000"]))
    weights = [random.Random(i).uniform(0.1, 1.0) for i in range(len(game["types_A"]))]
    for t, w in zip(game["types_A"], weights):
        t["prob"] = w / sum(weights)
    _dump(root / ORDER, game)
    game["types_A"].reverse()
    game["payoff_A"].reverse()
    _dump(root / REVERSED, game)


def bench_rows(root: Path) -> list[Row]:
    """Write the benchmark's inputs at seeds 1 and 3 into ``root/benchSEED``
    with ``perfbench/workloads.prepare``; its commands as rows."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    rows = []
    for seed in (1, 3):
        sub = root / f"bench{seed}"
        sub.mkdir()
        for name in workloads.WHY:
            made, commands = workloads.prepare(name, seed, sub, lambda argv: _gen(sub, argv))
            files = {*made.games, made.schedule, made.trade}
            rows += [Row(0, tuple(f"{sub.name}/{a}" if a in files | {c.out} else a for a in c.argv)) for c in commands]
    return rows


def run(row: Row, inputs: Path, src: Path = SRC, threads: str = "1") -> dict:
    """The row's exit code, stdout, stderr and ``--out`` bytes (None if it
    wrote none), run with the tree ``src`` in a fresh copy of ``inputs``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = shutil.copytree(inputs, Path(tmp) / "work")
        res = _oneway(row.argv, work, src, threads)
        got = {"exit": res.returncode, "stdout": res.stdout, "stderr": res.stderr}
        if row.out:
            got[row.out] = (work / row.out).read_bytes() if (work / row.out).is_file() else None
        return got


def first_difference(a, b) -> str:
    """Where two different outputs first differ: line and column, from 1."""
    if not (isinstance(a, bytes) and isinstance(b, bytes)):
        return f"{a!r:.60} against {b!r:.60}"
    sides = a.split(b"\n"), b.split(b"\n")
    line = len(os.path.commonprefix(sides))
    x, y = (lines[line] if line < len(lines) else b"" for lines in sides)
    col = len(os.path.commonprefix([x, y]))
    clip = [text[max(0, col - 30) : col + 30].decode(errors="replace") for text in (x, y)]
    return f"line {line + 1}, column {col + 1}: {clip[0]!r} against {clip[1]!r}"


def keeps_stderr_rule(row: Row, got: dict) -> bool:
    """Exit 0 leaves stderr empty, exit 1 writes one line that names the
    failure, and exit 2 is a usage error."""
    err = got["stderr"].decode(errors="replace")
    if got["exit"] == 0:
        return err == ""
    if got["exit"] == 1:
        start = "invalid: " if row.argv[0] == "validate" else "error: "
        return err.startswith(start) and err.endswith("\n") and err.count("\n") == 1
    return got["exit"] == 2 and err.startswith("usage: oneway")


def sorted_body(stdout: bytes) -> bytes:
    return b"\n".join(sorted(line for line in stdout.split(b"\n") if not line.startswith(b"#")))


def check(rows: list[Row], inputs: Path, trees: list[Path] = ()) -> list[tuple[Row, str, str]]:
    """Run each row, and each row on ``order.json`` once more on
    ``reversed.json``; one (row, against what, how) per failed check."""
    twins = {
        row: Row(row.code, tuple(REVERSED if a == ORDER else a for a in row.argv)) for row in rows if ORDER in row.argv
    }
    failures, stdout = [], {}
    for row in [*rows, *twins.values()]:
        one = run(row, inputs)
        stdout[row] = one["stdout"]
        if one["exit"] != row.code:
            failures.append((row, "exit code", f"{one['exit']}, not {row.code}"))
        if not keeps_stderr_rule(row, one):
            failures.append((row, "stderr rule", f"exit {one['exit']} with stderr {one['stderr'][:200]!r}"))
        others = {"OPENBLAS_NUM_THREADS=2": run(row, inputs, SRC, "2")} | {str(t): run(row, inputs, t) for t in trees}
        for against, other in others.items():
            differ = [key for key in one if one[key] != other[key]]
            failures += [(row, against, f"{key} {first_difference(one[key], other[key])}") for key in differ]
    for row, twin in twins.items():
        body, twin_body = sorted_body(stdout[row]), sorted_body(stdout[twin])
        if body != twin_body:
            failures.append((row, REVERSED, f"sorted body {first_difference(body, twin_body)}"))
    return failures


def main(args: list[str]) -> int:
    trees = [Path(a).resolve() for a in args]
    if not all((tree / "oneway" / "cli.py").is_file() for tree in trees):
        print("usage: python tests/battery.py [OTHER/src ...]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        write_inputs(inputs)
        rows = list(dict.fromkeys(TABLE + bench_rows(inputs)))
        failures = check(rows, inputs, trees)
    for row, against, how in failures:
        print(f"FAIL {row}: {against}: {how}")
    count = len(rows) + sum(ORDER in row.argv for row in rows)
    print(f"battery: {count} rows under OPENBLAS_NUM_THREADS=1 and 2, {len(failures)} failed checks")
    for tree in trees:
        differ = sorted({str(row) for row, against, _ in failures if against == str(tree)})
        print(f"against {tree}: {count - len(differ)} of {count} rows byte-identical")
        for row in differ:
            print(f"  differs: {row}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
