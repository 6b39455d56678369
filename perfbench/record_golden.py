"""Record the values that seed-independent reports must reproduce.

    python3 perfbench/record_golden.py

Runs each command below against ``src/`` and writes perfbench/golden.json.
The values were recorded from the package as of commit a839576; re-record
them only when a change alters these values on purpose, and say why in
CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
# argv -> whether the values are closed forms (else LP solutions)
COMMANDS = {
    ("examples", "--which", "2"): True,
    ("examples", "--which", "corollary"): True,
    ("sweep", "--param", "beta"): True,
    ("ms-check", "--refine", "30"): False,
}


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ONEWAY_THREADS", None)
    golden = {}
    for argv, closed in COMMANDS.items():
        text = subprocess.run(
            [sys.executable, "-m", "oneway.cli", *argv], env=env, capture_output=True, text=True, check=True
        ).stdout
        header, columns, rows = checks.parse_report(text)
        golden[" ".join(argv)] = {
            "subcommand": header["subcommand"],
            "closed_form": closed,
            "columns": columns,
            "rows": [[row[c] for c in columns] for row in rows],
        }
    checks.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
