"""The report writer as it stood before reports became tables of named
columns, kept verbatim as a test-only oracle: ``format_cell`` formats one
cell at a time, and ``write_report`` takes the column names and the rows
as two parallel inputs."""

from __future__ import annotations

import json
from typing import IO, Any, Iterable, Sequence

import numpy as np

from oneway.io import TOOL_VERSION, config_hash


def format_cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):  # most cells, so tested first
        return repr(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_report(
    fh: IO[str],
    subcommand: str,
    config: dict,
    columns: Sequence[str],
    rows: Iterable[Sequence[Any]],
    input_sha256: str | None = None,
    schedule_sha256: str | None = None,
) -> None:
    """Write one report: comment header block, then CSV. ``input_sha256``
    (see ``input_hash``) identifies the instance the report was computed on,
    ``schedule_sha256`` (see ``schedule_hash``) the schedule it evaluated."""
    fh.write(f"# oneway v{TOOL_VERSION}\n")
    fh.write(f"# subcommand: {subcommand}\n")
    fh.write(f"# seed: {config.get('seed', 'none')}\n")
    fh.write(f"# config: {json.dumps(config, sort_keys=True, separators=(',', ':'))}\n")
    fh.write(f"# config-sha256: {config_hash(config)}\n")
    if input_sha256 is not None:
        fh.write(f"# input-sha256: {input_sha256}\n")
    if schedule_sha256 is not None:
        fh.write(f"# schedule-sha256: {schedule_sha256}\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(format_cell(v) for v in row) + "\n")
