"""Versioned JSON instance files and deterministic CSV reports.

Loaders reject malformed files with a one-line diagnostic naming the file,
the offending field, and the expected shape. Report writers emit a comment
header (version, subcommand, seed, config hash and, for commands that read
an instance or a schedule, the hash of its content) followed by plain CSV;
given the same configuration they produce byte-identical files.

Every command writes a report, so ``oneway.cli`` imports this module at
once; it imports neither numpy nor ``game`` at module level, so a command
whose report holds only closed forms never loads numpy. ``load_game`` and
``input_hash`` import what they need when they are called.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import IO, TYPE_CHECKING, Any, Sequence

from . import __version__ as TOOL_VERSION

if TYPE_CHECKING:
    from .bilateral import BilateralTradeInstance
    from .game import OneWayGame

FORMAT_VERSION = 1
_BLOCK_ROWS = 4096  # rows formatted at a time, bounding what a report holds as text


class InstanceFormatError(ValueError):
    """Malformed instance file; formats as a single diagnostic line."""

    def __init__(self, path: str, field: str, expected: str):
        self.path = path
        self.field = field
        self.expected = expected
        super().__init__(f"{path}: field '{field}': expected {expected}")


def _require(data: dict, field: str, path: str, expected: str) -> Any:
    if field not in data:
        raise InstanceFormatError(path, field, expected + " (missing)")
    return data[field]


def _float(x: int | float, path: str, field: str) -> float:
    """A JSON number as a float. json reads an integer exactly, however
    long, so one beyond the float range is rejected here, naming its field,
    rather than by an OverflowError where it is converted."""
    try:
        return float(x)
    except OverflowError:
        raise InstanceFormatError(path, field, "a number within the float range") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InstanceFormatError(path, "<file>", "an existing file") from None
    except UnicodeDecodeError:
        raise InstanceFormatError(path, "<file>", "UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(path, "<file>", f"valid JSON ({exc.msg} at line {exc.lineno})") from None
    except RecursionError:
        raise InstanceFormatError(path, "<file>", "valid JSON (nested too deeply)") from None
    if not isinstance(data, dict):
        raise InstanceFormatError(path, "<file>", "a JSON object")
    return data


def _check_version(data: dict, path: str) -> None:
    version = _require(data, "version", path, f"integer {FORMAT_VERSION}")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InstanceFormatError(path, "version", f"{FORMAT_VERSION}, got {version!r}")


def _id_list(data: dict, field: str, path: str) -> list[str]:
    raw = _require(data, field, path, "a non-empty list of identifiers")
    if not isinstance(raw, list) or not raw or not all(isinstance(x, str) for x in raw):
        raise InstanceFormatError(path, field, "a non-empty list of strings")
    return raw


def _typed_prior(data: dict, field: str, path: str) -> tuple[list[str], list[float]]:
    raw = _require(data, field, path, 'a list of {"id": str, "prob": number}')
    if not isinstance(raw, list) or not raw:
        raise InstanceFormatError(path, field, 'a non-empty list of {"id", "prob"} objects')
    ids, probs = [], []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict) or "id" not in entry or "prob" not in entry:
            raise InstanceFormatError(path, f"{field}[{k}]", 'an object with "id" and "prob"')
        ident, prob = entry["id"], entry["prob"]
        if not isinstance(ident, str):
            raise InstanceFormatError(path, f"{field}[{k}].id", "a string")
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise InstanceFormatError(path, f"{field}[{k}].prob", "a number")
        ids.append(ident)
        probs.append(_float(prob, path, f"{field}[{k}].prob"))
    return ids, probs


def _rect(raw: Any, dims: Sequence[tuple[str, int]], field: str, path: str) -> list:
    """Check that nested lists of numbers have the shape ``dims``, naming the
    first axis that mismatches, and that each number converts to a float;
    returns them as they are."""

    def walk(node: Any, depth: int, index: str) -> None:
        axis, size = dims[depth]
        if not isinstance(node, list):
            raise InstanceFormatError(path, field + index, f"a list along axis {axis}")
        if len(node) != size:
            raise InstanceFormatError(
                path, field + index, f"length {size} along axis {axis}, got {len(node)}"
            )
        if depth + 1 < len(dims):
            for k, child in enumerate(node):
                walk(child, depth + 1, f"{index}[{k}]")
        else:
            for k, cell in enumerate(node):
                if not isinstance(cell, (int, float)) or isinstance(cell, bool):
                    raise InstanceFormatError(path, f"{field}{index}[{k}]", "a number")
                if type(cell) is int:
                    _float(cell, path, f"{field}{index}[{k}]")

    walk(raw, 0, "")
    return raw


def load_game(path: str) -> OneWayGame:
    """Load a one-way game instance file (format version 1)."""
    from .game import make_game

    data = _load_json(path)
    _check_version(data, path)
    actions_a = _id_list(data, "actions_A", path)
    actions_b = _id_list(data, "actions_B", path)
    types_a, prior_a = _typed_prior(data, "types_A", path)
    types_b, prior_b = _typed_prior(data, "types_B", path)
    payoff_a = _rect(
        _require(data, "payoff_A", path, "a types_A x actions_A table"),
        [("types_A", len(types_a)), ("actions_A", len(actions_a))],
        "payoff_A",
        path,
    )
    payoff_b = _rect(
        _require(data, "payoff_B", path, "a types_B x actions_A x actions_B table"),
        [("types_B", len(types_b)), ("actions_A", len(actions_a)), ("actions_B", len(actions_b))],
        "payoff_B",
        path,
    )
    try:
        return make_game(actions_a, actions_b, zip(types_a, prior_a), zip(types_b, prior_b), payoff_a, payoff_b)
    except ValueError as exc:
        raise InstanceFormatError(path, "<instance>", f"a valid game: {exc}") from None


def game_to_dict(game: OneWayGame) -> dict:
    return {
        "version": FORMAT_VERSION,
        "actions_A": list(game.actions_a),
        "actions_B": list(game.actions_b),
        "types_A": [
            {"id": t, "prob": float(p)} for t, p in zip(game.types_a, game.prior_a)
        ],
        "types_B": [
            {"id": t, "prob": float(p)} for t, p in zip(game.types_b, game.prior_b)
        ],
        "payoff_A": game.payoff_a.tolist(),
        "payoff_B": game.payoff_b.tolist(),
    }


def save_game(game: OneWayGame, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _number_lists(path: str, prefix: str, **lists: Any) -> list[tuple[float, ...]]:
    """Check that each named field is a non-empty list of numbers and that
    the second is as long as the first; returns them as tuples of floats.
    Fields are reported as prefix+name."""
    for name, raw in lists.items():
        if not isinstance(raw, list) or not raw or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
        ):
            raise InstanceFormatError(path, prefix + name, "a non-empty list of numbers")
    (first, a), (second, b) = lists.items()
    if len(a) != len(b):
        raise InstanceFormatError(path, prefix + second, f"length {len(a)} to match {first}")
    return [
        tuple(_float(x, path, f"{prefix}{name}[{k}]") for k, x in enumerate(raw)) for name, raw in lists.items()
    ]


def load_schedule_file(path: str) -> tuple[str, tuple[float, ...], tuple[float, ...]]:
    """Read a posted transfer schedule: {"action", "gammas", "probs"}."""
    data = _load_json(path)
    action = _require(data, "action", path, "an A action identifier")
    if not isinstance(action, str):
        raise InstanceFormatError(path, "action", "a string")
    gammas = _require(data, "gammas", path, "a list of numbers")
    probs = _require(data, "probs", path, "a list of numbers")
    gammas, probs = _number_lists(path, "", gammas=gammas, probs=probs)
    return action, gammas, probs


def load_bilateral(path: str) -> BilateralTradeInstance:
    from .bilateral import BilateralTradeInstance

    data = _load_json(path)
    out = []
    for side in ("seller", "buyer"):
        block = _require(data, side, path, 'an object {"values", "probs"}')
        if not isinstance(block, dict):
            raise InstanceFormatError(path, side, 'an object {"values", "probs"}')
        out.append(_number_lists(path, f"{side}.", values=block.get("values"), probs=block.get("probs")))
    try:
        return BilateralTradeInstance(*out[0], *out[1])
    except ValueError as exc:
        raise InstanceFormatError(path, "<instance>", f"a valid trade instance: {exc}") from None


def config_hash(config: dict) -> str:
    """Stable hash of a run configuration (sorted-key canonical JSON)."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def input_hash(instance: OneWayGame | BilateralTradeInstance) -> str:
    """Hash of an instance's content, whatever path it was read from: the
    canonical JSON of ``game_to_dict`` or of the parsed trade instance (in
    the file format, each side sorted by value)."""
    from .game import OneWayGame

    if isinstance(instance, OneWayGame):
        return config_hash(game_to_dict(instance))
    seller = {"values": list(instance.seller_values), "probs": list(instance.seller_probs)}
    buyer = {"values": list(instance.buyer_values), "probs": list(instance.buyer_probs)}
    return config_hash({"seller": seller, "buyer": buyer})


def schedule_hash(action: str, gammas: Sequence[float], probs: Sequence[float]) -> str:
    """Hash of a posted schedule's content, whatever path it was read from:
    the canonical JSON of its parsed ``{"action", "gammas", "probs"}``."""
    return config_hash({"action": action, "gammas": list(gammas), "probs": list(probs)})


def format_column(values: Sequence[Any]) -> list[str]:
    """The cells of one report column as CSV text: floats (numpy's too) as
    the ``repr`` of the Python float, bools (numpy's too) as ``true`` or
    ``false``, integers as their decimal digits, strings as they are and
    anything else through ``str``.

    The rule is chosen once for a column of only ``float``/``np.float64``
    cells or only ``str`` cells, and per cell for any other column. No cell
    is a numpy scalar unless numpy was imported, so the numpy types are
    tested only once it is in ``sys.modules``, and a command that never
    loads numpy formats its report without it."""
    np = sys.modules.get("numpy")
    if np is None:
        exact_floats, floats, bools, ints = {float}, float, bool, int
    else:
        exact_floats = {float, np.float64}  # cells ``float.__repr__`` formats as they are
        floats, bools, ints = (float, np.floating), (bool, np.bool_), (int, np.integer)
    kinds = set(map(type, values))
    if kinds <= exact_floats:
        return list(map(float.__repr__, values))
    if kinds == {str}:
        return list(values)
    out: list[str] = []
    append = out.append
    for value in values:
        if isinstance(value, floats):  # most cells, so tested first
            append(repr(float(value)))
        elif isinstance(value, str):
            append(value)
        elif isinstance(value, bools):
            append("true" if value else "false")
        elif isinstance(value, ints):
            append(str(int(value)))
        else:
            append(str(value))
    return out


def write_report(
    fh: IO[str],
    subcommand: str,
    config: dict,
    table: dict[str, Sequence[Any]],
    input_sha256: str | None = None,
    schedule_sha256: str | None = None,
) -> None:
    """Write one report: comment header block, then CSV with one column per
    entry of ``table`` (name to values), in its order. ``input_sha256``
    (see ``input_hash``) identifies the instance the report was computed on,
    ``schedule_sha256`` (see ``schedule_hash``) the schedule it evaluated."""
    lengths = {name: len(values) for name, values in table.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"report columns differ in length: {lengths}")
    fh.write(f"# oneway v{TOOL_VERSION}\n")
    fh.write(f"# subcommand: {subcommand}\n")
    fh.write(f"# seed: {config.get('seed', 'none')}\n")
    fh.write(f"# config: {json.dumps(config, sort_keys=True, separators=(',', ':'))}\n")
    fh.write(f"# config-sha256: {config_hash(config)}\n")
    if input_sha256 is not None:
        fh.write(f"# input-sha256: {input_sha256}\n")
    if schedule_sha256 is not None:
        fh.write(f"# schedule-sha256: {schedule_sha256}\n")
    fh.write(",".join(table) + "\n")
    for start in range(0, max(lengths.values(), default=0), _BLOCK_ROWS):
        cells = [format_column(values[start : start + _BLOCK_ROWS]) for values in table.values()]
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
