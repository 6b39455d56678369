"""The benchmark's workloads: their inputs and their command lists.

Every input comes from the benchmark seed, through ``oneway gen --seed`` or
written here from ``random.Random(seed)``; the program only sees the files.
Each workload puts most of its time into one layer that a ROADMAP item will
optimise and almost none into the layers the other workloads stress:

- cli-small: short subcommands on default-size games, almost all interpreter
  start, imports and io. The control for search, LP and Monte Carlo changes.
- offer-search: single- and multi-offer search on a deep game (10 A actions,
  4 B actions, 200 A types, 4 B types), then poa on a wide game (200 x 200
  type profiles) with a 2.4 MB report. The deep game is written here rather
  than by ``gen``: on ``gen`` games the number of candidate offers, and so
  the search time, varies by about 14% (quartile spread) from seed to seed,
  which would swamp the changes the benchmark must resolve. Its payoffs
  are random, but its shape fixes the search at 1,820 candidate offers.
- trade-lp: the trade-feasibility LP sweep over uniform grids 2..30 with the
  default worker count, then a seeded non-uniform 40 x 40 instance.
- monte-carlo: 10^7-draw simulations (exact and aggregate accounting, and a
  schedule), with no LP and no search.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MC_SAMPLES = 10_000_000

WHY = {
    "cli-small": "about ten short subcommands: interpreter start, imports and io; control for search, LP and MC",
    "offer-search": "single- and multi-offer search on a deep game, then poa over 200 x 200 profiles",
    "trade-lp": "trade-feasibility LP sweep over grids 2..30 on the thread pool, then a 40 x 40 instance",
    "monte-carlo": "10^7-draw batched simulations of the worked examples and a schedule; no LP, no search",
}


@dataclass(frozen=True)
class Command:
    """One ``oneway`` invocation. ``check`` names the output check;
    ``out`` is the report file when the command writes one with --out."""

    argv: tuple[str, ...]
    check: str
    out: str | None = None


@dataclass(frozen=True)
class Inputs:
    """Generated input files (names relative to the work directory)."""

    games: tuple[str, ...] = ()
    schedule: str | None = None
    trade: str | None = None


def gen_args(seed: int, actions_a=3, actions_b=2, types_a=3, types_b=2) -> list[str]:
    return [
        "gen",
        "--seed", str(seed),
        "--actions-a", str(actions_a),
        "--actions-b", str(actions_b),
        "--types-a", str(types_a),
        "--types-b", str(types_b),
    ]


def write_schedule(path: Path, seed: int, n_actions: int) -> None:
    """A 3-step schedule with strictly increasing shares and continuation
    probabilities strictly between 0 and 1."""
    rng = random.Random(f"schedule-{seed}")
    gammas = sorted(round(rng.uniform(0.05, 0.95), 6) for _ in range(3))
    while len(set(gammas)) < 3:
        gammas = sorted(round(rng.uniform(0.05, 0.95), 6) for _ in range(3))
    spec = {
        "action": f"a{rng.randrange(n_actions) + 1}",
        "gammas": gammas,
        "probs": [1.0, round(rng.uniform(0.2, 0.9), 6), round(rng.uniform(0.2, 0.9), 6)],
    }
    path.write_text(json.dumps(spec) + "\n", encoding="utf-8")


def write_deep_game(path: Path, seed: int, n_actions=10, n_replies=4, n_types=200,
                    accepting=(60, 80, 100, 120), offered=5) -> None:
    """A game whose offer search visits the same number of candidates for
    every seed. Every A type's selfish action is a1; each other action costs
    type i a random sacrifice. For B type k, ``offered`` random actions beat
    B's fallback (B's best reply to a1) by a gain placed between the
    ``accepting[k]``-th and the next smallest sacrifice, so exactly that many
    types have a break-even share in [0, 1]; the other actions fall short of
    the fallback. Types of B are the entries of ``accepting``."""
    rng = random.Random(f"deep-{seed}")
    default = [rng.uniform(5.0, 10.0) for _ in range(n_types)]
    sacrifice = [[rng.uniform(0.0, d) for d in default] for _ in range(n_actions - 1)]
    payoff_a = [[default[i]] + [default[i] - s[i] for s in sacrifice] for i in range(n_types)]
    payoff_b = []
    for count in accepting:
        base = [rng.uniform(0.0, 10.0) for _ in range(n_replies)]
        fallback = max(base)
        chosen = set(rng.sample(range(1, n_actions), offered))
        rows = [base]
        for j in range(1, n_actions):
            if j in chosen:
                ordered = sorted(sacrifice[j - 1])
                top = fallback + (ordered[count - 1] + ordered[count]) / 2.0
                row = [rng.uniform(0.0, top) for _ in range(n_replies)]
                row[rng.randrange(n_replies)] = top
            else:
                row = [rng.uniform(0.0, fallback) for _ in range(n_replies)]
            rows.append(row)
        payoff_b.append(rows)
    game = {
        "version": 1,
        "actions_A": [f"a{j + 1}" for j in range(n_actions)],
        "actions_B": [f"b{l + 1}" for l in range(n_replies)],
        "types_A": [{"id": f"t{i + 1}", "prob": 1.0 / n_types} for i in range(n_types)],
        "types_B": [{"id": f"u{k + 1}", "prob": 1.0 / len(accepting)} for k in range(len(accepting))],
        "payoff_A": payoff_a,
        "payoff_B": payoff_b,
    }
    path.write_text(json.dumps(game) + "\n", encoding="utf-8")


def write_trade(path: Path, seed: int, k: int = 40) -> None:
    """Non-uniform k x k trade instance: values on [0, 1], priors with
    weights in [0.5, 1.5] normalised to sum to 1."""
    rng = random.Random(f"trade-{seed}")

    def side():
        values = sorted(rng.uniform(0.0, 1.0) for _ in range(k))
        weights = [rng.uniform(0.5, 1.5) for _ in range(k)]
        total = sum(weights)
        probs = [w / total for w in weights]
        probs[-1] = 1.0 - sum(probs[:-1])
        return {"values": values, "probs": probs}

    path.write_text(json.dumps({"seller": side(), "buyer": side()}) + "\n", encoding="utf-8")


def prepare(name: str, seed: int, workdir: Path, gen: Callable[[list[str]], None]) -> tuple[Inputs, list[Command]]:
    """Write the workload's inputs into ``workdir`` and return its commands.
    ``gen(argv)`` runs ``oneway gen`` with the given arguments."""
    if name == "cli-small":
        gen(gen_args(seed) + ["--out", "small.json"])
        write_schedule(workdir / "sched.json", seed, 3)
        inputs = Inputs(games=("small.json",), schedule="sched.json")
        return inputs, [
            Command(("validate", "small.json"), "validate"),
            Command(("nash", "small.json"), "nash"),
            Command(("poa", "small.json"), "poa"),
            Command(("single-offer", "small.json"), "single-offer-optimal"),
            Command(("single-offer", "small.json", "--offer-strategy", "simplified"), "single-offer-simplified"),
            Command(("multi-offer", "small.json", "--optimize", "--n", "3"), "multi-offer-optimize"),
            Command(("multi-offer", "small.json", "--schedule", "sched.json"), "multi-offer-schedule"),
            Command(("examples", "--which", "2"), "golden"),
            Command(("examples", "--which", "corollary"), "golden"),
            Command(("sweep", "--param", "beta"), "golden"),
        ]
    if name == "offer-search":
        write_deep_game(workdir / "deep.json", seed)
        gen(gen_args(seed, 3, 2, 200, 200) + ["--out", "wide.json"])
        inputs = Inputs(games=("deep.json", "wide.json"))
        return inputs, [
            Command(("single-offer", "deep.json"), "single-offer-optimal"),
            Command(("single-offer", "deep.json", "--offer-strategy", "simplified"), "single-offer-simplified"),
            Command(("multi-offer", "deep.json", "--optimize", "--n", "3"), "multi-offer-optimize"),
            Command(("poa", "wide.json", "--out", "wide_poa.csv"), "poa", out="wide_poa.csv"),
        ]
    if name == "trade-lp":
        write_trade(workdir / "trade.json", seed)
        inputs = Inputs(trade="trade.json")
        return inputs, [
            Command(("ms-check", "--refine", "30"), "golden"),
            Command(("ms-check", "--instance", "trade.json"), "ms-check-instance"),
        ]
    if name == "monte-carlo":
        gen(gen_args(seed) + ["--out", "small.json"])
        write_schedule(workdir / "sched.json", seed, 3)
        inputs = Inputs(games=("small.json",), schedule="sched.json")
        mc = ("--mc-samples", str(MC_SAMPLES), "--seed", str(seed))
        return inputs, [
            Command(("examples", "--which", "corollary") + mc, "mc-corollary"),
            Command(("examples", "--which", "1b", "--x", "100") + mc, "mc-1b"),
            Command(
                ("multi-offer", "small.json", "--schedule", "sched.json",
                 "--samples", str(MC_SAMPLES), "--seed", str(seed)),
                "multi-offer-schedule",
            ),
        ]
    raise KeyError(name)
