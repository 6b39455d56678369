"""Command line entry point.

Every subcommand prints one deterministic report: a small comment header
(tool version, subcommand, seed, canonical config and its hash, and the
content hashes of the instance and the schedule read, if any) followed by
a table of named columns as CSV. Identical invocations produce identical bytes. Exit codes: 0 on
success, 1 when an input fails validation or a computation cannot proceed,
2 for usage errors.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys

# A command's only parallel work runs on the package's own thread pool (the
# trade sweep). An OpenBLAS pool (numpy's, and scipy's once an LP is solved)
# would add a thread per CPU that spins for no work, so BLAS runs on one
# thread unless the user sets either variable. This must precede the first
# numpy import, which is why ``import oneway`` loads nothing eagerly.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _lazy(name: str):
    """The package's module ``name``, registered in ``sys.modules`` at once
    but compiled and run only when one of its attributes is first read (the
    ``importlib.util.LazyLoader`` recipe). A module that is already imported
    is returned as it is.

    On Python 3.10 and 3.11 a lazy module is not safe to load from two
    threads at once, so every first touch stays on the main thread: the
    trade sweep's handler reads ``bilateral``'s function before that
    function starts its pool, and a module's own ``from .x import y`` lines
    load ``x`` while it loads.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# Every subcommand writes a report, so ``io`` loads now; it imports no numpy.
# Each other module runs only in the subcommands that read it, so numpy loads
# with the first that needs arrays (``game``, through ``io.load_game``, in
# every command that reads an instance). ``examples`` without
# ``--mc-samples`` and ``sweep`` read only ``closed_form``, which imports the
# standard library alone, and never load numpy. No handler reads ``game`` or
# ``streams``; they are registered so that every module a tracer wraps is in
# ``sys.modules`` once this module is imported.
from . import io  # noqa: E402

analytics, bilateral, closed_form, equilibrium, generate, multi_offer, single_offer = map(
    _lazy, ("analytics", "bilateral", "closed_form", "equilibrium", "generate", "multi_offer", "single_offer")
)
_lazy("game")
_lazy("streams")

SEED_DEFAULT = 42
TOL_DEFAULT = 1e-9
MAX_POINTS = 10**6  # the most points a --from/--to/--step range, and the most steps --n, may ask for
MAX_TRADE_VALUES = 200  # ms-check's most values a side: its LP has 2k(k - 1) + 2k dense rows (245 MB at 200)


def _frange(start: float, stop: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("--from, --to and --step must be finite")
    if step <= 0.0:
        raise ValueError(f"--step must be positive, got {step!r}")
    if stop < start:
        raise ValueError(f"--to {stop!r} is below --from {start!r}")
    span = (stop - start) / step  # inf when the quotient overflows
    if not span + 1e-9 < MAX_POINTS:
        raise ValueError(f"--from, --to and --step give more than {MAX_POINTS} points")
    count = int(math.floor(span + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _emit(
    args: argparse.Namespace,
    subcommand: str,
    config: dict,
    table: dict[str, list],
    instance=None,
    schedule=None,
) -> None:
    """Write the report of named columns; ``instance`` and ``schedule`` (the
    parsed ``(action, gammas, probs)``), when given, are hashed into its
    header."""
    digests = (
        None if instance is None else io.input_hash(instance),
        None if schedule is None else io.schedule_hash(*schedule),
    )
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            io.write_report(fh, subcommand, config, table, *digests)
    else:
        io.write_report(sys.stdout, subcommand, config, table, *digests)


def _error(message: str) -> int:
    """Report an invalid combination of arguments; the exit code is 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _types_b(game, requested: str | None) -> list[str]:
    if requested is None:
        return list(game.types_b)
    game.type_b_index(requested)  # raises KeyError on unknown ids
    return [requested]


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        io.load_game(args.instance)
    except io.InstanceFormatError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {args.instance}")
    return 0


def cmd_nash(args: argparse.Namespace) -> int:
    game = io.load_game(args.instance)
    out = equilibrium.nash_outcome(game)
    table = {
        "kind": ["nash_A"] * len(game.types_a) + ["nash_B"] * len(game.types_b) + ["expected_welfare"],
        "id": [*game.types_a, *game.types_b, ""],
        "value": [
            *(out.action_a[t] for t in game.types_a),
            *(out.action_b[t] for t in game.types_b),
            out.expected_welfare,
        ],
    }
    config = {"instance": args.instance, "tolerance": TOL_DEFAULT}
    _emit(args, "nash", config, table, game)
    return 0


def cmd_poa(args: argparse.Namespace) -> int:
    game = io.load_game(args.instance)
    report = equilibrium.poa_metrics(game)
    config = {"instance": args.instance, "tolerance": TOL_DEFAULT}
    _emit(args, "poa", config, equilibrium.poa_report_rows(game, report), game)
    return 0


def cmd_single_offer(args: argparse.Namespace) -> int:
    game = io.load_game(args.instance)
    simplified = args.offer_strategy == "simplified"
    pick = single_offer.simplified_offer if simplified else single_offer.optimal_offer
    types = _types_b(game, args.type_b)
    results = [pick(game, tb) for tb in types]
    evs = [res.evaluation for res in results]
    table = {
        "type_B": types,
        "strategy": [args.offer_strategy] * len(types),
        "action": [res.offer.action_a for res in results],
        "gamma": [res.offer.gamma for res in results],
        "acceptance_prob": [ev.acceptance_prob for ev in evs],
        "delta_B": [ev.delta_b for ev in evs],
        "outside_action": [ev.outside.action_b for ev in evs],
        "outside_payoff": [ev.outside.payoff for ev in evs],
        "expected_u_A": [ev.expected_u_a for ev in evs],
        "expected_u_B": [ev.planning_u_b for ev in evs],
        "expected_welfare": [ev.expected_sw for ev in evs],
        "null_offer": [res.null_offer for res in results],
        "poa_bound": [
            closed_form.theorem_bound(res.offer.gamma, ev.acceptance_prob) if simplified else ""
            for res, ev in zip(results, evs)
        ],
    }
    config = {
        "instance": args.instance,
        "strategy": args.offer_strategy,
        "type_b": args.type_b or "all",
        "tolerance": TOL_DEFAULT,
    }
    _emit(args, "single-offer", config, table, game)
    return 0


def cmd_multi_offer(args: argparse.Namespace) -> int:
    if args.samples < 0:
        return _error("--samples must be non-negative")
    if args.optimize and args.samples:
        return _error("--samples applies to --schedule only")
    if args.optimize and args.seed is not None:
        return _error("--seed applies to --schedule only")
    if args.schedule is not None and args.n is not None:
        return _error("--n applies to --optimize only")
    if args.n is not None and args.n > MAX_POINTS:
        return _error(f"--n {args.n} is above {MAX_POINTS} steps")
    game = io.load_game(args.instance)
    types = _types_b(game, args.type_b)
    if args.optimize:
        n = 2 if args.n is None else args.n
        opts = [multi_offer.optimize_schedule(game, tb, n) for tb in types]
        table = {
            "type_B": types,
            "n": [n] * len(types),
            "action": [opt.schedule.action_a for opt in opts],
            "gammas": ["|".join(repr(g) for g in opt.schedule.gammas) for opt in opts],
            "probs": ["|".join(repr(p) for p in opt.schedule.probs) for opt in opts],
            "value": [opt.value for opt in opts],
            "single_offer_gamma": [opt.single_offer.gamma for opt in opts],
            "single_offer_value": [opt.single_offer_value for opt in opts],
            "gap": [abs(opt.value - opt.single_offer_value) for opt in opts],
            "null_offer": [opt.null_offer for opt in opts],
            "certified": [opt.certified for opt in opts],
            "certification_slack": [opt.certification_slack for opt in opts],
        }
        config = {
            "instance": args.instance,
            "mode": "optimize",
            "n": n,
            "type_b": args.type_b or "all",
            "tolerance": TOL_DEFAULT,
        }
        _emit(args, "multi-offer", config, table, game)
        return 0
    seed = SEED_DEFAULT if args.seed is None else args.seed
    parsed = io.load_schedule_file(args.schedule)
    schedule = multi_offer.Schedule(*parsed)
    game.action_a_index(schedule.action_a)  # raises KeyError on unknown ids
    outcomes = [multi_offer.expected_outcome(game, schedule, tb) for tb in types]
    table = {
        "type_B": types,
        "action": [schedule.action_a] * len(types),
        "n": [schedule.n] * len(types),
        "planning_value": [out.planning_u_b for out in outcomes],
        "expected_u_A": [out.expected_u_a for out in outcomes],
        "expected_u_B": [out.expected_u_b for out in outcomes],
        "expected_welfare": [out.expected_sw for out in outcomes],
        "acceptance_prob": [out.acceptance_prob for out in outcomes],
    }
    if args.samples > 0:
        sims = multi_offer.simulate_schedule(game, schedule, types, args.samples, seed)
        table |= {
            "sim_planning_value": [sim.mean_u_b_planning for sim in sims],
            "sim_planning_ci99": [sim.ci_u_b_planning for sim in sims],
            "sim_welfare": [sim.mean_sw for sim in sims],
            "sim_welfare_ci99": [sim.ci_sw for sim in sims],
            "sim_acceptance": [sim.acceptance_rate for sim in sims],
        }
    config = {
        "instance": args.instance,
        "mode": "schedule",
        "schedule": args.schedule,
        "samples": args.samples,
        "seed": seed,
        "type_b": args.type_b or "all",
        "tolerance": TOL_DEFAULT,
    }
    _emit(args, "multi-offer", config, table, game, parsed)
    return 0


def _emit_ms(args: argparse.Namespace, config: dict, rows, instance=None) -> int:
    """Write a trade-feasibility report, one ``bilateral.RefinementRow`` per
    line; None leaves its cell blank."""

    def column(field: str) -> list:
        values = (getattr(row, field) for row in rows)
        return ["" if v is None else v for v in values]

    table = {
        "k": column("k"),
        "verdict": column("verdict"),
        "margin": column("margin"),
        "min_subsidy": column("subsidy"),
        "certificate_ok": column("certificate_ok"),
        "certificate_residual": column("certificate_residual"),
    }
    _emit(args, "ms-check", config, table, instance)
    return 0


def cmd_ms_check(args: argparse.Namespace) -> int:
    if args.instance:
        inst = io.load_bilateral(args.instance)
        if max(len(inst.seller_values), len(inst.buyer_values)) > MAX_TRADE_VALUES:
            return _error(f"{args.instance} has more than {MAX_TRADE_VALUES} values on a side")
        config = {"instance": args.instance, "tolerance": bilateral.MARGIN_TOL}
        return _emit_ms(args, config, [bilateral.feasibility_row(inst)], inst)
    if args.refine < 2:
        return _error("--refine must be at least 2")
    if args.refine > MAX_TRADE_VALUES:
        return _error(f"--refine {args.refine} is above {MAX_TRADE_VALUES} values per side")
    config = {"refine": args.refine, "tolerance": bilateral.MARGIN_TOL}
    return _emit_ms(args, config, bilateral.refinement_sweep(range(2, args.refine + 1)))


def _range(args: argparse.Namespace, start: float, stop: float, step: float) -> tuple:
    """``--from``, ``--to`` and ``--step``, each defaulting to the given value."""
    given = (args.start, args.stop, args.step)
    return tuple(d if v is None else v for v, d in zip(given, (start, stop, step)))


def _curve(name: str, params: list[float], point) -> dict[str, list]:
    """A worked example's closed-form columns, ``point(v)`` at each value."""
    points = [point(v) for v in params]
    return {
        name: params,
        "threshold": [pt.threshold for pt in points],
        "expected_welfare": [pt.expected_welfare for pt in points],
        "optimal_welfare": [pt.optimal_welfare for pt in points],
        "poa": [pt.poa for pt in points],
    }


def _bounds(betas: list[float]) -> dict[str, list]:
    """The power-law corollary's share and PoA bound at each beta."""
    pairs = [closed_form.corollary_bound(beta) for beta in betas]
    return {
        "beta": betas,
        "gamma_star": [gamma for gamma, _ in pairs],
        "poa_bound": [bound for _, bound in pairs],
    }


def _examples_misuse(args: argparse.Namespace) -> str | None:
    """Why the flags given do not fit the selected example, if they do not:
    each flag must be one that the mode reads."""
    which, sweep = args.which, args.sweep
    ranged = [f for f, v in (("--from", args.start), ("--to", args.stop), ("--step", args.step)) if v is not None]
    draws = which == "corollary" or (which == "1b" and not sweep)
    if args.mc_samples < 0:
        return "--mc-samples must be non-negative"
    if args.mc_samples and not draws:
        return "--mc-samples applies to --which corollary and to --which 1b without --sweep"
    if args.seed is not None and not draws:
        return "--seed applies to --which corollary and to --which 1b without --sweep"
    if args.x is not None and (which != "1b" or sweep):
        return "--x applies to --which 1b without --sweep"
    if args.mu1 is not None and (which != "2" or sweep):
        return "--mu1 applies to --which 2 without --sweep"
    if args.beta is not None and which != "corollary":
        return "--beta applies to --which corollary"
    if which == "corollary" and (sweep or ranged):
        return f"{'--sweep' if sweep else ranged[0]} does not apply to --which corollary"
    if ranged and not sweep:
        return f"{ranged[0]} applies to --sweep only"
    return None


def cmd_examples(args: argparse.Namespace) -> int:
    which = args.which
    misuse = _examples_misuse(args)
    if misuse:
        return _error(misuse)
    seed = SEED_DEFAULT if args.seed is None else args.seed
    if which == "1b":
        if args.sweep:
            start, stop, step = _range(args, 0.0, 400.0, 1.0)
            xs = _frange(start, stop, step)
            config = {"which": "1b", "sweep": True, "from": start, "to": stop, "step": step}
        else:
            xs = [100.0 if args.x is None else args.x]
            config = {
                "which": "1b", "sweep": False, "x": xs[0],
                "mc_samples": args.mc_samples, "seed": seed,
            }
        table = _curve("x", xs, closed_form.example1b)
        table["no_payment_poa"] = [closed_form.example1b_no_payment_poa(x) for x in xs]
        if args.mc_samples > 0:
            (mc,) = analytics.mc_single_offer([analytics.example1b_scenario(xs[0])], args.mc_samples, seed)
            table |= {
                "mc_welfare": [mc.mean_sw],
                "mc_welfare_ci99": [mc.ci_sw],
                "mc_poa": [mc.poa_vs_ex_ante],
                "mc_acceptance": [mc.acceptance_rate],
            }
        _emit(args, "examples", config, table)
        return 0
    if which == "2":
        if args.sweep:
            start, stop, step = _range(args, 0.0, 4.0, 0.01)
            mus = _frange(start, stop, step)
            config = {"which": "2", "sweep": True, "from": start, "to": stop, "step": step}
        else:
            mus = [1.0 if args.mu1 is None else args.mu1]
            config = {"which": "2", "sweep": False, "mu1": mus[0]}
        table = _curve("mu1", mus, closed_form.example2)
        mu_star, poa_max = closed_form.example2_poa_max()
        peak = {"mu1": "poa_max_closed_form", "threshold": mu_star, "poa": poa_max}
        for name, column in table.items():  # the closed-form peak as a last row
            column.append(peak.get(name, ""))
        _emit(args, "examples", config, table)
        return 0
    # corollary
    betas = [args.beta] if args.beta is not None else [0.25, 0.5, 0.75, 1.0]
    table = _bounds(betas)
    if args.mc_samples > 0:
        scenarios = [analytics.power_scenario(beta) for beta in betas]
        mcs = analytics.mc_poa(scenarios, args.mc_samples, seed)
        table |= {
            "mc_mean_poa": [mc.mean_poa for mc in mcs],
            "mc_poa_ci99": [mc.ci_poa for mc in mcs],
            "mc_max_poa": [mc.max_poa for mc in mcs],
            "mc_acceptance": [mc.acceptance_rate for mc in mcs],
        }
    config = {
        "which": "corollary",
        "beta": args.beta if args.beta is not None else "defaults",
        "mc_samples": args.mc_samples,
        "seed": seed,
    }
    _emit(args, "examples", config, table)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    game = generate.random_game(
        seed=args.seed,
        n_actions_a=args.actions_a,
        n_actions_b=args.actions_b,
        n_types_a=args.types_a,
        n_types_b=args.types_b,
        a_scale=args.a_scale,
        b_scale=args.b_scale,
    )
    if args.out:
        io.save_game(game, args.out)
    else:
        print(json.dumps(io.game_to_dict(game), indent=2, sort_keys=True))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    start, stop, step = _range(args, 0.1, 2.0, 0.05)
    table = _bounds(_frange(start, stop, step))
    config = {"param": args.param, "from": start, "to": stop, "step": step}
    _emit(args, "sweep", config, table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneway",
        description="Analyze one-way games: equilibria, inefficiency, bargaining mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("nash", help="no-payment equilibrium play and welfare")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_nash)

    p = sub.add_parser("poa", help="price-of-anarchy metrics per type profile")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_poa)

    p = sub.add_parser("single-offer", help="compute single-offer strategies")
    p.add_argument("instance")
    p.add_argument("--type-b", default=None, help="restrict to one B type")
    p.add_argument(
        "--offer-strategy", choices=["optimal", "simplified"], default="optimal"
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_single_offer)

    p = sub.add_parser("multi-offer", help="optimize or evaluate offer schedules")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--optimize", action="store_true")
    group.add_argument("--schedule", metavar="FILE", default=None)
    p.add_argument("--n", type=int, default=None, help="steps for --optimize (default 2)")
    p.add_argument("--type-b", default=None)
    p.add_argument("--samples", type=int, default=0, help="simulate with this many draws")
    p.add_argument("--seed", type=int, default=None, help="for --samples (default 42)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_multi_offer)

    p = sub.add_parser("ms-check", help="trade feasibility and minimum subsidy")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--instance", default=None, help="bilateral trade JSON file")
    group.add_argument("--refine", type=int, default=None, metavar="K", help="sweep grids 2..K")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ms_check)

    p = sub.add_parser("examples", help="worked examples, closed forms and MC checks")
    p.add_argument("--which", choices=["1b", "2", "corollary"], required=True)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--x", type=float, default=None, help="B's stake for --which 1b (default 100)")
    p.add_argument("--mu1", type=float, default=None, help="B's stake for --which 2 (default 1)")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--from", dest="start", type=float, default=None)
    p.add_argument("--to", dest="stop", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=None, help="for --mc-samples (default 42)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--seed", type=int, default=SEED_DEFAULT)
    p.add_argument("--actions-a", type=int, default=3)
    p.add_argument("--actions-b", type=int, default=2)
    p.add_argument("--types-a", type=int, default=3)
    p.add_argument("--types-b", type=int, default=2)
    p.add_argument("--a-scale", type=float, default=10.0)
    p.add_argument("--b-scale", type=float, default=10.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="parameter sweeps as CSV")
    p.add_argument("--param", choices=["beta"], required=True)
    p.add_argument("--from", dest="start", type=float, default=None)
    p.add_argument("--to", dest="stop", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    # An instance's Philox key holds the seed in one 64-bit word (``generate``)
    # and the Monte Carlo streams keep its range (``streams.stream``).
    # Checked here, so that modes which draw nothing reject it too.
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 1 << 64:
        return _error(f"seed {seed} is outside [0, 2**64)")
    try:
        return args.func(args)
    except io.InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
