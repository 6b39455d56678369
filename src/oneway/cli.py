"""Command line entry point.

Every subcommand prints one deterministic report: a small comment header
(tool version, subcommand, seed, canonical config and its hash, and the
content hashes of the instance and the schedule read, if any) followed by
CSV rows. Identical invocations produce identical bytes. Exit codes: 0 on
success, 1 when an input fails validation or a computation cannot proceed,
2 for usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import analytics, bilateral, equilibrium, io, multi_offer, single_offer
from .generate import random_game

SEED_DEFAULT = 42
SAMPLES_DEFAULT = 100_000
TOL_DEFAULT = 1e-9


def _frange(start: float, stop: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("--from, --to and --step must be finite")
    if step <= 0.0:
        raise ValueError(f"--step must be positive, got {step!r}")
    if stop < start:
        raise ValueError(f"--to {stop!r} is below --from {start!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _emit(
    args: argparse.Namespace,
    subcommand: str,
    config: dict,
    columns,
    rows,
    instance=None,
    schedule=None,
) -> None:
    """Write the report; ``instance`` and ``schedule`` (the parsed
    ``(action, gammas, probs)``), when given, are hashed into its header."""
    digests = (
        None if instance is None else io.input_hash(instance),
        None if schedule is None else io.schedule_hash(*schedule),
    )
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            io.write_report(fh, subcommand, config, columns, rows, *digests)
    else:
        io.write_report(sys.stdout, subcommand, config, columns, rows, *digests)


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
    rows: list[list] = []
    for t in game.types_a:
        rows.append(["nash_A", t, out.action_a[t]])
    for t in game.types_b:
        rows.append(["nash_B", t, out.action_b[t]])
    rows.append(["expected_welfare", "", out.expected_welfare])
    config = {"instance": args.instance, "tolerance": TOL_DEFAULT}
    _emit(args, "nash", config, ["kind", "id", "value"], rows, game)
    return 0


def cmd_poa(args: argparse.Namespace) -> int:
    game = io.load_game(args.instance)
    report = equilibrium.poa_metrics(game)
    columns, rows = equilibrium.poa_report_rows(game, report)
    config = {"instance": args.instance, "tolerance": TOL_DEFAULT}
    _emit(args, "poa", config, columns, rows, game)
    return 0


def cmd_single_offer(args: argparse.Namespace) -> int:
    game = io.load_game(args.instance)
    pick = (
        single_offer.optimal_offer
        if args.offer_strategy == "optimal"
        else single_offer.simplified_offer
    )
    rows = []
    for tb in _types_b(game, args.type_b):
        res = pick(game, tb)
        ev = res.evaluation
        bound = ""
        if args.offer_strategy == "simplified":
            bound = single_offer.theorem_bound(res.offer.gamma, ev.acceptance_prob)
        rows.append(
            [
                tb,
                args.offer_strategy,
                res.offer.action_a,
                res.offer.gamma,
                ev.acceptance_prob,
                ev.delta_b,
                ev.outside.action_b,
                ev.outside.payoff,
                ev.expected_u_a,
                ev.expected_u_b,
                ev.expected_sw,
                res.null_offer,
                bound,
            ]
        )
    columns = [
        "type_B",
        "strategy",
        "action",
        "gamma",
        "acceptance_prob",
        "delta_B",
        "outside_action",
        "outside_payoff",
        "expected_u_A",
        "expected_u_B",
        "expected_welfare",
        "null_offer",
        "poa_bound",
    ]
    config = {
        "instance": args.instance,
        "strategy": args.offer_strategy,
        "type_b": args.type_b or "all",
        "tolerance": TOL_DEFAULT,
    }
    _emit(args, "single-offer", config, columns, rows, game)
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
    game = io.load_game(args.instance)
    types = _types_b(game, args.type_b)
    if args.optimize:
        columns = [
            "type_B",
            "n",
            "action",
            "gammas",
            "probs",
            "value",
            "single_offer_gamma",
            "single_offer_value",
            "gap",
            "null_offer",
            "certified",
            "certification_slack",
        ]
        n = 2 if args.n is None else args.n
        rows = []
        for tb in types:
            opt = multi_offer.optimize_schedule(game, tb, n)
            rows.append(
                [
                    tb,
                    n,
                    opt.schedule.action_a,
                    "|".join(repr(g) for g in opt.schedule.gammas),
                    "|".join(repr(p) for p in opt.schedule.probs),
                    opt.value,
                    opt.single_offer.gamma,
                    opt.single_offer_value,
                    abs(opt.value - opt.single_offer_value),
                    opt.null_offer,
                    opt.certified,
                    opt.certification_slack,
                ]
            )
        config = {
            "instance": args.instance,
            "mode": "optimize",
            "n": n,
            "type_b": args.type_b or "all",
            "tolerance": TOL_DEFAULT,
        }
        _emit(args, "multi-offer", config, columns, rows, game)
        return 0
    seed = SEED_DEFAULT if args.seed is None else args.seed
    parsed = io.load_schedule_file(args.schedule)
    schedule = multi_offer.Schedule(*parsed)
    game.action_a_index(schedule.action_a)  # raises KeyError on unknown ids
    columns = [
        "type_B",
        "action",
        "n",
        "planning_value",
        "expected_u_A",
        "expected_u_B",
        "expected_welfare",
        "acceptance_prob",
    ]
    if args.samples > 0:
        columns += [
            "sim_planning_value",
            "sim_planning_ci99",
            "sim_welfare",
            "sim_welfare_ci99",
            "sim_acceptance",
        ]
    rows = []
    for tb in types:
        value = multi_offer.expected_utility_B(game, schedule, tb)
        outcome = multi_offer.expected_outcome(game, schedule, tb)
        row = [
            tb,
            schedule.action_a,
            schedule.n,
            value,
            outcome.expected_u_a,
            outcome.expected_u_b,
            outcome.expected_sw,
            outcome.acceptance_prob,
        ]
        if args.samples > 0:
            sim = multi_offer.simulate_schedule(game, schedule, tb, args.samples, seed)
            row += [
                sim.mean_u_b_planning,
                sim.ci_u_b_planning,
                sim.mean_sw,
                sim.ci_sw,
                sim.acceptance_rate,
            ]
        rows.append(row)
    config = {
        "instance": args.instance,
        "mode": "schedule",
        "schedule": args.schedule,
        "samples": args.samples,
        "seed": seed,
        "type_b": args.type_b or "all",
        "tolerance": TOL_DEFAULT,
    }
    _emit(args, "multi-offer", config, columns, rows, game, parsed)
    return 0


def _emit_ms(args: argparse.Namespace, config: dict, rows, instance=None) -> int:
    """Write a trade-feasibility report, one ``bilateral.RefinementRow`` per
    line in its field order; None leaves its cell blank."""
    columns = ["k", "verdict", "margin", "min_subsidy", "certificate_ok", "certificate_residual"]
    cells = [["" if v is None else v for v in dataclasses.astuple(row)] for row in rows]
    _emit(args, "ms-check", config, columns, cells, instance)
    return 0


def cmd_ms_check(args: argparse.Namespace) -> int:
    if args.instance:
        inst = io.load_bilateral(args.instance)
        config = {"instance": args.instance, "tolerance": bilateral.MARGIN_TOL}
        return _emit_ms(args, config, [bilateral.feasibility_row(inst)], inst)
    ks = list(range(2, args.refine + 1))
    if not ks:
        return _error("--refine must be at least 2")
    config = {"refine": args.refine, "tolerance": bilateral.MARGIN_TOL}
    return _emit_ms(args, config, bilateral.refinement_sweep(ks))


def _range(args: argparse.Namespace, start: float, stop: float, step: float) -> tuple:
    """``--from``, ``--to`` and ``--step``, each defaulting to the given value."""
    given = (args.start, args.stop, args.step)
    return tuple(d if v is None else v for v, d in zip(given, (start, stop, step)))


def _example1b_row(x: float) -> list:
    pt = analytics.example1b(x)
    return [x, pt.threshold, pt.expected_welfare, pt.optimal_welfare, pt.poa,
            analytics.example1b_no_payment_poa(x)]


def _example2_row(mu1: float) -> list:
    pt = analytics.example2(mu1)
    return [mu1, pt.threshold, pt.expected_welfare, pt.optimal_welfare, pt.poa]


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
        columns = ["x", "threshold", "expected_welfare", "optimal_welfare", "poa", "no_payment_poa"]
        if args.sweep:
            start, stop, step = _range(args, 0.0, 400.0, 1.0)
            rows = [_example1b_row(x) for x in _frange(start, stop, step)]
            config = {"which": "1b", "sweep": True, "from": start, "to": stop, "step": step}
        else:
            x = 100.0 if args.x is None else args.x
            rows = [_example1b_row(x)]
            if args.mc_samples > 0:
                mc = analytics.mc_single_offer(
                    analytics.example1b_scenario(x), args.mc_samples, seed, "aggregate"
                )
                columns = columns + ["mc_welfare", "mc_welfare_ci99", "mc_poa", "mc_acceptance"]
                rows[0] += [mc.mean_sw, mc.ci_sw, mc.poa_vs_ex_ante, mc.acceptance_rate]
            config = {
                "which": "1b", "sweep": False, "x": x,
                "mc_samples": args.mc_samples, "seed": seed,
            }
        _emit(args, "examples", config, columns, rows)
        return 0
    if which == "2":
        columns = ["mu1", "threshold", "expected_welfare", "optimal_welfare", "poa"]
        if args.sweep:
            start, stop, step = _range(args, 0.0, 4.0, 0.01)
            rows = [_example2_row(m) for m in _frange(start, stop, step)]
            config = {"which": "2", "sweep": True, "from": start, "to": stop, "step": step}
        else:
            mu1 = 1.0 if args.mu1 is None else args.mu1
            rows = [_example2_row(mu1)]
            config = {"which": "2", "sweep": False, "mu1": mu1}
        mu_star, poa_max = analytics.example2_poa_max()
        rows.append(["poa_max_closed_form", mu_star, "", "", poa_max])
        _emit(args, "examples", config, columns, rows)
        return 0
    # corollary
    betas = [args.beta] if args.beta is not None else [0.25, 0.5, 0.75, 1.0]
    columns = ["beta", "gamma_star", "poa_bound"]
    if args.mc_samples > 0:
        columns += ["mc_mean_poa", "mc_poa_ci99", "mc_max_poa", "mc_acceptance"]
    rows = []
    for beta in betas:
        gamma_star, bound = single_offer.corollary_bound(beta)
        row = [beta, gamma_star, bound]
        if args.mc_samples > 0:
            mc = analytics.mc_single_offer(
                analytics.power_scenario(beta), args.mc_samples, seed, "exact"
            )
            row += [mc.mean_poa, mc.ci_poa, mc.max_poa, mc.acceptance_rate]
        rows.append(row)
    config = {
        "which": "corollary",
        "beta": args.beta if args.beta is not None else "defaults",
        "mc_samples": args.mc_samples,
        "seed": seed,
    }
    _emit(args, "examples", config, columns, rows)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    game = random_game(
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
    columns = ["beta", "gamma_star", "poa_bound"]
    rows = [[b, *single_offer.corollary_bound(b)] for b in _frange(start, stop, step)]
    config = {"param": args.param, "from": start, "to": stop, "step": step}
    _emit(args, "sweep", config, columns, rows)
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
    try:
        return args.func(args)
    except io.InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
