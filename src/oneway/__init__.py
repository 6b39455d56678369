"""Two-player one-way games: equilibria, inefficiency metrics and bargaining.

Player A's payoff depends only on her own action and private type; player B's
depends on both actions and his own type. The package computes no-payment
equilibrium play and its price of anarchy, single-offer and scheduled
multi-offer bargaining with their guarantees, and the bilateral-trade
feasibility analysis that motivates one-sided mechanisms, plus the worked
continuous examples in closed form and by simulation.

Importing the package loads none of its modules, and so neither numpy nor
scipy: each name below, and each of its modules, is imported on first use
(PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analytics": (
        "ContinuousSpec",
        "MCPoAResult",
        "MCResult",
        "SingleOfferScenario",
        "example1b_scenario",
        "mc_poa",
        "mc_single_offer",
        "power_scenario",
    ),
    "bilateral": (
        "BilateralTradeInstance",
        "FeasibilityResult",
        "OneWayMechanism",
        "PropertyReport",
        "RefinementRow",
        "SubsidyResult",
        "certificate_is_valid",
        "check_one_way_properties",
        "check_properties",
        "efficient_allocation",
        "feasibility_lp",
        "min_subsidy",
        "refinement_sweep",
        "to_one_way",
        "uniform_grid_instance",
    ),
    "closed_form": (
        "CurvePoint",
        "acceptance_prob_example2",
        "corollary_bound",
        "corollary_poa",
        "example1b",
        "example1b_no_payment_poa",
        "example2",
        "example2_poa_max",
        "theorem_bound",
    ),
    "equilibrium": (
        "NashOutcome",
        "PoAReport",
        "nash_outcome",
        "poa_metrics",
        "poa_report_rows",
    ),
    "game": (
        "OneWayGame",
        "StrategyProfile",
        "TypeProfile",
        "best_response_B",
        "make_game",
        "optimal_welfare",
        "social_welfare",
        "validate",
    ),
    "generate": ("random_game", "random_suite"),
    "io": (
        "InstanceFormatError",
        "config_hash",
        "game_to_dict",
        "input_hash",
        "load_bilateral",
        "load_game",
        "load_schedule_file",
        "save_game",
        "schedule_hash",
    ),
    "multi_offer": (
        "Schedule",
        "ScheduleOptimum",
        "SimulationResult",
        "equivalence_gap",
        "expected_outcome",
        "expected_utility_B",
        "optimize_schedule",
        "reach_probs",
        "s_values",
        "schedule_errors",
        "simulate_schedule",
    ),
    "single_offer": (
        "Offer",
        "OfferEvaluation",
        "OfferSearchResult",
        "OutsideOption",
        "SimplifiedReport",
        "SingleOfferOutcome",
        "accept_reject_poa",
        "acceptance_prob",
        "bayes_poa_bound",
        "delta_a",
        "delta_b",
        "evaluate_offer",
        "gamma_candidates",
        "optimal_offer",
        "outside_option",
        "run_single_offer",
        "simplified_offer",
        "simplified_strategy_report",
    ),
    "streams": ("Z99",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
