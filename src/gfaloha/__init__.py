"""Grant-free asynchronous replica ALOHA: model, simulator, receiver.

Analytic interference/outage model and KPI formulas, a rectangle-level
Monte Carlo simulator with iterative interference cancellation, a
sample-level receiver chain exploiting carrier-offset diversity, and a
sweep orchestrator emitting figure data.
"""

from .experiment import ExperimentConfig, run_experiment, validate_receiver
from .interference import (analytic_outage, build_base_cdf, offered_load_of,
                           solve_offered_load, unconditional_cdf)
from .kpi import KpiReport, grant_free_kpis, granted_kpis
from .mcsim import (CollisionGraph, build_collision_graph, nominal_lambda,
                    run_granted_baseline, run_trial, sic_decode)
from .params import (EnergyParams, InvalidParamsError, SystemParams,
                     slots_for_replicas)
from .traffic import draw_frames, generate_arrivals

__version__ = "0.1.0"

__all__ = [
    "CollisionGraph", "EnergyParams", "ExperimentConfig",
    "InvalidParamsError", "KpiReport", "SystemParams", "analytic_outage",
    "build_base_cdf", "build_collision_graph", "draw_frames",
    "generate_arrivals", "grant_free_kpis", "granted_kpis",
    "nominal_lambda", "offered_load_of", "run_experiment",
    "run_granted_baseline", "run_trial", "sic_decode",
    "slots_for_replicas", "solve_offered_load", "unconditional_cdf",
    "validate_receiver", "__version__",
]
