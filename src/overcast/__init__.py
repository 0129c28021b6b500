"""Cost-minimizing three-stage relay networks for live stream delivery."""

from .gen import GenerationError, gen_random, gen_setcover
from .lp import (
    InfeasibleError,
    NoIncumbentError,
    TimeBudget,
    UnsupportedInstanceError,
    approx_hack,
    build_model,
    solve_ip,
    solve_lp,
)
from .model import (
    Instance,
    combined_loss,
    instance_from_doc,
    loss_to_weight,
)
from .pipeline import (
    ApproxPipelineError,
    default_multiplier,
    hack_relaxation,
    round_relaxation,
    run_approx,
    run_exact,
    run_hack,
)
from .rounding import (
    RoundingConfig,
    RoundingRetriesExhausted,
    randomized_round,
    round_with_retries,
    saturation_multiplier,
)
from .solution import PathSet, from_integral, load_pathset, save_pathset
from .verify import AuditReport, audit, simulate_losses

__version__ = "0.1.0"

__all__ = [
    "ApproxPipelineError",
    "AuditReport",
    "GenerationError",
    "InfeasibleError",
    "Instance",
    "NoIncumbentError",
    "PathSet",
    "RoundingConfig",
    "RoundingRetriesExhausted",
    "TimeBudget",
    "UnsupportedInstanceError",
    "approx_hack",
    "audit",
    "build_model",
    "combined_loss",
    "default_multiplier",
    "from_integral",
    "gen_random",
    "gen_setcover",
    "hack_relaxation",
    "instance_from_doc",
    "load_pathset",
    "loss_to_weight",
    "randomized_round",
    "round_relaxation",
    "round_with_retries",
    "run_approx",
    "run_exact",
    "run_hack",
    "saturation_multiplier",
    "save_pathset",
    "simulate_losses",
    "solve_ip",
    "solve_lp",
    "__version__",
]
