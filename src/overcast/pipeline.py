"""End-to-end solver entry points.

`run_approx` is the rounding pipeline: LP relaxation, retried randomized
draw, then either the box-assignment stage or (with colors on) the path
rounding stage, assembled into a PathSet with its audit-relevant metadata
and returned once the audit of its profile accepts it.
`run_exact` and `run_hack` wrap the branch-and-bound baseline and the
LP-fixing shortcut behind the same output type; both raise
NoIncumbentError when a budget ends before any incumbent.
"""

from __future__ import annotations

import math

from .color import ColorStageError, run_color_stage
from .gapflow import GapStageError, run_gap_stage
from .lp import TimeBudget, approx_hack, build_model, solve_ip, solve_lp
from .model import Instance
from .rounding import DELTA, RoundingConfig, randomized_round, round_with_retries
from .solution import PathSet, from_integral
from .verify import audit

PIPELINE_TRIALS = 3
MULTIPLIER_SCALE = 64.0  # default M = 64 * log2(max(2, number of sinks))

__all__ = [
    "ApproxPipelineError",
    "MULTIPLIER_SCALE",
    "PIPELINE_TRIALS",
    "audit_profile",
    "default_multiplier",
    # Not called here any more; perfbench/tracing.py wraps the draw under
    # this module attribute, as it does the other stage functions.
    "randomized_round",
    "run_approx",
    "run_exact",
    "run_hack",
]


class ApproxPipelineError(RuntimeError):
    """Every pipeline trial failed stage two or the audit of its output."""


def audit_profile(inst: Instance) -> str:
    """The audit profile `run_approx`'s output on `inst` passes."""
    return "color" if inst.colors_enabled else "approx"


def default_multiplier(inst: Instance) -> float:
    return MULTIPLIER_SCALE * math.log2(max(2, len(inst.sinks)))


def run_approx(
    inst: Instance,
    multiplier: float | None = None,
    seed: int = 0,
    max_retries: int = 20,
) -> PathSet:
    """LP, accepted random draw, stage-two rounding, assembled routes.

    The routes are returned only once `verify.audit` accepts them under
    `audit_profile(inst)`: "color" with colors on, else "approx".
    A draw that passes the acceptance predicates can still fail stage two
    (the colored walk's certificate in particular) or that audit, in which
    case the pipeline redraws from the next attempt index, up to
    PIPELINE_TRIALS times. All randomness derives from (seed, attempt), so
    identical arguments give identical output.
    """
    model = build_model(inst)
    frac = solve_lp(model)
    m = multiplier if multiplier is not None else default_multiplier(inst)
    config = RoundingConfig(multiplier=m, max_retries=max_retries, seed=seed)
    profile = audit_profile(inst)
    start = 0
    failures: list[str] = []
    for trial in range(PIPELINE_TRIALS):
        sol = round_with_retries(frac, config, start_attempt=start)
        if trial == 0:
            violations_first = sol.first_violations  # the draw of attempt 0
        try:
            if inst.colors_enabled:
                stage = run_color_stage(sol)
                x_tilde = stage.x_tilde
                provenance = "approx-color"
                stage_meta = {
                    "path_cost_total": stage.path_cost_total,
                    "boxes": stage.plan.total_boxes,
                    "paths_selected": len(stage.selected),
                    "paths_dropped": stage.dropped_paths,
                    "karp_max_increase": stage.certificate.max_increase,
                    "karp_bound": stage.certificate.t,
                }
            else:
                gap = run_gap_stage(sol)
                x_tilde = gap.x_tilde
                provenance = "approx"
                stage_meta = {
                    "mass_cost": gap.mass_cost,
                    "boxes": gap.plan.total_boxes,
                }
        except (GapStageError, ColorStageError) as exc:
            reason = str(exc)
        else:
            meta = {
                "multiplier": m,
                "seed": seed,
                "delta": DELTA,
                "attempt": sol.attempt,
                "attempts": sol.attempts,
                "trial": trial,
                "draw_cost": sol.realized_cost,
                "lp_bound": frac.objective,
                "violations_first_draw": violations_first,
            }
            meta.update(stage_meta)
            ps = PathSet(
                instance=inst,
                x_tilde=x_tilde,
                provenance=provenance,
                mode=inst.mode,
                meta=meta,
            )
            report = audit(ps, profile)
            if report.ok:
                return ps
            reason = f"{profile} audit: {report.failures[0]}"
        failures.append(f"trial {trial} (attempt {sol.attempt}): {reason}")
        start = sol.attempt + 1
    raise ApproxPipelineError("; ".join(failures))


def run_exact(
    inst: Instance,
    budget: TimeBudget | None = None,
) -> PathSet:
    """Branch-and-bound optimum, or the best incumbent under a budget."""
    model = build_model(inst)
    return from_integral(solve_ip(model, budget=budget), "exact-ip")


def run_hack(
    inst: Instance,
    budget: TimeBudget | None = None,
) -> PathSet:
    """Fix the LP-integral coordinates, then solve the residual exactly, or
    the whole model when the fixing leaves no integral point."""
    model = build_model(inst)
    frac = solve_lp(model)
    return from_integral(approx_hack(model, frac, budget=budget), "approxhack")
