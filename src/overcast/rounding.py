"""Stage-one randomized rounding of the fractional relaxation.

The relaxation values are scaled by a multiplier M >= 1 and used as coin
biases: a reflector switches on with probability min(z*M, 1), its feed
subscribes with the matching conditional probability, and each relay
assignment keeps mass 1/M with probability chosen so every variable is
unbiased (the expectation of the drawn value equals the relaxation value).
When both coins saturate at probability one the relay mass is copied over
unchanged, so a large enough M makes the whole draw deterministic.

A draw is accepted when every sink keeps at least (1 - DELTA) of its demanded
weight and no reflector carries more than twice its stream budget (and, with
color groups enabled, no group is used more than once per sink). The weight
and color predicates read the model's weight and color rows from one
`LpModel.activity` product, the loads one bincount of the x block. Each retry
re-derives its generator from (seed, attempt), so any attempt can be replayed
in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import FractionalSolution, LpModel, UnsupportedInstanceError

DELTA = 0.25  # a draw keeps at least (1 - DELTA) of each sink's demanded weight
PRED_TOL = 1e-9
_NONZERO_TOL = 1e-12


def check_multiplier(m: float) -> float:
    """m itself when it is a usable multiplier; else ValueError."""
    if not (math.isfinite(m) and m >= 1.0):
        raise ValueError(f"multiplier must be finite and at least 1, got {m!r}")
    return m


@dataclass(frozen=True)
class RoundingConfig:
    multiplier: float
    max_retries: int = 20
    seed: int = 0

    def __post_init__(self):
        check_multiplier(self.multiplier)
        if self.max_retries < 1:
            raise ValueError("max_retries must be positive")


class RoundingRetriesExhausted(RuntimeError):
    """Every attempt failed a predicate."""


@dataclass
class SemiIntegralSolution:
    model: LpModel
    values: np.ndarray
    attempt: int  # absolute attempt index the draw came from
    attempts: int = 1  # draws consumed by the retry loop that produced this
    first_violations: int = 0  # predicate failures of that loop's first draw

    @property
    def realized_cost(self) -> float:
        return float(self.model.obj @ self.values)

    def violations(self) -> list[str]:
        """Predicate failures of this draw, empty when acceptable: weights,
        then reflector loads, then colors, each in model order."""
        model, v = self.model, self.values
        act = model.activity(v)
        weight = model.families["weight"]  # one row per sink, in sink order
        w = slice(weight.start, weight.stop)
        short = act[w] < (1.0 - DELTA) * model.rhs[w] - PRED_TOL
        bad = [model.rows[r] for r in weight.start + np.flatnonzero(short)]
        nz = len(model.z_index)
        loads = np.bincount(model.x_refl, weights=v[model.x_offset:], minlength=nz)
        refls = model.inst.reflectors
        heavy = loads > 2.0 * model.capacities + PRED_TOL  # budgets in reflector order
        bad += [f"load[{refls[i].id}]" for i in np.flatnonzero(heavy)]
        color = model.families.get("color", range(0))
        c = slice(color.start, color.stop)
        over = act[c] > model.rhs[c] + PRED_TOL
        bad += [model.rows[r] for r in color.start + np.flatnonzero(over)]
        return bad


def randomized_round(
    frac: FractionalSolution, config: RoundingConfig, attempt: int
) -> SemiIntegralSolution:
    """One unbiased draw; same (seed, attempt) always yields the same draw."""
    model = frac.model
    if model.capacities is None:
        raise UnsupportedInstanceError(
            "rounding needs per-reflector stream budgets; mixed bitrates have none"
        )
    m = config.multiplier
    # The z, y and x columns are three contiguous blocks, z from column 0,
    # so a y's parent z column is its z position; xp is its y position.
    nz, x0 = len(model.z_index), model.x_offset
    yp, xp = model.y_parent, model.x_parent - nz
    z_hat = frac.values[:nz]
    y_hat = frac.values[nz:x0]
    x_hat = frac.values[x0:]
    ny = y_hat.size

    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=config.seed, spawn_key=(attempt,)))
    )
    # All uniforms are drawn up front in variable order, so the stream a
    # variable consumes never depends on other variables' outcomes.
    u_z = rng.random(nz)
    u_y = rng.random(ny)
    u_x = rng.random(x_hat.size)

    z_dot = np.minimum(z_hat * m, 1.0)
    y_dot = np.zeros(ny)
    live = z_dot[yp] > 0.0
    y_dot[live] = np.minimum(y_hat[live] * m / z_dot[yp][live], 1.0)

    z_bar = (u_z < z_dot).astype(float)
    y_bar = z_bar[yp] * (u_y < y_dot)

    keep_prob = np.divide(
        x_hat, y_hat[xp], out=np.zeros_like(x_hat), where=y_hat[xp] > _NONZERO_TOL
    )
    saturated = (z_dot[yp][xp] >= 1.0) & (y_dot[xp] >= 1.0)
    x_bar = np.where(
        saturated,
        x_hat,
        np.where((y_bar[xp] > 0.0) & (u_x < keep_prob), 1.0 / m, 0.0),
    )

    values = np.concatenate([z_bar, y_bar, x_bar])
    return SemiIntegralSolution(model=model, values=values, attempt=attempt)


def round_with_retries(
    frac: FractionalSolution, config: RoundingConfig, start_attempt: int = 0
) -> SemiIntegralSolution:
    """Draw until a draw passes the predicates; raise after max_retries.

    start_attempt offsets the attempt indices so a caller can continue the
    sequence across its own outer retries without replaying earlier draws.
    """
    first_violations = None
    for n, attempt in enumerate(
        range(start_attempt, start_attempt + config.max_retries), start=1
    ):
        sol = randomized_round(frac, config, attempt)
        sol.attempts = n
        bad = sol.violations()
        if first_violations is None:
            first_violations = len(bad)
        if not bad:
            sol.first_violations = first_violations
            return sol
    raise RoundingRetriesExhausted(f"no acceptable draw in {config.max_retries} attempts")


def saturation_multiplier(frac: FractionalSolution) -> float:
    """Smallest multiplier that makes every coin saturate.

    At or above this value the draw is the relaxation itself (fully
    deterministic), which pins down a reproducibility baseline. A hair of
    headroom is added so float division cannot land just under one.
    """
    model = frac.model
    zy = frac.values[:model.x_offset]  # the z and y blocks
    support = zy[zy > _NONZERO_TOL]
    if not support.size:
        return 1.0
    return max(1.0, 1.0 / float(support.min())) * (1.0 + 1e-9)
