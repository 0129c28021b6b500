"""Stage-one randomized rounding of the fractional relaxation.

The relaxation values are scaled by a multiplier M >= 1 and used as coin
biases: a reflector switches on with probability min(z*M, 1), its feed
subscribes with the matching conditional probability, and each relay
assignment keeps mass 1/M with probability chosen so every variable is
unbiased (the expectation of the drawn value equals the relaxation value).
When both coins saturate at probability one the relay mass is copied over
unchanged, so a large enough M makes the whole draw deterministic.

A draw is accepted when every sink keeps at least (1 - delta) of its demanded
weight and no reflector carries more than twice its stream budget (and, with
color groups enabled, no group is used more than once per sink). Each retry
re-derives its generator from (seed, attempt), so any attempt can be replayed
in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import FractionalSolution, LpModel, UnsupportedInstanceError

PRED_TOL = 1e-9
_NONZERO_TOL = 1e-12


@dataclass(frozen=True)
class RoundingConfig:
    multiplier: float
    delta: float = 0.25
    max_retries: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.max_retries < 1:
            raise ValueError("max_retries must be positive")


class RoundingRetriesExhausted(RuntimeError):
    """Every attempt failed a predicate; carries the best attempt seen."""

    def __init__(self, message: str, best: "SemiIntegralSolution | None"):
        super().__init__(message)
        self.best = best


@dataclass
class SemiIntegralSolution:
    model: LpModel
    values: np.ndarray
    config: RoundingConfig
    attempt: int  # absolute attempt index the draw came from
    attempts: int = 1  # draws consumed by the retry loop that produced this
    first_violations: int = 0  # predicate failures of that loop's first draw

    @property
    def multiplier(self) -> float:
        return self.config.multiplier

    @property
    def realized_cost(self) -> float:
        return float(self.model.obj @ self.values)

    def sink_weight(self, j: str) -> float:
        row = self.model.rows[self.model.sink_weight_row[j]]
        return float(self.values[row.idx] @ row.coef)

    def reflector_loads(self) -> dict[str, float]:
        loads = {r.id: 0.0 for r in self.model.inst.reflectors}
        for (k, i, j), xi in self.model.x_index.items():
            loads[i] += float(self.values[xi])
        return loads

    def violations(self) -> list[str]:
        """Predicate failures of this draw, empty when acceptable."""
        model, v = self.model, self.values
        delta = self.config.delta
        bad = []
        for d in model.inst.sinks:
            need = (1.0 - delta) * d.weight_threshold
            if self.sink_weight(d.id) < need - PRED_TOL:
                bad.append(f"weight[{d.id}]")
        loads = self.reflector_loads()
        for r in model.inst.reflectors:
            if loads[r.id] > 2.0 * model.capacities[r.id] + PRED_TOL:
                bad.append(f"load[{r.id}]")
        if model.inst.colors_enabled:
            for row in model.rows:
                if row.kind != "color":
                    continue
                if float(v[row.idx].sum()) > 1.0 + PRED_TOL:
                    bad.append(row.label)
        return bad

    def weight_score(self) -> float:
        """Worst kept-weight fraction across demanding sinks; ranks attempts."""
        worst = math.inf
        for d in self.model.inst.sinks:
            if d.weight_threshold <= 0:
                continue
            worst = min(worst, self.sink_weight(d.id) / d.weight_threshold)
        return worst


def _index_arrays(model: LpModel):
    z_pos = np.fromiter(model.z_index.values(), dtype=int, count=len(model.z_index))
    y_pos = np.fromiter(model.y_index.values(), dtype=int, count=len(model.y_index))
    x_pos = np.fromiter(model.x_index.values(), dtype=int, count=len(model.x_index))
    z_order = {i: t for t, i in enumerate(model.z_index)}
    y_order = {key: t for t, key in enumerate(model.y_index)}
    yp = np.array([z_order[i] for (_k, i) in model.y_index], dtype=int)
    xp = np.array([y_order[(k, i)] for (k, i, _j) in model.x_index], dtype=int)
    return z_pos, y_pos, x_pos, yp, xp


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
    z_pos, y_pos, x_pos, yp, xp = _index_arrays(model)
    z_hat = frac.values[z_pos]
    y_hat = frac.values[y_pos]
    x_hat = frac.values[x_pos]

    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=config.seed, spawn_key=(attempt,)))
    )
    # All uniforms are drawn up front in variable order, so the stream a
    # variable consumes never depends on other variables' outcomes.
    u_z = rng.random(len(z_pos))
    u_y = rng.random(len(y_pos))
    u_x = rng.random(len(x_pos))

    z_dot = np.minimum(z_hat * m, 1.0)
    y_dot = np.zeros(len(y_pos))
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

    values = np.zeros(model.nvars)
    values[z_pos] = z_bar
    values[y_pos] = y_bar
    values[x_pos] = x_bar
    return SemiIntegralSolution(model=model, values=values, config=config, attempt=attempt)


def round_with_retries(
    frac: FractionalSolution, config: RoundingConfig, start_attempt: int = 0
) -> SemiIntegralSolution:
    """Draw until a draw passes the predicates; raise after max_retries.

    start_attempt offsets the attempt indices so a caller can continue the
    sequence across its own outer retries without replaying earlier draws.
    """
    best: SemiIntegralSolution | None = None
    best_score = -math.inf
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
        score = sol.weight_score()
        if score > best_score:
            best, best_score = sol, score
    raise RoundingRetriesExhausted(
        f"no acceptable draw in {config.max_retries} attempts", best
    )


def saturation_multiplier(frac: FractionalSolution) -> float:
    """Smallest multiplier that makes every coin saturate.

    At or above this value the draw is the relaxation itself (fully
    deterministic), which pins down a reproducibility baseline. A hair of
    headroom is added so float division cannot land just under one.
    """
    model = frac.model
    support = [
        float(frac.values[idx])
        for index in (model.z_index, model.y_index)
        for idx in index.values()
        if frac.values[idx] > _NONZERO_TOL
    ]
    if not support:
        return 1.0
    return max(1.0, 1.0 / min(support)) * (1.0 + 1e-9)
