"""Color-aware rounding stage: pick whole relay paths under copy caps.

When reflectors carry colors (one network operator each), the accepted draw
is rounded path-wise instead of through the box-assignment LP. The draw is
cut into the gap stage's fragment table (`gapflow.BoxPlan`), and each
fragment is one candidate path: its box, its mass, and its x column, whose
reflector, sink and cost the model's `x_refl`, `x_sink` and `obj` give. The
walk's columns are the fragments stably sorted by reflector position; the
walk's pick depends on that order, so it is part of the output.

Paths costing more than four times the draw's realized cost are discarded
(each box keeps at least a quarter unit of mass because the expensive paths
carry less than a quarter in total), the survivors are scaled by four and
capped at one, and a dependent-rounding walk turns them into whole paths
while every constraint row increases by strictly less than the column-sum
bound t = 9. The system has one row per bound the stage proves: a feed row
per used reflector (fan-out under 8x its cap + 9), a box row per box (every
box covered), a color row per (sink, color) group (at most 4 + 9 = 13
copies) and one cost row (at most 13 times the draw's realized cost). The
stage checks coverage, and the color audit (`verify.audit`) the other three.

The rounding rows are one sparse `simplex.Layout`, each row's slack a unit
entry of its own column; the walk makes only its few tracked rows dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gapflow import BoxPlan, build_boxes, route_keys
from .rounding import SemiIntegralSolution
from .simplex import Layout

COLUMN_BOUND = 9.0
COST_FILTER_FACTOR = 4.0
MASS_SCALE = 4.0

_TOL = 1e-9
_SNAP = 1e-9
_ACTIVE_MARGIN = 1e-6  # rows are tracked until they cannot gain t - this


class ColorStageError(RuntimeError):
    """The colored rounding stage hit a broken precondition or contract."""


# ---------------------------------------------------------------------------
# candidate paths and the rounding system


def filter_and_scale(
    plan: BoxPlan, paths: np.ndarray, cost: np.ndarray, draw_cost: float
) -> tuple[np.ndarray, np.ndarray]:
    """The fragments of `paths` (in walk order) that cost at most 4x the draw,
    and their masses scaled by four and capped at one; `cost` is indexed by
    fragment. A draw that costs nothing keeps every path.

    Every box must keep at least a quarter unit of mass afterwards; less
    means the realized cost handed in was understated, which is a hard error.
    """
    kept = paths
    if draw_cost > _TOL:
        kept = paths[cost[paths] <= COST_FILTER_FACTOR * draw_cost * (1.0 + 1e-12)]
    retained = np.bincount(plan.box[kept], weights=plan.mass[kept], minlength=plan.total_boxes)
    short = np.flatnonzero(retained < 0.25 - _TOL)
    if short.size:
        b = short[0]
        raise ColorStageError(f"box {b}: retained mass {retained[b]:.6f} fell under one quarter")
    return kept, np.minimum(MASS_SCALE * plan.mass[kept], 1.0)


def build_rounding_system(
    sol: SemiIntegralSolution, plan: BoxPlan, kept: np.ndarray, scaled: np.ndarray
) -> tuple[Layout, np.ndarray]:
    """The equality system A v = b over the kept fragments' path columns
    (valued `scaled`) plus one slack per row: returns A and the fractional
    point v0 that meets it, each slack clamped at zero where the row is over
    by at most 1e-7.

    Four row families, each for the bound it proves once the walk adds less
    than t = 9 to it:
      feed   per used reflector, in instance order, its paths <= 4 * (2 * cap):
             fan-out under 8x cap + 9 (the color audit's fan-out bound);
      box    per box, -9 times its paths <= -9: every box keeps a path, since
             a drift under 9 cannot take the row from -9 up to 0;
      color  per (sink, color) group, its paths <= 4: at most 13 copies;
      cost   the paths' cost over the draw's realized cost <= 4: at most 13x
             the draw's cost (a kept path costs at most 4x the draw).
    Box and color rows run by sink id (d10 before d2), then by box or color.
    Every path column's positive entries then total at most 1 + 1 + 4 = 6
    and its negative entries at least -9, inside the walk's t = 9.

    A is one sparse `Layout` of m rows and n_paths + m columns: the path
    columns, then column n_paths + r holding row r's slack as a unit entry.
    """
    model = sol.model  # a draw exists only for models with stream budgets
    inst, draw_cost, n = model.inst, sol.realized_cost, kept.size
    x = plan.col[kept] - model.x_offset
    used, feed = np.unique(model.x_refl[x], return_inverse=True)
    sink_ids = np.array([d.id for d in inst.sinks])
    sink_rank = np.argsort(np.argsort(sink_ids))  # each sink's place in id order
    box_row = np.argsort(np.argsort(sink_rank[plan.sink], kind="stable"))
    has_color = np.array([r.color is not None for r in inst.reflectors])
    refl_color = np.array([r.color or 0 for r in inst.reflectors])
    colored = np.flatnonzero(has_color[model.x_refl[x]])
    group_of = [sink_rank[model.x_sink[x[colored]]], refl_color[model.x_refl[x[colored]]]]
    groups, group_row = np.unique(np.column_stack(group_of), axis=0, return_inverse=True)

    first_color = used.size + plan.total_boxes
    m = first_color + len(groups) + 1  # the cost row is last
    path = np.arange(n)
    # A free draw leaves the cost row empty: the layout drops zero entries.
    cost = model.obj[plan.col[kept]] / draw_cost if draw_cost > _TOL else np.zeros(n)
    a = Layout(
        (m, n + m),
        np.concatenate([
            feed, used.size + box_row[plan.box[kept]], first_color + group_row,
            np.full(n, m - 1), np.arange(m),
        ]),
        np.concatenate([path, path, colored, path, n + np.arange(m)]),  # the slacks last
        np.concatenate([np.ones(n), np.full(n, -9.0), np.ones(colored.size), cost, np.ones(m)]),
    )
    rhs = np.concatenate([
        MASS_SCALE * (2.0 * model.capacities[used]), np.full(plan.total_boxes, -9.0),
        np.full(len(groups), MASS_SCALE), [MASS_SCALE],
    ])
    v0 = np.concatenate([scaled, np.zeros(m)])
    slack = rhs - a.dot(v0)  # the slack coordinates are still zero
    if np.any(slack < -1e-7):
        by_id = np.sort(sink_ids)
        labels = [f"feed[{inst.reflectors[i].id}]" for i in used]
        labels += [f"box[{b}]" for b in np.argsort(box_row)]
        labels += [f"color[{by_id[j]},{c}]" for j, c in groups.tolist()] + ["cost"]
        raise ColorStageError(f"fractional infeasibility on row {labels[int(np.argmin(slack))]}")
    v0[n:] = np.maximum(slack, 0.0)
    return a, v0


# ---------------------------------------------------------------------------
# dependent rounding with a certified drift bound


@dataclass
class KarpCertificate:
    """Post-hoc proof that the walk honored the rounding contract.

    Every coordinate must land on its own floor or ceiling and every row's
    value must grow by strictly less than t (checked against t - 1e-9).
    """

    t: float
    max_increase: float
    coords_ok: bool
    rows_ok: bool

    @property
    def ok(self) -> bool:
        return self.coords_ok and self.rows_ok


def karp_round(
    a: Layout, v0: np.ndarray, t: float = COLUMN_BOUND
) -> tuple[np.ndarray, KarpCertificate]:
    """Round v0 coordinatewise to floor or ceiling, each row of `a` growing < t.

    Walks along null directions of the tracked rows (restricted to the
    still-fractional coordinates) until a coordinate hits a bound. A row is
    tracked while its drift so far plus its largest possible future increase
    could still reach t; tracked rows sit in the kernel, so they do not move
    at all, and a row is released only once it provably cannot overshoot.
    When the tracked rows pin down every fractional coordinate, the row with
    the least future-increase potential is released and the outcome is left
    to the final certificate check. Once no row is tracked, none can be
    again (a row's drift plus future increase never grows), so every
    fractional coordinate is rounded up at once.

    Drift and future increase are sums over the nonzeros of `a`; only the
    tracked rows are made dense, over the floating columns, for the SVD.
    The bound needs each column's positive entries to total at most t and
    its negative entries at least -t; a column that breaks this raises
    ColorStageError.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.size != a.n:
        raise ValueError("matrix and vector shapes disagree")
    pos = np.bincount(a.cols, weights=np.maximum(a.vals, 0.0), minlength=a.n)
    neg = np.bincount(a.cols, weights=np.minimum(a.vals, 0.0), minlength=a.n)
    if np.any(pos > t + 1e-9) or np.any(neg < -t - 1e-9):
        raise ColorStageError("a column breaks the +/- t column-sum bound")
    n = a.n
    lo = np.floor(v0 + 1e-12)
    hi = np.ceil(v0 - 1e-12)
    v = np.clip(v0, lo, hi)

    for _ in range(2 * n + 8):
        floating = np.flatnonzero((v > lo + _SNAP) & (v < hi - _SNAP))
        if floating.size == 0:
            break
        drift = a.dot(v - v0)
        col_pos = np.full(n, -1)
        col_pos[floating] = np.arange(floating.size)
        # a row's largest future increase: each floating coordinate moves
        # to whichever of its bounds raises the row
        rise = a.vals * np.where(col_pos >= 0, hi - v, 0.0)[a.cols]
        fall = a.vals * np.where(col_pos >= 0, lo - v, 0.0)[a.cols]
        phi = np.bincount(a.rows, weights=np.maximum(rise, fall), minlength=a.m)
        tracked = (drift + phi >= t - _ACTIVE_MARGIN).nonzero()[0].tolist()
        if not tracked:
            # drift + phi never grows, so no row is tracked again, and each
            # further step would ceil the first floating coordinate
            v[floating] = hi[floating]
            break
        # the tracked rows, dense over the floating columns
        row_pos = np.full(a.m, -1)
        row_pos[tracked] = np.arange(len(tracked))
        hit = (row_pos[a.rows] >= 0) & (col_pos[a.cols] >= 0)
        sub = np.zeros((len(tracked), floating.size))
        sub[row_pos[a.rows[hit]], col_pos[a.cols[hit]]] = a.vals[hit]

        while True:
            if not tracked:
                d = np.zeros(floating.size)
                d[0] = 1.0
                break
            _u, sv, vt = np.linalg.svd(sub)
            cut = max(1e-12, max(sub.shape) * (sv[0] if sv.size else 0.0) * 1e-12)
            rank = int(np.sum(sv > cut))
            if rank < floating.size:
                d = vt[rank]
                break
            # every direction is pinned; release the least dangerous row
            drop = tracked.index(min(tracked, key=lambda r: (phi[r], r)))
            del tracked[drop]
            sub = np.delete(sub, drop, axis=0)

        # orient deterministically: the first near-maximal component points up
        mags = np.abs(d)
        pivot = int(np.flatnonzero(mags >= mags.max() * (1.0 - 1e-9))[0])
        if d[pivot] < 0:
            d = -d
        vf = v[floating]
        up, down = d > 1e-12, d < -1e-12
        lam = min(
            np.min((hi[floating][up] - vf[up]) / d[up], initial=np.inf),
            np.min((vf[down] - lo[floating][down]) / -d[down], initial=np.inf),
        )
        if not np.isfinite(lam) or lam <= 0:
            raise ColorStageError("rounding walk stalled on a flat direction")
        v[floating] += lam * d
        v = np.clip(v, lo, hi)
        snap_lo = v <= lo + _SNAP
        snap_hi = v >= hi - _SNAP
        v[snap_lo] = lo[snap_lo]
        v[snap_hi] = hi[snap_hi]
    else:
        raise ColorStageError("rounding walk did not terminate")

    coords_ok = bool(np.all((v == lo) | (v == hi)))
    row_increase = a.dot(v - v0)
    cert = KarpCertificate(
        t=t,
        max_increase=float(np.max(row_increase, initial=0.0)),
        coords_ok=coords_ok,
        rows_ok=bool(np.all(row_increase < t - 1e-9)),
    )
    return v, cert


# ---------------------------------------------------------------------------
# assembling the integral colored solution


@dataclass
class ColorResult:
    x_tilde: dict[tuple[str, str, str], float]
    selected: np.ndarray  # the picked paths, as fragments of `plan`
    plan: BoxPlan
    certificate: KarpCertificate
    draw_cost: float
    path_cost_total: float
    dropped_paths: int


def run_color_stage(sol: SemiIntegralSolution) -> ColorResult:
    """Box the draw, order its fragment paths by reflector, filter, round,
    and read back the pick once its certificate holds and it covers every box.

    The copy and cost bounds are the color audit's to check.
    """
    model, plan = sol.model, build_boxes(sol)
    x = plan.col - model.x_offset
    paths = np.argsort(model.x_refl[x], kind="stable")  # the walk's column order
    kept, scaled = filter_and_scale(plan, paths, model.obj[plan.col], sol.realized_cost)
    a, v0 = build_rounding_system(sol, plan, kept, scaled)
    v_int, certificate = karp_round(a, v0)
    if not certificate.ok:
        raise ColorStageError(
            f"rounding contract failed: max row increase {certificate.max_increase:.9f}"
            f" against bound {certificate.t}"
        )
    selected = kept[v_int[:kept.size] > 0.5]
    unserved = np.flatnonzero(np.bincount(plan.box[selected], minlength=plan.total_boxes) == 0)
    if unserved.size:
        raise ColorStageError(f"box {unserved[0]} left unserved")
    cols = plan.col[selected]
    return ColorResult(
        x_tilde=dict.fromkeys(route_keys(model, cols), 1.0),
        selected=selected,
        plan=plan,
        certificate=certificate,
        draw_cost=sol.realized_cost,
        path_cost_total=sum(model.obj[cols].tolist(), 0.0),
        dropped_paths=paths.size - kept.size,
    )
