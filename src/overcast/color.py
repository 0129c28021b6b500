"""Color-aware rounding stage: pick whole relay paths under copy caps.

When reflectors carry colors (one network operator each), the accepted draw
is rounded path-wise instead of through the box-assignment LP. The drawn relay
mass is cut into half-unit boxes, and each (reflector, sink, box) fragment
is one candidate path carrying that fragment's mass. Paths costing more
than four times the draw's realized cost are discarded (each box keeps at
least a quarter unit of mass because the expensive paths carry less than a
quarter in total), the survivors are scaled by four and capped at one, and
a dependent-rounding walk turns them into whole paths while every
constraint row increases by strictly less than the column-sum bound t = 9.
The system has one row per bound the stage proves: a feed row per used
reflector (fan-out under 8x its cap + 9), a box row per box (every box
covered), a color row per (sink, color) group (at most 4 + 9 = 13 copies)
and one cost row (at most 13 times the draw's realized cost). The stage
checks coverage, and the color audit (`verify.audit`) the other three.

The rounding rows are one sparse `simplex.Layout`, each row's slack a unit
entry of its own column; the walk makes only its few tracked rows dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gapflow import BoxPlan, build_boxes
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
# candidate paths


@dataclass
class RelayPath:
    """One source->reflector->(pair)->box->target candidate from the draw."""

    sink: str
    box_index: int
    reflector: str
    stream: str
    mass: float  # fractional value carried, at most one half
    cost: float  # relay objective coefficient of the underlying route
    color: int | None
    scaled: float = 0.0  # min(4 * mass, 1) once filtering has run


def enumerate_paths(sol: SemiIntegralSolution, plan: BoxPlan) -> list[RelayPath]:
    """One candidate path per box fragment, carrying that fragment's mass.

    Fragments are listed in (sink, box, fragment) order, then stably sorted
    by the reflector's position in the instance. The rounding walk's pick
    depends on the column order, so this order is part of the output.
    """
    model = sol.model
    inst = model.inst
    paths: list[RelayPath] = []
    for d in inst.sinks:
        for box in plan.boxes.get(d.id, []):
            for i, mass in box.fragments:
                paths.append(
                    RelayPath(
                        sink=d.id,
                        box_index=box.index,
                        reflector=i,
                        stream=d.stream,
                        mass=mass,
                        cost=float(model.obj[model.x_index[(d.stream, i, d.id)]]),
                        color=inst.reflector_by_id[i].color,
                    )
                )
    position = {r.id: pos for pos, r in enumerate(inst.reflectors)}
    paths.sort(key=lambda p: position[p.reflector])
    return paths


def filter_and_scale(
    paths: list[RelayPath], draw_cost: float
) -> tuple[list[RelayPath], list[RelayPath]]:
    """Drop paths costing over 4x the draw, scale the rest by four, cap at one.

    Every box must keep at least a quarter unit of mass afterwards; less
    means the realized cost handed in was understated, which is a hard error.
    """
    kept: list[RelayPath] = []
    dropped: list[RelayPath] = []
    threshold = COST_FILTER_FACTOR * draw_cost
    for p in paths:
        if draw_cost > _TOL and p.cost > threshold * (1.0 + 1e-12):
            dropped.append(p)
        else:
            p.scaled = min(MASS_SCALE * p.mass, 1.0)
            kept.append(p)

    per_box: dict[tuple[str, int], float] = {}
    for p in paths:
        per_box.setdefault((p.sink, p.box_index), 0.0)
    for p in kept:
        per_box[(p.sink, p.box_index)] += p.mass
    for (j, b), mass in sorted(per_box.items()):
        if mass < 0.25 - _TOL:
            raise ColorStageError(
                f"box ({j},{b}): retained mass {mass:.6f} fell under one quarter"
            )
    return kept, dropped


# ---------------------------------------------------------------------------
# the rounding system


def build_rounding_system(
    sol: SemiIntegralSolution, kept: list[RelayPath]
) -> tuple[Layout, np.ndarray]:
    """The equality system A v = b over path columns plus one slack per row:
    returns A and the fractional point v0 that meets it, each slack clamped
    at zero where the row is over by at most 1e-7.

    Four row families, each for the bound it proves once the walk adds less
    than t = 9 to it:
      feed   per used reflector, its paths <= 4 * (2 * cap): fan-out under
             8x cap + 9 (the color audit's fan-out bound);
      box    per box, -9 times its paths <= -9: every box keeps a path, since
             a drift under 9 cannot take the row from -9 up to 0;
      color  per (sink, color) group, its paths <= 4: at most 13 copies;
      cost   the paths' cost over the draw's realized cost <= 4: at most 13x
             the draw's cost (a kept path costs at most 4x the draw).
    Every path column's positive entries then total at most 1 + 1 + 4 = 6
    and its negative entries at least -9, inside the walk's t = 9.

    A is one sparse `Layout` of m rows and n_paths + m columns: the path
    columns, then column n_paths + r holding row r's slack as a unit entry.
    """
    model = sol.model  # a draw exists only for models with stream budgets
    draw_cost = sol.realized_cost
    rows: list[tuple[str, dict[int, float], float]] = []  # (label, coefs, rhs)
    feed_cols: dict[str, dict[int, float]] = {}
    box_cols: dict[tuple[str, int], dict[int, float]] = {}
    color_cols: dict[tuple[str, int], dict[int, float]] = {}
    for col, p in enumerate(kept):
        feed_cols.setdefault(p.reflector, {})[col] = 1.0
        box_cols.setdefault((p.sink, p.box_index), {})[col] = 1.0
        if p.color is not None:
            color_cols.setdefault((p.sink, p.color), {})[col] = 1.0

    for r in model.inst.reflectors:
        if r.id in feed_cols:
            cap = 2.0 * model.capacities[r.id]
            rows.append((f"feed[{r.id}]", feed_cols[r.id], MASS_SCALE * cap))
    for (j, b), coefs in sorted(box_cols.items()):
        rows.append((f"box[{j},{b}]", {c: -9.0 for c in coefs}, -9.0))
    for (j, color), coefs in sorted(color_cols.items()):
        rows.append((f"color[{j},{color}]", coefs, MASS_SCALE))
    cost_coefs = {}  # empty when the draw costs nothing
    if draw_cost > _TOL:
        cost_coefs = {col: p.cost / draw_cost for col, p in enumerate(kept)}
    rows.append(("cost", cost_coefs, MASS_SCALE))

    labels, row_coefs, rhs = zip(*rows)
    m, n_paths = len(rows), len(kept)
    entries = [(ri, col, c) for ri, coefs in enumerate(row_coefs) for col, c in coefs.items()]
    entries += [(ri, n_paths + ri, 1.0) for ri in range(m)]  # the slacks
    a = Layout((m, n_paths + m), *zip(*entries))
    v0 = np.zeros(n_paths + m)
    v0[:n_paths] = [p.scaled for p in kept]
    slack = np.array(rhs) - a.dot(v0)  # the slack coordinates are still zero
    if np.any(slack < -1e-7):
        bad = labels[int(np.argmin(slack))]
        raise ColorStageError(f"fractional infeasibility on row {bad}")
    v0[n_paths:] = np.maximum(slack, 0.0)
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
    selected: list[RelayPath]
    plan: BoxPlan
    certificate: KarpCertificate
    draw_cost: float
    path_cost_total: float
    dropped_paths: int


def run_color_stage(sol: SemiIntegralSolution) -> ColorResult:
    """Box the draw, list the fragment paths, filter, round, and read back the
    pick once its certificate holds and it covers every box.

    The copy and cost bounds are the color audit's to check.
    """
    plan = build_boxes(sol)
    kept, dropped = filter_and_scale(enumerate_paths(sol, plan), sol.realized_cost)
    a, v0 = build_rounding_system(sol, kept)
    v_int, certificate = karp_round(a, v0)
    if not certificate.ok:
        raise ColorStageError(
            f"rounding contract failed: max row increase {certificate.max_increase:.9f}"
            f" against bound {certificate.t}"
        )
    selected = [p for p, val in zip(kept, v_int[: len(kept)]) if val > 0.5]
    covered = {(p.sink, p.box_index) for p in selected}
    for j, boxes in plan.boxes.items():
        for box in boxes:
            if (j, box.index) not in covered:
                raise ColorStageError(f"box ({j},{box.index}) left unserved")
    return ColorResult(
        x_tilde={(p.stream, p.reflector, p.sink): 1.0 for p in selected},
        selected=selected,
        plan=plan,
        certificate=certificate,
        draw_cost=sol.realized_cost,
        path_cost_total=sum((p.cost for p in selected), 0.0),
        dropped_paths=len(dropped),
    )
