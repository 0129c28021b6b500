"""Color-aware rounding stage: pick whole relay paths under copy caps.

When reflectors carry colors (one network operator each), the accepted draw
is rounded path-wise instead of through the assignment flow. The drawn relay
mass is cut into half-unit boxes, and each (reflector, sink, box) fragment
is one candidate path carrying that fragment's mass. Paths costing more
than four times the draw's realized cost are discarded (each box keeps at
least a quarter unit of mass because the expensive paths carry less than a
quarter in total), the survivors are scaled by four and capped at one, and
a dependent-rounding walk turns them into whole paths while every
constraint row increases by strictly less than the column-sum bound t = 9.
The chosen paths then cover every box, send at most 4 + 9 = 13 copies per
(sink, color) group, and cost at most 13 times the draw's realized cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gapflow import BoxPlan, build_boxes
from .lp import UnsupportedInstanceError
from .rounding import SemiIntegralSolution

COLUMN_BOUND = 9.0
COST_FILTER_FACTOR = 4.0
MASS_SCALE = 4.0
COPY_CAP = 13  # 4 fractional + 9 rounding drift

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


@dataclass
class RoundingSystem:
    """Equality system A v = b over path columns plus one slack per row.

    Four row families carry the edge capacities of the assignment network
    (feed, pair, assignment, demand), each with right-hand side four times
    the capacity; the network itself is never built. Then come one row per
    box scaled by -9 (so the rounding drift cannot erase coverage), one row
    per (sink, color) group capped at four fractional copies, and one
    relay-cost row normalized by the draw's realized cost. Every path
    column's positive entries then total at most t = 9 and its negative
    entries at least -9.
    """

    a: np.ndarray
    b: np.ndarray
    v0: np.ndarray
    row_labels: list[str] = field(default_factory=list)
    n_paths: int = 0
    t: float = COLUMN_BOUND

    def validate(self) -> None:
        rows, cols = self.a.shape
        if rows != len(self.b) or cols != len(self.v0) or rows != len(self.row_labels):
            raise ColorStageError("rounding system shapes disagree")
        if cols != self.n_paths + rows:
            raise ColorStageError("expected exactly one slack column per row")
        pos = np.where(self.a > 0, self.a, 0.0).sum(axis=0)
        neg = np.where(self.a < 0, self.a, 0.0).sum(axis=0)
        if np.any(pos > self.t + 1e-9) or np.any(neg < -self.t - 1e-9):
            raise ColorStageError("a column breaks the +/- t column-sum bound")
        slack_block = self.a[:, self.n_paths:]
        if not np.array_equal(slack_block, np.eye(rows)):
            raise ColorStageError("slack columns must form an identity block")
        if np.any(self.v0[self.n_paths:] < -_TOL):
            raise ColorStageError("negative slack: fractional system infeasible")
        if np.max(np.abs(self.a @ self.v0 - self.b), initial=0.0) > 1e-7:
            raise ColorStageError("fractional point does not satisfy the equalities")


def build_rounding_system(sol: SemiIntegralSolution, kept: list[RelayPath]) -> RoundingSystem:
    model = sol.model
    if model.capacities is None:
        raise UnsupportedInstanceError(
            "colored rounding needs uniform per-reflector stream budgets"
        )
    draw_cost = sol.realized_cost

    rows: list[tuple[str, dict[int, float], float]] = []

    def add_row(label: str, coefs: dict[int, float], rhs: float) -> None:
        rows.append((label, coefs, rhs))

    feed_cols: dict[str, dict[int, float]] = {}
    pair_cols: dict[tuple[str, str], dict[int, float]] = {}
    box_cols: dict[tuple[str, int], dict[int, float]] = {}
    color_cols: dict[tuple[str, int], dict[int, float]] = {}
    for col, p in enumerate(kept):
        feed_cols.setdefault(p.reflector, {})[col] = 1.0
        pair_cols.setdefault((p.reflector, p.sink), {})[col] = 1.0
        box_cols.setdefault((p.sink, p.box_index), {})[col] = 1.0
        if p.color is not None:
            color_cols.setdefault((p.sink, p.color), {})[col] = 1.0

    for r in model.inst.reflectors:
        if r.id in feed_cols:
            cap = 2.0 * model.capacities[r.id]
            add_row(f"edge[feed:{r.id}]", feed_cols[r.id], MASS_SCALE * cap)
    for (i, j), coefs in sorted(pair_cols.items()):
        add_row(f"edge[pair:{i},{j}]", coefs, MASS_SCALE * 1.0)
    for col, p in enumerate(kept):
        add_row(
            f"edge[assign:{p.reflector},{p.sink},{p.box_index}]",
            {col: 1.0},
            MASS_SCALE * 0.5,
        )
    for (j, b), coefs in sorted(box_cols.items()):
        add_row(f"edge[demand:{j},{b}]", coefs, MASS_SCALE * 0.5)
    for (j, b), coefs in sorted(box_cols.items()):
        add_row(f"box[{j},{b}]", {c: -9.0 for c in coefs}, -9.0)
    for (j, color), coefs in sorted(color_cols.items()):
        add_row(f"color[{j},{color}]", coefs, MASS_SCALE)
    if draw_cost > _TOL:
        cost_coefs = {col: p.cost / draw_cost for col, p in enumerate(kept)}
    else:
        cost_coefs = {col: 0.0 for col in range(len(kept))}
    add_row("cost", cost_coefs, MASS_SCALE)

    n_paths = len(kept)
    m = len(rows)
    a = np.zeros((m, n_paths + m))
    b = np.zeros(m)
    labels = []
    scaled = np.array([p.scaled for p in kept])
    for ri, (label, coefs, rhs) in enumerate(rows):
        labels.append(label)
        for col, coef in coefs.items():
            a[ri, col] = coef
        a[ri, n_paths + ri] = 1.0
        b[ri] = rhs
    slack = b - a[:, :n_paths] @ scaled
    if np.any(slack < -1e-7):
        bad = labels[int(np.argmin(slack))]
        raise ColorStageError(f"fractional infeasibility on row {bad}")
    v0 = np.concatenate([scaled, np.maximum(slack, 0.0)])
    system = RoundingSystem(a=a, b=b, v0=v0, row_labels=labels, n_paths=n_paths)
    system.validate()
    return system


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
    a: np.ndarray, v0: np.ndarray, t: float = COLUMN_BOUND
) -> tuple[np.ndarray, KarpCertificate]:
    """Round v0 coordinatewise to floor or ceiling, each row growing < t.

    Walks along null directions of the tracked rows (restricted to the
    still-fractional coordinates) until a coordinate hits a bound. A row is
    tracked while its drift so far plus its largest possible future increase
    could still reach t; tracked rows sit in the kernel, so they do not move
    at all, and a row is released only once it provably cannot overshoot.
    When the tracked rows pin down every fractional coordinate, the row with
    the least future-increase potential is released and the outcome is left
    to the final certificate check.
    """
    a = np.asarray(a, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if a.ndim != 2 or a.shape[1] != v0.size:
        raise ValueError("matrix and vector shapes disagree")
    n = a.shape[1]
    lo = np.floor(v0 + 1e-12)
    hi = np.ceil(v0 - 1e-12)
    v = np.clip(v0, lo, hi)
    a_pos = np.where(a > 0, a, 0.0)
    a_neg = np.where(a < 0, -a, 0.0)

    for _ in range(2 * n + 8):
        floating = np.flatnonzero((v > lo + _SNAP) & (v < hi - _SNAP))
        if floating.size == 0:
            break
        drift = a @ (v - v0)
        vf = v[floating]
        phi = a_pos[:, floating] @ (hi[floating] - vf)
        phi += a_neg[:, floating] @ (vf - lo[floating])
        tracked = (drift + phi >= t - _ACTIVE_MARGIN).nonzero()[0].tolist()

        d = None
        while d is None:
            if not tracked:
                d = np.zeros(floating.size)
                d[0] = 1.0
                break
            sub = a[np.asarray(tracked)][:, floating]
            _u, sv, vt = np.linalg.svd(sub)
            cut = max(1e-12, max(sub.shape) * (sv[0] if sv.size else 0.0) * 1e-12)
            rank = int(np.sum(sv > cut))
            if rank < floating.size:
                d = vt[rank]
            else:
                # every direction is pinned; release the least dangerous row
                tracked.remove(min(tracked, key=lambda r: (phi[r], r)))

        # orient deterministically: the first near-maximal component points up
        mags = np.abs(d)
        pivot = int(np.flatnonzero(mags >= mags.max() * (1.0 - 1e-9))[0])
        if d[pivot] < 0:
            d = -d
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
    row_increase = a @ (v - v0)
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


def extract_colored_solution(
    sol: SemiIntegralSolution,
    kept: list[RelayPath],
    v_int: np.ndarray,
    plan: BoxPlan,
    certificate: KarpCertificate,
    dropped_paths: int,
) -> ColorResult:
    """Read the chosen paths back and enforce the factor-13 guarantees."""
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

    copy_counts: dict[tuple[str, int], int] = {}
    for p in selected:
        if p.color is not None:
            key = (p.sink, p.color)
            copy_counts[key] = copy_counts.get(key, 0) + 1
    for (j, color), count in sorted(copy_counts.items()):
        if count > COPY_CAP:
            raise ColorStageError(
                f"sink {j}, color {color}: {count} copies over the cap {COPY_CAP}"
            )

    draw_cost = sol.realized_cost
    path_cost_total = sum(p.cost for p in selected)
    if path_cost_total > COPY_CAP * draw_cost + 1e-6:
        raise ColorStageError(
            f"selected path cost {path_cost_total:.6f} over 13x draw cost {draw_cost:.6f}"
        )

    x_tilde = {(p.stream, p.reflector, p.sink): 1.0 for p in selected}
    return ColorResult(
        x_tilde=x_tilde,
        selected=selected,
        plan=plan,
        certificate=certificate,
        draw_cost=draw_cost,
        path_cost_total=path_cost_total,
        dropped_paths=dropped_paths,
    )


def run_color_stage(sol: SemiIntegralSolution) -> ColorResult:
    """Box the draw, list the fragment paths, filter, round, and audit the pick."""
    plan = build_boxes(sol)
    paths = enumerate_paths(sol, plan)
    if not paths:
        empty = KarpCertificate(
            t=COLUMN_BOUND,
            max_increase=0.0,
            coords_ok=True,
            rows_ok=True,
        )
        return ColorResult(
            x_tilde={},
            selected=[],
            plan=plan,
            certificate=empty,
            draw_cost=sol.realized_cost,
            path_cost_total=0.0,
            dropped_paths=0,
        )
    kept, dropped = filter_and_scale(paths, sol.realized_cost)
    system = build_rounding_system(sol, kept)
    v_int, certificate = karp_round(system.a, system.v0, system.t)
    return extract_colored_solution(sol, kept, v_int, plan, certificate, len(dropped))
