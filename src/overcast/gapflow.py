"""Stage-two rounding: assign half-unit demand boxes to relay pairs.

The accepted draw leaves fractional relay mass on the x columns, one per
(stream, reflector, sink) route. Per sink, that mass is cut into boxes of
exactly one half, filling boxes in non-increasing weight order and
splitting entries at box boundaries; a trailing strictly-partial box is
discarded. The cut is one fragment table, `BoxPlan`: fragment f carries
`mass[f]` of x column `col[f]` in global box `box[f]`, and box b belongs to
the sink at position `sink[b]`. Both stage-two roundings read that table,
and the model's `x_refl` and `x_sink` arrays give each column's reflector
and sink; a pair (reflector, sink) is just an x column.

Each kept box then goes to one of its own fragments' pairs, by an
assignment LP on the simplex with one variable a[f] per fragment:

    minimize   sum cost(col[f]) * a[f]
    subject to sum over box b's fragments of a[f]    == 1          per box
               sum over the pair's fragments of a[f] <= 2          per pair
               sum over reflector i's fragments a[f] <= 4 * cap_i  per reflector i
               0 <= a <= 1

The rows run used reflectors in instance order, then pairs in order of
first use, then boxes. Each variable's reflector and pair rows lie on one
chain of a laminar family (pair inside reflector) and its third row is in
the box partition, so the matrix is totally unimodular and the optimal
vertex the simplex returns is integral (Shmoys & Tardos, Math. Prog. 62,
1993). A pair's relay mass is half the boxes it serves, so it lands in
{0, 1/2, 1}. Because boxes are weight-sorted, serving every box from one of
its own fragments' pairs keeps at least (1/2 - DELTA) of each sink's
demanded weight, the pair cap keeps every reflector under four times its
stream budget, and the LP optimum keeps the relay-mass cost under the drawn
relay cost.

The simplex starts at the greedy assignment: each box row is basic on its
cheapest fragment (the lowest fragment on ties) and every reflector and
pair row on its slack. Those fragments meet the box rows in an identity
block and no inequality slack is nonbasic, so the start is always taken,
and the dual simplex pivots only where the greedy assignment breaks a pair
or reflector cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .rounding import DELTA, SemiIntegralSolution

_MASS_TOL = 1e-9
_ZERO_TOL = 1e-12
_INT_TOL = 1e-9
FANOUT_FACTOR = 4  # the reflector rows' bound, in stream budgets


class GapStageError(RuntimeError):
    """The draw handed to stage two breaks one of its preconditions."""


@dataclass
class BoxPlan:
    """The cut as one fragment table, in (sink, box, cut) order: fragment f
    carries `mass[f]` of model column `col[f]` in global box `box[f]`, and
    box b belongs to the sink at position `sink[b]`."""

    col: np.ndarray
    box: np.ndarray
    mass: np.ndarray
    sink: np.ndarray

    @property
    def total_boxes(self) -> int:
        return self.sink.size


@dataclass
class GapResult:
    x_tilde: dict[tuple[str, str, str], float]
    mass_cost: float
    plan: BoxPlan


def route_keys(model, cols: np.ndarray) -> list[tuple[str, str, str]]:
    """The (stream, reflector, sink) ids of each of the x columns `cols`."""
    x = cols - model.x_offset
    refls, sinks = model.inst.reflectors, model.inst.sinks
    return [
        (sinks[j].stream, refls[i].id, sinks[j].id)
        for i, j in zip(model.x_refl[x].tolist(), model.x_sink[x].tolist())
    ]


def build_boxes(sol: SemiIntegralSolution) -> BoxPlan:
    """Cut each demanding sink's drawn mass into half-unit boxes of fragments."""
    model = sol.model
    col: list[int] = []
    box: list[int] = []
    mass: list[float] = []
    sink: list[int] = []
    for j, (d, routes) in enumerate(zip(model.inst.sinks, model.sink_routes.values())):
        if d.weight_threshold <= 0.0:
            continue
        entries = [(i, w, float(sol.values[xi]), xi) for i, xi, w in routes]
        entries = [e for e in entries if e[2] > _ZERO_TOL]
        total = sum(m for _i, _w, m, _xi in entries)
        needed = 1.0 - DELTA
        if total < needed - _MASS_TOL:
            raise GapStageError(
                f"sink {d.id}: drawn mass {total:.6f} below the accepted floor {needed:.6f}"
            )
        entries.sort(key=lambda e: (-e[1], e[0]))

        first_box = len(sink)
        start, room = len(col), 0.5  # the open box's first fragment and its room
        for _i, _w, m, xi in entries:
            while m > _ZERO_TOL:
                take = min(m, room)
                col.append(xi)
                box.append(len(sink))
                mass.append(take)
                m -= take
                room -= take
                if room <= _ZERO_TOL:
                    sink.append(j)
                    start, room = len(col), 0.5
        if sum(mass[start:]) >= 0.5 - _MASS_TOL:  # short of a half by rounding only
            sink.append(j)
        else:  # strictly partial: its fragments go
            del col[start:], box[start:], mass[start:]
        if len(sink) == first_box:
            raise GapStageError(f"sink {d.id}: no full box survived the cut")
    return BoxPlan(
        np.array(col, dtype=np.intp), np.array(box, dtype=np.intp),
        np.array(mass, dtype=float), np.array(sink, dtype=np.intp),
    )


def run_gap_stage(sol: SemiIntegralSolution) -> GapResult:
    """Solve the box assignment LP and read the half-integral relay masses back."""
    model = sol.model
    plan = build_boxes(sol)
    if not plan.total_boxes:
        return GapResult({}, 0.0, plan)

    # Pairs are numbered in order of first use, reflectors in instance order.
    _cols, first, pair = np.unique(plan.col, return_index=True, return_inverse=True)
    col_pair, pair_col = np.argsort(np.argsort(first))[pair], plan.col[np.sort(first)]
    x0 = model.x_offset
    used, col_refl = np.unique(model.x_refl[plan.col - x0], return_inverse=True)

    # Rows: reflectors, then pairs, then boxes; each column meets one of each.
    n, boxes = plan.col.size, plan.total_boxes
    first_pair, first_box = used.size, used.size + pair_col.size
    rows = np.column_stack([col_refl, first_pair + col_pair, first_box + plan.box]).ravel()
    layout = simplex.Layout(
        (first_box + boxes, n), rows, np.repeat(np.arange(n), 3), np.ones(rows.size)
    )
    senses = ["<="] * first_box + ["=="] * boxes
    caps = np.array(list(model.capacities.values()), dtype=float)  # in reflector order
    rhs = np.concatenate(
        [FANOUT_FACTOR * caps[used], np.full(pair_col.size, 2.0), np.ones(boxes)]
    )
    # The greedy start: each box row on its cheapest fragment, the lowest on ties.
    cost = model.obj[plan.col]
    order = np.lexsort((cost, plan.box))
    cheapest = order[np.unique(plan.box[order], return_index=True)[1]]
    warm = np.concatenate([n + np.arange(first_box), cheapest])
    res = simplex.solve(cost, layout, senses, rhs, np.zeros(n), np.ones(n), warm=warm)
    if res.status != simplex.OPTIMAL:
        raise GapStageError(f"assignment LP is {res.status}")
    picked = np.rint(res.x)
    off = float(np.max(np.abs(res.x - picked)))
    if off > _INT_TOL:
        raise GapStageError(f"assignment LP vertex is {off:.3g} from integral")

    halves = np.bincount(col_pair, weights=picked, minlength=pair_col.size)
    served = halves > 0
    mass = halves[served] / 2.0
    x_tilde = dict(zip(route_keys(model, pair_col[served]), mass))
    mass_cost = sum(model.obj[pair_col[served]] * mass)  # added in x_tilde order
    # The weight and fan-out bounds are the approx audit's to check; only the
    # cost bound compares against the draw, which no audit sees.
    drawn_relay_cost = sum((model.obj[x0:] * sol.values[x0:]).tolist())
    if mass_cost > drawn_relay_cost + 1e-6:
        raise GapStageError(
            f"assignment cost {mass_cost:.6f} exceeds drawn relay cost {drawn_relay_cost:.6f}"
        )
    return GapResult(x_tilde=x_tilde, mass_cost=mass_cost, plan=plan)
