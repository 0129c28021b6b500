"""Stage-two rounding: assign half-unit demand boxes to relay pairs.

The accepted draw leaves fractional relay mass per (stream, reflector, sink).
Per sink, that mass is cut into boxes of exactly one half, filling boxes in
non-increasing weight order and splitting entries at box boundaries; a
trailing strictly-partial box is discarded. Each kept box then goes to one
of its own fragments' reflectors, by an assignment LP on the simplex:

    minimize   sum cost(k, i, j) * a[box, i]  over the fragments (box, i)
    subject to sum over i of a[box, i]        == 1          per box
               sum over j's boxes of a[box, i] <= 2         per pair (i, j)
               sum over all boxes of a[box, i] <= 4 * cap_i  per reflector i
               0 <= a <= 1

Each column's reflector and pair rows lie on one chain of a laminar family
(pair inside reflector) and its third row is in the box partition, so the
matrix is totally unimodular and the optimal vertex the simplex returns is
integral (Shmoys & Tardos, Math. Prog. 62, 1993). A pair's relay mass is
half the boxes it serves, so it lands in {0, 1/2, 1}. Because boxes are
weight-sorted, serving every box from one of its own fragments' pairs keeps
at least (1/2 - DELTA) of each sink's demanded weight, the pair cap keeps
every reflector under four times its stream budget, and the LP optimum keeps
the relay-mass cost under the drawn relay cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class Box:
    sink: str
    index: int
    fragments: list[tuple[str, float]] = field(default_factory=list)

    @property
    def mass(self) -> float:
        return sum(m for _i, m in self.fragments)

    @property
    def reflectors(self) -> list[str]:
        # An entry fills a box before the next begins, so no reflector repeats.
        return [i for i, _m in self.fragments]


@dataclass
class BoxPlan:
    boxes: dict[str, list[Box]]
    dropped: dict[str, Box | None]

    @property
    def total_boxes(self) -> int:
        return sum(len(bs) for bs in self.boxes.values())


@dataclass
class GapResult:
    x_tilde: dict[tuple[str, str, str], float]
    mass_cost: float
    plan: BoxPlan
    box_servers: dict[tuple[str, int], str]


def build_boxes(sol: SemiIntegralSolution) -> BoxPlan:
    """Cut each demanding sink's drawn mass into half-unit fragment boxes."""
    model = sol.model
    boxes_by_sink: dict[str, list[Box]] = {}
    dropped: dict[str, Box | None] = {}
    for d in model.inst.sinks:
        if d.weight_threshold <= 0.0:
            continue
        entries = []
        for i, xi, w in model.sink_routes[d.id]:
            mass = float(sol.values[xi])
            if mass > _ZERO_TOL:
                entries.append((i, w, mass))
        total = sum(m for _i, _w, m in entries)
        needed = 1.0 - DELTA
        if total < needed - _MASS_TOL:
            raise GapStageError(
                f"sink {d.id}: drawn mass {total:.6f} below the accepted floor {needed:.6f}"
            )
        entries.sort(key=lambda e: (-e[1], e[0]))

        boxes: list[Box] = []
        cur = Box(d.id, 0)
        room = 0.5
        for i, _w, mass in entries:
            while mass > _ZERO_TOL:
                take = min(mass, room)
                cur.fragments.append((i, take))
                mass -= take
                room -= take
                if room <= _ZERO_TOL:
                    boxes.append(cur)
                    cur = Box(d.id, len(boxes))
                    room = 0.5
        if cur.fragments and cur.mass >= 0.5 - _MASS_TOL:
            boxes.append(cur)
            cur = Box(d.id, len(boxes))
        dropped[d.id] = cur if cur.fragments else None
        if not boxes:
            raise GapStageError(f"sink {d.id}: no full box survived the cut")
        boxes_by_sink[d.id] = boxes
    return BoxPlan(boxes=boxes_by_sink, dropped=dropped)


def run_gap_stage(sol: SemiIntegralSolution) -> GapResult:
    """Solve the box assignment LP and read the half-integral relay masses back."""
    model = sol.model
    inst = model.inst
    plan = build_boxes(sol)
    if not plan.boxes:
        return GapResult({}, 0.0, plan, {})

    sink_stream = {d.id: d.stream for d in inst.sinks}
    boxes: list[tuple[str, int]] = []
    pair_at: dict[tuple[str, str], int] = {}  # (reflector, sink), sink-major
    columns: list[tuple[int, str, str]] = []  # (box position, reflector, sink)
    for j, sink_boxes in plan.boxes.items():
        for box in sink_boxes:
            for i in box.reflectors:
                pair_at.setdefault((i, j), len(pair_at))
                columns.append((len(boxes), i, j))
            boxes.append((j, box.index))
    used = {i for _b, i, _j in columns}
    reflectors = [r.id for r in inst.reflectors if r.id in used]
    refl_at = {i: r for r, i in enumerate(reflectors)}
    col_pair = np.array([pair_at[(i, j)] for _b, i, j in columns])

    # Rows: reflectors, then pairs, then boxes; each column meets one of each.
    first_pair, first_box = len(reflectors), len(reflectors) + len(pair_at)
    rows = np.column_stack([
        [refl_at[i] for _b, i, _j in columns],
        first_pair + col_pair,
        [first_box + b for b, _i, _j in columns],
    ]).ravel()
    layout = simplex.Layout(
        (first_box + len(boxes), len(columns)),
        rows, np.repeat(np.arange(len(columns)), 3), np.ones(rows.size),
    )
    senses = ["<="] * first_box + ["=="] * len(boxes)
    rhs = [FANOUT_FACTOR * model.capacities[i] for i in reflectors]
    rhs += [2] * len(pair_at) + [1] * len(boxes)
    cost = [float(model.obj[model.x_index[(sink_stream[j], i, j)]]) for _b, i, j in columns]
    res = simplex.solve(
        cost, layout, senses, rhs, np.zeros(len(columns)), np.ones(len(columns))
    )
    if res.status != simplex.OPTIMAL:
        raise GapStageError(f"assignment LP is {res.status}")
    picked = np.rint(res.x)
    off = float(np.max(np.abs(res.x - picked)))
    if off > _INT_TOL:
        raise GapStageError(f"assignment LP vertex is {off:.3g} from integral")

    box_servers = {boxes[b]: i for (b, i, _j), v in zip(columns, picked) if v == 1}
    halves = np.bincount(col_pair, weights=picked, minlength=len(pair_at))
    x_tilde = {
        (sink_stream[j], i, j): h / 2.0 for (i, j), h in zip(pair_at, halves) if h > 0
    }
    mass_cost = sum(
        float(model.obj[model.x_index[key]]) * v for key, v in x_tilde.items()
    )
    # The weight and fan-out bounds are the approx audit's to check; only the
    # cost bound compares against the draw, which no audit sees.
    drawn_relay_cost = sum(
        float(model.obj[xi] * sol.values[xi]) for xi in model.x_index.values()
    )
    if mass_cost > drawn_relay_cost + 1e-6:
        raise GapStageError(
            f"assignment cost {mass_cost:.6f} exceeds drawn relay cost {drawn_relay_cost:.6f}"
        )
    return GapResult(x_tilde=x_tilde, mass_cost=mass_cost, plan=plan, box_servers=box_servers)
