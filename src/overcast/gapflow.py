"""Stage-two rounding: assign half-unit demand boxes to relay pairs.

The accepted draw leaves fractional relay mass per (stream, reflector, sink).
Per sink, that mass is cut into boxes of exactly one half, filling boxes in
non-increasing weight order and splitting entries at box boundaries; a
trailing strictly-partial box is discarded. Each kept box then demands one
half unit of flow in a small assignment network

    source -> reflector -> (reflector, sink) pair -> box -> target

whose capacities are doubled into integers, so the optimal flow is integral
in half units and the per-pair result lands in {0, 1/2, 1}. Because boxes are
weight-sorted, serving every box from one of its own fragments' pairs keeps
at least (1/2 - delta) of each sink's demanded weight, the pair cap keeps
every reflector under four times its stream budget, and the flow optimum
keeps the relay-mass cost under the drawn relay cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .flow import MinCostFlow
from .rounding import SemiIntegralSolution

_MASS_TOL = 1e-9
_ZERO_TOL = 1e-12


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
        seen = []
        for i, _m in self.fragments:
            if i not in seen:
                seen.append(i)
        return seen


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
        k = d.stream
        entries = []
        for i, w in model.weights.sink_entries(d.id):
            mass = float(sol.values[model.x_index[(k, i, d.id)]])
            if mass > _ZERO_TOL:
                entries.append((i, w, mass))
        total = sum(m for _i, _w, m in entries)
        needed = 1.0 - sol.config.delta
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
    """Solve the assignment flow and read the half-integral relay masses back."""
    model = sol.model
    inst = model.inst
    plan = build_boxes(sol)
    if not plan.boxes:
        return GapResult({}, 0.0, plan, {})

    sink_stream = {d.id: d.stream for d in inst.sinks}
    pair_order: list[tuple[str, str]] = []  # (reflector, sink), sink-major
    pair_boxes: dict[tuple[str, str], list[int]] = {}
    box_nodes: list[tuple[str, int]] = []
    for d in inst.sinks:
        if d.id not in plan.boxes:
            continue
        for box in plan.boxes[d.id]:
            box_nodes.append((d.id, box.index))
            for i in box.reflectors:
                key = (i, d.id)
                if key not in pair_boxes:
                    pair_boxes[key] = []
                    pair_order.append(key)
                pair_boxes[key].append(len(box_nodes) - 1)

    used_reflectors = [r.id for r in inst.reflectors if any(p[0] == r.id for p in pair_order)]

    node = 0
    source = node
    node += 1
    refl_node = {}
    for i in used_reflectors:
        refl_node[i] = node
        node += 1
    pair_node = {}
    for key in pair_order:
        pair_node[key] = node
        node += 1
    box_node_ids = []
    for _ in box_nodes:
        box_node_ids.append(node)
        node += 1
    target = node
    node += 1

    net = MinCostFlow(node)
    for i in used_reflectors:
        net.add_edge(source, refl_node[i], 4 * model.capacities[i], 0.0)
    pair_handles = {}
    for key in pair_order:
        i, j = key
        pair_handles[key] = net.add_edge(refl_node[i], pair_node[key], 2, 0.0)
    assign_handles = []  # (pair key, box position, handle)
    for key in pair_order:
        i, j = key
        coef = float(model.obj[model.x_index[(sink_stream[j], i, j)]])
        for b in pair_boxes[key]:
            handle = net.add_edge(pair_node[key], box_node_ids[b], 1, coef)
            assign_handles.append((key, b, handle))
    for b, _ in enumerate(box_nodes):
        net.add_edge(box_node_ids[b], target, 1, 0.0)

    wanted = len(box_nodes)
    flow, _half_cost = net.run(source, target)
    if flow != wanted:
        raise GapStageError(f"assignment flow saturated {flow} of {wanted} boxes")

    box_servers: dict[tuple[str, int], str] = {}
    for key, b, handle in assign_handles:
        if net.flow_on(handle) == 1:
            jb = box_nodes[b]
            if jb in box_servers:
                raise GapStageError(f"box {jb} served twice")
            box_servers[jb] = key[0]
    if len(box_servers) != wanted:
        raise GapStageError("a box ended up without a server")

    x_tilde: dict[tuple[str, str, str], float] = {}
    for key in pair_order:
        i, j = key
        halves = net.flow_on(pair_handles[key])
        if halves == 0:
            continue
        if halves not in (1, 2):
            raise GapStageError(f"pair {key} carries {halves} half units")
        x_tilde[(sink_stream[j], i, j)] = halves / 2.0

    mass_cost = sum(
        float(model.obj[model.x_index[key]]) * v for key, v in x_tilde.items()
    )
    _check_guarantees(sol, plan, x_tilde, mass_cost)
    return GapResult(x_tilde=x_tilde, mass_cost=mass_cost, plan=plan, box_servers=box_servers)


def _check_guarantees(sol, plan, x_tilde, mass_cost):
    model = sol.model
    inst = model.inst

    routes_per_reflector: dict[str, int] = {}
    for (_k, i, _j) in x_tilde:
        routes_per_reflector[i] = routes_per_reflector.get(i, 0) + 1
    for i, count in routes_per_reflector.items():
        if count > 4 * model.capacities[i]:
            raise GapStageError(f"reflector {i} got {count} routes, cap {model.capacities[i]}")

    floor_frac = max(0.0, 0.5 - sol.config.delta)
    for d in inst.sinks:
        if d.id not in plan.boxes:
            continue
        kept = sum(
            model.weights.get(d.stream, i, d.id) * v
            for (k, i, j), v in x_tilde.items()
            if j == d.id
        )
        if kept < floor_frac * d.weight_threshold - 1e-6:
            raise GapStageError(
                f"sink {d.id}: kept weight {kept:.6f} under "
                f"{floor_frac:.2f} * {d.weight_threshold:.6f}"
            )

    drawn_relay_cost = sum(
        float(model.obj[xi] * sol.values[xi]) for xi in model.x_index.values()
    )
    if mass_cost > drawn_relay_cost + 1e-6:
        raise GapStageError(
            f"assignment cost {mass_cost:.6f} exceeds drawn relay cost {drawn_relay_cost:.6f}"
        )
