"""LP/IP formulation of the relay-network design problem.

Decision variables, all in [0,1] (binary for the exact solver):

    z[i]      reflector i is switched on
    y[k,i]    reflector i subscribes to stream k
    x[k,i,j]  sink j receives stream k via reflector i

The columns run z, then y, then x, in three contiguous blocks; the x block
starts at column `x_offset`. The x loop alone decides which triples are
routes (both links present), and the x block is the route table: `x_refl`,
`x_sink` and `x_weight` hold each x's reflector, sink position and clamped
weight, indexed by position in the x block. The x columns run in sink
order, each sink's in reflector order, so each sink's routes are one
contiguous slice. `y_parent` and `x_parent` hold each y's z column and each
x's y column. Sink j's demand W_j is its weight row's `rhs`, and
`capacities` holds each reflector's stream budget in reflector order.

The rows are one table: the sparse `layout` holds every entry, `rows`,
`senses` and `rhs` each row's label, sense and right-hand side, `families`
each kind's contiguous rows, and `activity(x)` is A x in one product.
Row families, in order:

    feed-use        y[k,i] <= z[i]
    relay-use       x[k,i,j] <= y[k,i]
    fanout          sum_kj l_k x[k,i,j] <= C_i * z[i]
    feed-fanout     sum_j l_k x[k,i,j] <= C_i * y[k,i]   (redundant for the IP, tightens the LP)
    weight          sum_i w[k,i,j] * x[k,i,j] >= W_j     (exactly one row per sink)
    color           sum_{i in group} x[k,i,j] <= 1        (one row per sink/color, when enabled)

Here l_k is the load of one copy of stream k and C_i reflector i's cap in
that unit (`Instance.copy_load`, `Instance.copy_cap`): 1 and the fan-out,
or with bandwidth caps the bitrate and the bandwidth. A fanout or
feed-fanout row is built only where it can bind, that is where its x
coefficients sum to more than C_i. Any other follows from relay-use and
feed-use (x <= y <= z), so leaving it out changes neither the polytope nor
its optimum.

`solve_lp` and the root of `solve_ip` start the dual simplex from
`start_basis`: each sink's weight row is tight on its route of lowest cost
per unit of clamped weight among the routes the bounds leave open, and
every other row keeps its slack basic.

In full mode the objective charges reflector fixed costs on z, first-hop
costs on y and second-hop costs on x. In transmission mode z and y are
free and each x pays its full source-to-sink bandwidth cost.

Branch and bound searches a stronger model than the relaxation: one more
row per sink that needs two or more routes,

    cardinality     sum_i x[k,i,j] >= L_j                 (search only, `search_rows`)

where L_j is the fewest of sink j's largest clamped weights that reach
W_j. Before each node LP, the root's included, `propagate` tightens the
node's bounds over the route table (`x_weight` holds each x's clamped
weight): a closed z closes its y and a closed y its x, a route that its
sink's other open routes cannot do without is fixed to 1 with its y and z,
and a node whose open routes cannot reach some W_j is dropped without an
LP. It branches on the most fractional z, then y, then x. The model's
rows, `solve_lp` and every bound derived from it never see these rows or
these fixings.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import simplex
from .model import Instance

INTEGRALITY_TOL = 1e-6
FIX_TOL = 1e-7
ROW_TOL = 1e-7
GAP_TOL = 1e-6  # an incumbent this close to a lower bound is optimal
CARD_TOL = 1e-6  # search_rows: a weight sum within CARD_TOL * max(1, W_j) of W_j reaches it


class InfeasibleError(Exception):
    """The instance admits no assignment; carries a certificate.

    Certificate kinds: "weight-rows" (demand rows no admissible paths can
    meet), "phase1" (the LP relaxation is infeasible: "residual" is the bound
    violation of the row that the dual simplex cannot repair; the kind keeps
    its old name because it is a machine-readable code) and
    "search-exhausted" (branch and bound found no integral point, or
    propagation found none within the root's bounds).
    """

    def __init__(self, message: str, certificate: dict | None = None):
        super().__init__(message)
        self.certificate = certificate or {}


class NoIncumbentError(RuntimeError):
    """The budget ran out before branch and bound found an integral point;
    `bound` is a lower bound on the optimum, `nodes` the nodes explored."""

    def __init__(self, bound: float, nodes: int):
        super().__init__(f"budget ran out without incumbent after {nodes} nodes, bound {bound:.6f}")
        self.bound = bound
        self.nodes = nodes


class UnsupportedInstanceError(ValueError):
    """The requested pipeline cannot handle this instance shape."""


@dataclass
class TimeBudget:
    seconds: float | None = None
    node_limit: int | None = None


class LpModel:
    """Built formulation: variables, rows, objective and lookup tables."""

    def __init__(self, inst: Instance):
        self.inst = inst

        self.z_index: dict[str, int] = {}
        self.y_index: dict[tuple[str, str], int] = {}
        self.x_index: dict[tuple[str, str, str], int] = {}
        y_parent: list[int] = []  # the z column of each y
        x_parent: list[int] = []  # the y column of each x
        x_sink: list[int] = []  # the sink position of each x
        x_weight: list[float] = []  # the clamped weight of each x
        obj: list[float] = []

        transmission = inst.mode == "transmission"
        for r in inst.reflectors:
            self.z_index[r.id] = len(obj)
            obj.append(0.0 if transmission else r.cost)
        for s in inst.sources:
            for r in inst.reflectors:
                edge = inst.src_edges.get((s.id, r.id))
                if edge is None:
                    continue
                self.y_index[(s.id, r.id)] = len(obj)
                y_parent.append(self.z_index[r.id])
                obj.append(0.0 if transmission else edge.cost)
        self.x_offset = len(obj)  # the x block's first column
        for j, d in enumerate(inst.sinks):
            k = d.stream
            for r in inst.reflectors:
                first = inst.src_edges.get((k, r.id))
                edge = inst.refl_edges.get((r.id, d.id))
                if first is None or edge is None:
                    continue
                self.x_index[(k, r.id, d.id)] = len(obj)
                x_sink.append(j)
                x_weight.append(inst.path_weight(k, r.id, d.id))
                x_parent.append(self.y_index[(k, r.id)])
                obj.append(first.cost + edge.cost if transmission else edge.cost)

        self.y_parent = np.array(y_parent, dtype=np.intp)
        self.x_parent = np.array(x_parent, dtype=np.intp)
        self.x_sink = np.array(x_sink, dtype=np.intp)
        self.x_weight = np.array(x_weight, dtype=float)
        self.obj = np.array(obj)
        self.nvars = len(obj)
        self.lb = np.zeros(self.nvars)
        self.ub = np.ones(self.nvars)
        self.capacities = self._effective_capacities()
        self._build_rows()

    # -- construction -------------------------------------------------------

    def _effective_capacities(self) -> np.ndarray | None:
        """Per-reflector stream budget used by the rounding pipeline, in
        reflector order: whole copies of the one stream load every source
        shares."""
        inst = self.inst
        for r in inst.reflectors:  # the capacity rows need every cap too
            if inst.copy_cap(r.id) is None:
                raise UnsupportedInstanceError(
                    f"bandwidth mode needs a bandwidth cap on reflector {r.id}"
                )
        loads = {inst.copy_load(s.id) for s in inst.sources}
        if len(loads) != 1 or None in loads:
            return None  # heterogeneous bitrates: exact solver only
        (load,) = loads
        return np.array([math.floor(inst.copy_cap(r.id) / load) for r in inst.reflectors], float)

    def _copy_load(self, k: str) -> float:
        load = self.inst.copy_load(k)
        if load is None:
            raise UnsupportedInstanceError(f"bandwidth mode needs a bitrate on source {k}")
        return load

    def _build_rows(self):
        """The one row table: each family's (row, column, value) entries go
        straight into the solver's `layout`, next to each row's label in
        `rows`, its sense and rhs, and each family's rows in `families`."""
        inst, sinks = self.inst, self.inst.sinks
        nz, x0 = len(self.z_index), self.x_offset
        cols = np.arange(self.nvars)
        z_cols, y_cols, x_cols = cols[:nz], cols[nz:x0], cols[x0:]
        ny = y_cols.size
        x_feed = self.x_parent - nz  # each x's position in the y block
        # Each x's reflector position, by position in the x block; a
        # reflector's position is its z column.
        self.x_refl = x_refl = self.y_parent[x_feed]
        x_sink = self.x_sink
        x_load = np.array([self._copy_load(sinks[j].stream) for j in x_sink.tolist()], dtype=float)
        caps = np.array([float(inst.copy_cap(r.id)) for r in inst.reflectors])

        self.rows: list[str] = []
        self.senses: list[str] = []
        self.families: dict[str, range] = {}
        rhs, entries = [], []

        def family(kind, labels, sense, b, *blocks):
            """Append a family's rows; a block is (rows counted from the
            family's first row, columns, values)."""
            start = len(self.rows)
            self.families[kind] = range(start, start + len(labels))
            self.rows += labels
            self.senses += [sense] * len(labels)
            rhs.append(np.full(len(labels), b, dtype=float))
            for r, c, v in blocks:
                r = start + np.asarray(r, dtype=np.intp)
                entries.append((r, c, np.full(len(c), v, dtype=float)))

        y_rows, x_rows = np.arange(ny), np.arange(x_cols.size)
        family("feed-use", [f"feed_use[{k},{i}]" for k, i in self.y_index], "<=", 0.0,
               (y_rows, y_cols, 1.0), (y_rows, self.y_parent, -1.0))
        family("relay-use", [f"relay_use[{k},{i},{j}]" for k, i, j in self.x_index], "<=", 0.0,
               (x_rows, x_cols, 1.0), (x_rows, self.x_parent, -1.0))

        def capacity(kind, labels, group, cap, cap_col):
            """Rows sum l_k x <= cap * cap_col, one per group of x (`group`
            numbers each x's) whose loads total more than its cap. Any other
            such row follows from relay-use and feed-use (x <= y <= z), so
            it is left out."""
            binds = np.bincount(group, weights=x_load, minlength=len(labels)) > cap
            row = np.cumsum(binds) - 1  # each binding group's row in the family
            on = binds[group]
            family(kind, [label for label, b in zip(labels, binds) if b], "<=", 0.0,
                   (row[group[on]], x_cols[on], x_load[on]),
                   (row[binds], cap_col[binds], -cap[binds]))

        fan, feed = (
            ("bandwidth", "bandwidth_feed") if inst.bandwidth_enabled else ("fanout", "feed_fanout")
        )
        capacity("fanout", [f"{fan}[{r.id}]" for r in inst.reflectors], x_refl, caps, z_cols)
        # Feeds that relay, in sorted (stream, reflector) order, which is
        # not y column order once ids reach r10 or s10.
        feeds = sorted({(k, i) for k, i, _j in self.x_index})
        fed = np.array([self.y_index[f] for f in feeds], dtype=np.intp) - nz
        feed_row = np.zeros(ny, dtype=np.intp)
        feed_row[fed] = np.arange(fed.size)
        capacity("feed-fanout", [f"{feed}[{k},{i}]" for k, i in feeds], feed_row[x_feed],
                 caps[self.y_parent[fed]], nz + fed)

        family("weight", [f"weight[{d.id}]" for d in sinks], ">=",
               [d.weight_threshold for d in sinks], (x_sink, x_cols, self.x_weight))

        if inst.colors_enabled:  # one row per (sink, color) its routes reach, colors ascending
            colors = [r.color for r in inst.reflectors]
            x_group = [(j, colors[i]) for j, i in zip(x_sink.tolist(), x_refl.tolist())]
            colored = [n for n, g in enumerate(x_group) if g[1] is not None]
            groups = sorted({x_group[n] for n in colored})
            group_row = {g: n for n, g in enumerate(groups)}
            family("color", [f"color[{sinks[j].id},{c}]" for j, c in groups], "<=", 1.0,
                   ([group_row[x_group[n]] for n in colored], x_cols[colored], 1.0))

        r, c, v = (np.concatenate(parts) for parts in zip(*entries))
        self.rhs = np.concatenate(rhs)
        self.layout = simplex.Layout((len(self.rows), self.nvars), r, c, v)

    # -- array access ---------------------------------------------------------

    def arrays(self):
        """Dense (c, A, senses, b), for reference solvers; the solves use `layout`."""
        lay = self.layout
        a = np.zeros((lay.m, lay.n))
        a[lay.rows, lay.cols] = lay.vals
        return self.obj, a, self.senses, self.rhs

    def activity(self, x: np.ndarray) -> np.ndarray:
        """A x, one entry per row, in one product over the layout."""
        return self.layout.dot(x)

    def check_rows(self, x: np.ndarray) -> list[str]:
        """Labels of the rows x violates by more than ROW_TOL."""
        act, sense = self.activity(x), np.asarray(self.senses)
        bad = ((sense == "<=") & (act > self.rhs + ROW_TOL)) | (
            (sense == ">=") & (act < self.rhs - ROW_TOL)
        )
        return [self.rows[r] for r in np.flatnonzero(bad)]

    def weight_feasibility_certificate(self) -> dict | None:
        """Per-sink necessary condition: even all-ones must reach the threshold."""
        demand = self.rhs[self.families["weight"]].tolist()
        attainable = np.bincount(self.x_sink, weights=self.x_weight, minlength=len(demand))
        violated = [
            {"sink": d.id, "demanded": w, "attainable": a}
            for d, w, a in zip(self.inst.sinks, demand, attainable.tolist()) if a < w - 1e-9
        ]
        return {"kind": "weight-rows", "rows": violated} if violated else None


def build_model(inst: Instance) -> LpModel:
    return LpModel(inst)


@dataclass
class FractionalSolution:
    model: LpModel
    values: np.ndarray
    objective: float


@dataclass
class IntegralSolution:
    model: LpModel
    values: np.ndarray
    objective: float
    # "optimal", "timeout" (a budget ended with the gap open) or, from
    # approx_hack, "ok" (optimal only within the LP fixing, gap open)
    status: str
    bound: float
    nodes: int

    def chosen_triples(self) -> list[tuple[str, str, str]]:
        return [key for key, xi in self.model.x_index.items() if self.values[xi] > 0.5]


def start_basis(model: LpModel, m: int, ub: np.ndarray | None = None) -> np.ndarray:
    """A dual-feasible start for the model's first m rows and any rows
    after them, as the basic column of each row: each sink's weight row is
    tight on its route of lowest cost per unit of clamped weight among the
    routes whose upper bound in `ub` (default: the model's) is positive
    (ties to the lowest column), and every other row keeps its slack basic.

    The block K of this basis is diagonal with the routes' positive
    weights, so it is nonsingular. The weight row's dual c/w >= 0 prices
    each other open route of its sink at c' - w' c/w >= 0, so those rest
    at 0, as does every route fixed to 0, and it leaves the row's slack
    dual feasible at its bound. A sink with no open route of positive
    weight keeps its slack.
    """
    ub = model.ub if ub is None else ub
    x0 = model.x_offset
    columns = model.nvars + np.arange(m)  # the slack of each row
    x = np.flatnonzero((model.x_weight > 0) & (ub[x0:] > 0))  # the open routes
    x = x[np.lexsort((x, model.obj[x0 + x] / model.x_weight[x], model.x_sink[x]))]
    sinks, cheapest = np.unique(model.x_sink[x], return_index=True)
    columns[model.families["weight"].start + sinks] = x0 + x[cheapest]
    return columns


def solve_lp(model: LpModel) -> FractionalSolution:
    """Exact LP relaxation optimum; raises InfeasibleError with a certificate."""
    cert = model.weight_feasibility_certificate()
    if cert is not None:
        raise InfeasibleError("weight thresholds unattainable", certificate=cert)
    res = simplex.solve(model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub,
                        warm=start_basis(model, model.layout.m))
    if res.status == simplex.INFEASIBLE:
        raise InfeasibleError(
            "linear relaxation infeasible",
            certificate={"kind": "phase1", "residual": res.infeasibility},
        )
    return FractionalSolution(model=model, values=res.x, objective=res.objective)


def reach_floor(model: LpModel) -> np.ndarray:
    """Per sink, the weight sum that counts as reaching W_j in the search:
    W_j - CARD_TOL * max(1, W_j)."""
    demand = model.rhs[model.families["weight"]]
    return demand - CARD_TOL * np.maximum(1.0, demand)


def propagate(model: LpModel, floor: np.ndarray, lb: np.ndarray, ub: np.ndarray):
    """A node's bounds tightened over the route table, as new arrays
    (lb, ub), or None when no 0/1 point lies within them.

    Each y's upper bound is capped by its z's and each x's by its y's. Per
    sink, the clamped weights of the open routes (ub > 0) must reach
    `floor` (`reach_floor`), and an open route gets lb = 1 when the sink's
    other open routes fall short of it; an x with lb = 1 raises its y's lb,
    and a y with lb = 1 its z's. The first step lowers only upper bounds and
    the last raises only lower ones, so one pass reaches the fixpoint. The
    floor sits CARD_TOL below W_j, far below the solver's row tolerance, so
    every fixing holds for each 0/1 point the weight row accepts.
    """
    nz, x0 = len(model.z_index), model.x_offset
    ub = ub.copy()
    ub[nz:x0] = np.minimum(ub[nz:x0], ub[model.y_parent])
    ub[x0:] = np.minimum(ub[x0:], ub[model.x_parent])
    weight = np.where(ub[x0:] > 0, model.x_weight, 0.0)
    reach = np.bincount(model.x_sink, weights=weight, minlength=floor.size)
    if (reach < floor).any():
        return None
    lb = lb.copy()
    lb[x0:][reach[model.x_sink] - weight < floor[model.x_sink]] = 1.0
    lb[model.x_parent[lb[x0:] > 0]] = 1.0
    lb[model.y_parent[lb[nz:x0] > 0]] = 1.0
    return None if (lb > ub).any() else (lb, ub)


def search_rows(model: LpModel) -> tuple[simplex.Layout, list[str], np.ndarray]:
    """The rows branch and bound searches: the model's rows plus one
    cardinality row per sink that needs two or more routes.

    Sink j's weights are clamped at W_j, so a 0/1 point that meets its
    weight row picks at least L_j routes, L_j being the fewest of the sink's
    largest weights whose sum reaches W_j. The row `sum_i x[k,i,j] >= L_j`
    is therefore valid under any 0/1 fixing, and it cuts off relaxation
    points such as x = W_j / w_max on a single path. A sum counts as
    reaching W_j within CARD_TOL, far looser than the solver's row
    tolerance, so L_j never exceeds the routes of a point the weight row
    accepts. Rows with L_j = 1 are implied and left out. The model's own
    `layout`, and with it `solve_lp`, never sees these rows.
    """
    lay, floors = model.layout, reach_floor(model)
    rows, cols, vals = [lay.rows], [lay.cols], [lay.vals]
    rhs = list(model.rhs)
    ends = np.searchsorted(model.x_sink, np.arange(floors.size + 1))  # each sink's x slice
    for lo, hi, floor in zip(ends[:-1].tolist(), ends[1:].tolist(), floors.tolist()):
        reach = np.cumsum(np.sort(model.x_weight[lo:hi])[::-1]) >= floor
        need = 1 + int(np.count_nonzero(~reach))  # prefix sums only grow
        if need < 2:
            continue
        rows.append(np.full(hi - lo, len(rhs)))
        cols.append(model.x_offset + np.arange(lo, hi))
        vals.append(np.ones(hi - lo))
        rhs.append(float(need))
    layout = simplex.Layout(
        (len(rhs), model.nvars), np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    senses = model.senses + [">="] * (len(rhs) - lay.m)
    return layout, senses, np.array(rhs)


def solve_ip(
    model: LpModel,
    budget: TimeBudget | None = None,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
) -> IntegralSolution:
    """Branch and bound over the LP relaxation, within bounds lb and ub
    (default: the model's).

    Every node LP solves the `search_rows`: the model's rows plus the
    cardinality rows on the weight rows, built once per call and shared.
    Before its LP, each node, the root included, has its bounds tightened
    by `propagate`; a node it finds infeasible is dropped without an LP,
    and at the root the search ends with InfeasibleError "search-exhausted".
    Best-bound node order. A node branches on its most fractional z; only
    when every z is integral on the most fractional y, then on the most
    fractional x (largest distance from integrality, ties to the lowest
    index), so the reflector and feed decisions settle first. The root LP
    starts from `start_basis` over its propagated bounds. Both children
    are solved when their parent branches, one-up first, each from the
    parent's optimal basis; the heap holds only solved nodes, keyed by
    their own LP bounds. An incumbent is taken when its LP is solved: a
    node whose LP optimum is integral and below the incumbent replaces it.
    `nodes` counts the popped nodes plus the incumbent's, so the first
    incumbent is taken only while the node budget lasts. Raises
    NoIncumbentError when the budget runs out before an incumbent is
    found, and InfeasibleError when there is none.
    """
    budget = budget or TimeBudget()
    cert = model.weight_feasibility_certificate()
    if cert is not None:
        raise InfeasibleError("weight thresholds unattainable", certificate=cert)

    lb = model.lb if lb is None else lb
    ub = model.ub if ub is None else ub
    t0 = time.perf_counter()
    incumbent = None
    inc_obj = math.inf
    nodes = 0
    layout, senses, rhs = search_rows(model)
    nz, x0 = len(model.z_index), model.x_offset
    classes = ((0, nz), (nz, x0), (x0, model.nvars))  # z, then y, then x

    tie = itertools.count()
    heap: list = []  # (bound, tie-break, lb, ub, solved LP), feasible nodes only

    floor = reach_floor(model)

    def solve_node(lb, ub, warm=None):
        """Propagate a node's bounds and solve its LP, from `warm` or, at
        the root, from `start_basis`. An integral LP point below the
        incumbent replaces it at once (the first one only while the node
        budget lasts); any other node is queued unless it is infeasible or
        pruned. None when propagation drops the node."""
        nonlocal incumbent, inc_obj, nodes
        bounds = propagate(model, floor, lb, ub)
        if bounds is None:
            return None
        lb, ub = bounds
        if warm is None:
            warm = start_basis(model, layout.m, ub)
        res = simplex.solve(model.obj, layout, senses, rhs, lb, ub, warm=warm)
        if res.status != simplex.OPTIMAL or res.objective >= inc_obj - 1e-9:
            return res
        integral = np.all(np.abs(res.x - np.round(res.x)) <= INTEGRALITY_TOL)
        first = incumbent is None
        if integral and (not first or budget.node_limit is None or nodes < budget.node_limit):
            nodes += first  # the incumbent's node counts once, as a popped node would
            incumbent = np.round(res.x)
            inc_obj = float(model.obj @ incumbent)
        else:
            heapq.heappush(heap, (res.objective, next(tie), lb, ub, res))
        return res

    root = solve_node(lb, ub)
    if root is None:
        raise InfeasibleError(
            "integer program infeasible",
            certificate={"kind": "search-exhausted"},
        )
    if root.status == simplex.INFEASIBLE:
        raise InfeasibleError(
            "integer program infeasible",
            certificate={"kind": "phase1", "residual": root.infeasibility},
        )
    timed_out = False

    # Bounds pop in increasing order, so once the best is pruned all are.
    while heap and heap[0][0] < inc_obj - 1e-9:
        timed_out = (
            budget.seconds is not None and time.perf_counter() - t0 > budget.seconds
        ) or (budget.node_limit is not None and nodes >= budget.node_limit)
        if timed_out:
            break
        _bound, _cnt, lb, ub, res = heapq.heappop(heap)  # fractional while the budget lasts
        nodes += 1
        frac = np.abs(res.x - np.round(res.x))
        for start, end in classes:
            if frac[start:end].max(initial=0.0) > INTEGRALITY_TOL:
                branch_var = start + int(np.argmax(frac[start:end]))
                break
        up_lb, down_ub = lb.copy(), ub.copy()
        up_lb[branch_var] = 1.0
        down_ub[branch_var] = 0.0
        solve_node(up_lb, ub, res.basis)
        solve_node(lb, down_ub, res.basis)

    best_bound = heap[0][0] if timed_out else inc_obj
    if incumbent is None:
        if timed_out:
            raise NoIncumbentError(best_bound, nodes)
        raise InfeasibleError(
            "integer program infeasible",
            certificate={"kind": "search-exhausted"},
        )
    status = "timeout" if (timed_out and inc_obj - best_bound > GAP_TOL) else "optimal"
    return IntegralSolution(model, incumbent, inc_obj, status, bound=best_bound, nodes=nodes)


def approx_hack(frac: FractionalSolution, budget: TimeBudget | None = None) -> IntegralSolution:
    """Fix every LP-integral variable of `frac.model`, then solve the
    residual IP exactly.

    The residual's bound holds only under the fixing, so the result carries
    the LP bound `frac.objective` instead, and is "optimal" only when it
    meets that bound; otherwise it is "timeout" when the budget ended the
    residual search and "ok" when it did not. When the fixing leaves no
    integral point, search the whole model with the seconds left of the
    budget and return `solve_ip`'s result as it is.
    """
    model = frac.model
    budget = budget or TimeBudget()
    t0 = time.perf_counter()
    lb = model.lb.copy()
    ub = model.ub.copy()
    lb[frac.values >= 1.0 - FIX_TOL] = 1.0
    ub[frac.values <= FIX_TOL] = 0.0
    try:
        res = solve_ip(model, budget=budget, lb=lb, ub=ub)
    except InfeasibleError:  # the fixing left no integral point
        if budget.seconds is not None:
            budget = TimeBudget(budget.seconds - (time.perf_counter() - t0), budget.node_limit)
        return solve_ip(model, budget=budget)
    if res.objective - frac.objective <= GAP_TOL:
        status = "optimal"
    else:
        status = "timeout" if res.status == "timeout" else "ok"
    return replace(res, status=status, bound=frac.objective)
