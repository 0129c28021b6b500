"""LP/IP formulation of the relay-network design problem.

Decision variables, all in [0,1] (binary for the exact solver):

    z[i]      reflector i is switched on
    y[k,i]    reflector i subscribes to stream k
    x[k,i,j]  sink j receives stream k via reflector i

Row families, in emission order:

    feed-use        y[k,i] <= z[i]
    relay-use       x[k,i,j] <= y[k,i]
    fanout          sum_kj l_k x[k,i,j] <= C_i * z[i]
    feed-fanout     sum_j l_k x[k,i,j] <= C_i * y[k,i]   (redundant for the IP, tightens the LP)
    weight          sum_i w[k,i,j] * x[k,i,j] >= W_j     (exactly one row per sink)
    color           sum_{i in group} x[k,i,j] <= 1        (one row per sink/color, when enabled)

Here l_k is the load of one copy of stream k and C_i reflector i's cap in
that unit (`Instance.copy_load`, `Instance.copy_cap`): 1 and the fan-out,
or with bandwidth caps the bitrate and the bandwidth.

In full mode the objective charges reflector fixed costs on z, first-hop
costs on y and second-hop costs on x. In transmission mode z and y are
free and each x pays its full source-to-sink bandwidth cost.

Branch and bound searches a stronger model than the relaxation: one more
row per sink that needs two or more routes,

    cardinality     sum_i x[k,i,j] >= L_j                 (search only, `search_rows`)

where L_j is the fewest of sink j's largest clamped weights that reach
W_j. It branches on the most fractional z, then y, then x. The model's
rows, `solve_lp` and every bound derived from it never see these rows.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import simplex
from .model import Instance, WeightTable

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
    "search-exhausted" (branch and bound found no integral point).
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
class LpRow:
    kind: str
    label: str
    idx: np.ndarray
    coef: np.ndarray
    sense: str
    rhs: float


@dataclass
class TimeBudget:
    seconds: float | None = None
    node_limit: int | None = None


class LpModel:
    """Built formulation: variables, rows, objective and lookup tables."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.weights = WeightTable(inst)

        self.z_index: dict[str, int] = {}
        self.y_index: dict[tuple[str, str], int] = {}
        self.x_index: dict[tuple[str, str, str], int] = {}
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
                obj.append(0.0 if transmission else edge.cost)
        for d in inst.sinks:
            k = d.stream
            for r in inst.reflectors:
                if (k, r.id) not in inst.src_edges:
                    continue
                edge = inst.refl_edges.get((r.id, d.id))
                if edge is None:
                    continue
                self.x_index[(k, r.id, d.id)] = len(obj)
                if transmission:
                    obj.append(inst.src_edges[(k, r.id)].cost + edge.cost)
                else:
                    obj.append(edge.cost)

        self.obj = np.array(obj)
        self.nvars = len(obj)
        self.lb = np.zeros(self.nvars)
        self.ub = np.ones(self.nvars)
        self.rows: list[LpRow] = []
        self.sink_weight_row: dict[str, int] = {}
        self.capacities = self._effective_capacities()
        self._build_rows()
        # The solver's view of the rows, built once: every solve shares it.
        self.senses = [row.sense for row in self.rows]
        self.rhs = np.array([row.rhs for row in self.rows])
        self.layout = simplex.Layout(
            (len(self.rows), self.nvars),
            np.repeat(np.arange(len(self.rows)), [row.idx.size for row in self.rows]),
            np.concatenate([row.idx for row in self.rows]),
            np.concatenate([row.coef for row in self.rows]),
        )

    # -- construction -------------------------------------------------------

    def _effective_capacities(self) -> dict[str, int] | None:
        """Per-reflector stream budget used by the rounding pipeline:
        whole copies of the one stream load every source shares."""
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
        return {r.id: int(math.floor(inst.copy_cap(r.id) / load)) for r in inst.reflectors}

    def _copy_load(self, k: str) -> float:
        load = self.inst.copy_load(k)
        if load is None:
            raise UnsupportedInstanceError(f"bandwidth mode needs a bitrate on source {k}")
        return load

    def _add_row(self, kind, label, terms, sense, rhs):
        idx = np.array([t[0] for t in terms], dtype=int)
        coef = np.array([t[1] for t in terms], dtype=float)
        self.rows.append(LpRow(kind, label, idx, coef, sense, rhs))

    def _build_rows(self):
        inst = self.inst
        x_by_reflector: dict[str, list[tuple[str, str, str]]] = {r.id: [] for r in inst.reflectors}
        x_by_feed: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
        for key in self.x_index:
            k, i, j = key
            x_by_reflector[i].append(key)
            x_by_feed.setdefault((k, i), []).append(key)

        for (k, i), yi in self.y_index.items():
            self._add_row("feed-use", f"feed_use[{k},{i}]", [(yi, 1.0), (self.z_index[i], -1.0)], "<=", 0.0)

        for key, xi in self.x_index.items():
            k, i, j = key
            yi = self.y_index[(k, i)]
            self._add_row("relay-use", f"relay_use[{k},{i},{j}]", [(xi, 1.0), (yi, -1.0)], "<=", 0.0)

        fan_label, feed_label = (
            ("bandwidth", "bandwidth_feed") if inst.bandwidth_enabled else ("fanout", "feed_fanout")
        )
        for r in inst.reflectors:
            terms = [(self.x_index[key], self._copy_load(key[0])) for key in x_by_reflector[r.id]]
            terms.append((self.z_index[r.id], -float(inst.copy_cap(r.id))))
            self._add_row("fanout", f"{fan_label}[{r.id}]", terms, "<=", 0.0)
        for (k, i), keys in sorted(x_by_feed.items()):
            load = self._copy_load(k)
            terms = [(self.x_index[key], load) for key in keys]
            terms.append((self.y_index[(k, i)], -float(inst.copy_cap(i))))
            self._add_row("feed-fanout", f"{feed_label}[{k},{i}]", terms, "<=", 0.0)

        for d in inst.sinks:
            k = d.stream
            terms = [(self.x_index[(k, i, d.id)], w) for (i, w) in self.weights.sink_entries(d.id)]
            self.sink_weight_row[d.id] = len(self.rows)
            self._add_row("weight", f"weight[{d.id}]", terms, ">=", d.weight_threshold)

        if inst.colors_enabled:
            for d in inst.sinks:
                k = d.stream
                groups: dict[int, list[int]] = {}
                for (i, _w) in self.weights.sink_entries(d.id):
                    color = inst.reflector_by_id[i].color
                    if color is None:
                        continue
                    groups.setdefault(color, []).append(self.x_index[(k, i, d.id)])
                for color in sorted(groups):
                    terms = [(xi, 1.0) for xi in groups[color]]
                    self._add_row("color", f"color[{d.id},{color}]", terms, "<=", 1.0)

    # -- array access ---------------------------------------------------------

    def arrays(self):
        """Dense (c, A, senses, b), for reference solvers; the solves use `layout`."""
        lay = self.layout
        a = np.zeros((lay.m, lay.n))
        a[lay.rows, lay.cols] = lay.vals
        return self.obj, a, self.senses, self.rhs

    def check_rows(self, x: np.ndarray, tol: float = ROW_TOL) -> list[str]:
        """Labels of rows the assignment violates beyond tol."""
        bad = []
        for row in self.rows:
            v = float(x[row.idx] @ row.coef)
            if row.sense == "<=" and v > row.rhs + tol:
                bad.append(row.label)
            elif row.sense == ">=" and v < row.rhs - tol:
                bad.append(row.label)
        return bad

    def weight_feasibility_certificate(self) -> dict | None:
        """Per-sink necessary condition: even all-ones must reach the threshold."""
        violated = []
        for d in self.inst.sinks:
            attainable = sum(w for _i, w in self.weights.sink_entries(d.id))
            if attainable < d.weight_threshold - 1e-9:
                violated.append(
                    {"sink": d.id, "demanded": d.weight_threshold, "attainable": attainable}
                )
        if violated:
            return {"kind": "weight-rows", "rows": violated}
        return None


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


def solve_lp(model: LpModel) -> FractionalSolution:
    """Exact LP relaxation optimum; raises InfeasibleError with a certificate."""
    cert = model.weight_feasibility_certificate()
    if cert is not None:
        raise InfeasibleError("weight thresholds unattainable", certificate=cert)
    res = simplex.solve(model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub)
    if res.status == simplex.INFEASIBLE:
        raise InfeasibleError(
            "linear relaxation infeasible",
            certificate={"kind": "phase1", "residual": res.infeasibility},
        )
    return FractionalSolution(model=model, values=res.x, objective=res.objective)


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
    lay = model.layout
    rows, cols, vals = [lay.rows], [lay.cols], [lay.vals]
    rhs = list(model.rhs)
    for d in model.inst.sinks:
        row = model.rows[model.sink_weight_row[d.id]]
        reach = np.cumsum(np.sort(row.coef)[::-1]) >= row.rhs - CARD_TOL * max(1.0, row.rhs)
        need = 1 + int(np.count_nonzero(~reach))  # prefix sums only grow
        if need < 2:
            continue
        rows.append(np.full(row.idx.size, len(rhs)))
        cols.append(row.idx)
        vals.append(np.ones(row.idx.size))
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
    Best-bound node order. A node branches on its most fractional z; only
    when every z is integral on the most fractional y, then on the most
    fractional x (largest distance from integrality, ties to the lowest
    index), so the reflector and feed decisions settle first. Both
    children are solved when their parent branches, one-up first, each
    from the parent's optimal basis (a dual-simplex warm start); the heap
    holds only solved nodes, keyed by their own LP bounds, and the
    incumbent is taken at pop. Raises NoIncumbentError when the budget runs
    out before an incumbent is found, and InfeasibleError when there is
    none.
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
    layout, senses, rhs = search_rows(model)
    nz, ny = len(model.z_index), len(model.y_index)
    classes = ((0, nz), (nz, nz + ny), (nz + ny, model.nvars))  # z, then y, then x

    tie = itertools.count()
    heap: list = []  # (bound, tie-break, lb, ub, solved LP), feasible nodes only

    def solve_node(lb, ub, warm=None):
        """Solve a node's LP; queue it unless it is infeasible or pruned."""
        res = simplex.solve(model.obj, layout, senses, rhs, lb, ub, warm=warm)
        if res.status == simplex.OPTIMAL and res.objective < inc_obj - 1e-9:
            heapq.heappush(heap, (res.objective, next(tie), lb, ub, res))
        return res

    root = solve_node(lb.copy(), ub.copy())
    if root.status == simplex.INFEASIBLE:
        raise InfeasibleError(
            "integer program infeasible",
            certificate={"kind": "phase1", "residual": root.infeasibility},
        )
    nodes = 0
    timed_out = False

    # Bounds pop in increasing order, so once the best is pruned all are.
    while heap and heap[0][0] < inc_obj - 1e-9:
        timed_out = (
            budget.seconds is not None and time.perf_counter() - t0 > budget.seconds
        ) or (budget.node_limit is not None and nodes >= budget.node_limit)
        if timed_out:
            break
        _bound, _cnt, lb, ub, res = heapq.heappop(heap)
        nodes += 1
        values = res.x
        frac = np.abs(values - np.round(values))
        if np.all(frac <= INTEGRALITY_TOL):
            incumbent = np.round(values)
            inc_obj = float(model.obj @ incumbent)
            continue
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


def approx_hack(
    model: LpModel,
    frac: FractionalSolution,
    budget: TimeBudget | None = None,
) -> IntegralSolution:
    """Fix every LP-integral variable, then solve the residual IP exactly.

    The residual's bound holds only under the fixing, so the result carries
    the LP bound `frac.objective` instead, and is "optimal" only when it
    meets that bound; otherwise it is "timeout" when the budget ended the
    residual search and "ok" when it did not. When the fixing leaves no
    integral point, search the whole model with the seconds left of the
    budget and return `solve_ip`'s result as it is.
    """
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
