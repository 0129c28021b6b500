"""Bounded-variable revised simplex on an explicit basis inverse.

Two-phase primal simplex in revised form. Every variable carries its own
[lb, ub] interval (ub may be +inf), rows are '<=', '>=' or '==' with
arbitrary right-hand sides, and nonbasic variables rest at one of their
bounds. Phase 1 seeds slack variables where the all-at-lower-bound start is
already row-feasible and artificial variables elsewhere, then minimizes the
artificial mass; phase 2 minimizes the real objective with artificials
pinned at zero.

The extended matrix (structural columns, one slack per inequality row, one
artificial per row that needs one) is held as sparse columns; the solver
keeps the m x m basis inverse B^-1 explicitly. A pivot gathers B^-1 a_q from
the few rows a_q touches, reads the pivot row of the tableau as one row of
B^-1 times the matrix (a bincount over the nonzeros), and applies its rank-1
update to B^-1 only on the rows where B^-1 a_q is nonzero and the columns
where the pivot row of B^-1 is nonzero.

Refactorization uses the unit columns: a basic slack or artificial is a
+-unit vector, so B is block triangular once the rows are split into those
a basic unit column covers and the rest. Only the k x k block of basic
structural columns on the uncovered rows is inverted densely; the rest of
B^-1 follows by hand, and the basic values come from the same inverse.

A solve can start from the `basis` of an earlier solve of the same rows
(`warm=`), such as a branch-and-bound parent; the bounds may differ. The
warm start refactorizes that basis without artificial columns, moves each
boxed nonbasic variable to the bound its reduced cost prefers, restores
primal feasibility with a bounded dual simplex (the largest bound violation
leaves, the dual ratio test picks the entering column), and finishes with
the primal simplex. A singular basis, or a column without an upper bound
whose reduced cost has the wrong sign, starts the solve cold instead.

Pricing is Dantzig (most violating reduced cost, lowest index on ties) with
a switch to Bland's rule after a run of degenerate pivots, so the solver
cannot cycle and identical inputs pivot identically; the dual simplex
switches the same way. Reduced costs are updated incrementally and
recomputed from a fresh factorization at a fixed cadence to bound drift;
optimality and infeasibility are only declared on a fresh factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LB, _AT_UB, _BASIC = 0, 1, 2

_PIVOT_TOL = 1e-9
_DUAL_TOL = 1e-9
_FEAS_TOL = 1e-9
_STEP_TOL = 1e-12
_STALL_LIMIT = 60
_REFRESH_EVERY = 400
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0, "==": 0.0}  # '==' rows get no slack


class SimplexError(RuntimeError):
    """Internal solver failure (iteration cap or numerical breakdown)."""


@dataclass(frozen=True)
class Basis:
    """A basis over the structural and slack columns, for warm starts."""

    columns: np.ndarray  # the basic column of each basis position
    status: np.ndarray  # _AT_LB / _AT_UB / _BASIC per structural and slack column


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None  # structural variable values
    objective: float | None
    infeasibility: float = 0.0  # phase-1 residual, or the bound violation left by the dual simplex
    iterations: int = 0
    refreshes: int = 0  # basis refactorizations
    basis: Basis | None = None  # optimal basis; None when an artificial stays basic
    warm_started: bool = False  # ran from the caller's basis (False after a cold fallback)


def solve(
    c,
    a,
    senses,
    b,
    lb,
    ub,
    max_iterations: int = 200_000,
    warm: Basis | None = None,
) -> LpResult:
    """Minimize c.x subject to a x (senses) b and lb <= x <= ub.

    `a` is a dense (m, n) array, `senses` a sequence of '<=', '>=', '=='.
    Returns structural values only; slacks are internal. `warm` is the
    `basis` of an earlier optimal solve with the same `a` and `senses`.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    m, n = a.shape if a.ndim == 2 else (0, c.size)
    if not np.all(np.isfinite(lb)):
        raise SimplexError("structural lower bounds must be finite")
    if np.any(lb > ub):
        return LpResult(INFEASIBLE, None, None, infeasibility=float(np.max(lb - ub)))
    if m == 0:
        x = np.where(c > 0, lb, np.where(c < 0, ub, lb))
        if not np.all(np.isfinite(x)):
            return LpResult(UNBOUNDED, None, None)
        return LpResult(OPTIMAL, x, float(c @ x))

    state = None
    if warm is not None:
        state = _Revised.warm(c, a, senses, b, lb, ub, max_iterations, warm)
    if state is None:
        state = _Revised.cold(c, a, senses, b, lb, ub, max_iterations)
    return state.run()


def _sense_signs(senses) -> np.ndarray:
    bad = [s for s in senses if s not in _SLACK_SIGN]
    if bad:
        raise ValueError(f"bad sense {bad[0]!r}")
    return np.array([_SLACK_SIGN[s] for s in senses])


class _Revised:
    def __init__(self, c, a, sign, b, lb, ub, art_rows, art_sign, max_iterations):
        m, n = a.shape
        self.m, self.n_struct = m, n
        self.a, self.b = a, b
        self.max_iterations = max_iterations
        self._c = c

        slack_rows = np.flatnonzero(sign)
        self.art_first = n + slack_rows.size
        cols = self.art_first + art_rows.size
        self.ncols = cols
        # Row and sign of each unit column (slacks, then artificials).
        self.unit_row = np.concatenate([slack_rows, art_rows])
        self.unit_sign = np.concatenate([sign[slack_rows], art_sign])
        # Entry triplets sorted by column; colptr delimits each column.
        col_idx, row_idx = np.nonzero(a.T)
        self.ent_row = np.concatenate([row_idx, self.unit_row])
        self.ent_col = np.concatenate([col_idx, np.arange(n, cols)])
        self.ent_val = np.concatenate([a[row_idx, col_idx], self.unit_sign])
        self.colptr = np.searchsorted(self.ent_col, np.arange(cols + 1))

        self.lb = np.zeros(cols)
        self.ub = np.full(cols, np.inf)
        self.lb[:n] = lb
        self.ub[:n] = ub
        self.values = np.zeros(cols)
        self.status = np.full(cols, _AT_LB, dtype=np.int8)
        self.basis = np.zeros(m, dtype=np.intp)
        self.iterations = 0
        self.refreshes = 0
        self.since_refresh = 0  # pivots and bound flips since the last factorization
        self.warm_started = False

    @classmethod
    def cold(cls, c, a, senses, b, lb, ub, max_iterations):
        """All structurals at their lower bound, a diagonal slack/artificial basis."""
        sign = _sense_signs(senses)
        # Each row starts on its slack when the all-at-lb start already
        # satisfies it and on an artificial otherwise, so the initial basis
        # is diagonal and feasible.
        resid = b - a @ lb
        use_slack = ((sign > 0) & (resid >= -_PIVOT_TOL)) | ((sign < 0) & (resid <= _PIVOT_TOL))
        art_rows = np.flatnonzero(~use_slack)
        art_sign = np.where(resid[art_rows] >= 0, 1.0, -1.0)
        self = cls(c, a, sign, b, lb, ub, art_rows, art_sign, max_iterations)

        m, n = a.shape
        slack_col = np.full(m, -1)
        slack_col[self.unit_row[: self.art_first - n]] = np.arange(n, self.art_first)
        self.basis = slack_col
        self.basis[art_rows] = np.arange(self.art_first, self.ncols)
        mag = np.abs(resid)
        self.values[:n] = lb
        self.values[self.basis] = np.where(use_slack & (mag <= _PIVOT_TOL), 0.0, mag)
        self.status[self.basis] = _BASIC
        self._set_binv(np.diag(self.unit_sign[self.basis - n]))
        self._reprice()
        return self

    @classmethod
    def warm(cls, c, a, senses, b, lb, ub, max_iterations, basis: Basis):
        """Start from `basis`; None when it is singular or not dual feasible."""
        sign = _sense_signs(senses)
        self = cls(c, a, sign, b, lb, ub, np.empty(0, dtype=np.intp), np.empty(0),
                   max_iterations)
        if basis.columns.shape != (self.m,) or basis.status.shape != (self.ncols,):
            raise ValueError("warm basis does not match the rows and columns")
        self.basis = np.asarray(basis.columns, dtype=np.intp).copy()
        self.status = np.where(basis.status == _AT_UB, _AT_UB, _AT_LB).astype(np.int8)
        self.status[self.basis] = _BASIC
        try:
            self._set_binv(self._factorize())
        except SimplexError:
            return None
        d = self._reduced_costs(self._phase2_cost())
        nonbasic = self.status != _BASIC
        boxed = np.isfinite(self.ub)
        if np.any(nonbasic & ~boxed & (d < -_DUAL_TOL)):
            return None
        # Boxed nonbasics rest where their reduced cost is dual feasible;
        # on a (near) zero reduced cost they keep the basis's bound.
        at_ub = nonbasic & boxed & ((d < -_DUAL_TOL) | ((self.status == _AT_UB) & (d <= _DUAL_TOL)))
        self.status[nonbasic] = np.where(at_ub[nonbasic], _AT_UB, _AT_LB)
        self.values = np.where(at_ub, self.ub, self.lb)
        self._basic_values()
        self.refreshes = 1
        self.warm_started = True
        self._reprice()
        return self

    # -- basic machinery ---------------------------------------------------

    def _set_binv(self, binv):
        self.binv = np.ascontiguousarray(binv)
        self._flat = self.binv.reshape(-1)  # a view: the sparse update writes through it

    def _reprice(self):
        """Pricing signs from the bounds: +1 at lb, -1 at ub, 0 basic or fixed.

        A nonbasic variable improves the objective when sign * d < 0, so one
        vector replaces the per-pivot status and bound masks. Bounds change
        only between phases; pivots keep the signs current.
        """
        self.movable = self.ub - self.lb > _PIVOT_TOL
        self.price = np.where(self.status == _AT_UB, -1.0, 1.0)
        self.price[(self.status == _BASIC) | ~self.movable] = 0.0

    def _factorize(self):
        """B^-1 from the unit columns by hand and one dense k x k inverse."""
        m, n = self.m, self.n_struct
        unit = self.basis >= n
        pos_u, pos_s = unit.nonzero()[0], (~unit).nonzero()[0]
        urow = self.unit_row[self.basis[pos_u] - n]
        usign = self.unit_sign[self.basis[pos_u] - n]
        covered = np.zeros(m, dtype=bool)
        covered[urow] = True
        rest = (~covered).nonzero()[0]
        if rest.size != pos_s.size:
            raise SimplexError("singular basis")  # two unit columns on one row
        binv = np.zeros((m, m))
        binv[pos_u, urow] = usign
        if pos_s.size:
            scols = self.basis[pos_s]
            try:
                inv = np.linalg.inv(self.a[rest[:, None], scols])
            except np.linalg.LinAlgError as exc:
                raise SimplexError("singular basis") from exc
            if not np.all(np.isfinite(inv)):
                raise SimplexError("singular basis")
            binv[pos_s[:, None], rest] = inv
            # Covered rows: -sign * a[row, S] @ inv, only where a[row, S] != 0.
            coupling = self.a[urow[:, None], scols]
            hit = coupling.any(axis=1).nonzero()[0]
            if hit.size:
                binv[pos_u[hit, None], rest] = -(usign[hit, None] * coupling[hit]) @ inv
        return binv

    def _basic_values(self):
        nonbasic = self.values.copy()
        nonbasic[self.basis] = 0.0
        used = np.bincount(self.ent_row, weights=self.ent_val * nonbasic[self.ent_col],
                           minlength=self.m)
        self.values[self.basis] = self.binv @ (self.b - used)

    def _refresh(self):
        """Refactorize the basis: recompute B^-1 and the basic values."""
        self._set_binv(self._factorize())
        self._basic_values()
        self.refreshes += 1
        self.since_refresh = 0

    def _row(self, v):
        """v @ ext over the sparse entries: one tableau row when v is a row of B^-1."""
        return np.bincount(self.ent_col, weights=v[self.ent_row] * self.ent_val,
                           minlength=self.ncols)

    def _column(self, q):
        """B^-1 a_q, gathered from the rows a_q touches."""
        lo, hi = self.colptr[q], self.colptr[q + 1]
        return self.binv[:, self.ent_row[lo:hi]] @ self.ent_val[lo:hi]

    def _reduced_costs(self, cost):
        return cost - self._row(cost[self.basis] @ self.binv)

    def _phase2_cost(self):
        cost = np.zeros(self.ncols)
        cost[: self.n_struct] = self._c
        return cost

    def _entering(self, d, bland):
        eligible = (self.price * d < -_DUAL_TOL).nonzero()[0]
        if eligible.size == 0:
            return -1
        if bland:
            return int(eligible[0])
        return int(eligible[np.abs(d[eligible]).argmax()])

    def _ratio_test(self, q, col):
        """Return (step, leaving_row, leaving_to_ub). leaving_row -1 = bound flip.

        `col` is B^-1 a_q times the direction q moves in.
        """
        basic_vals = self.values[self.basis]

        steps = np.full(self.m, np.inf)
        # Basics moving down stop at their lower bound, those moving up at
        # their upper bound; rows the column barely touches never block.
        np.divide(basic_vals - self.lb[self.basis], col, out=steps, where=col > _PIVOT_TOL)
        np.divide(self.ub[self.basis] - basic_vals, -col, out=steps, where=col < -_PIVOT_TOL)
        steps[steps < 0] = 0.0

        limit = self.ub[q] - self.lb[q]
        best = steps.min()
        if best >= limit:
            return limit, -1, False
        ties = (steps <= best + _STEP_TOL).nonzero()[0]
        # Deterministic (and Bland-compatible) tie-break: lowest basic index.
        row = int(ties[self.basis[ties].argmin()])
        return float(best), row, bool(col[row] < 0)

    def _rest(self, j, at_ub):
        """Make j nonbasic at its upper (at_ub) or lower bound."""
        self.status[j] = _AT_UB if at_ub else _AT_LB
        self.values[j] = self.ub[j] if at_ub else self.lb[j]
        self.price[j] = (-1.0 if at_ub else 1.0) if self.movable[j] else 0.0

    def _pivot(self, q, direction, step, row, leaves_to_ub, col):
        """Move q by step along col = B^-1 a_q; row -1 is a bound flip."""
        self.since_refresh += 1
        if step > 0:
            self.values[self.basis] -= direction * step * col
        if row < 0:
            # Bound flip: q moves to its other bound, basis unchanged.
            self._rest(q, direction > 0)
            return
        leaving = self.basis[row]
        self.values[q] = (self.lb[q] if self.status[q] == _AT_LB else self.ub[q]) + direction * step
        self._rest(leaving, leaves_to_ub)
        self.status[q] = _BASIC
        self.price[q] = 0.0
        self.basis[row] = q

        pivot = col[row]
        if abs(pivot) < _PIVOT_TOL:
            raise SimplexError("pivot element vanished")
        rho = self.binv[row] / pivot
        col = col.copy()
        col[row] = 0.0
        # Rank-1 update on the nonzero rows x nonzero columns only, through
        # flat indices; the rest of B^-1 is untouched.
        rows = col.nonzero()[0]
        nz = rho.nonzero()[0]
        self._flat[(rows * self.m)[:, None] + nz] -= np.multiply.outer(col[rows], rho[nz])
        self.binv[row] = rho

    def _minimize(self, cost, phase1_cap=None):
        """Run primal pivots until optimal for `cost`. Returns objective value.

        Every finite return comes on a fresh factorization, so the caller
        sees an exact B^-1 and basic values.
        """
        d = self._reduced_costs(cost)
        stall = 0
        bland = False
        art = slice(self.art_first, self.ncols)
        while True:
            if self.iterations >= self.max_iterations:
                raise SimplexError("iteration limit exceeded")
            q = self._entering(d, bland)
            if q < 0:
                if self.since_refresh == 0:
                    return float(cost @ self.values)
                # Confirm with freshly computed reduced costs before declaring.
                self._refresh()
                d = self._reduced_costs(cost)
                q = self._entering(d, bland=False)
                if q < 0:
                    return float(cost @ self.values)
            direction = 1.0 if self.status[q] == _AT_LB else -1.0
            col = self._column(q)
            step, row, to_ub = self._ratio_test(q, col * direction)
            if not math.isfinite(step):
                return -np.inf
            if row >= 0:
                alpha = self._row(self.binv[row])  # the tableau row before the pivot
                d = d - d[q] / alpha[q] * alpha
            self._pivot(q, direction, step, row, to_ub, col)
            self.iterations += 1
            if step <= _STEP_TOL:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            if self.since_refresh >= _REFRESH_EVERY:
                self._refresh()
                d = self._reduced_costs(cost)
            if phase1_cap is not None:
                # Early exit once the artificial mass is gone; verify against
                # a fresh recompute so drift cannot fake feasibility.
                if float(self.values[art].sum()) <= phase1_cap:
                    self._refresh()
                    if float(self.values[art].sum()) <= phase1_cap:
                        return float(self.values[art].sum())
                    d = self._reduced_costs(cost)

    def _leaving(self, bland):
        """Row of the basic variable with the largest bound violation, -1 if none.

        Returns (row, below_lb, violation). Under Bland's rule the violated
        row with the lowest basic index leaves instead.
        """
        xb = self.values[self.basis]
        below = self.lb[self.basis] - xb
        viol = np.maximum(below, xb - self.ub[self.basis])
        rows = (viol > _FEAS_TOL).nonzero()[0]
        if rows.size == 0:
            return -1, False, 0.0
        row = int(rows[self.basis[rows].argmin()] if bland else rows[viol[rows].argmax()])
        return row, bool(below[row] > 0), float(viol[row])

    def _dual_entering(self, alpha, d, below, bland):
        """Dual ratio test on tableau row `alpha`; -1 when no column can enter.

        The leaving variable must move up (below its lb) or down; a nonbasic
        column qualifies when moving it off its bound does that. The smallest
        ratio |d_j| / |alpha_j| keeps every reduced cost dual feasible; ties
        go to the largest |alpha_j| (lowest index under Bland's rule).
        """
        toward = 1.0 if below else -1.0
        cand = (toward * self.price * alpha < -_PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            return -1
        ratio = np.maximum(self.price[cand] * d[cand], 0.0) / np.abs(alpha[cand])
        ties = cand[ratio <= ratio.min() + _STEP_TOL]
        if bland:
            return int(ties[0])
        return int(ties[np.abs(alpha[ties]).argmax()])

    def _dual(self, cost):
        """Bounded dual simplex to a primal feasible basis.

        Returns 0.0 when feasible, else the violation of a row no column can
        repair (the LP is infeasible).
        """
        d = self._reduced_costs(cost)
        stall = 0
        bland = False
        while True:
            if self.iterations >= self.max_iterations:
                raise SimplexError("iteration limit exceeded")
            row, below, violation = self._leaving(bland)
            q = -1
            if row >= 0:
                alpha = self._row(self.binv[row])
                q = self._dual_entering(alpha, d, below, bland)
            if q < 0:
                # Feasible, or a row no column can repair: either verdict
                # stands only on a fresh factorization.
                if self.since_refresh == 0:
                    return violation
                self._refresh()
                d = self._reduced_costs(cost)
                continue
            col = self._column(q)
            leaving = self.basis[row]
            bound = self.lb[leaving] if below else self.ub[leaving]
            direction = self.price[q]
            step = abs((self.values[leaving] - bound) / col[row])
            theta = d[q] / alpha[q]
            d = d - theta * alpha
            self._pivot(q, direction, step, row, not below, col)
            self.iterations += 1
            if abs(theta) <= _STEP_TOL:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            if self.since_refresh >= _REFRESH_EVERY:
                self._refresh()
                d = self._reduced_costs(cost)

    # -- driver --------------------------------------------------------------

    def run(self) -> LpResult:
        art = slice(self.art_first, self.ncols)
        if self.warm_started:
            violation = self._dual(self._phase2_cost())
            if violation > 0:
                return self._result(INFEASIBLE, infeasibility=violation)
        elif self.art_first < self.ncols:
            cost1 = np.zeros(self.ncols)
            cost1[art] = 1.0
            if self._minimize(cost1, phase1_cap=1e-9) == -np.inf:
                # Only numerical trouble gets here (the artificial mass is
                # bounded below); that exit skips the closing refresh.
                self._refresh()
            residual = float(self.values[art].sum())
            if residual > 1e-7:
                return self._result(INFEASIBLE, infeasibility=residual)
            self._drive_out_artificials()
            # Artificials are pinned: they can never re-enter.
            self.ub[art] = 0.0
            self.values[art] = np.where(self.status[art] == _BASIC, self.values[art], 0.0)
            self._reprice()

        value = self._minimize(self._phase2_cost())
        if value == -np.inf:
            return self._result(UNBOUNDED)
        x = self.values[: self.n_struct].copy()
        x = np.clip(x, self.lb[: self.n_struct], self.ub[: self.n_struct])
        basis = None
        if not np.any(self.status[art] == _BASIC):
            basis = Basis(self.basis.copy(), self.status[: self.art_first].copy())
        return self._result(OPTIMAL, x=x, objective=float(self._c @ x), basis=basis)

    def _result(self, status, x=None, objective=None, infeasibility=0.0, basis=None) -> LpResult:
        return LpResult(status, x, objective, infeasibility=infeasibility,
                        iterations=self.iterations, refreshes=self.refreshes,
                        basis=basis, warm_started=self.warm_started)

    def _drive_out_artificials(self):
        for row in range(self.m):
            if self.basis[row] < self.art_first:
                continue
            # Degenerate pivot onto the first usable non-artificial column.
            alpha = self._row(self.binv[row])[: self.art_first]
            candidates = np.nonzero(np.abs(alpha) > 1e-7)[0]
            free = candidates[self.status[candidates] != _BASIC]
            # A row with no candidate is linearly dependent; the artificial
            # stays basic at zero with bounds pinned, which is harmless.
            if free.size:
                q = int(free[0])
                direction = 1.0 if self.status[q] == _AT_LB else -1.0
                self._pivot(q, direction, 0.0, row, False, self._column(q))
                self.iterations += 1
