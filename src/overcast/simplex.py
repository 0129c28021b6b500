"""Bounded-variable two-phase simplex on a slot-free tableau.

Two-phase primal simplex on an explicit tableau. Every variable carries its
own [lb, ub] interval (ub may be +inf), rows are '<=', '>=' or '==' with
arbitrary right-hand sides, and nonbasic variables rest at one of their
bounds. Phase 1 seeds slack variables where the all-at-lower-bound start is
already row-feasible and artificial variables elsewhere, then minimizes the
artificial mass; phase 2 minimizes the real objective with artificials
pinned at zero.

The tableau has one column per structural variable, one per inequality
slack and one per artificial actually seeded, and nothing else. A pivot
applies its rank-1 update only to the rows where the pivot column is
nonzero and the columns where the pivot row is nonzero: every skipped entry
would have had an exact zero subtracted, so the stored values are those of
a full dense update (up to the sign of a zero).

Pricing is Dantzig (most violating reduced cost, lowest index on ties) with
a switch to Bland's rule after a run of degenerate pivots, so the solver
cannot cycle and identical inputs pivot identically. Reduced costs are
updated incrementally and recomputed from the basis at a fixed cadence to
bound drift; optimality is only declared after a full recompute confirms it.
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
_STEP_TOL = 1e-12
_STALL_LIMIT = 60
_REFRESH_EVERY = 400
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0, "==": 0.0}  # '==' rows get no slack


class SimplexError(RuntimeError):
    """Internal solver failure (iteration cap or numerical breakdown)."""


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None  # structural variable values
    objective: float | None
    infeasibility: float = 0.0  # phase-1 residual when infeasible
    iterations: int = 0
    refreshes: int = 0  # basis refactorizations


def solve(
    c,
    a,
    senses,
    b,
    lb,
    ub,
    max_iterations: int = 200_000,
) -> LpResult:
    """Minimize c.x subject to a x (senses) b and lb <= x <= ub.

    `a` is a dense (m, n) array, `senses` a sequence of '<=', '>=', '=='.
    Returns structural values only; slacks are internal.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    m, n = a.shape if a.ndim == 2 else (0, c.size)
    if m == 0:
        x = np.where(c > 0, lb, np.where(c < 0, ub, lb))
        if not np.all(np.isfinite(x)):
            return LpResult(UNBOUNDED, None, None)
        return LpResult(OPTIMAL, x, float(c @ x))

    state = _Tableau(c, a, list(senses), b, lb, ub, max_iterations)
    return state.run()


class _Tableau:
    def __init__(self, c, a, senses, b, lb, ub, max_iterations):
        m, n = a.shape
        self.m, self.n_struct = m, n
        self.max_iterations = max_iterations
        self._c = np.asarray(c, dtype=float)

        # Start with structural variables at their lower bound (fixed vars sit
        # at their single value); each row starts on its slack when that start
        # already satisfies it and on an artificial otherwise, so the initial
        # basis is diagonal and feasible.
        start = lb.copy()
        if not np.all(np.isfinite(start)):
            raise SimplexError("structural lower bounds must be finite")
        resid = b - a @ start
        bad = [s for s in senses if s not in _SLACK_SIGN]
        if bad:
            raise ValueError(f"bad sense {bad[0]!r}")
        sign = np.array([_SLACK_SIGN[s] for s in senses])
        use_slack = ((sign > 0) & (resid >= -_PIVOT_TOL)) | ((sign < 0) & (resid <= _PIVOT_TOL))

        slack_rows = np.flatnonzero(sign)
        art_rows = np.flatnonzero(~use_slack)
        self.art_first = n + slack_rows.size
        cols = self.art_first + art_rows.size
        slack_col = np.full(m, -1)
        slack_col[slack_rows] = np.arange(n, self.art_first)
        art_cols = np.arange(self.art_first, cols)

        ext = np.zeros((m, cols))
        ext[:, :n] = a
        ext[slack_rows, slack_col[slack_rows]] = sign[slack_rows]
        ext[art_rows, art_cols] = np.where(resid[art_rows] >= 0, 1.0, -1.0)
        self.lb = np.zeros(cols)
        self.ub = np.full(cols, np.inf)
        self.lb[:n] = lb
        self.ub[:n] = ub

        basis = slack_col.copy()
        basis[art_rows] = art_cols
        mag = np.abs(resid)
        self.values = np.zeros(cols)
        self.values[:n] = start
        self.values[basis] = np.where(use_slack & (mag <= _PIVOT_TOL), 0.0, mag)

        self.ext = ext
        self.b = b.astype(float)
        self.basis = basis
        self.status = np.full(cols, _AT_LB, dtype=np.int8)
        self.status[basis] = _BASIC
        self.ncols = cols
        self._reprice()

        # Tableau = B^-1 @ ext; initial basis is diagonal +-1.
        diag = ext[np.arange(m), basis]
        self._set_tableau(ext / diag[:, None])
        self.iterations = 0
        self.refreshes = 0

    # -- basic machinery ---------------------------------------------------

    def _set_tableau(self, t):
        self.t = np.ascontiguousarray(t)
        self._flat = self.t.reshape(-1)  # a view: the sparse update writes through it

    def _reprice(self):
        """Pricing signs from the bounds: +1 at lb, -1 at ub, 0 basic or fixed.

        A nonbasic variable improves the objective when sign * d < 0, so one
        vector replaces the per-pivot status and bound masks. Bounds change
        only between phases; pivots keep the signs current.
        """
        self.movable = self.ub - self.lb > _PIVOT_TOL
        self.price = np.where(self.status == _AT_UB, -1.0, 1.0)
        self.price[(self.status == _BASIC) | ~self.movable] = 0.0

    def _refresh(self):
        """Refactorize the basis: recompute tableau and basic values from ext."""
        nb_cols = np.nonzero(self.status != _BASIC)[0]
        rhs = self.b - self.ext[:, nb_cols] @ self.values[nb_cols]
        bmat = self.ext[:, self.basis]
        try:
            self._set_tableau(np.linalg.solve(bmat, self.ext))
            self.values[self.basis] = np.linalg.solve(bmat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SimplexError("singular basis") from exc
        self.refreshes += 1

    def _reduced_costs(self, cost):
        return cost - cost[self.basis] @ self.t

    def _entering(self, d, bland):
        eligible = (self.price * d < -_DUAL_TOL).nonzero()[0]
        if eligible.size == 0:
            return -1
        if bland:
            return int(eligible[0])
        return int(eligible[np.abs(d[eligible]).argmax()])

    def _ratio_test(self, q, direction):
        """Return (step, leaving_row, leaving_to_ub). leaving_row -1 = bound flip."""
        col = self.t[:, q] * direction
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

    def _pivot(self, q, direction, step, row, leaves_to_ub):
        """Move q by step; returns the normalized pivot row, None on a bound flip."""
        col = self.t[:, q].copy()
        if step > 0:
            self.values[self.basis] -= direction * step * col
        if row < 0:
            # Bound flip: q moves to its other bound, basis unchanged.
            self._rest(q, direction > 0)
            return None
        leaving = self.basis[row]
        self.values[q] = (self.lb[q] if self.status[q] == _AT_LB else self.ub[q]) + direction * step
        self._rest(leaving, leaves_to_ub)
        self.status[q] = _BASIC
        self.price[q] = 0.0
        self.basis[row] = q

        pivot = self.t[row, q]
        if abs(pivot) < _PIVOT_TOL:
            raise SimplexError("pivot element vanished")
        prow = self.t[row] / pivot
        col[row] = 0.0
        # Rank-1 update on the nonzero rows x nonzero columns only, through
        # flat indices; the rest of the tableau is untouched.
        rows = col.nonzero()[0]
        nz = prow.nonzero()[0]
        self._flat[(rows * self.ncols)[:, None] + nz] -= np.multiply.outer(col[rows], prow[nz])
        self.t[row] = prow
        return prow

    def _minimize(self, cost, phase1_cap=None):
        """Run pivots until optimal for `cost`. Returns objective value.

        Every finite return comes straight after a refresh, so the caller
        sees a freshly factorized tableau and basic values.
        """
        d = self._reduced_costs(cost)
        stall = 0
        bland = False
        since_refresh = 0
        art = slice(self.art_first, self.ncols)
        while True:
            if self.iterations >= self.max_iterations:
                raise SimplexError("iteration limit exceeded")
            q = self._entering(d, bland)
            if q < 0:
                # Confirm with freshly computed reduced costs before declaring.
                self._refresh()
                d = self._reduced_costs(cost)
                since_refresh = 0
                q = self._entering(d, bland=False)
                if q < 0:
                    return float(cost @ self.values)
            direction = 1.0 if self.status[q] == _AT_LB else -1.0
            step, row, to_ub = self._ratio_test(q, direction)
            if not math.isfinite(step):
                return -np.inf
            prow = self._pivot(q, direction, step, row, to_ub)
            if prow is not None:
                # Incremental reduced-cost update keeps d consistent with the new basis.
                d = d - d[q] * prow
            self.iterations += 1
            since_refresh += 1
            if step <= _STEP_TOL:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            if since_refresh >= _REFRESH_EVERY:
                self._refresh()
                d = self._reduced_costs(cost)
                since_refresh = 0
            if phase1_cap is not None:
                # Early exit once the artificial mass is gone; verify against
                # a fresh recompute so drift cannot fake feasibility.
                if float(self.values[art].sum()) <= phase1_cap:
                    self._refresh()
                    if float(self.values[art].sum()) <= phase1_cap:
                        return float(self.values[art].sum())
                    d = self._reduced_costs(cost)
                    since_refresh = 0

    # -- driver --------------------------------------------------------------

    def run(self) -> LpResult:
        art = slice(self.art_first, self.ncols)
        if self.art_first < self.ncols:
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

        cost2 = np.zeros(self.ncols)
        cost2[: self.n_struct] = self._c
        value = self._minimize(cost2)
        if value == -np.inf:
            return self._result(UNBOUNDED)
        x = self.values[: self.n_struct].copy()
        x = np.clip(x, self.lb[: self.n_struct], self.ub[: self.n_struct])
        return self._result(OPTIMAL, x=x, objective=float(self._c @ x))

    def _result(self, status, x=None, objective=None, infeasibility=0.0) -> LpResult:
        return LpResult(status, x, objective, infeasibility=infeasibility,
                        iterations=self.iterations, refreshes=self.refreshes)

    def _drive_out_artificials(self):
        for row in range(self.m):
            if self.basis[row] < self.art_first:
                continue
            # Degenerate pivot onto the first usable non-artificial column.
            candidates = np.nonzero(np.abs(self.t[row, : self.art_first]) > 1e-7)[0]
            free = candidates[self.status[candidates] != _BASIC]
            # A row with no candidate is linearly dependent; the artificial
            # stays basic at zero with bounds pinned, which is harmless.
            if free.size:
                q = int(free[0])
                self._pivot(q, 1.0 if self.status[q] == _AT_LB else -1.0, 0.0, row, False)
                self.iterations += 1
