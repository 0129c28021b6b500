"""Bounded dual simplex on an explicit basis inverse.

Every structural variable carries a finite [lb, ub] interval, rows are '<=',
'>=' or '==' with arbitrary right-hand sides, and nonbasic variables rest at
one of their bounds. Each row gets one slack column, so the extended matrix
always has n + m columns: a_i x + s_i = b_i for '<=' and '==' rows,
a_i x - s_i = b_i for '>=' rows, with s_i >= 0, and s_i fixed at 0 on '=='
rows. The slacks of inequality rows are the only unbounded columns.

A solve starts from a dual-feasible basis: the `basis` of an earlier solve
of the same rows (`warm=`, such as a branch-and-bound parent; the bounds and
costs may differ), or else the all-slack basis. Both take one start path:
the basis is factorized, its reduced costs are computed once, and the dual
simplex begins from them. Each boxed nonbasic variable rests at the bound
its reduced cost prefers, so only the nonbasic slack of an inequality row
can be dual infeasible. A warm basis that is singular, or that leaves such a
slack with a negative reduced cost, is dropped for the slack basis, which is
neither: its inverse is diag(+-1), and no slack is nonbasic. An LP with no
rows has an empty basis and takes the same path. The bounded dual simplex
then restores primal feasibility: a violated basic variable leaves, and the
dual ratio test picks the entering column so that every reduced cost stays
dual feasible. It ends at the optimum, or at a row that no column can
repair, which makes the LP infeasible. There is no cost shift and no primal
phase; an end that is not dual feasible is a SimplexError.

The constraint matrix is held as sparse columns (a `Layout`, which a model
builds once and every solve of its rows shares); slack columns stay
implicit. The solver keeps the m x m basis inverse explicitly, stored
transposed and C-contiguous: row r of B^-1 is column r of `binvt`, and the
column of B^-1 for row i is the contiguous row i. A pivot gathers B^-1 a_q
from the rows of `binvt` that a_q touches, reads the pivot row of the
tableau as one row of B^-1 times the matrix (a bincount over the nonzeros),
and applies its rank-1 update only to the rows of `binvt` where the pivot
row of B^-1 is nonzero; the pivot row is far sparser than B^-1 a_q.

Refactorization uses the slacks: a basic slack is a +-unit vector, so B is
block triangular once the rows are split into those a basic slack covers and
the rest. Only the k x k block of basic structural columns on the uncovered
rows, gathered from their sparse columns, is inverted densely; the rest of
B^-1 follows by hand, written transposed, and the basic values come from
the same inverse.

Pricing is dual steepest edge (Forrest & Goldfarb, Math. Prog. 57, 1992):
the leaving row maximizes violation^2 / beta_r (lowest row on ties), where
beta_r = ||e_r^T B^-1||^2 is the squared norm of column r of `binvt`. The
norms are exact, not a recurrence: they are ones at the slack basis,
recomputed at every factorization, and each pivot subtracts the squares of
the rows of `binvt` it rewrites and adds their new squares. The ratio test
takes the largest |alpha| among the tied ratios. After a run of degenerate
pivots the solver switches to Bland's rule (lowest basic index leaves,
lowest column enters), so it cannot cycle and identical inputs pivot
identically. Reduced costs are updated incrementally and recomputed from a
fresh factorization at a fixed cadence to bound drift; optimality and
infeasibility are only declared on a fresh factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_AT_LB, _AT_UB, _BASIC = 0, 1, 2

_PIVOT_TOL = 1e-9
_DUAL_TOL = 1e-9
_FEAS_TOL = 1e-9
_STEP_TOL = 1e-12
_STALL_LIMIT = 60
_REFRESH_EVERY = 400
_MAX_ITERATIONS = 200_000
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0, "==": 1.0}  # '==' slacks are fixed at 0


class SimplexError(RuntimeError):
    """Internal solver failure (iteration cap, numerical breakdown, or a
    dual infeasible end)."""


@dataclass(frozen=True)
class Basis:
    """A basis over the structural and slack columns, for warm starts."""

    columns: np.ndarray  # the basic column of each basis position
    status: np.ndarray  # _AT_LB / _AT_UB / _BASIC per structural and slack column


class Layout:
    """The constraint matrix A (m x n) as sparse columns.

    Entries run by column, then by row (the order of `np.nonzero(a.T)`),
    zero coefficients dropped; `colptr` delimits each column. A model builds
    its layout once, and every solve of its rows shares it.
    """

    def __init__(self, shape, rows, cols, vals):
        vals = np.asarray(vals, dtype=float)
        keep = vals != 0
        rows = np.asarray(rows, dtype=np.intp)[keep]
        cols = np.asarray(cols, dtype=np.intp)[keep]
        vals = vals[keep]
        order = np.lexsort((rows, cols))
        self.m, self.n = shape
        self.rows, self.cols, self.vals = rows[order], cols[order], vals[order]
        self.colptr = np.searchsorted(self.cols, np.arange(self.n + 1))

    @classmethod
    def from_dense(cls, a):
        cols, rows = np.nonzero(a.T)
        return cls(a.shape, rows, cols, a[rows, cols])


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None  # structural variable values
    objective: float | None
    infeasibility: float = 0.0  # the bound violation the dual simplex cannot repair
    iterations: int = 0
    refreshes: int = 0  # basis refactorizations
    basis: Basis | None = None  # the optimal basis
    # ran from the caller's basis (False when it was singular or dual infeasible)
    warm_started: bool = False


def solve(c, a: Layout, senses, b, lb, ub, warm: Basis | None = None) -> LpResult:
    """Minimize c.x subject to a x (senses) b and lb <= x <= ub.

    `senses` is a sequence of '<=', '>=', '=='; every lb and ub must be
    finite. Returns structural values only; slacks are internal. `warm` is
    the `basis` of an earlier optimal solve with the same `a` and `senses`;
    the solve starts from the slack basis when that basis is singular or
    dual infeasible.
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValueError("structural bounds must be finite")
    if np.any(lb > ub):
        return LpResult(INFEASIBLE, None, None, infeasibility=float(np.max(lb - ub)))
    return _Revised(c, a, senses, b, lb, ub, warm).run()


def _sense_signs(senses) -> np.ndarray:
    bad = [s for s in senses if s not in _SLACK_SIGN]
    if bad:
        raise ValueError(f"bad sense {bad[0]!r}")
    return np.array([_SLACK_SIGN[s] for s in senses])


class _Revised:
    def __init__(self, c, a: Layout, senses, b, lb, ub, warm: Basis | None = None):
        self.layout = a
        m, n = a.m, a.n
        self.m, self.n_struct = m, n
        self.b = b
        self.ncols = cols = n + m
        # Slack of row i is column n + i, the unit column sign_i e_i:
        # a_i x + sign_i s_i = b_i.
        self.sign = _sense_signs(senses)

        self.lb = np.zeros(cols)
        self.ub = np.full(cols, np.inf)
        self.lb[:n] = lb
        self.ub[:n] = ub
        self.ub[n:][np.asarray(senses) == "=="] = 0.0
        self.cost = np.zeros(cols)
        self.cost[:n] = c
        self.iterations = 0
        self.refreshes = 0
        self.since_refresh = 0  # pivots since the last factorization

        d = None if warm is None else self._start(warm)
        self.warm_started = d is not None
        if d is None:
            d = self._start(Basis(np.arange(n, cols), np.zeros(cols, dtype=np.int8)))
        self.d = d  # the start basis's reduced costs, where _dual begins

        nonbasic = self.status != _BASIC
        # Boxed nonbasics rest where their reduced cost is dual feasible;
        # on a (near) zero reduced cost they keep their bound.
        at_ub = nonbasic & np.isfinite(self.ub) & (
            (d < -_DUAL_TOL) | ((self.status == _AT_UB) & (d <= _DUAL_TOL)))
        self.status[nonbasic] = np.where(at_ub[nonbasic], _AT_UB, _AT_LB)
        self.values = np.where(at_ub, self.ub, self.lb)
        self._basic_values()
        # Pricing signs: +1 at lb, -1 at ub, 0 basic or fixed. A nonbasic
        # variable is dual feasible when price * d >= 0; pivots keep the
        # signs current.
        self.movable = self.ub - self.lb > _PIVOT_TOL
        self.price = np.where(self.status == _AT_UB, -1.0, 1.0)
        self.price[(self.status == _BASIC) | ~self.movable] = 0.0

    def _start(self, basis: Basis):
        """Factorize `basis` and return its reduced costs; None when it is
        singular or leaves an inequality row's slack nonbasic with a negative
        reduced cost (it has no upper bound to rest at instead). The slack
        basis is never either."""
        if basis.columns.shape != (self.m,) or basis.status.shape != (self.ncols,):
            raise ValueError("warm basis does not match the rows and columns")
        self.basis = np.asarray(basis.columns, dtype=np.intp).copy()
        self.status = np.where(basis.status == _AT_UB, _AT_UB, _AT_LB).astype(np.int8)
        self.status[self.basis] = _BASIC
        try:
            self.binvt = self._factorize()
        except SimplexError:
            return None
        self.beta = np.einsum("ij,ij->j", self.binvt, self.binvt)
        self.refreshes += 1
        d = self._reduced_costs()
        if np.any((self.status != _BASIC) & np.isinf(self.ub) & (d < -_DUAL_TOL)):
            return None
        return d

    # -- basic machinery ---------------------------------------------------

    def _factorize(self):
        """B^-1, transposed, from the basic slacks by hand and one dense k x k inverse."""
        m, n, lay = self.m, self.n_struct, self.layout
        unit = self.basis >= n
        pos_u, pos_s = unit.nonzero()[0], (~unit).nonzero()[0]
        urow = self.basis[pos_u] - n
        usign = self.sign[urow]
        covered = np.zeros(m, dtype=bool)
        covered[urow] = True
        rest = (~covered).nonzero()[0]
        if rest.size != pos_s.size:
            raise SimplexError("singular basis")  # a slack basic twice
        binvt = np.zeros((m, m))
        binvt[urow, pos_u] = usign
        if pos_s.size:
            # a[:, S].T for the basic structural columns S, from their entries.
            at = np.full(n, -1)
            at[self.basis[pos_s]] = np.arange(pos_s.size)
            col = at[lay.cols]
            mine = col >= 0
            a_st = np.zeros((pos_s.size, m))
            a_st[col[mine], lay.rows[mine]] = lay.vals[mine]
            try:
                inv_t = np.linalg.inv(a_st[:, rest])
            except np.linalg.LinAlgError as exc:
                raise SimplexError("singular basis") from exc
            if not np.all(np.isfinite(inv_t)):
                raise SimplexError("singular basis")
            binvt[rest[:, None], pos_s] = inv_t
            # Covered rows: -sign * a[row, S] @ inv, only where a[row, S] != 0.
            coupling_t = a_st[:, urow]
            hit = coupling_t.any(axis=0).nonzero()[0]
            if hit.size:
                binvt[rest[:, None], pos_u[hit]] = -(inv_t @ (coupling_t[:, hit] * usign[hit]))
        return binvt

    def _basic_values(self):
        lay, n = self.layout, self.n_struct
        nonbasic = self.values.copy()
        nonbasic[self.basis] = 0.0
        used = np.bincount(lay.rows, weights=lay.vals * nonbasic[lay.cols], minlength=self.m)
        used = used + self.sign * nonbasic[n:]
        self.values[self.basis] = (self.b - used) @ self.binvt

    def _refresh(self):
        """Refactorize the basis: recompute B^-1, its row norms and the basic values."""
        self.binvt = self._factorize()
        self.beta = np.einsum("ij,ij->j", self.binvt, self.binvt)
        self._basic_values()
        self.refreshes += 1
        self.since_refresh = 0

    def _row(self, v):
        """v @ [A | slacks] over the sparse entries: one tableau row when v is a row of B^-1."""
        lay = self.layout
        struct = np.bincount(lay.cols, weights=v[lay.rows] * lay.vals, minlength=self.n_struct)
        return np.concatenate([struct, v * self.sign])

    def _column(self, q):
        """B^-1 a_q, from the rows of binvt that a_q touches."""
        n, lay = self.n_struct, self.layout
        if q >= n:
            return self.binvt[q - n] * self.sign[q - n]
        lo, hi = lay.colptr[q], lay.colptr[q + 1]
        return lay.vals[lo:hi] @ self.binvt[lay.rows[lo:hi]]

    def _reduced_costs(self):
        return self.cost - self._row(self.binvt @ self.cost[self.basis])

    def _rest(self, j, at_ub):
        """Make j nonbasic at its upper (at_ub) or lower bound."""
        self.status[j] = _AT_UB if at_ub else _AT_LB
        self.values[j] = self.ub[j] if at_ub else self.lb[j]
        self.price[j] = (-1.0 if at_ub else 1.0) if self.movable[j] else 0.0

    def _pivot(self, q, direction, step, row, leaves_to_ub, col):
        """Move q by step along col = B^-1 a_q into the basis at `row`."""
        self.since_refresh += 1
        if step > 0:
            self.values[self.basis] -= direction * step * col
        leaving = self.basis[row]
        self.values[q] = (self.lb[q] if self.status[q] == _AT_LB else self.ub[q]) + direction * step
        self._rest(leaving, leaves_to_ub)
        self.status[q] = _BASIC
        self.price[q] = 0.0
        self.basis[row] = q

        pivot = col[row]
        if abs(pivot) < _PIVOT_TOL:
            raise SimplexError("pivot element vanished")
        rho = self.binvt[:, row] / pivot
        # Rank-1 update on the columns of B^-1 where its pivot row is
        # nonzero, each a contiguous row of binvt; the pivot row of B^-1
        # (column `row` of binvt) is then replaced by rho as a whole. Only
        # those rows change, so beta loses their old squares and gains
        # their new ones.
        nz = rho.nonzero()[0]
        block = self.binvt[nz]
        self.beta -= np.einsum("ij,ij->j", block, block)
        block -= np.multiply.outer(rho[nz], col)
        self.beta += np.einsum("ij,ij->j", block, block)
        self.binvt[nz] = block
        self.binvt[:, row] = rho
        self.beta[row] = np.einsum("i,i->", rho, rho)

    def _leaving(self, bland):
        """Dual steepest-edge row: the largest violation^2 / beta, -1 if none.

        Row r of B^-1 is the dual edge that row r leaving moves along, and
        beta_r = ||e_r^T B^-1||^2 is its squared length, so each violation
        is scaled by its edge's length. Returns (row, below_lb, violation).
        Under Bland's rule the violated row with the lowest basic index
        leaves instead.
        """
        xb = self.values[self.basis]
        below = self.lb[self.basis] - xb
        viol = np.maximum(below, xb - self.ub[self.basis])
        rows = (viol > _FEAS_TOL).nonzero()[0]
        if rows.size == 0:
            return -1, False, 0.0
        if bland:
            row = int(rows[self.basis[rows].argmin()])
        else:
            row = int(rows[(viol[rows] ** 2 / self.beta[rows]).argmax()])
        return row, bool(below[row] > 0), float(viol[row])

    def _dual_entering(self, alpha, d, below, bland):
        """Dual ratio test on tableau row `alpha`; -1 when no column can enter.

        The leaving variable must move up (below its lb) or down; a nonbasic
        column qualifies when moving it off its bound does that. The smallest
        ratio |d_j| / |alpha_j| keeps every reduced cost dual feasible; ties
        go to the largest |alpha_j| (lowest index under Bland's rule).
        """
        moves = self.price * alpha
        cand = (moves < -_PIVOT_TOL if below else moves > _PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            return -1
        size = np.abs(alpha[cand])
        ratio = np.maximum(self.price[cand] * d[cand], 0.0) / size
        tied = ratio <= ratio.min() + _STEP_TOL
        if bland:
            return int(cand[tied][0])
        return int(cand[tied][size[tied].argmax()])

    def _dual(self):
        """Bounded dual simplex to a primal feasible basis.

        Returns (violation, d) on a fresh factorization: violation is 0.0
        when the basis is feasible, else the violation of a row no column
        can repair (the LP is infeasible); d are the reduced costs, which
        start from those of the start basis.
        """
        d = self.d
        stall = 0
        bland = False
        while True:
            if self.iterations >= _MAX_ITERATIONS:
                raise SimplexError("iteration limit exceeded")
            row, below, violation = self._leaving(bland)
            q = -1
            if row >= 0:
                alpha = self._row(self.binvt[:, row])
                q = self._dual_entering(alpha, d, below, bland)
            if q < 0:
                # Feasible, or a row no column can repair: either verdict
                # stands only on a fresh factorization.
                if self.since_refresh == 0:
                    return violation, d
                self._refresh()
                d = self._reduced_costs()
                continue
            col = self._column(q)
            leaving = self.basis[row]
            bound = self.lb[leaving] if below else self.ub[leaving]
            direction = self.price[q]
            step = abs((self.values[leaving] - bound) / col[row])
            theta = d[q] / alpha[q]
            d -= theta * alpha
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
                d = self._reduced_costs()

    # -- driver --------------------------------------------------------------

    def run(self) -> LpResult:
        violation, d = self._dual()
        if violation > 0:
            return self._result(INFEASIBLE, infeasibility=violation)
        # The start is dual feasible and the dual ratio test keeps it so; a
        # violation here is numerical breakdown, which no primal phase hides.
        if np.any(self.price * d < -_DUAL_TOL):
            raise SimplexError("feasible basis is not dual feasible")
        n = self.n_struct
        x = np.clip(self.values[:n], self.lb[:n], self.ub[:n])
        return self._result(OPTIMAL, x=x, objective=float(self.cost[:n] @ x),
                            basis=Basis(self.basis.copy(), self.status.copy()))

    def _result(self, status, x=None, objective=None, infeasibility=0.0, basis=None) -> LpResult:
        return LpResult(status, x, objective, infeasibility=infeasibility,
                        iterations=self.iterations, refreshes=self.refreshes,
                        basis=basis, warm_started=self.warm_started)
