"""Bounded dual simplex on the inverse of the basis's structural block.

Every structural variable carries a finite [lb, ub] interval, rows are '<=',
'>=' or '==' with arbitrary right-hand sides, and nonbasic variables rest at
one of their bounds. Each row gets one slack column e_i, so the extended
matrix always has n + m columns and a_i x + s_i = b_i. A row's sense lives
only in its slack's bounds: s_i in [0, inf) for '<=', (-inf, 0] for '>=' and
[0, 0] for '=='. The slacks of inequality rows are the only columns with an
infinite bound; a nonbasic one rests at its finite bound.

A solve starts from a dual-feasible basis: any basis over the same rows
that the caller passes (`warm=`, such as a branch-and-bound parent's
optimum, whose bounds and costs may differ, or a model's crash basis), or
else the all-slack basis. Both take one start path: the basis is
factorized, its reduced costs are computed once, and the dual simplex
begins from them. Each boxed nonbasic variable rests at the bound
its reduced cost prefers, so only the nonbasic slack of an inequality row
can be dual infeasible. A warm basis that is singular, or that leaves such a
slack with a reduced cost pointing toward its infinite bound, is dropped
for the slack basis, which is neither: it inverts nothing, and no slack is
nonbasic. An LP with no rows has an empty basis and takes the same path.
The bounded dual simplex then restores primal feasibility: a violated
basic variable leaves, and the dual ratio test picks the entering column
so that every reduced cost stays dual feasible. It ends at the optimum, or
at a row that no column can repair, which makes the LP infeasible. There
is no cost shift and no primal phase; an end that is not dual feasible is
a SimplexError.

The constraint matrix is held as sparse columns (a `Layout`, which a model
builds once and every solve of its rows shares); slack columns stay
implicit. A basic slack is a unit column, so once the rows are split into
the covered ones C, whose slack is basic, and the rest R, the basis is
block triangular: B = [[A_RS, 0], [A_CS, I]] for the basic structural
columns S, with |R| = |S| = k. Its inverse is [[K^-1, 0], [-A_CS K^-1, I]]
with K = A_RS, and only the k x k inverse K^-1 is held, densely; the slack
rows follow from the sparse rows of A. So B^-1 a_q is K^-1 a_q[R] on the
basic structural columns, and the basic slacks are b - A x on their rows.
Row r of B^-1 is K^-1's row on R for a basic structural column and
e_c - a[c, S] K^-1 for the basic slack of row c; the duals are c_S K^-1 on R
and zero on C. A pivot updates K^-1 by one rank-1 step, and K^-1 grows by a
row and a column when a structural column replaces a slack, shrinks when a
slack replaces a structural column, and swaps a column when a slack
replaces a slack. Refactorization inverts K alone. All products are
elementwise, `np.einsum` without `optimize` or `np.bincount`;
`np.linalg.inv` in `_factorize` is the one LAPACK call. A layout with at
most `_DENSE_ENTRIES` entries in [I; A] also holds [I; A] dense
(`Layout.stacked_dense`): on the small LPs of a branch and bound each array
operation costs more than its arithmetic, so K, K^-1 a_q[R] and the rows of
B^-1 on R are gathered from it there rather than from the sparse entries.

Pricing is dual steepest edge (Forrest & Goldfarb, Math. Prog. 57, 1992):
the leaving row maximizes violation^2 / w_r (lowest row on ties), where
w_r = ||e_r^T B^-1||^2 is ||K^-1[i]||^2 for a basic structural column in
row i of K^-1 and 1 + ||a[c, S] K^-1||^2 for the basic slack of row c. The
weights are exact, not a recurrence: each iteration computes them from the
current K^-1 for the violated rows alone, and skips them when only one row
is violated. The ratio test takes the largest |alpha| among the tied
ratios. After a run of degenerate pivots the solver switches to Bland's
rule (lowest basic index leaves, lowest column enters), so it cannot cycle
and identical inputs pivot identically. Reduced costs are updated
incrementally and recomputed from a fresh factorization at a fixed cadence
to bound drift; optimality and infeasibility are only declared on a fresh
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
# Up to this many entries, [I; A] is also held dense: gathering its rows
# costs fewer array operations than gathering the sparse entries.
_DENSE_ENTRIES = 4096

# A row's sense, as an index into the (lb, ub) of its slack.
_SENSE_KIND = {"<=": 0, ">=": 1, "==": 2}
_SLACK_BOUNDS = np.array([[0.0, np.inf], [-np.inf, 0.0], [0.0, 0.0]])


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

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A x, one bincount over the nonzeros; entries of x past column n
        (a solver's slacks) are not read."""
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.m)

    @cached_property
    def stacked(self):
        """The entries of [I; A] (n + m rows over the n columns) as (rows,
        cols, vals): row j < n is e_j and row n + i is row i of A."""
        ident = np.arange(self.n)
        return (np.concatenate([ident, self.n + self.rows]), np.concatenate([ident, self.cols]),
                np.concatenate([np.ones(self.n), self.vals]))

    @cached_property
    def stacked_dense(self):
        """[I; A] as a dense (n + m) x n array, for small layouts."""
        out = np.zeros((self.n + self.m, self.n))
        r, c, v = self.stacked
        out[r, c] = v
        return out

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
    finite. Returns structural values only, a value within 1e-9 of a bound
    as that bound; slacks are internal. `warm` may be any basis over the
    same `a` and `senses`, such as the `basis` of an earlier optimal solve
    or a start a caller builds; the solve starts from the slack basis when
    that basis is singular or dual infeasible.
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
        raise ValueError("structural bounds must be finite")
    if (lb > ub).any():
        return LpResult(INFEASIBLE, None, None, infeasibility=float(np.max(lb - ub)))
    return _Revised(c, a, senses, b, lb, ub, warm).run()


class _Revised:
    def __init__(self, c, a: Layout, senses, b, lb, ub, warm: Basis | None = None):
        self.layout = a
        m, n = a.m, a.n
        self.m, self.n_struct = m, n
        self.b = b
        self.ncols = cols = n + m
        # Slack of row i is column n + i, the unit column e_i: a_i x + s_i = b_i.
        try:
            kind = np.fromiter(map(_SENSE_KIND.__getitem__, senses), dtype=np.intp, count=m)
        except KeyError as exc:
            raise ValueError(f"bad sense {exc.args[0]!r}") from None
        slack = _SLACK_BOUNDS[kind]
        self.lb = np.concatenate([lb, slack[:, 0]])
        self.ub = np.concatenate([ub, slack[:, 1]])
        self.cost = np.concatenate([c, np.zeros(m)])
        self.iterations = 0
        self.refreshes = 0
        self.since_refresh = 0  # pivots since the last factorization
        self.at = np.full(cols, -1)  # scratch for _inverse_rows
        self.ranks = np.arange(m)
        # [I; A] and A dense, on a small layout only.
        self.dense = a.stacked_dense if cols * n <= _DENSE_ENTRIES else None
        self.dense_a = None if self.dense is None else self.dense[n:]

        d = None if warm is None else self._start(warm)
        self.warm_started = d is not None
        if d is None:
            d = self._start(Basis(np.arange(n, cols), np.zeros(cols, dtype=np.int8)))
        self.d = d  # the start basis's reduced costs, where _dual begins

        nonbasic = self.status != _BASIC
        # Boxed nonbasics rest where their reduced cost is dual feasible;
        # on a (near) zero reduced cost they keep their bound. A column with
        # one infinite bound rests at the other.
        at_ub = nonbasic & np.isfinite(self.ub) & (
            (d < -_DUAL_TOL) | ((self.status == _AT_UB) & (d <= _DUAL_TOL)) | np.isinf(self.lb))
        self.status[nonbasic] = np.where(at_ub[nonbasic], _AT_UB, _AT_LB)
        self.values = np.where(at_ub, self.ub, self.lb)
        self._basic_values()
        # Pricing signs: +1 at lb, -1 at ub, 0 basic or fixed. A nonbasic
        # variable is dual feasible when price * d >= 0; pivots keep the
        # signs current.
        self.movable = self.ub - self.lb > _PIVOT_TOL
        self.price = np.where(nonbasic & self.movable, np.where(at_ub, -1.0, 1.0), 0.0)

    def _start(self, basis: Basis):
        """Factorize `basis` and return its reduced costs; None when it is
        singular or leaves an inequality row's slack nonbasic with a reduced
        cost pointing toward its infinite bound (it has no bound to rest at
        there). The slack basis is never either."""
        if basis.columns.shape != (self.m,) or basis.status.shape != (self.ncols,):
            raise ValueError("warm basis does not match the rows and columns")
        self.basis = np.asarray(basis.columns, dtype=np.intp).copy()
        self.lbb, self.ubb = self.lb[self.basis], self.ub[self.basis]  # bounds by position
        self.status = (basis.status == _AT_UB).astype(np.int8)  # _AT_UB or _AT_LB
        self.status[self.basis] = _BASIC
        try:
            self._install(*self._factorize())
        except SimplexError:
            return None
        self.refreshes += 1
        d = self._reduced_costs()
        nonbasic = self.status != _BASIC
        if (nonbasic & ((np.isinf(self.ub) & (d < -_DUAL_TOL))
                        | (np.isinf(self.lb) & (d > _DUAL_TOL)))).any():
            return None
        return d

    # -- basic machinery ---------------------------------------------------

    def _factorize(self):
        """(K^-1, scol, rrow) for the basis: the basic slacks cover their
        rows, the basic structural columns scol meet the other rows rrow in
        the k x k block K, and only K is inverted."""
        m, n, lay = self.m, self.n_struct, self.layout
        unit = self.basis >= n
        scol = self.basis[~unit]
        covered = np.zeros(m, dtype=bool)
        covered[self.basis[unit] - n] = True
        rrow = (~covered).nonzero()[0]
        k = scol.size
        if rrow.size != k:
            raise SimplexError("singular basis")  # a slack basic twice
        if k == 0:
            return np.zeros((0, 0)), scol, rrow
        if self.dense is not None:
            block = self.dense_a[rrow[:, None], scol]
        else:
            # Number the rows rrow and the columns scol of K; -1 elsewhere.
            at = np.full(n + m, -1)
            at[scol] = at[n + rrow] = np.arange(k)
            r, c, v = lay.stacked
            i, j = at[r[n:]], at[c[n:]]
            mine = (i | j) >= 0
            block = np.zeros((k, k))
            block[i[mine], j[mine]] = v[n:][mine]
        try:
            kinv = np.linalg.inv(block)
        except np.linalg.LinAlgError as exc:
            raise SimplexError("singular basis") from exc
        if not np.isfinite(kinv).all():
            raise SimplexError("singular basis")
        return kinv, scol, rrow

    def _install(self, kinv, scol, rrow):
        """Take K^-1 and index its rows and columns."""
        m, n = self.m, self.n_struct
        k = self.k = scol.size
        self.kinv = kinv
        # Row i of K^-1 belongs to the basic structural column scol[i] and
        # column j to row rrow[j]; slot maps a basic structural column to
        # its row of K^-1 and a nonbasic slack, whose row is uncovered, to
        # its column.
        self.scol = np.zeros(m, dtype=np.intp)
        self.rrow = np.zeros(m, dtype=np.intp)
        self.scol[:k], self.rrow[:k] = scol, rrow
        self.slot = np.full(self.ncols, -1)
        self.slot[scol] = self.slot[n + rrow] = self.ranks[:k]

    def _basic_values(self):
        """Basic structurals from K^-1 on the uncovered rows, whose nonbasic
        slacks rest at 0; then the slacks as b - A x."""
        k = self.k
        if k:
            scol = self.scol[:k]
            nonbasic = self.values[:self.n_struct].copy()
            nonbasic[scol] = 0.0
            rest = self.b - self.layout.dot(nonbasic)
            self.values[scol] = np.einsum("ij,j->i", self.kinv, rest[self.rrow[:k]])
        self._slack_values()

    def _slack_values(self):
        """Every slack as b - A x on its row: a basic slack's value, and 0
        up to rounding for a nonbasic one, which rests at its bound 0."""
        self.values[self.n_struct:] = self.b - self.layout.dot(self.values)

    def _refresh(self):
        """Refactorize the basis: recompute K^-1 and the basic values."""
        self._install(*self._factorize())
        self._basic_values()
        self.refreshes += 1
        self.since_refresh = 0

    def _row(self, v):
        """v @ [A | slacks] over the sparse entries: one tableau row when v is a row of B^-1."""
        lay = self.layout
        struct = np.bincount(lay.cols, weights=v[lay.rows] * lay.vals, minlength=self.n_struct)
        return np.concatenate([struct, v])

    def _inverse_rows(self, cols):
        """What the rows of B^-1 for the basic columns `cols` hold on R:
        row `cols` of [I; A] on S times K^-1. That is K^-1[i] for the
        structural column in row i of K^-1, and a[c, S] K^-1 for the slack
        of row c, whose row of B^-1 is e_c minus it."""
        k = self.k
        if self.dense is not None:
            return np.einsum("ti,ij->tj", self.dense[cols[:, None], self.scol[:k]], self.kinv)
        r, c, v = self.layout.stacked
        at = self.at  # -1 outside this call
        at[cols] = self.ranks[:cols.size] * k
        i, j = at[r], self.slot[c]
        at[cols] = -1
        on = ((i | j) >= 0).nonzero()[0]
        # Sum each row's terms into its block of k entries of one flat array.
        flat = i[on, None] + self.ranks[:k]
        terms = v[on, None] * self.kinv[j[on]]
        return np.bincount(flat.ravel(), weights=terms.ravel(), minlength=cols.size * k).reshape(cols.size, k)

    def _column(self, q):
        """w = K^-1 a_q[R], the entries of B^-1 a_q on the basic structural
        columns; the basic slacks follow from b - A x."""
        n, lay = self.n_struct, self.layout
        if q >= n:
            return self.kinv[:, self.slot[q]].copy()  # a nonbasic slack's row is in R
        if self.dense is not None:
            return np.einsum("ij,j->i", self.kinv, self.dense_a[self.rrow[:self.k], q])
        # Column q's entries of A, as rows n + i of [I; A].
        r, _, v = lay.stacked
        lo, hi = n + lay.colptr[q], n + lay.colptr[q + 1]
        j = self.slot[r[lo:hi]]
        on = j >= 0
        return np.einsum("ij,j->i", self.kinv[:, j[on]], v[lo:hi][on])

    def _reduced_costs(self):
        """c - y [A | I] with the duals y = c_S K^-1 on R and zero on the covered rows."""
        k = self.k
        if k == 0:
            return self.cost.copy()  # all duals are zero
        y = np.zeros(self.m)
        y[self.rrow[:k]] = np.einsum("i,ij->j", self.cost[self.scol[:k]], self.kinv)
        return self.cost - self._row(y)

    def _rest(self, j, at_ub):
        """Make j nonbasic at its upper (at_ub) or lower bound."""
        self.status[j] = _AT_UB if at_ub else _AT_LB
        self.values[j] = self.ub[j] if at_ub else self.lb[j]
        self.price[j] = (-1.0 if at_ub else 1.0) if self.movable[j] else 0.0

    def _pivot(self, q, direction, step, row, leaves_to_ub, w, new, pivot):
        """Move q by step into the basis at `row`; w = K^-1 a_q[R], new is
        row `row` of the new B^-1 on R, and pivot = (B^-1 a_q)[row]."""
        self.since_refresh += 1
        n, k, slot, scol, rrow = self.n_struct, self.k, self.slot, self.scol, self.rrow
        if step > 0:
            self.values[scol[:k]] -= direction * step * w
        leaving = int(self.basis[row])
        self.values[q] = (self.lb[q] if self.status[q] == _AT_LB else self.ub[q]) + direction * step
        self._rest(leaving, leaves_to_ub)
        self.status[q] = _BASIC
        self.price[q] = 0.0
        self.basis[row] = q
        self.lbb[row], self.ubb[row] = self.lb[q], self.ub[q]

        # One rank-1 step: each basic structural column's row i of B^-1
        # loses w_i times the new row `row`. On R, that is K^-1 minus the
        # outer product of w and new.
        kinv = self.kinv
        kinv -= np.multiply.outer(w, new)
        if leaving < n:
            i = slot[leaving]
            if q < n:  # structural for structural: q takes the row
                kinv[i] = new
                scol[i] = q
                slot[q] = i
            else:
                # A slack enters: its row leaves R, where K^-1 is now zero,
                # and the leaving column's row goes. The last row and
                # column move into their places.
                j, k = slot[q], k - 1
                kinv[i] = kinv[k]
                kinv[:, j] = kinv[:, k]
                self.kinv = kinv[:k, :k].copy()
                scol[i], rrow[j] = scol[k], rrow[k]
                slot[scol[i]] = i
                slot[n + rrow[j]] = j
                slot[q] = -1
                self.k = k
            slot[leaving] = -1
        else:
            # A slack leaves: its row c joins R, where the new B^-1 is
            # -w / pivot on the structural rows and 1 / pivot on row `row`.
            c = leaving - n
            if q < n:  # structural for slack: K^-1 grows by a row and a column
                grown = np.empty((k + 1, k + 1))
                grown[:k, :k] = kinv
                grown[:k, k] = -w / pivot
                grown[k, :k] = new
                grown[k, k] = 1.0 / pivot
                self.kinv = grown
                scol[k], rrow[k] = q, c
                slot[q] = slot[leaving] = k
                self.k = k + 1
            else:  # slack for slack: row c takes the column of q's row
                j = slot[q]
                kinv[:, j] = -w / pivot
                rrow[j] = c
                slot[leaving], slot[q] = j, -1
        if step > 0:
            self._slack_values()

    def _weights(self, cols, part):
        """The squared norms of the rows of B^-1 for the basic columns
        `cols`, from their `_inverse_rows`: a slack's row also holds its 1."""
        return np.einsum("ij,ij->i", part, part) + (cols >= self.n_struct)

    def _leaving(self, bland):
        """Dual steepest-edge row: the largest violation^2 / weight, -1 if none.

        Row r of B^-1 is the dual edge that row r leaving moves along, and
        its weight ||e_r^T B^-1||^2 is its squared length, so each violation
        is scaled by its edge's length: ||K^-1[i]||^2 for a basic structural
        column in row i of K^-1, 1 + ||a[c, S] K^-1||^2 for the basic slack
        of row c. The weights are computed for the violated rows alone, and
        only when there are two or more. Returns (row, below_lb, violation, rho,
        part): rho is row `row` of B^-1 and part its entries on R. Under
        Bland's rule the violated row with the lowest basic index leaves
        instead.
        """
        basis, n, k = self.basis, self.n_struct, self.k
        xb = self.values[basis]
        below = self.lbb - xb
        viol = np.maximum(below, xb - self.ubb)
        rows = (viol > _FEAS_TOL).nonzero()[0]
        if rows.size == 0:
            return -1, False, 0.0, None, None
        cols = basis[rows]
        if bland or rows.size == 1:
            at = cols.argmin()
            part = self._inverse_rows(cols[at:at + 1])[0]
        else:
            part = self._inverse_rows(cols)
            at = (viol[rows] ** 2 / self._weights(cols, part)).argmax()
            part = part[at]
        row, col = int(rows[at]), int(cols[at])
        rho = np.zeros(self.m)
        if col >= n:
            part = -part
            rho[col - n] = 1.0
        rho[self.rrow[:k]] = part
        return row, bool(below[row] > 0), float(viol[row]), rho, part

    def _dual_entering(self, alpha, d, below, bland):
        """Dual ratio test on tableau row `alpha`; -1 when no column can enter.

        The leaving variable must move up (below its lb) or down; a nonbasic
        column qualifies when moving it off its bound does that. The smallest
        ratio |d_j| / |alpha_j| keeps every reduced cost dual feasible; ties
        go to the largest |alpha_j| (lowest index under Bland's rule).
        """
        # |price| is 1 on every candidate, so size is |alpha_j| there.
        size = self.price * alpha
        if below:
            size = -size
        cand = (size > _PIVOT_TOL).nonzero()[0]
        if cand.size <= 1:
            return int(cand[0]) if cand.size else -1
        size = size[cand]
        ratio = np.maximum((self.price * d)[cand], 0.0) / size
        tied = (ratio <= ratio.min() + _STEP_TOL).nonzero()[0]
        if bland or tied.size == 1:
            return int(cand[tied[0]])
        return int(cand[tied[size[tied].argmax()]])

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
            row, below, violation, rho, part = self._leaving(bland)
            q = -1
            if row >= 0:
                alpha = self._row(rho)
                q = self._dual_entering(alpha, d, below, bland)
            if q < 0:
                # Feasible, or a row no column can repair: either verdict
                # stands only on a fresh factorization.
                if self.since_refresh == 0:
                    return violation, d
                self._refresh()
                d = self._reduced_costs()
                continue
            # The leaving variable moves to the bound it violates.
            pivot = float(alpha[q])
            step = violation / abs(pivot)
            theta = float(d[q]) / pivot
            d -= theta * alpha
            self._pivot(q, float(self.price[q]), step, row, not below, self._column(q), part / pivot, pivot)
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
        if (self.price * d < -_DUAL_TOL).any():
            raise SimplexError("feasible basis is not dual feasible")
        n = self.n_struct
        lb, ub, x = self.lb[:n], self.ub[:n], self.values[:n]
        # A value past a bound or within rounding of it is that bound, so
        # the LP's zeros and ones come out exact.
        x = np.where(x - lb <= _FEAS_TOL, lb, np.where(ub - x <= _FEAS_TOL, ub, x))
        return self._result(OPTIMAL, x=x, objective=float(np.einsum("i,i->", self.cost[:n], x)),
                            basis=Basis(self.basis.copy(), self.status.copy()))

    def _result(self, status, x=None, objective=None, infeasibility=0.0, basis=None) -> LpResult:
        return LpResult(status, x, objective, infeasibility=infeasibility,
                        iterations=self.iterations, refreshes=self.refreshes,
                        basis=basis, warm_started=self.warm_started)
