"""Simplex core vs scipy's HiGHS on randomized LPs."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

from overcast import gen, lp, pipeline, simplex


def random_lp(rng, n_max=12, m_max=10):
    n = int(rng.integers(1, n_max))
    m = int(rng.integers(1, m_max))
    a = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.7)
    c = rng.normal(size=n)
    senses = [str(rng.choice(["<=", ">=", "=="])) for _ in range(m)]
    if rng.random() < 0.6:
        # Anchor b at a random box point so a feasible region usually exists.
        x0 = rng.uniform(0.0, 1.0, size=n)
        b = a @ x0 + rng.normal(size=m) * 0.1
    else:
        b = rng.normal(size=m) * 2.0
    lb = np.zeros(n)
    ub = np.where(rng.random(n) < 0.8, rng.uniform(0.5, 3.0, size=n), 10.0)
    # A few fixed variables exercise the degenerate-bound path.
    fixed = rng.random(n) < 0.1
    ub[fixed] = lb[fixed]
    return c, a, senses, b, lb, ub


def solve_dense(c, a, *args, **kwargs):
    """`simplex.solve` on a dense constraint matrix."""
    return simplex.solve(c, simplex.Layout.from_dense(np.asarray(a, dtype=float)), *args, **kwargs)


def scipy_solve(c, a, senses, b, lb, ub):
    senses = np.asarray(senses)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, sense, rhs in zip(a, senses, b):
        if sense == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        elif sense == ">=":
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    return linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lb, [None if np.isinf(u) else u for u in ub])),
        method="highs",
    )


def test_matches_highs_on_random_lps():
    rng = np.random.default_rng(7)
    solved = 0
    infeasible = 0
    for _ in range(300):
        c, a, senses, b, lb, ub = random_lp(rng)
        ours = solve_dense(c, a, senses, b, lb, ub)
        ref = scipy_solve(c, a, senses, b, lb, ub)
        if ref.status == 2:
            assert ours.status == simplex.INFEASIBLE, (c, a, senses, b, lb, ub)
            infeasible += 1
        else:
            assert ref.status == 0 and ours.status == simplex.OPTIMAL, (ours.status, c, a, senses, b, lb, ub)
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            solved += 1
    # The generator must actually exercise both outcomes.
    assert solved > 100
    assert infeasible > 20


def test_solution_satisfies_rows():
    rng = np.random.default_rng(11)
    for _ in range(120):
        c, a, senses, b, lb, ub = random_lp(rng)
        ours = solve_dense(c, a, senses, b, lb, ub)
        if ours.status != simplex.OPTIMAL:
            continue
        x = ours.x
        assert np.all(x >= lb - 1e-7)
        assert np.all(x <= ub + 1e-7)
        vals = a @ x
        for v, sense, rhs in zip(vals, senses, b):
            if sense == "<=":
                assert v <= rhs + 1e-7
            elif sense == ">=":
                assert v >= rhs - 1e-7
            else:
                assert v == pytest.approx(rhs, abs=1e-7)


def test_deterministic_pivoting():
    rng = np.random.default_rng(3)
    c, a, senses, b, lb, ub = random_lp(rng, n_max=9, m_max=8)
    first = solve_dense(c, a, senses, b, lb, ub)
    second = solve_dense(c, a, senses, b, lb, ub)
    assert first.status == second.status
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def test_degenerate_lp_terminates():
    # Highly degenerate: many redundant rows through the origin.
    a = np.array(
        [
            [1.0, 1.0, 1.0],
            [2.0, 2.0, 2.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
        ]
    )
    res = solve_dense(
        c=[-1.0, -1.0, -1.0],
        a=a,
        senses=["<="] * 5,
        b=[0.0, 0.0, 0.0, 0.0, 0.0],
        lb=np.zeros(3),
        ub=np.ones(3),
    )
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_infinite_bound_is_rejected():
    # Every structural column is boxed, so the solver has no unbounded status.
    with pytest.raises(ValueError, match="finite"):
        solve_dense([-1.0], np.array([[0.0]]), ["<="], [1.0], lb=[0.0], ub=[np.inf])


def test_a_bad_sense_is_rejected():
    # A row's sense lives only in its slack's bounds; anything else is refused.
    with pytest.raises(ValueError, match="bad sense '<'"):
        solve_dense([1.0], np.array([[1.0]]), ["<"], [1.0], lb=[0.0], ub=[1.0])


def test_a_warm_start_needs_one_column_per_row():
    with pytest.raises(ValueError, match="warm basis does not match the rows"):
        solve_dense([1.0], np.array([[1.0]]), ["<="], [1.0], lb=[0.0], ub=[1.0], warm=np.array([0, 1]))


def test_a_ge_slack_rests_at_its_finite_bound():
    # x >= 0.5 with x at its lower bound: the '>=' slack s = 0.5 - x lies in
    # (-inf, 0], so it starts basic at +0.5 and leaves to its bound 0, its
    # upper one, where its pricing sign is -1.
    state = simplex._Revised(np.array([1.0]), simplex.Layout.from_dense(np.array([[1.0]])),
                             [">="], np.array([0.5]), np.zeros(1), np.ones(1))
    res = state.run()
    assert res.status == simplex.OPTIMAL and res.x.tolist() == [0.5]
    assert res.basis.tolist() == [0]
    assert state.values[1] == 0.0 and state.price[1] == -1.0


def test_a_dual_infeasible_end_raises():
    # No primal phase repairs a basis that is not dual feasible: with its
    # cost flipped after the start, x rests at its upper bound with a
    # positive reduced cost, and the feasible basis is not declared optimal.
    state = simplex._Revised(np.array([-1.0]), simplex.Layout.from_dense(np.array([[1.0]])),
                             ["<="], np.array([5.0]), np.zeros(1), np.ones(1))
    state.cost[0] = 1.0
    state.d = state._reduced_costs()  # the dual simplex starts from these
    with pytest.raises(simplex.SimplexError, match="not dual feasible"):
        state.run()


def test_crossed_bounds_are_infeasible():
    # lb > ub has no point; a branch-and-bound child can produce it.
    res = solve_dense([1.0], np.array([[1.0]]), ["<="], [5.0], lb=[1.0], ub=[0.5])
    assert res.status == simplex.INFEASIBLE
    assert res.infeasibility == pytest.approx(0.5)


def _boxed_lp():
    # x2 has a negative cost and starts at its upper bound, which the last
    # row cuts; the '>=' row starts violated.
    c = np.array([1.0, 3.0, -1.0])
    a = simplex.Layout.from_dense(np.array([
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 1.0],
    ]))
    b = np.array([1.0, 2.0, 2.5])
    return c, a, [">=", "<=", "<="], b, np.zeros(3), np.array([1.0, 1.0, 2.0])


def test_refreshes_once_per_phase():
    args = _boxed_lp()
    state = simplex._Revised(*args)
    n, m = 3, 3
    assert state.ncols == n + m  # one slack per row
    assert state.k == 0 and state.kinv.shape == (0, 0)  # the slack basis inverts nothing
    assert state.refreshes == 1  # the start factorizes the slack basis
    res = state.run()
    assert res.status == simplex.OPTIMAL
    assert res.iterations == 2
    # The dual simplex is the only phase: one confirming refactorization.
    assert res.refreshes == 2
    assert res.objective == pytest.approx(-0.5)
    assert simplex.solve(*args).refreshes == 2


def test_a_zero_row_lp_takes_the_start_path():
    # No rows: the basis is empty, and each x rests at the bound its cost
    # prefers (a zero cost keeps the lower bound).
    lay = simplex.Layout((0, 3), [], [], [])
    lb, ub = np.array([0.0, -1.0, 0.5]), np.array([1.0, 2.0, 3.0])
    res = simplex.solve([1.0, -2.0, 0.0], lay, [], [], lb, ub)
    assert res.status == simplex.OPTIMAL
    assert isinstance(res.basis, np.ndarray) and res.basis.size == 0
    assert np.array_equal(res.x, [0.0, 2.0, 0.5])
    assert res.objective == -4.0 and res.iterations == 0


def test_the_slack_basis_as_warm_start_is_the_cold_start():
    # The cold start is the slack basis sent through the warm-start path:
    # passing it explicitly pivots identically and ends at the same bytes.
    model = lp.build_model(gen.gen_random((8, 6, 16), "avg", seed=0))
    for args in (_boxed_lp(), (model.obj, model.layout, model.senses, model.rhs,
                               model.lb, model.ub)):
        n, m = args[1].n, args[1].m
        slack = np.arange(n, n + m)
        cold = simplex.solve(*args)
        warm = simplex.solve(*args, warm=slack)
        assert warm.warm_started and not cold.warm_started
        assert warm.iterations == cold.iterations > 0
        assert warm.x.tobytes() == cold.x.tobytes()
        assert np.array_equal(warm.basis, cold.basis)


def _dense_inverse(state):
    """B^-1 from a dense copy of [A | I] on the basic columns."""
    lay = state.layout
    ext = np.zeros((lay.m, lay.n + lay.m))
    ext[lay.rows, lay.cols] = lay.vals
    ext[:, lay.n:] = np.eye(lay.m)
    return np.linalg.inv(ext[:, state.basis])


def _placed(state, kinv, scol, rrow):
    """K^-1 at (basis position, row) of an m x m array, zero elsewhere."""
    position = np.empty(state.ncols, dtype=np.intp)
    position[state.basis] = np.arange(state.m)
    out = np.zeros((state.m, state.m))
    out[np.ix_(position[scol], rrow)] = kinv
    return out


def _inverse_error(state):
    """Largest gap between the held K^-1 and a fresh factorization of the basis."""
    k = state.k
    held = _placed(state, state.kinv, state.scol[:k], state.rrow[:k])
    return np.max(np.abs(held - _placed(state, *state._factorize())), initial=0.0)


def _weight_error(state):
    """Largest relative error of the steepest-edge weights against the row
    norms of a dense B^-1."""
    binv = _dense_inverse(state)
    weights = state._weights(state.basis, state._inverse_rows(state.basis))
    fresh = np.einsum("ij,ij->i", binv, binv)
    return np.max(np.abs(weights - fresh) / fresh)


def test_updated_inverse_matches_a_fresh_factorization(monkeypatch):
    # A few hundred rank-1 updates of K^-1, with no refactorization in
    # between, agree with factorizing the same basis, and the steepest-edge
    # weights read from it stay B^-1's row norms: ones at the slack basis,
    # and again after a refactorization and from a warm start.
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 300)
    model = lp.build_model(gen.gen_random((12, 12, 40), "avg", seed=0))
    args = (model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub)
    state = simplex._Revised(*args)
    assert np.array_equal(state._weights(state.basis, state._inverse_rows(state.basis)),
                          np.ones(state.m))
    with pytest.raises(simplex.SimplexError, match="iteration limit"):
        state.run()
    assert state.iterations == 300 and state.since_refresh >= 200
    assert state.kinv.flags.c_contiguous and state.kinv.shape == (state.k, state.k)
    assert _inverse_error(state) <= 1e-9
    assert _weight_error(state) <= 1e-9
    assert state._start(state.basis)
    assert _inverse_error(state) == 0.0
    assert _weight_error(state) <= 1e-9
    monkeypatch.undo()
    warm = simplex._Revised(*args, warm=simplex.solve(*args).basis)
    assert warm.warm_started and warm.k > 0
    assert _weight_error(warm) <= 1e-9


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_every_kind_of_basis_change_keeps_the_inverse(monkeypatch, dense):
    # The four pivots: a structural column for a structural one, a
    # structural column for a slack (K^-1 grows by a row and a column), a
    # slack for a structural column (it shrinks) and a slack for a slack
    # (one row of R is swapped). After each, K^-1 agrees with a fresh
    # factorization, the rows of B^-1 it gives are those of a dense B^-1,
    # and the pricing weights are their squared norms. The LP runs once on
    # the sparse entries and once on the dense copy of [I; A] that small
    # layouts take.
    monkeypatch.setattr(simplex, "_DENSE_ENTRIES", 10**6 if dense else 0)
    model = lp.build_model(gen.gen_random((8, 6, 16), "avg", seed=0))
    args = (model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub)
    pivot = simplex._Revised._pivot
    kinds = Counter()

    def checked(state, q, direction, step, row, *rest):
        n = state.n_struct
        kinds[(q < n, state.basis[row] < n)] += 1
        pivot(state, q, direction, step, row, *rest)
        assert _inverse_error(state) <= 1e-9
        binv = _dense_inverse(state)
        part = state._inverse_rows(state.basis)
        sign = np.where(state.basis < n, 1.0, -1.0)  # a slack's row is e_c minus its part
        assert np.allclose(sign[:, None] * part, binv[:, state.rrow[:state.k]], rtol=0, atol=1e-9)
        assert _weight_error(state) <= 1e-9

    monkeypatch.setattr(simplex._Revised, "_pivot", checked)
    assert (simplex._Revised(*args).dense is not None) == dense
    res = simplex.solve(*args)
    assert res.status == simplex.OPTIMAL
    assert set(kinds) == {(True, True), (True, False), (False, True), (False, False)}


def test_values_at_a_bound_come_out_exact():
    # The 2x4x8 relaxation ends with basic values one rounding step off 0
    # and 1; the solver returns them as the bounds themselves, so a caller
    # that tests x >= 1.0 or x == 0.0 sees the vertex.
    model = lp.build_model(gen.gen_random((2, 4, 8), "avg", seed=1))
    res = simplex.solve(model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub)
    near = (np.abs(res.x - model.lb) <= 1e-9) | (np.abs(res.x - model.ub) <= 1e-9)
    assert near.any()
    assert np.all((res.x[near] == model.lb[near]) | (res.x[near] == model.ub[near]))


def test_a_large_solve_holds_no_m_by_m_array():
    # The 20x15x60 relaxation has m = 1275 rows; one dense B^-1 alone would
    # take m^2 doubles, more than the whole solve peaks at.
    model = lp.build_model(gen.gen_random((20, 15, 60), "avg", seed=0))
    args = (model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub)
    tracemalloc.start()
    try:
        res = simplex.solve(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.status == simplex.OPTIMAL and model.layout.m == 1275
    assert peak < model.layout.m ** 2 * 8


def test_steepest_edge_picks_the_leaving_row(monkeypatch):
    # From the basis (x1, x0), B^-1 = [[1, 0], [-3, 1]]: row 0 holds x1 = 2
    # (violation 1, weight 1) and row 1 holds x0 = 2.5 (violation 1.5,
    # weight 10). The largest violation is row 1, but 1^2 / 1 > 1.5^2 / 10,
    # so steepest edge takes row 0; Bland's rule takes x0, the lowest index.
    a = simplex.Layout.from_dense(np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]]))
    state = simplex._Revised(np.array([0.0, 0.0, 1.0, 1.0]), a, ["<=", "<="],
                             np.array([2.0, 8.5]), np.zeros(4), np.ones(4), warm=np.array([1, 0]))
    assert state.warm_started
    assert np.allclose(state.values[state.basis], [2.0, 2.5])
    assert state.k == 2  # no slack is basic: K is all of B
    assert np.allclose(state._weights(state.basis, state._inverse_rows(state.basis)), [1.0, 10.0])
    assert state._leaving(bland=True)[0] == 1
    row, below, violation, rho, part = state._leaving(bland=False)
    assert (row, below, violation) == (0, False, pytest.approx(1.0))
    assert np.allclose(rho, [1.0, 0.0])  # row 0 of B^-1
    assert np.array_equal(part, rho[state.rrow[:2]])  # all rows are in R
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 1)
    with pytest.raises(simplex.SimplexError, match="iteration limit"):
        state.run()
    # The first dual pivot moved x1 out of row 0 to its upper bound, where
    # its pricing sign is -1; x0 is still basic in row 1.
    assert state.basis[0] != 1 and state.basis[1] == 0
    assert state.values[1] == 1.0 and state.price[1] == -1.0


def test_duplicate_equality_rows_return_a_basis():
    # The second row repeats the first; its slack stays basic at zero.
    c = np.array([1.0, 2.0, 1.5])
    a = np.array([
        [1.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
    ])
    senses, b = ["==", "==", "<="], np.array([1.0, 1.0, 1.5])
    lb, ub = np.zeros(3), np.ones(3)
    res = solve_dense(c, a, senses, b, lb, ub)
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(1.0)
    assert res.basis is not None
    child_ub = np.array([0.5, 1.0, 1.0])
    child = solve_dense(c, a, senses, b, lb, child_ub, warm=res.basis)
    ref = scipy_solve(c, a, senses, b, lb, child_ub)
    assert child.warm_started and child.status == simplex.OPTIMAL
    assert child.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)


# Pivot counts and optimal vertices of the revised simplex at one BLAS
# thread, from the model's start basis as `solve_lp` solves them; any change
# to the pivot path or the rounding of K^-1 moves them.
# (sizes, regime, colors, mode) -> (iterations, sha256 of x bytes).
PINNED = [
    (((8, 6, 16), "avg", None, "full"),
     (122, "fc463b6df977fbc636f185f02a907cc13264bb6b6d2e646625e36d8e7183bcfb")),
    (((8, 6, 16), "avg", None, "transmission"),
     (47, "43fe7016f9cd3545dabd07dceb525c1f1abb6b548549784f54db0d193563dac3")),
    (((2, 10, 20), "low", 5, "full"),
     (126, "f41d594cf6bb6c4641b06a260d2aeee991061a1a80bb04e69e75fc20e617fa02")),
]

_PIN_SCRIPT = """
import hashlib, json, sys
from overcast import gen, lp, simplex
from overcast.model import instance_from_doc
out = []
for (sizes, regime, colors, mode), _ in json.loads(sys.argv[1]):
    inst = gen.gen_random(tuple(sizes), regime, seed=0, colors=colors)
    model = lp.build_model(instance_from_doc({**inst.to_doc(), "mode": mode}))
    res = simplex.solve(model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub,
                        warm=lp.start_basis(model, model.layout.m))
    out.append([res.iterations, hashlib.sha256(res.x.tobytes()).hexdigest()])
print(json.dumps(out))
"""


def test_pivots_pinned(one_blas_thread):
    got = [tuple(row) for row in one_blas_thread(_PIN_SCRIPT, PINNED)]
    assert got == [pin for _, pin in PINNED]


def test_warm_start_matches_cold_and_highs():
    # Children of an optimal parent: one fractional variable tightened down
    # (ub = floor) and up (lb = ceil), solved from the parent's basis. Under
    # the negated objective the parent's basis may leave a nonbasic slack
    # dual infeasible; that child starts from the slack basis instead.
    rng = np.random.default_rng(23)
    children = infeasible = warm = cold = 0
    for _ in range(400):
        c, a, senses, b, lb, ub = random_lp(rng)
        parent = solve_dense(c, a, senses, b, lb, ub)
        if parent.status != simplex.OPTIMAL:
            continue
        frac = (np.abs(parent.x - np.round(parent.x)) > 1e-6).nonzero()[0]
        if frac.size == 0:
            continue
        j = int(rng.choice(frac))
        down_ub, up_lb = ub.copy(), lb.copy()
        down_ub[j] = np.floor(parent.x[j])
        up_lb[j] = np.ceil(parent.x[j])
        for cc, clb, cub in ((c, lb, down_ub), (c, up_lb, ub), (-c, lb, ub)):
            res = solve_dense(cc, a, senses, b, clb, cub, warm=parent.basis)
            fresh = solve_dense(cc, a, senses, b, clb, cub)
            ref = scipy_solve(cc, a, senses, b, clb, cub)
            assert res.status == fresh.status
            if ref.status == 2:
                assert res.status == simplex.INFEASIBLE
                infeasible += res.warm_started  # found by the dual simplex
            else:
                assert ref.status == 0 and res.status == simplex.OPTIMAL
                assert res.objective == pytest.approx(fresh.objective, abs=1e-7, rel=1e-7)
                assert res.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                assert res.basis is not None
            children += 1
            warm += res.warm_started
            # Crossed bounds (lb > ub) are infeasible before any start; a
            # bound change keeps the parent's basis dual feasible, so only
            # the negated objective may start cold.
            if cc is c:
                assert res.warm_started or np.any(clb > cub)
            else:
                cold += not res.warm_started
    assert children > 300
    assert infeasible > 20
    assert warm > 200
    assert cold > 0


def test_branch_and_bound_warm_starts_every_child(monkeypatch):
    calls = []
    solve = simplex.solve

    def recording(*args, warm=None, **kwargs):
        res = solve(*args, warm=warm, **kwargs)
        calls.append((warm, res))
        return res

    monkeypatch.setattr(simplex, "solve", recording)
    # Most 2x2x4 draws close at the root; this one branches, in 29 nodes.
    model = lp.build_model(gen.gen_random((3, 4, 8), "avg", seed=3))
    sol = lp.solve_ip(model)
    assert sol.status == "optimal" and sol.nodes > 1
    # The root starts from the model's start basis, each child from its parent's.
    root = calls[0][0]
    assert np.array_equal(root, lp.start_basis(model, root.size))
    assert len(calls) > 2
    assert all(warm is not None for warm, _ in calls)
    assert all(res.warm_started for _, res in calls)


def test_a_singular_refactorization_restarts_from_the_slack_basis(monkeypatch):
    # When a refactorization finds the basis singular, the solve restarts
    # from the slack basis through the one start path and reaches the
    # optimum it reaches without the failure. The failure is forced at the
    # first scheduled refactorization.
    model = lp.build_model(gen.gen_random((12, 12, 40), "avg", seed=0))
    args = (model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub)
    plain = simplex.solve(*args)
    monkeypatch.setattr(simplex, "_REFRESH_EVERY", 50)
    factorize, start = simplex._Revised._factorize, simplex._Revised._start
    starts = []

    def failing(state):
        return None if state.iterations == 50 and len(starts) == 2 else factorize(state)

    def recording(state, columns):
        starts.append(np.array(columns))
        return start(state, columns)

    monkeypatch.setattr(simplex._Revised, "_factorize", failing)
    monkeypatch.setattr(simplex._Revised, "_start", recording)
    res = simplex.solve(*args)
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(plain.objective, rel=1e-9, abs=0)
    slack = np.arange(model.nvars, model.nvars + model.layout.m)
    assert np.array_equal(starts[0], slack) and not np.array_equal(starts[1], slack)
    assert np.array_equal(starts[2], slack)  # the restart


def _highs_verdicts(layout, senses, rhs, obj, bounds):
    """HiGHS's (status, objective) on the rows of `layout` under each (lb, ub)."""
    a = np.zeros((layout.m, layout.n))
    a[layout.rows, layout.cols] = layout.vals
    out = []
    for lb, ub in bounds:
        ref = scipy_solve(obj, a, senses, rhs, lb, ub)
        assert ref.status in (0, 2)
        out.append((simplex.OPTIMAL, ref.fun) if ref.status == 0 else (simplex.INFEASIBLE, None))
    return out


# ROADMAP direction 1's dive: on 6x10x20 avg seed 0's search rows, each LP
# warm from its parent's optimum, the last LP met a refactorization that
# found K singular, at one BLAS thread.
DIVE_FIXINGS = [
    ("x", "s4,r3,d16", 0), ("x", "s2,r2,d8", 0), ("x", "s4,r3,d4", 0), ("x", "s0,r4,d18", 0),
    ("x", "s3,r9,d9", 0), ("x", "s3,r5,d9", 0), ("z", "r6", 0), ("x", "s1,r5,d7", 0),
    ("y", "s3,r0", 1), ("x", "s1,r3,d19", 0), ("y", "s1,r3", 0), ("x", "s3,r0,d9", 1),
    ("x", "s5,r4,d11", 1), ("x", "s1,r4,d1", 1), ("z", "r2", 1), ("z", "r7", 1), ("z", "r3", 1),
    ("z", "r5", 0),
]

_DIVE_SCRIPT = """
import json, sys
from overcast import gen, lp, simplex
fixings = json.loads(sys.argv[1])
model = lp.build_model(gen.gen_random((6, 10, 20), "avg", seed=0))
layout, senses, rhs = lp.search_rows(model)
lb, ub = model.lb.copy(), model.ub.copy()
res = simplex.solve(model.obj, layout, senses, rhs, lb, ub, warm=lp.start_basis(model, layout.m, ub))
out = []
for col, val in fixings:
    lb[col] = ub[col] = val
    res = simplex.solve(model.obj, layout, senses, rhs, lb, ub, warm=res.basis)
    out.append([res.status, res.objective, res.warm_started])
print(json.dumps(out))
"""


def _dive_model():
    model = lp.build_model(gen.gen_random((6, 10, 20), "avg", seed=0))
    index = {"x": model.x_index, "y": model.y_index, "z": model.z_index}
    fixings = []
    for kind, key, val in DIVE_FIXINGS:
        key = tuple(key.split(",")) if kind != "z" else key
        fixings.append((index[kind][key], float(val)))
    return model, fixings


def test_the_singular_dive_ends_infeasible(one_blas_thread):
    # The last LP's scheduled refactorization finds K singular; the solve
    # restarts from the slack basis and ends infeasible, as HiGHS says,
    # and every LP of the dive ran from its parent's basis.
    model, fixings = _dive_model()
    got = one_blas_thread(_DIVE_SCRIPT, fixings)
    bounds = []
    lb, ub = model.lb.copy(), model.ub.copy()
    for col, val in fixings:
        lb[col] = ub[col] = val
        bounds.append((lb.copy(), ub.copy()))
    ref = _highs_verdicts(*lp.search_rows(model)[:3], model.obj, bounds)
    assert [status for status, _obj, _warm in got] == [status for status, _ in ref]
    assert got[-1][0] == simplex.INFEASIBLE
    assert all(warm for _status, _obj, warm in got)
    for (status, obj, _warm), (_, fun) in zip(got, ref):
        if status == simplex.OPTIMAL:
            assert obj == pytest.approx(fun, rel=1e-7, abs=1e-7)


_RANDOM_DIVES_SCRIPT = """
import json, sys
import numpy as np
from overcast import gen, lp, simplex
out = []
for size, seed, steps in json.loads(sys.argv[1]):
    model = lp.build_model(gen.gen_random(tuple(size), "avg", seed=seed))
    layout, senses, rhs = lp.search_rows(model)
    rng = np.random.default_rng(seed)
    lb, ub = model.lb.copy(), model.ub.copy()
    res = simplex.solve(model.obj, layout, senses, rhs, lb, ub, warm=lp.start_basis(model, layout.m, ub))
    trail = []
    for col in rng.permutation(model.nvars)[:steps]:
        val = float(rng.integers(2))
        clb, cub = lb.copy(), ub.copy()
        clb[col] = cub[col] = val
        child = simplex.solve(model.obj, layout, senses, rhs, clb, cub, warm=res.basis)
        trail.append([int(col), val, child.status, child.objective])
        if child.status == simplex.OPTIMAL:
            lb, ub, res = clb, cub, child
    out.append(trail)
print(json.dumps(out))
"""

RANDOM_DIVES = [((4, 6, 12), 0, 60), ((4, 6, 12), 1, 60), ((6, 10, 20), 0, 60), ((6, 10, 20), 2, 60)]


@pytest.mark.parametrize("threads", [1, 2])
def test_warm_started_dives_match_highs(blas_threads, threads):
    # Random fixings in random order on the model's own search rows, each
    # LP warm from the last feasible one; an infeasible fixing is undone.
    # Every verdict matches HiGHS, and nothing raises, at either thread
    # count (OpenBLAS rounds K^-1 differently at two threads).
    got = blas_threads(_RANDOM_DIVES_SCRIPT, RANDOM_DIVES, threads)
    verdicts = Counter()
    for (size, seed, _steps), trail in zip(RANDOM_DIVES, got):
        model = lp.build_model(gen.gen_random(size, "avg", seed=seed))
        rows = lp.search_rows(model)
        lb, ub = model.lb.copy(), model.ub.copy()
        bounds = []
        for col, val, status, _obj in trail:
            clb, cub = lb.copy(), ub.copy()
            clb[col] = cub[col] = val
            bounds.append((clb, cub))
            if status == simplex.OPTIMAL:
                lb, ub = clb, cub
        for (status, obj), (col, val, ours, our_obj) in zip(_highs_verdicts(*rows, model.obj, bounds), trail):
            assert ours == status, (size, seed, col, val)
            if status == simplex.OPTIMAL:
                assert our_obj == pytest.approx(obj, rel=1e-7, abs=1e-7)
            verdicts[status] += 1
    assert verdicts[simplex.OPTIMAL] > 150 and verdicts[simplex.INFEASIBLE] > 30


def test_dense_and_sparse_paths_solve_alike(monkeypatch):
    # `_DENSE_ENTRIES` forks K, B^-1 a_q and the rows of B^-1 between the
    # dense copy of [I; A] and the sparse entries. Every LP of a set of
    # branch-and-bound searches and pipeline runs ends with the same
    # status, pivots and bytes whether every layout takes the sparse side,
    # the shipped threshold picks, or every layout takes the dense side.
    solve, shipped = simplex.solve, simplex._DENSE_ENTRIES

    def run(entries):
        monkeypatch.setattr(simplex, "_DENSE_ENTRIES", entries)
        seen = []

        def recording(*args, **kwargs):
            res = solve(*args, **kwargs)
            seen.append((res.status, res.iterations, None if res.x is None else res.x.tobytes()))
            return res

        monkeypatch.setattr(simplex, "solve", recording)
        for seed in range(30):
            lp.solve_ip(lp.build_model(gen.gen_random((2, 2, 4), "avg", seed=seed)))
        for size, regime in (((4, 6, 12), "avg"), ((3, 4, 8), "high")):
            for seed in range(3):
                pipeline.run_approx(gen.gen_random(size, regime, seed=seed))
        lp.solve_ip(lp.build_model(gen.gen_random((4, 6, 12), "avg", seed=1)))
        return seen

    sparse, default, dense = run(0), run(shipped), run(10**9)
    assert len(sparse) > 100
    assert sparse == default == dense
