"""Simplex core vs scipy's HiGHS on randomized LPs."""

import numpy as np
import pytest
from scipy.optimize import linprog

from overcast import gen, lp, simplex


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
    assert np.array_equal(state.binvt, np.diag([-1.0, 1.0, 1.0]))  # the slack basis
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
    assert isinstance(res.basis, simplex.Basis) and res.basis.columns.size == 0
    assert np.array_equal(res.x, [0.0, 2.0, 0.5])
    assert res.objective == -4.0 and res.iterations == 0


def test_the_slack_basis_as_warm_start_is_the_cold_start():
    # The cold start is the slack basis sent through the warm-start path:
    # passing it explicitly pivots identically and ends at the same bytes.
    model = lp.build_model(gen.gen_random((8, 6, 16), "avg", seed=0))
    for args in (_boxed_lp(), (model.obj, model.layout, model.senses, model.rhs,
                               model.lb, model.ub)):
        n, m = args[1].n, args[1].m
        slack = simplex.Basis(np.arange(n, n + m), np.zeros(n + m, dtype=np.int8))
        cold = simplex.solve(*args)
        warm = simplex.solve(*args, warm=slack)
        assert warm.warm_started and not cold.warm_started
        assert warm.iterations == cold.iterations > 0
        assert warm.x.tobytes() == cold.x.tobytes()
        assert np.array_equal(warm.basis.columns, cold.basis.columns)
        assert np.array_equal(warm.basis.status, cold.basis.status)


def _row_norm_error(state):
    """Largest relative error of the steepest-edge weights against B^-1's row norms."""
    fresh = np.einsum("ij,ij->j", state.binvt, state.binvt)
    return np.max(np.abs(state.beta - fresh) / fresh)


def test_updated_inverse_matches_a_fresh_factorization(monkeypatch):
    # A few hundred rank-1 updates of the transposed inverse, with no
    # refactorization in between, agree with factorizing the same basis,
    # and the steepest-edge weights that follow them stay B^-1's row norms:
    # ones at the slack basis, recomputed by a refresh and a warm start.
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 300)
    model = lp.build_model(gen.gen_random((10, 10, 30), "avg", seed=0))
    args = (model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub)
    state = simplex._Revised(*args)
    assert np.array_equal(state.beta, np.ones(state.m))
    with pytest.raises(simplex.SimplexError, match="iteration limit"):
        state.run()
    assert state.iterations == 300 and state.since_refresh >= 200
    assert state.binvt.flags.c_contiguous
    assert np.max(np.abs(state.binvt - state._factorize())) <= 1e-9
    assert _row_norm_error(state) <= 1e-9
    state._refresh()
    assert _row_norm_error(state) == 0.0
    monkeypatch.undo()
    warm = simplex._Revised(*args, warm=simplex.solve(*args).basis)
    assert warm.warm_started and not np.array_equal(warm.beta, np.ones(warm.m))
    assert _row_norm_error(warm) == 0.0


def test_steepest_edge_picks_the_leaving_row(monkeypatch):
    # From the basis (x1, x0), B^-1 = [[1, 0], [-3, 1]]: row 0 holds x1 = 2
    # (violation 1, beta 1) and row 1 holds x0 = 2.5 (violation 1.5, beta
    # 10). The largest violation is row 1, but 1^2 / 1 > 1.5^2 / 10, so
    # steepest edge takes row 0; Bland's rule takes x0, the lowest index.
    a = simplex.Layout.from_dense(np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]]))
    status = np.array([2, 2, 0, 0, 0, 0], dtype=np.int8)
    warm = simplex.Basis(np.array([1, 0]), status)
    state = simplex._Revised(np.array([0.0, 0.0, 1.0, 1.0]), a, ["<=", "<="],
                             np.array([2.0, 8.5]), np.zeros(4), np.ones(4), warm=warm)
    assert state.warm_started
    assert np.allclose(state.values[state.basis], [2.0, 2.5])
    assert np.allclose(state.beta, [1.0, 10.0])
    assert state._leaving(bland=True)[0] == 1
    assert state._leaving(bland=False) == (0, False, pytest.approx(1.0))
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 1)
    with pytest.raises(simplex.SimplexError, match="iteration limit"):
        state.run()
    # The first dual pivot moved x1 out of row 0; x0 is still basic in row 1.
    assert state.basis[0] != 1 and state.basis[1] == 0
    assert state.status[1] == simplex._AT_UB


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
# thread; any change to the pivot path or the rounding of B^-1 moves them.
# (sizes, regime, colors, mode) -> (iterations, sha256 of x bytes).
PINNED = [
    (((8, 6, 16), "avg", None, "full"),
     (150, "6825b061a76e717a5b6683dd682657499903492055c70d40a3353ca2aec02d3b")),
    (((8, 6, 16), "avg", None, "transmission"),
     (68, "7333270dd82cbae809ba543bffc0d01311482ff63c30f92130b5861dd1527435")),
    (((2, 10, 20), "low", 5, "full"),
     (146, "707e74f0eabcb7b626cf5c87b97d545a9036a3a3a5f738e8e1a7a7c02ec0a83f")),
]

_PIN_SCRIPT = """
import hashlib, json, sys
from overcast import gen, lp, simplex
from overcast.model import instance_from_doc
out = []
for (sizes, regime, colors, mode), _ in json.loads(sys.argv[1]):
    inst = gen.gen_random(tuple(sizes), regime, seed=0, colors=colors)
    model = lp.build_model(instance_from_doc({**inst.to_doc(), "mode": mode}))
    res = simplex.solve(model.obj, model.layout, model.senses, model.rhs, model.lb, model.ub)
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
    # Seed 7 still branches; most 2x2x4 draws close at the root.
    model = lp.build_model(gen.gen_random((2, 2, 4), "avg", seed=7))
    sol = lp.solve_ip(model)
    assert sol.status == "optimal" and sol.nodes > 1
    assert calls[0][0] is None
    assert len(calls) > 2
    assert all(warm is not None for warm, _ in calls[1:])
    assert all(res.warm_started for _, res in calls[1:])
