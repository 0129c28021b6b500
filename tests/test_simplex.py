"""Simplex core vs scipy's HiGHS on randomized LPs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import overcast
from overcast import simplex


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
    ub = np.where(rng.random(n) < 0.8, rng.uniform(0.5, 3.0, size=n), np.inf)
    # A few fixed variables exercise the degenerate-bound path.
    fixed = rng.random(n) < 0.1
    ub[fixed] = lb[fixed]
    return c, a, senses, b, lb, ub


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
        ours = simplex.solve(c, a, senses, b, lb, ub)
        ref = scipy_solve(c, a, senses, b, lb, ub)
        if ref.status == 2:
            assert ours.status == simplex.INFEASIBLE, (c, a, senses, b, lb, ub)
            infeasible += 1
        elif ref.status == 3:
            assert ours.status == simplex.UNBOUNDED
        elif ref.status == 0:
            assert ours.status == simplex.OPTIMAL, (ours.status, c, a, senses, b, lb, ub)
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            solved += 1
    # The generator must actually exercise both outcomes.
    assert solved > 100
    assert infeasible > 20


def test_solution_satisfies_rows():
    rng = np.random.default_rng(11)
    for _ in range(120):
        c, a, senses, b, lb, ub = random_lp(rng)
        ours = simplex.solve(c, a, senses, b, lb, ub)
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
    first = simplex.solve(c, a, senses, b, lb, ub)
    second = simplex.solve(c, a, senses, b, lb, ub)
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
    res = simplex.solve(
        c=[-1.0, -1.0, -1.0],
        a=a,
        senses=["<="] * 5,
        b=[0.0, 0.0, 0.0, 0.0, 0.0],
        lb=np.zeros(3),
        ub=np.ones(3),
    )
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_unbounded_detected():
    res = simplex.solve(
        c=[-1.0],
        a=np.array([[0.0]]),
        senses=["<="],
        b=[1.0],
        lb=[0.0],
        ub=[np.inf],
    )
    assert res.status == simplex.UNBOUNDED


def test_refreshes_once_per_phase_on_slot_free_tableau():
    # Rows: '>=' and '==' start violated (artificials), '<=' starts feasible.
    a = np.array([
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
    ])
    c, b = np.array([1.0, 2.0, 1.5]), np.array([1.0, 1.5, 1.0])
    args = (c, a, [">=", "<=", "=="], b, np.zeros(3), np.ones(3))
    tab = simplex._Tableau(*args, max_iterations=1000)
    n, slack_rows, art_rows = 3, 2, 2
    assert tab.t.shape == (3, n + slack_rows + art_rows)
    res = tab.run()
    assert res.status == simplex.OPTIMAL
    assert 0 < res.iterations < simplex._REFRESH_EVERY
    assert res.refreshes == 2  # the confirming refactorization of each phase
    assert res.objective == pytest.approx(1.5)
    assert simplex.solve(*args).refreshes == 2


# Pivot counts and optimal vertices recorded with the dense-update tableau;
# the sparse update must reproduce them bit for bit.
# (sizes, regime, colors, mode) -> (iterations, sha256 of x bytes).
PINNED = [
    (((8, 6, 16), "avg", None, "full"),
     (218, "4bad09e53dffcfcefcc819a4a3aaa59996f154ce1ecfc42e0dcaa29bb34227fb")),
    (((8, 6, 16), "avg", None, "transmission"),
     (229, "9765024e68eb690237d10fb53034180b71cddbee718a126a0358d72ac3a8c131")),
    (((2, 10, 20), "low", 5, "full"),
     (348, "23d27311f1ae0b9bb8464a898b8411f9702451d6c20981312fda7f2461213f1d")),
]

_PIN_SCRIPT = """
import hashlib, json, sys
from overcast import gen, lp, simplex
out = []
for (sizes, regime, colors, mode), _ in json.loads(sys.argv[1]):
    inst = gen.gen_random(tuple(sizes), regime, seed=0, colors=colors)
    model = lp.build_model(inst, lp.ModeOptions(mode=mode, colors=inst.colors_enabled))
    c, a, senses, b = model.arrays()
    res = simplex.solve(c, a, senses, b, model.lb, model.ub)
    out.append([res.iterations, hashlib.sha256(res.x.tobytes()).hexdigest()])
print(json.dumps(out))
"""


def test_pivots_pinned():
    # OpenBLAS's LU (np.linalg.solve) rounds differently with more than one
    # thread, so the pins hold for one BLAS thread (the benchmark's setting);
    # the solves run in a child process pinned to it.
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(overcast.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PIN_SCRIPT, json.dumps(PINNED)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = [tuple(row) for row in json.loads(proc.stdout)]
    assert got == [pin for _, pin in PINNED]
