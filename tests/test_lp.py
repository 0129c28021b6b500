"""LP/IP layer: formulation shape, relaxation optima, branch and bound."""

import itertools
import math

import numpy as np
import pytest
from scipy import optimize as sciopt

from overcast import lp, simplex
from overcast.gen import gen_random
from overcast.model import Instance, instance_from_doc


def two_path_doc(mode="full"):
    # Two parallel relay paths to one sink; both clamp to the full threshold
    # weight, so the solvers just pick the cheaper path.
    return {
        "mode": mode,
        "sources": [{"id": "s0"}],
        "reflectors": [
            {"id": "r0", "cost": 5.0, "fanout": 4},
            {"id": "r1", "cost": 3.0, "fanout": 4},
        ],
        "sinks": [{"id": "d0", "stream": "s0", "loss_threshold": 0.25}],
        "src_edges": [
            {"from": "s0", "to": "r0", "loss": 0.1, "cost": 1.0},
            {"from": "s0", "to": "r1", "loss": 0.15, "cost": 2.0},
        ],
        "refl_edges": [
            {"from": "r0", "to": "d0", "loss": 0.1, "cost": 1.0},
            {"from": "r1", "to": "d0", "loss": 0.1, "cost": 1.5},
        ],
    }


def random_doc(rng, n_refl=3, n_sinks=3, n_streams=1, mode="full", tight=False, bandwidth=False):
    sources = []
    for t in range(n_streams):
        rec = {"id": f"s{t}"}
        if bandwidth:
            rec["bitrate"] = 2.0
        sources.append(rec)
    reflectors = []
    for i in range(n_refl):
        fan = int(rng.integers(1, 3)) if tight else n_sinks * n_streams
        rec = {"id": f"r{i}", "cost": float(rng.uniform(5, 50)), "fanout": fan}
        if bandwidth:
            rec["bandwidth"] = 2.0 * fan
        reflectors.append(rec)
    sinks = [
        {"id": f"d{j}", "stream": f"s{int(rng.integers(n_streams))}", "loss_threshold": 0.5}
        for j in range(n_sinks)
    ]

    src_edges = []
    for t in range(n_streams):
        for i in range(n_refl):
            if i == 0 or rng.random() < 0.9:
                src_edges.append(
                    {
                        "from": f"s{t}",
                        "to": f"r{i}",
                        "loss": float(rng.uniform(0.005, 0.05)),
                        "cost": float(rng.uniform(1, 10)),
                    }
                )
    refl_edges = []
    for i in range(n_refl):
        for j in range(n_sinks):
            if i == 0 or rng.random() < 0.9:
                refl_edges.append(
                    {
                        "from": f"r{i}",
                        "to": f"d{j}",
                        "loss": float(rng.uniform(0.005, 0.05)),
                        "cost": float(rng.uniform(1, 10)),
                    }
                )

    # Pick per-sink thresholds a single best path can meet, so ample-fanout
    # instances are always feasible; tight ones may or may not be.
    src_loss = {(e["from"], e["to"]): e["loss"] for e in src_edges}
    refl_loss = {(e["from"], e["to"]): e["loss"] for e in refl_edges}
    for rec in sinks:
        k = rec["stream"]
        best = 0.0
        for i in range(n_refl):
            key1, key2 = (k, f"r{i}"), (f"r{i}", rec["id"])
            if key1 in src_loss and key2 in refl_loss:
                p = src_loss[key1] + refl_loss[key2] - src_loss[key1] * refl_loss[key2]
                best = max(best, -math.log2(p))
        target = float(rng.uniform(0.5, 0.95)) * best
        rec["loss_threshold"] = float(2.0 ** (-target))

    return {
        "mode": mode,
        "bandwidth_enabled": bandwidth,
        "sources": sources,
        "reflectors": reflectors,
        "sinks": sinks,
        "src_edges": src_edges,
        "refl_edges": refl_edges,
    }


def setcover_doc(sets, n_elems):
    universe = range(n_elems)
    return {
        "sources": [{"id": "s"}],
        "reflectors": [
            {"id": f"A{t}", "cost": 1.0, "fanout": n_elems} for t in range(len(sets))
        ],
        "sinks": [{"id": f"e{u}", "stream": "s", "loss_threshold": 0.5} for u in universe],
        "src_edges": [
            {"from": "s", "to": f"A{t}", "loss": 0.0, "cost": 0.0} for t in range(len(sets))
        ],
        "refl_edges": [
            {"from": f"A{t}", "to": f"e{u}", "loss": 0.5, "cost": 0.0}
            for t, members in enumerate(sets)
            for u in sorted(members)
        ],
    }


def scipy_opt(model, integral):
    c, a, senses, b = model.arrays()
    lo = np.array([b[r] if senses[r] in (">=", "=") else -np.inf for r in range(len(b))])
    hi = np.array([b[r] if senses[r] in ("<=", "=") else np.inf for r in range(len(b))])
    return sciopt.milp(
        c,
        constraints=[sciopt.LinearConstraint(a, lo, hi)],
        integrality=np.full(model.nvars, 1 if integral else 0),
        bounds=sciopt.Bounds(model.lb, model.ub),
        options={"mip_rel_gap": 0.0},
    )


def test_build_shape_and_order():
    model = lp.build_model(Instance(two_path_doc()))
    # Variables run z, then y, then x, each in instance order.
    assert model.z_index == {"r0": 0, "r1": 1}
    assert model.y_index == {("s0", "r0"): 2, ("s0", "r1"): 3}
    assert model.x_index == {("s0", "r0", "d0"): 4, ("s0", "r1", "d0"): 5}
    assert model.nvars == 6
    # Each y's parent is its z column, each x's its y column.
    assert model.y_parent.tolist() == [0, 1]
    assert model.x_parent.tolist() == [2, 3]
    # Both raw path weights exceed the demand of 2 bits, so both clamp to it.
    assert model.sink_routes == {"d0": [("r0", 4, 2.0), ("r1", 5, 2.0)]}
    assert model.rows == [
        "feed_use[s0,r0]", "feed_use[s0,r1]",
        "relay_use[s0,r0,d0]", "relay_use[s0,r1,d0]",
        "fanout[r0]", "fanout[r1]",
        "feed_fanout[s0,r0]", "feed_fanout[s0,r1]",
        "weight[d0]",
    ]
    assert {kind: list(rows) for kind, rows in model.families.items()} == {
        "feed-use": [0, 1], "relay-use": [2, 3], "fanout": [4, 5], "feed-fanout": [6, 7],
        "weight": [8],
    }
    # Full-mode objective: fixed costs on z, first hop on y, second hop on x.
    assert model.obj.tolist() == [5.0, 3.0, 1.0, 2.0, 1.0, 1.5]
    (w,) = model.families["weight"]
    assert model.senses[w] == ">="
    assert model.rhs[w] == pytest.approx(2.0)
    # A column's activity is its column of A: the weight row reads both x.
    unit = np.eye(model.nvars)
    assert [model.activity(unit[xi])[w] for xi in (4, 5)] == pytest.approx([2.0, 2.0])


def test_transmission_objective_folds_edge_costs():
    model = lp.build_model(Instance(two_path_doc(mode="transmission")))
    assert model.obj.tolist() == [0.0, 0.0, 0.0, 0.0, 2.0, 3.5]


def test_two_path_optima_by_hand():
    model = lp.build_model(Instance(two_path_doc()))
    frac = lp.solve_lp(model)
    # Cheapest full path: r1 at 3 + 2 + 1.5.
    assert frac.objective == pytest.approx(6.5, abs=1e-9)
    res = lp.solve_ip(model)
    assert res.objective == pytest.approx(6.5, abs=1e-9)
    assert res.status == "optimal"

    tmodel = lp.build_model(Instance(two_path_doc(mode="transmission")))
    assert lp.solve_lp(tmodel).objective == pytest.approx(2.0, abs=1e-9)


def test_lp_matches_highs_on_random_instances():
    rng = np.random.default_rng(20260822)
    solved = infeasible = 0
    for trial in range(40):
        doc = random_doc(
            rng,
            n_refl=int(rng.integers(2, 5)),
            n_sinks=int(rng.integers(2, 5)),
            n_streams=int(rng.integers(1, 3)),
            tight=trial % 3 == 0,
        )
        model = lp.build_model(Instance(doc))
        ref = scipy_opt(model, integral=False)
        try:
            frac = lp.solve_lp(model)
        except lp.InfeasibleError:
            assert ref.status == 2, f"trial {trial}: scipy found it feasible"
            infeasible += 1
            continue
        assert ref.status == 0, f"trial {trial}: scipy disagrees ({ref.status})"
        assert frac.objective == pytest.approx(ref.fun, abs=1e-6)
        assert not model.check_rows(frac.values)
        solved += 1
    assert solved >= 25
    assert infeasible >= 1


LADDER_LPS = [
    ((8, 6, 16), "avg", None, "full"),
    ((8, 6, 16), "avg", None, "transmission"),
    ((10, 10, 30), "avg", None, "full"),
    ((10, 10, 30), "avg", None, "transmission"),
    ((12, 12, 40), "avg", None, "full"),
    ((12, 12, 40), "avg", None, "transmission"),
    ((2, 10, 20), "low", 5, "full"),
]


@pytest.mark.parametrize(
    "sizes, regime, colors, mode",
    LADDER_LPS,
    ids=["x".join(map(str, sizes)) + f"-{regime}-{mode}" for sizes, regime, _, mode in LADDER_LPS],
)
def test_lp_matches_highs_on_ladder_instances(sizes, regime, colors, mode):
    inst = gen_random(sizes, regime, seed=0, colors=colors)
    model = lp.build_model(instance_from_doc({**inst.to_doc(), "mode": mode}))
    c, a, senses, b = model.arrays()
    senses = np.asarray(senses)
    sign = np.where(senses == ">=", -1.0, 1.0)[:, None]
    ineq, eq = senses != "==", senses == "=="
    ref = sciopt.linprog(
        c,
        A_ub=(a * sign)[ineq] if ineq.any() else None,
        b_ub=(b * sign[:, 0])[ineq] if ineq.any() else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=np.column_stack([model.lb, model.ub]),
        method="highs",
    )
    assert ref.status == 0
    assert lp.solve_lp(model).objective == pytest.approx(ref.fun, rel=1e-7)


def test_ip_matches_milp_on_random_instances():
    rng = np.random.default_rng(7)
    solved = 0
    for trial in range(20):
        doc = random_doc(
            rng,
            n_refl=3,
            n_sinks=3,
            tight=trial % 2 == 0,
        )
        model = lp.build_model(Instance(doc))
        ref = scipy_opt(model, integral=True)
        try:
            res = lp.solve_ip(model)
        except lp.InfeasibleError:
            assert ref.status == 2
            continue
        assert ref.status == 0
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-6)
        assert not model.check_rows(res.values)
        assert np.all(np.abs(res.values - np.round(res.values)) < 1e-9)
        solved += 1
    assert solved >= 10


def test_search_rows_keep_the_milp_optimum():
    # The cardinality rows cut only fractional points: the search's optimum
    # equals HiGHS's MILP optimum over the model's own rows.
    models = [
        lp.build_model(gen_random(sizes, "avg", seed=seed))
        for sizes in ((2, 2, 4), (2, 3, 6))
        for seed in range(15)
    ]
    covers = [[{0, 1}, {1, 2}, {2}], [{0, 1}, {1, 2}, {0, 2}]]
    models += [lp.build_model(Instance(setcover_doc(sets, 3))) for sets in covers]
    strengthened = 0
    for model in models:
        ref = scipy_opt(model, integral=True)
        res = lp.solve_ip(model)
        assert ref.status == 0 and res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, rel=1e-7)
        assert not model.check_rows(res.values)
        strengthened += lp.search_rows(model)[0].m > model.layout.m
    assert strengthened >= 20


def test_ip_matches_bruteforce_tiny():
    rng = np.random.default_rng(99)
    for trial in range(6):
        doc = random_doc(rng, n_refl=2, n_sinks=2, tight=trial % 2 == 0)
        model = lp.build_model(Instance(doc))
        best = math.inf
        for bits in itertools.product((0.0, 1.0), repeat=model.nvars):
            v = np.array(bits)
            if not model.check_rows(v):
                best = min(best, float(model.obj @ v))
        try:
            res = lp.solve_ip(model)
        except lp.InfeasibleError:
            assert best == math.inf
            continue
        assert best < math.inf
        assert res.objective == pytest.approx(best, abs=1e-9)


def test_setcover_reduction_reaches_cover_optimum():
    doc = setcover_doc([{0, 1}, {1, 2}, {2}], 3)
    model = lp.build_model(Instance(doc))
    res = lp.solve_ip(model)
    assert res.objective == pytest.approx(2.0, abs=1e-9)
    chosen = [i for i, idx in model.z_index.items() if res.values[idx] > 0.5]
    assert len(chosen) == 2 and "A0" in chosen


def test_weight_deficit_certificate():
    doc = two_path_doc()
    doc["sinks"][0]["loss_threshold"] = 1e-6  # demands ~19.9 bits, only 4 attainable
    model = lp.build_model(Instance(doc))
    with pytest.raises(lp.InfeasibleError) as err:
        lp.solve_lp(model)
    cert = err.value.certificate
    assert cert["kind"] == "weight-rows"
    assert cert["rows"][0]["sink"] == "d0"
    assert cert["rows"][0]["demanded"] > cert["rows"][0]["attainable"]


def test_unreachable_sink_certificate_is_a_weight_row():
    doc = two_path_doc()
    doc["sinks"].append({"id": "d1", "stream": "s0", "loss_threshold": 0.25})  # no edge
    model = lp.build_model(Instance(doc))
    for solve in (lp.solve_lp, lp.solve_ip):
        with pytest.raises(lp.InfeasibleError) as err:
            solve(model)
        cert = err.value.certificate
        assert cert["kind"] == "weight-rows"
        assert cert["rows"] == [{"sink": "d1", "demanded": pytest.approx(2.0), "attainable": 0}]


def test_capacity_infeasibility_detected_in_phase1():
    # One reflector with fan-out 1, two sinks that each need ~all of one path.
    doc = {
        "sources": [{"id": "s0"}],
        "reflectors": [{"id": "r0", "cost": 1.0, "fanout": 1}],
        "sinks": [
            {"id": "d0", "stream": "s0", "loss_threshold": 0.22},
            {"id": "d1", "stream": "s0", "loss_threshold": 0.22},
        ],
        "src_edges": [{"from": "s0", "to": "r0", "loss": 0.1, "cost": 1.0}],
        "refl_edges": [
            {"from": "r0", "to": "d0", "loss": 0.1, "cost": 1.0},
            {"from": "r0", "to": "d1", "loss": 0.1, "cost": 1.0},
        ],
    }
    model = lp.build_model(Instance(doc))
    assert model.weight_feasibility_certificate() is None
    with pytest.raises(lp.InfeasibleError) as err:
        lp.solve_lp(model)
    assert err.value.certificate["kind"] == "phase1"
    with pytest.raises(lp.InfeasibleError):
        lp.solve_ip(model)


def test_bandwidth_rows_and_capacities():
    rng = np.random.default_rng(3)
    doc = random_doc(rng, n_refl=3, n_sinks=3, bandwidth=True)
    model = lp.build_model(Instance(doc))
    assert all(model.rows[r].startswith("bandwidth[") for r in model.families["fanout"])
    assert all(model.rows[r].startswith("bandwidth_feed[") for r in model.families["feed-fanout"])
    # Uniform bitrate 2.0 and caps 2*fanout give back the original fan-outs.
    for rec in doc["reflectors"]:
        assert model.capacities[rec["id"]] == rec["fanout"]
    ref = scipy_opt(model, integral=False)
    frac = lp.solve_lp(model)
    assert ref.status == 0
    assert frac.objective == pytest.approx(ref.fun, abs=1e-6)


def test_heterogeneous_bitrates_disable_pipeline_capacities():
    rng = np.random.default_rng(4)
    doc = random_doc(rng, n_refl=2, n_sinks=2, n_streams=2, bandwidth=True)
    doc["sinks"][0]["stream"] = "s0"  # keep both streams demanded
    doc["sinks"][1]["stream"] = "s1"
    doc["sources"][0]["bitrate"] = 1.0
    doc["sources"][1]["bitrate"] = 3.0
    inst = Instance(doc)
    model = lp.build_model(inst)
    assert model.capacities is None
    ref = scipy_opt(model, integral=True)
    if ref.status == 0:
        res = lp.solve_ip(model)
        assert res.objective == pytest.approx(ref.fun, abs=1e-6)


@pytest.mark.parametrize("rates", [(2.0, 2.0), (1.0, 3.0)], ids=["uniform", "mixed"])
def test_bandwidth_mode_needs_every_reflector_cap(rates):
    rng = np.random.default_rng(5)
    doc = random_doc(rng, n_refl=3, n_sinks=2, n_streams=2, bandwidth=True)
    doc["sinks"][0]["stream"] = "s0"
    doc["sinks"][1]["stream"] = "s1"
    for rec, rate in zip(doc["sources"], rates):
        rec["bitrate"] = rate
    del doc["reflectors"][1]["bandwidth"]
    with pytest.raises(lp.UnsupportedInstanceError, match="bandwidth cap on reflector r1"):
        lp.build_model(Instance(doc))


def test_approx_hack_keeps_integral_lp_fixings():
    model = lp.build_model(Instance(two_path_doc()))
    frac = lp.solve_lp(model)
    res = lp.approx_hack(frac)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(6.5, abs=1e-9)


def test_approx_hack_falls_back_on_infeasible_fixing():
    model = lp.build_model(Instance(two_path_doc()))
    # Fabricated relaxation point that zeroes every variable: fixing all
    # upper bounds to zero cannot satisfy the weight row, so the whole
    # model is searched instead.
    fake = lp.FractionalSolution(model, np.zeros(model.nvars), 0.0)
    res = lp.approx_hack(fake, budget=lp.TimeBudget(seconds=30.0))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(6.5, abs=1e-9)
    assert not model.check_rows(res.values)


_GAP_SCRIPT = """
import json, sys
from overcast import lp
from overcast.gen import gen_random
out = []
for seed, limit in json.loads(sys.argv[1]):
    model = lp.build_model(gen_random((4, 6, 12), "avg", seed=seed))
    res = lp.solve_ip(model, budget=lp.TimeBudget(node_limit=limit))
    out.append([res.status, res.nodes])
print(json.dumps(out))
"""


def test_exact_solver_closes_the_gap(one_blas_thread):
    # 4x6x12 seeds 0 and 1 prove optimality in 157 and 45 nodes at one BLAS
    # thread; the limits leave 2.5x that. Seed 2 takes about 1900 nodes and
    # is left out for time.
    limits = [[0, 400], [1, 120]]
    for (seed, limit), (status, nodes) in zip(limits, one_blas_thread(_GAP_SCRIPT, limits)):
        assert status == "optimal" and nodes <= limit, (seed, status, nodes)


def test_node_limit_reports_timeout():
    doc = setcover_doc([{0, 1}, {1, 2}, {0, 2}], 3)
    model = lp.build_model(Instance(doc))
    with pytest.raises(lp.NoIncumbentError, match="without incumbent") as err:
        lp.solve_ip(model, budget=lp.TimeBudget(node_limit=0))
    assert err.value.nodes == 0
    assert err.value.bound <= 2.0 + 1e-9


def test_ip_deterministic():
    rng = np.random.default_rng(11)
    doc = random_doc(rng, n_refl=4, n_sinks=4, tight=True)
    model = lp.build_model(Instance(doc))
    try:
        first = lp.solve_ip(model)
    except lp.InfeasibleError:
        return
    second = lp.solve_ip(lp.build_model(Instance(doc)))
    assert first.values.tolist() == second.values.tolist()
    assert first.nodes == second.nodes


def test_solves_share_the_model_layout(monkeypatch):
    # One sparse layout per model for the relaxation, and one search layout
    # (the model's rows plus its cardinality rows) per branch and bound,
    # shared by every node LP; no solve builds the dense A.
    model = lp.build_model(gen_random((2, 2, 4), "avg", seed=7))
    dense = model.arrays()[1]
    same = simplex.Layout.from_dense(dense)
    for name in ("rows", "cols", "vals", "colptr"):
        assert np.array_equal(getattr(model.layout, name), getattr(same, name))

    def no_dense(self):
        raise AssertionError("the solve path built the dense A")

    layouts = []
    solve = simplex.solve

    def recording(c, a, *args, **kwargs):
        layouts.append(a)
        return solve(c, a, *args, **kwargs)

    monkeypatch.setattr(lp.LpModel, "arrays", no_dense)
    monkeypatch.setattr(simplex, "solve", recording)
    lp.solve_lp(model)
    assert layouts == [model.layout]
    sol = lp.solve_ip(model)
    search = layouts[1]
    assert sol.nodes > 1 and len(layouts) > 3
    assert all(a is search for a in layouts[1:])
    assert search.m > model.layout.m and search.n == model.layout.n
