"""Stage-two box building and the box assignment LP."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from overcast import gapflow, gen, lp, pipeline, rounding, simplex
from overcast.model import normalize


def two_path_doc():
    return {
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


def draw_from(model, x_masses):
    """Semi-integral draw with the given relay masses and full support."""
    values = np.zeros(model.nvars)
    for idx in model.z_index.values():
        values[idx] = 1.0
    for idx in model.y_index.values():
        values[idx] = 1.0
    for key, mass in x_masses.items():
        values[model.x_index[key]] = mass
    return rounding.SemiIntegralSolution(model=model, values=values, attempt=0)


def random_feasible_doc(rng, n_refl, n_sinks):
    doc = {
        "sources": [{"id": "s0"}],
        "reflectors": [
            {"id": f"r{i}", "cost": float(rng.uniform(5, 50)), "fanout": n_sinks}
            for i in range(n_refl)
        ],
        "sinks": [
            {"id": f"d{j}", "stream": "s0", "loss_threshold": 0.5} for j in range(n_sinks)
        ],
        "src_edges": [
            {
                "from": "s0",
                "to": f"r{i}",
                "loss": float(rng.uniform(0.005, 0.05)),
                "cost": float(rng.uniform(1, 10)),
            }
            for i in range(n_refl)
        ],
        "refl_edges": [
            {
                "from": f"r{i}",
                "to": f"d{j}",
                "loss": float(rng.uniform(0.005, 0.05)),
                "cost": float(rng.uniform(1, 10)),
            }
            for i in range(n_refl)
            for j in range(n_sinks)
            if rng.random() < 0.9 or i == 0
        ],
    }
    src_loss = {(e["from"], e["to"]): e["loss"] for e in doc["src_edges"]}
    refl_loss = {(e["from"], e["to"]): e["loss"] for e in doc["refl_edges"]}
    for rec in doc["sinks"]:
        best = 0.0
        for i in range(n_refl):
            key1, key2 = ("s0", f"r{i}"), (f"r{i}", rec["id"])
            if key1 in src_loss and key2 in refl_loss:
                p = src_loss[key1] + refl_loss[key2] - src_loss[key1] * refl_loss[key2]
                best = max(best, -math.log2(p))
        rec["loss_threshold"] = float(2.0 ** (-float(rng.uniform(0.5, 0.95)) * best))
    return doc


def test_two_parallel_boxes_assign_one_each():
    model = lp.build_model(normalize(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.5, ("s0", "r1", "d0"): 0.5})
    res = gapflow.run_gap_stage(sol)
    assert res.x_tilde == {("s0", "r0", "d0"): 0.5, ("s0", "r1", "d0"): 0.5}
    assert res.box_servers == {("d0", 0): "r0", ("d0", 1): "r1"}
    assert res.mass_cost == pytest.approx(0.5 * 1.0 + 0.5 * 1.5)
    plan = res.plan
    assert [b.fragments for b in plan.boxes["d0"]] == [[("r0", 0.5)], [("r1", 0.5)]]
    assert plan.dropped["d0"] is None


def test_strictly_partial_last_box_dropped():
    model = lp.build_model(normalize(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.5, ("s0", "r1", "d0"): 0.3})
    res = gapflow.run_gap_stage(sol)
    assert res.x_tilde == {("s0", "r0", "d0"): 0.5}
    assert res.plan.dropped["d0"].fragments == [("r1", pytest.approx(0.3))]
    # Kept weight is one half of the full 2-bit demand, over the 1/4 floor.
    assert sol.model.inst.path_weight("s0", "r0", "d0") * 0.5 == pytest.approx(1.0)


def test_split_fragment_lets_cheap_pair_serve_both_boxes():
    model = lp.build_model(normalize(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.6, ("s0", "r1", "d0"): 0.4})
    res = gapflow.run_gap_stage(sol)
    # Box 1 holds fragments of both pairs; r0's relay edge is cheaper, so the
    # LP doubles up on r0 and never opens r1.
    assert res.x_tilde == {("s0", "r0", "d0"): 1.0}
    assert res.box_servers == {("d0", 0): "r0", ("d0", 1): "r0"}
    boxes = res.plan.boxes["d0"]
    assert boxes[1].fragments == [
        ("r0", pytest.approx(0.1)),
        ("r1", pytest.approx(0.4)),
    ]


def test_mass_floor_enforced():
    model = lp.build_model(normalize(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.3, ("s0", "r1", "d0"): 0.3})
    with pytest.raises(gapflow.GapStageError):
        gapflow.build_boxes(sol)


def test_zero_demand_sink_gets_no_boxes():
    doc = two_path_doc()
    doc["sinks"].append({"id": "d1", "stream": "s0", "loss_threshold": 1.0})
    doc["refl_edges"].append({"from": "r0", "to": "d1", "loss": 0.1, "cost": 1.0})
    model = lp.build_model(normalize(doc))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.5, ("s0", "r1", "d0"): 0.5})
    res = gapflow.run_gap_stage(sol)
    assert "d1" not in res.plan.boxes
    assert all(j != "d1" for (_k, _i, j) in res.x_tilde)


def brute_force_best_assignment(model, plan):
    """Cheapest feasible box->reflector assignment, by enumeration."""
    boxes = [box for d in model.inst.sinks if d.id in plan.boxes for box in plan.boxes[d.id]]
    choices = [box.reflectors for box in boxes]
    best = math.inf
    for pick in itertools.product(*choices):
        pair_count = {}
        refl_count = {}
        for box, i in zip(boxes, pick):
            pair_count[(i, box.sink)] = pair_count.get((i, box.sink), 0) + 1
            refl_count[i] = refl_count.get(i, 0) + 1
        if any(v > 2 for v in pair_count.values()):
            continue
        if any(refl_count[i] > 4 * model.capacities[i] for i in refl_count):
            continue
        sink_stream = {d.id: d.stream for d in model.inst.sinks}
        cost = sum(
            float(model.obj[model.x_index[(sink_stream[j], i, j)]]) * n / 2.0
            for (i, j), n in pair_count.items()
        )
        best = min(best, cost)
    return best


def test_random_draws_meet_guarantees_and_optimality():
    rng = np.random.default_rng(2026)
    checked = 0
    for trial in range(12):
        doc = random_feasible_doc(rng, n_refl=int(rng.integers(2, 4)), n_sinks=int(rng.integers(2, 4)))
        model = lp.build_model(normalize(doc))
        try:
            frac = lp.solve_lp(model)
        except lp.InfeasibleError:
            continue
        cfg = rounding.RoundingConfig(multiplier=8.0, seed=trial)
        try:
            sol = rounding.round_with_retries(frac, cfg)
        except rounding.RoundingRetriesExhausted:
            continue
        res = gapflow.run_gap_stage(sol)
        for value in res.x_tilde.values():
            assert value in (0.5, 1.0)
        for d in model.inst.sinks:
            if d.weight_threshold <= 0:
                continue
            kept = sum(
                model.inst.path_weight(k, i, j) * v
                for (k, i, j), v in res.x_tilde.items()
                if j == d.id
            )
            assert kept >= 0.25 * d.weight_threshold - 1e-6
        drawn_relay = sum(
            float(model.obj[xi] * sol.values[xi]) for xi in model.x_index.values()
        )
        assert res.mass_cost <= drawn_relay + 1e-6
        if res.plan.total_boxes <= 6:
            best = brute_force_best_assignment(model, res.plan)
            assert res.mass_cost == pytest.approx(best, abs=1e-9)
        checked += 1
    assert checked >= 6


def test_gap_stage_deterministic():
    model = lp.build_model(normalize(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.6, ("s0", "r1", "d0"): 0.4})
    a = gapflow.run_gap_stage(sol)
    b = gapflow.run_gap_stage(sol)
    assert a.x_tilde == b.x_tilde
    assert a.box_servers == b.box_servers


def ladder_draw(size):
    """The accepted draw `run_approx` makes on the seed-0 avg instance of `size`."""
    inst = gen.gen_random(size, "avg", seed=0)
    frac = lp.solve_lp(lp.build_model(inst))
    cfg = rounding.RoundingConfig(multiplier=pipeline.default_multiplier(inst), seed=0)
    return rounding.round_with_retries(frac, cfg)


def milp_best_assignment(model, plan):
    """Cheapest feasible box->reflector assignment, by HiGHS's MILP."""
    sink_stream = {d.id: d.stream for d in model.inst.sinks}
    boxes = [box for d in model.inst.sinks if d.id in plan.boxes for box in plan.boxes[d.id]]
    cols = [(n, i, box.sink) for n, box in enumerate(boxes) for i in box.reflectors]
    pairs = sorted({(i, j) for _n, i, j in cols})
    refls = sorted({i for _n, i, _j in cols})
    per_box = np.array([[n == b for b, _i, _j in cols] for n in range(len(boxes))], float)
    per_pair = np.array([[(i, j) == pair for _b, i, j in cols] for pair in pairs], float)
    per_refl = np.array([[i == r for _b, i, _j in cols] for r in refls], float)
    cost = [float(model.obj[model.x_index[(sink_stream[j], i, j)]]) / 2.0 for _b, i, j in cols]
    res = milp(
        cost,
        constraints=[
            LinearConstraint(per_box, 1, 1),
            LinearConstraint(per_pair, 0, 2),
            LinearConstraint(per_refl, 0, [4 * model.capacities[r] for r in refls]),
        ],
        integrality=np.ones(len(cols)),
        bounds=Bounds(0, 1),
    )
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize(
    "size", [(8, 6, 16), (10, 10, 30), (12, 12, 40)], ids=lambda size: "x".join(map(str, size))
)
def test_ladder_assignment_matches_the_milp_optimum(size):
    # Brute force reaches only a handful of boxes; these draws have 38-94.
    sol = ladder_draw(size)
    res = gapflow.run_gap_stage(sol)
    assert res.plan.total_boxes >= 38
    assert res.mass_cost == pytest.approx(milp_best_assignment(sol.model, res.plan), abs=1e-9)


GAP_STAGE_SCRIPT = """
import json, sys
import numpy as np
from overcast import gapflow, gen, lp, rounding
arg = json.loads(sys.argv[1])
model = lp.build_model(gen.gen_random((12, 12, 40), "avg", seed=0))
sol = rounding.SemiIntegralSolution(model, np.load(arg["values"]), attempt=0)
res = gapflow.run_gap_stage(sol)
print(json.dumps({
    "x_tilde": [[*key, v] for key, v in res.x_tilde.items()],
    "box_servers": sorted([*key, i] for key, i in res.box_servers.items()),
}))
"""


def test_gap_stage_agrees_across_blas_threads(blas_threads, tmp_path):
    # The LP relaxation still rounds differently at 1 and 2 threads, so the
    # draw is made once here and only stage two runs in the children.
    sol = ladder_draw((12, 12, 40))
    path = tmp_path / "values.npy"
    np.save(path, sol.values)
    arg = {"values": str(path)}
    one, two = (blas_threads(GAP_STAGE_SCRIPT, arg, threads) for threads in (1, 2))
    assert one == two
    assert len(one["box_servers"]) == gapflow.build_boxes(sol).total_boxes


@pytest.mark.parametrize("outcome", ["fractional", "infeasible"])
def test_a_non_integral_or_failed_assignment_lp_raises(monkeypatch, outcome):
    model = lp.build_model(normalize(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.6, ("s0", "r1", "d0"): 0.4})
    solve = simplex.solve

    def broken(*args, **kwargs):
        res = solve(*args, **kwargs)
        if outcome == "fractional":
            # Rounds back to the optimum, so only the integrality check sees it.
            return dataclasses.replace(res, x=0.5 * res.x + 0.25)
        return simplex.LpResult(simplex.INFEASIBLE, None, None)

    monkeypatch.setattr(gapflow.simplex, "solve", broken)
    with pytest.raises(gapflow.GapStageError):
        gapflow.run_gap_stage(sol)
