"""Stage-two box building and the box assignment LP."""

import dataclasses
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from overcast import gapflow, gen, lp, pipeline, rounding, simplex
from overcast.model import Instance


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


def fragments(plan, model):
    """Each box's fragments as [(reflector, mass)], boxes in plan order."""
    x0 = model.x_offset
    refl = [model.inst.reflectors[i].id for i in model.x_refl[plan.col - x0]]
    return [
        [(refl[f], plan.mass[f]) for f in np.flatnonzero(plan.box == b)]
        for b in range(plan.total_boxes)
    ]


def test_two_parallel_boxes_assign_one_each():
    model = lp.build_model(Instance(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.5, ("s0", "r1", "d0"): 0.5})
    res = gapflow.run_gap_stage(sol)
    # Box 0 went to r0 and box 1 to r1, each pair serving one half.
    assert res.x_tilde == {("s0", "r0", "d0"): 0.5, ("s0", "r1", "d0"): 0.5}
    assert res.mass_cost == pytest.approx(0.5 * 1.0 + 0.5 * 1.5)
    plan = res.plan
    assert fragments(plan, model) == [[("r0", 0.5)], [("r1", 0.5)]]
    assert plan.col.tolist() == [4, 5] and plan.sink.tolist() == [0, 0]


def test_strictly_partial_last_box_dropped():
    model = lp.build_model(Instance(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.5, ("s0", "r1", "d0"): 0.3})
    res = gapflow.run_gap_stage(sol)
    assert res.x_tilde == {("s0", "r0", "d0"): 0.5}
    # r1's 0.3 fills no box, so the table holds r0's one fragment only.
    assert fragments(res.plan, model) == [[("r0", 0.5)]]
    # Kept weight is one half of the full 2-bit demand, over the 1/4 floor.
    assert sol.model.inst.path_weight("s0", "r0", "d0") * 0.5 == pytest.approx(1.0)


def test_split_fragment_lets_cheap_pair_serve_both_boxes():
    model = lp.build_model(Instance(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.6, ("s0", "r1", "d0"): 0.4})
    res = gapflow.run_gap_stage(sol)
    # Box 1 holds fragments of both pairs; r0's relay edge is cheaper, so the
    # LP doubles up on r0 and never opens r1.
    assert res.x_tilde == {("s0", "r0", "d0"): 1.0}
    assert fragments(res.plan, model)[1] == [
        ("r0", pytest.approx(0.1)),
        ("r1", pytest.approx(0.4)),
    ]


def test_mass_floor_enforced():
    model = lp.build_model(Instance(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.3, ("s0", "r1", "d0"): 0.3})
    with pytest.raises(gapflow.GapStageError):
        gapflow.build_boxes(sol)


def test_zero_demand_sink_gets_no_boxes():
    doc = two_path_doc()
    doc["sinks"].append({"id": "d1", "stream": "s0", "loss_threshold": 1.0})
    doc["refl_edges"].append({"from": "r0", "to": "d1", "loss": 0.1, "cost": 1.0})
    model = lp.build_model(Instance(doc))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.5, ("s0", "r1", "d0"): 0.5})
    res = gapflow.run_gap_stage(sol)
    assert res.plan.sink.tolist() == [0, 0]  # d1, at position 1, has none
    assert all(j != "d1" for (_k, _i, j) in res.x_tilde)


def brute_force_best_assignment(model, plan):
    """Cheapest feasible box->pair assignment, by enumeration; a pair is an
    x column."""
    x0 = model.x_offset
    caps = list(model.capacities.values())
    choices = [plan.col[plan.box == b].tolist() for b in range(plan.total_boxes)]
    best = math.inf
    for pick in itertools.product(*choices):
        pair_count = {}
        refl_count = {}
        for col in pick:
            pair_count[col] = pair_count.get(col, 0) + 1
            i = int(model.x_refl[col - x0])
            refl_count[i] = refl_count.get(i, 0) + 1
        if any(v > 2 for v in pair_count.values()):
            continue
        if any(refl_count[i] > 4 * caps[i] for i in refl_count):
            continue
        cost = sum(float(model.obj[col]) * n / 2.0 for col, n in pair_count.items())
        best = min(best, cost)
    return best


def test_random_draws_meet_guarantees_and_optimality():
    rng = np.random.default_rng(2026)
    checked = 0
    for trial in range(12):
        doc = random_feasible_doc(rng, n_refl=int(rng.integers(2, 4)), n_sinks=int(rng.integers(2, 4)))
        model = lp.build_model(Instance(doc))
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
    model = lp.build_model(Instance(two_path_doc()))
    sol = draw_from(model, {("s0", "r0", "d0"): 0.6, ("s0", "r1", "d0"): 0.4})
    a = gapflow.run_gap_stage(sol)
    b = gapflow.run_gap_stage(sol)
    assert a.x_tilde == b.x_tilde
    assert a.mass_cost == b.mass_cost
    for field in ("col", "box", "mass", "sink"):
        assert getattr(a.plan, field).tobytes() == getattr(b.plan, field).tobytes()


def ladder_draw(size):
    """The accepted draw `run_approx` makes on the seed-0 avg instance of `size`."""
    inst = gen.gen_random(size, "avg", seed=0)
    frac = lp.solve_lp(lp.build_model(inst))
    cfg = rounding.RoundingConfig(multiplier=pipeline.default_multiplier(inst), seed=0)
    return rounding.round_with_retries(frac, cfg)


def milp_best_assignment(model, plan):
    """Cheapest feasible box->pair assignment, by HiGHS's MILP over the
    fragments; a pair is an x column."""
    x0 = model.x_offset
    refl = model.x_refl[plan.col - x0]
    pairs, refls = np.unique(plan.col), np.unique(refl)
    per_box = (plan.box == np.arange(plan.total_boxes)[:, None]).astype(float)
    per_pair = (plan.col == pairs[:, None]).astype(float)
    per_refl = (refl == refls[:, None]).astype(float)
    caps = np.array(list(model.capacities.values()))
    cost = model.obj[plan.col] / 2.0
    res = milp(
        cost,
        constraints=[
            LinearConstraint(per_box, 1, 1),
            LinearConstraint(per_pair, 0, 2),
            LinearConstraint(per_refl, 0, 4 * caps[refls]),
        ],
        integrality=np.ones(plan.col.size),
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


def test_the_assignment_lp_starts_at_the_greedy_assignment(monkeypatch):
    # The start puts each box row on its cheapest fragment (the lowest on
    # ties) and every reflector and pair row on its slack; the solve always
    # takes it, and it reaches the slack basis's assignment on the ladder draws.
    draws = [ladder_draw(size) for size in ((8, 6, 16), (10, 10, 30), (12, 12, 40))]
    solve = simplex.solve
    runs = []

    def recording(c, a, senses, *args, warm=None):
        res = solve(c, a, senses, *args, warm=warm)
        runs.append((c, senses, warm, res))
        return res

    monkeypatch.setattr(gapflow.simplex, "solve", recording)
    warm = [gapflow.run_gap_stage(sol) for sol in draws]
    for (c, senses, start, res), sol in zip(runs, draws):
        assert res.warm_started
        plan = gapflow.build_boxes(sol)
        boxes = senses.count("==")
        n, first_box = c.size, len(senses) - boxes
        assert np.array_equal(start[:first_box], n + np.arange(first_box))
        for b, f in enumerate(start[first_box:]):
            mine = np.flatnonzero(plan.box == b)
            assert f == mine[np.argmin(c[mine])]
    monkeypatch.setattr(gapflow.simplex, "solve", lambda *args, warm=None: solve(*args))
    cold = [gapflow.run_gap_stage(sol) for sol in draws]
    for a, b in zip(warm, cold):
        assert list(a.x_tilde.items()) == list(b.x_tilde.items())
        assert a.mass_cost == b.mass_cost


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
    "mass_cost": repr(res.mass_cost),
    "boxes": res.plan.total_boxes,
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
    assert one["boxes"] == gapflow.build_boxes(sol).total_boxes


@pytest.mark.parametrize("outcome", ["fractional", "infeasible"])
def test_a_non_integral_or_failed_assignment_lp_raises(monkeypatch, outcome):
    model = lp.build_model(Instance(two_path_doc()))
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


def filtered_colored_doc():
    """A transmission-mode colored instance whose drawn r2 route costs over
    four times the draw, so the color stage's cost filter drops it."""
    doc = two_path_doc()
    doc["mode"], doc["colors_enabled"] = "transmission", True
    doc["reflectors"] = [
        {"id": f"r{i}", "cost": 1.0, "fanout": 4, "color": c} for i, c in enumerate((0, 0, 1))
    ]
    doc["sinks"] = [{"id": j, "stream": "s0", "loss_threshold": 0.1} for j in ("d0", "d1")]
    doc["src_edges"] = [
        {"from": "s0", "to": f"r{i}", "loss": 0.1, "cost": 0.5} for i in range(3)
    ]
    doc["refl_edges"] = [
        {"from": f"r{i}", "to": j, "loss": loss, "cost": cost}
        for i, loss, cost in ((0, 0.1, 0.5), (1, 0.1, 0.5), (2, 0.01, 100.0))
        for j in ("d0", "d1")
    ]
    return doc


# The masses `draw_from` gives each route of `filtered_colored_doc`: r2
# carries 0.05 of each sink, at cost 100.5 against a draw of 12.05.
FILTERED_MASSES = {
    ("s0", "r0", "d0"): 0.5, ("s0", "r1", "d0"): 0.5, ("s0", "r2", "d0"): 0.05,
    ("s0", "r0", "d1"): 0.3, ("s0", "r1", "d1"): 0.7, ("s0", "r2", "d1"): 0.05,
}

_STAGE_TWO_SCRIPT = """
import hashlib, json, sys
from overcast import color, gapflow, gen, lp, pipeline, rounding
from test_gapflow import FILTERED_MASSES, draw_from, filtered_colored_doc
from overcast.model import Instance
out = []
for regime, sizes, colors, seed in json.loads(sys.argv[1]):
    if regime == "hand":
        sol = draw_from(lp.build_model(Instance(filtered_colored_doc())), FILTERED_MASSES)
    else:
        inst = gen.gen_random(tuple(sizes), regime, seed=seed, colors=colors)
        frac = lp.solve_lp(lp.build_model(inst))
        cfg = rounding.RoundingConfig(multiplier=pipeline.default_multiplier(inst), seed=0)
        sol = rounding.round_with_retries(frac, cfg)
    if sol.model.inst.colors_enabled:
        res = color.run_color_stage(sol)
        costs = (res.path_cost_total, res.certificate.max_increase)
        counts = (res.plan.total_boxes, res.dropped_paths)
    else:
        res = gapflow.run_gap_stage(sol)
        costs, counts = (res.mass_cost,), (res.plan.total_boxes, 0)
    text = repr((list(res.x_tilde.items()), [repr(c) for c in costs], counts))
    out.append([hashlib.sha256(text.encode()).hexdigest(), *counts])
print(json.dumps(out))
"""

# Per stage-two case, at one BLAS thread: the sha256 of the repr of
# (x_tilde's items in insertion order, the reprs of mass_cost, or of
# path_cost_total and karp_max_increase, (boxes, dropped paths)), then the
# box and dropped-path counts. The draws are `ladder_draw`'s, the accepted
# draw `run_approx` starts from on the colored instances, and the hand-made
# draw on `filtered_colored_doc`, the one case whose cost filter drops paths.
# The 2x14x28 digest was re-recorded when the LP started from its start
# basis and left out the capacity rows that cannot bind: karp_max_increase
# moved from 3.9999999999999996 to 4.000000000000001, and x_tilde and
# path_cost_total kept their bytes.
PINNED_STAGE_TWO = {
    ("avg", (8, 6, 16), None, 0): (
        "ce349ccfe4914bbc39f43762512151df4d54abe46c742ef80946f9ca4e674d31", 38, 0
    ),
    ("avg", (10, 10, 30), None, 0): (
        "02b64d995b010677782522b01d2a058821b8074a1c0acd150254d0e848dcbaae", 70, 0
    ),
    ("avg", (12, 12, 40), None, 0): (
        "1bbfdf1eeb314417f43fbb9088f461d874ab71c589486d0f47237b833e70b6a3", 94, 0
    ),
    ("low", (2, 10, 20), 5, 2): (
        "dffc62045fa238a56387eb54f8cb13f851b48ffc2bc5c1c83d5dbbec56e9b9b3", 45, 0
    ),
    ("low", (2, 10, 20), 5, 7): (
        "33ac1e822ad3d08b4e2d02e58fc075e3de336a877247d296921269001b28227f", 46, 0
    ),
    ("low", (2, 14, 28), 7, 1): (
        "99982ddd523c4a3c07dd2d94da7ada47d15baaeb5b338150b0d86fd7880dc8b5", 62, 0
    ),
    ("hand", None, None, None): (
        "de130d6efcdf99552ea051a1bcd0effa1a1582b9442ea60542313b90d15a883e", 4, 2
    ),
}


def test_stage_two_outputs_pinned(one_blas_thread, monkeypatch):
    here = str(Path(__file__).resolve().parent)  # the child imports this module
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)
    got = one_blas_thread(_STAGE_TWO_SCRIPT, list(PINNED_STAGE_TWO))
    assert [tuple(g) for g in got] == list(PINNED_STAGE_TWO.values())
