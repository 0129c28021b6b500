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


def scipy_opt(model, integral, lb=None, ub=None):
    """HiGHS's optimum of the model, within bounds lb and ub (default: the model's)."""
    c, a, senses, b = model.arrays()
    lo = np.array([b[r] if senses[r] in (">=", "=") else -np.inf for r in range(len(b))])
    hi = np.array([b[r] if senses[r] in ("<=", "=") else np.inf for r in range(len(b))])
    return sciopt.milp(
        c,
        constraints=[sciopt.LinearConstraint(a, lo, hi)],
        integrality=np.full(model.nvars, 1 if integral else 0),
        bounds=sciopt.Bounds(model.lb if lb is None else lb, model.ub if ub is None else ub),
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
    # The x block is the route table: each x's reflector, sink and clamped
    # weight. Both raw path weights exceed the demand of 2 bits, so both clamp.
    assert model.x_refl.tolist() == [0, 1]
    assert model.x_sink.tolist() == [0, 0]
    assert model.x_weight.tolist() == [2.0, 2.0]
    # One sink cannot fill a fan-out of 4, so no capacity row can bind:
    # each follows from relay-use and feed-use and is left out.
    assert model.rows == [
        "feed_use[s0,r0]", "feed_use[s0,r1]",
        "relay_use[s0,r0,d0]", "relay_use[s0,r1,d0]",
        "weight[d0]",
    ]
    assert {kind: list(rows) for kind, rows in model.families.items()} == {
        "feed-use": [0, 1], "relay-use": [2, 3], "fanout": [], "feed-fanout": [],
        "weight": [4],
    }
    # Full-mode objective: fixed costs on z, first hop on y, second hop on x.
    assert model.obj.tolist() == [5.0, 3.0, 1.0, 2.0, 1.0, 1.5]
    (w,) = model.families["weight"]
    assert model.senses[w] == ">="
    assert model.rhs[w] == pytest.approx(2.0)
    # A column's activity is its column of A: the weight row reads both x.
    unit = np.eye(model.nvars)
    assert [model.activity(unit[xi])[w] for xi in (4, 5)] == pytest.approx([2.0, 2.0])


def test_build_keeps_the_capacity_rows_that_can_bind():
    # Two sinks on r0's fan-out of 1 can bind its fan-out and feed-fan-out
    # rows, which are built; r1's fan-out of 4 covers both sinks, so its
    # rows are left out.
    doc = two_path_doc()
    doc["reflectors"][0]["fanout"] = 1
    doc["sinks"].append({"id": "d1", "stream": "s0", "loss_threshold": 0.25})
    doc["refl_edges"] += [
        {"from": "r0", "to": "d1", "loss": 0.1, "cost": 1.0},
        {"from": "r1", "to": "d1", "loss": 0.1, "cost": 1.5},
    ]
    model = lp.build_model(Instance(doc))
    assert model.x_index == {
        ("s0", "r0", "d0"): 4, ("s0", "r1", "d0"): 5, ("s0", "r0", "d1"): 6, ("s0", "r1", "d1"): 7,
    }
    assert model.x_offset == 4
    assert model.rows == [
        "feed_use[s0,r0]", "feed_use[s0,r1]",
        "relay_use[s0,r0,d0]", "relay_use[s0,r1,d0]",
        "relay_use[s0,r0,d1]", "relay_use[s0,r1,d1]",
        "fanout[r0]", "feed_fanout[s0,r0]",
        "weight[d0]", "weight[d1]",
    ]
    assert {kind: list(rows) for kind, rows in model.families.items()} == {
        "feed-use": [0, 1], "relay-use": [2, 3, 4, 5], "fanout": [6], "feed-fanout": [7],
        "weight": [8, 9],
    }
    # Each row reads r0's two x against its cap of 1 on z[r0], or on y[s0,r0].
    _c, a, senses, b = model.arrays()
    assert a[6].tolist() == [-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert a[7].tolist() == [0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert senses[6:8] == ["<=", "<="] and b[6:8].tolist() == [0.0, 0.0]


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
    model = ladder_model(sizes, regime, colors, mode)
    ref = highs_lp(model, *model.arrays())
    assert ref.status == 0
    assert lp.solve_lp(model).objective == pytest.approx(ref.fun, rel=1e-7)


def ladder_model(sizes, regime, colors, mode, seed=0):
    inst = gen_random(sizes, regime, seed=seed, colors=colors)
    return lp.build_model(instance_from_doc({**inst.to_doc(), "mode": mode}))


def highs_lp(model, c, a, senses, b):
    """HiGHS on the LP relaxation with the rows (a, senses, b)."""
    senses = np.asarray(senses)
    sign = np.where(senses == ">=", -1.0, 1.0)[:, None]
    ineq, eq = senses != "==", senses == "=="
    return sciopt.linprog(
        c,
        A_ub=(a * sign)[ineq] if ineq.any() else None,
        b_ub=(b * sign[:, 0])[ineq] if ineq.any() else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=np.column_stack([model.lb, model.ub]),
        method="highs",
    )


def bandwidth_model():
    """Three bitrates on reflectors whose bandwidth fits 1.5 to 4 copies, so
    some capacity rows bind and some cannot."""
    doc = gen_random((3, 4, 8), "avg", seed=1).to_doc()
    doc["bandwidth_enabled"] = True
    for rec, rate in zip(doc["sources"], (1.0, 2.5, 0.5)):
        rec["bitrate"] = rate
    for rec, cap in zip(doc["reflectors"], (1.5, 4.0, 2.5, 6.0)):
        rec["bandwidth"] = cap
    return lp.build_model(instance_from_doc(doc))


def full_capacity_rows(model):
    """Every fan-out and feed-fan-out row, dense and labelled as the model
    labels them: one per reflector, and one per feed that relays."""
    inst = model.inst
    fan, feed = (
        ("bandwidth", "bandwidth_feed") if inst.bandwidth_enabled else ("fanout", "feed_fanout")
    )
    rows = {}
    for (k, i, _j), xi in model.x_index.items():
        load = inst.copy_load(k)
        for label, cap_col in ((f"{fan}[{i}]", model.z_index[i]),
                               (f"{feed}[{k},{i}]", model.y_index[(k, i)])):
            if label not in rows:
                rows[label] = np.zeros(model.nvars)
                rows[label][cap_col] = -inst.copy_cap(i)
            rows[label][xi] += load
    return rows


CAPACITY_CASES = [
    ((8, 6, 16), "avg", None, "full"),
    ((8, 6, 16), "avg", None, "transmission"),
    ((12, 12, 40), "avg", None, "full"),
    ((2, 10, 20), "low", 5, "full"),
    ((20, 15, 60), "avg", None, "full"),
]


def test_dropped_capacity_rows_are_implied():
    # The model builds a capacity row only where its x coefficients total
    # more than its cap. Each row it leaves out is implied by x <= y <= z,
    # and HiGHS on every capacity row finds the model's own optimum.
    models = [ladder_model(*case) for case in CAPACITY_CASES] + [bandwidth_model()]
    dropped = kept = 0
    for model in models:
        c, a, senses, b = model.arrays()
        capacity = [r for kind in ("fanout", "feed-fanout") for r in model.families[kind]]
        full = full_capacity_rows(model)
        built = {model.rows[r]: a[r] for r in capacity}
        assert set(built) <= set(full)
        for label, row in full.items():
            x_sum, cap = row[model.x_offset:].sum(), -row[:model.x_offset].sum()
            if label in built:
                assert np.array_equal(built[label], row) and x_sum > cap, label
                kept += 1
            else:
                assert x_sum <= cap, label
                dropped += 1
        other = np.setdiff1d(np.arange(len(model.rows)), capacity)
        rows = np.vstack([a[other], *full.values()])
        ref = highs_lp(model, c, rows, [senses[r] for r in other] + ["<="] * len(full),
                       np.concatenate([b[other], np.zeros(len(full))]))
        assert ref.status == 0
        assert lp.solve_lp(model).objective == pytest.approx(ref.fun, rel=1e-9, abs=0)
    assert dropped > 0 and kept > 0
    # 20x15x60 keeps its 15 fan-out rows and none of its 300 feed-fan-out rows.
    assert len(models[-2].rows) == 1275


def test_start_basis_is_taken(monkeypatch):
    # The start basis (each weight row tight on its sink's cheapest route
    # per unit of weight among the routes not fixed to 0, every other slack
    # basic) is nonsingular and dual feasible, so the solve runs from it,
    # and it reaches the slack basis's verdict and optimum: on the ladder, a
    # colored, a transmission and a bandwidth-capped model, and under
    # approx_hack's fixings on the model's rows and on the search rows,
    # whose cardinality rows keep their slacks basic. Under the fixings,
    # some weight rows are tight on other routes than with the model's
    # bounds. The colored model's fixing leaves its search rows infeasible,
    # which both starts find.
    models = [ladder_model(*case) for case in CAPACITY_CASES[:4]] + [bandwidth_model()]
    cases = [(model, model.layout, model.senses, model.rhs, model.lb, model.ub) for model in models]
    hack = [ladder_model((4, 6, 12), "avg", None, "full", seed) for seed in (0, 1)] + [models[3]]
    for model in hack:
        frac = lp.solve_lp(model)
        lb, ub = model.lb.copy(), model.ub.copy()
        lb[frac.values >= 1.0 - lp.FIX_TOL] = 1.0
        ub[frac.values <= lp.FIX_TOL] = 0.0
        cases.append((model, model.layout, model.senses, model.rhs, lb, ub))
        cases.append((model, *lp.search_rows(model), lb, ub))
    verdicts = []
    moved = 0
    for model, layout, senses, rhs, lb, ub in cases:
        basis = lp.start_basis(model, layout.m, ub)
        moved += not np.array_equal(basis, lp.start_basis(model, layout.m))
        weight = model.families["weight"]
        tight = basis[weight.start:weight.stop]
        assert np.all(tight < model.nvars)
        assert np.array_equal(np.delete(basis, weight), model.nvars + np.delete(
            np.arange(layout.m), weight))
        x0 = model.x_offset
        for j, col in enumerate(tight):  # the lowest cost per unit weight
            ratios = {x0 + x: model.obj[x0 + x] / model.x_weight[x]
                      for x in np.flatnonzero(model.x_sink == j) if ub[x0 + x] > 0}
            assert ratios[col] == min(ratios.values())
            assert col == min(xi for xi, r in ratios.items() if r == ratios[col])
        warm = simplex.solve(model.obj, layout, senses, rhs, lb, ub, warm=basis)
        cold = simplex.solve(model.obj, layout, senses, rhs, lb, ub)
        assert warm.warm_started and warm.status == cold.status
        if cold.status == simplex.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=0)
        verdicts.append(cold.status)
    assert verdicts.count(simplex.INFEASIBLE) == 1
    assert moved > 0

    # solve_lp hands the start basis to the simplex.
    starts = []
    solve = simplex.solve

    def recording(*args, warm=None, **kwargs):
        starts.append(warm)
        return solve(*args, warm=warm, **kwargs)

    monkeypatch.setattr(simplex, "solve", recording)
    lp.solve_lp(models[0])
    assert np.array_equal(starts[0], lp.start_basis(models[0], models[0].layout.m))


def per_sink_tables(model, ub):
    """The certificate, start basis and search rows, from per-sink lists of
    (x column, `inst.path_weight`) built here."""
    inst, m = model.inst, model.layout.m
    routes = [
        [(model.x_index[(d.stream, r.id, d.id)], inst.path_weight(d.stream, r.id, d.id))
         for r in inst.reflectors if (d.stream, r.id, d.id) in model.x_index]
        for d in inst.sinks
    ]
    violated = []
    for d, sink in zip(inst.sinks, routes):
        attainable = sum(w for _xi, w in sink)
        if attainable < d.weight_threshold - 1e-9:
            violated.append({"sink": d.id, "demanded": d.weight_threshold, "attainable": attainable})
    cert = {"kind": "weight-rows", "rows": violated} if violated else None
    basis = list(range(model.nvars, model.nvars + m))
    card_rows, card_rhs = [], []
    for row, d, sink in zip(model.families["weight"], inst.sinks, routes):
        open_ = [(model.obj[xi] / w, xi) for xi, w in sink if w > 0 and ub[xi] > 0]
        if open_:
            basis[row] = min(open_)[1]
        floor = d.weight_threshold - lp.CARD_TOL * max(1.0, d.weight_threshold)
        prefix, need = 0.0, 1  # one more than the prefix sums short of the floor
        for w in sorted((w for _xi, w in sink), reverse=True):
            prefix += w
            need += prefix < floor
        if need >= 2:
            card_rows.append([xi for xi, _w in sink])
            card_rhs.append(float(need))
    a = np.zeros((m + len(card_rows), model.nvars))
    a[:m] = model.arrays()[1]
    for n, cols in enumerate(card_rows):
        a[m + n, cols] = 1.0
    return cert, basis, a, model.senses + [">="] * len(card_rows), list(model.rhs) + card_rhs


def test_route_table_reads_match_a_per_sink_reference():
    # Random avg and colored models from 2x2x4 to 8x6x16, some with sinks
    # starved past reach, and random closed routes for the start basis.
    rng = np.random.default_rng(37)
    starved = 0
    for sizes in ((2, 2, 4), (3, 4, 8), (4, 6, 12), (8, 6, 16)):
        for density in (1.0, 0.6):
            for colors in (None, 3):
                for seed in range(2):
                    inst = gen_random(sizes, "avg", seed=seed, density=density, colors=colors)
                    doc = inst.to_doc()
                    for d in doc["sinks"]:
                        if rng.random() < 0.2:
                            d["loss_threshold"] = 1e-12
                    for model in (lp.build_model(inst), lp.build_model(Instance(doc))):
                        ub = model.ub.copy()
                        ub[model.x_offset:][rng.random(model.x_weight.size) < 0.3] = 0.0
                        cert, basis, a, senses, rhs = per_sink_tables(model, ub)
                        assert model.weight_feasibility_certificate() == cert
                        starved += cert is not None
                        assert lp.start_basis(model, model.layout.m, ub).tolist() == basis
                        layout, got_senses, got_rhs = lp.search_rows(model)
                        dense = np.zeros((layout.m, layout.n))
                        np.add.at(dense, (layout.rows, layout.cols), layout.vals)
                        assert np.array_equal(dense, a)
                        assert got_senses == senses and got_rhs.tolist() == rhs
    assert starved >= 20


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
    assert model.capacities.tolist() == [rec["fanout"] for rec in doc["reflectors"]]
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


def needs_both_doc():
    # two_path_doc with a demand of about 3.32 bits: the routes weigh about
    # 2.40 and 2.09, so d0 needs both.
    doc = two_path_doc()
    doc["sinks"][0]["loss_threshold"] = 0.1
    return doc


def test_propagation_closes_the_routes_of_a_closed_reflector():
    # Closing r0 closes its feed and route; r1's route is then d0's only
    # open one, so it is fixed to 1 with its feed and reflector.
    model = lp.build_model(Instance(two_path_doc()))
    ub = model.ub.copy()
    ub[model.z_index["r0"]] = 0.0
    lb, ub = lp.propagate(model, lp.reach_floor(model), model.lb, ub)
    closed = [model.z_index["r0"], model.y_index[("s0", "r0")], model.x_index[("s0", "r0", "d0")]]
    fixed = [model.z_index["r1"], model.y_index[("s0", "r1")], model.x_index[("s0", "r1", "d0")]]
    assert np.flatnonzero(ub == 0.0).tolist() == sorted(closed)
    assert np.flatnonzero(lb == 1.0).tolist() == sorted(fixed)
    assert not model.lb.any() and model.ub.all()  # the model's bounds are left alone


def test_propagation_fixes_a_needed_route_with_its_feed_and_reflector():
    model = lp.build_model(Instance(needs_both_doc()))
    lb, ub = lp.propagate(model, lp.reach_floor(model), model.lb, model.ub)
    assert lb.all() and ub.all()
    res = lp.solve_ip(model)
    assert res.status == "optimal" and res.nodes == 1
    assert res.values.tolist() == [1.0] * model.nvars
    # A route the sink can do without stays free.
    model = lp.build_model(Instance(two_path_doc()))
    lb, _ub = lp.propagate(model, lp.reach_floor(model), model.lb, model.ub)
    assert not lb.any()


def test_a_propagated_infeasible_root_needs_no_lp(monkeypatch):
    # Closing the feed of a route d0 needs drops the root before any LP,
    # and approx_hack then searches the whole model.
    model = lp.build_model(Instance(needs_both_doc()))
    solves = []
    solve = simplex.solve

    def recording(c, a, senses, b, lb, ub, **kwargs):
        solves.append(ub)
        return solve(c, a, senses, b, lb, ub, **kwargs)

    monkeypatch.setattr(simplex, "solve", recording)
    ub = model.ub.copy()
    ub[model.y_index[("s0", "r0")]] = 0.0
    with pytest.raises(lp.InfeasibleError) as err:
        lp.solve_ip(model, ub=ub)
    assert err.value.certificate == {"kind": "search-exhausted"}
    assert solves == []
    values = np.full(model.nvars, 0.5)
    values[model.y_index[("s0", "r0")]] = 0.0
    res = lp.approx_hack(lp.FractionalSolution(model, values, 0.0))
    assert res.status == "optimal" and res.objective == pytest.approx(model.obj.sum(), abs=1e-9)
    assert solves and np.array_equal(solves[0], model.ub)


def test_propagated_searches_match_milp_under_fixings():
    # approx_hack-style fixings (each LP-integral variable fixed at its value
    # with probability 1/2) plus random fixings of the fractional ones, so
    # some fixings leave no integral point: the search reaches HiGHS's
    # verdict and optimum within the fixed bounds.
    rng = np.random.default_rng(34)
    cases = tightened = dropped = infeasible = 0
    for sizes in ((2, 2, 4), (2, 3, 6), (3, 4, 8)):
        for density in (1.0, 0.6):
            for seed in range(4):
                model = lp.build_model(gen_random(sizes, "avg", seed=seed, density=density))
                frac = lp.solve_lp(model)
                one = frac.values >= 1.0 - lp.FIX_TOL
                zero = frac.values <= lp.FIX_TOL
                for _ in range(3):
                    pick, side = rng.random(model.nvars), rng.random(model.nvars) < 0.5
                    lb, ub = model.lb.copy(), model.ub.copy()
                    lb[one & (pick < 0.5)] = 1.0
                    ub[zero & (pick < 0.5)] = 0.0
                    loose = ~(one | zero) & (pick < 0.2)
                    lb[loose & side] = 1.0
                    ub[loose & ~side] = 0.0
                    bounds = lp.propagate(model, lp.reach_floor(model), lb, ub)
                    dropped += bounds is None
                    tightened += bounds is not None and not (
                        np.array_equal(bounds[0], lb) and np.array_equal(bounds[1], ub))
                    ref = scipy_opt(model, True, lb, ub)
                    cases += 1
                    try:
                        res = lp.solve_ip(model, lb=lb, ub=ub)
                    except lp.InfeasibleError:
                        assert ref.status == 2
                        infeasible += 1
                        continue
                    assert ref.status == 0 and res.status == "optimal"
                    assert res.objective == pytest.approx(ref.fun, rel=1e-7)
                    assert not model.check_rows(res.values)
                    assert np.all((lb <= res.values) & (res.values <= ub))
    # Of the 72 fixings, propagation tightens 55 and drops 17 before any LP,
    # and the search finds 8 more infeasible (one BLAS thread); the floors
    # keep each path exercised.
    assert cases == 72 and tightened >= 45 and dropped >= 12 and infeasible - dropped >= 4


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
    # 4x6x12 seeds 0 and 1 prove optimality in 151 and 38 nodes at one BLAS
    # thread; the limits leave 2.6x and 3x that. Seed 2 takes about 1800
    # nodes and is left out for time.
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


_EARLY_SCRIPT = """
import json, sys
import numpy as np
from overcast import lp
from overcast.gen import gen_random
model = lp.build_model(gen_random((3, 4, 8), "avg", seed=4))
res = lp.solve_ip(model, budget=lp.TimeBudget(node_limit=json.loads(sys.argv[1])))
print(json.dumps([res.status, res.objective, res.bound, res.nodes, model.check_rows(res.values),
                  bool(np.array_equal(res.values, np.round(res.values)))]))
"""


def test_an_integral_node_lp_is_taken_when_solved(one_blas_thread):
    # 3x4x8 seed 4 solves an integral node LP worth 175.27 within ten nodes;
    # it is the incumbent at once, so a ten-node budget ends with it and the
    # open bound (optimum 123.87) instead of NoIncumbentError.
    status, objective, bound, nodes, violated, integral = one_blas_thread(_EARLY_SCRIPT, 10)
    assert status == "timeout" and nodes == 10
    assert objective == pytest.approx(175.26568, abs=1e-4)
    assert bound <= 123.87 < objective
    assert violated == [] and integral


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
    # 21 nodes over two cardinality rows; most 2x2x4 draws close at the root.
    model = lp.build_model(gen_random((3, 4, 8), "avg", seed=8))
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
