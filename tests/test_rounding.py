"""Randomized rounding: unbiasedness, replay, predicates, retry loop."""

import math

import numpy as np
import pytest

from overcast import lp, rounding
from overcast.gen import gen_random
from overcast.model import Instance, instance_from_doc


def triangle_doc():
    # Pairwise covering sets over three elements; the relaxation optimum puts
    # one half on every variable, which no integral point matches.
    sets = [{0, 1}, {1, 2}, {0, 2}]
    return {
        "sources": [{"id": "s"}],
        "reflectors": [{"id": f"A{t}", "cost": 1.0, "fanout": 3} for t in range(3)],
        "sinks": [{"id": f"e{u}", "stream": "s", "loss_threshold": 0.5} for u in range(3)],
        "src_edges": [
            {"from": "s", "to": f"A{t}", "loss": 0.0, "cost": 0.0} for t in range(3)
        ],
        "refl_edges": [
            {"from": f"A{t}", "to": f"e{u}", "loss": 0.5, "cost": 0.0}
            for t, members in enumerate(sets)
            for u in sorted(members)
        ],
    }


def triangle_frac():
    model = lp.build_model(Instance(triangle_doc()))
    frac = lp.solve_lp(model)
    assert frac.objective == pytest.approx(1.5, abs=1e-9)
    assert frac.values == pytest.approx(np.full(model.nvars, 0.5), abs=1e-9)
    return frac


def fan_doc(n_sinks=4, fanout=1, threshold=0.25):
    return {
        "sources": [{"id": "s0"}],
        "reflectors": [{"id": "r0", "cost": 1.0, "fanout": fanout}],
        "sinks": [
            {"id": f"d{j}", "stream": "s0", "loss_threshold": threshold}
            for j in range(n_sinks)
        ],
        "src_edges": [{"from": "s0", "to": "r0", "loss": 0.1, "cost": 1.0}],
        "refl_edges": [
            {"from": "r0", "to": f"d{j}", "loss": 0.1, "cost": 1.0} for j in range(n_sinks)
        ],
    }


def test_draws_match_relaxation_in_expectation():
    frac = triangle_frac()
    cfg = rounding.RoundingConfig(multiplier=1.5, seed=17)
    n = 4000
    total = np.zeros(frac.model.nvars)
    cost_total = 0.0
    for attempt in range(n):
        sol = rounding.randomized_round(frac, cfg, attempt)
        total += sol.values
        cost_total += sol.realized_cost
    mean = total / n
    # Binary coins at 0.75 for z and (gated) y; relay mass 2/3 kept w.p. 0.75.
    sd_coin = math.sqrt(0.75 * 0.25) / math.sqrt(n)
    sd_mass = (2.0 / 3.0) * math.sqrt(0.75 * 0.25) / math.sqrt(n)
    for idx in frac.model.z_index.values():
        assert abs(mean[idx] - 0.75) < 4 * sd_coin
    for idx in frac.model.y_index.values():
        assert abs(mean[idx] - 0.75) < 4 * sd_coin
    for idx in frac.model.x_index.values():
        assert abs(mean[idx] - 0.5) < 4 * sd_mass
    # Expected drawn cost is 2.25 here, within the M * relaxation budget.
    mean_cost = cost_total / n
    assert mean_cost <= 1.5 * frac.objective * 1.02
    assert abs(mean_cost - 2.25) < 4 * 3 * sd_coin


def test_draws_replayable_and_attempts_differ():
    frac = triangle_frac()
    cfg = rounding.RoundingConfig(multiplier=1.5, seed=3)
    again = rounding.RoundingConfig(multiplier=1.5, seed=3)
    a = rounding.randomized_round(frac, cfg, 4)
    b = rounding.randomized_round(frac, again, 4)
    assert a.values.tobytes() == b.values.tobytes()
    patterns = {
        rounding.randomized_round(frac, cfg, attempt).values.tobytes()
        for attempt in range(20)
    }
    assert len(patterns) >= 2


def test_saturating_multiplier_makes_draws_seed_independent():
    frac = triangle_frac()
    m_sat = rounding.saturation_multiplier(frac)
    assert m_sat == pytest.approx(2.0, rel=1e-8)
    blobs = set()
    for seed in range(10):
        cfg = rounding.RoundingConfig(multiplier=m_sat, seed=seed)
        sol = rounding.randomized_round(frac, cfg, 0)
        blobs.add(sol.values.tobytes())
        # Saturated coins switch everything on and copy the relay mass.
        for idx in frac.model.z_index.values():
            assert sol.values[idx] == 1.0
        for idx in frac.model.x_index.values():
            assert sol.values[idx] == frac.values[idx]
    assert len(blobs) == 1


def test_exhaustion_raises_after_max_retries():
    # Tiny relaxation mass: every draw keeps at most half the demanded
    # weight, so the acceptance predicate can never pass.
    doc = {
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
    model = lp.build_model(Instance(doc))
    frac = lp.FractionalSolution(model, np.full(model.nvars, 0.05), 0.0)
    cfg = rounding.RoundingConfig(multiplier=4.0, seed=0)
    with pytest.raises(rounding.RoundingRetriesExhausted, match="in 20 attempts"):
        rounding.round_with_retries(frac, cfg)


def test_overload_predicate_flags_reflector():
    model = lp.build_model(Instance(fan_doc(n_sinks=4, fanout=1)))
    values = np.ones(model.nvars)
    for idx in model.x_index.values():
        values[idx] = 0.9
    frac = lp.FractionalSolution(model, values, 0.0)
    cfg = rounding.RoundingConfig(multiplier=2.0, seed=0)
    sol = rounding.randomized_round(frac, cfg, 0)
    # Saturated coins copy the mass: load 3.6 against a budget of 2 * 1.
    assert sol.violations() == ["load[r0]"]


def test_zero_demand_sink_never_blocks():
    model = lp.build_model(Instance(fan_doc(n_sinks=1, fanout=2, threshold=1.0)))
    frac = lp.FractionalSolution(model, np.zeros(model.nvars), 0.0)
    sol = rounding.randomized_round(frac, rounding.RoundingConfig(multiplier=2.0), 0)
    assert sol.violations() == []


def test_color_groups_checked_when_enabled():
    doc = {
        "colors_enabled": True,
        "sources": [{"id": "s0"}],
        "reflectors": [
            {"id": "r0", "cost": 1.0, "fanout": 4, "color": 0},
            {"id": "r1", "cost": 1.0, "fanout": 4, "color": 0},
        ],
        "sinks": [{"id": "d0", "stream": "s0", "loss_threshold": 0.25}],
        "src_edges": [
            {"from": "s0", "to": "r0", "loss": 0.1, "cost": 1.0},
            {"from": "s0", "to": "r1", "loss": 0.1, "cost": 1.0},
        ],
        "refl_edges": [
            {"from": "r0", "to": "d0", "loss": 0.1, "cost": 1.0},
            {"from": "r1", "to": "d0", "loss": 0.1, "cost": 1.0},
        ],
    }
    model = lp.build_model(Instance(doc))
    frac = lp.FractionalSolution(model, np.ones(model.nvars), 0.0)
    sol = rounding.randomized_round(frac, rounding.RoundingConfig(multiplier=1.0), 0)
    assert "color[d0,0]" in sol.violations()


def test_retry_loop_returns_replayable_attempt():
    frac = triangle_frac()
    cfg = rounding.RoundingConfig(multiplier=1.5, seed=5)
    sol = rounding.round_with_retries(frac, cfg)
    assert sol.violations() == []
    replay = rounding.randomized_round(frac, cfg, sol.attempt)
    assert replay.values.tobytes() == sol.values.tobytes()
    assert sol.attempts == sol.attempt + 1

    offset = rounding.round_with_retries(frac, cfg, start_attempt=7)
    assert offset.attempt >= 7
    assert offset.values.tobytes() == rounding.randomized_round(
        frac, cfg, offset.attempt
    ).values.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        rounding.RoundingConfig(multiplier=0.5)
    # nan < 1 is False, and an infinite multiplier draws 0 * inf masses.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and at least 1"):
            rounding.RoundingConfig(multiplier=bad)
    with pytest.raises(ValueError):
        rounding.RoundingConfig(multiplier=2.0, max_retries=0)


def test_mixed_bitrates_rejected():
    doc = {
        "bandwidth_enabled": True,
        "sources": [{"id": "s0", "bitrate": 1.0}, {"id": "s1", "bitrate": 3.0}],
        "reflectors": [{"id": "r0", "cost": 1.0, "fanout": 4, "bandwidth": 8.0}],
        "sinks": [
            {"id": "d0", "stream": "s0", "loss_threshold": 0.5},
            {"id": "d1", "stream": "s1", "loss_threshold": 0.5},
        ],
        "src_edges": [
            {"from": "s0", "to": "r0", "loss": 0.1, "cost": 1.0},
            {"from": "s1", "to": "r0", "loss": 0.1, "cost": 1.0},
        ],
        "refl_edges": [
            {"from": "r0", "to": "d0", "loss": 0.1, "cost": 1.0},
            {"from": "r0", "to": "d1", "loss": 0.1, "cost": 1.0},
        ],
    }
    model = lp.build_model(Instance(doc))
    assert model.capacities is None
    frac = lp.FractionalSolution(model, np.zeros(model.nvars), 0.0)
    with pytest.raises(lp.UnsupportedInstanceError):
        rounding.randomized_round(frac, rounding.RoundingConfig(multiplier=2.0), 0)


def _reference_models():
    """A colored, a bandwidth and a transmission model, so every row family
    and both fan-out labels are present."""
    colored = gen_random((2, 10, 20), "low", seed=0, colors=5)
    doc = gen_random((3, 4, 8), "avg", seed=1).to_doc()
    doc["bandwidth_enabled"] = True
    for rec in doc["sources"]:
        rec["bitrate"] = 2.0
    for rec in doc["reflectors"]:
        rec["bandwidth"] = 2.0 * rec["fanout"]
    transmission = {**gen_random((2, 5, 10), "avg", seed=2).to_doc(), "mode": "transmission"}
    return [
        lp.build_model(colored),
        lp.build_model(instance_from_doc(doc)),
        lp.build_model(instance_from_doc(transmission)),
    ]


def _dense_check_rows(model, x):
    """Labels of the rows where dense A x breaks rhs by more than ROW_TOL."""
    _c, a, senses, b = model.arrays()
    ax = a @ x
    return [
        label
        for label, sense, lhs, rhs in zip(model.rows, senses, ax, b)
        if (sense == "<=" and lhs > rhs + lp.ROW_TOL) or (sense == ">=" and lhs < rhs - lp.ROW_TOL)
    ]


def _summed_violations(model, v):
    """The draw's predicates from per-sink, per-reflector and per-group
    Python sums over the x variables."""
    inst = model.inst
    weight = {d.id: 0.0 for d in inst.sinks}
    load = {r.id: 0.0 for r in inst.reflectors}
    groups = {}
    for (k, i, j), xi in model.x_index.items():
        weight[j] += inst.path_weight(k, i, j) * v[xi]
        load[i] += v[xi]
        color = inst.reflector_by_id[i].color
        if inst.colors_enabled and color is not None:
            groups[(j, color)] = groups.get((j, color), 0.0) + v[xi]
    bad = [
        f"weight[{d.id}]"
        for d in inst.sinks
        if weight[d.id] < (1.0 - rounding.DELTA) * d.weight_threshold - rounding.PRED_TOL
    ]
    bad += [
        f"load[{r.id}]"
        for r in inst.reflectors
        if load[r.id] > 2.0 * model.capacities[r.id] + rounding.PRED_TOL
    ]
    sink_pos = {d.id: n for n, d in enumerate(inst.sinks)}
    bad += [
        f"color[{j},{c}]"
        for (j, c), used in sorted(groups.items(), key=lambda g: (sink_pos[g[0][0]], g[0][1]))
        if used > 1.0 + rounding.PRED_TOL
    ]
    return bad


def test_vectorized_checks_match_dense_reference():
    rng = np.random.default_rng(23)
    seen = {"row": 0, "clean": 0, "weight": 0, "load": 0, "color": 0, "pass": 0}
    for model in _reference_models():
        frac = lp.solve_lp(model)
        assert {"feed-use", "relay-use", "fanout", "feed-fanout", "weight"} <= set(model.families)
        points = [frac.values, rng.random(model.nvars)]
        points += [np.clip(frac.values + rng.normal(0.0, 1e-6, model.nvars), 0, 1) for _ in range(5)]
        for x in points:
            bad = model.check_rows(x)
            assert bad == _dense_check_rows(model, x)
            seen["row" if bad else "clean"] += 1
        for m in (1.0, 2.0, 4.0, rounding.saturation_multiplier(frac)):
            cfg = rounding.RoundingConfig(multiplier=m, seed=9)
            for attempt in range(15):
                sol = rounding.randomized_round(frac, cfg, attempt)
                bad = sol.violations()
                assert bad == _summed_violations(model, sol.values)
                for label in bad:
                    seen[label.split("[")[0]] += 1
                seen["pass"] += not bad
    # Every outcome of both checks occurred at least once.
    assert min(seen.values()) > 0, seen
