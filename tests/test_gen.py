"""Generators: seeded determinism, regime ranges, and the cover reduction."""

import json

import numpy as np
import pytest

from overcast.gen import (
    GenerationError,
    LOSS_REGIMES,
    gen_random,
    gen_setcover,
    greedy_cover_cost,
    random_cover_system,
)
from overcast.lp import build_model, solve_ip, solve_lp


def test_gen_random_shapes_and_ranges():
    inst = gen_random((4, 7, 14), regime="avg", seed=9)
    assert len(inst.sources) == 4
    assert len(inst.reflectors) == 7
    assert len(inst.sinks) == 14
    fan_hi = max(2, -(-2 * 14 // 7))
    for r in inst.reflectors:
        assert 5.0 <= r.cost <= 50.0
        assert 2 <= r.fanout <= fan_hi
    for edge in list(inst.src_edges.values()) + list(inst.refl_edges.values()):
        assert 0.005 <= edge.loss <= 0.05
        assert 1.0 <= edge.cost <= 10.0
    for d in inst.sinks:
        assert 0.0 < d.loss_threshold <= 1.0


def test_gen_random_regime_ranges():
    for regime, (lo, hi) in LOSS_REGIMES.items():
        inst = gen_random((2, 3, 5), regime=regime, seed=4)
        losses = [e.loss for e in inst.src_edges.values()]
        losses += [e.loss for e in inst.refl_edges.values()]
        assert losses and all(lo <= p <= hi for p in losses)


def test_gen_random_variable_count_complete_density():
    inst = gen_random((10, 7, 28), regime="avg", seed=2)
    model = build_model(inst)
    assert len(model.x_index) == 7 * 28
    assert len(model.y_index) == 7 * 10
    assert len(model.z_index) == 7
    assert model.nvars == 7 * 28 + 7 * 10 + 7


def test_gen_random_deterministic_per_seed():
    a = gen_random((3, 4, 6), regime="high", seed=11).to_doc()
    b = gen_random((3, 4, 6), regime="high", seed=11).to_doc()
    c = gen_random((3, 4, 6), regime="high", seed=12).to_doc()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_gen_random_instances_are_lp_feasible():
    for seed in range(6):
        inst = gen_random((2, 3, 5), regime="avg", seed=seed)
        frac = solve_lp(build_model(inst))
        assert frac.objective < float("inf")


def test_gen_random_colored_instances():
    inst = gen_random((1, 6, 4), regime="low", seed=7, colors=3)
    assert inst.colors_enabled
    assert [r.color for r in inst.reflectors] == [0, 1, 2, 0, 1, 2]
    frac = solve_lp(build_model(inst))
    assert frac.objective < float("inf")


def test_gen_random_density_thins_edges():
    inst = gen_random((2, 4, 6), regime="avg", seed=3, density=0.7)
    complete = gen_random((2, 4, 6), regime="avg", seed=3, density=1.0)
    assert len(inst.src_edges) + len(inst.refl_edges) < len(complete.src_edges) + len(
        complete.refl_edges
    )


def test_gen_random_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least 1"):
        gen_random((0, 2, 2))
    with pytest.raises(ValueError, match="sinks as sources"):
        gen_random((3, 2, 2))
    with pytest.raises(ValueError, match="regime"):
        gen_random((1, 2, 2), regime="metropolitan")
    with pytest.raises(ValueError, match="density"):
        gen_random((1, 2, 2), density=0.0)
    with pytest.raises(ValueError, match="colors"):
        gen_random((1, 2, 2), colors=0)


def test_gen_random_gives_up_when_hopeless():
    with pytest.raises(GenerationError, match="100 attempts"):
        gen_random((1, 2, 2), regime="avg", seed=0, density=1e-6)


def test_gen_setcover_reduction_optimum():
    inst = gen_setcover(3, [[0, 1], [1, 2], [2]])
    result = solve_ip(build_model(inst))
    assert result.objective == pytest.approx(2.0, abs=1e-9)

    single = gen_setcover(4, [[0, 1, 2, 3]])
    assert solve_ip(build_model(single)).objective == pytest.approx(1.0, abs=1e-9)


def test_gen_setcover_rejects_uncovered_elements():
    with pytest.raises(ValueError, match="covered by no set"):
        gen_setcover(3, [[0, 1]])
    with pytest.raises(ValueError, match="outside the universe"):
        gen_setcover(2, [[0, 5], [1]])


def brute_force_cover(universe, sets):
    best = None
    for mask in range(1, 1 << len(sets)):
        covered = set()
        for idx in range(len(sets)):
            if mask >> idx & 1:
                covered.update(sets[idx])
        if len(covered) == universe:
            size = bin(mask).count("1")
            best = size if best is None else min(best, size)
    return best


def test_cover_systems_greedy_vs_exact():
    rng = np.random.default_rng(42)
    for _ in range(15):
        universe, sets = random_cover_system(rng, max_universe=6, max_sets=6)
        assert len(sets) <= 6
        opt = brute_force_cover(universe, sets)
        assert opt is not None
        greedy = greedy_cover_cost(universe, sets)
        assert greedy >= opt
        inst = gen_setcover(universe, sets)
        got = solve_ip(build_model(inst)).objective
        assert got == pytest.approx(opt, abs=1e-9)
