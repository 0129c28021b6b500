"""The assembled pipelines: approx end-to-end, exact and fixing wrappers."""

import json

import pytest

import overcast.pipeline as pipeline
from overcast.gen import gen_random
from overcast.gapflow import GapStageError
from overcast.lp import InfeasibleError, NoIncumbentError, TimeBudget
from overcast.model import instance_from_doc
from overcast.pipeline import (
    ApproxPipelineError,
    default_multiplier,
    run_approx,
    run_exact,
    run_hack,
)
from overcast.verify import audit


def small_instance(seed=0):
    return gen_random((2, 4, 8), regime="avg", seed=seed)


def test_run_approx_passes_the_approx_audit():
    ps = run_approx(small_instance(), multiplier=8.0, seed=1)
    assert ps.provenance == "approx"
    report = audit(ps, "approx", claimed_cost=ps.cost)
    assert report.ok, report.failures
    meta = ps.meta
    assert meta["attempts"] >= 1 and meta["violations_first_draw"] >= 0
    assert meta["lp_bound"] <= ps.cost + 1e-9
    assert ps.cost <= 2.0 * meta["draw_cost"] + 1e-6


def test_run_approx_is_deterministic():
    a = run_approx(small_instance(), multiplier=8.0, seed=5)
    b = run_approx(small_instance(), multiplier=8.0, seed=5)
    assert json.dumps(a.to_doc(), sort_keys=True) == json.dumps(b.to_doc(), sort_keys=True)


def test_run_approx_draws_attempt_zero_once(monkeypatch):
    # The first draw's violation count comes out of the retry loop that drew
    # it; attempt 0 is not drawn a second time just to count them.
    import overcast.rounding as rounding

    draw = rounding.randomized_round
    attempts = []

    def counting(frac, config, attempt):
        attempts.append(attempt)
        return draw(frac, config, attempt)

    monkeypatch.setattr(rounding, "randomized_round", counting)
    monkeypatch.setattr(pipeline, "randomized_round", counting, raising=False)
    ps = run_approx(small_instance(seed=1), multiplier=1.0, seed=2)
    assert attempts.count(0) == 1
    assert ps.meta["attempts"] == 3  # attempt 0 was rejected
    assert ps.meta["violations_first_draw"] == 4


def test_default_multiplier_tracks_sink_count():
    inst = small_instance()
    assert default_multiplier(inst) == pytest.approx(64.0 * 3.0)  # 8 sinks


def test_run_approx_colored_pipeline():
    inst = gen_random((1, 6, 5), regime="low", seed=3, colors=2)
    ps = run_approx(inst, multiplier=8.0, seed=2)
    assert ps.provenance == "approx-color"
    assert ps.meta["karp_max_increase"] < ps.meta["karp_bound"]
    assert ps.meta["path_cost_total"] <= 13.0 * ps.meta["draw_cost"] + 1e-6
    report = audit(ps, "color", claimed_cost=ps.cost)
    assert report.ok, report.failures


def test_run_approx_transmission_mode():
    doc = small_instance(seed=4).to_doc()
    doc["mode"] = "transmission"
    inst = instance_from_doc(doc)
    ps = run_approx(inst, multiplier=8.0, seed=0)
    assert ps.mode == "transmission"
    assert ps.cost_breakdown()["reflectors"] == 0.0
    assert audit(ps, "approx", claimed_cost=ps.cost).ok


def test_run_exact_and_hack_agree_on_order():
    inst = small_instance(seed=7)
    exact = run_exact(inst)
    hack = run_hack(inst)
    assert exact.provenance == "exact-ip" and hack.provenance == "approxhack"
    assert audit(exact, "exact", claimed_cost=exact.cost).ok
    assert audit(hack, "exact", claimed_cost=hack.cost).ok
    assert exact.cost <= hack.cost + 1e-9
    approx = run_approx(inst, multiplier=8.0, seed=0)
    assert hack.cost <= approx.cost + 1e-9


def test_run_exact_respects_budget_shape():
    inst = small_instance(seed=7)
    with pytest.raises(NoIncumbentError) as err:
        run_exact(inst, budget=TimeBudget(node_limit=0))
    assert err.value.bound <= run_exact(inst).cost + 1e-9


@pytest.mark.parametrize("seed", [19, 23, 26])
def test_run_hack_falls_back_when_fixing_is_infeasible(seed):
    # On these instances fixing the LP-integral coordinates leaves no
    # integral point; the fallback searches the whole model.
    inst = small_instance(seed=seed)
    hack = run_hack(inst, budget=TimeBudget(seconds=30.0))
    exact = run_exact(inst, budget=TimeBudget(seconds=30.0))
    assert hack.meta["status"] == exact.meta["status"] == "optimal"
    assert hack.cost == pytest.approx(exact.cost, abs=1e-9)
    assert audit(hack, "exact", claimed_cost=hack.cost).ok


def test_run_approx_propagates_infeasibility():
    doc = small_instance(seed=2).to_doc()
    for sink in doc["sinks"]:
        sink["loss_threshold"] = 1e-12
    with pytest.raises(InfeasibleError):
        run_approx(instance_from_doc(doc), multiplier=8.0, seed=0)


def test_pipeline_retries_after_stage_failures(monkeypatch):
    real = pipeline.run_gap_stage
    calls = {"n": 0}

    def flaky(sol):
        calls["n"] += 1
        if calls["n"] == 1:
            raise GapStageError("synthetic stage failure")
        return real(sol)

    monkeypatch.setattr(pipeline, "run_gap_stage", flaky)
    ps = run_approx(small_instance(), multiplier=8.0, seed=1)
    assert ps.meta["trial"] == 1
    assert calls["n"] == 2
    assert audit(ps, "approx").ok

    def always(sol):
        raise GapStageError("never happy")

    monkeypatch.setattr(pipeline, "run_gap_stage", always)
    with pytest.raises(ApproxPipelineError, match="never happy"):
        run_approx(small_instance(), multiplier=8.0, seed=1)
