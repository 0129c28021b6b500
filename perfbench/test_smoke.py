"""Smoke test of the benchmark on tiny instances.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced; each must print every metric that
BENCHMARK.json names, with its unit, and nothing else. The failure checks are
exercised on outputs that must fail them.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from overcast.solution import PathSet  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if not trace:
        for name in ("pass_s", "cost_ratio", "ok_share", "peak_rss_mb", "setup_s"):
            assert result["metrics"][name]["value"] > 0, name


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)
    assert sorted(wl.TINY) == sorted(wl.WORKLOADS)


def test_same_seed_same_inputs():
    work = wl.TINY["plain"]
    assert wl.build_inputs(work, 5).fingerprint() == wl.build_inputs(work, 5).fingerprint()
    assert wl.build_inputs(work, 5).fingerprint() != wl.build_inputs(work, 6).fingerprint()


def tiny_inputs(kind):
    work = wl.Workload("t", (wl.InstanceSpec((2, 2, 4)),), (wl.OpSpec(kind, 0),))
    return work, wl.build_inputs(work, 0)


def test_empty_pathset_without_incumbent_fails(monkeypatch):
    work, inputs = tiny_inputs("exact")
    monkeypatch.setattr(wl, "EXACT_NODES", 0)
    out = wl.run_op(wl.OpSpec("exact", 0), inputs, 0, work.packets)
    wl.check(out, work.packets)
    assert any("without incumbent" in f for f in out.failures), out.failures


def test_infeasible_fixing_fails():
    work, inputs = tiny_inputs("exact")
    inst = inputs.instances[(0, "full")]
    out = wl.Outcome(wl.OpSpec("exact", 0))
    out.pathset = PathSet(
        instance=inst,
        x_tilde={},
        provenance="approxhack",
        mode="full",
        meta={"status": "infeasible_fixing", "solver_objective": math.inf},
    )
    out.report = wl.verify.audit(out.pathset, "exact")
    wl.check(out, work.packets)
    assert any("fixing infeasible" in f for f in out.failures), out.failures


def test_simulated_loss_far_from_analytic_fails():
    work, inputs = tiny_inputs("simulate")
    out = wl.run_op(wl.OpSpec("simulate", 0), inputs, 0, work.packets)
    out.losses = {j: 0.5 for j in out.losses}
    wl.check(out, work.packets)
    assert any("sigma" in f for f in out.failures), out.failures


def test_loss_check_holds_at_small_counts():
    # 3 lost packets where 0.41 are expected: 4.1 standard errors on a normal
    # scale, yet about 1 sink in 120 does this.
    assert wl.binomial_sigma(3, 250_000, 1.6341e-6) < 3.0
    assert wl.binomial_sigma(546, 250_000, 2.1857e-3) < 0.1
    assert wl.binomial_sigma(0, 250_000, 0.01) == math.inf


def test_exception_counts_as_failure():
    work, inputs = tiny_inputs("approx")
    inputs.instances[(0, "full")] = None
    out = wl.run_op(wl.OpSpec("approx", 0), inputs, 0, work.packets)
    wl.check(out, work.packets)
    assert out.error is not None and out.failures


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
