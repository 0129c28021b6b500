"""Acceptance gate: thirteen numbered criteria, one printed line each.

Each test prints exactly one `[criterion NN] PASS/FAIL - ...` line (to the
real terminal as well as the captured stream, so the line survives pytest's
capture) and then asserts. Tolerances and time caps are pinned in-line.
"""

import json
import math
import time

import numpy as np
import pytest

from overcast import (
    audit,
    combined_loss,
    default_multiplier,
    gen_random,
    loss_to_weight,
    run_approx,
    run_exact,
    run_hack,
    simulate_losses,
)
from overcast.color import run_color_stage
from overcast.gen import gen_setcover, random_cover_system
from overcast.lp import TimeBudget, build_model, solve_ip, solve_lp
from overcast.model import instance_from_doc
from overcast.rounding import (
    RoundingConfig,
    randomized_round,
    round_with_retries,
    saturation_multiplier,
)
from overcast.gapflow import run_gap_stage


ACCEPTANCE_LINES: list[str] = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)  # conftest re-emits these after capture ends


def triangle_doc():
    sets = [{0, 1}, {1, 2}, {0, 2}]
    return {
        "sources": [{"id": "s"}],
        "reflectors": [{"id": f"A{t}", "cost": 1.0, "fanout": 3} for t in range(3)],
        "sinks": [
            {"id": f"e{u}", "stream": "s", "loss_threshold": 0.5} for u in range(3)
        ],
        "src_edges": [
            {"from": "s", "to": f"A{t}", "loss": 0.0, "cost": 0.0} for t in range(3)
        ],
        "refl_edges": [
            {"from": f"A{t}", "to": f"e{u}", "loss": 0.5, "cost": 0.0}
            for t, members in enumerate(sets)
            for u in sorted(members)
        ],
    }


def loss_floor_doc():
    """One sink demanding end-to-end loss 0.0001; four disjoint relay paths."""
    return {
        "sources": [{"id": "src"}],
        "reflectors": [
            {"id": f"r{t}", "cost": 2.0 + t, "fanout": 2} for t in range(4)
        ],
        "sinks": [{"id": "edge", "stream": "src", "loss_threshold": 0.0001}],
        "src_edges": [
            {"from": "src", "to": f"r{t}", "loss": 0.01, "cost": 1.0} for t in range(4)
        ],
        "refl_edges": [
            {"from": f"r{t}", "to": "edge", "loss": 0.01, "cost": 1.0} for t in range(4)
        ],
    }


@pytest.fixture(scope="module")
def batch16():
    """Thirty seeded runs on generated 8x6x16 avg-regime instances."""
    runs = []
    for seed in range(30):
        inst = gen_random((8, 6, 16), regime="avg", seed=seed)
        ps = run_approx(inst, seed=seed, max_retries=20)
        runs.append((seed, inst, ps))
    return runs


def test_c01_weight_loss_equivalence():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(20260822))
    disagreements = 0
    identity_bad = 0
    for case in range(1000):
        n_paths = int(rng.integers(1, 6))
        phi = float(rng.uniform(1e-6, 0.5))
        cap = -math.log2(phi)
        losses = []
        for _ in range(n_paths):
            if rng.random() < 0.05:
                losses.append(0.0)
            else:
                losses.append(
                    combined_loss(
                        float(rng.uniform(0.001, 0.6)), float(rng.uniform(0.001, 0.6))
                    )
                )
        clamped = sum(min(loss_to_weight(p), cap) for p in losses)
        analytic = math.prod(losses)
        lhs = clamped - cap
        rhs = math.inf if analytic == 0.0 else -math.log2(analytic) - cap
        if (lhs >= -1e-9) != (rhs >= -1e-9):
            disagreements += 1
        if math.isfinite(rhs) and all(loss_to_weight(p) < cap for p in losses):
            if abs(lhs - rhs) > 1e-9:
                identity_bad += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and identity_bad == 0 and elapsed < 5.0
    _report(
        1,
        ok,
        f"1000 random (routes, threshold) cases, 0 sign disagreements required, "
        f"got {disagreements} (log tol 1e-9, identity misses {identity_bad}) in {elapsed:.2f}s < 5s",
    )
    assert ok


def test_c02_tightening_row_dominance():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(77))
    models = [
        build_model(gen_random((3, 4, 10), regime="avg", seed=11)),
        build_model(gen_random((2, 5, 8), regime="high", seed=4)),
    ]
    violations = 0
    premise_bad = 0
    for case in range(500):
        model = models[case % 2]
        v = np.zeros(model.nvars)
        z_on = {i: rng.random() < 0.6 for i in model.z_index}
        for i, zi in model.z_index.items():
            v[zi] = 1.0 if z_on[i] else 0.0
        y_on = {}
        for (k, i), yi in model.y_index.items():
            y_on[(k, i)] = z_on[i] and rng.random() < 0.7
            v[yi] = 1.0 if y_on[(k, i)] else 0.0
        loads = {i: 0 for i in model.z_index}
        triples = list(model.x_index.items())
        rng.shuffle(triples)
        for (k, i, j), xi in triples:
            cap = int(model.inst.reflector_by_id[i].fanout)
            if y_on[(k, i)] and loads[i] < cap and rng.random() < 0.8:
                v[xi] = 1.0
                loads[i] += 1
        over = model.activity(v) > model.rhs + 1e-9
        for kind in ("feed-use", "relay-use", "fanout"):
            premise_bad += int(np.count_nonzero(over[model.families[kind]]))
        violations += int(np.count_nonzero(over[model.families["feed-fanout"]]))
    elapsed = time.perf_counter() - started
    ok = violations == 0 and premise_bad == 0 and elapsed < 5.0
    _report(
        2,
        ok,
        f"500 integral assignments honoring activation/fan-out rows: "
        f"{violations} tightening-row exceptions (premise breaks {premise_bad}) "
        f"in {elapsed:.2f}s < 5s",
    )
    assert ok


def _brute_cover_optimum(universe: int, sets: list) -> float:
    best = math.inf
    n = len(sets)
    for mask in range(1, 1 << n):
        covered = set()
        for t in range(n):
            if mask >> t & 1:
                covered.update(sets[t])
        if len(covered) == universe:
            best = min(best, bin(mask).count("1"))
    return float(best)


def test_c03_setcover_oracle():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(3))
    mismatches = 0
    for _ in range(50):
        universe, sets = random_cover_system(rng, max_universe=8, max_sets=10)
        inst = gen_setcover(universe, sets)
        result = solve_ip(build_model(inst))
        if result.objective != _brute_cover_optimum(universe, sets):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 30.0
    _report(
        3,
        ok,
        f"50 set-cover reductions vs exhaustive enumeration: {mismatches} mismatches "
        f"(exact equality) in {elapsed:.2f}s < 30s",
    )
    assert ok


def test_c04_rounding_postconditions(batch16):
    failures = []
    for seed, _inst, ps in batch16:
        report = audit(ps, "approx", claimed_cost=ps.cost)
        if not report.ok:
            failures.append(f"seed {seed}: {report.failures}")
        if ps.cost > 2.0 * ps.meta["draw_cost"] + 1e-6:
            failures.append(f"seed {seed}: cost above twice its accepted draw")
    ok = not failures
    _report(
        4,
        ok,
        f"30 seeded 8x6x16 avg runs: weight >= demand/4, fan-out <= 4x cap, "
        f"cost <= 2x accepted draw; {len(failures)} audit failures (max_retries=20)",
    )
    assert ok, failures


def test_c05_draw_unbiasedness():
    inst = instance_from_doc(triangle_doc())
    model = build_model(inst)
    frac = solve_lp(model)
    multiplier = 1.5
    draws = []
    costs = []
    for seed in range(1000):
        sol = randomized_round(
            frac, RoundingConfig(multiplier=multiplier, seed=seed), attempt=0
        )
        draws.append(sol.values.copy())
        costs.append(sol.realized_cost)
    arr = np.array(draws)
    mean = arr.mean(axis=0)
    se = arr.std(axis=0, ddof=1) / math.sqrt(len(arr))
    worst = 0.0
    bad = 0
    for idx in model.x_index.values():
        diff = abs(mean[idx] - frac.values[idx])
        limit = 3.0 * se[idx] + 1e-12
        worst = max(worst, diff / max(limit, 1e-30))
        if diff > limit:
            bad += 1
    cost_cap = multiplier * frac.objective * 1.05
    mean_cost = float(np.mean(costs))
    ok = bad == 0 and mean_cost <= cost_cap
    _report(
        5,
        ok,
        f"1000 seeds, fixed instance: per-relay mean within 3 SE of relaxation "
        f"(worst {worst:.2f}x limit), mean draw cost {mean_cost:.4f} <= {cost_cap:.4f}",
    )
    assert ok


def test_c06_transmission_cost_ratio():
    started = time.perf_counter()
    worst_mean_ratio = 0.0
    run_breaches = 0
    for g in range(10):
        base = gen_random((2, 3, 6), regime="avg", seed=100 + g)
        doc = base.to_doc()
        doc["mode"] = "transmission"
        inst = instance_from_doc(doc)
        lp_cost = solve_lp(build_model(inst)).objective
        costs = []
        for seed in range(30):
            ps = run_approx(inst, seed=seed)
            if ps.cost > 2.0 * ps.meta["draw_cost"] + 1e-6:
                run_breaches += 1
            costs.append(ps.cost)
        worst_mean_ratio = max(worst_mean_ratio, float(np.mean(costs)) / lp_cost)
    elapsed = time.perf_counter() - started
    ok = worst_mean_ratio <= 2.2 and run_breaches == 0
    _report(
        6,
        ok,
        f"transmission mode, 10 instances x 30 seeds: worst mean/LP ratio "
        f"{worst_mean_ratio:.3f} <= 2.2, per-run cost <= 2x own draw "
        f"({run_breaches} breaches) in {elapsed:.1f}s",
    )
    assert ok


def test_c07_half_integrality(batch16):
    exceptions = 0
    checked = 0
    for _seed, _inst, ps in batch16:
        for mass in ps.x_tilde.values():
            checked += 1
            if mass not in (0.5, 1.0):
                exceptions += 1
    for seed in range(40, 48):
        inst = gen_random((2, 4, 8), regime="avg", seed=seed)
        frac = solve_lp(build_model(inst))
        config = RoundingConfig(multiplier=default_multiplier(inst), seed=seed)
        sol = round_with_retries(frac, config)
        gap = run_gap_stage(sol)
        for mass in gap.x_tilde.values():
            checked += 1
            doubled = 2.0 * mass
            if mass not in (0.5, 1.0) or doubled != float(int(doubled)):
                exceptions += 1
    ok = exceptions == 0 and checked > 0
    _report(
        7,
        ok,
        f"box-assignment outputs over the suite: {checked} masses all exactly in "
        f"{{1/2, 1}} (assignment LP vertex integral), {exceptions} exceptions",
    )
    assert ok


def test_c08_multiplier_saturation_determinism():
    inst = gen_random((4, 5, 12), regime="avg", seed=1)
    frac = solve_lp(build_model(inst))
    msat = saturation_multiplier(frac)
    blobs = set()
    for seed in range(10):
        ps = run_approx(inst, multiplier=msat, seed=seed)
        doc = ps.to_doc()
        doc.pop("meta")  # run provenance carries the seed; routes must agree
        blobs.add(json.dumps(doc, sort_keys=True).encode())
    ok = len(blobs) == 1
    _report(
        8,
        ok,
        f"multiplier {msat:.3f} at saturation: 10 seeds produced {len(blobs)} distinct "
        f"serialized route documents (1 required, byte compare)",
    )
    assert ok


def test_c09_strict_threshold_example():
    inst = instance_from_doc(loss_floor_doc())
    worst = 0.0
    runs = 0
    for seed in range(5):
        for multiplier in (None, 4.0):
            ps = run_approx(inst, multiplier=multiplier, seed=seed)
            assert audit(ps, "approx", claimed_cost=ps.cost).ok
            worst = max(worst, ps.analytic_loss("edge"))
            runs += 1
    ok = worst <= 0.1 * (1.0 + 1e-9)
    _report(
        9,
        ok,
        f"sink demanding loss 0.0001: {runs} accepted runs, worst delivered "
        f"analytic loss {worst:.6f} <= 0.1",
    )
    assert ok


COLOR_CASES = (
    [((1, 6, 5), 2, s) for s in range(7)]
    + [((2, 6, 6), 3, s) for s in range(7)]
    + [((1, 5, 4), 2, s) for s in range(6)]
)


def test_c10_color_pipeline():
    started = time.perf_counter()
    failures = []
    for sizes, colors, seed in COLOR_CASES:
        inst = gen_random(sizes, regime="low", seed=seed, colors=colors)
        ps = run_approx(inst, seed=seed)
        report = audit(ps, "color", claimed_cost=ps.cost)
        if not report.ok:
            failures.append(f"{sizes}/{seed}: {report.failures}")
            continue
        # replay the accepted draw and inspect the rounding certificate directly
        frac = solve_lp(build_model(inst))
        config = RoundingConfig(multiplier=default_multiplier(inst), seed=seed)
        sol = round_with_retries(frac, config)
        res = run_color_stage(sol)
        cert = res.certificate
        if not (cert.coords_ok and cert.rows_ok and cert.max_increase < cert.t - 1e-9):
            failures.append(f"{sizes}/{seed}: certificate {cert}")
        if res.path_cost_total > 13.0 * res.draw_cost + 1e-6:
            failures.append(f"{sizes}/{seed}: combined path cost above 13x draw")
        if res.x_tilde != ps.x_tilde:
            failures.append(f"{sizes}/{seed}: replay diverged from pipeline output")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _report(
        10,
        ok,
        f"20 colored instances (<=6 reflectors, <=3 colors): certificates integral "
        f"with row slack under 9, every sink served, <=13 copies per (sink,color), "
        f"cost <= 13x draw; {len(failures)} failures in {elapsed:.1f}s < 60s",
    )
    assert ok, failures


ORDERING_CASES = (
    [((2, 3, 6), s) for s in (0, 2, 3, 6, 7, 9)]
    + [((2, 4, 8), s) for s in (0, 1, 3, 4)]
)


def test_c11_cost_ordering():
    budget = TimeBudget(seconds=10.0)
    evaluated = 0
    excluded = []
    violations = []
    for sizes, seed in ORDERING_CASES:
        inst = gen_random(sizes, regime="avg", seed=seed)
        approx = run_approx(inst, seed=seed)
        hack = run_hack(inst, budget=budget)
        exact = run_exact(inst, budget=budget)
        if "timeout" in (hack.meta["status"], exact.meta["status"]):
            excluded.append(f"{sizes}/{seed}: budget hit, excluded")
            continue
        evaluated += 1
        if not (exact.cost <= hack.cost + 1e-6 and hack.cost <= approx.cost + 1e-6):
            violations.append(
                f"{sizes}/{seed}: {exact.cost:.3f} / {hack.cost:.3f} / {approx.cost:.3f}"
            )
    for line in excluded:
        print(f"  excluded: {line}")
    ok = evaluated == 10 and not violations
    _report(
        11,
        ok,
        f"cost ordering exact <= fixing-hybrid <= rounding on {evaluated}/10 instances "
        f"({len(excluded)} logged exclusions, {len(violations)} violations)",
    )
    assert ok, (violations, excluded)


def test_c12_scaling_budget():
    inst = gen_random((20, 15, 60), regime="avg", seed=0)
    model = build_model(inst)
    assert len(model.x_index) >= 900
    started = time.perf_counter()
    ps = run_approx(inst, seed=0)
    elapsed = time.perf_counter() - started
    report = audit(ps, "approx", claimed_cost=ps.cost)
    ok = elapsed < 120.0 and report.ok
    _report(
        12,
        ok,
        f"20x15x60 instance ({len(model.x_index)} relay variables): rounding pipeline "
        f"end-to-end in {elapsed:.1f}s < 120s, audit "
        f"{'clean' if report.ok else report.failures} (exact solver exempt by design)",
    )
    assert ok


def test_c13_monte_carlo_consistency(batch16):
    packets = 100000
    worst = 0.0
    breaches = 0
    sinks_checked = 0
    for seed, inst, ps in batch16:
        empirical = simulate_losses(ps, packets=packets, seed=seed)
        for j, emp in empirical.items():
            p = ps.analytic_loss(j)
            sinks_checked += 1
            if p <= 0.0:
                if emp != 0.0:
                    breaches += 1
                continue
            sigma = math.sqrt(p * (1.0 - p) / packets)
            dev = abs(emp - p) / max(sigma, 1e-12)
            worst = max(worst, dev)
            if dev > 4.0:
                breaches += 1
    ok = breaches == 0
    _report(
        13,
        ok,
        f"packet simulation at 1e5 packets on all 30 criterion-4 runs "
        f"({sinks_checked} sinks): worst deviation {worst:.2f} sigma <= 4, "
        f"{breaches} breaches (fixed seeds)",
    )
    assert ok
