"""Colored path rounding: fragment paths, filtering, the walk, and guarantees."""

import numpy as np
import pytest

from overcast.color import (
    COLUMN_BOUND,
    COST_FILTER_FACTOR,
    ColorStageError,
    build_rounding_system,
    filter_and_scale,
    karp_round,
    run_color_stage,
)
from overcast.gapflow import BoxPlan, build_boxes
from overcast.gen import gen_random
from overcast.lp import build_model, solve_lp
from overcast.model import instance_from_doc
from overcast.pipeline import default_multiplier, run_approx
from overcast.rounding import RoundingConfig, round_with_retries
from overcast.simplex import Layout
from overcast.solution import PathSet
from overcast.verify import audit
from test_gapflow import FILTERED_MASSES, draw_from, filtered_colored_doc


def colored_doc(phi=0.01, colors=(0, 0, 1, 1), n_sinks=3):
    reflectors = []
    refl_edges = []
    for idx, color in enumerate(colors):
        rid = f"r{idx}"
        reflectors.append(
            {"id": rid, "cost": 2.0 + idx, "fanout": 4, "color": color}
        )
    sinks = []
    src_edges = [
        {"from": "s0", "to": f"r{i}", "loss": 0.02, "cost": 1.0 + 0.1 * i}
        for i in range(len(colors))
    ]
    for j in range(n_sinks):
        did = f"d{j}"
        sinks.append({"id": did, "stream": "s0", "loss_threshold": phi})
        for i in range(len(colors)):
            refl_edges.append(
                {"from": f"r{i}", "to": did, "loss": 0.05, "cost": 0.5 + 0.2 * ((i + j) % 3)}
            )
    return {
        "sources": [{"id": "s0"}],
        "reflectors": reflectors,
        "sinks": sinks,
        "src_edges": src_edges,
        "refl_edges": refl_edges,
        "colors_enabled": True,
    }


def accepted_draw(doc, multiplier=8.0, seed=5):
    inst = instance_from_doc(doc)
    model = build_model(inst)
    frac = solve_lp(model)
    config = RoundingConfig(multiplier=multiplier, seed=seed)
    return round_with_retries(frac, config)


def path_columns(sol):
    """`run_color_stage`'s cut and walk columns for the draw: (plan, the
    fragments stably sorted by reflector position, their reflector positions)."""
    model, plan = sol.model, build_boxes(sol)
    refl = model.x_refl[plan.col - model.x_offset]
    paths = np.argsort(refl, kind="stable")
    return plan, paths, refl


def rounding_system(sol):
    """`run_color_stage`'s rounding system for the draw: (plan, kept, a, v0)."""
    plan, paths, _refl = path_columns(sol)
    kept, scaled = filter_and_scale(plan, paths, sol.model.obj[plan.col], sol.realized_cost)
    return (plan, kept, *build_rounding_system(sol, plan, kept, scaled))


def recompute_increases(a, v0, v):
    return np.asarray(a) @ (np.asarray(v) - np.asarray(v0))


def test_karp_round_pair_example():
    a = np.array([[1.0, 1.0]])
    v0 = np.array([0.5, 0.5])
    v, cert = karp_round(Layout.from_dense(a), v0, t=1.0)
    assert cert.ok
    assert v.tolist() == [1.0, 0.0]
    # enumerate all four roundings against the contract
    valid = set()
    for cand in ((0, 0), (0, 1), (1, 0), (1, 1)):
        inc = recompute_increases(a, v0, np.array(cand, dtype=float))
        if np.all(inc < 1.0 - 1e-9):
            valid.add(cand)
    assert valid == {(0, 0), (0, 1), (1, 0)}
    assert tuple(int(x) for x in v) in valid


def test_karp_round_integral_input_unchanged():
    a = np.array([[2.0, -1.0, 0.5], [0.0, 1.0, 1.0]])
    v0 = np.array([1.0, 0.0, 3.0])
    v, cert = karp_round(Layout.from_dense(a), v0, t=4.0)
    assert np.array_equal(v, v0)
    assert cert.ok and cert.max_increase == 0.0


def test_karp_round_random_systems_meet_contract():
    rng = np.random.default_rng(1234)
    t = 3.0
    for trial in range(40):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 2, m + 9))
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        pos = np.where(a > 0, a, 0.0).sum(axis=0)
        neg = -np.where(a < 0, a, 0.0).sum(axis=0)
        scale = t / np.maximum(t, np.maximum(pos, neg))
        a = a * scale
        v0 = rng.uniform(0.0, 1.0, size=n)
        v, cert = karp_round(Layout.from_dense(a), v0, t=t)
        assert cert.ok, f"trial {trial}: certificate rejected"
        assert np.all((v == np.floor(v0)) | (v == np.ceil(v0)))
        inc = recompute_increases(a, v0, v)
        assert np.all(inc < t - 1e-9)
        # the walk is deterministic
        v2, _ = karp_round(Layout.from_dense(a), v0, t=t)
        assert np.array_equal(v, v2)


_WALK_SCRIPT = """
import json, sys
import numpy as np
from overcast.color import karp_round
from overcast.simplex import Layout
saved = np.load(json.loads(sys.argv[1]))
a = Layout(tuple(saved["shape"]), saved["rows"], saved["cols"], saved["vals"])
v, cert = karp_round(a, saved["v0"], float(saved["t"]))
print(json.dumps({"v": v.tobytes().hex(), "max_increase": repr(cert.max_increase)}))
"""


def test_walk_agrees_across_blas_threads(blas_threads, tmp_path):
    # The LP still rounds differently at 1 and 2 threads, so the system is
    # built once here and only the walk runs in the children.
    inst = gen_random((2, 20, 40), "low", seed=0, colors=10)
    frac = solve_lp(build_model(inst))
    sol = round_with_retries(frac, RoundingConfig(multiplier=default_multiplier(inst)))
    _plan, _kept, a, v0 = rounding_system(sol)  # 189 x 315
    path = tmp_path / "system.npz"
    np.savez(
        path, shape=(a.m, a.n), rows=a.rows, cols=a.cols, vals=a.vals, v0=v0, t=COLUMN_BOUND
    )

    one, two = (blas_threads(_WALK_SCRIPT, str(path), threads) for threads in (1, 2))
    assert one == two
    assert float(one["max_increase"]) < COLUMN_BOUND


def stepwise_walk(a, v0, t=COLUMN_BOUND):
    """`karp_round`'s walk as it was before it ceiled the floating
    coordinates at once when no row is tracked: (v, max increase, number of
    steps taken with no row tracked)."""
    lo, hi = np.floor(v0 + 1e-12), np.ceil(v0 - 1e-12)
    v = np.clip(v0, lo, hi)
    dense = np.zeros((a.m, a.n))
    dense[a.rows, a.cols] = a.vals
    untracked = 0
    while True:
        floating = np.flatnonzero((v > lo + 1e-9) & (v < hi - 1e-9))
        drift = np.bincount(a.rows, weights=a.vals * (v - v0)[a.cols], minlength=a.m)
        if floating.size == 0:
            return v, float(np.max(drift, initial=0.0)), untracked
        free = np.zeros(a.n, dtype=bool)
        free[floating] = True
        rise = a.vals * np.where(free, hi - v, 0.0)[a.cols]
        fall = a.vals * np.where(free, lo - v, 0.0)[a.cols]
        phi = np.bincount(a.rows, weights=np.maximum(rise, fall), minlength=a.m)
        tracked = (drift + phi >= t - 1e-6).nonzero()[0].tolist()
        untracked += not tracked
        while True:
            if not tracked:
                d = np.zeros(floating.size)
                d[0] = 1.0
                break
            sub = dense[np.ix_(tracked, floating)]
            _u, sv, vt = np.linalg.svd(sub)
            cut = max(1e-12, max(sub.shape) * (sv[0] if sv.size else 0.0) * 1e-12)
            rank = int(np.sum(sv > cut))
            if rank < floating.size:
                d = vt[rank]
                break
            tracked.remove(min(tracked, key=lambda r: (phi[r], r)))
        mags = np.abs(d)
        if d[int(np.flatnonzero(mags >= mags.max() * (1.0 - 1e-9))[0])] < 0:
            d = -d
        vf = v[floating]
        up, down = d > 1e-12, d < -1e-12
        lam = min(
            np.min((hi[floating][up] - vf[up]) / d[up], initial=np.inf),
            np.min((vf[down] - lo[floating][down]) / -d[down], initial=np.inf),
        )
        v[floating] += lam * d
        v = np.clip(v, lo, hi)
        snap_lo, snap_hi = v <= lo + 1e-9, v >= hi - 1e-9
        v[snap_lo] = lo[snap_lo]
        v[snap_hi] = hi[snap_hi]  # after lo: a zero coordinate ends at hi = -0.0


@pytest.mark.parametrize("case", [((2, 6, 12), 3, 0), ((2, 10, 20), 5, 2)], ids=str)
def test_walk_ends_once_no_row_is_tracked(case):
    sizes, colors, seed = case
    inst = gen_random(sizes, "low", seed=seed, colors=colors)
    frac = solve_lp(build_model(inst))
    sol = round_with_retries(frac, RoundingConfig(multiplier=default_multiplier(inst)))
    _plan, _kept, a, v0 = rounding_system(sol)
    v, cert = karp_round(a, v0)
    v_steps, max_increase, untracked = stepwise_walk(a, v0)
    assert untracked > 10  # steps the shortcut skips
    assert v.tobytes() == v_steps.tobytes()
    assert cert.max_increase == max_increase and cert.ok


def test_rounding_system_has_one_row_per_bound():
    sol = accepted_draw(colored_doc(), seed=3)
    plan, kept, a, _v0 = rounding_system(sol)
    inst, refl = sol.model.inst, path_columns(sol)[2]
    reflectors = set(refl[kept].tolist())
    boxes = set(plan.box[kept].tolist())
    groups = {(plan.sink[plan.box[f]], inst.reflectors[refl[f]].color) for f in kept}
    assert a.m == len(reflectors) + len(boxes) + len(groups) + 1  # + the cost row
    assert a.n == kept.size + a.m
    # a path sits in one feed, one color and the cost row: 1 + 1 + 4 at most
    on_path = a.cols < kept.size
    pos = np.bincount(
        a.cols[on_path], weights=np.maximum(a.vals[on_path], 0.0), minlength=kept.size
    )
    assert np.all(pos <= 2.0 + COST_FILTER_FACTOR + 1e-9)


def one_box_plan(*masses):
    """A fragment table of one box holding fragments of the given masses,
    fragment f on column f."""
    n = len(masses)
    return BoxPlan(np.arange(n), np.zeros(n, dtype=np.intp), np.array(masses), np.zeros(1, int))


def test_filter_and_scale_drops_expensive_paths():
    plan = one_box_plan(0.125, 0.125, 0.125, 0.125)
    kept, scaled = filter_and_scale(plan, np.arange(4), np.array([1.0, 1.0, 1.0, 100.0]), 1.0)
    assert kept.tolist() == [0, 1, 2]  # the fourth, at 100x the draw, is dropped
    assert scaled.tolist() == [0.5, 0.5, 0.5]

    # boundary: cost exactly 4x the draw stays in
    kept2, scaled2 = filter_and_scale(one_box_plan(0.5), np.arange(1), np.array([4.0]), 1.0)
    assert kept2.tolist() == [0] and scaled2.tolist() == [1.0]


def test_filter_and_scale_quarter_floor_and_zero_cost_guard():
    plan, paths, cost = one_box_plan(0.4, 0.1), np.arange(2), np.array([50.0, 1.0])
    with pytest.raises(ColorStageError, match="retained mass"):
        filter_and_scale(plan, paths, cost, draw_cost=1.0)
    # zero realized cost disables filtering entirely
    kept, _scaled = filter_and_scale(plan, paths, cost, draw_cost=0.0)
    assert kept.tolist() == [0, 1]


def test_walk_columns_follow_the_reflector_order_and_the_filter():
    # The hand-made draw of test_gapflow's pin: r2 costs over 4x the draw.
    sol = draw_from(build_model(instance_from_doc(filtered_colored_doc())), FILTERED_MASSES)
    plan, paths, refl = path_columns(sol)
    # Per sink, r2's heavier routes fill first: d0 cuts r2 r0 | r0 r1 and d1
    # r2 r0 r1 | r1, so r2's fragments are 0 and 4.
    assert refl.tolist() == [2, 0, 0, 1, 2, 0, 1, 1]
    assert paths.tolist() == [1, 2, 5, 3, 6, 7, 0, 4]  # stable within a reflector
    kept, scaled = filter_and_scale(plan, paths, sol.model.obj[plan.col], sol.realized_cost)
    assert kept.tolist() == paths[:6].tolist()  # both r2 fragments are dropped
    assert scaled.tolist() == np.minimum(4.0 * plan.mass[kept], 1.0).tolist()
    result = run_color_stage(sol)
    assert result.dropped_paths == 2 and set(result.selected.tolist()) <= set(kept.tolist())


@pytest.mark.parametrize("shift", [20.0, -20.0], ids=["positive", "negative"])
def test_karp_round_rejects_a_column_over_t(shift):
    sol = accepted_draw(colored_doc(), seed=3)
    _plan, _kept, a, v0 = rounding_system(sol)
    karp_round(a, v0)

    a.vals[a.colptr[0]:a.colptr[1]] += shift
    with pytest.raises(ColorStageError, match="column-sum"):
        karp_round(a, v0)


def test_fragment_table_covers_boxes_exactly():
    sol = accepted_draw(colored_doc(), seed=3)
    plan, paths, _refl = path_columns(sol)
    per_box = np.bincount(plan.box, weights=plan.mass, minlength=plan.total_boxes)
    assert per_box == pytest.approx(np.full(plan.total_boxes, 0.5), abs=1e-7)
    # boxes are numbered in order, each sink's together, and no box holds
    # two fragments of one column
    assert np.all(np.diff(plan.box) >= 0) and np.all(np.diff(plan.sink) >= 0)
    assert len(set(zip(plan.box.tolist(), plan.col.tolist()))) == plan.col.size
    # every box's column belongs to its sink, and a column's fragments never
    # carry more than its drawn mass
    model = sol.model
    x0 = model.x_offset
    assert model.x_sink[plan.col - x0].tolist() == plan.sink[plan.box].tolist()
    per_col = np.bincount(plan.col, weights=plan.mass, minlength=model.nvars)
    assert np.all(per_col <= sol.values + 1e-12)
    # the walk's columns are every fragment once
    assert sorted(paths.tolist()) == list(range(plan.col.size))


def test_color_stage_end_to_end_guarantees():
    for seed in (3, 11, 29):
        sol = accepted_draw(colored_doc(), seed=seed)
        result = run_color_stage(sol)
        assert result.certificate.ok
        assert result.certificate.max_increase < 9.0 - 1e-9

        plan, selected = result.plan, result.selected
        assert set(plan.box[selected].tolist()) == set(range(plan.total_boxes))
        refl = sol.model.x_refl[plan.col - sol.model.x_offset]
        counts = {}
        for f in selected.tolist():
            group = (plan.sink[plan.box[f]], sol.model.inst.reflectors[refl[f]].color)
            counts[group] = counts.get(group, 0) + 1
        assert all(n <= 13 for n in counts.values())
        assert result.path_cost_total <= 13.0 * result.draw_cost + 1e-6
        assert set(result.x_tilde) <= set(sol.model.x_index)

        again = run_color_stage(sol)
        assert again.x_tilde == result.x_tilde


def test_color_stage_feeds_the_color_audit_profile():
    sol = accepted_draw(colored_doc(), seed=3)
    result = run_color_stage(sol)
    ps = PathSet(
        instance=sol.model.inst,
        x_tilde=result.x_tilde,
        provenance="approx-color",
        meta={
            "draw_cost": result.draw_cost,
            "path_cost_total": result.path_cost_total,
        },
    )
    report = audit(ps, "color")
    assert report.ok, report.failures


def test_color_stage_skips_when_no_sink_demands_weight():
    doc = colored_doc(phi=1.0)
    sol = accepted_draw(doc, seed=3)
    result = run_color_stage(sol)
    assert result.x_tilde == {} and result.selected.size == 0
    assert result.certificate.ok


# run_approx on gen_random(sizes, "low", seed=seed, colors=colors) at the
# default multiplier: (stream, reflector) -> sinks. The 2x10x20 cases were
# recorded when the candidate paths were still peeled from a flow on the box
# network; on both seeds the walk picks other routes if the paths are not
# ordered by reflector. The 2x14x28 case was recorded on the dense rounding
# system, before it became one sparse layout.
PINNED_COLOR_ROUTES = {
    ((2, 10, 20), 5, 2): {
        ("s0", "r0"): ("d16", "d2", "d4"),
        ("s0", "r1"): ("d0", "d14", "d16", "d4"),
        ("s0", "r4"): ("d2", "d4", "d6", "d8"),
        ("s0", "r6"): ("d12", "d18", "d2", "d6"),
        ("s0", "r7"): ("d2",),
        ("s0", "r8"): ("d10", "d12", "d18"),
        ("s0", "r9"): ("d10", "d8"),
        ("s1", "r2"): ("d1", "d17", "d19", "d5", "d7", "d9"),
        ("s1", "r4"): ("d1", "d11", "d17", "d9"),
        ("s1", "r5"): ("d11", "d13", "d19", "d7"),
        ("s1", "r6"): ("d13", "d3", "d5", "d7"),
        ("s1", "r7"): ("d13", "d15", "d3", "d9"),
        ("s1", "r8"): ("d11", "d19"),
        ("s1", "r9"): ("d1", "d15"),
    },
    ((2, 10, 20), 5, 7): {
        ("s0", "r0"): ("d0", "d10", "d12", "d16", "d6", "d8"),
        ("s0", "r1"): ("d12", "d18", "d2", "d4"),
        ("s0", "r3"): ("d14", "d18", "d4", "d6"),
        ("s0", "r4"): ("d10", "d14", "d4"),
        ("s0", "r6"): ("d10", "d2", "d8"),
        ("s0", "r7"): ("d10", "d18"),
        ("s1", "r1"): ("d7", "d9"),
        ("s1", "r4"): ("d13", "d17", "d7"),
        ("s1", "r5"): ("d11", "d19", "d3", "d5", "d9"),
        ("s1", "r6"): ("d19", "d9"),
        ("s1", "r7"): ("d17", "d7", "d9"),
        ("s1", "r8"): ("d1", "d15", "d9"),
    },
    ((2, 14, 28), 7, 1): {
        ("s0", "r5"): ("d16", "d20", "d24", "d4"),
        ("s0", "r6"): ("d2", "d20", "d24"),
        ("s0", "r7"): ("d20", "d22", "d26"),
        ("s0", "r8"): ("d10", "d26"),
        ("s0", "r9"): ("d0", "d2", "d22", "d4", "d6"),
        ("s0", "r10"): ("d0", "d16", "d22", "d6", "d8"),
        ("s0", "r12"): ("d0", "d10", "d14", "d24", "d8"),
        ("s0", "r13"): ("d12", "d14", "d18", "d26"),
        ("s1", "r1"): ("d11", "d7", "d9"),
        ("s1", "r3"): ("d1", "d5", "d7"),
        ("s1", "r5"): ("d7", "d9"),
        ("s1", "r6"): ("d11", "d15"),
        ("s1", "r7"): ("d13", "d15", "d19", "d23"),
        ("s1", "r8"): ("d21", "d9"),
        ("s1", "r9"): ("d21",),
        ("s1", "r10"): ("d21", "d25", "d27"),
        ("s1", "r11"): ("d17", "d3"),
        ("s1", "r12"): ("d11", "d23", "d25", "d27"),
    },
}


# sha256 of each case's solution.json (`save_pathset`) at one BLAS thread:
# the whole document, so `karp_max_increase`, `path_cost_total` and the cost
# are pinned to the last bit along with the routes. Recorded while the walk's
# system still had its pair, assignment and demand rows; deleting them moved
# no byte. The seed-2 and 2x14x28 digests were re-recorded when the LP
# started from its start basis and left out the capacity rows that cannot
# bind: `lp_bound`, `draw_cost` and `karp_max_increase` moved by at most
# 5e-16 relative, and the routes, masses and cost kept their bytes.
PINNED_COLOR_DOCS = {
    ((2, 10, 20), 5, 2): "a7cd92fb88f2c398e49af69a51885c5be0098542d9cb23800fcb38354f1c7414",
    ((2, 10, 20), 5, 7): "25a4cea728a3ae9dff948622eca76087aef420b83b29bacebb7528e690cea5b3",
    ((2, 14, 28), 7, 1): "eca2cd9beb87d743b11521351690fdc6ff2c91cbabb7f3839b590f15819de1b2",
}

_DOC_SCRIPT = """
import hashlib, json, sys, tempfile
from pathlib import Path
from overcast.gen import gen_random
from overcast.pipeline import run_approx
from overcast.solution import save_pathset
sizes, colors, seed = json.loads(sys.argv[1])
ps = run_approx(gen_random(tuple(sizes), "low", seed=seed, colors=colors))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "solution.json"
    save_pathset(ps, path)
    print(json.dumps(hashlib.sha256(path.read_bytes()).hexdigest()))
"""


@pytest.mark.parametrize(
    "case", list(PINNED_COLOR_ROUTES), ids=["2", "7", "2x14x28-7-s1"]
)
def test_colored_selection_pinned(case, one_blas_thread):
    sizes, colors, seed = case
    ps = run_approx(gen_random(sizes, "low", seed=seed, colors=colors))
    expected = sorted(
        (k, i, j) for (k, i), sinks in PINNED_COLOR_ROUTES[case].items() for j in sinks
    )
    assert sorted(ps.x_tilde) == expected
    assert one_blas_thread(_DOC_SCRIPT, case) == PINNED_COLOR_DOCS[case]
