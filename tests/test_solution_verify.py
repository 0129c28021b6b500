"""PathSet accounting, audit profiles, and the packet simulation."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from overcast import color, gapflow, lp, rounding, verify
from overcast.gen import gen_random
from overcast.model import ValidationError, normalize
from overcast.pipeline import run_approx
from overcast.solution import PathSet, from_integral


def two_path_doc(mode="full"):
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


def both_routes(inst, mode="full"):
    return PathSet(
        instance=inst,
        x_tilde={("s0", "r0", "d0"): 1.0, ("s0", "r1", "d0"): 1.0},
        provenance="exact-ip",
        mode=mode,
    )


def test_cost_breakdown_full_and_transmission():
    inst = normalize(two_path_doc())
    ps = both_routes(inst)
    parts = ps.cost_breakdown()
    assert parts == {
        "reflectors": 8.0,
        "feeds": 3.0,
        "relays": 2.5,
        "total": 13.5,
    }
    tinst = normalize(two_path_doc(mode="transmission"))
    tps = both_routes(tinst, mode="transmission")
    assert tps.cost == pytest.approx((1.0 + 1.0) + (2.0 + 1.5))


def test_json_round_trip(tmp_path):
    inst = normalize(two_path_doc())
    ps = both_routes(inst)
    ps.meta["status"] = "optimal"
    path = tmp_path / "routes.json"
    from overcast.solution import load_pathset, save_pathset

    save_pathset(ps, path)
    back = load_pathset(inst, path)
    assert back.x_tilde == ps.x_tilde
    assert back.provenance == ps.provenance
    assert back.meta == ps.meta
    assert back.cost == ps.cost


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: [doc],
        lambda doc: _without(doc, "provenance"),
        lambda doc: _without(doc, "routes"),
        lambda doc: {**doc, "routes": {"stream": "s0"}},
        lambda doc: {**doc, "routes": [_without(doc["routes"][0], "sink")]},
        lambda doc: {**doc, "routes": [{**doc["routes"][0], "mass": "1"}]},
        lambda doc: {**doc, "routes": [doc["routes"][0]] * 2},
        lambda doc: {**doc, "cost": "13.5"},
        lambda doc: {**doc, "routes": [{**doc["routes"][0], "sink": ["d0"]}]},
    ],
    ids=["not-object", "no-provenance", "no-routes", "routes-not-list", "route-key",
         "mass-not-number", "duplicate", "cost", "sink-list"],
)
def test_from_doc_rejects_malformed_documents(edit):
    inst = normalize(two_path_doc())
    doc = json.loads(both_routes(inst).to_json())
    PathSet.from_doc(inst, doc)
    with pytest.raises(ValidationError):
        PathSet.from_doc(inst, edit(doc))


def test_exact_audit_accepts_ip_solution():
    inst = normalize(two_path_doc())
    model = lp.build_model(inst)
    res = lp.solve_ip(model)
    ps = from_integral(res, "exact-ip")
    assert ps.provenance == "exact-ip"
    assert ps.cost == pytest.approx(res.objective)
    report = verify.audit(ps, "exact", claimed_cost=res.objective)
    assert report.ok, report.failures
    assert report.sink_losses["d0"] <= 0.25


def test_exact_audit_flags_violations():
    inst = normalize(two_path_doc())
    # No route at all: demanded weight unmet.
    empty = PathSet(instance=inst, x_tilde={}, provenance="exact-ip")
    report = verify.audit(empty, "exact")
    assert not report.ok
    assert any("kept weight" in f for f in report.failures)
    assert any("delivery loss" in f for f in report.failures)

    # Half masses are an approx-only shape.
    halves = PathSet(
        instance=inst, x_tilde={("s0", "r0", "d0"): 0.5}, provenance="exact-ip"
    )
    assert any("mass" in f for f in verify.audit(halves, "exact").failures)

    # Claimed cost must match the recomputation.
    good = both_routes(inst)
    report = verify.audit(good, "exact", claimed_cost=1.0)
    assert any("claimed cost" in f for f in report.failures)


def test_fanout_audit_factors():
    doc = two_path_doc()
    doc["reflectors"][0]["fanout"] = 1
    doc["sinks"].append({"id": "d1", "stream": "s0", "loss_threshold": 0.25})
    doc["refl_edges"].append({"from": "r0", "to": "d1", "loss": 0.1, "cost": 1.0})
    inst = normalize(doc)
    ps = PathSet(
        instance=inst,
        x_tilde={("s0", "r0", "d0"): 1.0, ("s0", "r0", "d1"): 1.0},
        provenance="exact-ip",
    )
    exact = verify.audit(ps, "exact")
    assert any("routes over" in f for f in exact.failures)
    # Two routes on a fan-out of one passes the 4x approx allowance, but the
    # masses must then be approx-shaped too (1.0 is allowed there).
    approx = verify.audit(ps, "approx")
    assert not any("routes over" in f for f in approx.failures)


def unmeasured_bandwidth_doc(missing):
    """Three sinks routed over r0 under bandwidth caps, with the source's
    bitrate or r0's bandwidth left out."""
    doc = {
        "bandwidth_enabled": True,
        "sources": [{"id": "s0", "bitrate": 1.0}],
        "reflectors": [{"id": "r0", "cost": 5.0, "fanout": 4, "bandwidth": 1.0}],
        "sinks": [{"id": f"d{j}", "stream": "s0", "loss_threshold": 0.25} for j in range(3)],
        "src_edges": [{"from": "s0", "to": "r0", "loss": 0.01, "cost": 1.0}],
        "refl_edges": [
            {"from": "r0", "to": f"d{j}", "loss": 0.01, "cost": 1.0} for j in range(3)
        ],
    }
    if missing == "bitrate":
        del doc["sources"][0]["bitrate"]
    else:
        del doc["reflectors"][0]["bandwidth"]
    return doc


@pytest.mark.parametrize(("missing", "named"), [
    ("bitrate", "stream s0: no bitrate"),
    ("bandwidth", "reflector r0: no bandwidth cap"),
])
def test_fanout_audit_names_a_missing_bitrate_or_bandwidth(missing, named):
    # Three unit-rate copies over a bandwidth of 1 once passed as load 0
    # when the bitrate was missing: a missing value is not a zero.
    inst = normalize(unmeasured_bandwidth_doc(missing))
    routes = {("s0", "r0", f"d{j}"): 1.0 for j in range(3)}
    report = verify.audit(PathSet(instance=inst, x_tilde=routes, provenance="exact-ip"), "exact")
    assert not report.ok
    assert any(f.startswith(named) for f in report.failures), report.failures
    assert math.isnan(report.fanout_ratio)


def test_approx_audit_accepts_gap_output():
    inst = normalize(two_path_doc())
    model = lp.build_model(inst)
    values = np.ones(model.nvars)
    values[model.x_index[("s0", "r0", "d0")]] = 0.5
    values[model.x_index[("s0", "r1", "d0")]] = 0.5
    sol = rounding.SemiIntegralSolution(model, values, attempt=0)
    res = gapflow.run_gap_stage(sol)
    ps = PathSet(instance=inst, x_tilde=res.x_tilde, provenance="approx")
    report = verify.audit(ps, "approx")
    assert report.ok, report.failures
    assert report.sink_weights["d0"] == pytest.approx(2.0)


def test_simulation_matches_analytic_losses():
    inst = normalize(two_path_doc())
    ps = both_routes(inst)
    analytic = ps.analytic_loss("d0")
    assert analytic == pytest.approx(0.19 * 0.235)
    n = 200_000
    mc = verify.simulate_losses(ps, n, seed=42)["d0"]
    sigma = math.sqrt(analytic * (1 - analytic) / n)
    assert abs(mc - analytic) < 4 * sigma


def test_simulation_shares_first_hop_draws():
    doc = {
        "sources": [{"id": "s0"}],
        "reflectors": [{"id": "r0", "cost": 1.0, "fanout": 4}],
        "sinks": [
            {"id": "d0", "stream": "s0", "loss_threshold": 0.9},
            {"id": "d1", "stream": "s0", "loss_threshold": 0.9},
        ],
        "src_edges": [{"from": "s0", "to": "r0", "loss": 0.5, "cost": 1.0}],
        "refl_edges": [
            {"from": "r0", "to": "d0", "loss": 0.0, "cost": 1.0},
            {"from": "r0", "to": "d1", "loss": 0.0, "cost": 1.0},
        ],
    }
    inst = normalize(doc)
    ps = PathSet(
        instance=inst,
        x_tilde={("s0", "r0", "d0"): 1.0, ("s0", "r0", "d1"): 1.0},
        provenance="exact-ip",
    )
    losses = verify.simulate_losses(ps, 50_000, seed=7)
    # Lossless legs off a shared feed: the two sinks see the very same drops.
    assert losses["d0"] == losses["d1"]
    assert abs(losses["d0"] - 0.5) < 0.02


def test_simulation_deterministic_and_validates():
    inst = normalize(two_path_doc())
    ps = both_routes(inst)
    a = verify.simulate_losses(ps, 10_000, seed=9)
    b = verify.simulate_losses(ps, 10_000, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        verify.simulate_losses(ps, 0, seed=1)
    for packets in (1e5, 100.0, True, "100", None):
        with pytest.raises(ValueError, match="packets must be an integer"):
            verify.simulate_losses(ps, packets, seed=1)
    assert repr(verify.simulate_losses(ps, np.int64(10_000), seed=9)) == repr(a)
    stray = PathSet(instance=inst, x_tilde={("s0", "r9", "d0"): 1.0}, provenance="exact-ip")
    with pytest.raises(ValueError, match=r"route \(s0,r9,d0\): no first-hop edge"):
        verify.simulate_losses(stray, 100, seed=1)
    with pytest.raises(ValueError):
        verify.audit(ps, "bogus")


def test_sink_without_routes_loses_everything():
    doc = two_path_doc()
    doc["sinks"].append({"id": "d1", "stream": "s0", "loss_threshold": 1.0})
    doc["refl_edges"].append({"from": "r0", "to": "d1", "loss": 0.1, "cost": 1.0})
    inst = normalize(doc)
    ps = both_routes(inst)
    losses = verify.simulate_losses(ps, 1000, seed=0)
    assert losses["d1"] == 1.0
    assert ps.analytic_loss("d1") == 1.0


def test_simulation_edge_loss_rates():
    doc = two_path_doc()
    doc["sinks"].append({"id": "d1", "stream": "s0", "loss_threshold": 1.0})
    doc["src_edges"][0]["loss"] = 1.0
    doc["src_edges"][1]["loss"] = 0.0
    doc["refl_edges"][1]["loss"] = 0.0
    doc["refl_edges"].append({"from": "r1", "to": "d1", "loss": 1.0, "cost": 1.0})
    inst = normalize(doc)
    ps = PathSet(
        instance=inst,
        x_tilde={("s0", "r0", "d0"): 1.0, ("s0", "r1", "d1"): 1.0},
        provenance="exact-ip",
    )
    # r0's feed and r1's leg to d1 drop everything; r1's feed and leg to d0 nothing.
    assert verify.simulate_losses(ps, 5000, seed=3) == {"d0": 1.0, "d1": 1.0}
    ps.x_tilde[("s0", "r1", "d0")] = 1.0
    assert verify.simulate_losses(ps, 5000, seed=3) == {"d0": 0.0, "d1": 1.0}


def set_oracle_losses(ps, packets, seed):
    """simulate_losses with Python sets: the same drops, drawn in the same
    order (feeds, then routes), united per route and intersected per sink."""
    inst = ps.instance
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))

    def drops(p):
        idx = verify._drops(rng, p, packets)
        assert all(0 <= n < packets for n in idx)
        return set(idx.tolist())

    feed = {f: drops(inst.src_edges[f].loss) for f in ps.feeds}
    lost = {}
    for (k, i, j) in ps.routes:
        route = feed[(k, i)] | drops(inst.refl_edges[(i, j)].loss)
        lost[j] = lost[j] & route if j in lost else route
    return {d.id: len(lost.get(d.id, range(packets))) / packets for d in inst.sinks}


@pytest.mark.parametrize("packets", [1, 2, 7, 1000, 20_000])
def test_simulation_matches_a_set_oracle(packets):
    # d0 has three routes, d1 two (one over a leg that drops everything), d2
    # none and d3 one over lossless links; 7 packets and fewer are smaller
    # than one draw batch at every loss rate here.
    doc = {
        "sources": [{"id": "s0"}],
        "reflectors": [{"id": f"r{n}", "cost": 1.0, "fanout": 4} for n in range(3)],
        "sinks": [{"id": f"d{n}", "stream": "s0", "loss_threshold": 1.0} for n in range(4)],
        "src_edges": [
            {"from": "s0", "to": "r0", "loss": 0.3, "cost": 1.0},
            {"from": "s0", "to": "r1", "loss": 0.0, "cost": 1.0},
            {"from": "s0", "to": "r2", "loss": 0.5, "cost": 1.0},
        ],
        "refl_edges": [
            {"from": i, "to": j, "loss": loss, "cost": 1.0}
            for i, j, loss in [
                ("r0", "d0", 0.2), ("r1", "d0", 0.4), ("r2", "d0", 0.1),
                ("r0", "d1", 1.0), ("r2", "d1", 0.25), ("r0", "d2", 0.1), ("r1", "d3", 0.0),
            ]
        ],
    }
    inst = normalize(doc)
    routes = [("r0", "d0"), ("r1", "d0"), ("r2", "d0"), ("r0", "d1"), ("r2", "d1"), ("r1", "d3")]
    ps = PathSet(
        instance=inst, x_tilde={("s0", i, j): 1.0 for i, j in routes}, provenance="exact-ip"
    )
    for seed in range(4):
        losses = verify.simulate_losses(ps, packets, seed)
        assert losses == set_oracle_losses(ps, packets, seed)
        assert losses["d2"] == 1.0 and losses["d3"] == 0.0


def geometric_drops(rng, p, packets):
    """The sampler `verify._drops` replaced: Geometric(p) gaps from
    `rng.geometric`, summed in int64. Also returns how often its extension
    loop ran."""
    if p <= 0.0:
        return np.empty(0, dtype=np.int64), 0
    batch = int(p * packets + 3.0 * math.sqrt(p * packets)) + 1
    idx = np.cumsum(rng.geometric(p, batch)) - 1
    extensions = 0
    while idx[-1] < packets:
        idx = np.concatenate((idx, idx[-1] + np.cumsum(rng.geometric(p, batch))))
        extensions += 1
    return idx[: np.searchsorted(idx, packets)], extensions


def test_drops_are_the_geometric_draws_they_replace():
    # Pins the installed numpy's `Generator.geometric`, which the loss pins
    # above were recorded with: below 1/3 `_drops` scales a block of
    # exponentials itself, at and above it calls `geometric`. The generator's
    # end state must match too, so that later links draw the same words.
    rates = [1e-12, 1e-3, 0.02, 0.2, math.nextafter(1 / 3, 0), 1 / 3, 0.5, 1.0]
    # (seed, p, packets); the two cases after seeds 0-4 run the extension
    # loop twice on their first link, past a batch of one gap (seed 25 was
    # found by search).
    cases = [(seed, p, packets) for seed in range(5) for p in rates
             for packets in (1, 7, 1000, 250_000)]
    cases += [(25, 0.02, 4), (25, 1e-3, 91)]
    extended = 0
    for seed, p, packets in cases:
        new = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
        old = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
        for _ in range(3):  # successive links off one generator
            got = verify._drops(new, p, packets)
            want, extensions = geometric_drops(old, p, packets)
            assert got.dtype == np.int64 and np.array_equal(got, want), (seed, p, packets)
            extended = max(extended, extensions)
        assert new.bit_generator.state == old.bit_generator.state, (seed, p, packets)
    assert extended >= 2


def many_routes_plan(reflectors, sinks, feed_loss, leg_loss):
    """A plan routing every sink over every reflector, one stream."""
    doc = {
        "sources": [{"id": "s0"}],
        "reflectors": [{"id": r, "cost": 1.0, "fanout": len(sinks)} for r in reflectors],
        "sinks": [{"id": d, "stream": "s0", "loss_threshold": 1.0} for d in sinks],
        "src_edges": [
            {"from": "s0", "to": r, "loss": feed_loss(n), "cost": 1.0}
            for n, r in enumerate(reflectors)
        ],
        "refl_edges": [
            {"from": r, "to": d, "loss": leg_loss(n, m), "cost": 1.0}
            for m, d in enumerate(sinks) for n, r in enumerate(reflectors)
        ],
    }
    return PathSet(
        instance=normalize(doc),
        x_tilde={("s0", r, d): 1.0 for d in sinks for r in reflectors},
        provenance="exact-ip",
    )


@pytest.mark.parametrize("layout", ["dense", "sparse"])
def test_simulation_past_255_routes_matches_a_set_oracle(layout):
    # The stamps of a byte run out after route 255, and the array is zeroed
    # and stamped from 1 again. Dense: 3 reflectors x 90 sinks, every link
    # lossy. Sparse: 2 reflectors x 300 sinks, where only the legs of routes
    # 301 and 556 (stamp 46 both) are stamped at all, so route 556 would keep
    # route 301's drops if the array were not zeroed in between.
    if layout == "dense":
        ps = many_routes_plan(
            ["r0", "r1", "r2"], [f"d{m}" for m in range(90)],
            lambda n: (0.1, 0.3, 0.5)[n], lambda n, m: (0.05, 0.2, 0.45)[(n + m) % 3],
        )
    else:
        ps = many_routes_plan(
            ["a", "b"], [f"d{m:03}" for m in range(300)],
            lambda n: 0.0, lambda n, m: 0.5 if n == 0 or m in (0, 255) else 0.0,
        )
    assert len(ps.routes) > 255
    for seed in range(4):
        assert verify.simulate_losses(ps, 1000, seed) == set_oracle_losses(ps, 1000, seed)


def test_simulation_memory_is_the_drops_plus_a_byte_per_packet():
    # 1.25x the tracemalloc peak of the sort-based union and intersection
    # that mark-and-gather replaced (23675608 bytes on this plan and seed).
    # One packet mask per sink would take 16 x 2 MB on its own.
    bound = 1.25 * 23_675_608
    ps = run_approx(gen_random((8, 6, 16), "avg", seed=0))
    tracemalloc.start()
    try:
        verify.simulate_losses(ps, 2_000_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize(
    "sizes, regime, colors", [((12, 12, 40), "avg", None), ((2, 10, 20), "low", 5)]
)
def test_audit_matches_the_per_sink_values(sizes, regime, colors):
    inst = gen_random(sizes, regime, seed=0, colors=colors)
    ps = run_approx(inst)
    # The same plan without its first sink's routes, in reverse x_tilde order.
    first = inst.sinks[0].id
    rest = PathSet(
        instance=inst,
        x_tilde={r: m for r, m in reversed(ps.x_tilde.items()) if r[2] != first},
        provenance=ps.provenance,
    )
    for plan in (ps, rest):
        report = verify.audit(plan, "color" if colors else "approx")
        weights = {
            d.id: sum(
                inst.path_weight(k, i, j) * mass
                for (k, i, j), mass in plan.x_tilde.items()
                if j == d.id
            )
            for d in inst.sinks
        }
        losses = {d.id: plan.analytic_loss(d.id) for d in inst.sinks}
        assert repr(report.sink_weights) == repr(weights)
        assert repr(report.sink_losses) == repr(losses)
    assert report.sink_weights[first] == 0 and report.sink_losses[first] == 1.0


def test_simulation_ignores_route_order_and_round_trip():
    doc = two_path_doc()
    doc["sinks"].append({"id": "d1", "stream": "s0", "loss_threshold": 1.0})
    doc["refl_edges"].append({"from": "r0", "to": "d1", "loss": 0.2, "cost": 1.0})
    inst = normalize(doc)
    ps = both_routes(inst)
    ps.x_tilde[("s0", "r0", "d1")] = 1.0
    reverse = PathSet(
        instance=inst, x_tilde=dict(reversed(ps.x_tilde.items())), provenance="exact-ip"
    )
    expected = verify.simulate_losses(ps, 20_000, seed=5)
    assert verify.simulate_losses(PathSet.from_doc(inst, ps.to_doc()), 20_000, seed=5) == expected
    assert verify.simulate_losses(reverse, 20_000, seed=5) == expected


def test_audit_bounds_follow_from_the_stage_constants():
    # The audit keeps its own numbers, so that it does not trust the stages;
    # these are the bounds each stage proves from its constants.
    assert verify.APPROX_WEIGHT_FRACTION == 0.5 - rounding.DELTA
    assert verify.PROFILES["approx"] == (gapflow.FANOUT_FACTOR, 0.0)
    assert verify.PROFILES["color"] == (2 * color.MASS_SCALE, color.COLUMN_BOUND)
    assert verify.COLOR_FACTOR == color.MASS_SCALE + color.COLUMN_BOUND


# sha256 of repr(sorted(simulate_losses(plan, packets, seed).items())) for
# seeds 0-2 and the packet counts below, per plan, where a plan is
# run_approx(gen_random(sizes, regime, seed=0, colors=colors)) at one BLAS
# thread. Recorded from the sort-based union and intersection that the
# mark-and-gather simulation replaced. (sizes, regime, colors) -> digest.
PINNED_LOSSES = [
    (((8, 6, 16), "avg", None),
     "a9f5fd8b6273afaa9c175d016e92626376f0b90e6204d079a97609f9a1a644b5"),
    (((2, 10, 20), "low", 5),
     "fbd1a21442d37aa9b1931f9849770addcb8cf2dd72a2c99ec929ed2c8ff33967"),
    (((3, 4, 8), "high", None),
     "20a21a3ebbd5027a7b6a3f29687585b6779cb6c9e3304849c068690c56ed0ee2"),
]
PINNED_PACKETS = [1, 37, 10**4, 250_000]

_LOSSES_SCRIPT = """
import hashlib, json, sys
from overcast.gen import gen_random
from overcast.pipeline import run_approx
from overcast.verify import simulate_losses
plans, packet_counts = json.loads(sys.argv[1])
out = []
for (sizes, regime, colors), _ in plans:
    ps = run_approx(gen_random(tuple(sizes), regime, seed=0, colors=colors))
    digest = hashlib.sha256()
    for seed in range(3):
        for packets in packet_counts:
            losses = simulate_losses(ps, packets, seed)
            digest.update(repr(sorted(losses.items())).encode() + b"\\n")
    out.append(digest.hexdigest())
print(json.dumps(out))
"""


def test_simulated_losses_pinned(one_blas_thread):
    got = one_blas_thread(_LOSSES_SCRIPT, [PINNED_LOSSES, PINNED_PACKETS])
    assert got == [digest for _, digest in PINNED_LOSSES]
