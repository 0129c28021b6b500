"""PathSet accounting, audit profiles, and the packet simulation."""

import json
import math

import numpy as np
import pytest

from overcast import gapflow, lp, rounding, verify
from overcast.model import ValidationError, normalize
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
