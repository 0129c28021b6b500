"""Instance model: weights, losses, normalization, schema validation."""

import json
import math
import re

import pytest

from overcast import model
from overcast.gen import gen_random
from overcast.model import (
    EdgeSpec,
    Instance,
    ReflectorSpec,
    SinkSpec,
    SourceSpec,
    ValidationError,
    WeightTable,
)


def tiny_instance(threshold=0.01, p_src=0.1, p_refl=0.1, mode="full"):
    return Instance(
        sources=[SourceSpec("s0")],
        reflectors=[ReflectorSpec("r0", cost=10.0, fanout=2)],
        sinks=[SinkSpec("d0", stream="s0", loss_threshold=threshold)],
        src_edges={("s0", "r0"): EdgeSpec(loss=p_src, cost=1.0)},
        refl_edges={("r0", "d0"): EdgeSpec(loss=p_refl, cost=2.0)},
        mode=mode,
    )


def test_path_loss_combines_independent_links():
    inst = tiny_instance(p_src=0.1, p_refl=0.1)
    # Oracle: 0.1 + 0.1 - 0.01, evaluated by hand.
    assert inst.path_loss("s0", "r0", "d0") == pytest.approx(0.19, abs=0)


def test_weight_threshold_is_log2_of_loss_ceiling():
    sink = SinkSpec("d", stream="s", loss_threshold=0.01)
    # Oracle: -log2(0.01), frozen.
    assert sink.weight_threshold == pytest.approx(6.643856189774724, abs=1e-12)


def test_path_weight_clamped_and_raw():
    inst = tiny_instance(threshold=0.01, p_src=0.1, p_refl=0.1)
    # Oracle: -log2(0.19), frozen.
    raw = inst.path_weight("s0", "r0", "d0", clamp=False)
    assert raw == pytest.approx(2.395928676331139, abs=1e-12)
    assert inst.path_weight("s0", "r0", "d0") == pytest.approx(raw)  # below threshold
    # A lossless path clamps to the sink threshold instead of inf.
    lossless = tiny_instance(threshold=0.01, p_src=0.0, p_refl=0.0)
    assert math.isinf(lossless.path_weight("s0", "r0", "d0", clamp=False))
    assert lossless.path_weight("s0", "r0", "d0") == pytest.approx(6.643856189774724)


def test_weight_antitone_in_loss():
    prev = math.inf
    inst = lambda p: tiny_instance(threshold=1e-6, p_src=p, p_refl=p)  # noqa: E731
    for p in [0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0]:
        w = inst(p).path_weight("s0", "r0", "d0")
        assert w <= prev + 1e-12
        prev = w
    assert inst(1.0).path_weight("s0", "r0", "d0") == 0.0


def test_analytic_loss_is_product_of_path_losses():
    inst = Instance(
        sources=[SourceSpec("s0")],
        reflectors=[ReflectorSpec("r0", 1.0, 4), ReflectorSpec("r1", 1.0, 4)],
        sinks=[SinkSpec("d0", "s0", 0.05)],
        src_edges={
            ("s0", "r0"): EdgeSpec(0.1, 1.0),
            ("s0", "r1"): EdgeSpec(0.05, 1.0),
        },
        refl_edges={
            ("r0", "d0"): EdgeSpec(0.1, 1.0),
            ("r1", "d0"): EdgeSpec(0.05, 1.0),
        },
    )
    # Oracle: (0.19) * (0.05 + 0.05 - 0.0025) = 0.19 * 0.0975
    assert inst.analytic_loss(["r0", "r1"], "s0", "d0") == pytest.approx(0.19 * 0.0975, abs=1e-15)
    assert inst.analytic_loss([], "s0", "d0") == 1.0


def test_claim_sum_weights_iff_loss_within_threshold():
    # Log-domain identity between summed raw weights and the analytic loss,
    # spot-checked here; the acceptance suite sweeps 1000 random cases.
    rng_losses = [(0.19, 0.095), (0.5, 0.5), (0.9, 0.01)]
    for pa, pb in rng_losses:
        w_sum = -math.log2(pa) + -math.log2(pb)
        product = pa * pb
        assert w_sum == pytest.approx(-math.log2(product), abs=1e-9)


def test_missing_edge_signals_path_unavailable():
    inst = tiny_instance()
    with pytest.raises(model.PathUnavailableError):
        inst.path_weight("s0", "r0", "nope")


def raw_doc():
    return {
        "sources": [{"id": "E", "streams": ["a", "b"]}],
        "reflectors": [
            {"id": "r0", "cost": 5.0, "fanout": 3},
            {"id": "r1", "cost": 5.0, "fanout": 3},
        ],
        "sinks": [
            {"id": "D", "demands": [
                {"stream": "a", "loss_threshold": 0.01},
                {"stream": "b", "loss_threshold": 0.02},
            ]},
            {"id": "G", "demands": [{"stream": "a", "loss_threshold": 0.05}]},
        ],
        "src_edges": [
            {"from": "E", "to": "r0", "loss": 0.01, "cost": 1.0},
            {"from": "E", "to": "r1", "loss": 0.02, "cost": 1.5},
        ],
        "refl_edges": [
            {"from": "r0", "to": "D", "loss": 0.01, "cost": 2.0},
            {"from": "r1", "to": "D", "loss": 0.01, "cost": 2.0},
            {"from": "r0", "to": "G", "loss": 0.03, "cost": 2.5},
        ],
    }


def test_normalize_replicates_sources_and_sinks():
    inst = model.normalize(raw_doc())
    assert sorted(s.id for s in inst.sources) == ["E#a", "E#b"]
    assert sorted(d.id for d in inst.sinks) == ["D#a", "D#b", "G#a"]
    assert inst.sink_by_id["D#a"].stream == "E#a"
    assert inst.sink_by_id["D#b"].stream == "E#b"
    # Demand count preserved: 3 demands -> 3 sinks.
    assert len(inst.sinks) == 3
    # Edges duplicated onto replicas with identical loss/cost.
    assert inst.src_edges[("E#a", "r0")] == inst.src_edges[("E#b", "r0")]
    assert inst.refl_edges[("r0", "D#a")].cost == 2.0
    assert inst.refl_edges[("r0", "D#b")].cost == 2.0


def test_normalize_idempotent():
    once = model.normalize_doc(raw_doc())
    twice = model.normalize_doc(once)
    assert once == twice


def test_normalize_drops_undemanded_streams():
    doc = raw_doc()
    doc["sources"][0]["streams"].append("c")  # nobody demands c
    inst = model.normalize(doc)
    assert sorted(s.id for s in inst.sources) == ["E#a", "E#b"]
    assert all(len(inst.sinks) >= len(inst.sources) for _ in [0])


def test_unknown_keys_rejected():
    doc = raw_doc()
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="extra"):
        model.normalize(doc)
    doc = raw_doc()
    doc["reflectors"][0]["capacity"] = 9
    with pytest.raises(ValidationError, match="capacity"):
        model.normalize(doc)
    doc = raw_doc()
    doc["src_edges"][0]["weight"] = 1.0
    with pytest.raises(ValidationError, match="weight"):
        model.normalize(doc)


def test_schema_violations_rejected():
    with pytest.raises(ValidationError, match="loss_threshold"):
        tiny_instance(threshold=0.0)
    with pytest.raises(ValidationError, match="loss"):
        tiny_instance(p_src=1.5)
    doc = raw_doc()
    doc["sinks"][0]["demands"][0]["stream"] = "zzz"
    with pytest.raises(ValidationError, match="zzz"):
        model.normalize(doc)
    doc = raw_doc()
    doc["sources"].append({"id": "F", "streams": ["a"]})
    with pytest.raises(ValidationError, match="duplicate stream"):
        model.normalize(doc)


@pytest.mark.parametrize(
    "field, specs",
    [
        ("loss_threshold", {"sinks": [SinkSpec("d0", stream="s0", loss_threshold="0.1")]}),
        ("bitrate", {"sources": [SourceSpec("s0", bitrate="1.0")]}),
        ("cost", {"reflectors": [ReflectorSpec("r0", cost="10", fanout=2)]}),
        ("bandwidth", {"reflectors": [ReflectorSpec("r0", cost=10.0, fanout=2, bandwidth="5")]}),
        ("color", {"reflectors": [ReflectorSpec("r0", cost=10.0, fanout=2, color="a")]}),
        ("id", {"sources": [SourceSpec(5)]}),
        ("colors_enabled", {"colors_enabled": "no"}),
        ("bandwidth_enabled", {"bandwidth_enabled": "no"}),
    ],
)
def test_spec_fields_of_the_wrong_type_rejected(field, specs):
    # Built from specs, not a document: the instance checks each field's type.
    base = {
        "sources": [SourceSpec("s0")],
        "reflectors": [ReflectorSpec("r0", cost=10.0, fanout=2)],
        "sinks": [SinkSpec("d0", stream="s0", loss_threshold=0.01)],
        "src_edges": {("s0", "r0"): EdgeSpec(loss=0.1, cost=1.0)},
        "refl_edges": {("r0", "d0"): EdgeSpec(loss=0.1, cost=2.0)},
    }
    with pytest.raises(ValidationError, match=field):
        Instance(**{**base, **specs})


def test_spec_and_document_instances_serialize_alike():
    # Both paths check each field the same way and keep every number a float.
    from_specs = Instance(
        sources=[SourceSpec("s0", bitrate=2)],
        reflectors=[ReflectorSpec("r0", cost=10, fanout=2, bandwidth=4, color=0)],
        sinks=[SinkSpec("d0", stream="s0", loss_threshold=1)],
        src_edges={("s0", "r0"): EdgeSpec(loss=0, cost=1)},
        refl_edges={("r0", "d0"): EdgeSpec(loss=1, cost=2)},
    )
    doc = {
        "sources": [{"id": "s0", "bitrate": 2.0}],
        "reflectors": [{"id": "r0", "cost": 10.0, "fanout": 2, "bandwidth": 4.0, "color": 0}],
        "sinks": [{"id": "d0", "stream": "s0", "loss_threshold": 1.0}],
        "src_edges": [{"from": "s0", "to": "r0", "loss": 0.0, "cost": 1.0}],
        "refl_edges": [{"from": "r0", "to": "d0", "loss": 1.0, "cost": 2.0}],
    }
    assert from_specs.to_json() == model.instance_from_doc(doc).to_json()
    assert from_specs.to_json() == model.normalize(doc).to_json()


@pytest.mark.parametrize(
    "where, edit",
    [
        ("sinks[0].demands[1]", lambda doc: doc["sinks"][0]["demands"][1].update(loss_threshold="0.02")),
        ("src_edges[1]", lambda doc: doc["src_edges"][1].update(loss="0.02")),
        ("sources[0]", lambda doc: doc["sources"][0].update(bitrate=-1.0)),
        ("refl_edges[2]", lambda doc: doc["refl_edges"][2].update(cost=math.inf)),
    ],
    ids=["demand-threshold", "src-edge-loss", "source-bitrate", "refl-edge-cost"],
)
def test_errors_in_replicated_fields_name_the_raw_location(where, edit):
    doc = raw_doc()
    edit(doc)
    with pytest.raises(ValidationError, match=re.escape(where + ": ")):
        model.normalize(doc)


@pytest.mark.parametrize(
    "where, edit",
    [
        ("src_edges[1]", lambda doc: doc["src_edges"][1].update({"from": ["s0"]})),
        ("refl_edges[0]", lambda doc: doc["refl_edges"][0].update(to={"id": "d0"})),
        ("reflectors[1]", lambda doc: doc["reflectors"][1].update(color=None)),
        ("sources[0]", lambda doc: doc["sources"][0].update(bitrate=None)),
        ("sinks[0]", lambda doc: doc["sinks"][0].update(loss_threshold=[0.1])),
    ],
    ids=["list-end", "object-end", "null-color", "null-bitrate", "list-threshold"],
)
def test_a_normalized_document_names_the_bad_record(where, edit):
    # instance_from_doc checks only the keys; Instance checks the fields
    # under the same labels. An end that cannot key a dict is no TypeError,
    # and a null is no absent field.
    doc = {
        "sources": [{"id": "s0"}],
        "reflectors": [
            {"id": "r0", "cost": 1.0, "fanout": 2},
            {"id": "r1", "cost": 1.0, "fanout": 2},
        ],
        "sinks": [{"id": "d0", "stream": "s0", "loss_threshold": 0.1}],
        "src_edges": [
            {"from": "s0", "to": "r0", "loss": 0.1, "cost": 1.0},
            {"from": "s0", "to": "r1", "loss": 0.1, "cost": 1.0},
        ],
        "refl_edges": [{"from": "r0", "to": "d0", "loss": 0.1, "cost": 1.0}],
    }
    model.instance_from_doc(doc)
    edit(doc)
    with pytest.raises(ValidationError, match=re.escape(where + ": ")):
        model.instance_from_doc(doc)


def test_instance_from_doc_checks_each_record_once(monkeypatch):
    doc = gen_random((3, 4, 8), "avg", seed=0).to_doc()
    check = model._check_record
    kinds = []

    def counting(rec, kind, where):
        kinds.append(kind)
        return check(rec, kind, where)

    monkeypatch.setattr(model, "_check_record", counting)
    model.instance_from_doc(doc)
    kinds_of_record = ("sources", "reflectors", "sinks", "src_edges", "refl_edges")
    records = sum(len(doc[key]) for key in kinds_of_record)
    assert len(kinds) == records + 2  # and the top level and the flags, once each


def test_a_sink_demanding_a_stream_twice_is_rejected():
    doc = raw_doc()
    doc["sinks"][1]["demands"].append({"stream": "a", "loss_threshold": 0.1})
    with pytest.raises(ValidationError, match=re.escape("sinks[1]: stream 'a' demanded twice")):
        model.normalize(doc)


def test_loss_one_edge_is_a_dead_link():
    # Loss 1.0 is accepted: the link drops every packet, so its paths weigh 0.
    inst = tiny_instance(p_refl=1.0)
    assert inst.path_loss("s0", "r0", "d0") == 1.0
    assert inst.path_weight("s0", "r0", "d0") == 0.0
    assert WeightTable(inst).get("s0", "r0", "d0") == 0.0
    doc = raw_doc()
    doc["refl_edges"][0]["loss"] = 1.0
    assert model.normalize(doc).refl_edges[("r0", "D#a")].loss == 1.0
    with pytest.raises(ValidationError, match="outside"):
        tiny_instance(p_refl=1.0 + 1e-9)


def test_json_round_trip(tmp_path):
    inst = model.normalize(raw_doc())
    path = tmp_path / "inst.json"
    model.save_instance(inst, path)
    again = model.load_instance(path)
    assert again.to_doc() == inst.to_doc()
    # Files parse as plain JSON with only the documented top-level keys.
    doc = json.loads(path.read_text())
    assert set(doc) <= {
        "sources", "reflectors", "sinks", "src_edges", "refl_edges",
        "mode", "colors_enabled", "bandwidth_enabled",
    }


def test_weight_table_covers_admissible_triples_only():
    inst = model.normalize(raw_doc())
    table = WeightTable(inst)
    # G#a reaches only r0 (no r1 -> G edge).
    assert [i for i, _ in table.sink_entries("G#a")] == ["r0"]
    assert ("E#a", "r1", "G#a") not in table.entries
    for (k, i, j), w in table.entries.items():
        sink = inst.sink_by_id[j]
        assert 0.0 <= w <= sink.weight_threshold + 1e-12
