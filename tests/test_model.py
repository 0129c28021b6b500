"""Instance model: weights, losses, normalization, schema validation."""

import hashlib
import json
import math
import re

import pytest

from overcast import cli, model
from overcast.lp import build_model
from overcast.gen import gen_random
from overcast.model import Instance, SinkSpec, ValidationError, loss_to_weight


def tiny_doc(threshold=0.01, p_src=0.1, p_refl=0.1):
    return {
        "sources": [{"id": "s0"}],
        "reflectors": [{"id": "r0", "cost": 10.0, "fanout": 2}],
        "sinks": [{"id": "d0", "stream": "s0", "loss_threshold": threshold}],
        "src_edges": [{"from": "s0", "to": "r0", "loss": p_src, "cost": 1.0}],
        "refl_edges": [{"from": "r0", "to": "d0", "loss": p_refl, "cost": 2.0}],
    }


def tiny_instance(threshold=0.01, p_src=0.1, p_refl=0.1):
    return Instance(tiny_doc(threshold, p_src, p_refl))


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
    raw = loss_to_weight(inst.path_loss("s0", "r0", "d0"))
    assert raw == pytest.approx(2.395928676331139, abs=1e-12)
    assert inst.path_weight("s0", "r0", "d0") == pytest.approx(raw)  # below threshold
    # A lossless path clamps to the sink threshold instead of inf.
    lossless = tiny_instance(threshold=0.01, p_src=0.0, p_refl=0.0)
    assert math.isinf(loss_to_weight(lossless.path_loss("s0", "r0", "d0")))
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
    inst = Instance({
        "sources": [{"id": "s0"}],
        "reflectors": [{"id": "r0", "cost": 1.0, "fanout": 4}, {"id": "r1", "cost": 1.0, "fanout": 4}],
        "sinks": [{"id": "d0", "stream": "s0", "loss_threshold": 0.05}],
        "src_edges": [
            {"from": "s0", "to": "r0", "loss": 0.1, "cost": 1.0},
            {"from": "s0", "to": "r1", "loss": 0.05, "cost": 1.0},
        ],
        "refl_edges": [
            {"from": "r0", "to": "d0", "loss": 0.1, "cost": 1.0},
            {"from": "r1", "to": "d0", "loss": 0.05, "cost": 1.0},
        ],
    })
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
    inst = model.Instance(raw_doc())
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
    once = model.Instance(raw_doc()).to_doc()
    assert model.Instance(once).to_doc() == once


def test_normalize_drops_undemanded_streams():
    doc = raw_doc()
    doc["sources"][0]["streams"].append("c")  # nobody demands c
    inst = model.Instance(doc)
    assert sorted(s.id for s in inst.sources) == ["E#a", "E#b"]
    assert all(len(inst.sinks) >= len(inst.sources) for _ in [0])


def test_unknown_keys_rejected():
    doc = raw_doc()
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="extra"):
        model.Instance(doc)
    doc = raw_doc()
    doc["reflectors"][0]["capacity"] = 9
    with pytest.raises(ValidationError, match="capacity"):
        model.Instance(doc)
    doc = raw_doc()
    doc["src_edges"][0]["weight"] = 1.0
    with pytest.raises(ValidationError, match="weight"):
        model.Instance(doc)


def test_schema_violations_rejected():
    with pytest.raises(ValidationError, match="loss_threshold"):
        tiny_instance(threshold=0.0)
    with pytest.raises(ValidationError, match="loss"):
        tiny_instance(p_src=1.5)
    doc = raw_doc()
    doc["sinks"][0]["demands"][0]["stream"] = "zzz"
    with pytest.raises(ValidationError, match="zzz"):
        model.Instance(doc)
    doc = raw_doc()
    doc["sources"].append({"id": "F", "streams": ["a"]})
    with pytest.raises(ValidationError, match="duplicate stream"):
        model.Instance(doc)


@pytest.mark.parametrize(
    "field, specs",
    [
        ("loss_threshold", {"sinks": [{"id": "d0", "stream": "s0", "loss_threshold": "0.1"}]}),
        ("bitrate", {"sources": [{"id": "s0", "bitrate": "1.0"}]}),
        ("cost", {"reflectors": [{"id": "r0", "cost": "10", "fanout": 2}]}),
        ("bandwidth", {"reflectors": [{"id": "r0", "cost": 10.0, "fanout": 2, "bandwidth": "5"}]}),
        ("color", {"reflectors": [{"id": "r0", "cost": 10.0, "fanout": 2, "color": "a"}]}),
        ("id", {"sources": [{"id": 5}]}),
        ("colors_enabled", {"colors_enabled": "no"}),
        ("bandwidth_enabled", {"bandwidth_enabled": "no"}),
    ],
)
def test_spec_fields_of_the_wrong_type_rejected(field, specs):
    # Each node spec's record, or a run flag, with one field of the wrong type.
    with pytest.raises(ValidationError, match=field):
        Instance({**tiny_doc(), **specs})


def test_integers_in_number_fields_read_as_floats():
    # Integers in a document's number fields are read as floats.
    doc = {
        "sources": [{"id": "s0", "bitrate": 2}],
        "reflectors": [{"id": "r0", "cost": 10, "fanout": 2, "bandwidth": 4, "color": 0}],
        "sinks": [{"id": "d0", "stream": "s0", "loss_threshold": 1}],
        "src_edges": [{"from": "s0", "to": "r0", "loss": 0, "cost": 1}],
        "refl_edges": [{"from": "r0", "to": "d0", "loss": 1, "cost": 2}],
    }
    floats = {
        "sources": [{"id": "s0", "bitrate": 2.0}],
        "reflectors": [{"id": "r0", "cost": 10.0, "fanout": 2, "bandwidth": 4.0, "color": 0}],
        "sinks": [{"id": "d0", "stream": "s0", "loss_threshold": 1.0}],
        "src_edges": [{"from": "s0", "to": "r0", "loss": 0.0, "cost": 1.0}],
        "refl_edges": [{"from": "r0", "to": "d0", "loss": 1.0, "cost": 2.0}],
    }
    assert Instance(doc).to_json() == Instance(floats).to_json()
    assert Instance(doc).to_doc() == {
        **floats, "mode": "full", "colors_enabled": False, "bandwidth_enabled": False,
    }


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
        model.Instance(doc)


def bandwidth_doc():
    doc = raw_doc()
    doc["bandwidth_enabled"] = True
    doc["sources"][0]["bitrate"] = 2.5
    for n, rec in enumerate(doc["reflectors"]):
        rec["bandwidth"] = 6.0 + n
    return doc


def test_instance_bytes_and_errors_pinned(tmp_path):
    # Frozen outputs: a change to how documents are read must leave these alone.
    docs = {
        "raw": raw_doc(),
        "colored": gen_random((2, 10, 20), "low", seed=0, colors=5).to_doc(),
        "bandwidth": bandwidth_doc(),
        "transmission": {**gen_random((3, 4, 8), "avg", seed=1).to_doc(), "mode": "transmission"},
    }
    digests = {
        name: hashlib.sha256(model.Instance(doc).to_json().encode()).hexdigest()
        for name, doc in docs.items()
    }
    assert digests == {
        "raw": "690482698cd200920232b4febcb3dc57b7e0e0c164e629e68d71ec7bf446c26a",
        "colored": "d7764924b5ddd68d604a3ae827267bfef2db2093f32a8e5c0ed1013cf24bbe1a",
        "bandwidth": "05f74e63035dba04e867dc26d686f861bf4bb445d04841f58f00b8deaaaa9309",
        "transmission": "ad94bef106aeba89d5147aff1af89b5187d51c031508d0543153387005077b39",
    }
    # Each written document reads back to the same bytes.
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        model.save_instance(model.Instance(doc), path)
        assert model.load_instance(path).to_json() + "\n" == path.read_text(encoding="utf-8")

    edits = [
        lambda doc: doc["sinks"][0]["demands"][1].update(loss_threshold="0.02"),
        lambda doc: doc["src_edges"][1].update(loss="0.02"),
        lambda doc: doc["sources"][0].update(bitrate=-1.0),
        lambda doc: doc["refl_edges"][2].update(cost=math.inf),
    ]
    errors = []
    for edit in edits:
        doc = raw_doc()
        edit(doc)
        with pytest.raises(ValidationError) as err:
            model.Instance(doc)
        errors.append(str(err.value))
    assert errors == [
        "sinks[0].demands[1]: loss_threshold must be a number, got '0.02'",
        "src_edges[1]: loss must be a number, got '0.02'",
        "sources[0]: bitrate -1.0 outside (0, inf)",
        "refl_edges[2]: cost inf outside [0, inf)",
    ]


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


@pytest.mark.parametrize(
    "key, end, message",
    [
        ("src_edges", ("s0", "r9"), "src_edges[1]: unknown reflector 'r9'"),
        ("src_edges", ("s9", "r0"), "src_edges[1]: unknown source 's9'"),
        ("refl_edges", ("r9", "d0"), "refl_edges[1]: unknown reflector 'r9'"),
        ("refl_edges", ("r0", "d9"), "refl_edges[1]: unknown sink 'd9'"),
    ],
    ids=["src-to-reflector", "src-from-source", "refl-from-reflector", "refl-to-sink"],
)
def test_an_edge_to_an_unknown_node_names_its_record(key, end, message):
    doc = tiny_doc()
    doc[key].append({"from": end[0], "to": end[1], "loss": 0.1, "cost": 1.0})
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        model.instance_from_doc(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        # Two raw sources E with distinct streams would read as E#a and E#b,
        # each with a copy of E's edges.
        (lambda doc: doc["sources"].append({"id": "E", "streams": ["c"]}),
         "sources[1]: duplicate source id 'E'"),
        # Two multi-demand sinks D would pool their demands and their edges.
        (lambda doc: doc["sinks"].append(
            {"id": "D", "demands": [{"stream": "b", "loss_threshold": 0.05}]}),
         "sinks[2]: duplicate sink id 'D'"),
        (lambda doc: doc["sinks"].append({"id": "G", "stream": "b", "loss_threshold": 0.05}),
         "sinks[2]: duplicate sink id 'G'"),
        # A unit-form record named like another record's replica.
        (lambda doc: doc["sources"].append({"id": "E#a"}),
         "sources[1]: duplicate source id 'E#a'"),
        (lambda doc: doc["sinks"].append({"id": "D#a", "stream": "a", "loss_threshold": 0.05}),
         "sinks[2]: duplicate sink id 'D#a'"),
    ],
    ids=["sources", "multi-demand-sinks", "unit-and-multi-demand-sink", "unit-source-replica",
         "unit-sink-replica"],
)
def test_a_repeated_raw_id_names_its_record(edit, message):
    doc = raw_doc()
    edit(doc)
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        Instance(doc)


def test_an_undemanded_source_is_dropped_before_its_id_is_checked():
    doc = raw_doc()
    # F#c clashes with F's replica, and r0 with a reflector, but no sink
    # demands stream c or r0, so both sources are dropped unread.
    doc["sources"] += [{"id": "F", "streams": ["c"]}, {"id": "F#c"}, {"id": "r0"}]
    assert [s.id for s in Instance(doc).sources] == ["E#a", "E#b"]
    doc["sinks"][1]["demands"].append({"stream": "c", "loss_threshold": 0.05})
    with pytest.raises(ValidationError, match=re.escape("sources[2]: duplicate source id 'F#c'")):
        Instance(doc)


def test_instance_from_doc_checks_each_record_once(monkeypatch, tmp_path):
    check = model._check_record
    kinds = []

    def counting(rec, kind, where):
        kinds.append(kind)
        return check(rec, kind, where)

    def records(doc):  # each demand of a multi-demand sink counts as a record
        keys = ("sources", "reflectors", "sinks", "src_edges", "refl_edges")
        demands = sum(len(rec.get("demands", ())) for rec in doc["sinks"])
        return sum(len(doc[key]) for key in keys) + demands

    monkeypatch.setattr(model, "_check_record", counting)
    doc = gen_random((3, 4, 8), "avg", seed=0).to_doc()
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    args = cli.build_parser().parse_args(["solve", str(path), "--mode", "transmission"])
    for read, source in [
        (model.instance_from_doc, doc),
        (model.Instance, raw_doc()),
        (lambda _: cli._load_instance(args), doc),
    ]:
        kinds.clear()
        read(source)
        assert len(kinds) == records(source) + 1  # and the top level, once
    assert cli._load_instance(args).mode == "transmission"


def test_a_sink_demanding_a_stream_twice_is_rejected():
    doc = raw_doc()
    doc["sinks"][1]["demands"].append({"stream": "a", "loss_threshold": 0.1})
    with pytest.raises(ValidationError, match=re.escape("sinks[1]: stream 'a' demanded twice")):
        model.Instance(doc)


def test_loss_one_edge_is_a_dead_link():
    # Loss 1.0 is accepted: the link drops every packet, so its paths weigh 0.
    inst = tiny_instance(p_refl=1.0)
    assert inst.path_loss("s0", "r0", "d0") == 1.0
    assert inst.path_weight("s0", "r0", "d0") == 0.0
    built = build_model(inst)
    assert built.x_index == {("s0", "r0", "d0"): 2}
    assert built.x_weight.tolist() == [0.0]
    doc = raw_doc()
    doc["refl_edges"][0]["loss"] = 1.0
    assert model.Instance(doc).refl_edges[("r0", "D#a")].loss == 1.0
    with pytest.raises(ValidationError, match="outside"):
        tiny_instance(p_refl=1.0 + 1e-9)


def test_json_round_trip(tmp_path):
    inst = model.Instance(raw_doc())
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


def test_route_table_covers_admissible_triples_only():
    inst = model.Instance(raw_doc())
    built = build_model(inst)
    refls = [r.id for r in inst.reflectors]
    g = inst.sinks.index(inst.sink_by_id["G#a"])
    # G#a reaches only r0 (no r1 -> G edge).
    assert [refls[i] for i in built.x_refl[built.x_sink == g].tolist()] == ["r0"]
    assert ("E#a", "r1", "G#a") not in built.x_index
    table = zip(built.x_refl.tolist(), built.x_sink.tolist(), built.x_weight.tolist())
    for x, (i, j, w) in enumerate(table):
        d = inst.sinks[j]
        assert built.x_index[(d.stream, refls[i], d.id)] == built.x_offset + x
        assert w == inst.path_weight(d.stream, refls[i], d.id)
        assert 0.0 <= w <= d.weight_threshold + 1e-12
    assert built.x_weight.size == len(built.x_index)
    assert sorted(built.x_sink.tolist()) == built.x_sink.tolist()  # one slice per sink
