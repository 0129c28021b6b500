"""Problem instances for three-stage live-stream relay networks.

An instance is a tripartite digraph: sources (stream entry points) feed
reflectors, reflectors feed sinks (edge servers that requested a stream).
Every link carries an independent packet-loss probability and a per-stream
transmission cost; reflectors carry a fixed usage cost, a fan-out cap, and
optionally a bandwidth cap and an ISP color. Each sink demands exactly one
stream together with an end-to-end loss ceiling, which we express in the
log domain as a weight threshold: a set of relay paths meets the ceiling
iff their path weights sum to at least the threshold.

`Instance(doc)` is the one reader from a document to an instance. Raw
documents may list several streams per entry point and several demands per
edge server; the reader replicates those nodes (and their edges) as it goes,
so that every source originates exactly one stream, named after the source
itself, and every sink demands exactly one stream. Replicas are named
``origId#streamId``; a raw source or sink id names one record only, and
sources that no sink demands are dropped. A unit-form document, such as
`Instance.to_doc()` writes, reads back to itself.

One table, `_SCHEMA`, states every field of instance and solution documents,
and `_check_record` is the one function that checks them; the reader calls
it once per record. Which triples are routes, and their clamped weights, is
decided once, by the LP model's route table (`lp.LpModel.sink_routes`).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

WEIGHT_TOL = 1e-9


class ValidationError(ValueError):
    """An instance, instance file, or solution file violates the schema."""


class PathUnavailableError(KeyError):
    """The requested source->reflector->sink path is missing a link."""


def combined_loss(p_first: float, p_second: float) -> float:
    """Loss probability of a two-link path with independent link losses."""
    return p_first + p_second - p_first * p_second


def loss_to_weight(loss: float) -> float:
    """Map a loss probability to its base-2 log-domain weight (inf at 0)."""
    if loss <= 0.0:
        return math.inf
    return -math.log2(loss)


@dataclass(frozen=True)
class EdgeSpec:
    loss: float
    cost: float


@dataclass(frozen=True)
class SourceSpec:
    id: str
    bitrate: float | None = None  # consulted only in bandwidth mode


@dataclass(frozen=True)
class ReflectorSpec:
    id: str
    cost: float  # fixed charge when the reflector carries anything
    fanout: int
    bandwidth: float | None = None  # consulted only in bandwidth mode
    color: int | None = None  # ISP group for diversity constraints


@dataclass(frozen=True)
class SinkSpec:
    id: str
    stream: str  # source id (in unit form streams are named by source)
    loss_threshold: float  # acceptable end-to-end loss, in (0, 1]

    @property
    def weight_threshold(self) -> float:
        return -math.log2(self.loss_threshold)


# -- schema -------------------------------------------------------------------

# Every field of every record that instance and solution documents hold: its
# JSON kind, "?" when it may be absent, and for a number the interval it must
# lie "in". `_check_record` is the one place these are checked.
_SCHEMA = {
    "instance": {
        "sources": "list", "reflectors": "list", "sinks": "list",
        "src_edges": "list", "refl_edges": "list",
        "mode": "string?", "colors_enabled": "boolean?", "bandwidth_enabled": "boolean?",
    },
    # `streams` is the raw form, which the reader replicates into one source per stream
    "source": {
        "id": "string", "streams": "non-empty list of strings?", "bitrate": "number? in (0, inf)",
    },
    "reflector": {
        "id": "string", "cost": "number in [0, inf)", "fanout": "integer in [1, inf)",
        "bandwidth": "number? in (0, inf)", "color": "integer?",
    },
    "sink": {"id": "string", "stream": "string", "loss_threshold": "number in (0, 1]"},
    "edge": {
        "from": "string", "to": "string", "loss": "number in [0, 1]", "cost": "number in [0, inf)",
    },
    # the raw form of a sink, which the reader replicates into one sink per demand
    "multi sink": {"id": "string", "demands": "non-empty list"},
    "demand": {"stream": "string", "loss_threshold": "number in (0, 1]"},
    # solution documents; meta is open, as it also holds stage details not read back
    "solution": {
        "kind": "string", "provenance": "string", "mode": "string?", "cost": "number?",
        "routes": "list", "meta": "object?",
    },
    "route": {"stream": "string", "reflector": "string", "sink": "string", "mass": "number"},
    "meta": {"draw_cost": "number?", "path_cost_total": "number?"},
}
_OPEN_RECORDS = {"meta"}

# A bool is neither a number nor an integer.
_JSON_KINDS = {
    "string": lambda v: type(v) is str,
    "number": lambda v: type(v) in (int, float),
    "integer": lambda v: type(v) is int,
    "boolean": lambda v: type(v) is bool,
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "non-empty list": lambda v: isinstance(v, list) and len(v) > 0,
    "non-empty list of strings": lambda v: (
        isinstance(v, list) and len(v) > 0 and all(type(s) is str for s in v)
    ),
}


def _interval(text: str):
    """Membership test for an interval such as "(0, 1]"; NaN is in none."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    open_lo, open_hi = text[0] == "(", text[-1] == ")"
    return lambda v: (lo < v if open_lo else lo <= v) and (v < hi if open_hi else v <= hi)


def _compile(kind: str, fields: dict[str, str]) -> tuple[dict, frozenset, frozenset | None]:
    """Each field's (JSON kind, kind test, interval text, interval test), the
    required fields, and all fields unless the record is open, of one kind."""
    compiled, required = {}, set()
    for key, spec in fields.items():
        json_kind, _, interval = spec.partition(" in ")
        if not json_kind.endswith("?"):
            required.add(key)
        json_kind = json_kind.rstrip("?")
        in_interval = _interval(interval) if interval else None
        compiled[key] = (json_kind, _JSON_KINDS[json_kind], interval, in_interval)
    closed = None if kind in _OPEN_RECORDS else frozenset(fields)
    return compiled, frozenset(required), closed


_FIELDS = {kind: _compile(kind, fields) for kind, fields in _SCHEMA.items()}


def _check_record(rec, kind: str, where: str) -> dict:
    """A copy of `rec` once it is a `kind` record of `_SCHEMA`, with its
    numbers as floats; anything else raises ValidationError naming `where`.

    A null is refused, as a spec spells an absent field None."""
    if not isinstance(rec, dict):
        raise ValidationError(f"{where}: expected an object, got {type(rec).__name__}")
    fields, required, closed = _FIELDS[kind]
    if closed is not None and not closed.issuperset(rec):
        raise ValidationError(f"{where}: unknown key(s) {sorted(set(rec) - closed)}")
    if not required.issubset(rec):
        raise ValidationError(f"{where}: missing key(s) {sorted(required - set(rec))}")
    if None in rec.values():
        null = sorted(key for key, value in rec.items() if value is None and key in fields)
        if null:
            raise ValidationError(f"{where}: null key(s) {null}")
    out = dict(rec)
    for key, value in rec.items():
        field = fields.get(key)
        if field is None:  # a key an open record does not describe
            continue
        json_kind, is_kind, interval, in_interval = field
        if not is_kind(value):
            article = "an" if json_kind[0] in "aeiou" else "a"
            raise ValidationError(f"{where}: {key} must be {article} {json_kind}, got {value!r}")
        if in_interval is not None and not in_interval(value):
            raise ValidationError(f"{where}: {key} {value!r} outside {interval}")
        if json_kind == "number":
            out[key] = float(value)
    return out


def _spec_record(spec) -> dict:
    """A node spec as a document record; a None field is an absent one."""
    return {f: v for f, v in vars(spec).items() if v is not None}


def _edge_record(pair: tuple[str, str], edge: EdgeSpec) -> dict:
    return {"from": pair[0], "to": pair[1], **vars(edge)}


class Instance:
    """A validated relay-network instance in unit form.

    Immutable once constructed. `Instance(doc)` reads a raw or unit-form
    document: it checks each record once, under its place in `doc`, and
    replicates multi-stream sources and multi-demand sinks as it reads.
    """

    def __init__(self, doc: dict):
        top = _check_record(doc, "instance", "instance")
        self.mode = top.get("mode", "full")
        self.colors_enabled = top.get("colors_enabled", False)
        self.bandwidth_enabled = top.get("bandwidth_enabled", False)

        sources = []
        stream_of: dict[str, str] = {}  # raw stream name -> its source replica
        source_replicas: dict[str, list[str]] = {}  # raw source id -> its replicas
        for n, rec in enumerate(doc["sources"]):
            rec = _check_record(rec, "source", f"sources[{n}]")
            sid = rec["id"]
            if sid in source_replicas:
                raise ValidationError(f"sources[{n}]: duplicate source id {sid!r}")
            streams = rec.pop("streams", None)
            # Without streams the source is in unit form: its stream is named by its id.
            replicas = [(s, f"{sid}#{s}") for s in streams] if streams else [(sid, sid)]
            for stream, replica in replicas:
                if stream in stream_of:
                    raise ValidationError(f"duplicate stream id {stream!r}")
                stream_of[stream] = replica
                sources.append(SourceSpec(**{**rec, "id": replica}))
            source_replicas[sid] = [replica for _stream, replica in replicas]

        sinks = []
        sink_replicas: dict[str, list[str]] = {}  # raw sink id -> its replicas
        for n, rec in enumerate(doc["sinks"]):
            where = f"sinks[{n}]"
            if isinstance(rec, dict) and "demands" in rec:
                sid = _check_record(rec, "multi sink", where)["id"]
                demands = [
                    _check_record(dem, "demand", f"{where}.demands[{d}]")
                    for d, dem in enumerate(rec["demands"])
                ]
                replicas = [f"{sid}#{dem['stream']}" for dem in demands]
            else:
                demands = [_check_record(rec, "sink", where)]
                sid = demands[0]["id"]
                replicas = [sid]
            if sid in sink_replicas:
                raise ValidationError(f"{where}: duplicate sink id {sid!r}")
            demanded = set()
            for replica, dem in zip(replicas, demands):
                stream = dem["stream"]
                if stream not in stream_of:
                    raise ValidationError(f"{where}: unknown stream {stream!r}")
                if stream in demanded:
                    raise ValidationError(f"{where}: stream {stream!r} demanded twice")
                demanded.add(stream)
                sinks.append(SinkSpec(replica, stream_of[stream], dem["loss_threshold"]))
            sink_replicas[sid] = replicas

        # A source no sink demands can never carry traffic: drop it and its edges.
        kept = {d.stream for d in sinks}
        self.sources = tuple(s for s in sources if s.id in kept)
        self.sinks = tuple(sinks)
        self.reflectors = tuple(
            ReflectorSpec(**_check_record(rec, "reflector", f"reflectors[{n}]"))
            for n, rec in enumerate(doc["reflectors"])
        )
        kept_replicas = {sid: [r for r in reps if r in kept] for sid, reps in source_replicas.items()}
        reflector_ends = ("reflector", {r.id: [r.id] for r in self.reflectors})
        self.src_edges = _read_edges(doc, "src_edges", ("source", kept_replicas), reflector_ends)
        self.refl_edges = _read_edges(doc, "refl_edges", reflector_ends, ("sink", sink_replicas))

        self.source_by_id = {s.id: s for s in self.sources}
        self.reflector_by_id = {r.id: r for r in self.reflectors}
        self.sink_by_id = {d.id: d for d in self.sinks}
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        """The checks that span records; the reader checked each record and
        each reference to a node."""
        if self.mode not in ("full", "transmission"):
            raise ValidationError(f"mode must be 'full' or 'transmission', got {self.mode!r}")
        if not self.reflectors or not self.sinks:  # each sink demands a source
            raise ValidationError("instance needs at least one source, reflector and sink")
        for group, name in ((self.sources, "source"), (self.reflectors, "reflector"), (self.sinks, "sink")):
            seen = set()
            for spec in group:
                if spec.id in seen:
                    raise ValidationError(f"duplicate {name} id {spec.id!r}")
                seen.add(spec.id)
        all_ids = set(self.source_by_id) | set(self.reflector_by_id) | set(self.sink_by_id)
        if len(all_ids) != len(self.sources) + len(self.reflectors) + len(self.sinks):
            raise ValidationError("node ids must be unique across sources, reflectors and sinks")

    # -- derived quantities ------------------------------------------------

    def path_loss(self, k: str, i: str, j: str) -> float:
        """End-to-end loss of the relay path stream k -> reflector i -> sink j."""
        try:
            first = self.src_edges[(k, i)]
            second = self.refl_edges[(i, j)]
        except KeyError:
            raise PathUnavailableError((k, i, j)) from None
        return combined_loss(first.loss, second.loss)

    def path_weight(self, k: str, i: str, j: str) -> float:
        """Log-domain weight of a relay path, clamped to the sink's threshold.

        Raises PathUnavailableError when either link is absent, so callers
        exclude the triple from their formulations.
        """
        sink = self.sink_by_id.get(j)
        if sink is None:
            raise PathUnavailableError((k, i, j))
        if sink.stream != k:
            raise ValidationError(f"sink {j} demands stream {sink.stream!r}, not {k!r}")
        return min(max(loss_to_weight(self.path_loss(k, i, j)), 0.0), sink.weight_threshold)

    def analytic_loss(self, routes, k: str, j: str) -> float:
        """Exact delivery loss at sink j when the reflectors in `routes` relay stream k.

        Per-link losses are independent, so the sink loses a packet iff every
        relay path loses it; the loss is the product of path losses. An empty
        route set delivers nothing: loss 1.0.
        """
        loss = 1.0
        for i in routes:
            loss *= self.path_loss(k, i, j)
        return loss

    def copy_load(self, k: str) -> float | None:
        """Load one copy of stream k puts on a reflector, in `copy_cap` units:
        its bitrate under bandwidth caps (None if it has none), else 1."""
        return self.source_by_id[k].bitrate if self.bandwidth_enabled else 1.0

    def copy_cap(self, i: str) -> float | None:
        """Reflector i's cap in `copy_load` units: its bandwidth under
        bandwidth caps (None if it has none), else its fan-out."""
        r = self.reflector_by_id[i]
        return r.bandwidth if self.bandwidth_enabled else r.fanout

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "sources": [_spec_record(s) for s in self.sources],
            "reflectors": [_spec_record(r) for r in self.reflectors],
            "sinks": [_spec_record(d) for d in self.sinks],
            "src_edges": [_edge_record(*item) for item in sorted(self.src_edges.items())],
            "refl_edges": [_edge_record(*item) for item in sorted(self.refl_edges.items())],
            "mode": self.mode,
            "colors_enabled": self.colors_enabled,
            "bandwidth_enabled": self.bandwidth_enabled,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)


def _read_edges(doc: dict, key: str, tails: tuple, heads: tuple) -> dict:
    """`doc[key]` as an edge map. `tails` and `heads` each name the kind of
    node an end joins and map its ids to their replicas; an edge is copied
    onto each pair of replicas. An unknown end raises ValidationError naming
    the edge's record."""
    out = {}
    for n, rec in enumerate(doc[key]):
        where = f"{key}[{n}]"
        rec = _check_record(rec, "edge", where)
        ends = []
        for (node, replicas), end in ((tails, rec["from"]), (heads, rec["to"])):
            if end not in replicas:
                raise ValidationError(f"{where}: unknown {node} {end!r}")
            ends.append(replicas[end])
        for pair in itertools.product(*ends):
            if pair in out:
                raise ValidationError(f"{where}: duplicate edge {pair}")
            out[pair] = EdgeSpec(rec["loss"], rec["cost"])
    return out


def instance_from_doc(doc: dict) -> Instance:
    """Read an instance document, raw or in unit form (see `Instance`)."""
    return Instance(doc)


normalize = instance_from_doc


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return normalize(doc)


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inst.to_json())
        fh.write("\n")
