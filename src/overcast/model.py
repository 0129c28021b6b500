"""Problem instances for three-stage live-stream relay networks.

An instance is a tripartite digraph: sources (stream entry points) feed
reflectors, reflectors feed sinks (edge servers that requested a stream).
Every link carries an independent packet-loss probability and a per-stream
transmission cost; reflectors carry a fixed usage cost, a fan-out cap, and
optionally a bandwidth cap and an ISP color. Each sink demands exactly one
stream together with an end-to-end loss ceiling, which we express in the
log domain as a weight threshold: a set of relay paths meets the ceiling
iff their path weights sum to at least the threshold.

Raw inputs may list several streams per entry point and several demands
per edge server; `normalize` replicates nodes (and their edges) so that
every source originates exactly one stream, named after the source itself,
and every sink demands exactly one stream. Replicas are named
``origId#streamId``. Normalization is idempotent.

One table, `_SCHEMA`, states every field of instance and solution documents,
and `_check_record` is the one function that checks them. Which triples are
routes, and their clamped weights, is decided once, by the LP model's route
table (`lp.LpModel.sink_routes`).
"""

from __future__ import annotations

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
    stream: str  # source id (after normalization streams are named by source)
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
    "flags": {"mode": "string", "colors_enabled": "boolean", "bandwidth_enabled": "boolean"},
    "source": {"id": "string", "bitrate": "number? in (0, inf)"},
    "reflector": {
        "id": "string", "cost": "number in [0, inf)", "fanout": "integer in [1, inf)",
        "bandwidth": "number? in (0, inf)", "color": "integer?",
    },
    "sink": {"id": "string", "stream": "string", "loss_threshold": "number in (0, 1]"},
    "edge": {
        "from": "string", "to": "string", "loss": "number in [0, 1]", "cost": "number in [0, inf)",
    },
    # raw forms, which normalize_doc replicates into sources and sinks
    "raw source": {
        "id": "string", "streams": "non-empty list of strings?", "bitrate": "number? in (0, inf)",
    },
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


def _check_keys(rec, kind: str, where: str) -> dict:
    """The compiled fields of a `kind` record, once `rec` is an object with
    no unknown, missing or null key; else raise ValidationError naming `where`.

    A null is refused here because a spec spells an absent field None, so it
    would pass `Instance`'s field check as absent."""
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
    return fields


def _check_record(rec, kind: str, where: str) -> dict:
    """A copy of `rec` once it is a `kind` record of `_SCHEMA`, with its
    numbers as floats; anything else raises ValidationError naming `where`."""
    fields = _check_keys(rec, kind, where)
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
    """A validated, normalized relay-network instance.

    Immutable once constructed. Construct via `normalize` / `load_instance`
    (raw or normalized documents) or directly from specs (must already be
    in normalized form: one stream per source, named by the source).
    """

    def __init__(
        self,
        sources: list[SourceSpec],
        reflectors: list[ReflectorSpec],
        sinks: list[SinkSpec],
        src_edges: dict[tuple[str, str], EdgeSpec],
        refl_edges: dict[tuple[str, str], EdgeSpec],
        mode: str = "full",
        colors_enabled: bool = False,
        bandwidth_enabled: bool = False,
    ):
        def checked(cls, specs, kind, key):
            return tuple(
                cls(**_check_record(_spec_record(spec), kind, f"{key}[{n}]"))
                for n, spec in enumerate(specs)
            )

        def edge_map(specs, key):
            records = [
                _check_record(_edge_record(pair, e), "edge", f"{key}[{n}]")
                for n, (pair, e) in enumerate(specs.items())
            ]
            return {(r["from"], r["to"]): EdgeSpec(r["loss"], r["cost"]) for r in records}

        self.sources = checked(SourceSpec, sources, "source", "sources")
        self.reflectors = checked(ReflectorSpec, reflectors, "reflector", "reflectors")
        self.sinks = checked(SinkSpec, sinks, "sink", "sinks")
        self.src_edges = edge_map(src_edges, "src_edges")
        self.refl_edges = edge_map(refl_edges, "refl_edges")
        flags = {"mode": mode, "colors_enabled": colors_enabled, "bandwidth_enabled": bandwidth_enabled}
        _check_record(flags, "flags", "instance")
        self.mode = mode
        self.colors_enabled = colors_enabled
        self.bandwidth_enabled = bandwidth_enabled

        self.source_by_id = {s.id: s for s in self.sources}
        self.reflector_by_id = {r.id: r for r in self.reflectors}
        self.sink_by_id = {d.id: d for d in self.sinks}
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        """The checks that span records; `__init__` checked each field."""
        if self.mode not in ("full", "transmission"):
            raise ValidationError(f"mode must be 'full' or 'transmission', got {self.mode!r}")
        if not self.reflectors or not self.sinks or not self.sources:
            raise ValidationError("instance needs at least one source, reflector and sink")
        for group, name in ((self.sources, "source"), (self.reflectors, "reflector"), (self.sinks, "sink")):
            seen = set()
            for spec in group:
                if spec.id in seen:
                    raise ValidationError(f"duplicate {name} id {spec.id!r}")
                seen.add(spec.id)
        all_ids = (
            {s.id for s in self.sources}
            | {r.id for r in self.reflectors}
            | {d.id for d in self.sinks}
        )
        if len(all_ids) != len(self.sources) + len(self.reflectors) + len(self.sinks):
            raise ValidationError("node ids must be unique across sources, reflectors and sinks")
        for d in self.sinks:
            if d.stream not in self.source_by_id:
                raise ValidationError(f"sink {d.id}: unknown stream {d.stream!r}")
        if len(self.sources) > len(self.sinks):
            raise ValidationError("more sources than sinks after normalization")

        for a, b in self.src_edges:
            if a not in self.source_by_id or b not in self.reflector_by_id:
                raise ValidationError(f"src edge ({a}, {b}) does not join a source to a reflector")
        for a, b in self.refl_edges:
            if a not in self.reflector_by_id or b not in self.sink_by_id:
                raise ValidationError(f"refl edge ({a}, {b}) does not join a reflector to a sink")

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


# -- raw document handling ---------------------------------------------------

def normalize_doc(doc: dict) -> dict:
    """Replicate multi-stream sources and multi-demand sinks into unit form.

    Pure document-to-document transform; running it on its own output is a
    no-op. Replicas are named ``origId#streamId``. Source replicas whose
    stream no sink demands are dropped along with their edges (they can
    never carry traffic, and the normalized form keeps at most one source
    per demanded stream). Each record it replicates is checked here, so an
    error names its place in `doc`.
    """
    _check_record(doc, "instance", "instance")

    # Streams: map raw stream name -> normalized source id.
    stream_of: dict[str, str] = {}
    out_sources = []
    streams_by_source: dict[str, list[str]] = {}
    for idx, rec in enumerate(doc["sources"]):
        rec = _check_record(rec, "raw source", f"sources[{idx}]")
        sid = rec["id"]
        streams = rec.pop("streams", None)
        # Without streams the source is in unit form: its stream is named by its id.
        replicas = [(s, f"{sid}#{s}") for s in streams] if streams else [(sid, sid)]
        for stream, replica in replicas:
            if stream in stream_of:
                raise ValidationError(f"duplicate stream id {stream!r}")
            stream_of[stream] = replica
            out_sources.append({**rec, "id": replica})
            streams_by_source.setdefault(sid, []).append(replica)

    out_sinks = []
    sink_replicas: dict[str, list[str]] = {}  # raw sink id -> its replicas
    for idx, rec in enumerate(doc["sinks"]):
        where = f"sinks[{idx}]"
        if isinstance(rec, dict) and "demands" in rec:
            sid = _check_record(rec, "multi sink", where)["id"]
            demands = [
                _check_record(dem, "demand", f"{where}.demands[{d_idx}]")
                for d_idx, dem in enumerate(rec["demands"])
            ]
            replicas = [f"{sid}#{dem['stream']}" for dem in demands]
        else:
            demands = [_check_record(rec, "sink", where)]
            sid = demands[0]["id"]
            replicas = [sid]
        demanded = set()
        for replica, dem in zip(replicas, demands):
            stream = dem["stream"]
            if stream not in stream_of:
                raise ValidationError(f"{where}: unknown stream {stream!r}")
            if stream in demanded:
                raise ValidationError(f"{where}: stream {stream!r} demanded twice")
            demanded.add(stream)
            out_sinks.append(
                {"id": replica, "stream": stream_of[stream], "loss_threshold": dem["loss_threshold"]}
            )
            sink_replicas.setdefault(sid, []).append(replica)

    kept_sources = {rec["stream"] for rec in out_sinks}
    out_sources = [rec for rec in out_sources if rec["id"] in kept_sources]

    out_src_edges = []
    for idx, rec in enumerate(doc["src_edges"]):
        rec = _check_record(rec, "edge", f"src_edges[{idx}]")
        replicas = streams_by_source.get(rec["from"])
        if replicas is None:
            raise ValidationError(f"src_edges[{idx}]: unknown source {rec['from']!r}")
        out_src_edges += [{**rec, "from": replica} for replica in replicas if replica in kept_sources]

    out_refl_edges = []
    for idx, rec in enumerate(doc["refl_edges"]):
        rec = _check_record(rec, "edge", f"refl_edges[{idx}]")
        replicas = sink_replicas.get(rec["to"])
        if replicas is None:
            raise ValidationError(f"refl_edges[{idx}]: unknown sink {rec['to']!r}")
        out_refl_edges += [{**rec, "to": replica} for replica in replicas]

    out = {
        "sources": out_sources,
        "reflectors": doc["reflectors"],
        "sinks": out_sinks,
        "src_edges": out_src_edges,
        "refl_edges": out_refl_edges,
    }
    out.update((key, doc[key]) for key in _SCHEMA["flags"] if key in doc)
    return out


def instance_from_doc(doc: dict) -> Instance:
    """Build an Instance from a document already in normalized form.

    Every field must have its JSON kind and range as `_SCHEMA` gives them.
    Here each record's keys are checked, as a spec cannot carry an unknown
    or a missing one; `Instance` checks the fields, under the same labels.
    """
    _check_record(doc, "instance", "instance")

    def records(key, kind):
        for n, rec in enumerate(doc[key]):
            _check_keys(rec, kind, f"{key}[{n}]")
        return doc[key]

    def edge_map(key):
        out = {}
        for n, rec in enumerate(records(key, "edge")):
            pair = (rec["from"], rec["to"])
            try:
                seen = pair in out
            except TypeError:  # an unhashable end; the field check names it
                _check_record(rec, "edge", f"{key}[{n}]")
                raise
            if seen:
                raise ValidationError(f"{key}: duplicate edge {pair}")
            out[pair] = EdgeSpec(rec["loss"], rec["cost"])
        return out

    return Instance(
        sources=[SourceSpec(**rec) for rec in records("sources", "source")],
        reflectors=[ReflectorSpec(**rec) for rec in records("reflectors", "reflector")],
        sinks=[SinkSpec(**rec) for rec in records("sinks", "sink")],
        src_edges=edge_map("src_edges"),
        refl_edges=edge_map("refl_edges"),
        **{key: doc[key] for key in _SCHEMA["flags"] if key in doc},
    )


def normalize(doc: dict) -> Instance:
    """Parse a raw (or already normalized) instance document."""
    return instance_from_doc(normalize_doc(doc))


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return normalize(doc)


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inst.to_json())
        fh.write("\n")
