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


def _require_keys(record: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(record, dict):
        raise ValidationError(f"{where}: expected an object, got {type(record).__name__}")
    keys = set(record)
    unknown = keys - required - optional
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ValidationError(f"{where}: missing key(s) {sorted(missing)}")


_JSON_TYPES = {"number": (int, float), "integer": (int,), "boolean": (bool,), "string": (str,)}


def _field(rec: dict, key: str, kind: str, where: str, default=None):
    """rec[key] (`default` when absent), which must be a JSON `kind`; a bool
    is neither a number nor an integer."""
    if key not in rec:
        return default
    value = rec[key]
    if type(value) not in _JSON_TYPES[kind]:
        raise ValidationError(f"{where}: {key} must be a {kind}, got {value!r}")
    return value


def _is_number(value) -> bool:
    """An int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_loss(value, where: str) -> float:
    if not _is_number(value):
        raise ValidationError(f"{where}: loss must be a number")
    value = float(value)
    if not (0.0 <= value <= 1.0) or math.isnan(value):
        raise ValidationError(f"{where}: loss {value} outside [0, 1]")
    return value


def _check_cost(value, where: str) -> float:
    if not _is_number(value):
        raise ValidationError(f"{where}: cost must be a number")
    value = float(value)
    if value < 0.0 or not math.isfinite(value):
        raise ValidationError(f"{where}: cost {value} must be finite and >= 0")
    return value


def _checked_edges(edges, where: str) -> dict[tuple[str, str], EdgeSpec]:
    """The edges with their loss and cost checked and made floats."""
    return {
        (a, b): EdgeSpec(
            loss=_check_loss(edge.loss, f"{where} ({a}, {b})"),
            cost=_check_cost(edge.cost, f"{where} ({a}, {b})"),
        )
        for (a, b), edge in edges.items()
    }


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
        self.sources = tuple(sources)
        self.reflectors = tuple(reflectors)
        self.sinks = tuple(sinks)
        self.src_edges = _checked_edges(src_edges, "src edge")
        self.refl_edges = _checked_edges(refl_edges, "refl edge")
        self.mode = mode
        self.colors_enabled = bool(colors_enabled)
        self.bandwidth_enabled = bool(bandwidth_enabled)

        self.source_by_id = {s.id: s for s in self.sources}
        self.reflector_by_id = {r.id: r for r in self.reflectors}
        self.sink_by_id = {d.id: d for d in self.sinks}
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
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

        def optional_positive(value):
            return value is None or (_is_number(value) and value > 0 and math.isfinite(value))

        for r in self.reflectors:
            if not (_is_number(r.cost) and r.cost >= 0 and math.isfinite(r.cost)):
                raise ValidationError(f"reflector {r.id}: cost must be finite and >= 0")
            if type(r.fanout) is not int or r.fanout < 1:
                raise ValidationError(f"reflector {r.id}: fanout must be an integer >= 1")
            if not optional_positive(r.bandwidth):
                raise ValidationError(f"reflector {r.id}: bandwidth must be finite and > 0")
            if r.color is not None and type(r.color) is not int:
                raise ValidationError(f"reflector {r.id}: color must be an integer")
        for s in self.sources:
            if not optional_positive(s.bitrate):
                raise ValidationError(f"source {s.id}: bitrate must be finite and > 0")
        for d in self.sinks:
            if d.stream not in self.source_by_id:
                raise ValidationError(f"sink {d.id}: unknown stream {d.stream!r}")
            if not (_is_number(d.loss_threshold) and 0.0 < d.loss_threshold <= 1.0):
                raise ValidationError(
                    f"sink {d.id}: loss_threshold {d.loss_threshold!r} outside (0, 1]"
                )
        if len(self.sources) > len(self.sinks):
            raise ValidationError("more sources than sinks after normalization")

        for (a, b), edge in self.src_edges.items():
            if a not in self.source_by_id or b not in self.reflector_by_id:
                raise ValidationError(f"src edge ({a}, {b}) does not join a source to a reflector")
        for (a, b), edge in self.refl_edges.items():
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

    def path_weight(self, k: str, i: str, j: str, clamp: bool = True) -> float:
        """Log-domain weight of a relay path, clamped to the sink's threshold.

        Raises PathUnavailableError when either link is absent, so callers
        exclude the triple from their formulations.
        """
        sink = self.sink_by_id.get(j)
        if sink is None:
            raise PathUnavailableError((k, i, j))
        if sink.stream != k:
            raise ValidationError(f"sink {j} demands stream {sink.stream!r}, not {k!r}")
        raw = loss_to_weight(self.path_loss(k, i, j))
        if not clamp:
            return raw
        return min(max(raw, 0.0), sink.weight_threshold)

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

    def admissible_reflectors(self, j: str) -> list[str]:
        """Reflectors with both links present for sink j's stream."""
        k = self.sink_by_id[j].stream
        return [
            r.id
            for r in self.reflectors
            if (k, r.id) in self.src_edges and (r.id, j) in self.refl_edges
        ]

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        def edge_doc(key, edge):
            return {"from": key[0], "to": key[1], "loss": edge.loss, "cost": edge.cost}

        sources = []
        for s in self.sources:
            rec = {"id": s.id}
            if s.bitrate is not None:
                rec["bitrate"] = s.bitrate
            sources.append(rec)
        reflectors = []
        for r in self.reflectors:
            rec = {"id": r.id, "cost": r.cost, "fanout": r.fanout}
            if r.bandwidth is not None:
                rec["bandwidth"] = r.bandwidth
            if r.color is not None:
                rec["color"] = r.color
            reflectors.append(rec)
        sinks = [
            {"id": d.id, "stream": d.stream, "loss_threshold": d.loss_threshold}
            for d in self.sinks
        ]
        return {
            "sources": sources,
            "reflectors": reflectors,
            "sinks": sinks,
            "src_edges": [edge_doc(k, e) for k, e in sorted(self.src_edges.items())],
            "refl_edges": [edge_doc(k, e) for k, e in sorted(self.refl_edges.items())],
            "mode": self.mode,
            "colors_enabled": self.colors_enabled,
            "bandwidth_enabled": self.bandwidth_enabled,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)


# -- raw document handling ---------------------------------------------------

_TOP_KEYS_REQ = {"sources", "reflectors", "sinks", "src_edges", "refl_edges"}
_TOP_KEYS_OPT = {"mode", "colors_enabled", "bandwidth_enabled"}


def _require_node_lists(doc: dict) -> None:
    for key in ("sources", "reflectors", "sinks"):
        if not isinstance(doc[key], list):
            raise ValidationError(f"{key}: expected a list")


def _parse_edge_records(records, where: str) -> list[dict]:
    if not isinstance(records, list):
        raise ValidationError(f"{where}: expected a list")
    out = []
    for idx, rec in enumerate(records):
        _require_keys(rec, {"from", "to", "loss", "cost"}, set(), f"{where}[{idx}]")
        _field(rec, "from", "string", f"{where}[{idx}]")
        _field(rec, "to", "string", f"{where}[{idx}]")
        out.append(rec)
    return out


def normalize_doc(doc: dict) -> dict:
    """Replicate multi-stream sources and multi-demand sinks into unit form.

    Pure document-to-document transform; running it on its own output is a
    no-op. Replicas are named ``origId#streamId``. Source replicas whose
    stream no sink demands are dropped along with their edges (they can
    never carry traffic, and the normalized form keeps at most one source
    per demanded stream).
    """
    _require_keys(doc, _TOP_KEYS_REQ, _TOP_KEYS_OPT, "instance")
    _require_node_lists(doc)

    # Streams: map raw stream name -> normalized source id.
    stream_of: dict[str, str] = {}
    out_sources = []
    streams_by_source: dict[str, list[str]] = {}
    for idx, rec in enumerate(doc["sources"]):
        _require_keys(rec, {"id"}, {"streams", "bitrate"}, f"sources[{idx}]")
        sid = _field(rec, "id", "string", f"sources[{idx}]")
        if "streams" in rec:
            streams = rec["streams"]
            if not isinstance(streams, list) or not streams or not all(
                type(stream) is str for stream in streams
            ):
                raise ValidationError(f"sources[{idx}]: streams must be a non-empty list of strings")
            for stream in streams:
                replica = f"{sid}#{stream}"
                if stream in stream_of:
                    raise ValidationError(f"duplicate stream id {stream!r}")
                stream_of[stream] = replica
                base = {"id": replica}
                if "bitrate" in rec:
                    base["bitrate"] = rec["bitrate"]
                out_sources.append(base)
                streams_by_source.setdefault(sid, []).append(replica)
        else:
            # Already unit form: the source originates the stream named by its id.
            if sid in stream_of:
                raise ValidationError(f"duplicate stream id {sid!r}")
            stream_of[sid] = sid
            base = {"id": sid}
            if "bitrate" in rec:
                base["bitrate"] = rec["bitrate"]
            out_sources.append(base)
            streams_by_source.setdefault(sid, []).append(sid)

    out_sinks = []
    sink_replicas: dict[str, list[tuple[str, str]]] = {}  # raw sink id -> (replica, stream)
    for idx, rec in enumerate(doc["sinks"]):
        if isinstance(rec, dict) and "demands" in rec:
            _require_keys(rec, {"id", "demands"}, set(), f"sinks[{idx}]")
            _field(rec, "id", "string", f"sinks[{idx}]")
            demands = rec["demands"]
            if not isinstance(demands, list) or not demands:
                raise ValidationError(f"sinks[{idx}]: demands must be a non-empty list")
            for d_idx, dem in enumerate(demands):
                where = f"sinks[{idx}].demands[{d_idx}]"
                _require_keys(dem, {"stream", "loss_threshold"}, set(), where)
                _field(dem, "stream", "string", where)
                if dem["stream"] not in stream_of:
                    raise ValidationError(f"sinks[{idx}]: unknown stream {dem['stream']!r}")
                replica = f"{rec['id']}#{dem['stream']}"
                out_sinks.append(
                    {
                        "id": replica,
                        "stream": stream_of[dem["stream"]],
                        "loss_threshold": dem["loss_threshold"],
                    }
                )
                sink_replicas.setdefault(rec["id"], []).append((replica, stream_of[dem["stream"]]))
        else:
            _require_keys(rec, {"id", "stream", "loss_threshold"}, set(), f"sinks[{idx}]")
            _field(rec, "id", "string", f"sinks[{idx}]")
            if _field(rec, "stream", "string", f"sinks[{idx}]") not in stream_of:
                raise ValidationError(f"sinks[{idx}]: unknown stream {rec['stream']!r}")
            resolved = stream_of[rec["stream"]]
            out_sinks.append(
                {"id": rec["id"], "stream": resolved, "loss_threshold": rec["loss_threshold"]}
            )
            sink_replicas.setdefault(rec["id"], []).append((rec["id"], resolved))

    demanded = {rec["stream"] for rec in out_sinks}
    out_sources = [rec for rec in out_sources if rec["id"] in demanded]
    kept_sources = {rec["id"] for rec in out_sources}

    out_src_edges = []
    for rec in _parse_edge_records(doc["src_edges"], "src_edges"):
        replicas = streams_by_source.get(rec["from"])
        if replicas is None:
            raise ValidationError(f"src edge from unknown source {rec['from']!r}")
        for replica in replicas:
            if replica not in kept_sources:
                continue
            out_src_edges.append(
                {"from": replica, "to": rec["to"], "loss": rec["loss"], "cost": rec["cost"]}
            )

    out_refl_edges = []
    for rec in _parse_edge_records(doc["refl_edges"], "refl_edges"):
        replicas = sink_replicas.get(rec["to"])
        if replicas is None:
            raise ValidationError(f"refl edge to unknown sink {rec['to']!r}")
        for replica, _stream in replicas:
            out_refl_edges.append(
                {"from": rec["from"], "to": replica, "loss": rec["loss"], "cost": rec["cost"]}
            )

    out = {
        "sources": out_sources,
        "reflectors": doc["reflectors"],
        "sinks": out_sinks,
        "src_edges": out_src_edges,
        "refl_edges": out_refl_edges,
    }
    for key in _TOP_KEYS_OPT:
        if key in doc:
            out[key] = doc[key]
    return out


def instance_from_doc(doc: dict) -> Instance:
    """Build an Instance from a document already in normalized form.

    Every field must have its JSON type: ids are strings, fanout and color
    integers, the flags booleans, and the rest numbers.
    """
    _require_keys(doc, _TOP_KEYS_REQ, _TOP_KEYS_OPT, "instance")
    _require_node_lists(doc)
    sources = []
    for idx, rec in enumerate(doc["sources"]):
        where = f"sources[{idx}]"
        _require_keys(rec, {"id"}, {"bitrate"}, where)
        sources.append(
            SourceSpec(
                id=_field(rec, "id", "string", where),
                bitrate=_field(rec, "bitrate", "number", where),
            )
        )
    reflectors = []
    for idx, rec in enumerate(doc["reflectors"]):
        where = f"reflectors[{idx}]"
        _require_keys(rec, {"id", "cost", "fanout"}, {"bandwidth", "color"}, where)
        reflectors.append(
            ReflectorSpec(
                id=_field(rec, "id", "string", where),
                cost=float(_field(rec, "cost", "number", where)),
                fanout=_field(rec, "fanout", "integer", where),
                bandwidth=_field(rec, "bandwidth", "number", where),
                color=_field(rec, "color", "integer", where),
            )
        )
    sinks = []
    for idx, rec in enumerate(doc["sinks"]):
        where = f"sinks[{idx}]"
        _require_keys(rec, {"id", "stream", "loss_threshold"}, set(), where)
        sinks.append(
            SinkSpec(
                id=_field(rec, "id", "string", where),
                stream=_field(rec, "stream", "string", where),
                loss_threshold=float(_field(rec, "loss_threshold", "number", where)),
            )
        )

    def edge_map(records, where):
        out = {}
        for rec in _parse_edge_records(records, where):
            key = (rec["from"], rec["to"])
            if key in out:
                raise ValidationError(f"{where}: duplicate edge {key}")
            out[key] = EdgeSpec(loss=rec["loss"], cost=rec["cost"])  # Instance checks both
        return out

    return Instance(
        sources=sources,
        reflectors=reflectors,
        sinks=sinks,
        src_edges=edge_map(doc["src_edges"], "src_edges"),
        refl_edges=edge_map(doc["refl_edges"], "refl_edges"),
        mode=_field(doc, "mode", "string", "instance", "full"),
        colors_enabled=_field(doc, "colors_enabled", "boolean", "instance", False),
        bandwidth_enabled=_field(doc, "bandwidth_enabled", "boolean", "instance", False),
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


class WeightTable:
    """Clamped path weights for every usable (stream, reflector, sink) triple.

    Built once per instance and shared read-only by the solvers; weights are
    clamped into [0, sink threshold] so no single path dominates a demand row.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.entries: dict[tuple[str, str, str], float] = {}
        self._by_sink: dict[str, list[tuple[str, float]]] = {}
        for sink in inst.sinks:
            k = sink.stream
            rows = []
            for i in inst.admissible_reflectors(sink.id):
                w = inst.path_weight(k, i, sink.id)
                self.entries[(k, i, sink.id)] = w
                rows.append((i, w))
            self._by_sink[sink.id] = rows

    def get(self, k: str, i: str, j: str) -> float:
        return self.entries[(k, i, j)]

    def sink_entries(self, j: str) -> list[tuple[str, float]]:
        """(reflector, clamped weight) pairs admissible for sink j."""
        return self._by_sink[j]
