"""Delivered overlay networks: routes, cost breakdown, JSON round trip.

A PathSet is the common output shape of every solver in the suite: the set of
(stream, reflector, sink) routes actually wired up, each with a mass of one
(exact solvers) or one half / one (the rounding pipeline, whose analysis
charges half-served boxes half a route). Reflector and feed activations are
implied: the minimal closure of the routes. Costs are always recomputed from
that closure, never trusted from solver bookkeeping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .model import Instance, ValidationError, _check_record

_DOC_KIND = "overlay-routes-v1"


@dataclass
class PathSet:
    instance: Instance
    x_tilde: dict[tuple[str, str, str], float]
    provenance: str  # "exact-ip" | "approx" | "approxhack" | "approx-color"
    mode: str = "full"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for (k, i, j), mass in self.x_tilde.items():
            if mass <= 0.0:
                raise ValueError(f"route {(k, i, j)} carries non-positive mass")

    @property
    def routes(self) -> list[tuple[str, str, str]]:
        return sorted(self.x_tilde)

    @property
    def reflectors_used(self) -> list[str]:
        return sorted({i for (_k, i, _j) in self.x_tilde})

    @property
    def feeds(self) -> list[tuple[str, str]]:
        return sorted({(k, i) for (k, i, _j) in self.x_tilde})

    def cost_breakdown(self) -> dict[str, float]:
        inst = self.instance
        if self.mode == "transmission":
            relays = sum(
                inst.src_edges[(k, i)].cost + inst.refl_edges[(i, j)].cost
                for (k, i, j) in self.x_tilde
            )
            return {"reflectors": 0.0, "feeds": 0.0, "relays": relays, "total": relays}
        reflectors = sum(inst.reflector_by_id[i].cost for i in self.reflectors_used)
        feeds = sum(inst.src_edges[(k, i)].cost for (k, i) in self.feeds)
        relays = sum(inst.refl_edges[(i, j)].cost for (_k, i, j) in self.x_tilde)
        return {
            "reflectors": reflectors,
            "feeds": feeds,
            "relays": relays,
            "total": reflectors + feeds + relays,
        }

    @property
    def cost(self) -> float:
        return self.cost_breakdown()["total"]

    def analytic_loss(self, j: str) -> float:
        sink = self.instance.sink_by_id[j]
        reflectors = [i for (_k, i, jj) in self.x_tilde if jj == j]
        return self.instance.analytic_loss(reflectors, sink.stream, j)

    def to_doc(self) -> dict:
        return {
            "kind": _DOC_KIND,
            "provenance": self.provenance,
            "mode": self.mode,
            "cost": self.cost,
            "routes": [
                {"stream": k, "reflector": i, "sink": j, "mass": self.x_tilde[(k, i, j)]}
                for (k, i, j) in self.routes
            ],
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    @staticmethod
    def from_doc(inst: Instance, doc: dict) -> "PathSet":
        """Read a routes document; a malformed one raises ValidationError."""
        kind = doc.get("kind") if isinstance(doc, dict) else type(doc).__name__
        if kind != _DOC_KIND:
            raise ValidationError(f"not a routes document: kind={kind!r}")
        doc = _check_record(doc, "solution", "solution")
        meta = doc.get("meta", {})
        _check_record(meta, "meta", "meta")
        x_tilde = {}
        for n, rec in enumerate(doc["routes"]):
            rec = _check_record(rec, "route", f"routes[{n}]")
            key = (rec["stream"], rec["reflector"], rec["sink"])
            if key in x_tilde:
                raise ValidationError(f"duplicate route {key}")
            x_tilde[key] = rec["mass"]
        return PathSet(
            instance=inst,
            x_tilde=x_tilde,
            provenance=doc["provenance"],
            mode=doc.get("mode", "full"),
            meta=meta,
        )


def from_integral(result, provenance: str) -> PathSet:
    """Wrap an exact/fixed solver's incumbent under `provenance` ("exact-ip"
    or "approxhack"); unused activations are stripped.

    An optimal assignment never pays for an unused reflector or feed, so the
    minimal closure costs exactly the solver objective; for timeout
    incumbents produced under branching fixings the closure can only be
    cheaper, and it stays row-feasible.
    """
    model = result.model
    x_tilde = {key: 1.0 for key in result.chosen_triples()}
    meta = {
        "status": result.status,
        "solver_objective": result.objective,
        "lp_bound": result.bound,
        "nodes": result.nodes,
    }
    return PathSet(
        instance=model.inst,
        x_tilde=x_tilde,
        provenance=provenance,
        mode=model.inst.mode,
        meta=meta,
    )


def load_pathset(inst: Instance, path) -> PathSet:
    with open(path, "r", encoding="utf-8") as fh:
        return PathSet.from_doc(inst, json.load(fh))


def save_pathset(ps: PathSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ps.to_json())
        fh.write("\n")
