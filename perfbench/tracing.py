"""Span recording around the public functions of each overcast module.

The traced run replaces module attributes with thin wrappers, under the names
their callers look them up by, so no file under src/ changes:

- `overcast.simplex.solve`, which lp.py calls through the module attribute;
- the stage functions that pipeline.py imported into its own namespace;
- the entry points the benchmark itself calls (`run_approx`, `audit`, ...).

A span is (name, start, end, parent span, op id) plus a few counters read
off the wrapped call's return value. Spans stay in memory and are written
once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

from overcast import pipeline, simplex, verify


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None
    model: object = None  # the LpModel of an lp.solve_lp span, for the HiGHS check

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args: tuple, result) -> dict:
    """Counters a layer's return value carries; all deterministic."""
    if name == "simplex.solve":
        return {"pivots": result.iterations}
    if name == "lp.build_model":
        return {"nvars": result.nvars, "nrows": len(result.rows)}
    if name == "lp.solve_ip":
        return {"nodes": result.nodes}
    if name == "rounding.round_with_retries":
        return {"draws": result.attempts}
    if name == "gapflow.run_gap_stage":
        return {"boxes": result.plan.total_boxes}
    if name == "color.run_color_stage":
        return {
            "paths_selected": len(result.selected),
            "paths_dropped": result.dropped_paths,
            "karp_max_increase": result.certificate.max_increase,
        }
    if name == "verify.simulate_losses":
        return {"packets": args[1]}
    return {}


# (module, attribute, span name).
TARGETS = [
    (simplex, "solve", "simplex.solve"),
    (pipeline, "build_model", "lp.build_model"),
    (pipeline, "solve_lp", "lp.solve_lp"),
    (pipeline, "solve_ip", "lp.solve_ip"),
    (pipeline, "randomized_round", "rounding.randomized_round"),
    (pipeline, "round_with_retries", "rounding.round_with_retries"),
    (pipeline, "run_gap_stage", "gapflow.run_gap_stage"),
    (pipeline, "run_color_stage", "color.run_color_stage"),
    (pipeline, "run_approx", "pipeline.run_approx"),
    (pipeline, "run_exact", "pipeline.run_exact"),
    (verify, "audit", "verify.audit"),
    (verify, "simulate_losses", "verify.simulate_losses"),
]


class Tracer:
    """Records spans while installed; `installed()` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(
                name=name,
                start=time.perf_counter(),
                parent=self._stack[-1] if self._stack else None,
                op=self.op,
            )
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, args, result)
            if name == "lp.solve_lp":
                span.model = args[0]
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, fn), (_m, _a, name) in zip(originals, TARGETS):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_time(self, idx: int) -> float:
        """Span duration minus the time its direct children cover."""
        children = sum(s.duration for s in self.spans if s.parent == idx)
        return self.spans[idx].duration - children

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def write_passes(tracers, path) -> None:
    """All spans, one list per traced pass, as JSON."""
    doc = [
        [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "counts": s.counts,
                "error": s.error,
            }
            for s in tracer.spans
        ]
        for tracer in tracers
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
