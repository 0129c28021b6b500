"""Synthetic instance generators.

Two families: seeded random three-layer networks in three loss regimes, and
exact set-cover reductions (one reflector per set, one sink per element,
weight-1 member links, unit reflector cost) whose integral optimum equals
the cover optimum.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Instance, combined_loss, instance_from_doc, loss_to_weight

LOSS_REGIMES = {
    "low": (0.0, 0.01),
    "avg": (0.005, 0.05),
    "high": (0.02, 0.20),
}
COST_RANGE = (1.0, 10.0)
REFLECTOR_COST_RANGE = (5.0, 50.0)
MAX_ATTEMPTS = 100
# how many of a sink's best paths its threshold is allowed to demand
_TOP_PATH_WEIGHTS = ((1, 0.55), (2, 0.30), (3, 0.15))


class GenerationError(RuntimeError):
    """No feasible instance came out after the redraw budget."""


def _pick_top_count(u: float) -> int:
    acc = 0.0
    for count, share in _TOP_PATH_WEIGHTS:
        acc += share
        if u < acc:
            return count
    return _TOP_PATH_WEIGHTS[-1][0]


def _draw_doc(
    rng: np.random.Generator,
    sizes: tuple[int, int, int],
    regime: str,
    density: float,
    colors: int | None,
) -> dict | None:
    n_src, n_refl, n_sink = sizes
    lo, hi = LOSS_REGIMES[regime]

    # scalar, as integers() draws 32-bit halves that PCG64 buffers between calls
    fan_hi = max(2, math.ceil(2 * n_sink / n_refl))
    refl_costs, caps = [], []
    for _ in range(n_refl):
        refl_costs.append(float(rng.uniform(*REFLECTOR_COST_RANGE)))
        caps.append(int(rng.integers(2, fan_hi + 1)))

    # then one block: keep, loss and cost of each source edge in (k, i) order
    # and of each relay edge in (i, j) order, then top-count and alpha of each
    # sink; uniform(a, b) is a + (b - a) * u bit for bit
    n_src_edges = n_src * n_refl
    n_edges = n_src_edges + n_refl * n_sink
    block = rng.random(3 * n_edges + 2 * n_sink)
    keep_u, loss_u, cost_u = block[: 3 * n_edges].reshape(n_edges, 3).T
    keep = keep_u < density
    loss = lo + (hi - lo) * loss_u
    cost = COST_RANGE[0] + (COST_RANGE[1] - COST_RANGE[0]) * cost_u
    sink_u = block[3 * n_edges :].reshape(n_sink, 2).tolist()

    def by_sink(values):  # row j: sink j's edge pairs, from its stream j % n_src
        src = values[:n_src_edges].reshape(n_src, n_refl)
        return src[np.arange(n_sink) % n_src], values[n_src_edges:].reshape(n_refl, n_sink).T

    path_loss = combined_loss(*by_sink(loss)).tolist()
    path_ok = np.logical_and(*by_sink(keep)).tolist()

    # per sink: its best paths (with colors on, the best of each group), its
    # threshold, then greedy service under the fan-out caps, in sink order
    rids = [f"r{i}" for i in range(n_refl)]
    groups = None if colors is None else [i % colors for i in range(n_refl)]
    loads = [0] * n_refl
    thresholds = []
    for j, (top_u, alpha_u) in enumerate(sink_u):
        # (-weight, id, index) tuples sort best first, ties by id, with no key
        paths = sorted(
            (-loss_to_weight(p), rids[i], i)
            for i, (p, ok) in enumerate(zip(path_loss[j], path_ok[j]))
            if ok
        )
        if groups is not None:
            best_per_group: dict[int, tuple[float, str, int]] = {}
            for path in paths:
                best_per_group.setdefault(groups[path[2]], path)
            paths = list(best_per_group.values())
        if not paths:
            return None
        n_top = min(_pick_top_count(top_u), len(paths))
        alpha = 0.5 + (0.95 - 0.5) * alpha_u
        threshold = 2.0 ** (-(alpha * sum(-neg_w for neg_w, _rid, _i in paths[:n_top])))
        thresholds.append(threshold)

        need = -math.log2(threshold) if threshold < 1 else 0.0
        got = 0.0
        for neg_w, _rid, i in paths:  # at most one per group, so groups need no check
            if got >= need - 1e-9:
                break
            if loads[i] < caps[i]:
                loads[i] += 1
                got += min(-neg_w, need)
        if got < need - 1e-9:
            return None

    # certified: only now build the records
    reflectors = [{"id": rid, "cost": c, "fanout": f} for rid, c, f in zip(rids, refl_costs, caps)]
    if groups is not None:
        for rec, group in zip(reflectors, groups):
            rec["color"] = group
    ends = [(f"s{k}", rid) for k in range(n_src) for rid in rids]
    ends += [(rid, f"d{j}") for rid in rids for j in range(n_sink)]
    edges = [
        {"from": a, "to": b, "loss": p, "cost": c}
        for (a, b), ok, p, c in zip(ends, keep.tolist(), loss.tolist(), cost.tolist())
        if ok
    ]
    n_src_kept = int(keep[:n_src_edges].sum())
    return {
        "sources": [{"id": f"s{k}"} for k in range(n_src)],
        "reflectors": reflectors,
        "sinks": [
            {"id": f"d{j}", "stream": f"s{j % n_src}", "loss_threshold": t}
            for j, t in enumerate(thresholds)
        ],
        "src_edges": edges[:n_src_kept],
        "refl_edges": edges[n_src_kept:],
        "colors_enabled": colors is not None,
    }


def gen_random(
    sizes: tuple[int, int, int],
    regime: str = "avg",
    seed: int = 0,
    density: float = 1.0,
    colors: int | None = None,
) -> Instance:
    """Draw a seeded three-layer instance with per-sink reachable thresholds.

    Every sink's loss ceiling is alpha times the weight of its best one to
    three paths (alpha < 1). An attempt draws each reflector's cost and
    fan-out in turn, then one block of doubles for the edges and sinks (see
    `_draw_doc`). It is accepted once a greedy assignment under the fan-out
    caps serves every sink, and only then is its document built; an attempt
    that cannot be certified is retried with a fresh substream, up to 100
    times.
    """
    n_src, n_refl, n_sink = sizes
    if min(n_src, n_refl, n_sink) < 1:
        raise ValueError("sizes must all be at least 1")
    if n_src > n_sink:
        raise ValueError("need at least as many sinks as sources")
    if regime not in LOSS_REGIMES:
        raise ValueError(f"unknown loss regime {regime!r}")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if colors is not None and colors < 1:
        raise ValueError("colors must be a positive count")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(seed), spawn_key=(attempt,))
        )
        doc = _draw_doc(rng, sizes, regime, density, colors)
        if doc is not None:
            return instance_from_doc(doc)
    raise GenerationError(
        f"no feasible draw in {MAX_ATTEMPTS} attempts for sizes {sizes};"
        " raise density or shrink the network"
    )


def gen_setcover(universe_size: int, sets: list) -> Instance:
    """Encode a set-cover system: picking a reflector is picking its set.

    One source feeds every set-reflector losslessly at zero cost; a member
    link carries loss one half (weight one) at zero cost; every sink needs
    total weight one, so any cover is feasible and the integral optimum
    counts the chosen sets.
    """
    if universe_size < 1:
        raise ValueError("universe must hold at least one element")
    clean = [sorted(set(int(e) for e in s)) for s in sets]
    for idx, members in enumerate(clean):
        for e in members:
            if not 0 <= e < universe_size:
                raise ValueError(f"set {idx}: element {e} outside the universe")
    covered = set()
    for members in clean:
        covered.update(members)
    missing = sorted(set(range(universe_size)) - covered)
    if missing:
        raise ValueError(f"elements {missing} are covered by no set")

    doc = {
        "sources": [{"id": "s"}],
        "reflectors": [
            {"id": f"set{idx}", "cost": 1.0, "fanout": universe_size}
            for idx in range(len(clean))
        ],
        "sinks": [
            {"id": f"e{j}", "stream": "s", "loss_threshold": 0.5}
            for j in range(universe_size)
        ],
        "src_edges": [
            {"from": "s", "to": f"set{idx}", "loss": 0.0, "cost": 0.0}
            for idx in range(len(clean))
        ],
        "refl_edges": [
            {"from": f"set{idx}", "to": f"e{j}", "loss": 0.5, "cost": 0.0}
            for idx, members in enumerate(clean)
            for j in members
        ],
    }
    return instance_from_doc(doc)


def random_cover_system(
    rng: np.random.Generator, max_universe: int = 8, max_sets: int = 10
) -> tuple[int, list[list[int]]]:
    """Draw a covered random set system, folding stray elements into it."""
    universe = int(rng.integers(2, max_universe + 1))
    n_sets = int(rng.integers(2, max_sets + 1))
    sets = []
    for _ in range(n_sets):
        mask = rng.random(universe) < rng.uniform(0.2, 0.7)
        members = [int(e) for e in np.flatnonzero(mask)]
        if members:
            sets.append(members)
    if not sets:
        sets.append(list(range(universe)))
    covered = set()
    for members in sets:
        covered.update(members)
    for e in range(universe):
        if e not in covered:
            sets[int(rng.integers(0, len(sets)))].append(e)
    return universe, sets


def greedy_cover_cost(universe_size: int, sets: list) -> int:
    """Classic largest-remaining-set greedy; an upper bound on the optimum."""
    remaining = set(range(universe_size))
    chosen = 0
    pool = [set(s) for s in sets]
    while remaining:
        best = max(range(len(pool)), key=lambda idx: (len(pool[idx] & remaining), -idx))
        gain = pool[best] & remaining
        if not gain:
            raise ValueError("uncoverable residue; system was not a cover")
        remaining -= gain
        chosen += 1
    return chosen
