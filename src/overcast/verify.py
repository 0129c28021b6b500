"""Audits of delivered networks, plus a packet-level loss simulation.

Three audit profiles, matching what each solver family guarantees:

    exact   every demanded weight met in full, fan-outs within the caps
    approx  masses in {1/2, 1}, fan-outs within 4x, weights within 1/4
    color   one use of a color group may fan out to 13 copies, cost 13x

The simulation drives independent per-link Bernoulli losses. It draws only
the packets each link drops, as geometric gaps between drops: below a loss
of 1/3, one block of exponentials per link, scaled by one log and summed in
place, which gives numpy's `geometric` values from the same random words.
Each route stamps its drops with its own number in one byte array over the
packets, and each route's union and each sink's intersection are gathered
by comparing stamps, with no sort; the array is cleared only when its 255
stamps run out. Its work grows with the packets lost; its memory is the
drop arrays plus one byte per packet sent. A first-hop link (stream,
reflector) is sampled once and shared by every sink fed from it, so
cross-sink correlation is preserved. The losses are, byte for byte, those of
`geometric` draws and sorted set operations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .solution import PathSet

AUDIT_TOL = 1e-6
# Audit profiles and the fan-out bound of each: (factor, extra) in the terms
# of `_fanout_failures`. In the color profile the capacity rows guarantee
# < 4 * (2 * cap) + 9 routes per reflector.
PROFILES = {"exact": (1.0, 0.0), "approx": (4.0, 0.0), "color": (8.0, 9.0)}
# The color profile's bound on copies per (sink, color) group and on path cost
# over the draw's cost: 4 fractional copies plus the rounding walk's drift of 9.
COLOR_FACTOR = 13
APPROX_WEIGHT_FRACTION = 0.25  # of each demanded weight: 1/2 - DELTA, what stage two keeps
# numpy's `Generator.geometric` draws by inversion of an exponential below this
# loss rate, and by a search over uniforms at and above it.
_INVERSION_BELOW = 1.0 / 3.0


@dataclass
class AuditReport:
    profile: str
    ok: bool
    failures: list[str]
    cost: float  # this and the measurements below are NaN or empty when a route is no path
    sink_weights: dict[str, float]
    sink_losses: dict[str, float]
    weight_ratio: float  # worst kept weight over threshold across demanding sinks
    fanout_ratio: float  # worst reflector load over its cap


def _structural_failures(ps: PathSet, profile: str) -> list[str]:
    inst = ps.instance
    bad = []
    if ps.mode != inst.mode:
        bad.append(f"mode mismatch: routes say {ps.mode!r}, instance says {inst.mode!r}")
    allowed = {1.0} if profile in ("exact", "color") else {0.5, 1.0}
    for (k, i, j), mass in ps.x_tilde.items():
        if mass not in allowed:
            bad.append(f"route ({k},{i},{j}): mass {mass} not in {sorted(allowed)}")
    return bad


def _route_failures(ps: PathSet) -> list[str]:
    """Routes that are not a path the instance has for their sink's stream."""
    inst = ps.instance
    bad = []
    for (k, i, j) in ps.x_tilde:
        sink = inst.sink_by_id.get(j)
        if sink is None:
            bad.append(f"route ({k},{i},{j}): unknown sink")
            continue
        if sink.stream != k:
            bad.append(f"route ({k},{i},{j}): sink demands {sink.stream}")
        if (k, i) not in inst.src_edges:
            bad.append(f"route ({k},{i},{j}): no first-hop edge")
        if (i, j) not in inst.refl_edges:
            bad.append(f"route ({k},{i},{j}): no second-hop edge")
    return bad


def _fanout_failures(ps: PathSet, factor: float, extra: float) -> tuple[list[str], float]:
    """Flag reflectors whose load exceeds factor * cap + extra; also return
    the worst load over cap.

    Load and cap are in `Instance.copy_load` / `copy_cap` units: route
    counts, or bitrates with bandwidth caps. `extra` is an additive allowance
    in units of the largest copy load seen at the reflector. A routed stream
    with no bitrate, or a used reflector with no bandwidth cap, leaves a
    load unmeasurable: each is a failure, and the worst ratio is NaN.
    """
    inst = ps.instance
    bad = [f"stream {k}: no bitrate to load its reflectors with"
           for k in sorted({k for k, _i, _j in ps.x_tilde if inst.copy_load(k) is None})]
    bad += [f"reflector {i}: no bandwidth cap to bound its load"
            for i in sorted({i for _k, i, _j in ps.x_tilde if inst.copy_cap(i) is None})]
    if bad:
        return bad, math.nan
    load: dict[str, float] = {}
    load_max: dict[str, float] = {}
    for (k, i, _j) in ps.x_tilde:
        copy = inst.copy_load(k)
        load[i] = load.get(i, 0.0) + copy
        load_max[i] = max(load_max.get(i, 0.0), copy)
    worst = 0.0
    for i, used in load.items():
        cap = inst.copy_cap(i)
        worst = max(worst, used / cap if cap > 0 else math.inf)
        if used > factor * cap + extra * load_max[i] + AUDIT_TOL:
            if inst.bandwidth_enabled:
                bad.append(f"reflector {i}: bandwidth load {used:.6f} over {factor:g}x cap {cap}")
            else:
                bad.append(f"reflector {i}: {used:g} routes over {factor:g}x fan-out {cap}")
    return bad, worst


def _weight_failures(ps: PathSet, sink_weights: dict[str, float], fraction: float) -> list[str]:
    bad = []
    for d in ps.instance.sinks:
        kept = sink_weights[d.id]
        if d.weight_threshold > 0 and kept < fraction * d.weight_threshold - AUDIT_TOL:
            bad.append(
                f"sink {d.id}: kept weight {kept:.6f} under {fraction:g} * {d.weight_threshold:.6f}"
            )
    return bad


def _color_group_counts(ps: PathSet) -> dict[tuple[str, int], int]:
    inst = ps.instance
    counts: dict[tuple[str, int], int] = {}
    for (_k, i, j) in ps.x_tilde:
        color = inst.reflector_by_id[i].color
        if color is None:
            continue
        key = (j, color)
        counts[key] = counts.get(key, 0) + 1
    return counts


def audit(ps: PathSet, profile: str = "exact", claimed_cost: float | None = None) -> AuditReport:
    if profile not in PROFILES:
        raise ValueError(f"unknown audit profile {profile!r}")
    inst = ps.instance
    route_failures = _route_failures(ps)
    failures = _structural_failures(ps, profile) + route_failures
    if route_failures:
        return AuditReport(profile, False, failures, math.nan, {}, {}, math.nan, math.nan)

    # Each sink's routes, gathered in one pass; x_tilde order fixes the sums' bits.
    routes_of: dict[str, list[tuple[str, str, float]]] = {d.id: [] for d in inst.sinks}
    for (k, i, j), mass in ps.x_tilde.items():
        routes_of[j].append((k, i, mass))
    sink_weights = {}
    sink_losses = {}
    weight_ratio = math.inf
    for d in inst.sinks:
        routes = routes_of[d.id]
        sink_weights[d.id] = sum(inst.path_weight(k, i, d.id) * mass for k, i, mass in routes)
        if d.weight_threshold > 0:
            weight_ratio = min(weight_ratio, sink_weights[d.id] / d.weight_threshold)
        sink_losses[d.id] = inst.analytic_loss([i for _k, i, _m in routes], d.stream, d.id)

    fanout_failures, fanout_ratio = _fanout_failures(ps, *PROFILES[profile])
    failures += fanout_failures
    if profile == "exact":
        failures += _weight_failures(ps, sink_weights, 1.0)
        if inst.colors_enabled:
            for (j, color), n in _color_group_counts(ps).items():
                if n > 1:
                    failures.append(f"sink {j}: color {color} used {n} times")
    elif profile == "approx":
        failures += _weight_failures(ps, sink_weights, APPROX_WEIGHT_FRACTION)
    else:  # color
        for (j, color), n in _color_group_counts(ps).items():
            if n > COLOR_FACTOR:
                failures.append(f"sink {j}: color {color} used {n} times, cap {COLOR_FACTOR}")
        served = {j for (_k, _i, j) in ps.x_tilde}
        for d in inst.sinks:
            if d.weight_threshold > 0 and d.id not in served:
                failures.append(f"sink {d.id}: no route at all")
        draw_cost = ps.meta.get("draw_cost")
        if draw_cost is not None and draw_cost > 0:
            path_cost = ps.meta.get("path_cost_total")
            if path_cost is not None and path_cost > COLOR_FACTOR * draw_cost + AUDIT_TOL:
                failures.append(
                    f"selected path cost {path_cost:.6f} over {COLOR_FACTOR}x"
                    f" draw cost {draw_cost:.6f}"
                )

    cost = ps.cost
    if claimed_cost is not None and not math.isclose(
        cost, claimed_cost, rel_tol=0.0, abs_tol=AUDIT_TOL
    ):
        failures.append(f"claimed cost {claimed_cost!r} is not the recomputed {cost!r}")

    if profile == "exact":
        for d in inst.sinks:
            loss = sink_losses[d.id]
            if loss > d.loss_threshold * (1.0 + 1e-5) + 1e-15:
                failures.append(
                    f"sink {d.id}: delivery loss {loss:.3e} over threshold {d.loss_threshold:.3e}"
                )

    return AuditReport(
        profile=profile,
        ok=not failures,
        failures=failures,
        cost=cost,
        sink_weights=sink_weights,
        sink_losses=sink_losses,
        weight_ratio=weight_ratio,
        fanout_ratio=fanout_ratio,
    )


def _gaps(rng: np.random.Generator, p: float, batch: int) -> np.ndarray:
    """`rng.geometric(p, batch)`: the same gaps, drawn from the same words.

    Below numpy's threshold of 1/3 a Geometric(p) draw is ceil(-E / log1p(-p))
    with E a ziggurat standard exponential, so the gaps come from one block
    of exponentials, divided in place by one log per call, as whole floats.
    At and above 1/3 numpy draws by a search that uses the stream otherwise,
    so those links, set-cover losses of 1/2 among them, call `geometric`.
    """
    if p >= _INVERSION_BELOW:
        return rng.geometric(p, batch)
    g = rng.standard_exponential(batch)
    g /= -math.log1p(-p)
    return np.ceil(g, out=g)


def _drops(rng: np.random.Generator, p: float, packets: int) -> np.ndarray:
    """Sorted indices of the packets, out of `packets`, that a link of loss p
    drops: the cumulative sums of Geometric(p) gaps, less one.

    The sums run in place, in floats below a loss of 1/3, and only the kept
    prefix is cast to int64. They are exact: every partial sum up to
    `packets` is an integer below 2**53, a bound the one byte per packet of
    `simulate_losses` keeps far off, and sums past `packets` are only
    compared and cut.
    """
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    batch = int(p * packets + 3.0 * math.sqrt(p * packets)) + 1  # mean + 3 sd: rarely extended
    idx = _gaps(rng, p, batch)
    idx[0] -= 1
    np.cumsum(idx, out=idx)
    while idx[-1] < packets:
        idx = np.concatenate((idx, idx[-1] + np.cumsum(_gaps(rng, p, batch))))
    return idx[: np.searchsorted(idx, packets)].astype(np.int64, copy=False)


def simulate_losses(ps: PathSet, packets: int, seed: int) -> dict[str, float]:
    """Per-sink delivery loss over simulated packets.

    One generator, PCG64 seeded with `seed`, draws each first-hop link's
    dropped packets once (in `ps.feeds` order), then each route's relay-leg
    drops (in `ps.routes` order), as geometric gaps between drops (`_drops`).
    A route drops the union of its two links' drops; a sink misses the
    packets every one of its routes dropped, and a sink without routes
    misses all of them. Each route takes the next stamp s of a uint8 array
    over the packets and stamps its feed's drops: a sink's first route keeps
    the feed's drops and the leg's unstamped ones, a later route also stamps
    its leg and keeps the sink's lost packets stamped s. After stamp 255 the
    array is zeroed and the stamps restart at 1. Results are exact functions
    of (solution, packets, seed).
    """
    if isinstance(packets, bool) or not isinstance(packets, numbers.Integral):
        raise ValueError(f"packets must be an integer, not {packets!r}")
    if packets <= 0:
        raise ValueError("packets must be positive")
    packets = int(packets)  # a numpy integer would make each loss a numpy float
    bad = _route_failures(ps)
    if bad:
        raise ValueError(bad[0])
    inst = ps.instance
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    feed_drops = {f: _drops(rng, inst.src_edges[f].loss, packets) for f in ps.feeds}
    # Set algebra by stamping: the packets a route drops are those stamped with
    # its s, so older stamps need clearing only when a byte's 255 run out.
    stamp = np.zeros(packets, dtype=np.uint8)
    s = 0
    lost: dict[str, np.ndarray] = {}
    for (k, i, j) in ps.routes:
        feed = feed_drops[(k, i)]
        leg = _drops(rng, inst.refl_edges[(i, j)].loss, packets)
        if s == 255:
            stamp[:] = 0
            s = 0
        s += 1
        stamp[feed] = s
        if j in lost:  # keep what this route drops too
            stamp[leg] = s
            lost[j] = lost[j][stamp[lost[j]] == s]
        else:  # the route's drops, each once, unsorted
            lost[j] = np.concatenate((feed, leg[stamp[leg] != s]))
    return {d.id: len(lost[d.id]) / packets if d.id in lost else 1.0 for d in inst.sinks}
