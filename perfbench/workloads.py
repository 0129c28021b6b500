"""Workload definitions: inputs from a seed, the ops of one pass, output checks.

Every op goes through a module attribute (`pipeline.run_approx`, ...), so the
traced run can wrap it without touching the library. The library only ever
sees the generated instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from overcast import gen, lp, pipeline, verify
from overcast.gen import GenerationError
from overcast.lp import TimeBudget
from overcast.model import instance_from_doc

SIM_PACKETS = 250_000
SIM_PLANS = 12
# A sink's simulated loss fails when a loss count at least that far from the
# analytic one has exact binomial probability below SINK_FALSE_ALARM. A simulate
# pass checks 192 sinks, so correct output fails a run about once in 50000.
# Reported as the normal deviation with the same tail: SIGMA_LIMIT = 5.33.
SINK_FALSE_ALARM = 1e-7
SIGMA_LIMIT = -NormalDist().inv_cdf(SINK_FALSE_ALARM / 2)
MAX_REDRAWS = 50
EXACT_INSTANCES = 100
EXACT_NODES = 3000  # never a seconds budget: the work must not depend on speed


@dataclass(frozen=True)
class InstanceSpec:
    sizes: tuple[int, int, int]
    regime: str = "avg"
    colors: int | None = None


@dataclass(frozen=True)
class OpSpec:
    """One call in a pass: `kind` on instance `index`, in `mode`."""

    kind: str  # "approx" | "exact" | "simulate"
    index: int
    mode: str = "full"


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[InstanceSpec, ...]
    ops: tuple[OpSpec, ...]
    packets: int = SIM_PACKETS


LADDER = (
    InstanceSpec((8, 6, 16)),
    InstanceSpec((10, 10, 30)),
    InstanceSpec((12, 12, 40)),
)
LADDER_OPS = (
    OpSpec("approx", 0),
    OpSpec("approx", 1),
    OpSpec("approx", 2),
    OpSpec("approx", 1, "transmission"),
)
# Two of each colored size: one draw per size leaves cost_ratio and pass_s
# too dependent on which instances the seed happens to produce.
COLORED = (
    InstanceSpec((2, 10, 20), "low", 5),
    InstanceSpec((2, 12, 24), "low", 4),
    InstanceSpec((2, 14, 28), "low", 7),
) * 2

# Many small B&B solves time far less steadily than a few large LPs, so they
# share a workload with the ladder instead of having one of their own.
EXACT = (InstanceSpec((2, 2, 4)),) * EXACT_INSTANCES

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plain",
            LADDER + EXACT,
            LADDER_OPS
            + tuple(OpSpec("exact", len(LADDER) + i) for i in range(EXACT_INSTANCES)),
        ),
        Workload(
            "approx-color",
            COLORED,
            tuple(OpSpec("approx", i) for i in range(len(COLORED))),
        ),
        # Simulation time follows a plan's route count, which varies from
        # draw to draw, so many small plans; their LPs are cheap set-up.
        Workload(
            "simulate",
            LADDER[:1] * SIM_PLANS,
            tuple(OpSpec("simulate", i) for i in range(SIM_PLANS)),
        ),
    )
}

# Same shapes of work on instances small enough for a smoke test.
TINY = {
    "plain": Workload(
        "plain",
        (InstanceSpec((2, 3, 6)), InstanceSpec((3, 4, 8))) + (InstanceSpec((2, 2, 4)),) * 3,
        (OpSpec("approx", 0), OpSpec("approx", 1), OpSpec("approx", 1, "transmission"))
        + tuple(OpSpec("exact", i) for i in range(2, 5)),
    ),
    "approx-color": Workload(
        "approx-color",
        (InstanceSpec((2, 4, 8), "low", 2),),
        (OpSpec("approx", 0),),
    ),
    "simulate": Workload(
        "simulate",
        (InstanceSpec((2, 3, 6)), InstanceSpec((3, 4, 8))),
        (OpSpec("simulate", 0), OpSpec("simulate", 1, "transmission")),
        packets=10**4,
    ),
}


def sub_seed(seed: int, index: int, redraw: int) -> int:
    """Deterministic generator seed for instance `index` of a workload seed."""
    return int(np.random.SeedSequence([seed, index, redraw]).generate_state(1)[0])


def with_mode(inst, mode: str):
    """The same instance (same rows) under another objective."""
    if inst.mode == mode:
        return inst
    doc = inst.to_doc()
    doc["mode"] = mode
    return instance_from_doc(doc)


@dataclass
class Inputs:
    """Everything a pass needs, built once per set-up."""

    instances: dict  # (index, mode) -> Instance
    seeds: list[int]  # generator seeds actually used, per instance spec
    redraws: int  # sub-seed steps taken after GenerationError
    gen_s: float  # time inside gen_random, failed draws included
    lp_value: dict  # (index, mode) -> LP relaxation objective (exact ops)
    plans: dict  # (index, mode) -> PathSet (simulate ops)

    def fingerprint(self) -> str:
        parts = [self.instances[key].to_json() for key in sorted(self.instances)]
        parts += [self.plans[key].to_json() for key in sorted(self.plans)]
        parts += [repr(self.lp_value[key]) for key in sorted(self.lp_value)]
        return "\n".join(parts)


def build_inputs(work: Workload, seed: int) -> Inputs:
    """Generate the instances and run the set-up solves."""
    base = []
    seeds = []
    redraws = 0
    gen_s = 0.0
    for index, spec in enumerate(work.instances):
        for redraw in range(MAX_REDRAWS):
            s = sub_seed(seed, index, redraw)
            t0 = time.perf_counter()
            try:
                inst = gen.gen_random(spec.sizes, spec.regime, seed=s, colors=spec.colors)
            except GenerationError:
                gen_s += time.perf_counter() - t0
                redraws += 1
                continue
            gen_s += time.perf_counter() - t0
            base.append(inst)
            seeds.append(s)
            break
        else:
            raise GenerationError(f"instance {index}: no draw in {MAX_REDRAWS} sub-seeds")
    instances = {}
    for op in work.ops:
        instances[(op.index, op.mode)] = with_mode(base[op.index], op.mode)
    lp_value = {}
    plans = {}
    for op in work.ops:
        key = (op.index, op.mode)
        if op.kind == "exact":
            lp_value[key] = lp.solve_lp(lp.build_model(instances[key])).objective
        elif op.kind == "simulate":
            plans[key] = pipeline.run_approx(instances[key])
    return Inputs(instances, seeds, redraws, gen_s, lp_value, plans)


@dataclass
class Outcome:
    op: OpSpec
    pathset: object = None
    report: object = None
    losses: dict | None = None
    error: str | None = None
    failures: list[str] = field(default_factory=list)
    max_sigma: float = 0.0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def output(self) -> str:
        """Serialized result, compared byte for byte across passes."""
        if self.error is not None:
            return f"error: {self.error}"
        text = self.pathset.to_json()
        if self.losses is not None:
            text += repr(sorted(self.losses.items()))
        return text


def audit_profile(op: OpSpec, inst) -> str:
    if op.kind == "exact":
        return "exact"
    return "color" if inst.colors_enabled else "approx"


def run_op(op: OpSpec, inputs: Inputs, seed: int, packets: int) -> Outcome:
    """One op: the solver call and its audit. Exceptions become failures."""
    key = (op.index, op.mode)
    inst = inputs.instances[key]
    out = Outcome(op)
    t0 = time.perf_counter()
    try:
        if op.kind == "approx":
            out.pathset = pipeline.run_approx(inst)
        elif op.kind == "exact":
            out.pathset = pipeline.run_exact(inst, budget=TimeBudget(node_limit=EXACT_NODES))
        else:
            out.pathset = inputs.plans[key]
            out.losses = verify.simulate_losses(out.pathset, packets, seed=seed)
        out.report = verify.audit(out.pathset, audit_profile(op, inst))
    except Exception as exc:  # the benchmark must keep going and count it
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = time.perf_counter() - t0
    return out


def check(out: Outcome, packets: int) -> None:
    """Fill `out.failures`; an op with any failure counts as one failed op."""
    if out.error is not None:
        out.failures.append(out.error)
        return
    ps = out.pathset
    meta = ps.meta
    if meta.get("status") == "infeasible_fixing":
        out.failures.append("empty PathSet: LP fixing infeasible")
    elif not math.isfinite(meta.get("solver_objective", 0.0)) or not ps.x_tilde:
        out.failures.append(f"empty PathSet: status {meta.get('status')} without incumbent")
    if not out.report.ok:
        out.failures.append(f"audit {out.report.profile}: {out.report.failures[0]}")
    if out.losses is not None:
        for j, emp in out.losses.items():
            p = ps.analytic_loss(j)
            lost = round(emp * packets)
            dev = binomial_sigma(lost, packets, p)
            out.max_sigma = max(out.max_sigma, dev)
            if dev > SIGMA_LIMIT:
                out.failures.append(
                    f"sink {j}: simulated loss {emp:.3e} is {dev:.1f} sigma from {p:.3e}"
                )


def binomial_sigma(k: int, n: int, p: float) -> float:
    """How far k successes in n Binomial(n, p) draws sit from the mean.

    The exact two-sided tail probability of a count at least as far out,
    given as the normal deviation with the same tail. Unlike (k - np) over
    the standard error it stays calibrated when np is a few counts or less.
    """
    if p <= 0.0 or p >= 1.0:
        return 0.0 if k == round(n * p) else math.inf
    mean = n * p
    step = 1 if k >= mean else -1
    log_term = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    term = math.exp(log_term) if log_term > -745.0 else 0.0
    odds = p / (1.0 - p)
    tail = 0.0
    i = k
    # Sum outward from k; the terms shrink geometrically away from the mean.
    while term > 0.0 and 0 <= i <= n:
        tail += term
        if term < 1e-17 * tail:
            break
        if step > 0:
            term *= (n - i) / (i + 1) * odds
        else:
            term *= i / (n - i + 1) / odds
        i += step
    tail = min(1.0, 2.0 * tail)
    return math.inf if tail == 0.0 else max(0.0, -NormalDist().inv_cdf(tail / 2))


def lp_value(out: Outcome, inputs: Inputs) -> float:
    """LP relaxation objective of the op's model (the cost_ratio base)."""
    key = (out.op.index, out.op.mode)
    if key in inputs.lp_value:
        return inputs.lp_value[key]
    return out.pathset.meta["lp_bound"]
