"""overcast benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload plain --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The run builds the workload's instances from
the seed (repeating the set-up to time it), makes one untimed warm-up pass,
then times passes over the workload's ops (at least two, or one of each kind
in the traced run, and more until `--seconds` have elapsed) and checks every
output. The last line of stdout is
one JSON object: `{"correct", "attempted", "failed", "metrics"}`, with the
end-to-end metrics of BENCHMARK.json when `--trace 0` and its per-layer
metrics when `--trace 1`.
The line before it records the environment, the seeds used and the samples.

The traced run alternates untraced and traced passes, so it also reports the
tracing overhead and checks that tracing changes no output; it alone imports
scipy, for the HiGHS reference, so the untraced run's peak RSS never
includes it. Spans are written to .perfbench-out/ at the end.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # one thread: steadier timings on a shared two-core box
# Set-up repeats at least SETUP_REPS times and until SETUP_SECONDS have passed,
# so a set-up of a fraction of a second still gets a median of many samples.
SETUP_REPS = 3
SETUP_SECONDS = 2.0
MIN_PASSES = 2  # timed passes, so that each op has a fastest time of two or more
MIN_TRACED_PASSES = 1  # the traced run times this many of each kind at least
LP_REL_TOL = 1e-7  # our LP bound vs HiGHS, relative
DIFFER = "outputs differ between passes"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return ap.parse_args(argv)


def tail(samples):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": math.floor(100 * (n - 10) / n), "value": sorted(samples)[n - 11]}


def fastest_pass(passes):
    """Sum over the ops of each op's fastest time across the passes.

    Other tenants of a shared host slow the process down in spells of
    seconds to minutes, which move a pass's total and even its median over a
    run. The fastest time of each op is the one they disturbed least.
    """
    per_op = zip(*([o.seconds for o in outcomes] for _, outcomes in passes))
    return sum(min(times) for times in per_op)


def run_pass(wl, work, inputs, seed, tracer=None):
    outcomes = []
    gc.collect()  # start every pass from the same heap state
    t0 = time.perf_counter()
    for n, op in enumerate(work.ops):
        if tracer is not None:
            tracer.op = n
        outcomes.append(wl.run_op(op, inputs, seed, work.packets))
    return time.perf_counter() - t0, outcomes


def highs_objective(model, reps=1):
    """HiGHS optimum of the model's LP relaxation and its median solve time."""
    import numpy as np
    from scipy.optimize import linprog

    c, a, senses, b = model.arrays()
    senses = np.asarray(senses)
    ge = senses == ">="
    le = senses == "<="
    eq = senses == "=="
    a_ub = np.vstack([a[le], -a[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    kwargs = {"A_ub": a_ub, "b_ub": b_ub} if len(b_ub) else {}
    if eq.any():
        kwargs.update(A_eq=a[eq], b_eq=b[eq])
    bounds = list(zip(model.lb, [None if math.isinf(u) else u for u in model.ub]))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        res = linprog(c, bounds=bounds, method="highs", **kwargs)
        times.append(time.perf_counter() - t0)
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun), statistics.median(times)


def end_to_end(wl, inputs, passes, setup_s, ok_share):
    outcomes = passes[0][1]
    # Log cost ratios per op kind; each kind weighs the same, so that the
    # hundred small exact solves of `plain` do not drown its four approx ops.
    logs = {}
    for o in outcomes:
        if o.ok:
            ratio = o.pathset.cost / wl.lp_value(o, inputs)
            logs.setdefault(o.op.kind, []).append(math.log(ratio))
    exact = [o for o in outcomes if o.op.kind == "exact"]
    return {
        "pass_s": fastest_pass(passes),
        "cost_ratio": (
            math.exp(statistics.fmean(statistics.fmean(v) for v in logs.values()))
            if logs
            else None
        ),
        # Vacuously 1 on workloads without an exact op.
        "optimal_share": (
            sum(o.ok and o.pathset.meta["status"] == "optimal" for o in exact) / len(exact)
            if exact
            else 1.0
        ),
        "ok_share": ok_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer, pass_s, outcomes):
    spans = tracer.spans

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name, key=None):
        return sum(s.counts.get(key, 0) if key else 1 for s in spans if s.name == name)

    simplex_s = total("simplex.solve")
    pivots = count("simplex.solve", "pivots")
    nodes = count("lp.solve_ip", "nodes")
    node_lps = sum(
        1
        for i, s in enumerate(spans)
        if s.name == "simplex.solve" and tracer.has_ancestor(i, "lp.solve_ip")
    )
    draws = count("rounding.round_with_retries", "draws") + count("rounding.randomized_round")
    accepted = sum(
        1 for s in spans if s.name == "rounding.round_with_retries" and s.error is None
    )
    sim_s = total("verify.simulate_losses")
    packets = count("verify.simulate_losses", "packets")
    return {
        "lp.build_model_s": total("lp.build_model"),
        "lp.nvars": count("lp.build_model", "nvars"),
        "lp.nrows": count("lp.build_model", "nrows"),
        "lp.solve_lp_s": total("lp.solve_lp"),
        "lp.solve_ip_s": total("lp.solve_ip"),
        "lp.bnb_nodes": nodes,
        "lp.node_lps_per_node": node_lps / nodes if nodes else 0.0,
        "simplex.calls": count("simplex.solve"),
        "simplex.pivots": pivots,
        "simplex.solve_s": simplex_s,
        "simplex.ms_per_pivot": 1000.0 * simplex_s / pivots if pivots else 0.0,
        "simplex.share": simplex_s / pass_s,
        "rounding.round_with_retries_s": total("rounding.round_with_retries"),
        "rounding.draws": draws,
        "rounding.accept_ratio": accepted / draws if draws else 0.0,
        "gapflow.run_gap_stage_s": total("gapflow.run_gap_stage"),
        "gapflow.boxes": count("gapflow.run_gap_stage", "boxes"),
        "color.run_color_stage_s": total("color.run_color_stage"),
        "color.paths_selected": count("color.run_color_stage", "paths_selected"),
        "color.paths_dropped": count("color.run_color_stage", "paths_dropped"),
        "color.karp_max_increase": max(
            (s.counts.get("karp_max_increase", 0.0) for s in spans), default=0.0
        ),
        "pipeline.run_approx_self_s": sum(
            tracer.self_time(i) for i, s in enumerate(spans) if s.name == "pipeline.run_approx"
        ),
        "pipeline.trials": count("rounding.round_with_retries"),
        "verify.audit_s": total("verify.audit"),
        "verify.simulate_losses_s": sim_s,
        "verify.packets_per_s": packets / sim_s if sim_s else 0.0,
        "verify.max_sigma": max((o.max_sigma for o in outcomes), default=0.0),
    }


def highs_reference(wl, inputs, tracer, outcomes):
    """HiGHS time for the pass's relaxations, and the 1e-7 bound check.

    Every op's cost_ratio base is checked; a mismatch fails that op.
    """
    highs_s = 0.0
    for s in tracer.spans:
        if s.name == "lp.solve_lp" and s.model is not None:
            highs_s += highs_objective(s.model, reps=3)[1]
    for o in outcomes:
        if not o.ok:
            continue
        inst = inputs.instances[(o.op.index, o.op.mode)]
        ours = wl.lp_value(o, inputs)
        ref, _ = highs_objective(wl.lp.build_model(inst))
        if abs(ours - ref) > LP_REL_TOL * max(1.0, abs(ref)):
            o.failures.append(f"LP bound {ours!r} vs HiGHS {ref!r}")
    return highs_s


def version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment():
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "overcast" / "__init__.py").is_file():
        print(f"perfbench: no overcast sources under {src}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    # Fixed before numpy loads, so BLAS never sizes its pool from nproc.
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import tracing
    import workloads as wl

    table = wl.TINY if args.tiny else wl.WORKLOADS
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = table[args.workload]
    problems = []

    setup_times = []
    inputs = None
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        built = wl.build_inputs(work, args.seed)
        setup_times.append(time.perf_counter() - t0)
        if inputs is None:
            inputs, gen_times = built, [built.gen_s]
        else:
            gen_times.append(built.gen_s)
            if built.fingerprint() != inputs.fingerprint():
                problems.append("set-up is not deterministic")

    t0 = time.perf_counter()
    _, reference = run_pass(wl, work, inputs, args.seed)
    warmup_s = time.perf_counter() - t0
    expected = [o.output() for o in reference]

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    while len(plain) < min_passes or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(wl, work, inputs, args.seed))
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced.append(run_pass(wl, work, inputs, args.seed, tracer))
            tracers.append(tracer)

    for elapsed, outcomes in plain + traced:
        for o in outcomes:
            wl.check(o, work.packets)
        if [o.output() for o in outcomes] != expected and DIFFER not in problems:
            problems.append(DIFFER)

    if args.trace:  # its bound check can fail ops, so before the counts
        highs_s = highs_reference(wl, inputs, tracers[0], traced[0][1])
    passes = plain + traced
    attempted = sum(len(p[1]) for p in passes)
    failed = sum(1 for p in passes for o in p[1] if not o.ok)

    if args.trace:
        layers = [per_layer(t, p[0], p[1]) for t, p in zip(tracers, traced)]
        values = {key: statistics.median([d[key] for d in layers]) for key in layers[0]}
        values.update(
            {
                "gen.gen_random_s": statistics.median(gen_times),
                "gen.redraw_seeds": inputs.redraws,
                "ref.highs_lp_s": highs_s,
                "ref.lp_vs_highs": values["lp.solve_lp_s"] / highs_s if highs_s else 0.0,
                "trace.overhead_s": fastest_pass(traced) - fastest_pass(plain),
            }
        )
        wanted = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        tracing.write_passes(tracers, OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
    else:
        # Set-up is everything before the first timed pass. The warm-up pass
        # runs once; generation and set-up solves count at their median.
        setup_s = statistics.median(setup_times) + warmup_s
        values = end_to_end(wl, inputs, plain, setup_s, 1.0 - failed / attempted)
        wanted = spec["end_to_end"]
        if "scipy" in sys.modules:
            problems.append("scipy was imported by the untraced run")

    names = {m["name"] for m in wanted}
    if set(values) != names:
        problems.append(f"metric set differs from BENCHMARK.json: {sorted(set(values) ^ names)}")
    digest = hashlib.sha256("\n".join(expected).encode()).hexdigest()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "instance_seeds": inputs.seeds,
        "redraw_seeds": inputs.redraws,
        "setup_s_samples": setup_times,
        "warmup_s": warmup_s,
        "pass_s_samples": [p[0] for p in plain],
        "pass_s_median": statistics.median([p[0] for p in plain]),
        "pass_s_tail": tail([p[0] for p in plain]),
        "op_s_first_pass": [o.seconds for o in plain[0][1]],
        "traced_pass_s_samples": [p[0] for p in traced],
        "failed_share": failed / attempted,
        "failures": sorted({f for p in passes for o in p[1] for f in o.failures})[:10],
        "problems": problems,
        "output_sha256": digest,
    }
    print(json.dumps({"perfbench": detail}))
    correct = failed == 0 and not problems
    metrics = {
        m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted
    }
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
