"""Command-line front end.

Subcommands: `gen` (write a synthetic instance), `solve` (the rounding
pipeline plus audit), `compare` (rounding vs LP-fixing vs exact on one
instance), `sweep` (multiplier-by-seed grid), and `verify` (re-audit a
solution file). Exit codes: 0 success, 2 audit, quality or input failure,
3 infeasible instance. All output files are deterministic for fixed flags;
wall-clock milliseconds appear only on stdout and in CSV `wall_ms` columns.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .gen import GenerationError, gen_random
from .lp import InfeasibleError, NoIncumbentError, TimeBudget
from .model import Instance, instance_from_doc, normalize_doc
from .pipeline import (
    ApproxPipelineError,
    audit_profile,
    run_approx,
    run_exact,
    run_hack,
)
from .rounding import RoundingRetriesExhausted
from .solution import PathSet, save_pathset
from .verify import audit

CSV_COLUMNS = ["alg", "M", "seed", "cost", "lp_bound", "ratio", "attempts", "wall_ms", "status"]
SWEEP_COLUMNS = CSV_COLUMNS + ["violations_first_draw", "identical_across_seeds"]


def _load_instance(args) -> Instance:
    with open(args.instance, "r", encoding="utf-8") as fh:
        doc = normalize_doc(json.load(fh))
    if getattr(args, "mode", None):
        doc["mode"] = args.mode
    if getattr(args, "colors", False):
        doc["colors_enabled"] = True
    if getattr(args, "bandwidth", False):
        doc["bandwidth_enabled"] = True
    return instance_from_doc(doc)


def _positive_seconds(text: str) -> float:
    if not float(text) > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return float(text)


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out_dir", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _ratio(cost: float, bound: float) -> float:
    if bound and bound > 0 and cost < float("inf"):
        return cost / bound
    return float("inf")


def cmd_gen(args) -> int:
    sizes = tuple(int(part) for part in args.size.lower().split("x"))
    if len(sizes) != 3:
        raise ValueError("--size must look like 4x7x14")
    inst = gen_random(
        sizes,
        regime=args.regime,
        seed=args.seed,
        density=args.density,
        colors=args.colors_count,
    )
    out = Path(args.out) if args.out else Path(f"instance-{args.size}-{args.regime}-{args.seed}.json")
    _write_json(out, inst.to_doc())
    print(f"wrote {out} ({len(inst.sources)}x{len(inst.reflectors)}x{len(inst.sinks)})")
    return 0


def cmd_solve(args) -> int:
    inst = _load_instance(args)
    out = _out_dir(args)
    started = time.perf_counter()
    ps = run_approx(
        inst,
        multiplier=args.multiplier,
        seed=args.seed,
        max_retries=args.max_retries,
    )
    wall_ms = int((time.perf_counter() - started) * 1000)
    profile = audit_profile(inst)
    report = audit(ps, profile)
    save_pathset(ps, out / "solution.json")
    _write_json(out / "audit.json", asdict(report))
    print(
        f"cost={report.cost:.6f} lp_bound={ps.meta['lp_bound']:.6f}"
        f" weight_ratio={report.weight_ratio:.3f} fanout_ratio={report.fanout_ratio:.3f}"
        f" attempts={ps.meta['attempts']} wall_ms={wall_ms}"
        f" audit={'pass' if report.ok else 'FAIL'}"
    )
    for line in report.failures:
        print(f"audit: {line}", file=sys.stderr)
    return 0 if report.ok else 2


def cmd_verify(args) -> int:
    inst = _load_instance(args)
    with open(args.solution, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    report = audit(PathSet.from_doc(inst, doc), args.profile, claimed_cost=doc.get("cost"))
    print(json.dumps(asdict(report), sort_keys=True, indent=2))
    return 0 if report.ok else 2


def cmd_compare(args) -> int:
    inst = _load_instance(args)
    out = _out_dir(args)
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    unknown = set(algs) - {"approx", "hack", "ip"}
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    budget = TimeBudget(seconds=args.time_budget_secs) if args.time_budget_secs else None
    profile = audit_profile(inst)

    rows = []
    costs: dict[str, float] = {}
    audits_ok = True
    for alg in algs:
        started = time.perf_counter()
        attempts = 0
        report = None
        if alg == "approx":
            ps = run_approx(
                inst,
                multiplier=args.multiplier,
                seed=args.seed,
                max_retries=args.max_retries,
            )
            status = "ok"
            attempts = ps.meta["attempts"]
            bound = ps.meta["lp_bound"]
            report = audit(ps, profile)
        else:
            try:
                ps = (run_exact if alg == "ip" else run_hack)(inst, budget=budget)
            except NoIncumbentError as exc:
                status, bound = "timeout", exc.bound
            else:
                status, bound = ps.meta["status"], ps.meta["lp_bound"]
                report = audit(ps, "exact")
        wall_ms = int((time.perf_counter() - started) * 1000)
        cost = report.cost if report is not None else float("inf")
        if report is not None and not report.ok:
            audits_ok = False
            status = "audit_fail"
        costs[alg] = cost
        rows.append(
            {
                "alg": alg,
                "M": args.multiplier if alg == "approx" and args.multiplier else "",
                "seed": args.seed if alg == "approx" else "",
                "cost": f"{cost:.6f}",
                "lp_bound": f"{bound:.6f}",
                "ratio": f"{_ratio(cost, bound):.6f}",
                "attempts": attempts,
                "wall_ms": wall_ms,
                "status": status,
            }
        )

    path = out / "compare.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(",".join(str(row[c]) for c in CSV_COLUMNS))

    complete = [a for a in algs if costs[a] < float("inf")]
    order = [a for a in ("ip", "hack", "approx") if a in complete]
    for first, second in zip(order, order[1:]):
        if costs[first] > costs[second] + 1e-6:
            print(
                f"warning: cost({first})={costs[first]:.6f} exceeds"
                f" cost({second})={costs[second]:.6f}",
                file=sys.stderr,
            )
    return 0 if audits_ok else 2


def cmd_sweep(args) -> int:
    inst = _load_instance(args)
    out = _out_dir(args)
    multipliers = [float(v) for v in args.multipliers.split(",") if v]
    seeds = [int(v) for v in args.seeds.split(",") if v]
    profile = audit_profile(inst)

    rows = []
    any_ok = False
    for m in multipliers:
        cell_rows = []
        shapes = set()
        for seed in seeds:
            started = time.perf_counter()
            try:
                ps = run_approx(
                    inst, multiplier=m, seed=seed, max_retries=args.max_retries
                )
                report = audit(ps, profile)
                status = "ok" if report.ok else "audit_fail"
                cost = report.cost
                bound = ps.meta["lp_bound"]
                attempts = ps.meta["attempts"]
                violations = ps.meta["violations_first_draw"]
                shapes.add(json.dumps(sorted(ps.x_tilde.items()), sort_keys=True, default=str))
                any_ok = any_ok or report.ok
            except (RoundingRetriesExhausted, ApproxPipelineError):
                status, cost, bound = "retries_exhausted", float("inf"), float("nan")
                attempts, violations = args.max_retries, ""
                shapes.add(f"failed-{seed}")
            wall_ms = int((time.perf_counter() - started) * 1000)
            cell_rows.append(
                {
                    "alg": "approx",
                    "M": f"{m:g}",
                    "seed": seed,
                    "cost": f"{cost:.6f}",
                    "lp_bound": f"{bound:.6f}",
                    "ratio": f"{_ratio(cost, bound):.6f}",
                    "attempts": attempts,
                    "wall_ms": wall_ms,
                    "status": status,
                }
            )
            cell_rows[-1]["violations_first_draw"] = violations
        identical = 1 if len(shapes) == 1 else 0
        for row in cell_rows:
            row["identical_across_seeds"] = identical
        rows.extend(cell_rows)

    path = out / "sweep.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0 if any_ok else 2


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--mode", choices=["full", "transmission"], default=None)
    sp.add_argument("--multiplier", type=float, default=None,
                    help="rounding multiplier M (default 64*log2(sinks))")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-retries", type=int, default=20)
    sp.add_argument("--colors", action="store_true",
                    help="force the colored pipeline on")
    sp.add_argument("--bandwidth", action="store_true",
                    help="interpret reflector caps as bandwidth")
    sp.add_argument("--out-dir", default=".")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="overcast",
        description="Cost-minimal relay overlays for live streams under loss ceilings.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a synthetic instance")
    g.add_argument("--size", required=True, help="sources x reflectors x sinks, e.g. 4x7x14")
    g.add_argument("--regime", choices=["low", "avg", "high"], default="avg")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--density", type=float, default=1.0)
    g.add_argument("--colors-count", type=int, default=None,
                   help="assign this many colors round robin")
    g.add_argument("-o", "--out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run the rounding pipeline and audit it")
    s.add_argument("instance")
    _add_run_flags(s)
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="run several algorithms on one instance")
    c.add_argument("instance")
    c.add_argument("--algs", default="approx,hack,ip")
    c.add_argument("--time-budget-secs", type=_positive_seconds, default=None,
                   help="wall-clock budget of the hack and ip solves")
    _add_run_flags(c)
    c.set_defaults(func=cmd_compare)

    w = sub.add_parser("sweep", help="grid of multipliers and seeds")
    w.add_argument("instance")
    w.add_argument("--multipliers", required=True, help="comma separated, e.g. 1,2,4,8")
    w.add_argument("--seeds", default="0", help="comma separated seed list")
    _add_run_flags(w)
    w.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="re-audit a solution file")
    v.add_argument("instance")
    v.add_argument("solution")
    v.add_argument("--profile", choices=["exact", "approx", "color"], default="exact")
    v.add_argument("--mode", choices=["full", "transmission"], default=None)
    v.add_argument("--colors", action="store_true")
    v.add_argument("--bandwidth", action="store_true")
    v.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            print(json.dumps(exc.certificate, sort_keys=True), file=sys.stderr)
        return 3
    except (RoundingRetriesExhausted, ApproxPipelineError, GenerationError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
