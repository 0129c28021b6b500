"""Command-line front end.

Subcommands: `gen` (write a synthetic instance), `solve` (the rounding
pipeline plus audit), `compare` (rounding vs LP-fixing vs exact on one
instance), `sweep` (multiplier-by-seed grid), and `verify` (re-audit a
solution file). `sweep` and `compare` solve the LP relaxation once and
share it across their rows, so a row's `wall_ms` leaves that solve out; the
pipeline audits its approx results once, and only `hack` and `ip` rows are
audited here. Exit codes: 0 success, 2 audit, quality, solver or input
failure, 3 infeasible instance. All output files are deterministic for fixed
flags; wall-clock milliseconds appear only on stdout and in CSV `wall_ms`
columns.
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
from .lp import InfeasibleError, NoIncumbentError, TimeBudget, build_model, solve_lp
from .model import Instance
from .pipeline import ApproxPipelineError, hack_relaxation, round_relaxation, run_exact
from .rounding import RoundingRetriesExhausted, check_multiplier
from .simplex import SimplexError
from .solution import PathSet, save_pathset
from .verify import audit

CSV_COLUMNS = ["alg", "M", "seed", "cost", "lp_bound", "ratio", "attempts", "wall_ms", "status"]
SWEEP_COLUMNS = CSV_COLUMNS + ["violations_first_draw", "identical_across_seeds"]


def _load_instance(args) -> Instance:
    """The instance file, read once, with the run flags written into it."""
    with open(args.instance, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    flags = {"mode": args.mode, "colors_enabled": args.colors, "bandwidth_enabled": args.bandwidth}
    if isinstance(doc, dict):  # else the reader names what it got
        doc.update((key, value) for key, value in flags.items() if value)
    return Instance(doc)


def _positive_seconds(text: str) -> float:
    if not float(text) > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return float(text)


def _multiplier(text: str) -> float:
    """A multiplier as the rounding stage takes it, checked before any solve."""
    try:
        return check_multiplier(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _multipliers(text: str) -> list[float]:
    return [_multiplier(v) for v in text.split(",") if v]


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out_dir", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json(doc: dict) -> str:
    """`doc` as strict JSON (RFC 8259) and a newline, a NaN or infinity
    written as null."""
    plain = json.loads(json.dumps(doc), parse_constant=lambda _name: None)
    return json.dumps(plain, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _ratio(cost: float, bound: float) -> float:
    if bound and bound > 0 and cost < float("inf"):
        return cost / bound
    return float("inf")


def _csv_row(alg, multiplier, seed, cost, bound, attempts, wall_ms, status) -> dict:
    """The fields `compare.csv` and `sweep.csv` share, formatted."""
    return {
        "alg": alg,
        "M": multiplier,
        "seed": seed,
        "cost": f"{cost:.6f}",
        "lp_bound": f"{bound:.6f}",
        "ratio": f"{_ratio(cost, bound):.6f}",
        "attempts": attempts,
        "wall_ms": wall_ms,
        "status": status,
    }


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


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
    out.write_text(_json(inst.to_doc()), encoding="utf-8")
    print(f"wrote {out} ({len(inst.sources)}x{len(inst.reflectors)}x{len(inst.sinks)})")
    return 0


def cmd_solve(args) -> int:
    inst = _load_instance(args)
    out = _out_dir(args)
    started = time.perf_counter()
    ps, report = round_relaxation(
        solve_lp(build_model(inst)),
        multiplier=args.multiplier,
        seed=args.seed,
        max_retries=args.max_retries,
    )
    wall_ms = int((time.perf_counter() - started) * 1000)
    save_pathset(ps, out / "solution.json")
    (out / "audit.json").write_text(_json(asdict(report)), encoding="utf-8")
    print(
        f"cost={report.cost:.6f} lp_bound={ps.meta['lp_bound']:.6f}"
        f" weight_ratio={report.weight_ratio:.3f} fanout_ratio={report.fanout_ratio:.3f}"
        f" attempts={ps.meta['attempts']} wall_ms={wall_ms} audit=pass"
    )
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(args)
    with open(args.solution, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    report = audit(PathSet.from_doc(inst, doc), args.profile, claimed_cost=doc.get("cost"))
    sys.stdout.write(_json(asdict(report)))
    return 0 if report.ok else 2


def cmd_compare(args) -> int:
    inst = _load_instance(args)
    out = _out_dir(args)
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    unknown = set(algs) - {"approx", "hack", "ip"}
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    budget = TimeBudget(seconds=args.time_budget_secs)
    # approx and hack round one relaxation, which neither changes
    frac = solve_lp(build_model(inst)) if {"approx", "hack"} & set(algs) else None

    rows = []
    costs: dict[str, float] = {}
    audits_ok = True
    for alg in algs:
        started = time.perf_counter()
        attempts = 0
        report = None
        if alg == "approx":  # audited inside the pipeline
            ps, report = round_relaxation(
                frac, multiplier=args.multiplier, seed=args.seed, max_retries=args.max_retries
            )
            status, attempts, bound = "ok", ps.meta["attempts"], ps.meta["lp_bound"]
        else:
            try:
                ps = run_exact(inst, budget=budget) if alg == "ip" else hack_relaxation(frac, budget)
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
            _csv_row(
                alg,
                args.multiplier if alg == "approx" and args.multiplier else "",
                args.seed if alg == "approx" else "",
                cost, bound, attempts, wall_ms, status,
            )
        )

    _write_csv(out / "compare.csv", CSV_COLUMNS, rows)
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
    seeds = [int(v) for v in args.seeds.split(",") if v]
    frac = solve_lp(build_model(inst))  # every cell rounds this one relaxation

    rows = []
    for m in args.multipliers:
        cell_rows = []
        shapes = set()
        for seed in seeds:
            started = time.perf_counter()
            try:
                ps, report = round_relaxation(
                    frac, multiplier=m, seed=seed, max_retries=args.max_retries
                )
            except (RoundingRetriesExhausted, ApproxPipelineError):
                status, cost = "retries_exhausted", float("inf")
                attempts, violations = args.max_retries, ""
                shapes.add(f"failed-{seed}")
            else:
                status, cost = "ok", report.cost
                attempts, violations = ps.meta["attempts"], ps.meta["violations_first_draw"]
                shapes.add(json.dumps(sorted(ps.x_tilde.items()), sort_keys=True, default=str))
            wall_ms = int((time.perf_counter() - started) * 1000)
            row = _csv_row("approx", f"{m:g}", seed, cost, frac.objective, attempts, wall_ms, status)
            row["violations_first_draw"] = violations
            cell_rows.append(row)
        identical = 1 if len(shapes) == 1 else 0
        for row in cell_rows:
            row["identical_across_seeds"] = identical
        rows.extend(cell_rows)

    path = out / "sweep.csv"
    _write_csv(path, SWEEP_COLUMNS, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0 if any(row["status"] == "ok" for row in rows) else 2


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--mode", choices=["full", "transmission"], default=None)
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
    c.add_argument("--time-budget-secs", type=_positive_seconds, default=60.0,
                   help="wall-clock budget of the hack and ip solves (default %(default)g)")
    _add_run_flags(c)
    c.set_defaults(func=cmd_compare)
    for sp in (s, c):  # one draw each; sweep takes lists of both
        sp.add_argument("--multiplier", type=_multiplier, default=None,
                        help="rounding multiplier M (default 64*log2(sinks))")
        sp.add_argument("--seed", type=int, default=0)

    # No abbreviations: --multiplier and --seed would pass for the lists.
    w = sub.add_parser("sweep", help="grid of multipliers and seeds", allow_abbrev=False)
    w.add_argument("instance")
    w.add_argument("--multipliers", type=_multipliers, required=True,
                   help="comma separated, e.g. 1,2,4,8")
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
    except (RoundingRetriesExhausted, ApproxPipelineError, GenerationError, SimplexError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
