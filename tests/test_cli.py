import csv
import hashlib
import json

import pytest

import overcast.cli as cli
import overcast.pipeline as pipeline
from overcast.cli import CSV_COLUMNS, SWEEP_COLUMNS, build_parser, main
from overcast.lp import NoIncumbentError, TimeBudget, build_model, solve_lp
from overcast.model import Instance, load_instance
from overcast.solution import PathSet


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    rc = main(["gen", "--size", "2x3x5", "--regime", "low", "--seed", "7", "-o", str(path)])
    assert rc == 0
    return path


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = main(["gen", "--size", "3x4x6", "--seed", "1", "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["sources"]) == 3
    assert len(doc["reflectors"]) == 4
    assert len(doc["sinks"]) == 6
    assert "wrote" in capsys.readouterr().out


def test_gen_bad_size_exits_2(capsys):
    assert main(["gen", "--size", "3x4"]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_writes_solution_and_audit(instance_file, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", str(instance_file), "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    sol = json.loads((out / "solution.json").read_text())
    assert sol["kind"] == "overlay-routes-v1"
    assert sol["routes"]
    report = json.loads((out / "audit.json").read_text())
    assert report["profile"] == "approx"
    assert report["ok"] is True
    line = capsys.readouterr().out
    assert "cost=" in line and "lp_bound=" in line and "audit=pass" in line


def test_solve_deterministic_files(instance_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["solve", str(instance_file), "--seed", "5", "--out-dir", str(out)]) == 0
    assert (out_a / "solution.json").read_bytes() == (out_b / "solution.json").read_bytes()
    assert (out_a / "audit.json").read_bytes() == (out_b / "audit.json").read_bytes()


@pytest.mark.parametrize(
    "command,flag",
    [pytest.param("solve", "--time-budget-secs", id="solve"),
     pytest.param("sweep", "--time-budget-secs", id="sweep"),
     pytest.param("sweep", "--multiplier", id="sweep-multiplier"),
     pytest.param("sweep", "--seed", id="sweep-seed")],
)
def test_time_budget_is_a_compare_flag(instance_file, tmp_path, capsys, command, flag):
    # Only compare runs the budgeted hack and ip solves, and sweep takes
    # its multipliers and seeds as lists, never the single-draw flags.
    extra = ["--multipliers", "1"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        main([command, str(instance_file), *extra, flag, "5", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    args = build_parser().parse_args(["compare", str(instance_file), "--time-budget-secs", "5"])
    assert args.time_budget_secs == 5.0


@pytest.mark.parametrize("secs", ["0", "-1"])
def test_time_budget_must_be_positive(instance_file, capsys, secs):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["compare", str(instance_file), "--time-budget-secs", secs])
    assert exc.value.code == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["instance", "solution"])
def test_missing_file_exits_2(instance_file, tmp_path, capsys, missing):
    absent = str(tmp_path / "absent.json")
    if missing == "instance":
        argv = ["solve", absent, "--out-dir", str(tmp_path)]
    else:
        argv = ["verify", str(instance_file), absent]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["solve", "compare", "sweep"])
def test_a_non_finite_multiplier_exits_2(instance_file, tmp_path, capsys, command, value):
    out = tmp_path / "x"
    flag = ["--multipliers", value] if command == "sweep" else ["--multiplier", value]
    extra = ["--algs", "approx"] if command == "compare" else []
    assert main([command, str(instance_file), *flag, *extra, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: multiplier must be finite")
    assert not out.exists() or not any(out.iterdir())


def test_solve_infeasible_exits_3(instance_file, tmp_path, capsys):
    doc = json.loads(instance_file.read_text())
    doc["sinks"][0]["loss_threshold"] = 1e-300
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["solve", str(bad), "--out-dir", str(tmp_path / "x")])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def _mixed_colors(doc):
    doc["colors_enabled"] = True
    for n, rec in enumerate(doc["reflectors"]):
        rec["color"] = n if n % 2 else f"g{n}"


# Each edit once crashed with a traceback or was silently read as another value.
MISTYPED = {
    "bitrate": lambda doc: doc["sources"][0].update(bitrate="5"),
    "bandwidth": lambda doc: doc["reflectors"][0].update(bandwidth="40"),
    "mixed-colors": _mixed_colors,
    "colors-flag": lambda doc: doc.update(colors_enabled="no"),
    "bool-fanout": lambda doc: doc["reflectors"][0].update(fanout=True),
    "string-cost": lambda doc: doc["reflectors"][0].update(cost="7"),
    "string-threshold": lambda doc: doc["sinks"][0].update(loss_threshold="0.01"),
    "list-id": lambda doc: doc["sources"][0].update(id=["s0"]),
    "object-stream": lambda doc: doc["sinks"][0].update(stream={"id": "s0"}),
    "sinks-not-a-list": lambda doc: doc.update(sinks=5),
    "sink-not-an-object": lambda doc: doc["sinks"].__setitem__(0, 7),
}


@pytest.mark.parametrize("edit", MISTYPED)
def test_solve_rejects_a_mistyped_instance_field(instance_file, tmp_path, capsys, edit):
    doc = json.loads(instance_file.read_text())
    MISTYPED[edit](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad), "--out-dir", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x" / "solution.json").exists()


def test_verify_roundtrip_and_tamper(instance_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", str(instance_file), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    sol_path = out / "solution.json"
    rc = main(["verify", str(instance_file), str(sol_path), "--profile", "approx"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True

    tampered = json.loads(sol_path.read_text())
    tampered["routes"] = tampered["routes"][:1]
    sol_path.write_text(json.dumps(tampered))
    rc = main(["verify", str(instance_file), str(sol_path), "--profile", "approx"])
    assert rc == 2


def test_verify_checks_the_stored_cost(instance_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", str(instance_file), "--out-dir", str(out)]) == 0
    sol_path = out / "solution.json"
    edited = json.loads(sol_path.read_text())
    edited["cost"] += 100.0
    edited_path = tmp_path / "edited.json"
    edited_path.write_text(json.dumps(edited))
    capsys.readouterr()

    assert main(["verify", str(instance_file), str(sol_path), "--profile", "approx"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(["verify", str(instance_file), str(edited_path), "--profile", "approx"]) == 2
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert [f for f in failures if f.startswith("claimed cost")] == failures


# Each edit names the field the error line must name (less any "-list").
MALFORMED_SOLUTION = {
    "provenance": lambda sol: sol.pop("provenance"),
    "reflector": lambda sol: sol["routes"][0].pop("reflector"),
    "cost": lambda sol: sol.update(cost=str(sol["cost"])),
    "sink-list": lambda sol: sol["routes"][0].update(sink=[sol["routes"][0]["sink"]]),
    # Each of these once crashed the color audit or was read without a check.
    "meta": lambda sol: sol.update(meta=5),
    "draw_cost": lambda sol: sol["meta"].update(draw_cost="12"),
    "path_cost_total": lambda sol: sol["meta"].update(path_cost_total=[1.0]),
    "provenance-list": lambda sol: sol.update(provenance=[sol["provenance"]]),
    "mode": lambda sol: sol.update(mode=None),
}


@pytest.mark.parametrize("drop", MALFORMED_SOLUTION)
def test_verify_rejects_a_malformed_solution_file(instance_file, tmp_path, capsys, drop):
    out = tmp_path / "run"
    assert main(["solve", str(instance_file), "--out-dir", str(out)]) == 0
    sol = json.loads((out / "solution.json").read_text())
    MALFORMED_SOLUTION[drop](sol)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(sol))
    capsys.readouterr()

    assert main(["verify", str(instance_file), str(sol_path), "--profile", "color"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and drop.removesuffix("-list") in err


@pytest.mark.parametrize(
    "flag", [[], ["--colors"], ["--mode", "full"], ["--bandwidth"]],
    ids=["no-flag", "colors", "mode", "bandwidth"],
)
def test_solve_rejects_a_non_object_instance_file(tmp_path, capsys, flag):
    # A run flag is written into the document; once that crashed on a list.
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["solve", str(path), *flag, "--out-dir", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: instance: expected an object, got list\n"


@pytest.mark.parametrize("edit", ["reflector", "sink", "edge"])
def test_verify_reports_a_route_that_is_no_path(instance_file, tmp_path, capsys, edit):
    out = tmp_path / "run"
    assert main(["solve", str(instance_file), "--out-dir", str(out)]) == 0
    inst_doc = json.loads(instance_file.read_text())
    sol = json.loads((out / "solution.json").read_text())
    route = sol["routes"][0]
    if edit == "reflector":
        route["reflector"] = "zz"
    elif edit == "sink":
        route["sink"] = "nope"
    else:
        inst_doc["refl_edges"] = [
            e for e in inst_doc["refl_edges"]
            if (e["from"], e["to"]) != (route["reflector"], route["sink"])
        ]
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    inst_path.write_text(json.dumps(inst_doc))
    sol_path.write_text(json.dumps(sol))
    capsys.readouterr()

    assert main(["verify", str(inst_path), str(sol_path), "--profile", "approx"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    key = f"({route['stream']},{route['reflector']},{route['sink']})"
    assert report["failures"] and all(key in f for f in report["failures"])


@pytest.mark.parametrize("units", ["count", "bandwidth"])
def test_solve_prints_the_audit_ratios(instance_file, tmp_path, capsys, units):
    path = instance_file
    if units == "bandwidth":
        path = tmp_path / "bw.json"
        path.write_text(json.dumps(BANDWIDTH_DOC))
    out = tmp_path / "run"
    assert main(["solve", str(path), "--seed", "3", "--out-dir", str(out)]) == 0
    printed = dict(field.split("=") for field in capsys.readouterr().out.split())
    report = json.loads((out / "audit.json").read_text())
    for key in ("weight_ratio", "fanout_ratio"):
        assert printed[key] == f"{report[key]:.3f}"


def test_compare_orders_costs(instance_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", str(instance_file), "--seed", "2", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alg"] for r in rows] == ["approx", "hack", "ip"]
    assert set(rows[0]) == set(CSV_COLUMNS)
    by_alg = {r["alg"]: float(r["cost"]) for r in rows}
    assert by_alg["ip"] <= by_alg["hack"] + 1e-6
    for row in rows:
        assert float(row["ratio"]) >= 1.0 - 1e-9
        assert row["status"] in ("ok", "optimal")
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    if by_alg["hack"] > by_alg["approx"] + 1e-6:
        # the relaxed-guarantee output undercut the exact optimum: warn only
        assert "warning" in captured.err


def test_compare_reports_a_search_without_incumbent(instance_file, tmp_path, monkeypatch):
    def no_incumbent(inst, budget=None):
        raise NoIncumbentError(1.5, 0)

    monkeypatch.setattr("overcast.cli.run_exact", no_incumbent)
    out = tmp_path / "cmp"
    assert main(["compare", str(instance_file), "--algs", "ip", "--out-dir", str(out)]) == 0
    with open(out / "compare.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["cost"], row["lp_bound"], row["ratio"], row["status"]) == (
        "inf", "1.500000", "inf", "timeout"
    )


def test_compare_hack_row_reports_the_instance_lp_bound(tmp_path):
    # Fixing the LP-integral variables leaves a residual whose optimum is
    # not the instance's: the row carries the instance's LP bound and makes
    # no claim of optimality.
    path = tmp_path / "inst.json"
    assert main(["gen", "--size", "4x5x10", "--regime", "avg", "--seed", "0", "-o", str(path)]) == 0
    out = tmp_path / "cmp"
    assert main(["compare", str(path), "--algs", "hack", "--out-dir", str(out)]) == 0
    with open(out / "compare.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["cost"], row["lp_bound"], row["ratio"], row["status"]) == (
        "221.227321", "184.659936", "1.198026", "ok"
    )


def test_sweep_grid(instance_file, tmp_path):
    out = tmp_path / "sw"
    rc = main([
        "sweep", str(instance_file),
        "--multipliers", "8,64", "--seeds", "0,1",
        "--out-dir", str(out),
    ])
    assert rc == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == set(SWEEP_COLUMNS)
    for row in rows:
        assert row["identical_across_seeds"] in ("0", "1")
        assert int(row["violations_first_draw"]) >= 0
        assert row["status"] == "ok"
    # each multiplier reports one shared indicator across its seeds
    for m in ("8", "64"):
        flags = {r["identical_across_seeds"] for r in rows if r["M"] == m}
        assert len(flags) == 1


def blanked_sha256(path):
    """sha256 of a CSV file with every `wall_ms` field emptied."""
    lines = [line.split(",") for line in path.read_bytes().decode().split("\r\n")]
    col = lines[0].index("wall_ms")
    for fields in lines[1:-1]:  # the file ends in a line break
        fields[col] = ""
    return hashlib.sha256("\r\n".join(",".join(f) for f in lines).encode()).hexdigest()


# The sweep has ok and retries_exhausted rows; compare has all three
# algorithms. compare was recorded while each row still solved its own
# relaxation and the CLI audited approx results a second time; sweep was
# re-recorded when its retries_exhausted rows began to carry the solved
# bound instead of nan, the only change to its bytes.
CSV_RUNS = {
    "sweep": (
        ["--multipliers", "1,2", "--seeds", "0,1", "--max-retries", "2"],
        "5a9a81e5583fc838480e874a6d36094f4a18f51d83a3e046c18fd52938a85c9b",
    ),
    "compare": (
        ["--algs", "approx,hack,ip", "--seed", "2"],
        "71c8555eabbc9defb6b6c24f25feac0e3b6c1a329c05c35aaccc7feca086af96",
    ),
}


@pytest.mark.parametrize("command", CSV_RUNS)
def test_csv_bytes_pinned(instance_file, tmp_path, command):
    flags, digest = CSV_RUNS[command]
    assert main([command, str(instance_file), *flags, "--out-dir", str(tmp_path)]) == 0
    assert blanked_sha256(tmp_path / f"{command}.csv") == digest


def test_sweep_rows_carry_the_solved_bound(instance_file, tmp_path):
    # The relaxation is solved before the grid, so a row whose draws ran out
    # still has its bound; only its ratio is inf.
    flags, _ = CSV_RUNS["sweep"]
    assert main(["sweep", str(instance_file), *flags, "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bound = f"{solve_lp(build_model(load_instance(instance_file))).objective:.6f}"
    assert {row["lp_bound"] for row in rows} == {bound}
    exhausted = [row for row in rows if row["status"] == "retries_exhausted"]
    assert exhausted and all(row["ratio"] == "inf" for row in exhausted)


def test_compare_budget_defaults_to_a_minute(instance_file, tmp_path, monkeypatch, capsys):
    # Without the flag the hack and ip solves still have a wall-clock bound;
    # a search it ends without an incumbent writes the usual timeout row.
    args = build_parser().parse_args(["compare", str(instance_file)])
    assert args.time_budget_secs == 60.0
    budgets = []

    def out_of_time(inst, budget=None):
        budgets.append(budget)
        raise NoIncumbentError(1.5, 3)

    monkeypatch.setattr(cli, "run_exact", out_of_time)
    assert main(["compare", str(instance_file), "--algs", "ip", "--out-dir", str(tmp_path)]) == 0
    assert budgets == [TimeBudget(seconds=60.0)]
    with open(tmp_path / "compare.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["cost"], row["status"]) == ("inf", "timeout")
    with pytest.raises(SystemExit):
        main(["compare", "--help"])
    assert "(default 60)" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "command,flags,solves",
    [
        ("sweep", ["--multipliers", "8,64", "--seeds", "0,1"], 1),
        ("compare", ["--algs", "approx,hack"], 1),
        ("compare", ["--algs", "ip"], 0),
    ],
    ids=["sweep", "compare", "compare-ip"],
)
def test_each_command_solves_the_relaxation_once(
    instance_file, tmp_path, monkeypatch, command, flags, solves
):
    calls = []
    real = pipeline.solve_lp

    def counting(model):
        calls.append(model)
        return real(model)

    # the CLI's own name, and the one run_approx and run_hack would call
    monkeypatch.setattr(cli, "solve_lp", counting)
    monkeypatch.setattr(pipeline, "solve_lp", counting)
    assert main([command, str(instance_file), *flags, "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == solves


def test_solve_transmission_mode(instance_file, tmp_path):
    out = tmp_path / "tx"
    rc = main([
        "solve", str(instance_file), "--mode", "transmission",
        "--seed", "1", "--out-dir", str(out),
    ])
    assert rc == 0
    sol = json.loads((out / "solution.json").read_text())
    assert sol["mode"] == "transmission"


def test_solve_colored_instance(tmp_path):
    inst = tmp_path / "col.json"
    rc = main([
        "gen", "--size", "1x6x5", "--regime", "low", "--seed", "3",
        "--colors-count", "2", "-o", str(inst),
    ])
    assert rc == 0
    out = tmp_path / "colrun"
    rc = main(["solve", str(inst), "--seed", "4", "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "audit.json").read_text())
    assert report["profile"] == "color"
    assert report["ok"] is True


def test_solve_multi_stream_document(tmp_path, capsys):
    # The README's raw form: a source lists its streams, a sink its demands.
    doc = {
        "sources": [{"id": "E", "streams": ["a", "b"]}],
        "reflectors": [
            {"id": "r0", "cost": 5.0, "fanout": 3},
            {"id": "r1", "cost": 5.0, "fanout": 3},
        ],
        "sinks": [
            {"id": "D", "demands": [
                {"stream": "a", "loss_threshold": 0.01},
                {"stream": "b", "loss_threshold": 0.02},
            ]},
            {"id": "G", "demands": [{"stream": "a", "loss_threshold": 0.05}]},
        ],
        "src_edges": [
            {"from": "E", "to": "r0", "loss": 0.01, "cost": 1.0},
            {"from": "E", "to": "r1", "loss": 0.02, "cost": 1.5},
        ],
        "refl_edges": [
            {"from": "r0", "to": "D", "loss": 0.01, "cost": 2.0},
            {"from": "r1", "to": "D", "loss": 0.01, "cost": 2.0},
            {"from": "r0", "to": "G", "loss": 0.03, "cost": 2.5},
        ],
    }
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "raw-run"
    rc = main(["solve", str(path), "--seed", "2", "--out-dir", str(out)])
    assert rc == 0
    assert "audit=pass" in capsys.readouterr().out
    sol = json.loads((out / "solution.json").read_text())
    served = {route["sink"] for route in sol["routes"]}
    assert served == {"D#a", "D#b", "G#a"}


BANDWIDTH_DOC = {
    "bandwidth_enabled": True,
    "sources": [{"id": "s0", "bitrate": 1.0}],
    "reflectors": [{"id": "r0", "cost": 5.0, "fanout": 1, "bandwidth": 4.0}],
    "sinks": [
        {"id": "d0", "stream": "s0", "loss_threshold": 0.05},
        {"id": "d1", "stream": "s0", "loss_threshold": 0.05},
    ],
    "src_edges": [{"from": "s0", "to": "r0", "loss": 0.01, "cost": 1.0}],
    "refl_edges": [
        {"from": "r0", "to": "d0", "loss": 0.01, "cost": 1.0},
        {"from": "r0", "to": "d1", "loss": 0.01, "cost": 1.0},
    ],
}


def test_verify_fails_a_route_with_no_bitrate(tmp_path, capsys):
    # Under bandwidth caps a stream with no bitrate puts an unknown load on
    # its reflectors; the audit says so instead of reading it as 0.
    doc = json.loads(json.dumps(BANDWIDTH_DOC))
    del doc["sources"][0]["bitrate"]
    doc["reflectors"][0]["bandwidth"] = 1.0
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    inst = Instance(doc)
    routes = {("s0", "r0", "d0"): 1.0, ("s0", "r0", "d1"): 1.0}
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(PathSet(instance=inst, x_tilde=routes, provenance="exact-ip").to_json())
    assert main(["verify", str(inst_path), str(sol_path), "--profile", "exact"]) == 2
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert any(f.startswith("stream s0: no bitrate") for f in failures), failures


def test_solve_bandwidth_mode_reports_bitrate_load(tmp_path, capsys):
    # Two routes through r0: 2 copies over fan-out 1, but 2 Mb/s over a
    # 4 Mb/s bandwidth cap. In bandwidth mode the audit bounds the latter.
    path = tmp_path / "bw.json"
    path.write_text(json.dumps(BANDWIDTH_DOC))
    rc = main(["solve", str(path), "--seed", "0", "--out-dir", str(tmp_path / "bw-run")])
    line = capsys.readouterr().out
    assert rc == 0
    assert "audit=pass" in line
    assert "fanout_ratio=0.500" in line
