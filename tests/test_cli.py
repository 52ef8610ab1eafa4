import argparse
import dataclasses
import inspect
import json
import subprocess
import sys

import pytest

import evmarket.allocator
import evmarket.cli
import evmarket.experiments
import evmarket.online
from evmarket import ClearingSchedule, build_model, generate, price_vcg, run_online, solve_exact
from evmarket.allocator import STATUS_TIME_LIMITED, Infeasible
from evmarket.cli import main
from evmarket.experiments import DESK
from evmarket.serialize import dump_instance, instance_to_dict, load_instance

from conftest import flat_instance, make_ev, make_station, unproven_full_market_solver


@pytest.fixture
def tiny1_file(tmp_path, tiny1):
    path = tmp_path / "tiny1.json"
    dump_instance(tiny1, str(path))
    return str(path)


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--n-evs", "5", "--n-stations", "2", "--horizon", "10", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_tiny1_vcg(tmp_path, tiny1_file):
    out = tmp_path / "out"
    assert main(["solve", tiny1_file, "--mechanism", "vcg", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["objective"] == 400
    assert summary["status"] == "optimal"
    assert summary["serviced"] == 2
    assert summary["budget"] == 0
    alloc = json.loads((out / "allocation.json").read_text())
    assert len(alloc["schedule"]) == 5
    assert (out / "pricing.csv").exists()
    assert (out / "timing.json").exists()


def test_solve_outputs_deterministic(tmp_path, tiny1_file):
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    for o in (o1, o2):
        assert main(["solve", tiny1_file, "--out", str(o)]) == 0
    for name in ("allocation.json", "summary.json", "pricing.csv"):
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes()


def test_solve_vcg_refuses_unproven_allocation(tmp_path, tiny1_file, monkeypatch):
    monkeypatch.setattr(evmarket.cli, "solve_exact", unproven_full_market_solver(2))
    out = tmp_path / "out"
    assert main(["solve", tiny1_file, "--mechanism", "vcg", "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "feasible_time_limited"
    assert "pricing_error" in summary
    assert summary["budget"] is None
    assert not (out / "pricing.csv").exists()


def test_solve_empty_instance(tmp_path):
    inst = flat_instance([make_station("L1", dem=(2, 2))], [], imbalance_unit_cost=50, horizon=2)
    path = tmp_path / "empty.json"
    dump_instance(inst, str(path))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--mechanism", "coop", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["serviced"] == 0
    assert summary["budget"] == -200  # pure imbalance


def test_solve_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"stations": [')
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "json" in capsys.readouterr().err


def test_solve_missing_key_cited(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"time_grid": {"horizon_len": 4}, "stations": [], "evs": []}')
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "imbalance_unit_cost" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, err", [
    ("stations", [{"id": "L1", "slots": 2.7, "rate": 1, "elec_cost": 0, "expected_demand": []}],
     "stations[0].slots: must be an integer"),
    ("evs", [{"id": "a1", "battery_capacity": 4, "battery_initial": 0, "start_time": -5,
              "park_duration": 2, "energy_demand": 1, "base_valuation": 500}],
     "evs[0]: ev a1: start_time must be >= 0"),
    ("imbalance_unit_cost", -5, "imbalance_unit_cost: imbalance_unit_cost must be >= 0"),
    ("scale", 1, "scale: must be 100"),
])
def test_solve_bad_value_cited(tmp_path, tiny1_file, capsys, key, value, err):
    # before the reader checked types and rules, each of these was accepted
    # as wrong welfare or ended in a solver traceback
    with open(tiny1_file) as fh:
        doc = json.load(fh)
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: cannot parse instance: {err}\n"
    assert not (tmp_path / "o").exists()


def test_online_command(tmp_path, tiny1_file):
    out = tmp_path / "out"
    code = main([
        "online", tiny1_file, "--mechanism", "coop", "--incr", "0.0",
        "--clearing-points", "1", "--out", str(out),
    ])
    assert code == 0
    events = [json.loads(l) for l in (out / "events.jsonl").read_text().splitlines()]
    assert events[0]["time"] == 1
    assert set(events[0]["committed"]) == {"a1", "a2"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "online"
    assert summary["serviced"] == 2


def test_time_limit_reaches_every_solve(tmp_path, tiny1_file, monkeypatch):
    limits, runs = [], []
    real_solve_exact = evmarket.cli.solve_exact
    real_run = evmarket.allocator._run

    def recording_solve_exact(model, time_limit, incumbent=None, without=None):
        limits.append(time_limit)
        return real_solve_exact(model, time_limit, incumbent, without)

    def recording_run(model, lb, ub, time_limit, mip, basis=None, jump=True):
        runs.append(("milp" if mip else "lp", time_limit))
        return real_run(model, lb, ub, time_limit, mip, basis, jump)

    monkeypatch.setattr(evmarket.cli, "solve_exact", recording_solve_exact)
    monkeypatch.setattr(evmarket.allocator, "_run", recording_run)
    assert main(["solve", tiny1_file, "--mechanism", "vcg", "--time-limit", "7",
                 "--out", str(tmp_path / "solve")]) == 0
    assert len(limits) == 3  # the allocation plus one counterfactual per winner
    assert main(["online", tiny1_file, "--mechanism", "vcg", "--time-limit", "7",
                 "--clearing-points", "1", "--out", str(tmp_path / "online")]) == 0
    assert len(limits) == 6
    assert main(["calibrate-incr", "--n-evs", "4", "--n-stations", "2", "--horizon", "10",
                 "--elec-cost", "20", "--imbalance-cost", "1", "--max-demand", "2",
                 "--n-instances", "2", "--time-limit", "7"]) == 0
    assert len(limits) == 8  # one allocation solve per instance of the family
    assert set(limits) == {7.0}
    # every HiGHS run: for each allocation (solve, the online clearing, two
    # in calibrate-incr) the market LP under the limit, then branch-and-cut
    # within what the LP left of it; the LP's bound proves both
    # counterfactuals of each priced model without a run of their own
    assert [kind for kind, _ in runs] == ["lp", "milp"] * 4
    assert {limit for kind, limit in runs if kind == "lp"} == {7.0}
    assert all(6.0 < limit <= 7.0 for kind, limit in runs if kind == "milp")


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--time-limit", "-1"]),
    ("solve", ["--time-limit", "nan"]),
    ("online", ["--time-limit", "-1"]),
    ("calibrate-incr", ["--time-limit", "-1"]),
    ("exp", ["4", "--time-limit", "-1"]),
    ("online", ["--clearings", "0"]),
    ("online", ["--clearings", "5"]),
    ("online", ["--clearings", "10", "--mechanism", "coop"]),
    ("online", ["--clearing-points", "5", "3"]),
    ("calibrate-incr", ["--n-instances", "0"]),
    ("calibrate-incr", ["--step", "0"]),
    ("calibrate-incr", ["--step", "0.0001"]),
    ("calibrate-incr", ["--step", "0.0015"]),
    ("calibrate-incr", ["--step", "inf"]),
    ("exp", ["4", "--reps", "0"]),
    ("solve", ["--incr", "-2", "--mechanism", "coop"]),
    ("solve", ["--incr", "nan", "--mechanism", "coop"]),
    ("solve", ["--incr", "0.0025", "--mechanism", "coop"]),  # between two thousandths
    ("online", ["--incr", "-2", "--mechanism", "coop"]),
    ("online", ["--incr", "inf"]),
    ("online", ["--clearing-points", "0", "2"]),
    ("online", ["--clearing-points", "2", "5"]),
    # each GenParams rule, through gen and calibrate-incr
    ("gen", ["--horizon", "0"]),
    ("gen", ["--slots", "-1"]),
    ("gen", ["--elec-cost", "-5"]),
    ("gen", ["--imbalance-cost", "-1"]),
    ("gen", ["--max-park", "0"]),
    ("gen", ["--max-demand", "0"]),
    ("gen", ["--n-evs", "-3"]),
    ("gen", ["--n-stations", "0"]),
    ("calibrate-incr", ["--horizon", "0"]),
    ("calibrate-incr", ["--max-demand", "0"]),
    ("calibrate-incr", ["--n-stations", "0"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_flag_no_run_can_honour_exits_1(tmp_path, tiny1_file, capsys, command, flags):
    # a negative limit is refused by HiGHS and NaN is taken as one; neither
    # may leave a run without the limit it was given
    args = [command, *([tiny1_file] if command in ("solve", "online") else []), *flags]
    if command != "calibrate-incr":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    flag = next(f for f in flags if f.startswith("--"))
    assert capsys.readouterr().err.startswith(f"error: {flag}")
    assert not (tmp_path / "out").exists()


# each subcommand's options: a flag that no run of the command reads is not offered
OPTIONS = {
    "gen": {"--seed", *evmarket.cli.GEN_FLAGS, "--flat", "--out"},
    "solve": {"--time-limit", "--mechanism", "--incr", "--out"},
    "online": {"--time-limit", "--mechanism", "--incr", "--clearings", "--clearing-points",
               "--carryover", "--out"},
    "calibrate-incr": {"--seed", "--time-limit", *evmarket.cli.GEN_FLAGS, "--flat",
                       "--n-instances", "--step", "--out"},
    "exp": {"--seed", "--time-limit", "--reps", "--out"},
}


def test_each_subcommand_offers_only_the_options_it_reads():
    parser = evmarket.cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {name: {flag for action in p._actions for flag in action.option_strings}
               for name, p in commands.items()}
    offered = {name: flags - {"-h", "--help"} for name, flags in offered.items()}
    assert offered == OPTIONS
    assert sum(map(len, offered.values())) == 40


UNRECOGNIZED = "evmarket: error: unrecognized arguments: "


@pytest.mark.parametrize("command, flags, err", [
    ("solve", ["--seed", "1"], UNRECOGNIZED + "--seed 1"),
    ("online", ["--seed", "1"], UNRECOGNIZED + "--seed 1"),
    ("gen", ["--time-limit", "5"], UNRECOGNIZED + "--time-limit 5"),
    ("online", ["--clearings", "3", "--clearing-points", "4", "8"],
     "evmarket online: error: argument --clearing-points: not allowed with argument --clearings"),
], ids=["solve --seed", "online --seed", "gen --time-limit", "online both clearing flags"])
def test_flag_the_command_does_not_take_exits_2(tmp_path, tiny1_file, capsys, command, flags, err):
    # a flag that no run of the command reads would be silently ignored, as
    # would --clearings next to --clearing-points
    args = [command, *([tiny1_file] if command in ("solve", "online") else []), *flags,
            "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: evmarket") and stderr.endswith(err + "\n")
    assert not (tmp_path / "out").exists()


def _raising(error):
    def fail(*args, **kwargs):
        raise error
    return fail


@pytest.mark.parametrize("command, module, name, replacement, code, err", [
    ("solve", evmarket.cli, "solve_exact", _raising(Infeasible("no point")), 1,
     "error: infeasible: no point\n"),
    ("online", evmarket.cli, "solve_exact", _raising(Infeasible("no point")), 1,
     "error: infeasible: no point\n"),
    ("online", evmarket.cli, "solve_exact", unproven_full_market_solver(2), 2,
     "error: allocation solve ended with status feasible_time_limited; "
     "VCG needs a proven optimum\n"),
], ids=["solve-infeasible", "online-infeasible", "online-unproven"])
def test_library_error_exit_code(tmp_path, tiny1_file, capsys, monkeypatch,
                                 command, module, name, replacement, code, err):
    monkeypatch.setattr(module, name, replacement)
    out = tmp_path / "out"
    args = [command, tiny1_file, "--mechanism", "vcg", "--out", str(out)]
    if command == "online":
        args += ["--clearing-points", "1"]
    assert main(args) == code
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_each_market_model_is_built_once(tmp_path, tiny1_file, built_models):
    # the model that solves a market also prices it
    assert main(["solve", tiny1_file, "--out", str(tmp_path / "solve")]) == 0
    assert len(built_models) == 1
    evmarket.experiments.run_exp4(str(tmp_path), reps=5)
    assert len(built_models) == 1 + 5 * 2  # a truthful and a lying market per repetition
    online = run_online(generate(DESK, 7), ClearingSchedule((3, 6, 9, 12, 15, 23)), carryover=True)
    cleared = [c for c in online.clearings if c.status != "no-op"]
    assert len(built_models) == 11 + len(cleared) and len(cleared) == len(online.clearings) - 1
    before = len(built_models)
    evmarket.experiments.run_exp3(str(tmp_path), reps=1)
    assert len(built_models) == before + 4  # one per market, priced by both mechanisms


def test_calibrate_incr_exits_2_on_unproven_solve(capsys):
    # at a zero limit the allocation is the empty one, which assigns
    # nobody, so the budget can never turn positive: refused, not calibrated
    assert main(["calibrate-incr", "--n-instances", "3", "--seed", "1", "--n-evs", "10",
                 "--n-stations", "2", "--horizon", "12", "--elec-cost", "20",
                 "--imbalance-cost", "1", "--time-limit", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: allocation solve of scenario 0 ended with status "
                            "feasible_time_limited; calibration needs a proven optimum\n")


def test_calibrate_incr_command(tmp_path, capsys):
    code = main([
        "calibrate-incr", "--n-evs", "4", "--n-stations", "2", "--horizon", "10",
        "--elec-cost", "20", "--imbalance-cost", "1", "--max-demand", "2",
        "--n-instances", "2", "--seed", "1",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert 0 < doc["incr"] <= 1.0


# three 10-EV markets of seed 5; in each family below some agents decline
# below the answer, so calibrate-incr crosses from one segment to the next
FAMILY10 = ["--n-evs", "10", "--n-stations", "3", "--horizon", "12", "--max-demand", "4",
            "--n-instances", "3", "--seed", "5"]


@pytest.mark.parametrize("flags, code, out, err", [
    (["--n-evs", "4", "--n-stations", "2", "--horizon", "10", "--elec-cost", "20",
      "--imbalance-cost", "1", "--max-demand", "2", "--n-instances", "2", "--seed", "1"],
     0, '{"incr": 0.475, "n_instances": 2, "seed": 1}', ""),
    ([*FAMILY10, "--elec-cost", "30", "--imbalance-cost", "1"],
     0, '{"incr": 0.283667, "n_instances": 3, "seed": 5}', ""),
    ([*FAMILY10, "--elec-cost", "10", "--imbalance-cost", "2"],
     0, '{"incr": 0.496, "n_instances": 3, "seed": 5}', ""),
    ([*FAMILY10, "--elec-cost", "10", "--imbalance-cost", "2", "--step", "0.007"],
     0, '{"incr": 0.500333, "n_instances": 3, "seed": 5}', ""),
    ([*FAMILY10, "--elec-cost", "45", "--imbalance-cost", "1", "--step", "0.025"],
     0, '{"incr": 0.234333, "n_instances": 3, "seed": 5}', ""),
    ([*FAMILY10, "--elec-cost", "45", "--imbalance-cost", "1", "--max-demand", "2"],
     1, "", "error: budget never turned positive for a scenario within incr <= 1.0"),
], ids=["4ev", "elec30", "elec10", "elec10-step7", "elec45-step25", "no-breakeven"])
def test_calibrate_incr_output_is_pinned(capsys, flags, code, out, err):
    assert main(["calibrate-incr", *flags]) == code
    captured = capsys.readouterr()
    assert (captured.out.strip(), captured.err.strip()) == (out, err)


def test_exp_command_writes_reports(tmp_path):
    out = tmp_path / "exp"
    assert main(["exp", "4", "--reps", "2", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["exp4_liars_runs.csv", "exp4_liars_summary.csv"]
    runs = (out / "exp4_liars_runs.csv").read_text().splitlines()
    assert runs[0].startswith("# schema=")
    assert len(runs) == 2 + 2 * 2  # header rows + reps x mechanisms


def test_every_study_takes_only_the_run_settings():
    # a study's design is fixed in experiments' constants, not in parameters
    for runner in evmarket.experiments.RUNNERS.values():
        assert list(inspect.signature(runner).parameters) == ["out_dir", "reps", "seed0", "time_limit"]


def test_exp_exits_2_on_unproven_vcg_solve(tmp_path, monkeypatch, capsys):
    real_solver = evmarket.experiments.solve_exact

    def time_limited(model, time_limit=None, incumbent=None, without=None):
        return dataclasses.replace(real_solver(model, without=without), status=STATUS_TIME_LIMITED)

    monkeypatch.setattr(evmarket.experiments, "solve_exact", time_limited)
    out = tmp_path / "exp"
    assert main(["exp", "3", "--reps", "1", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(out.glob("*.csv")) == []


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "evmarket.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout


@pytest.mark.parametrize("number", sorted(evmarket.experiments.RUNNERS))
def test_study_refuses_zero_reps(tmp_path, number):
    # with no repetition a study has nothing to report, not a header-only file
    with pytest.raises(ValueError, match="^reps must be at least 1, got 0$"):
        evmarket.experiments.RUNNERS[number](str(tmp_path), reps=0)
    assert list(tmp_path.iterdir()) == []


def test_market_without_stations_serves_nobody(tmp_path, tiny1):
    # a document may list no station: its model has no variable at all
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({**instance_to_dict(tiny1), "stations": []}))
    inst = load_instance(str(path))
    model = build_model(inst)
    result = solve_exact(model)
    assert (model.n_vars, result.status) == (0, "optimal")
    assert result.allocation.assigned == {"a1": None, "a2": None}
    assert price_vcg(inst, result.allocation).charged == frozenset()
    online = run_online(inst, ClearingSchedule((1, 4)))
    assert online.outcome.charged == frozenset() and online.status == "optimal"
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["serviced"] == 0
