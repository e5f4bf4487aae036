from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import pytest

from latebind import bench, datagen
from latebind.accel import MAX_MEASUREMENTS
from latebind.cli import (EXIT_OK, EXIT_RESULT_MISMATCH, EXIT_VALIDATION, CalibrateConfig,
                          CommonConfig, RunConfig, _base_thresholds, build_parser, main)
from latebind.clock import MAX_SIGMA, SimulatedClock
from latebind.engine import EngineConfig
from latebind.policy import Thresholds
from test_bench import corrupt_nested_loop, count_join_kernels


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_calibrate_writes_margin_thresholds(tmp_path, capsys):
    code = run_cli("calibrate", "--out", str(tmp_path), "--sigma", "0")
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "calibration" / "thresholds.json").read_text())
    for kind in ("filter", "aggregate"):
        assert doc["n_star"][kind] == pytest.approx(10000.0, rel=1e-9)
    out = capsys.readouterr().out
    assert "break-even[filter]" in out
    # the offload point is derived, never stored: margin x N*
    assert "offload_thresholds" not in doc
    assert f"threshold={doc['offload_margin'] * doc['n_star']['filter']:.2f}" in out
    assert (tmp_path / "calibration" / "measurements.csv").exists()
    assert (tmp_path / "calibration" / "fits.csv").exists()
    assert (tmp_path / "calibration" / "break_evens.csv").exists()
    assert (tmp_path / "calibration" / "config.json").exists()


def test_calibrate_degenerate_profile_warns_nonzero(tmp_path, capsys):
    code = run_cli("calibrate", "--out", str(tmp_path), "--accel-setup", "0",
                   "--accel-per-item", "1.0", "--cpu-per-item", "1.0")
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "no break-even" in err


def test_calibrate_deterministic_bytes(tmp_path):
    run_cli("calibrate", "--out", str(tmp_path / "a"), "--seed", "3")
    run_cli("calibrate", "--out", str(tmp_path / "b"), "--seed", "3")
    first = (tmp_path / "a" / "calibration" / "thresholds.json").read_bytes()
    second = (tmp_path / "b" / "calibration" / "thresholds.json").read_bytes()
    assert first == second


def test_run_emits_reports(tmp_path, capsys):
    code = run_cli("run", "--scenario", "input_scale_shift", "--queries", "8",
                   "--out", str(tmp_path))
    assert code == EXIT_OK
    for mode in ("baseline", "independent_gates", "orchestrated"):
        base = tmp_path / "input_scale_shift" / mode
        assert (base / "samples.csv").exists()
        assert (base / "cdf.csv").exists()
        assert (base / "summary.txt").exists()
    assert (tmp_path / "input_scale_shift" / "config.json").exists()
    out = capsys.readouterr().out
    assert out.startswith("config: ")
    assert "ratios vs baseline" in out


def latencies(out: Path, scenario: str, mode: str) -> list[str]:
    """The latency cells of one mode's samples.csv, in query order."""
    path = out / scenario / mode / "samples.csv"
    return [line.split(",")[2] for line in path.read_text().splitlines()[1:]]


def test_run_with_thresholds_file(tmp_path):
    # a thresholds file replaces orchestrated's thresholds whole: its
    # unreachable triggers reach orchestrated alone ...
    unreachable = ("--rho-join", "1e12", "--offload-margin", "1e9")
    assert run_cli("calibrate", "--out", str(tmp_path / "off"), "--sigma", "0",
                   *unreachable) == EXIT_OK
    assert run_cli("run", "--scenario", "stale_stats", "--queries", "6",
                   "--out", str(tmp_path / "off"),
                   "--thresholds", str(tmp_path / "off" / "calibration" / "thresholds.json")) \
        == EXIT_OK
    off = tmp_path / "off"
    assert latencies(off, "stale_stats", "orchestrated") == \
        latencies(off, "stale_stats", "baseline")
    assert latencies(off, "stale_stats", "independent_gates") != \
        latencies(off, "stale_stats", "baseline")
    # ... and beside a file, the threshold flags reach independent_gates alone
    assert run_cli("calibrate", "--out", str(tmp_path / "on"), "--sigma", "0") == EXIT_OK
    assert run_cli("run", "--scenario", "stale_stats", "--queries", "6",
                   "--out", str(tmp_path / "on"), *unreachable,
                   "--thresholds", str(tmp_path / "on" / "calibration" / "thresholds.json")) \
        == EXIT_OK
    on = tmp_path / "on"
    assert latencies(on, "stale_stats", "independent_gates") == \
        latencies(on, "stale_stats", "baseline")
    assert latencies(on, "stale_stats", "orchestrated") != \
        latencies(on, "stale_stats", "baseline")


def test_every_flag_is_a_config_field():
    # _resolve reads only the command's config fields, so any other dest
    # would be ignored; and every field of a command's config has its flag
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, kind in (("calibrate", CalibrateConfig), ("run", RunConfig)):
        dests = {action.dest for action in subparsers.choices[command]._actions
                 if action.dest != "help"}
        assert dests == set(kind.__dataclass_fields__), (command, dests)


def test_each_command_config_holds_the_shared_and_its_own_fields():
    shared = set(CommonConfig.__dataclass_fields__)
    assert shared == {"seed", "sigma", "out", "rho_join", "offload_margin"}
    run, calibrate = set(RunConfig.__dataclass_fields__), set(CalibrateConfig.__dataclass_fields__)
    assert run & calibrate == shared
    assert (len(run), len(calibrate)) == (13, 10)


@pytest.mark.parametrize("argv,kind,written", [
    (("run", "--queries", "3"), RunConfig, ("input_scale_shift", "config.json")),
    (("calibrate", "--sizes", "3000,10000,30000"), CalibrateConfig,
     ("calibration", "config.json")),
], ids=["run", "calibrate"])
def test_config_json_holds_only_its_commands_keys(tmp_path, capsys, argv, kind, written):
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
    doc = json.loads(tmp_path.joinpath(*written).read_text())
    assert set(doc) == {*kind.__dataclass_fields__, "command"}
    banner = json.loads(capsys.readouterr().out.splitlines()[0].removeprefix("config: "))
    assert banner == doc


def test_threshold_flags_reach_thresholds_file(tmp_path, capsys):
    # without flags the run config yields Thresholds' own defaults
    assert _base_thresholds(RunConfig()) == Thresholds()
    code = run_cli("calibrate", "--out", str(tmp_path), "--sigma", "0",
                   "--offload-margin", "1.5", "--rho-join", "25")
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "calibration" / "thresholds.json").read_text())
    assert doc["offload_margin"] == 1.5
    assert doc["rho_join"] == 25.0
    assert f"threshold={1.5 * doc['n_star']['filter']:.2f}" in capsys.readouterr().out


def test_threshold_flags_change_run_behavior(tmp_path):
    # with unreachable triggers the orchestrated hook never fires and its
    # latencies collapse onto the baseline's exactly
    code = run_cli("run", "--scenario", "stale_stats", "--queries", "12",
                   "--out", str(tmp_path), "--rho-join", "1e12",
                   "--offload-margin", "1e9")
    assert code == EXIT_OK
    assert latencies(tmp_path, "stale_stats", "orchestrated") == \
        latencies(tmp_path, "stale_stats", "baseline")
    # defaults, by contrast, leave the two modes far apart on this scenario
    code = run_cli("run", "--scenario", "stale_stats", "--queries", "12",
                   "--out", str(tmp_path / "defaults"))
    assert code == EXIT_OK

    def p99(mode: str) -> float:
        path = tmp_path / "defaults" / "stale_stats" / mode / "samples.csv"
        values = sorted(float(line.split(",")[2])
                        for line in path.read_text().splitlines()[1:])
        return values[-1]

    assert p99("orchestrated") < p99("baseline") / 2


def test_result_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    from latebind import cli as cli_mod
    from latebind.errors import ResultMismatchError

    def exploding_run_scenario(*args, **kwargs):
        raise ResultMismatchError("stale_stats/q007: results diverge across modes")

    monkeypatch.setattr(cli_mod.bench, "run_scenario", exploding_run_scenario)
    code = run_cli("run", "--scenario", "stale_stats", "--queries", "4",
                   "--out", str(tmp_path))
    assert code == 2
    assert "diverge" in capsys.readouterr().err


def test_modes_running_different_join_kernels_cross_check_to_exit_2(tmp_path, monkeypatch,
                                                                     capsys):
    # at default sizes every mode of a query runs the same join kernel, so
    # the cross-mode check compares one output with itself; at these sizes
    # some queries run nested loop in baseline and hash in the deciding modes
    argv = ("run", "--scenario", "stale_stats", "--fact-rows", "2000", "--dim-rows", "1000",
            "--queries", "10")
    executions, _ = count_join_kernels(monkeypatch)
    assert run_cli(*argv, "--out", str(tmp_path / "sound")) == EXIT_OK
    kernels: dict[int, set[str]] = {}
    for _, seed, _, _, kernel in executions:
        kernels.setdefault(seed, set()).add(kernel)
    assert any(len(ran) == 2 for ran in kernels.values())
    capsys.readouterr()

    corrupt_nested_loop(monkeypatch)
    assert run_cli(*argv, "--out", str(tmp_path / "corrupt")) == EXIT_RESULT_MISMATCH
    captured = capsys.readouterr()
    assert captured.err.startswith("error: stale_stats/q")
    assert "results diverge across modes" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_out_dir_ignores_environment(tmp_path, monkeypatch):
    # flags > defaults, with no variable among them: without --out, a run
    # writes to ./out
    monkeypatch.setenv("LATEBIND_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert run_cli("calibrate", "--sigma", "0") == EXIT_OK
    assert (tmp_path / "out" / "calibration" / "thresholds.json").exists()
    assert not (tmp_path / "envout").exists()


def test_run_whose_every_query_fails_exits_0(tmp_path, capsys, monkeypatch):
    # a 64 KiB budget puts every scan of the fact table over the hard cap
    monkeypatch.setattr(bench, "EngineConfig",
                        lambda: EngineConfig(memory_budget_bytes=64 * 1024))
    code = run_cli("run", "--scenario", "stale_stats", "--queries", "3",
                   "--out", str(tmp_path))
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count(f"{'nan':>14}" * 4 + "     3\n") == 3
    for mode in ("baseline", "independent_gates", "orchestrated"):
        target = tmp_path / "stale_stats" / mode
        assert (target / "cdf.csv").read_text() == "latency,cumulative_fraction\n"
        assert "failures    3\n" in (target / "summary.txt").read_text()


def test_missing_thresholds_file_names_path(tmp_path, capsys):
    missing = tmp_path / "nowhere" / "thresholds.json"
    assert run_cli("run", "--queries", "2", "--thresholds", str(missing),
                   "--out", str(tmp_path)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not (tmp_path / "input_scale_shift").exists()


def test_thresholds_file_with_deleted_keys_rejected(tmp_path, capsys):
    assert run_cli("calibrate", "--out", str(tmp_path), "--sigma", "0") == EXIT_OK
    path = tmp_path / "calibration" / "thresholds.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "opt_distrust": 1.0, "reevaluate_band": 1.2,
                                "mem_high": 0.8,
                                "offload_thresholds": {"filter": 11000.0}}))
    code = run_cli("run", "--scenario", "stale_stats", "--queries", "2",
                   "--out", str(tmp_path), "--thresholds", str(path))
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown threshold keys" in err and "mem_high" in err
    assert "offload_thresholds" in err


def test_uncalibrated_thresholds_file_exits_1(tmp_path, capsys):
    path = tmp_path / "thresholds.json"
    path.write_text(json.dumps({"rho_join": 10.0}))  # no "source": uncalibrated
    code = run_cli("run", "--scenario", "stale_stats", "--queries", "5",
                   "--out", str(tmp_path), "--thresholds", str(path))
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "requires calibrated thresholds" in err


def test_break_even_rejects_fact_rows(tmp_path, capsys):
    # break_even sizes its fact table from its own sweep
    code = run_cli("run", "--scenario", "break_even", "--queries", "3",
                   "--fact-rows", "500", "--out", str(tmp_path))
    assert code == EXIT_VALIDATION
    assert "fact_rows" in capsys.readouterr().err
    assert not (tmp_path / "break_even").exists()


@pytest.mark.parametrize("flag,value,scenarios,taker", [
    ("--drift-fraction", "0.9", ("stale_stats", "break_even"), "input_scale_shift"),
    ("--miscal-factor", "7", ("input_scale_shift", "stale_stats"), "break_even"),
    # the value input_scale_shift and break_even take by default
    ("--drift-fraction", "0.2", ("stale_stats", "break_even"), "input_scale_shift"),
    ("--miscal-factor", "2.0", ("input_scale_shift", "stale_stats"), "break_even"),
], ids=["drift_fraction", "miscal_factor", "drift_fraction_default",
        "miscal_factor_default"])
def test_scenario_flag_on_other_scenario_rejected(tmp_path, capsys, flag, value, scenarios,
                                                  taker):
    name = flag.removeprefix("--").replace("-", "_")
    for scenario in scenarios:
        code = run_cli("run", "--scenario", scenario, "--queries", "3", flag, value,
                       "--out", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: {name} ({flag}) does not apply to "
                                           f"{scenario}; it applies to {taker}\n")
        assert not (tmp_path / scenario).exists()


# above MAX_SIGMA, exp(sigma * z) overflows at the largest draws of z
@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "82.01", "1000", "1e300"])
@pytest.mark.parametrize("command", ["run", "calibrate"])
def test_bad_sigma_exits_1_without_traceback(tmp_path, capsys, command, sigma):
    assert run_cli(command, "--sigma", sigma, "--out", str(tmp_path)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigma must be >= 0 and finite" in err
    assert "Traceback" not in err


def test_sigma_at_its_limit_runs(tmp_path, capsys):
    limit = str(MAX_SIGMA)
    assert run_cli("run", "--sigma", limit, "--queries", "3", "--out", str(tmp_path)) \
        == EXIT_OK
    # the noise is far too wide for a break-even, which calibrate reports
    # with a warning, but it still writes every file
    run_cli("calibrate", "--sigma", limit, "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert "error:" not in err and "Traceback" not in err
    assert (tmp_path / "calibration" / "thresholds.json").exists()


def test_unknown_mode_exits_1(tmp_path, capsys):
    assert run_cli("run", "--modes", "bogus", "--queries", "3", "--out", str(tmp_path)) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: unknown mode 'bogus'\n"
    assert not (tmp_path / "input_scale_shift").exists()


def test_repeated_mode_exits_1(tmp_path, capsys):
    # run once per mode: a repeated one would run twice, the second run's
    # rows overwriting the first's, and be recorded twice in config.json
    assert run_cli("run", "--modes", "baseline,baseline", "--queries", "3",
                   "--out", str(tmp_path)) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: mode 'baseline' is given twice\n"
    assert not tmp_path.joinpath("input_scale_shift").exists()


def test_measurement_count_above_limit_exits_1_before_any_charge(tmp_path, capsys,
                                                                 monkeypatch):
    # 8 default sizes x 10**12 repetitions: no measurement may be charged
    def guarded(*args, **kwargs):
        raise AssertionError("a measurement was charged")

    monkeypatch.setattr(SimulatedClock, "charge", guarded)
    assert run_cli("calibrate", "--repetitions", str(10**12), "--out", str(tmp_path)) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: 8 sizes x {10**12} repetitions exceed "
                                       f"{MAX_MEASUREMENTS} measurements\n")
    assert not (tmp_path / "calibration").exists()


THRESHOLDS_RUN = ("run", "--scenario", "stale_stats", "--queries", "2", "--thresholds")


@pytest.mark.parametrize("argv,doc,message", [
    (THRESHOLDS_RUN, {"rho_join": "a"}, "threshold key 'rho_join' takes float, not 'a'"),
    (THRESHOLDS_RUN, {"n_star": {"filter": "x"}},
     "threshold key 'n_star' takes dict[str, float], not 'x'"),
    (THRESHOLDS_RUN, [1, 2], "a threshold document must be a JSON object, not [1, 2]"),
    # a negative N* would offload every filter, a NaN one no aggregate
    (("run", "--scenario", "break_even", "--queries", "2", "--thresholds"),
     {"n_star": {"filter": -1, "aggregate": math.nan}, "source": "x"},
     "n_star['filter'] must be > 0 or inf, got -1"),
    (THRESHOLDS_RUN, {"n_star": {"aggregate": math.nan}, "source": "x"},
     "n_star['aggregate'] must be > 0 or inf, got nan"),
    (THRESHOLDS_RUN, {"n_star": {"join": 5.0}, "source": "x"},
     "n_star key 'join' is no offloadable kind ('filter', 'aggregate')"),
], ids=["rho_join_not_float", "n_star_not_dict", "document_not_object",
        "negative_and_nan_n_star", "nan_n_star", "join_n_star"])
def test_malformed_json_file_exits_1_without_traceback(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli(*argv, str(path), "--out", str(tmp_path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.out


@pytest.mark.parametrize("argv", [
    ("run", "--scenario", "break_even", "--queries", "2", "--thresholds"), THRESHOLDS_RUN,
], ids=["thresholds_break_even", "thresholds_stale_stats"])
def test_integer_too_long_for_int_exits_1_without_traceback(tmp_path, capsys, argv):
    # json.dumps cannot write it: int() takes at most 4300 digits
    path = tmp_path / "doc.json"
    path.write_text('{"seed": ' + "1" * 4400 + "}")
    assert run_cli(*argv, str(path), "--out", str(tmp_path)) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {path}: Exceeds the limit (4300 digits) ")


def test_json_syntax_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": ')
    assert run_cli(*THRESHOLDS_RUN, str(bad), "--out", str(tmp_path)) == EXIT_VALIDATION
    assert capsys.readouterr().err == \
        f"error: {bad}: Expecting value: line 1 column 10 (char 9)\n"


def test_table_above_size_limit_exits_1_before_any_column_is_drawn(tmp_path, capsys,
                                                                   monkeypatch):
    # 3e12 fact rows would ask numpy for terabytes; a draw this large must
    # never start, so the guard fails the test before one could
    real_sample = datagen._sample_column

    def guarded(col, rows, seed):
        assert rows <= 10**6, f"drawing {rows} rows of {col.name}"
        return real_sample(col, rows, seed)

    monkeypatch.setattr(datagen, "_sample_column", guarded)
    assert run_cli("run", "--fact-rows", "3000000000000", "--out", str(tmp_path)) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: table fact: 3000000000000 rows of 2 columns exceed ")
    assert "Traceback" not in err


@pytest.mark.parametrize("scenario", bench.SCENARIOS)
def test_query_count_above_limit_exits_1_before_any_draw_or_case(tmp_path, capsys,
                                                                 monkeypatch, scenario):
    # 3e9 queries would draw 3e9 schedule values or make 3e9 cases; neither
    # may start, so the guards fail the test before one could
    def refuse(*args, **kwargs):
        raise AssertionError("a schedule draw or a query case was started")

    for draw in ("stream_unit", "stream_integers"):
        monkeypatch.setattr(bench, draw, refuse)
    monkeypatch.setattr(bench, "QueryCase", refuse)
    assert run_cli("run", "--scenario", scenario, "--queries", "3000000000",
                   "--out", str(tmp_path)) == EXIT_VALIDATION
    assert capsys.readouterr().err == \
        f"error: query count must be in 1..{bench.MAX_QUERIES}, got 3000000000\n"
    assert not any(tmp_path.iterdir())


def test_non_integer_sizes_flag_exits_2_with_usage(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("calibrate", "--sizes", "3000,a", "--out", str(tmp_path))
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: latebind calibrate ")
    assert err.endswith("error: argument --sizes: invalid comma-separated int value: "
                        "'3000,a'\n")
    assert "Traceback" not in err
    assert not (tmp_path / "calibration").exists()


def test_config_flag_is_a_usage_error(capsys):
    # every setting has its own flag; config.json is a record, not an input
    with pytest.raises(SystemExit) as exit_:
        run_cli("run", "--config", "x.json")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --config x.json" in capsys.readouterr().err


def test_gen_is_no_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("gen", "--spec", "spec.json")
    assert exit_.value.code == 2
    assert "invalid choice: 'gen'" in capsys.readouterr().err


def test_report_is_no_command(capsys):
    # run prints the one comparison table; no command reads samples.csv back
    with pytest.raises(SystemExit) as exit_:
        run_cli("report", "x.csv")
    assert exit_.value.code == 2
    assert "invalid choice: 'report'" in capsys.readouterr().err


def test_calibrate_grid_collapse_exits_1(tmp_path, capsys):
    # a 1-unit setup puts the model break-even near one row, where the
    # default grid's sizes round onto each other
    assert run_cli("calibrate", "--accel-setup", "1", "--out", str(tmp_path)) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: size grid collapsed")


REPORT_FILES = ("samples.csv", "cdf.csv", "summary.txt")


def mode_files(out: Path, scenario: str) -> dict[str, bytes]:
    return {f"{mode.name}/{name}": (mode / name).read_bytes()
            for mode in sorted(p for p in (out / scenario).iterdir() if p.is_dir())
            for name in REPORT_FILES}


def test_explicit_zero_fact_rows_reaches_builder(tmp_path):
    # 0 is a size, not "the scenario default": the fact table is empty
    assert run_cli("run", "--queries", "6", "--fact-rows", "0",
                   "--out", str(tmp_path / "cli")) == EXIT_OK
    reports = bench.run_scenario(bench.scenario_input_scale_shift(query_count=6, fact_rows=0),
                                 SimulatedClock(sigma=0.05))
    for report in reports.values():
        bench.report_emit(report, tmp_path / "api")
    assert mode_files(tmp_path / "cli", "input_scale_shift") == \
        mode_files(tmp_path / "api", "input_scale_shift")
    assert run_cli("run", "--queries", "6", "--out", str(tmp_path / "default")) == EXIT_OK
    assert mode_files(tmp_path / "cli", "input_scale_shift") != \
        mode_files(tmp_path / "default", "input_scale_shift")
    doc = json.loads((tmp_path / "cli" / "input_scale_shift" / "config.json").read_text())
    assert doc["fact_rows"] == 0 and doc["dim_rows"] is None
    doc = json.loads((tmp_path / "default" / "input_scale_shift" / "config.json").read_text())
    assert doc["fact_rows"] is None


@pytest.mark.parametrize("flag,value", [("--fact-rows", "-1"), ("--dim-rows", "-3"),
                                        ("--dim-rows", "0")])
def test_table_sizes_the_builder_rejects_exit_1(tmp_path, capsys, flag, value):
    # an empty dim table leaves its key column no range, so 0 is rejected there
    code = run_cli("run", "--queries", "3", flag, value, "--out", str(tmp_path))
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "input_scale_shift").exists()


@pytest.mark.parametrize("scenario,least", [
    (bench.INPUT_SCALE_SHIFT, 1), (bench.STALE_STATS, 2), (bench.BREAK_EVEN, 1)])
def test_dim_rows_below_the_least_exits_1(tmp_path, capsys, scenario, least):
    # the dim table's keys span dim_rows values, stale_stats' dim_rows // 2;
    # fewer rows leave a key column no value, which the builder names
    below = str(least - 1)
    assert run_cli("run", "--scenario", scenario, "--queries", "3", "--dim-rows", below,
                   "--out", str(tmp_path)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: dim_rows must be >= {least}, got {below}\n"
    assert not any(tmp_path.iterdir())
    assert bench.SCENARIOS[scenario](query_count=3, dim_rows=least).dim_spec.row_count == least


def test_dim_rows_flag_changes_samples(tmp_path):
    for name, extra in (("default", ()), ("dim", ("--dim-rows", "500"))):
        assert run_cli("run", "--scenario", "break_even", "--queries", "4",
                       "--out", str(tmp_path / name), *extra) == EXIT_OK
    default = (tmp_path / "default" / "break_even" / "baseline" / "samples.csv").read_bytes()
    changed = (tmp_path / "dim" / "break_even" / "baseline" / "samples.csv").read_bytes()
    assert default != changed


def test_modes_flag_writes_only_those_modes(tmp_path):
    assert run_cli("run", "--queries", "3", "--modes", "baseline,orchestrated",
                   "--out", str(tmp_path)) == EXIT_OK
    written = {p.name for p in (tmp_path / "input_scale_shift").iterdir() if p.is_dir()}
    assert written == {"baseline", "orchestrated"}


def test_calibrate_sizes_and_repetitions_set_measurements(tmp_path):
    sizes = (2000, 5000, 10000, 20000, 50000)
    assert run_cli("calibrate", "--sizes", ",".join(map(str, sizes)), "--repetitions", "2",
                   "--out", str(tmp_path)) == EXIT_OK
    with (tmp_path / "calibration" / "measurements.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    per_series: dict[tuple[str, str], list[int]] = {}
    for row in rows:
        per_series.setdefault((row["op_kind"], row["device"]), []).append(int(row["n"]))
    assert set(per_series) == {(kind, device) for kind in ("aggregate", "filter")
                               for device in ("accelerator", "cpu")}
    for ns in per_series.values():
        assert sorted(ns) == sorted(sizes * 2)
