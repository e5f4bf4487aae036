from __future__ import annotations

import argparse
import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from latebind import bench, datagen
from latebind.accel import MAX_MEASUREMENTS
from latebind.cli import (EXIT_OK, EXIT_VALIDATION, CalibrateConfig, CommonConfig, RunConfig,
                          _base_thresholds, build_parser, main)
from latebind.clock import MAX_SIGMA, SimulatedClock
from latebind.engine import EngineConfig
from latebind.policy import ORCHESTRATED, Thresholds


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


def test_run_with_thresholds_file(tmp_path):
    assert run_cli("calibrate", "--out", str(tmp_path), "--sigma", "0") == EXIT_OK
    code = run_cli("run", "--scenario", "stale_stats", "--queries", "6",
                   "--out", str(tmp_path),
                   "--thresholds", str(tmp_path / "calibration" / "thresholds.json"))
    assert code == EXIT_OK


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"queries": 10, "scenario": "input_scale_shift"}))
    code = run_cli("run", "--config", str(cfg), "--queries", "5", "--out", str(tmp_path))
    assert code == EXIT_OK
    banner = capsys.readouterr().out.splitlines()[0]
    resolved = json.loads(banner.removeprefix("config: "))
    assert resolved["queries"] == 5  # flag beats config file
    assert resolved["scenario"] == "input_scale_shift"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # mem_high and clock were config fields; a file that still has one is rejected too
    for key in ("nonsense", "mem_high", "clock"):
        cfg.write_text(json.dumps({key: 1}))
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err


def test_every_flag_is_a_config_field():
    # _apply_flags reads only the command's config fields, so any other dest
    # would be ignored; and every field of a command's config has its flag
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, kind in (("calibrate", CalibrateConfig), ("run", RunConfig)):
        dests = {action.dest for action in subparsers.choices[command]._actions
                 if action.dest not in ("help", "config")}
        assert dests == set(kind.__dataclass_fields__), (command, dests)


def test_each_command_config_holds_the_shared_and_its_own_fields():
    shared = set(CommonConfig.__dataclass_fields__)
    assert shared == {"seed", "sigma", "out", "rho_join", "offload_margin"}
    run, calibrate = set(RunConfig.__dataclass_fields__), set(CalibrateConfig.__dataclass_fields__)
    assert run & calibrate == shared
    assert (len(run), len(calibrate)) == (13, 10)


@pytest.mark.parametrize("command,doc", [
    ("run", {"accel_setup": 5, "repetitions": 9, "sizes": [1, 2]}),
    ("calibrate", {"scenario": "break_even", "clock": "wall", "fact_rows": 5}),
], ids=["run", "calibrate"])
def test_other_commands_config_keys_rejected(tmp_path, capsys, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown config keys: {sorted(doc)}\n"
    assert list(tmp_path.iterdir()) == [cfg]   # nothing written


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

    def latencies(mode: str) -> list[str]:
        path = tmp_path / "stale_stats" / mode / "samples.csv"
        return [line.split(",")[2] for line in path.read_text().splitlines()[1:]]

    assert latencies("orchestrated") == latencies("baseline")
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


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LATEBIND_OUT", str(tmp_path / "envout"))
    code = run_cli("calibrate", "--sigma", "0")
    assert code == EXIT_OK
    assert (tmp_path / "envout" / "calibration" / "thresholds.json").exists()


def _write_samples(path: Path, mode: str, latencies: list[float]) -> None:
    lines = ["mode,query_id,latency,failed"]
    lines += [f"{mode},q{i:03d},{v!r},0" for i, v in enumerate(latencies)]
    path.write_text("\n".join(lines) + "\n")


def test_report_identical_files_unit_ratio(tmp_path, capsys):
    a = tmp_path / "baseline.csv"
    b = tmp_path / "orch.csv"
    _write_samples(a, "baseline", [float(i) for i in range(1, 101)])
    _write_samples(b, "orchestrated", [float(i) for i in range(1, 101)])
    assert run_cli("report", str(a), str(b)) == EXIT_OK
    out = capsys.readouterr().out
    assert "p50     1.00  p95     1.00  p99     1.00" in out


def test_report_tenfold_ratio(tmp_path, capsys):
    a = tmp_path / "baseline.csv"
    b = tmp_path / "orch.csv"
    _write_samples(a, "baseline", [float(10 * i) for i in range(1, 101)])
    _write_samples(b, "orchestrated", [float(i) for i in range(1, 101)])
    assert run_cli("report", str(a), str(b)) == EXIT_OK
    out = capsys.readouterr().out
    assert "p99    10.00" in out


def test_report_missing_file_names_path(tmp_path, capsys):
    missing = tmp_path / "nowhere" / "samples.csv"
    assert run_cli("report", str(missing)) == EXIT_VALIDATION
    assert str(missing) in capsys.readouterr().err


def test_report_duplicate_mode_names_both_paths(tmp_path, capsys):
    a = tmp_path / "first.csv"
    b = tmp_path / "second.csv"
    _write_samples(a, "baseline", [1.0, 2.0])
    _write_samples(b, "baseline", [3.0, 4.0])
    assert run_cli("report", str(a), str(b)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(a) in err and str(b) in err


@pytest.mark.parametrize("text,message", [
    ("baseline,q000,5.0,0\n", "does not start with the header"),
    ("mode,query_id,latency,failed\nbaseline,q000,fast,0\n", "'fast', not a number"),
    ("mode,query_id,latency,failed\n", "no rows in"),
    ("mode,query_id,latency,failed\nbaseline,q000,nan,0\n", "q000 has latency 'nan'"),
    ("mode,query_id,latency,failed\nbaseline,q000,-3,0\n", "q000 has latency '-3'"),
    ("mode,query_id,latency,failed\nbaseline,q000,5.0\n", "q000 has failed None"),
    ("mode,query_id,latency,failed\nbaseline,q000,5.0,yes\n", "q000 has failed 'yes'"),
    ("mode,query_id,latency,failed\nbaseline,q000,5.0,0,extra\n",
     "q000 has more cells than the header"),
    ("mode,query_id,latency,failed\nbaseline,q000,5.0,0\nbaseline,q000,6.0,0\n",
     "q000 appears more than once"),
], ids=["no_header", "latency_not_a_number", "no_rows", "latency_nan", "latency_negative",
        "no_failed_cell", "failed_not_0_or_1", "extra_cell", "repeated_query_id"])
def test_report_malformed_samples_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "samples.csv"
    path.write_text(text)
    assert run_cli("report", str(path)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and message in err


def test_report_of_a_mode_whose_every_query_failed(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("mode,query_id,latency,failed\n"
                    "baseline,q000,812.5,1\n"
                    "baseline,q001,0.0,1\n")
    assert run_cli("report", str(path)) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"{'baseline':<20}" + f"{'nan':>14}" * 4 + "     2"
    assert out[3].startswith("baseline            p50      nan")


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


def test_report_mixed_mode_file_names_path_and_modes(tmp_path, capsys):
    mixed = tmp_path / "samples.csv"
    mixed.write_text("mode,query_id,latency,failed\n"
                     "baseline,q000,5.0,0\n"
                     "orchestrated,q001,7.0,0\n")
    assert run_cli("report", str(mixed)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert str(mixed) in captured.err
    assert "baseline" in captured.err and "orchestrated" in captured.err
    assert captured.out == ""


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


def test_report_reprints_run_comparison(tmp_path, capsys):
    scenario = bench.scenario_stale_stats(seed=2, query_count=10)
    reports = bench.run_scenario(scenario, SimulatedClock(sigma=0.05))
    # one failed query, as a memory-exhausted execution leaves it
    orch = reports[ORCHESTRATED]
    rows = list(orch.rows)
    rows[3] = replace(rows[3], failed=True)
    reports[ORCHESTRATED] = bench.build_report(
        orch.scenario, orch.mode, orch.seed, orch.thresholds_source, rows)
    paths = [str(path) for report in reports.values()
             for path in bench.report_emit(report, tmp_path) if path.name == "samples.csv"]
    assert run_cli("report", *paths) == EXIT_OK
    out = capsys.readouterr().out
    assert out == bench.compare_reports(reports)
    assert "     1\n" in out  # the failed row is counted


def test_break_even_rejects_fact_rows(tmp_path, capsys):
    # break_even sizes its fact table from its own sweep
    code = run_cli("run", "--scenario", "break_even", "--queries", "3",
                   "--fact-rows", "500", "--out", str(tmp_path))
    assert code == EXIT_VALIDATION
    assert "fact_rows" in capsys.readouterr().err
    assert not (tmp_path / "break_even").exists()


@pytest.mark.parametrize("flag,value,scenarios", [
    ("--drift-fraction", "0.9", ("stale_stats", "break_even")),
    ("--miscal-factor", "7", ("input_scale_shift", "stale_stats")),
    # the value input_scale_shift and break_even take by default
    ("--drift-fraction", "0.2", ("stale_stats", "break_even")),
    ("--miscal-factor", "2.0", ("input_scale_shift", "stale_stats")),
], ids=["drift_fraction", "miscal_factor", "drift_fraction_default",
        "miscal_factor_default"])
def test_scenario_flag_on_other_scenario_rejected(tmp_path, capsys, flag, value, scenarios):
    for scenario in scenarios:
        code = run_cli("run", "--scenario", scenario, "--queries", "3", flag, value,
                       "--out", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert not (tmp_path / scenario).exists()


def test_scenario_key_in_config_file_on_other_scenario_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "stale_stats", "drift_fraction": 0.2}))
    code = run_cli("run", "--config", str(cfg), "--queries", "3", "--out", str(tmp_path))
    assert code == EXIT_VALIDATION
    assert "drift_fraction (--drift-fraction) does not apply to stale_stats; " \
        "it applies to input_scale_shift" in capsys.readouterr().err
    assert not (tmp_path / "stale_stats").exists()


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


@pytest.mark.parametrize("doc,message", [
    ({"queries": "a"}, "config key 'queries' takes int, not 'a'"),
    ({"modes": 5}, "config key 'modes' takes tuple[str, ...], not 5"),
    # JSON true is no integer, though Python's bool is an int
    ({"queries": True}, "config key 'queries' takes int, not True"),
    (["seed"], "a config document must be a JSON object, not ['seed']"),
])
def test_config_value_of_another_type_exits_1_without_traceback(tmp_path, capsys, doc,
                                                                message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "input_scale_shift").exists()


def column_spec(**overrides) -> dict:
    return {"name": "t", "row_count": 5,
            "columns": [{"name": "a", "low": 0, "high": 9, **overrides}]}


THRESHOLDS_RUN = ("run", "--scenario", "stale_stats", "--queries", "2", "--thresholds")


@pytest.mark.parametrize("argv,doc,message", [
    (THRESHOLDS_RUN, {"rho_join": "a"}, "threshold key 'rho_join' takes float, not 'a'"),
    (THRESHOLDS_RUN, {"n_star": {"filter": "x"}},
     "threshold key 'n_star' takes dict[str, float], not 'x'"),
    (THRESHOLDS_RUN, [1, 2], "a threshold document must be a JSON object, not [1, 2]"),
    (("gen", "--spec"), column_spec(low="x"), "column spec key 'low' takes int, not 'x'"),
    (("gen", "--spec"), column_spec(distribution="zipf", skew="q"),
     "column spec key 'skew' takes float, not 'q'"),
    (("gen", "--spec"), {"row_count": 5, "columns": column_spec()["columns"]},
     "table spec lacks keys ['name']"),
    # a number written as a string is no number
    (("gen", "--spec"), {**column_spec(), "row_count": "5"},
     "table spec key 'row_count' takes int, not '5'"),
    # a negative N* would offload every filter, a NaN one no aggregate
    (("run", "--scenario", "break_even", "--queries", "2", "--thresholds"),
     {"n_star": {"filter": -1, "aggregate": math.nan}, "source": "x"},
     "n_star['filter'] must be > 0 or inf, got -1"),
    (THRESHOLDS_RUN, {"n_star": {"aggregate": math.nan}, "source": "x"},
     "n_star['aggregate'] must be > 0 or inf, got nan"),
    (THRESHOLDS_RUN, {"n_star": {"join": 5.0}, "source": "x"},
     "n_star key 'join' is no offloadable kind ('filter', 'aggregate')"),
])
def test_malformed_json_file_exits_1_without_traceback(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = ("--out", str(tmp_path)) if argv[0] == "run" else ()
    assert run_cli(*argv, str(path), *out) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.out


@pytest.mark.parametrize("argv", [("run", "--config"), ("calibrate", "--config"),
                                  ("gen", "--spec"), THRESHOLDS_RUN])
def test_integer_too_long_for_int_exits_1_without_traceback(tmp_path, capsys, argv):
    # json.dumps cannot write it: int() takes at most 4300 digits
    path = tmp_path / "doc.json"
    path.write_text('{"seed": ' + "1" * 4400 + "}")
    out = ("--out", str(tmp_path)) if argv[0] != "gen" else ()
    assert run_cli(*argv, str(path), *out) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {path}: Exceeds the limit (4300 digits) ")


@pytest.mark.parametrize("argv", [("run", "--config"), THRESHOLDS_RUN, ("gen", "--spec")],
                         ids=["config", "thresholds", "spec"])
def test_json_syntax_error_names_the_file(tmp_path, capsys, argv):
    # with --config and --thresholds both given, the line says which is bad
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text("{}")
    bad.write_text('{"seed": ')
    other = {"--config": ("--thresholds", str(good)), "--thresholds": ("--config", str(good)),
             "--spec": ()}[argv[-1]]
    out = ("--out", str(tmp_path)) if argv[0] == "run" else ()
    assert run_cli(*argv, str(bad), *other, *out) == EXIT_VALIDATION
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


@pytest.mark.parametrize("scenario", bench.SCENARIO_NAMES)
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


def test_calibrate_grid_collapse_exits_1(tmp_path, capsys):
    # a 1-unit setup puts the model break-even near one row, where the
    # default grid's sizes round onto each other
    assert run_cli("calibrate", "--accel-setup", "1", "--out", str(tmp_path)) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: size grid collapsed")


def test_gen_writes_csv(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "demo", "row_count": 6,
        "columns": [{"name": "k", "low": 0, "high": 9},
                    {"name": "z", "low": 0, "high": 99, "distribution": "zipf",
                     "skew": 1.3}]}))
    assert run_cli("gen", "--spec", str(spec), "--seed", "2") == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "k,z"
    assert len(lines) == 7
    # deterministic: a second run prints the same bytes
    assert run_cli("gen", "--spec", str(spec), "--seed", "2") == EXIT_OK
    assert capsys.readouterr().out == out


def test_gen_rows_override(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "demo", "row_count": 3,
                                "columns": [{"name": "k", "low": 0, "high": 9}]}))
    out_file = tmp_path / "table.csv"
    assert run_cli("gen", "--spec", str(spec), "--rows", "9",
                   "--out-file", str(out_file)) == EXIT_OK
    assert len(out_file.read_text().strip().splitlines()) == 10


REPORT_FILES = ("samples.csv", "cdf.csv", "summary.txt")


def mode_files(out: Path, scenario: str) -> dict[str, bytes]:
    return {f"{mode.name}/{name}": (mode / name).read_bytes()
            for mode in sorted(p for p in (out / scenario).iterdir() if p.is_dir())
            for name in REPORT_FILES}


def test_run_config_json_feeds_back(tmp_path):
    assert run_cli("run", "--scenario", "stale_stats", "--queries", "6", "--seed", "3",
                   "--rho-join", "20", "--dim-rows", "4000",
                   "--out", str(tmp_path / "a")) == EXIT_OK
    written = tmp_path / "a" / "stale_stats" / "config.json"
    assert json.loads(written.read_text())["command"] == "run"
    assert run_cli("run", "--config", str(written), "--out", str(tmp_path / "b")) == EXIT_OK
    first, second = mode_files(tmp_path / "a", "stale_stats"), mode_files(tmp_path / "b",
                                                                          "stale_stats")
    assert len(first) == 3 * len(REPORT_FILES)
    assert first == second
    again = json.loads((tmp_path / "b" / "stale_stats" / "config.json").read_text())
    assert again == {**json.loads(written.read_text()), "out": str(tmp_path / "b")}


def test_run_config_json_with_unset_scenario_settings_feeds_back(tmp_path):
    assert run_cli("run", "--scenario", "break_even", "--queries", "4",
                   "--out", str(tmp_path / "a")) == EXIT_OK
    written = tmp_path / "a" / "break_even" / "config.json"
    doc = json.loads(written.read_text())
    assert [doc[name] for name in ("drift_fraction", "miscal_factor", "fact_rows",
                                   "dim_rows")] == [None] * 4
    assert run_cli("run", "--config", str(written), "--out", str(tmp_path / "b")) == EXIT_OK
    assert mode_files(tmp_path / "a", "break_even") == mode_files(tmp_path / "b",
                                                                  "break_even")


def test_calibrate_config_json_feeds_back(tmp_path):
    assert run_cli("calibrate", "--seed", "3", "--sizes", "3000,10000,30000",
                   "--accel-setup", "6000", "--out", str(tmp_path / "a")) == EXIT_OK
    written = tmp_path / "a" / "calibration" / "config.json"
    assert json.loads(written.read_text())["command"] == "calibrate"
    assert run_cli("calibrate", "--config", str(written),
                   "--out", str(tmp_path / "b")) == EXIT_OK
    for name in ("thresholds.json", "measurements.csv", "fits.csv", "break_evens.csv"):
        assert ((tmp_path / "a" / "calibration" / name).read_bytes()
                == (tmp_path / "b" / "calibration" / name).read_bytes()), name


def test_config_json_of_another_command_rejected(tmp_path, capsys):
    assert run_cli("run", "--queries", "3", "--out", str(tmp_path)) == EXIT_OK
    written = tmp_path / "input_scale_shift" / "config.json"
    capsys.readouterr()
    assert run_cli("calibrate", "--config", str(written), "--out", str(tmp_path)) \
        == EXIT_VALIDATION
    assert "'run', not 'calibrate'" in capsys.readouterr().err
    assert not (tmp_path / "calibration").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gen", "queries": 3}))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_VALIDATION
    assert "'gen', not 'run'" in capsys.readouterr().err


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
