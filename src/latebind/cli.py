"""Command-line entry point.

Subcommands:
  calibrate  microbenchmark both devices, fit cost lines, derive
             break-evens, and write a thresholds file
  run        execute a benchmark scenario under the requested modes and
             emit per-mode report files
  report     print a percentile comparison from existing samples.csv files
  gen        dump a generated table as CSV for debugging

Configuration precedence: command-line flags > --config JSON file >
built-in defaults.  Every command echoes its resolved configuration, and
run/calibrate write it next to their outputs.  Exit codes: 0 success,
1 validation/configuration error, 2 result-equivalence failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from . import bench
from .accel import calibrate_break_evens, fits_csv, measurements_csv
from .clock import SimulatedClock, WallClock
from .datagen import dump_table_csv, generate_table, load_table_spec
from .errors import (ConfigurationError, ResultMismatchError, ValidationError, dump_json,
                     json_fields, load_json)
from .planner import AcceleratorCost, CostModel, LinearCost
from .policy import MODES, Thresholds, calibrate, calibration_report

ENV_OUT_DIR = "LATEBIND_OUT"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESULT_MISMATCH = 2


@dataclass(frozen=True)
class CommonConfig:
    """The settings that both calibrate and run take."""

    seed: int = 1
    sigma: float = 0.05
    out: str = "out"
    # decision thresholds
    rho_join: float = Thresholds.rho_join
    offload_margin: float = Thresholds.offload_margin


@dataclass(frozen=True)
class RunConfig(CommonConfig):
    scenario: str = bench.INPUT_SCALE_SHIFT
    clock: str = "simulated"
    queries: int = 200
    modes: tuple[str, ...] = MODES
    drift_fraction: Optional[float] = None   # None = scenario default
    miscal_factor: Optional[float] = None
    fact_rows: Optional[int] = None
    dim_rows: Optional[int] = None
    thresholds_file: str = ""


@dataclass(frozen=True)
class CalibrateConfig(CommonConfig):
    cpu_per_item: float = 1.0
    accel_setup: float = 8000.0
    accel_per_item: float = 0.2
    repetitions: int = 5
    sizes: tuple[int, ...] = ()   # empty = grid centered on the model crossover


def _load_config(path: Optional[str], command: str, kind: type[CommonConfig]) -> CommonConfig:
    """The config file's settings, each of its field's type in the command's
    config type `kind`; the "command" key that _write_config adds must name
    the running subcommand."""
    if not path:
        return kind()
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    written_by = doc.pop("command", command) if isinstance(doc, dict) else command
    if written_by != command:
        raise ValidationError(f"config file {path} is for {written_by!r}, not {command!r}")
    return kind(**json_fields(kind, doc, "config"))


def _apply_flags(cfg: CommonConfig, args: argparse.Namespace) -> CommonConfig:
    updates = {}
    for name in cfg.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    return replace(cfg, **updates)


def _comma_separated(item: type) -> Callable[[str], tuple]:
    """An argparse type: a comma-separated list of `item`s, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(item(part) for part in text.split(","))
    parse.__name__ = f"comma-separated {item.__name__}"   # argparse's error names it
    return parse


def _resolve(args: argparse.Namespace, kind: type[CommonConfig]) -> CommonConfig:
    cfg = _load_config(getattr(args, "config", None), args.command, kind)
    if getattr(args, "out", None) is None and os.environ.get(ENV_OUT_DIR) and cfg.out == "out":
        cfg = replace(cfg, out=os.environ[ENV_OUT_DIR])
    return _apply_flags(cfg, args)


def _banner(cfg: CommonConfig, command: str) -> str:
    return "config: " + json.dumps({**asdict(cfg), "command": command}, sort_keys=True)


def _write_config(cfg: CommonConfig, command: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8", newline="\n") as fh:
        dump_json(cfg, fh, command=command)


def _clock(cfg: RunConfig) -> SimulatedClock | WallClock:
    if cfg.clock == "simulated":
        return SimulatedClock(sigma=cfg.sigma)
    if cfg.clock == "wall":
        return WallClock()
    raise ValidationError(f"unknown clock mode {cfg.clock!r}")


def _base_thresholds(cfg: CommonConfig) -> Thresholds:
    return Thresholds(rho_join=cfg.rho_join, offload_margin=cfg.offload_margin)


def _calibration_model(cfg: CalibrateConfig) -> CostModel:
    base = CostModel.default()
    cpu = {kind: (LinearCost(cfg.cpu_per_item, 0.0) if kind in base.accel else line)
           for kind, line in base.cpu.items()}
    accel = {kind: AcceleratorCost(setup=cfg.accel_setup,
                                   transfer=cfg.accel_per_item / 2.0,
                                   compute=cfg.accel_per_item / 2.0)
             for kind in base.accel}
    return CostModel(cpu=cpu, accel=accel, join=base.join)


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, CalibrateConfig)
    print(_banner(cfg, "calibrate"))
    model = _calibration_model(cfg)
    clock = SimulatedClock(sigma=cfg.sigma)
    break_evens, measurements, fits = calibrate_break_evens(
        model, clock, cfg.seed, sizes=list(cfg.sizes) or None,
        repetitions=cfg.repetitions)
    thresholds = calibrate(break_evens, _base_thresholds(cfg))

    out_dir = Path(cfg.out) / "calibration"
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "thresholds.json").open("w", encoding="utf-8", newline="\n") as fh:
        dump_json(thresholds, fh)
    with (out_dir / "measurements.csv").open("w", encoding="utf-8", newline="\n") as fh:
        measurements_csv(measurements, fh)
    with (out_dir / "fits.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fits_csv(fits, fh)
    with (out_dir / "break_evens.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("op_kind,n_star_estimated,n_star_observed,relative_error\n")
        for kind, be in sorted(break_evens.items()):
            if be is None:
                fh.write(f"{kind},,,\n")
            else:
                fh.write(f"{kind},{be.n_star_estimated!r},{be.n_star_observed!r},"
                         f"{be.relative_error!r}\n")
    _write_config(cfg, "calibrate", out_dir / "config.json")

    print(calibration_report(thresholds), end="")
    missing = [kind for kind, be in break_evens.items() if be is None]
    for kind, be in sorted(break_evens.items()):
        if be is not None:
            print(f"break-even[{kind}]: estimated {be.n_star_estimated:.2f}  "
                  f"observed {be.n_star_observed:.2f}  "
                  f"relative_error {be.relative_error:.4%}")
    print(f"wrote {out_dir}/thresholds.json")
    if missing:
        print(f"warning: no break-even for {', '.join(missing)}; "
              f"offloading disabled for these op kinds", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# settings that a scenario takes when its builder has a parameter of that name
_SCENARIO_FIELDS = ("drift_fraction", "miscal_factor", "fact_rows", "dim_rows")


def _build_scenario(cfg: RunConfig) -> bench.Scenario:
    builders = {
        bench.INPUT_SCALE_SHIFT: bench.scenario_input_scale_shift,
        bench.STALE_STATS: bench.scenario_stale_stats,
        bench.BREAK_EVEN: bench.scenario_break_even,
    }
    if cfg.scenario not in builders:
        raise ValidationError(f"unknown scenario {cfg.scenario!r}")
    build = builders[cfg.scenario]
    extra = {name: getattr(cfg, name) for name in _SCENARIO_FIELDS
             if getattr(cfg, name) is not None}
    for name in extra:
        if name not in inspect.signature(build).parameters:
            takers = [scenario for scenario, other in builders.items()
                      if name in inspect.signature(other).parameters]
            raise ValidationError(f"{name} (--{name.replace('_', '-')}) does not apply to "
                                  f"{cfg.scenario}; it applies to {', '.join(takers)}")
    return build(seed=cfg.seed, query_count=cfg.queries, modes=cfg.modes, **extra)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve(args, RunConfig)
    print(_banner(cfg, "run"))
    scenario = _build_scenario(cfg)
    clock = _clock(cfg)
    thresholds = bench.scenario_thresholds(scenario, _base_thresholds(cfg))
    if cfg.thresholds_file:
        with open(cfg.thresholds_file, encoding="utf-8") as fh:
            thresholds[bench.ORCHESTRATED] = load_json(Thresholds, fh, "threshold")
    reports = bench.run_scenario(scenario, clock, thresholds=thresholds)
    out_dir = Path(cfg.out)
    for report in reports.values():
        bench.report_emit(report, out_dir)
    _write_config(cfg, "run", out_dir / scenario.name / "config.json")
    print(bench.compare_reports(reports), end="")
    print(f"wrote {out_dir / scenario.name}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    reports = {}
    paths = {}
    for raw in args.paths:
        mode, rows = bench.read_samples(Path(raw))
        if mode in paths:
            raise ValidationError(f"{paths[mode]} and {raw} both hold mode {mode!r}")
        paths[mode] = raw
        # samples.csv records no scenario, seed, clock or thresholds source
        reports[mode] = bench.build_report("", mode, 0, "", "", rows)
    print(bench.compare_reports(reports), end="")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    spec = load_table_spec(args.spec)
    if args.rows is not None:
        spec = replace(spec, row_count=args.rows)
    table = generate_table(spec, args.seed if args.seed is not None else 1)
    if args.out_file:
        with open(args.out_file, "w", encoding="utf-8", newline="\n") as fh:
            dump_table_csv(table, fh)
        print(f"wrote {args.out_file}")
    else:
        dump_table_csv(table, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latebind",
        description="analytical engine and benchmark harness for runtime-late-bound "
                    "operator decisions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, help="master seed (default 1)")
        p.add_argument("--sigma", type=float,
                       help="simulated-clock noise sigma (default 0.05)")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or ./out)")
        p.add_argument("--rho-join", dest="rho_join", type=float,
                       help="estimate-ratio trigger for join re-selection (default 10)")
        p.add_argument("--offload-margin", dest="offload_margin", type=float,
                       help="safety multiplier on the break-even size (default 1.1)")

    cal = sub.add_parser("calibrate", help="fit device cost lines and derive break-evens")
    common(cal)
    cal.add_argument("--cpu-per-item", dest="cpu_per_item", type=float,
                     help="cpu cost per row for offloadable ops (default 1.0)")
    cal.add_argument("--accel-setup", dest="accel_setup", type=float,
                     help="accelerator up-front cost (default 8000)")
    cal.add_argument("--accel-per-item", dest="accel_per_item", type=float,
                     help="accelerator transfer+compute cost per row (default 0.2)")
    cal.add_argument("--repetitions", type=int, help="measurements per size (default 5)")
    cal.add_argument("--sizes", type=_comma_separated(int),
                     help="comma-separated measurement sizes")
    cal.set_defaults(func=cmd_calibrate)

    run = sub.add_parser("run", help="run a benchmark scenario")
    common(run)
    run.add_argument("--scenario", choices=bench.SCENARIO_NAMES,
                     help="scenario name (default input_scale_shift)")
    run.add_argument("--clock", choices=("simulated", "wall"),
                     help="clock mode (default simulated)")
    run.add_argument("--queries", type=int, help="queries per scenario (default 200)")
    run.add_argument("--modes", type=_comma_separated(str),
                     help="comma-separated execution modes (default all)")
    run.add_argument("--drift-fraction", dest="drift_fraction", type=float,
                     help="drifted query fraction for input_scale_shift "
                          "(default 0.2; 0 = zero-drift control)")
    run.add_argument("--miscal-factor", dest="miscal_factor", type=float,
                     help="planner device-model error factor for break_even (default 2.0)")
    run.add_argument("--fact-rows", dest="fact_rows", type=int, help="fact table rows")
    run.add_argument("--dim-rows", dest="dim_rows", type=int, help="dim table rows")
    run.add_argument("--thresholds", dest="thresholds_file",
                     help="thresholds JSON for the orchestrated mode "
                          "(default: calibrate internally, noise-free)")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="compare existing samples.csv files")
    rep.add_argument("paths", nargs="+", help="samples.csv paths, one per mode")
    rep.set_defaults(func=cmd_report)

    gen = sub.add_parser("gen", help="generate a table and dump it as CSV")
    gen.add_argument("--spec", required=True, help="table spec JSON file")
    gen.add_argument("--rows", type=int, help="row count override")
    gen.add_argument("--seed", type=int, help="generation seed (default 1)")
    gen.add_argument("--out-file", dest="out_file", help="CSV path (default stdout)")
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResultMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESULT_MISMATCH
    except (ValidationError, ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
