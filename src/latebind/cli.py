"""Command-line entry point.

Subcommands:
  calibrate  microbenchmark both devices, fit cost lines, derive
             break-evens, and write a thresholds file
  run        execute a benchmark scenario under the requested modes and
             emit per-mode report files

Configuration precedence: command-line flags > built-in defaults.  Every
command echoes its resolved configuration, and run/calibrate write it next
to their outputs as config.json, the record of the run, which no command
reads.  Exit codes: 0 success, also when every query of a mode fails; 1 bad
input; 2 result-equivalence failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from . import bench
from .accel import calibrate_break_evens
from .clock import SimulatedClock
from .errors import (ResultMismatchError, ValidationError, csv_text, json_text, load_json,
                     write_file)
from .planner import AcceleratorCost, CostModel
from .policy import MODES, Thresholds, calibrate, calibration_report

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


def _comma_separated(item: type) -> Callable[[str], tuple]:
    """An argparse type: a comma-separated list of `item`s, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(item(part) for part in text.split(","))
    parse.__name__ = f"comma-separated {item.__name__}"   # argparse's error names it
    return parse


def _resolve(args: argparse.Namespace, kind: type[CommonConfig]) -> CommonConfig:
    """`kind` with each setting that a flag gives, and its default for the rest."""
    given = {name: getattr(args, name) for name in kind.__dataclass_fields__}
    return kind(**{name: value for name, value in given.items() if value is not None})


def _banner(cfg: CommonConfig, command: str) -> str:
    return "config: " + json.dumps({**asdict(cfg), "command": command}, sort_keys=True)


def _base_thresholds(cfg: CommonConfig) -> Thresholds:
    return Thresholds(rho_join=cfg.rho_join, offload_margin=cfg.offload_margin)


def _calibration_model(cfg: CalibrateConfig) -> CostModel:
    base = CostModel.default()
    return replace(base, cpu={**base.cpu, **dict.fromkeys(base.accel, cfg.cpu_per_item)},
                   accel=dict.fromkeys(base.accel, AcceleratorCost(cfg.accel_setup,
                                                                   cfg.accel_per_item)))


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
    write_file(out_dir / "thresholds.json", json_text(thresholds))
    write_file(out_dir / "measurements.csv",
               csv_text("op_kind,device,n,cost", map(astuple, measurements)))
    write_file(out_dir / "fits.csv",
               csv_text("device,op_kind,slope,intercept,residual", map(astuple, fits)))
    write_file(out_dir / "break_evens.csv", csv_text(
        "op_kind,n_star_estimated,n_star_observed,relative_error",
        ((kind, None, None, None) if be is None else
         (kind, be.n_star_estimated, be.n_star_observed, be.relative_error)
         for kind, be in sorted(break_evens.items()))))
    write_file(out_dir / "config.json", json_text(cfg, command="calibrate"))

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
    build = bench.SCENARIOS[cfg.scenario]
    extra = {name: getattr(cfg, name) for name in _SCENARIO_FIELDS
             if getattr(cfg, name) is not None}
    for name in extra:
        if name not in inspect.signature(build).parameters:
            takers = [scenario for scenario, other in bench.SCENARIOS.items()
                      if name in inspect.signature(other).parameters]
            raise ValidationError(f"{name} (--{name.replace('_', '-')}) does not apply to "
                                  f"{cfg.scenario}; it applies to {', '.join(takers)}")
    return build(seed=cfg.seed, query_count=cfg.queries, modes=cfg.modes, **extra)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve(args, RunConfig)
    print(_banner(cfg, "run"))
    scenario = _build_scenario(cfg)
    clock = SimulatedClock(sigma=cfg.sigma)
    thresholds = bench.scenario_thresholds(scenario, _base_thresholds(cfg))
    if cfg.thresholds_file:
        with open(cfg.thresholds_file, encoding="utf-8") as fh:
            thresholds[bench.ORCHESTRATED] = load_json(Thresholds, fh, "threshold")
    reports = bench.run_scenario(scenario, clock, thresholds=thresholds)
    out_dir = Path(cfg.out)
    for report in reports.values():
        bench.report_emit(report, out_dir)
    write_file(out_dir / scenario.name / "config.json", json_text(cfg, command="run"))
    print(bench.compare_reports(reports), end="")
    print(f"wrote {out_dir / scenario.name}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latebind",
        description="analytical engine and benchmark harness for runtime-late-bound "
                    "operator decisions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, help="master seed (default 1)")
        p.add_argument("--sigma", type=float,
                       help="simulated-clock noise sigma (default 0.05)")
        p.add_argument("--out", help="output directory (default ./out)")
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
                     help="accelerator cost per row, transfer and compute together "
                          "(default 0.2)")
    cal.add_argument("--repetitions", type=int, help="measurements per size (default 5)")
    cal.add_argument("--sizes", type=_comma_separated(int),
                     help="comma-separated measurement sizes")
    cal.set_defaults(func=cmd_calibrate)

    run = sub.add_parser("run", help="run a benchmark scenario")
    common(run)
    run.add_argument("--scenario", choices=bench.SCENARIOS,
                     help="scenario name (default input_scale_shift)")
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
                     help="thresholds JSON for the orchestrated mode, replacing its "
                          "thresholds whole, so that --rho-join and --offload-margin then "
                          "reach independent_gates only (default: the true device model's "
                          "break-evens)")
    run.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResultMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESULT_MISMATCH
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
