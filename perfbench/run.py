"""latebind benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a source checkout; the program is imported from its ``src/``.
Each workload is a scenario at its default parameters, driven through the
public entry point ``latebind.cli.main(["run", ...])`` in this process, on
one thread.

--trace 0 (end-to-end metrics): times the set-up (importing latebind.cli in
fresh interpreters, one after another), then repeats whole scenario runs
until --seconds have passed and one pass over the workload's scenario seeds
is done.  Each seed's first run has its query results compared with the
oracle (oracle.py), outside the timed call; reruns must give the same
samples.csv bytes.

--trace 1 (per-layer metrics): one untraced and one traced run of the
scenario at seed --seed.  The traced run records a span around every call
into the layers (see layers.py).  Its samples.csv bytes must equal the
untraced run's, and every query result of both runs must equal the
oracle's.

Human-readable lines come first; the last line is the JSON result.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS pools are sized when numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINNED = HERE / "pinned.json"

# Scenario seeds per end-to-end run; one pass takes 20-40 s on 2 cores.
# Pooling seeds narrows the seed-to-seed spread of the simulated ratios:
# stale_stats' orchestrated latencies split into two clusters of about equal
# size, so its P50 ratio moves ~9% (quartile spread) between single seeds.
WORKLOADS = {"input_scale_shift": 2, "stale_stats": 12, "break_even": 3}
SEED_STRIDE = 100_000   # scenario seed k of a run is seed + k * SEED_STRIDE
SETUP_PROBES = 9
SETUP_PROBE = ("import sys, time\n"
               "t = time.perf_counter()\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "import latebind.cli\n"
               "print(time.perf_counter() - t, latebind.cli.__file__)\n")


@dataclass
class Run:
    """One cli.main(["run", ...]) call and what it left in samples.csv."""

    seed: int
    exit_code: int
    wall_s: float
    cpu_s: float    # process CPU time; printed beside wall_s to tell stolen time apart
    output: str
    digests: dict[str, str] = field(default_factory=dict)            # mode -> sha256
    latencies: dict[str, list[float]] = field(default_factory=dict)  # failures left out
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def environment() -> dict[str, object]:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "system": platform.system(),
            "machine": platform.machine(), "libc": "-".join(platform.libc_ver())}


def read_samples(run: Run, scenario_dir: Path, modes: tuple[str, ...], queries: int) -> None:
    """Check each mode's samples.csv; keep its digest and latencies."""
    expected_ids = [f"q{i:03d}" for i in range(queries)]
    for mode in modes:
        path = scenario_dir / mode / "samples.csv"
        if not path.is_file():
            run.problems.append(f"seed {run.seed}: no samples.csv for {mode}")
            run.failed += queries
            continue
        data = path.read_bytes()
        run.digests[mode] = hashlib.sha256(data).hexdigest()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if [r["query_id"] for r in rows] != expected_ids or {r["mode"] for r in rows} != {mode}:
            run.problems.append(f"seed {run.seed}: {mode} samples.csv does not hold "
                                f"{queries} queries in order")
            run.failed += queries
            continue
        ok = []
        for r in rows:
            latency = float(r["latency"])
            if r["failed"] not in ("0", "1") or not latency >= 0.0:
                run.problems.append(f"seed {run.seed}: {mode}/{r['query_id']} malformed row")
                run.failed += 1
            elif r["failed"] == "1":
                run.failed += 1
            else:
                ok.append(latency)
        run.latencies[mode] = ok


def run_scenario(cli, workload: str, seed: int, out: Path) -> Run:
    from latebind.policy import MODES
    argv = ["run", "--scenario", workload, "--seed", str(seed), "--out", str(out)]
    captured = io.StringIO()
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except Exception as exc:  # a crash loses the run's executions; report, go on
        code = -1
        captured.write(f"{type(exc).__name__}: {exc}\n")
    run = Run(seed, code, time.perf_counter() - start, time.process_time() - start_cpu,
              captured.getvalue())
    if code != 0:
        run.failed = executions_per_run(cli)
        run.problems.append(f"seed {seed}: cli exited {code}: {run.output.strip()[-300:]}")
    else:
        read_samples(run, out / workload, MODES, cli.RunConfig().queries)
    return run


def executions_per_run(cli) -> int:
    from latebind.policy import MODES
    return cli.RunConfig().queries * len(MODES)


def pinned_flag(workload: str, seed: int, env: dict, digests: dict[str, str]) -> str:
    """Compare samples.csv digests with those pinned beside this script.
    Latency bytes go through libm, so they are pinned per platform; on
    another platform the comparison is only flagged."""
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    here = {k: env[k] for k in pinned["env"]}
    if here != pinned["env"]:
        return f"cross-machine: digests pinned on {pinned['env']}, not comparable here"
    if seed != pinned["seed"] or workload not in pinned["digests"]:
        return f"not pinned (digests are pinned for seed {pinned['seed']})"
    if digests == pinned["digests"][workload]:
        return "match"
    return "DIFFERS from the pinned digests: a decision or a simulated latency changed"


def measure_setup() -> tuple[float, list[str]]:
    """Median seconds a fresh interpreter takes to import latebind.cli."""
    times, problems = [], []
    for _ in range(SETUP_PROBES):
        try:
            done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:   # run() has killed and reaped the probe
            problems.append("set-up probe timed out")
            continue
        fields = done.stdout.split()
        if done.returncode != 0 or len(fields) != 2 or not fields[1].startswith(str(SRC)):
            problems.append(f"set-up probe failed: {done.stderr.strip()[-300:]}")
            continue
        times.append(float(fields[0]))
    return (statistics.median(times) if times else 0.0), problems


def run_checked(cli, workload: str, seed: int, out: Path) -> Run:
    """run_scenario with every query result compared with the oracle."""
    import layers
    import oracle
    with layers.captured_executions() as executions:
        run = run_scenario(cli, workload, seed, out)
    found = oracle.mismatches(executions)
    run.failed += len(found)
    run.problems += found
    return run


def end_to_end(cli, workload: str, seed: int, seconds: int, out: Path) -> dict:
    from latebind.policy import BASELINE, ORCHESTRATED
    from layers import nearest_rank
    setup_s, problems = measure_setup()
    seeds = [seed + k * SEED_STRIDE for k in range(WORKLOADS[workload])]
    runs: list[Run] = []
    start = time.perf_counter()
    while len(runs) < len(seeds) or time.perf_counter() - start < seconds:
        seed_k = seeds[len(runs) % len(seeds)]
        first_pass = len(runs) < len(seeds)   # reruns are checked by their digests
        runs.append(run_checked(cli, workload, seed_k, out) if first_pass
                    else run_scenario(cli, workload, seed_k, out))
    digests: dict[int, dict[str, str]] = {}
    for run in runs:
        problems += run.problems
        if run.exit_code == 0 and digests.setdefault(run.seed, run.digests) != run.digests:
            problems.append(f"seed {run.seed}: a rerun's samples.csv bytes differ")
    per_run = executions_per_run(cli)
    completed = [per_run / r.wall_s for r in runs if r.exit_code == 0]
    # simulated percentiles pool one pass over the seeds: 200 samples per seed
    pooled = {mode: [x for r in runs[:len(seeds)] for x in r.latencies.get(mode, [])]
              for mode in (BASELINE, ORCHESTRATED)}
    if not (completed and all(pooled.values())):
        problems.append("no completed run to measure")
        completed, pooled = [0.0], {mode: [1.0] for mode in pooled}   # keeps the JSON valid
    metrics = {
        "exec_per_s": (statistics.median(completed), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "sim_p99_ratio": (nearest_rank(pooled[ORCHESTRATED], 99)
                          / nearest_rank(pooled[BASELINE], 99), "ratio"),
        "sim_p50_ratio": (nearest_rank(pooled[ORCHESTRATED], 50)
                          / nearest_rank(pooled[BASELINE], 50), "ratio"),
    }
    notes = [f"run seed={r.seed} wall_s={r.wall_s:.3f} cpu_s={r.cpu_s:.3f} exit={r.exit_code}"
             for r in runs]
    notes.append(f"oracle: every result of the first {len(seeds)} runs compared")
    notes += [f"digest seed={seeds[0]} {mode} {d}" for mode, d in runs[0].digests.items()]
    return {"metrics": metrics, "problems": problems, "notes": notes,
            "digests": runs[0].digests, "attempted": per_run * len(runs),
            "failed": sum(r.failed for r in runs)}


def per_layer(cli, workload: str, seed: int, out: Path) -> dict:
    import layers
    import oracle
    from spans import Recorder, write_csv

    untraced = run_checked(cli, workload, seed, out / "untraced")
    rec = Recorder()
    layers.install(rec)
    try:
        traced = run_scenario(cli, workload, seed, out / "traced")
    finally:
        rec.restore()
    spans = rec.finish()
    write_csv(spans, out / "spans.csv")
    executions = layers.executions(spans)
    found = oracle.mismatches(executions)
    problems = untraced.problems + traced.problems + found
    failed = untraced.failed + traced.failed + len(found)
    if untraced.exit_code == 0 and traced.digests != untraced.digests:
        problems.append("traced samples.csv bytes differ from the untraced run's")

    metrics = layers.layer_metrics(spans)
    metrics["tracing_overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    notes = [f"untraced wall_s={untraced.wall_s:.3f} cpu_s={untraced.cpu_s:.3f}",
             f"traced wall_s={traced.wall_s:.3f} cpu_s={traced.cpu_s:.3f}",
             f"oracle: {len(executions)} traced executions compared", f"spans {len(spans)}"]
    for name, digests in (("untraced", untraced.digests), ("traced", traced.digests)):
        notes += [f"digest {name} seed={seed} {mode} {d}" for mode, d in digests.items()]
    return {"metrics": metrics, "problems": problems, "notes": notes,
            "digests": untraced.digests,
            "attempted": 2 * executions_per_run(cli), "failed": failed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "latebind" / "cli.py").is_file():
        print(f"error: no latebind sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from latebind import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: latebind imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out = OUT / args.workload / f"trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    env = environment()
    if args.trace:
        result = per_layer(cli, args.workload, args.seed, out)
    else:
        result = end_to_end(cli, args.workload, args.seed, args.seconds, out)

    for line in result["notes"]:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print("pinned " + pinned_flag(args.workload, args.seed, env, result["digests"]))
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_share {failed / attempted!r} share ({failed}/{attempted} executions)")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    for problem in result["problems"]:
        print(f"problem {problem}")
    doc = {"correct": not result["problems"],
           "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in result["metrics"].items()}}
    (out / "result.json").write_text(json.dumps({**doc, "env": env}, indent=1) + "\n",
                                     encoding="utf-8")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
