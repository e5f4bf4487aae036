"""The traced benchmark (perfbench/layers.py) wraps program attributes by
name from outside the package; a rename or deletion there breaks
``perfbench/run.py --trace 1`` with an AttributeError, so it is checked here."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    recorder = spans.Recorder()
    try:
        layers.install(recorder)  # looks up every attribute it wraps
        patched = list(recorder._patched)
        assert patched
        for owner, attr, original in patched:
            assert callable(original), f"{owner}.{attr}"
            assert getattr(owner, attr) is not original
    finally:
        recorder.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"


def test_traced_run_yields_every_per_layer_metric(monkeypatch, tmp_path):
    # layer_metrics also reads program names it does not wrap (for example
    # policy.REEVALUATE), so a short traced run must produce every metric
    # BENCHMARK.json lists; tracing_overhead_s is computed by run.py itself
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    from latebind import cli

    recorder = spans.Recorder()
    try:
        layers.install(recorder)
        assert cli.main(["run", "--scenario", "stale_stats", "--queries", "5",
                         "--out", str(tmp_path)]) == cli.EXIT_OK
    finally:
        recorder.restore()
    recorded = recorder.finish()
    metrics = layers.layer_metrics(recorded)
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - {"tracing_overhead_s"} - set(metrics)
    assert not missing
    # the decision path calls every wrapped name, so none of them reads 0
    for name in ("policy.decide.calls", "engine.decision_hook.s", "engine.observe.s"):
        assert metrics[name][0] > 0, name
    # layers.join_input_key and engine.join_repeat_* read the joins that
    # execute itself calls: each join kernel's span must open inside it
    joins = [s for s in recorded if s.name in (layers.HASH_JOIN, layers.NESTED_LOOP)]
    assert joins
    assert all(s.parent >= 0 and recorded[s.parent].name == layers.EXECUTE for s in joins)
