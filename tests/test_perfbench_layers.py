"""The traced benchmark (perfbench/layers.py) wraps program attributes by
name from outside the package; a rename or deletion there breaks
``perfbench/run.py --trace 1`` with an AttributeError, so it is checked here."""

from __future__ import annotations

import importlib
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
