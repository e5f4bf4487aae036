"""Every function that tests/unreached.py allows to stay unreached still
exists and has its reason, so the list cannot outlive the code it excuses."""

from __future__ import annotations

import importlib

import pytest

from unreached import ALLOWED


@pytest.mark.parametrize("name", list(ALLOWED))
def test_allowed_unreached_function_exists(name):
    module, _, qualname = name.partition(".")
    target = importlib.import_module(f"latebind.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target) and ALLOWED[name]
