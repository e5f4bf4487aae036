"""Every mutation of tests/mutants.py names a line that occurs exactly once
in its module, so a refactor that rewrites the line shows here, not only in
the mutation run, which would stop on it."""

from __future__ import annotations

import pytest

from mutants import MUTATIONS, ROOT, mutated


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_line_occurs_once(name):
    path, text = mutated(ROOT, name)
    assert text != path.read_text(encoding="utf-8")
