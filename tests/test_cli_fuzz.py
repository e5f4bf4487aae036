"""A fuzz of the command line over the two kinds of input it reads:
thresholds files and numeric flag values.  Whatever the input, latebind
exits 0, or exits 1 or 2 with an ``error:`` or ``usage:`` line on stderr
(or, from calibrate, the ``warning:`` line of a kind without a
break-even), and raises nothing.  Two kinds of thresholds file are drawn
as raw bytes, because json.dumps cannot write them: an integer of more
digits than int() takes, and text that is no JSON or no UTF-8.  A
thresholds file must also exit 1 exactly when one of its break-evens is no
positive number or inf, or names no offloadable kind.  A usage error
stops in argparse, before the program runs, so each fuzz also checks that
at least one of its examples reached main's body.

Every example is cheap: a flag that sizes the work is drawn small (at most
3 queries, a few thousand table rows, 4 measurement sizes and 3
repetitions), so no example depends on a limit to stay small.  The limits
on those settings (bench.MAX_QUERIES, datagen.MAX_TABLE_BYTES,
accel.MAX_MEASUREMENTS) are tested through their validators alone.  Every
output goes to a temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import fields
from typing import Callable, Optional

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from latebind.bench import SCENARIOS
from latebind.cli import main
from latebind.planner import OFFLOADABLE_KINDS
from latebind.policy import Thresholds


def fuzz(examples: int) -> Callable:
    """Run a fuzz on `examples` examples drawn from the fixed seed 1, so
    that they change only with its strategies, not with its body."""
    pinned = settings(database=None, deadline=None, max_examples=examples,
                      suppress_health_check=[HealthCheck.too_slow])
    return lambda test: seed(1)(pinned(test))


HUGE = st.sampled_from((2**63, 2**64 + 1, -2**63 - 1, 10**30, -10**30, 10**400))
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from((math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324,
                                    0.0, -0.0, 82.0, 82.5, 1000.0)))
TEXT = st.text(max_size=4)


def json_values(ints: st.SearchStrategy[int]) -> st.SearchStrategy[object]:
    """A value of any JSON type, a list or an object of scalars included,
    with integers drawn from `ints`."""
    scalars = st.one_of(st.none(), st.booleans(), ints, FLOATS, TEXT)
    return st.one_of(scalars, st.lists(scalars, max_size=3),
                     st.dictionaries(TEXT, scalars, max_size=2))


ANY = json_values(st.one_of(st.integers(), HUGE))
SIZES = st.lists(st.one_of(st.integers(-2, 10**6), HUGE), max_size=4, unique=True).map(sorted)
# break-evens that pass the field's type check more often than ANY's
N_STAR_MAPS = st.dictionaries(st.sampled_from(("filter", "aggregate", "join")) | TEXT,
                              FLOATS | ANY, max_size=3)


def documents(kind: type) -> st.SearchStrategy:
    """JSON objects over some of `kind`'s fields and unknown keys."""
    known = st.fixed_dictionaries({}, optional={
        f.name: st.one_of(N_STAR_MAPS, ANY) if f.name == "n_star" else ANY
        for f in fields(kind)})
    return st.builds(lambda doc, unknown: {**unknown, **doc},
                     known, st.dictionaries(TEXT, ANY, max_size=1))

# numbers of every scale and sign, the float limits and text that is no number
SCALES = st.integers(-330, 330).map("1e{}".format)
NUMBERS = st.one_of(SCALES, (st.integers() | HUGE).map(str), FLOATS.map(repr),
                    st.sampled_from(("nan", "inf", "-inf", "-0", "", "a", "0x10", "1,2")))
NOT_INT = st.sampled_from(("", "a", "1.5", "1e3", "nan"))
WORK = st.one_of(st.integers(-2, 3).map(str), NOT_INT)
ROWS = st.one_of(st.integers(-2, 3000).map(str), NOT_INT)
FLAGS = {   # (command, flag): its values
    **{(command, flag): NUMBERS for command in ("run", "calibrate")
       for flag in ("--seed", "--sigma", "--rho-join", "--offload-margin")},
    **{("run", flag): NUMBERS for flag in ("--drift-fraction", "--miscal-factor")},
    ("run", "--queries"): WORK, ("run", "--fact-rows"): ROWS, ("run", "--dim-rows"): ROWS,
    **{("calibrate", flag): NUMBERS
       for flag in ("--cpu-per-item", "--accel-setup", "--accel-per-item")},
    ("calibrate", "--repetitions"): WORK,
    ("calibrate", "--sizes"): SIZES.map(lambda sizes: ",".join(map(str, sizes))),
}


# documents json.dumps cannot write: integers of around int()'s 4300-digit
# limit, text that is no JSON and bytes that are no UTF-8
LONG_INTEGERS = st.integers(4295, 4305).map("9".__mul__)
RAW = st.one_of(
    st.builds(str.format, st.sampled_from((
        "{}", "[-{}]", '{{"rho_join": {}}}', '{{"offload_margin": {}.5}}',
        '{{"n_star": {{"filter": {}}}}}')),
        LONG_INTEGERS).map(str.encode),
    st.text(max_size=8).map(str.encode),
    st.binary(max_size=8))
# break-evens of every JSON number: negative, zero, NaN, +-Infinity, the
# smallest and largest floats, integers
N_STARS = st.one_of(st.floats(), st.integers(-10**6, 10**6),
                    st.sampled_from((0, -0.0, -1, math.nan, math.inf, -math.inf, 5e-324,
                                     1.7e308, 10000.0)))


def check_exit(argv: list[str]) -> Optional[int]:
    """latebind exits 0, or 1 or 2 with a message line; nothing escapes.
    Returns the code that main returned, or None for argparse's usage error
    (exit 2 with a ``usage:`` line), which stops before main's body runs."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and err.getvalue().startswith("usage: latebind "), \
                (argv, exc.code, err.getvalue())
            return None
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert code in (1, 2), (argv, code)
        assert any(line.startswith(("error:", "warning:"))
                   for line in err.getvalue().splitlines()), (argv, err.getvalue())
    return code


def assert_main_reached(codes: list[Optional[int]]) -> None:
    """A fuzz whose every example is a usage error never ran the program."""
    assert any(code is not None for code in codes), codes


def write(path, doc: object) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_thresholds_files_exit_cleanly(tmp_path):
    codes: list[Optional[int]] = []

    @fuzz(12)
    @given(doc=documents(Thresholds), scenario=st.sampled_from(tuple(SCENARIOS)))
    def check(doc, scenario):
        codes.append(check_exit(["run", "--scenario", scenario, "--queries", "2",
                                 "--out", str(tmp_path),
                                 "--thresholds", write(tmp_path / "thresholds.json", doc)]))

    check()
    assert_main_reached(codes)


def test_raw_documents_exit_cleanly(tmp_path):
    codes: list[Optional[int]] = []

    @fuzz(20)
    @given(raw=RAW)
    def check(raw):
        path = tmp_path / "thresholds.json"
        path.write_bytes(raw)
        codes.append(check_exit(["run", "--queries", "2", "--thresholds", str(path),
                                 "--out", str(tmp_path)]))

    check()
    assert_main_reached(codes)


def test_break_evens_in_thresholds_files_checked(tmp_path):
    codes: list[Optional[int]] = []

    @fuzz(20)
    @given(n_star=st.dictionaries(st.sampled_from((*OFFLOADABLE_KINDS, "join", "")), N_STARS,
                                  max_size=2))
    def check(n_star):
        valid = all(kind in OFFLOADABLE_KINDS and value > 0 for kind, value in n_star.items())
        path = write(tmp_path / "thresholds.json", {"n_star": n_star, "source": "file"})
        codes.append(check_exit(["run", "--scenario", "break_even", "--queries", "2", "--out",
                                 str(tmp_path), "--thresholds", path]))
        assert codes[-1] == (0 if valid else 1), n_star

    check()
    assert_main_reached(codes)


def test_numeric_flags_exit_cleanly(tmp_path):
    codes: list[Optional[int]] = []

    @fuzz(80)
    @given(data=st.data(), case=st.sampled_from(sorted(FLAGS)))
    def check(data, case):
        command, flag = case
        argv = [command, f"{flag}={data.draw(FLAGS[case])}", "--out", str(tmp_path)]
        if command == "run" and flag != "--queries":
            argv += ["--queries", "2"]
        codes.append(check_exit(argv))

    check()
    assert_main_reached(codes)
