"""A fuzz of the command line over the four kinds of input it reads: the
config documents of run and calibrate, thresholds files, gen --spec
documents and numeric flag values.  Whatever the input, latebind exits 0,
or exits 1 or 2 with an ``error:`` or ``usage:`` line on stderr (or, from
calibrate, the ``warning:`` line of a kind without a break-even), and
raises nothing.

Every example is cheap: a setting that sizes the work is drawn small (at
most 3 queries, a few thousand table rows, 4 measurement sizes and 3
repetitions), so no example depends on a limit to stay small.  The limits
on those settings (bench.MAX_QUERIES, datagen.MAX_TABLE_BYTES,
accel.MAX_MEASUREMENTS) are tested through their validators alone.  Every
output goes to a temporary directory, whatever the document says.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import fields

from hypothesis import HealthCheck, given, settings, strategies as st

from latebind.bench import SCENARIO_NAMES
from latebind.cli import CalibrateConfig, RunConfig, main
from latebind.policy import MODES, Thresholds


def fuzz(examples: int) -> settings:
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow])


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
# the settings that size the work, and the most of each an example asks for
WORK_CAPS = {"queries": 3, "fact_rows": 3000, "dim_rows": 3000, "repetitions": 3}
SIZES = st.lists(st.one_of(st.integers(-2, 10**6), HUGE), max_size=4, unique=True).map(sorted)
# values that pass a field's type check more often than ANY's
NAMED = {
    "scenario": st.sampled_from(SCENARIO_NAMES),
    "clock": st.sampled_from(("simulated", "wall")),
    "modes": st.lists(st.sampled_from((*MODES, "bogus")), max_size=4),
    "sizes": SIZES,
    "thresholds_file": st.sampled_from(("", "missing.json", ".")),   # "." is a directory
    "command": st.sampled_from(("run", "calibrate", "gen")),
    "n_star": st.dictionaries(st.sampled_from(("filter", "aggregate", "join")) | TEXT,
                              FLOATS | ANY, max_size=3),
}


def value_for(name: str) -> st.SearchStrategy[object]:
    if name in WORK_CAPS:
        return json_values(st.integers(-2, WORK_CAPS[name]))
    return st.one_of(NAMED[name], ANY) if name in NAMED else ANY


def with_unknown_keys(docs: st.SearchStrategy[dict]) -> st.SearchStrategy[dict]:
    return st.builds(lambda doc, unknown: {**unknown, **doc},
                     docs, st.dictionaries(TEXT, ANY, max_size=1))


def documents(kind: type, *extra: str, required: tuple[str, ...] = ()) -> st.SearchStrategy:
    """JSON objects over some of `kind`'s fields, the `extra` keys and
    unknown keys; the `required` fields are always set."""
    names = [f.name for f in fields(kind)] + list(extra)
    return with_unknown_keys(st.fixed_dictionaries(
        {name: value_for(name) for name in required},
        optional={name: value_for(name) for name in names if name not in required}))


# a run config always sets its query count: the default is 200
CONFIGS = {"run": documents(RunConfig, "command", required=("queries",)),
           "calibrate": documents(CalibrateConfig, "command")}

EDGES = st.sampled_from((-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1, 2**63, -2**64))
COLUMNS = st.lists(st.fixed_dictionaries({}, optional={
    "name": TEXT | ANY,
    "low": st.integers(-10, 10) | EDGES | ANY,
    "high": st.integers(-10, 10) | EDGES | ANY,
    "distribution": st.sampled_from(("uniform", "zipf")) | ANY,
    "skew": FLOATS | ANY}), max_size=3)
SPECS = st.one_of(with_unknown_keys(st.fixed_dictionaries({}, optional={
    "name": TEXT | ANY,
    "row_count": json_values(st.integers(-2, 3000)),
    "columns": COLUMNS | ANY})), ANY)

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
    ("gen", "--seed"): NUMBERS, ("gen", "--rows"): WORK,
}


def check_exit(argv: list[str]) -> None:
    """latebind exits 0, or 1 or 2 with a message line; nothing escapes."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert code in (1, 2), (argv, code)
        assert any(line.startswith(("error:", "usage:", "warning:"))
                   for line in err.getvalue().splitlines()), (argv, err.getvalue())


def write(path, doc: object) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_config_documents_exit_cleanly(tmp_path):
    @fuzz(25)
    @given(data=st.data(), command=st.sampled_from(sorted(CONFIGS)))
    def check(data, command):
        config = write(tmp_path / "config.json", data.draw(CONFIGS[command]))
        check_exit([command, "--config", config, "--out", str(tmp_path)])

    check()


def test_thresholds_files_exit_cleanly(tmp_path):
    @fuzz(12)
    @given(doc=documents(Thresholds), scenario=st.sampled_from(SCENARIO_NAMES))
    def check(doc, scenario):
        check_exit(["run", "--scenario", scenario, "--queries", "2", "--out", str(tmp_path),
                    "--thresholds", write(tmp_path / "thresholds.json", doc)])

    check()


def test_gen_specs_exit_cleanly(tmp_path):
    @fuzz(15)
    @given(doc=SPECS)
    def check(doc):
        check_exit(["gen", "--spec", write(tmp_path / "spec.json", doc),
                    "--out-file", str(tmp_path / "table.csv")])

    check()


def test_numeric_flags_exit_cleanly(tmp_path):
    spec = write(tmp_path / "spec.json", {"name": "t", "row_count": 5, "columns": [
        {"name": "a", "low": 0, "high": 9}]})

    @fuzz(80)
    @given(data=st.data(), case=st.sampled_from(sorted(FLAGS)))
    def check(data, case):
        command, flag = case
        argv = [command, f"{flag}={data.draw(FLAGS[case])}"]
        if command == "gen":
            argv += ["--spec", spec, "--out-file", str(tmp_path / "table.csv")]
        else:
            argv += ["--out", str(tmp_path)]
        if command == "run" and flag != "--queries":
            argv += ["--queries", "2"]
        check_exit(argv)

    check()
