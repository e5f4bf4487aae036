"""Byte identity of outputs against digests pinned on one platform.

`perfbench/pinned.json` holds the sha256 of every mode's seed-1
`samples.csv`, with the environment it was pinned on, and MORE_SEED_DIGESTS
below the seeds 100001 and 200001, pinned in the same environment;
latencies pass through libm and zipf columns through `pow`, so elsewhere
the bytes may differ and these tests skip, except where no libm call
reaches the bytes.  The file is only read here.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from latebind import bench
from latebind.cli import EXIT_OK
from latebind.datagen import Table
from latebind.policy import MODES

PINNED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json")
                    .read_text(encoding="utf-8"))
HERE = {"python": platform.python_version(), "numpy": np.__version__,
        "system": platform.system(), "machine": platform.machine(),
        "libc": "-".join(platform.libc_ver())}

pinned_platform = pytest.mark.skipif(
    {k: HERE.get(k) for k in PINNED["env"]} != PINNED["env"],
    reason=f"digests pinned on {PINNED['env']}")

# sha256 of the seed-1 tables: (dim, base fact, every other fact variant,
# drift variants first, each in the order the scenario declares them)
TABLE_DIGESTS = {
    bench.INPUT_SCALE_SHIFT: (
        "8cd919be4c3e2be8a5f6c06e33173a26403abf46bfc0aed587c3ff21043b7e06",
        "2db8406f75b586adef09bf38e65a18f9fbef37509a6956c5e0c2dc78d55d592d",
        "158838f5404be5a08c489ff0902ac2bd7712b748b7b217910dfc0b9821c7a75d"),
    bench.STALE_STATS: (
        "2de825df90037113d914751931478322496c46469c44b776e45e080904112422",
        "20aa8a94234a7e4320316fb23ada81b18fa229fe0000e0aec7a9844cc04f718d",
        "7495e55f9ec7f5978febcf6eb4d3ad5591a54cf132b8ac936c403211658662f9"),
    bench.BREAK_EVEN: (
        "709f8def9ae01111957730c10a904a683253ac178525abc95c9c99f3548e8329",
        "d05143030c678c0f80710fb57c7f7e9537736b219e0100006a8289ecd5778437",
        "62118285a8189c1eb71868739825c23a439d8495f6662882482707d3fe18f78c"),
}


def tables_digest(tables: list[Table], generation: int) -> str:
    """sha256 of the tables' values at int64 width, whatever width each column
    is stored at, so the digests pinned for all-int64 tables still hold.
    `generation`, which the pinned digests' text names, is the number of
    drifts behind the tables: 1 for a drift variant, else 0."""
    h = hashlib.sha256()
    for t in tables:
        for name, col in t.columns.items():
            h.update(f"{t.spec.name}/{generation}/{t.row_count}/{name}/<i8\n".encode())
            h.update(col.astype("<i8").tobytes())
    return h.hexdigest()


def seed1_tables(scenario: str, default_queries) -> tuple[Table, Table, list[Table]]:
    """The seed-1 dim table, base fact table and every other fact variant
    (drift variants first, each in the order the scenario declares them)."""
    s = bench.SCENARIOS[scenario](seed=1)
    # the tables the prepared queries carry, by fact variant
    queries = default_queries(scenario)
    facts = {query.case.fact_variant: query.tables[s.fact_spec.name] for query in queries}
    dim = queries[0].tables[s.dim_spec.name]
    assert all(query.tables[s.dim_spec.name] is dim for query in queries)
    # break_even's queries read no base table, so none is made for them
    base = facts.pop(bench.BASE_VARIANT, None) or bench._fact_table(s, bench.BASE_VARIANT, None)
    assert sorted(facts) == sorted((*s.drifts, *s.size_variants))
    return dim, base, [facts[label] for label in (*s.drifts, *s.size_variants)]


# input_scale_shift's tables are uniform draws, integer arithmetic alone, so
# their bytes hold on every platform; stale_stats' zipf columns go through
# libm's pow, and break_even's log-spaced sizes through its exp
@pytest.mark.parametrize("scenario", [
    name if name == bench.INPUT_SCALE_SHIFT else pytest.param(name, marks=pinned_platform)
    for name in sorted(bench.SCENARIOS)])
def test_generated_tables_match_pinned_digests(scenario, default_queries):
    dim, base, others = seed1_tables(scenario, default_queries)
    # a scenario's other variants are all drift variants or all size variants
    drifted = 1 if bench.SCENARIOS[scenario](seed=1).drifts else 0
    got = (tables_digest([dim], 0), tables_digest([base], 0), tables_digest(others, drifted))
    assert got == TABLE_DIGESTS[scenario]


# each column's dtype: the narrowest signed type of its spec's [low, high].
# (dim, base fact, every other fact variant); stale_stats' drift shifts the
# filter column a from [0, 99] to [100, 199]
TABLE_DTYPES = {
    bench.INPUT_SCALE_SHIFT: ({"pk": "int16"}, {"fk": "int16", "v": "int16"},
                              {"fk": "int16", "v": "int16"}),
    bench.STALE_STATS: ({"pk": "int16"}, {"a": "int8", "fk": "int16", "v": "int16"},
                        {"a": "int16", "fk": "int16", "v": "int16"}),
    bench.BREAK_EVEN: ({"pk": "int16"}, {"fk": "int16", "v": "int16"},
                       {"fk": "int16", "v": "int16"}),
}


def column_dtypes(table: Table) -> dict[str, str]:
    return {name: str(col.dtype) for name, col in table.columns.items()}


@pytest.mark.parametrize("scenario", sorted(bench.SCENARIOS))
def test_generated_tables_take_narrowest_dtypes(scenario, default_queries):
    dim, base, others = seed1_tables(scenario, default_queries)
    want_dim, want_base, want_other = TABLE_DTYPES[scenario]
    assert column_dtypes(dim) == want_dim
    assert column_dtypes(base) == want_base
    assert all(column_dtypes(t) == want_other for t in others)


def test_break_even_fact_tables_hold_two_bytes_per_value(default_queries):
    # the 200 seed-1 fact tables hold 4,328,711 rows of fk and v, both in
    # [0, 999]: 17.3 MB at int16 where int64 took 69.3 MB
    queries = default_queries(bench.BREAK_EVEN)
    facts = {id(t): t for t in (query.tables["fact"] for query in queries)}
    assert len(facts) == 200
    values = sum(col.size for t in facts.values() for col in t.columns.values())
    assert values == 2 * 4_328_711
    assert sum(col.nbytes for t in facts.values() for col in t.columns.values()) == 2 * values


@pinned_platform
@pytest.mark.parametrize("scenario", sorted(PINNED["digests"]))
def test_samples_match_pinned_digests(scenario, default_run):
    # `latebind run --scenario <scenario> --seed 1`
    assert PINNED["seed"] == 1
    run = default_run(scenario)
    assert run.exit_code == EXIT_OK
    got = {mode: hashlib.sha256(run.samples[mode]).hexdigest() for mode in MODES}
    assert got == PINNED["digests"][scenario]


# sha256 of the three modes' samples.csv, concatenated in MODES order, at two
# more seeds; pinned on the same platform as perfbench/pinned.json
MORE_SEED_DIGESTS = {
    (bench.BREAK_EVEN, 100001):
        "8c9ca3bce9a63e1812fb25e1e097b83e48b282b504d4db80b92c1f68a3fe0142",
    (bench.BREAK_EVEN, 200001):
        "11429112a5997dfe7c0dbd8174abe00c073c0689e2e3fb9682caf5e73df0fdbe",
    (bench.INPUT_SCALE_SHIFT, 100001):
        "b0310552a203681bc272b267dbac3156b241947e0d173916a5189af0d7d42975",
    (bench.INPUT_SCALE_SHIFT, 200001):
        "02642fea335cdc427bd3aa44e02da0f501eb9212aba1b4e208b3d874ca7e3d8e",
    (bench.STALE_STATS, 100001):
        "664e4edd5adcf9f4ea5c641221d789e6de9deb0e35b269324cba430ddca862a0",
    (bench.STALE_STATS, 200001):
        "363e10d790bde7a8c4f0bcd4dd9e20d8e1580a49369d97bd30844b703baaee10",
}


@pinned_platform
@pytest.mark.parametrize("scenario,seed", sorted(MORE_SEED_DIGESTS))
def test_samples_at_more_seeds_match_pinned_digests(scenario, seed, default_run):
    # `latebind run --scenario <scenario> --seed <seed>`
    run = default_run(scenario, seed)
    assert run.exit_code == EXIT_OK
    h = hashlib.sha256()
    for mode in MODES:
        h.update(run.samples[mode])
    assert h.hexdigest() == MORE_SEED_DIGESTS[(scenario, seed)]
