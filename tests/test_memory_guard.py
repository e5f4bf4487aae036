"""Memory guard: a default break_even run makes each fact table at its first
group and drops it after its last, so the program's peak stays near its
post-import size instead of holding all 200 tables (16.5 MiB of columns)
at once.  A caller that keeps all 200 tables, as the benchmark's oracle
does, holds little more than their bytes, since each column is allocated
before its draw's temporaries."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from test_pinned import pinned_platform

SRC = Path(__file__).resolve().parent.parent / "src"
PEAK_GROWTH_LIMIT_MIB = 16
KEPT_TABLES_SLACK_MIB = 4

# the start of each child: the package on its path, and its peak resident set
# size in KiB.  On Linux that is VmHWM, which starts anew at exec, while
# ru_maxrss keeps the high-water mark of the process that started the child
# (in a whole test run, pytest's, above any peak of the child).  macOS has
# no /proc, and gives ru_maxrss in bytes.
PEAK = """\
import resource, sys
sys.path.insert(0, sys.argv[1])
def peak_kib():
    if sys.platform == "darwin":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""

# prints the peak after importing latebind.cli and after a default
# break_even run
CHILD = PEAK + """\
import contextlib, io
import latebind.cli
after_import = peak_kib()
with contextlib.redirect_stdout(io.StringIO()):
    code = latebind.cli.main(["run", "--scenario", "break_even", "--out", sys.argv[2]])
print(code, after_import, peak_kib())
"""

# prints the peak after importing latebind.cli and after preparing every
# break_even query at once, with the number of fact tables kept and their
# columns' bytes
KEPT_CHILD = PEAK + """\
import latebind.cli
from latebind import bench
after_import = peak_kib()
prepared = bench.scenario_queries(bench.scenario_break_even(seed=1))
facts = {id(q.tables["fact"]): q.tables["fact"] for q in prepared}
print(after_import, peak_kib(), len(facts),
      sum(c.nbytes for t in facts.values() for c in t.columns.values()))
"""


@pytest.mark.skipif(not sys.platform.startswith(("linux", "darwin")),
                    reason="reads the peak resident set size as Linux and macOS give it")
def test_break_even_peak_stays_near_post_import_size(tmp_path):
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, after_import, peak = map(int, done.stdout.split())
    assert code == 0
    assert (peak - after_import) / 1024 < PEAK_GROWTH_LIMIT_MIB


# where each column lands depends on the allocator, so this runs only on
# the platform the digests were pinned on, a Linux one
@pinned_platform
def test_kept_break_even_tables_hold_little_beyond_their_bytes():
    done = subprocess.run([sys.executable, "-c", KEPT_CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    after_import, peak, tables, table_bytes = map(int, done.stdout.split())
    assert tables == 200
    over_mib = ((peak - after_import) * 1024 - table_bytes) / 2**20
    assert over_mib <= KEPT_TABLES_SLACK_MIB
