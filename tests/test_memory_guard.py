"""Memory guard: a default break_even run makes each fact table at its first
group and drops it after its last, so the program's peak stays near its
post-import size instead of holding all 200 tables (about 66 MiB) at once."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PEAK_GROWTH_LIMIT_MIB = 16

# prints the peak resident set size after importing latebind.cli and after a
# default break_even run, in the unit ru_maxrss uses on this platform
CHILD = """\
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
import latebind.cli
after_import = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with contextlib.redirect_stdout(io.StringIO()):
    code = latebind.cli.main(["run", "--scenario", "break_even", "--out", sys.argv[2]])
print(code, after_import, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith(("linux", "darwin")),
                    reason="reads ru_maxrss, whose unit is known on Linux and macOS")
def test_break_even_peak_stays_near_post_import_size(tmp_path):
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, after_import, peak = map(int, done.stdout.split())
    assert code == 0
    unit = 1 if sys.platform == "darwin" else 1024   # bytes on macOS, KiB on Linux
    growth_mib = (peak - after_import) * unit / 2**20
    assert growth_mib < PEAK_GROWTH_LIMIT_MIB
