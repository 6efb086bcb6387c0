"""The benchmark's self-test against the program in this checkout.

The benchmark reads `Table.rows`, and the `rows`, `base` and `indexes` of
each sample table (a `Table` stored in sampleindex order), to build its own
copies of the data; a storage change that breaks those reads fails here
rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
