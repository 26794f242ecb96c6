"""The benchmark harness still runs against the library.

``bench/run.py --self-test`` installs the benchmark's tracer, which wraps
the library's methods by name (``vars(cls)[...]``), and runs a tiny round
of every request kind.  A refactor that drops or renames a wrapped method
fails here, in the test suite, rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_test_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS  ") == 4, proc.stdout
