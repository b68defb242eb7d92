"""The benchmark's own self-tests (bench/selftest.py), run as one Tier-1 test.

They check the benchmark's corpus generator, tracer and output checks
against the current package. They run in a subprocess, as the benchmark
does; they read ``bench/`` and write only under the checkout's ignored
``.bench_work/``.
"""

import os
import subprocess
import sys

SELFTEST = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "selftest.py")


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, SELFTEST], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
