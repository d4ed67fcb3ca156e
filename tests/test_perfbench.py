"""The benchmark's own self-tests (perfbench/selftest.py) pass.

They check the workloads' inputs, oracles and tracer.  Among them: two
traced rounds of every workload give the same span counts and cover every
span it expects, which a traced run (perfbench/run.py --trace 1) needs to
exit 0.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
