"""The benchmark's recorded answers, at full size and the default seed.

``bench/run.py`` compares the answers of a run's first process with those
in ``bench/golden.json`` only at the default seed; the smoke tests in
``bench/test_smoke.py`` run a tiny size, so this is where that comparison
runs.  Each run measures for no time: three processes, well under a
second each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["weights", "quotient"])
def test_full_size_answers_match_the_golden_digests(workload):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seconds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
