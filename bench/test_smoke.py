"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload the benchmark can run, listed in BENCHMARK.json or not
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def run_bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.splitlines()


def printed(lines: list[str], name: str) -> list[str]:
    """The fields of the human-readable line reporting ``name``."""
    rows = [line.split() for line in lines[:-1] if line.split()[:1] == [name]]
    assert len(rows) == 1, f"{name} is not printed once"
    return rows[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, lines = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONFIG["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in {**declared, "error_rate": "ratio"}.items():
        assert printed(lines, name)[2] == unit
    assert float(printed(lines, "error_rate")[1]) == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_reference_answer_is_counted(workload):
    proc, lines = run_bench(workload, 0, "--wrong-reference")
    assert proc.returncode == 1
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert float(printed(lines, "error_rate")[1]) > 0
    assert "FAIL" in proc.stderr


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run_bench("dims", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
