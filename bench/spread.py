"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads scan,dims] [--seeds 10] [--record]

For every workload and end-to-end metric this prints the median over the
seeds, the quartiles (``statistics.quantiles(values, n=4)``), and the
spread: the distance between the quartiles as a share of the median,
against the metric's bound in BENCHMARK.json.  A spread under a third of
the bound is steady; one over the bound would make the benchmark useless
for telling a regression from noise.  The error rate is summed over the
seeds.  The exit code is 0 only if every answer was correct and every
spread but that of set-up time was within its bound.

With ``--record`` a trajectory point is appended to ``trajectory.jsonl``:
the label of the measured source (commit, ``src/`` digest and line count,
Python version, processor count), the seeds, the medians and quartiles,
and the per-layer metrics of one traced run per workload on the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, src_label

BENCH = Path(__file__).resolve().parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = BENCH / "trajectory.jsonl"


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*CONFIG["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in CONFIG["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    seeds = list(range(args.seeds))
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    units = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in seeds:
            result = run_once(workload, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        ok = ok and failed == 0
        summary[workload] = {"error_rate": {"failed": failed, "attempted": attempted}}
        print(f"{workload:<9} {'error_rate':<16} {failed / attempted:.6g} ratio "
              f"({failed} failed of {attempted} attempted)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            verdict = ("steady" if spread < bounds[name] / 3 else
                       "within bound" if spread <= bounds[name] else "TOO WIDE")
            if name != "setup_s":
                ok = ok and spread <= bounds[name]
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3}
            print(f"{workload:<9} {name:<16} median {med:<12.6g} {units[name]:<3} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.3f} bound {bounds[name]:.3f} {verdict}", flush=True)
            print(f"{'':<26} runs: " + " ".join(f"{v:.4g}" for v in vals))

    if args.record:
        layers = {w: {name: m["value"] for name, m in
                      run_once(w, seeds[0], 1)["metrics"].items()}
                  for w in summary}
        point = {"label": src_label(), "seeds": seeds, "run_seconds": CONFIG["run_seconds"],
                 "end_to_end": summary, "per_layer_first_seed": layers}
        with TRAJECTORY.open("a") as fh:
            fh.write(json.dumps(point) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
