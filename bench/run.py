"""The repository benchmark.

    python3 bench/run.py --workload {scan,quotient,weights,dims} --seed N
                         --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` there, and nothing needs building.  One run measures for about S
seconds, and at least three processes: each process is a fresh interpreter
with empty engine caches, as every CLI invocation is, and issues the
workload's requests as a closed loop with one client (see ``child.py``).
Process k of a run draws its inputs from (workload, seed, k).

With ``--trace 0`` the end-to-end metrics are printed.  Set-up time and
peak memory are medians over the run's processes.  Wall time is that of
the fastest process, and the latency percentile is taken over the requests
of one process, each request timed by its fastest repetition across the
processes (best of N, as ``timeit`` reports): on a shared host
interference only adds time, and it slows a changing share of the
processes, often a quarter or more, by up to 80%.  Statistics over all
processes move with that share; the best repetitions much less.  The
median wall time and the pooled percentile are printed alongside.

With ``--trace 1`` every process is followed by a traced twin on the same
inputs; the per-layer metrics are those of the fastest traced twin, and
``trace.overhead_s`` is its wall time minus that of the fastest untraced
process.

Every answer is checked (see ``child.py``), the first process of a run also
compares its answers with the CLI's report, and for the default seed the
digests of the first process's answers (the first 16 hex digits of the
SHA-256 of each serialized answer) are compared with those recorded in
``golden.json`` at the commit it names.  Failures are printed and counted.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if
every answer was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 0
MIN_PROCESSES = 3
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def _git_head() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_label() -> dict:
    """Where the measured code came from: commit (if known), a digest of
    ``src/`` and its net Python line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": _git_head(), "src_sha256": digest.hexdigest()[:16], "src_lines": lines,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def spawn(spec: dict, deadline: float) -> tuple[dict | None, float, str]:
    """Run one child process; returns (result, spawn time, error)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return None, started, "process timed out"
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None, started, f"process exited {proc.returncode}"
    return json.loads(proc.stdout.splitlines()[-1]), started, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny: a few requests per process, for the smoke test")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="make one reference answer wrong, to show it is counted")
    args = parser.parse_args(argv)

    if not (SRC / "toroidal_sl2" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    golden = (json.loads(GOLDEN.read_text())[args.workload]
              if args.seed == DEFAULT_SEED and args.size == "full" else None)
    if args.trace:
        OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0
    k = 0
    while k < MIN_PROCESSES or time.monotonic() - start < args.seconds:
        inputs = workloads.make_inputs(args.workload, args.seed, k, args.size)
        for trace in (False, True) if args.trace else (False,):
            spec = {"src": str(SRC), "workload": args.workload, "inputs": inputs,
                    "trace": trace, "parity": k == 0 and not trace,
                    "wrong_reference": args.wrong_reference and k == 0 and not trace,
                    "spans_path": str(OUT / f"{args.workload}.spans.tsv") if trace else None}
            result, started, error = spawn(spec, deadline)
            if result is None:
                # nothing is known of this process's answers: all count as failed
                n = workloads.request_count(args.workload, inputs)
                print(f"FAIL process {k}: {error}", file=sys.stderr)
                attempted += n
                failed += n
                continue
            failures = {int(i): msgs for i, msgs in result["failures"].items()}
            if k == 0 and golden is not None:
                if len(golden) != len(result["digests"]):
                    failures.setdefault(0, []).append(
                        f"golden.json holds {len(golden)} answers, this run {result['requests']}")
                for i, (got, want) in enumerate(zip(result["digests"], golden)):
                    if got != want:
                        failures.setdefault(i, []).append(
                            f"answer {i} differs from the one recorded in golden.json")
            for i in sorted(failures):
                for msg in failures[i]:
                    print(f"FAIL process {k} request {i}: {msg}", file=sys.stderr)
            attempted += result["requests"]
            failed += len(failures)
            if trace:
                traced.append(result)
            else:
                plain.append(result)
                setups.append(result["ready"] - started)
        k += 1
        if time.monotonic() > deadline:
            break

    if not plain or (args.trace and not traced):
        print("error: no process of the run completed", file=sys.stderr)
        return 1
    n = len(plain)
    walls = [r["wall_s"] for r in plain]
    requests = len(plain[0]["latencies"])
    best_latencies = [min(each) for each in zip(*(r["latencies"] for r in plain))]
    end_to_end = {
        "wall_s": min(walls),
        "setup_s": statistics.median(setups),
        "latency_p90_ms": p90(best_latencies) * 1e3,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain),
    }
    pooled = [t for r in plain for t in r["latencies"]]
    notes = {
        "wall_s": f"fastest of {n} processes (median {statistics.median(walls):.4g})",
        "setup_s": f"median of {n} processes",
        "latency_p90_ms": f"over {requests} requests, {requests - math.ceil(0.9 * requests)} "
                          f"above it, each the fastest of {n} (pooled {p90(pooled) * 1e3:.4g})",
        "peak_rss_mb": f"median of {n} processes",
    }
    print(f"workload {args.workload}, seed {args.seed}: {n} fresh processes, "
          f"closed loop, 1 client, {requests} requests each")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<28} {end_to_end[name]:<14.6g} {unit:<6} {notes[name]}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':<28} {error_rate:<14.6g} {'ratio':<6} "
          f"{failed} failed of {attempted} attempted")

    metrics = {name: {"value": end_to_end[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    if args.trace:
        best = min(traced, key=lambda r: r["wall_s"])
        layers = dict(best["layers"])
        layers["trace.overhead_s"] = best["wall_s"] - end_to_end["wall_s"]
        print(f"per layer, of the fastest of {len(traced)} traced processes "
              f"(times are self times):")
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<28} {layers[name]:<14.6g} {unit}")
        times = {n: v for n, v in layers.items()
                 if LAYER_UNITS[n] == "s" and n != "trace.overhead_s"}
        top = max(times, key=times.get)
        print(f"  largest self time: {top} ({times[top]:.4g} s)")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}

    print("label " + json.dumps({**src_label(), "seed": args.seed, "workload": args.workload,
                                 "trace": args.trace, "processes": len(plain)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
