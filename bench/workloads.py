"""Workload sizes and seeded inputs.

This module is imported by ``run.py``, which never imports the
package under test: it only draws inputs.  Every input is a function of
(workload, seed, process index), so the same seed gives the same inputs.

Why each workload exists.  BENCHMARK.json lists ``quotient`` and
``weights``, which between them enter every layer, so that its runs can be
long enough (55 s) to outlast the minute-long slow spells of a shared
host; ``scan`` and ``dims`` run with the same command when named.

* ``scan`` -- ``singular --depth``: one dominant integral weight, a kernel
  of the two raising actions at every drop of height 1..depth, sharing one
  engine.  Exact elimination (``linalg.nullspace``) dominates.
* ``quotient`` -- ``quotient-char --depth``: quotient multiplicities against
  the character oracle at every drop of height 0..depth.  Straightening
  through whole submodule spans plus ``linalg.rank`` on tall,
  rank-deficient matrices.  Its cost falls steeply as n1 and n0 grow (the
  submodule gets smaller), so its weights are drawn from a narrow band to
  keep runs of different seeds comparable.
* ``weights`` -- many distinct rational highest weights, one engine each,
  so the action cache is never reused: a reducibility decision, then one
  kernel at the first witness drop (or a fixed probe drop).
* ``dims`` -- ``dims --depth``: PBW enumeration against the partition
  oracle; no straightening and no elimination, the bypass workload for
  optimisations of those layers.  Its inputs do not depend on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("scan", "quotient", "weights", "dims")

# depth of the scan for scan/quotient/dims, number of weights for weights
SIZES = {
    "full": {"scan": 13, "quotient": 13, "weights": 100, "dims": 22},
    "tiny": {"scan": 3, "quotient": 3, "weights": 4, "dims": 4},
}

# weights workload: witnesses up to this height are checked for a kernel;
# otherwise the kernel is computed at the probe drop
WITNESS_HEIGHT = 10
PROBE_ETA = (4, 4)


def weight_json(n1: Fraction, k1: Fraction) -> dict:
    """A highest weight in the CLI's JSON form (c2 = 0, d-values 0)."""
    return {"h": str(n1), "c1": str(k1), "c2": "0", "d1": "0", "d2": "0"}


def make_inputs(workload: str, seed: int, index: int, size: str) -> dict:
    """Inputs of process ``index`` of one run: weights as JSON and a size.

    ``weights`` gives every process of a run the same weights, so that each
    request is repeated across the run's processes; the others draw one
    weight per process and repeat the same drops.
    """
    rng = random.Random(f"{workload}/{seed}" if workload == "weights"
                        else f"{workload}/{seed}/{index}")
    n = SIZES[size][workload]
    if workload == "scan":
        n1, n0 = rng.randint(1, 4), rng.randint(1, 4)
        return {"weights": [weight_json(Fraction(n1), Fraction(n1 + n0))], "depth": n}
    if workload == "quotient":
        n1, n0 = rng.randint(1, 2), rng.randint(1, 2)
        return {"weights": [weight_json(Fraction(n1), Fraction(n1 + n0))], "depth": n}
    if workload == "weights":
        # the test_c05 distribution, without repeats
        seen: set[tuple[Fraction, Fraction]] = set()
        weights = []
        while len(weights) < n:
            n1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            k1 = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            if (n1, k1) not in seen:
                seen.add((n1, k1))
                weights.append(weight_json(n1, k1))
        return {"weights": weights, "witness_height": WITNESS_HEIGHT,
                "probe": list(PROBE_ETA)}
    if workload == "dims":
        return {"weights": [], "depth": n}
    raise ValueError(f"unknown workload {workload!r}")


def request_count(workload: str, inputs: dict) -> int:
    """Requests one process issues: one per weight, or one per drop."""
    if workload == "weights":
        return len(inputs["weights"])
    depth = inputs["depth"]
    drops = (depth + 1) * (depth + 2) // 2
    return drops - 1 if workload == "scan" else drops
