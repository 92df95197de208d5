"""The package's public names, and the ones the benchmark reaches."""

import functools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import toroidal_sl2
from toroidal_sl2 import HighestWeight, find_singular, linalg, quotient, w_multiplicity
from toroidal_sl2.verma import VermaModule


def test_every_public_name_resolves_once():
    names = toroidal_sl2.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from toroidal_sl2 import *", namespace)  # raises on a name that is missing
    assert set(names) <= set(namespace)


def test_benchmark_hooks_resolve():
    # bench/tracer.py wraps package names where their callers look them up,
    # and bench/child.py reads every engine's memo of positive letters, one
    # engine at a time; a fresh process keeps the wrappers from leaking
    # into other tests
    root = Path(__file__).resolve().parents[1]
    script = ("import sys\nsys.path[:0] = sys.argv[1:]\n"
              "import toroidal_sl2, tracer\n"
              "t = tracer.Tracer()\n"
              "tracer.install(t, toroidal_sl2)\n"
              "toroidal_sl2.singular.find_singular(toroidal_sl2.HighestWeight(1, 2), (2, 0))\n"
              "engines = toroidal_sl2.verma._ENGINES.values()\n"
              "assert sum(len(e._cache) for e in engines) > 0\n"
              "layers = t.layers()\n"
              "assert layers['singular.kernel_dim_sum'] == 1, layers\n"
              "assert layers['verma.act_calls'] > 0 and layers['linalg.calls'] == 1, layers\n"
              "toroidal_sl2.singular.find_singular(toroidal_sl2.HighestWeight(2, 3), (1, 0))\n"
              "assert len(toroidal_sl2.verma._ENGINES) == 1\n")
    proc = subprocess.run([sys.executable, "-c", script, str(root / "bench"), str(root / "src")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_quotient_word_is_one_traced_action(fresh_weight_free, monkeypatch):
    # bench/tracer.py times straightening (verma.act_calls, verma.straighten_s)
    # by wrapping VermaModule.act; every word the quotient straightens must go
    # through it, one action per word its memo gains beyond the seed
    calls = []
    act = VermaModule.act

    @functools.wraps(act)
    def traced(*args, **kwargs):
        calls.append(args[1])
        return act(*args, **kwargs)

    monkeypatch.setattr(VermaModule, "act", traced)
    monkeypatch.setattr(quotient, "_WORDS", {})
    fresh_weight_free()
    for height in range(9):
        for a0 in range(height + 1):
            w_multiplicity(HighestWeight(1, 2), (a0, height - a0))
    assert list(quotient._WORDS) == [(1, 1)]
    assert len(calls) == len(quotient._WORDS[(1, 1)]) - 1 > 0


def test_tracer_reads_the_stacked_raising_rows(monkeypatch):
    # bench/tracer.py's matrix_stats reads dense rows and their width from
    # the linalg call; its counters on find_singular's matrices are pinned
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer
    seen = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda rows, ncols: seen.append((rows, ncols)) or nullspace(rows, ncols))
    expected = [
        (HighestWeight(1, 2), (8, 8), {"rows": 660, "cols": 480, "nnz": 4065, "bits": 15}),
        (HighestWeight(1, 2), (2, 6), {"rows": 12, "cols": 9, "nnz": 27, "bits": 5}),
        (HighestWeight(Fraction(-7, 4), Fraction(3, 4)), (4, 4),
         {"rows": 38, "cols": 32, "nnz": 140, "bits": 8}),
        (HighestWeight(Fraction(5, 3), Fraction(1, 2)), (6, 3),
         {"rows": 30, "cols": 22, "nnz": 94, "bits": 9}),
    ]
    for hw, eta, stats in expected:
        find_singular(hw, eta)
        assert tracer.matrix_stats(*seen[-1]) == stats, (hw, eta)
