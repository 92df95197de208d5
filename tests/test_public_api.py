"""The package's public names, and the ones the benchmark reaches."""

import functools
import subprocess
import sys
from pathlib import Path

import toroidal_sl2
from toroidal_sl2 import HighestWeight, quotient, w_multiplicity
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
