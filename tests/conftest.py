import os
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

from toroidal_sl2 import (HighestWeight, RootVector, VermaModule, basis_sort_key, e, f, h,
                          is_positive, module_for, quotient, singular, verma, weight_of)
from toroidal_sl2.verma import _affine_negative_generators
from toroidal_sl2.algebra import C1, C2, D1, D2, is_cartan

SEED = int(os.environ.get("TV_SEED", "20250810"))

CONSTANTS = (C1, C2, D1, D2)
LOOP_MAKERS = (e, f, h)


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def fresh_weight_free(monkeypatch):
    """Each call swaps in a new engine at weight zero, whose memo starts
    empty, and an empty memo of raising pencils (each read from that memo),
    for the rest of the test, and returns the engine."""
    def swap():
        free = VermaModule(HighestWeight(0, 0))
        for module in (verma, singular, quotient):
            monkeypatch.setattr(module, "weight_free_engine", lambda: free)
        monkeypatch.setattr(singular, "_PENCILS", {})
        return free
    return swap


def is_negative(b):
    return not is_cartan(b) and not is_positive(weight_of(b))


def is_canonical(m):
    """Factors strictly decreasing in the PBW order, exponents >= 1, all negative."""
    for b, a in m:
        if a < 1 or not is_negative(b):
            return False
    keys = [basis_sort_key(b) for b, _ in m]
    return all(keys[i] > keys[i + 1] for i in range(len(keys) - 1))


def monomial_weight(m):
    w = RootVector(0, 0, 0)
    for b, a in m:
        w = w + a * weight_of(b)
    return w


def form_hstar(x, y):
    """Invariant symmetric form on weight space.

    Expanding in the basis (alpha, delta1, delta2, omega1, omega2) via the
    stored coordinates, the only nonzero products are (alpha|alpha) = 2 and
    (delta_i|omega_i) = 1.
    """
    return (Fraction(x.h * y.h, 2)
            + x.d1 * y.c1 + x.c1 * y.d1
            + x.d2 * y.c2 + x.c2 * y.d2)


def random_basis_element(rng, mbound=5, nbound=5, constants=True):
    if constants and rng.random() < 0.15:
        return rng.choice(CONSTANTS)
    mk = rng.choice(LOOP_MAKERS)
    return mk(rng.randint(-mbound, mbound), rng.randint(-nbound, nbound))


def random_negative_element(rng, mbound=2, nmin=-2):
    while True:
        mk = rng.choice(LOOP_MAKERS)
        b = mk(rng.randint(-mbound, mbound), rng.randint(nmin, 0))
        if is_negative(b):
            return b


def random_canonical_monomial(rng, max_factors=3, max_exp=2, mbound=2, nmin=-2):
    letters = {random_negative_element(rng, mbound, nmin)
               for _ in range(rng.randint(0, max_factors))}
    ordered = sorted(letters, key=basis_sort_key, reverse=True)
    return tuple((b, rng.randint(1, max_exp)) for b in ordered)


def level0_basis_reference(a0, a1):
    """Reference enumeration of the level-0 basis of drop (a0, a1): a depth-first
    search over the letters from the largest key down, each taken with every
    exponent that fits the drop left, largest first, then the list reversed."""
    gens = _affine_negative_generators(a0, a1)
    gens.sort(key=lambda g: basis_sort_key(g[0]), reverse=True)
    out = []

    def rec(start, r0, r1, acc):
        if r0 == 0 and r1 == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(gens)):
            b, (c0, c1) = gens[idx]
            if c0 > r0 or c1 > r1:
                continue
            top = min(r0 // c0 if c0 else r1, r1 // c1 if c1 else r0)
            for exp in range(top, 0, -1):
                acc.append((b, exp))
                rec(idx + 1, r0 - exp * c0, r1 - exp * c1, acc)
                acc.pop()

    rec(0, a0, a1, [])
    out.reverse()  # letters went from the largest key and exponent down
    return out


def generator_words(hw):
    """The quotient's singular generators f(0,0)^(n1+1) v and e(-1,0)^(n0+1) v,
    as (weight drop (a0, a1), word), for a dominant integral weight."""
    n1, n0 = int(hw.n1), int(hw.n0)
    return [((0, n1 + 1), ((f(0, 0), n1 + 1),)),
            ((n0 + 1, 0), ((e(-1, 0), n0 + 1),))]


def submodule_span(hw, eta, words=None):
    """Oracle for the submodule's slice at lam - eta: every u * s v, s a
    generator word (both by default) and u a basis monomial, straightened and
    written in the basis of that weight space.  Returns (rows, basis)."""
    engine = module_for(hw)
    basis = engine.weight_space_basis(eta)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for (g0, g1), word in generator_words(hw) if words is None else words:
        if eta[0] < g0 or eta[1] < g1:
            continue
        for u in engine.weight_space_basis((eta[0] - g0, eta[1] - g1)):
            image = engine.apply_word(u + word)
            if not image.is_zero():
                row = [0] * len(basis)
                for m, c in image.items():
                    row[index[m]] = c
                rows.append(row)
    return rows, basis


def stacked_raising_rows(hw, eta):
    """The stacked raising matrix ``find_singular`` eliminates at lam - eta:
    the e(0,0) rows, then the f(1,0) rows, evaluated from the drop's pencil."""
    ncols = len(verma.weight_free_engine().weight_space_basis(eta))
    return [row for matrix in singular._raising_matrices(hw, singular.raising_pencil(eta), ncols)
            for row in matrix]


def drawn_weights(rng, count):
    """``count`` distinct rational highest weights, sorted, drawn as the
    benchmark's weights workload draws them."""
    weights = set()
    while len(weights) < count:
        weights.add(HighestWeight(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                                  Fraction(rng.randint(0, 8), rng.randint(1, 4))))
    return sorted(weights)


def integral_rows(a):
    """Each row of a rational matrix scaled by the lcm of its denominators:
    integer rows, as ``linalg`` takes them, with the rank and kernel of ``a``."""
    out = []
    for row in a:
        d = lcm(*(c.denominator for c in row))
        out.append([int(c * d) for c in row])
    return out
