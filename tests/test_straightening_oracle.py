"""Dual-route check of the module action.

``brute_force_apply`` normalizes fully expanded words by leftmost adjacent
rewriting (swap + bracket), with its own termination order and its own
terminal-word evaluation; it shares only the bracket table with the
engine.  Agreement on random words exercises the whole straightening
logic from an independent direction.
"""

import random
from fractions import Fraction

from toroidal_sl2 import (HighestWeight, ModuleVector, bracket, e, f, h,
                          is_positive, module_for, weight_of)
from toroidal_sl2.algebra import basis_sort_key, is_cartan
from toroidal_sl2.roots import CartanElement, Weight

from conftest import SEED, random_basis_element


def _priority(b):
    # negatives sorted among themselves; everything else must drift right
    if is_cartan(b) or is_positive(weight_of(b)):
        return (0,)
    return (1,) + tuple(basis_sort_key(b))


def _evaluate_terminal(word, coeff, lam):
    """Evaluate a terminal word (sorted negatives, then a scalar block)."""
    letters = list(word)
    while letters:
        g = letters[-1]
        if is_cartan(g):
            coeff *= lam.pair(CartanElement.make(**{g.kind: 1}))
            letters.pop()
            if not coeff:
                return {}
        elif is_positive(weight_of(g)):
            return {}
        else:
            break
    factors = []
    for g in letters:
        assert not is_cartan(g) and not is_positive(weight_of(g))
        if factors and factors[-1][0] == g:
            factors[-1] = (g, factors[-1][1] + 1)
        else:
            factors.append((g, 1))
    keys = [basis_sort_key(b) for b, _ in factors]
    assert all(keys[i] > keys[i + 1] for i in range(len(keys) - 1)), word
    return {tuple(factors): coeff}


def brute_force_apply(word, hw, fuel=200000):
    """Module vector of word[0]*word[1]*...*v by exhaustive word rewriting."""
    lam = hw.weight()
    out = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        fuel -= 1
        assert fuel > 0, "rewriting failed to terminate"
        letters, coeff = stack.pop()
        for i in range(len(letters) - 1):
            x, y = letters[i], letters[i + 1]
            if _priority(x) < _priority(y):
                swapped = letters[:i] + (y, x) + letters[i + 2:]
                stack.append((swapped, coeff))
                for b, c in bracket(x, y).items():
                    stack.append((letters[:i] + (b,) + letters[i + 2:], coeff * c))
                break
        else:
            for m, c in _evaluate_terminal(letters, coeff, lam).items():
                acc = out.get(m, 0) + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return ModuleVector(out)


def engine_apply(word, hw):
    eng = module_for(hw)
    v = ModuleVector.highest_weight_vector()
    for g in reversed(word):
        v = eng.act(g, v)
    return v


def test_oracle_agrees_on_fixed_words():
    hw = HighestWeight(1, 1)
    words = [
        (e(0, 0), f(0, 0)),
        (f(0, 0), f(0, 0), h(-1, 0)),
        (e(0, 0), f(0, 0), f(0, 0)),
        (f(0, 1), e(0, -1), e(0, -1)),
        (h(1, 1), h(-1, -1)),
        (f(1, 0), e(-1, 0), e(-1, 0)),
        (h(-1, 1), h(1, -1)),
        (e(1, 0), f(-1, 0), f(0, 0)),
    ]
    for word in words:
        assert brute_force_apply(word, hw) == engine_apply(word, hw), word


def test_oracle_agrees_on_random_words():
    rng = random.Random(SEED + 31)
    hws = [HighestWeight(1, 1), HighestWeight(0, 2),
           HighestWeight(Fraction(2, 3), Fraction(1, 2), d1=1, d2=-2)]
    for trial in range(120):
        hw = hws[trial % len(hws)]
        word = tuple(random_basis_element(rng, mbound=2, nbound=1)
                     for _ in range(rng.randint(1, 5)))
        assert brute_force_apply(word, hw) == engine_apply(word, hw), word


def test_oracle_agrees_on_deeper_levels():
    rng = random.Random(SEED + 32)
    hw = HighestWeight(2, Fraction(3, 2))
    pool = [e(0, -1), f(0, -1), h(1, -1), h(-1, -1), f(0, 1), h(1, 1),
            e(-1, 0), f(0, 0), e(0, 0), h(-2, 0)]
    for _ in range(60):
        word = tuple(rng.choice(pool) for _ in range(rng.randint(2, 4)))
        assert brute_force_apply(word, hw) == engine_apply(word, hw), word
