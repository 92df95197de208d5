"""Bracket table, gradings, and the element text syntax."""

import copy
from fractions import Fraction
import pickle

import pytest
from hypothesis import given, strategies as st

from toroidal_sl2 import (AlgebraElement, BasisElement, ModuleVector,
                          RootVector, bracket, e, f, format_element, h,
                          parse_element, weight_of)
from toroidal_sl2.algebra import C1, C2, D1, D2, add_scaled, basis_sort_key

from conftest import random_basis_element


def elt(b):
    return AlgebraElement.basis(b)


def test_bracket_e_f_opposite_degree():
    assert bracket(e(1, 0), f(-1, 0)) == elt(h(0, 0)) + elt(C1)


def test_bracket_e_e_vanishes():
    assert bracket(e(2, 3), e(-2, -3)).is_zero()


def test_bracket_derivation_scales_by_degree():
    assert bracket(D1, e(3, -2)) == 3 * elt(e(3, -2))
    assert bracket(D2, e(3, -2)) == -2 * elt(e(3, -2))


def test_bracket_h_h_central():
    assert bracket(h(1, 2), h(-1, -2)) == 2 * elt(C1) + 4 * elt(C2)


def test_bracket_sl2_triple():
    assert bracket(h(0, 0), e(0, 0)) == 2 * elt(e(0, 0))
    assert bracket(h(0, 0), f(0, 0)) == -2 * elt(f(0, 0))
    assert bracket(e(0, 0), f(0, 0)) == elt(h(0, 0))


def test_central_term_needs_exact_degree_cancellation():
    assert bracket(e(1, 0), f(-1, 1)) == elt(h(0, 1))
    assert bracket(e(1, 2), f(-1, -2)) == elt(h(0, 0)) + elt(C1) + 2 * elt(C2)


def test_weight_of():
    assert weight_of(f(2, -1)) == RootVector(-1, 2, -1)
    assert weight_of(C1) == RootVector(0, 0, 0)
    assert weight_of(h(0, 3)) == RootVector(0, 0, 3)


def test_basis_element_is_interned_and_hashed_by_identity():
    # one object per letter, so memos keyed on letters hash and compare them
    # by address, in C; copies and pickles land on the same object
    assert BasisElement("e", (0, 0)) is e(0, 0)
    assert BasisElement("f", (-2, 1)) is f(-2, 1) and BasisElement("h", (3, -1)) is h(3, -1)
    for name, b in (("c1", C1), ("c2", C2), ("d1", D1), ("d2", D2)):
        assert BasisElement(name, None) is b
    for b in (e(0, 0), f(-2, 1), h(3, -1), C1, C2, D1, D2):
        assert pickle.loads(pickle.dumps(b)) is b
        assert copy.copy(b) is b and copy.deepcopy(b) is b
    assert copy.deepcopy(((f(-1, 0), 2), (f(0, 0), 1)))[0][0] is f(-1, 0)
    assert BasisElement.__hash__ is object.__hash__
    assert BasisElement.__eq__ is object.__eq__
    assert repr(f(-2, 1)) == "f(-2,1)" and repr(D2) == "d2"
    # the order key, cached on the letter, is the formula it replaced
    rank = {"f": 0, "h": 1, "e": 2}
    for kind, mk in (("e", e), ("f", f), ("h", h)):
        for m in range(-4, 5):
            for n in range(-4, 5):
                assert basis_sort_key(mk(m, n)) == (0, -n, -m, rank[kind])
    for i, b in enumerate((C1, C2, D1, D2)):
        assert basis_sort_key(b) == (1, i)


def test_basis_element_pickle_round_trip():
    for b in (e(0, 0), f(-2, 1), h(3, -1), C1, C2, D1, D2):
        back = pickle.loads(pickle.dumps(b))
        assert type(back) is BasisElement
        assert back == b and hash(back) == hash(b) and repr(back) == repr(b)


def test_sort_key_is_a_strict_total_order():
    pool = [mk(m, n) for mk in (e, f, h) for m in range(-3, 4) for n in range(-3, 4)]
    pool += [C1, C2, D1, D2]
    keys = [basis_sort_key(b) for b in pool]
    assert len(set(keys)) == len(pool)


def test_centrality():
    for x in (C1, C2):
        for y in (e(3, 1), f(0, -2), h(1, 1), C1, C2, D1, D2):
            assert bracket(x, y).is_zero()
    assert bracket(D1, C2).is_zero()
    assert bracket(D1, D2).is_zero()


loop_elements = st.builds(
    lambda mk, m, n: mk(m, n),
    st.sampled_from([e, f, h]),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
basis_elements = st.one_of(loop_elements, st.sampled_from([C1, C2, D1, D2]))


@given(basis_elements, basis_elements)
def test_antisymmetry(x, y):
    assert (bracket(x, y) + bracket(y, x)).is_zero()


@given(basis_elements, basis_elements, basis_elements)
def test_jacobi(x, y, z):
    total = (bracket(x, bracket(y, z))
             + bracket(y, bracket(z, x))
             + bracket(z, bracket(x, y)))
    assert total.is_zero()


@given(loop_elements, loop_elements)
def test_grading(x, y):
    result = bracket(x, y)
    if len(result.terms) == 1:
        (b, _), = result.terms.items()
        if b.degree is not None and not weight_of(b).is_zero():
            assert weight_of(b) == weight_of(x) + weight_of(y)


@given(basis_elements, basis_elements)
def test_bracket_of_basis_elements_matches_wrapped(x, y):
    assert bracket(x, y) == bracket(elt(x), elt(y))


def test_combinations_of_different_types_never_equal():
    assert AlgebraElement.zero() != ModuleVector.zero()
    assert AlgebraElement({"k": 2}) != ModuleVector({"k": 2})
    assert AlgebraElement({"k": 2}) == AlgebraElement({"k": Fraction(2)})


def test_add_scaled_drops_cancelled_terms():
    out = {e(0, 0): Fraction(1), f(0, 0): Fraction(2)}
    add_scaled(out, {e(0, 0): Fraction(1, 2), h(0, 0): Fraction(3)}, -2)
    assert out == {f(0, 0): 2, h(0, 0): -6}
    assert (elt(e(0, 0)) - elt(e(0, 0))).terms == {}
    assert (0 * elt(e(0, 0))).is_zero()


def test_bracket_is_bilinear(rng):
    for _ in range(50):
        x, y, z = (random_basis_element(rng) for _ in range(3))
        a, b = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4))
        lhs = bracket(a * elt(x) + b * elt(y), elt(z))
        assert lhs == a * bracket(x, z) + b * bracket(y, z)


def test_parse_element_roundtrip():
    x = parse_element("1/2*e(1,0) + 3*h(0,0) - c1 + d2")
    expected = (Fraction(1, 2) * elt(e(1, 0)) + 3 * elt(h(0, 0))
                - elt(C1) + elt(D2))
    assert x == expected
    assert parse_element(format_element(x)) == x


def test_parse_element_coefficient_products():
    assert parse_element("2*3/4*f(-1,2)") == Fraction(3, 2) * elt(f(-1, 2))
    assert parse_element("-e(0,0)") == -1 * elt(e(0, 0))


@pytest.mark.parametrize("bad", ["", "3", "e(1,0)*f(0,0)", "q(1,0)", "e(1,0) +",
                                 "1/0*e(0,0)", "e(1,0) - 3/00*c1"])
def test_parse_element_rejects(bad):
    with pytest.raises(ValueError):
        parse_element(bad)
