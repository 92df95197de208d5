"""Root classification, the positive partition, reflections, and forms."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toroidal_sl2 import (ALPHA, ALPHA0, ALPHA1, DELTA1, DELTA2, RHO,
                          RootVector, Weight, classify, coroot, dot_action,
                          is_positive, q1_coords, reflect, root_from_q1)
from toroidal_sl2.roots import (IMAGINARY, NOT_ROOT, REAL, CartanElement,
                                roots_in_box, weight_as_root)

from conftest import form_hstar


def test_classify():
    assert classify(ALPHA - 3 * DELTA1 + DELTA2) == REAL
    assert classify(-1 * DELTA1 + 5 * DELTA2) == IMAGINARY
    assert classify(RootVector(0, 0, 0)) == NOT_ROOT
    assert classify(RootVector(2, 1, 0)) == NOT_ROOT


def test_is_positive_samples():
    assert is_positive(ALPHA - 2 * DELTA1 + DELTA2)
    assert not is_positive(-1 * DELTA2)
    assert is_positive(3 * DELTA1)
    assert is_positive(ALPHA0) and is_positive(ALPHA1)
    assert not is_positive(ALPHA - DELTA1)


def test_is_positive_rejects_non_roots():
    with pytest.raises(ValueError):
        is_positive(RootVector(0, 0, 0))
    with pytest.raises(ValueError):
        is_positive(RootVector(-2, 0, 1))


def test_partition_box_10():
    for r in roots_in_box(10):
        assert is_positive(r) != is_positive(-r)


def test_records_scale_from_the_left_only():
    assert 2 * RootVector(1, 0, 0) == RootVector(2, 0, 0)
    assert 2 * Weight.make(1, 2) == Weight.make(2, 4)
    with pytest.raises(TypeError):
        RootVector(1, 0, 0) * 2
    with pytest.raises(TypeError):
        Weight.make(1, 2) * 2
    with pytest.raises(AttributeError):
        ALPHA.a = 2


def test_weight_repr_names_its_fields():
    assert repr(Weight.make(1, 2)) == ("Weight(h=Fraction(1, 1), c1=Fraction(2, 1), "
                                       "c2=Fraction(0, 1), d1=Fraction(0, 1), d2=Fraction(0, 1))")
    assert repr(RootVector(1, -2, 0)) == "RootVector(1, -2, 0)"


def test_coroot():
    assert coroot(ALPHA0) == CartanElement.make(-1, 1, 0, 0, 0)
    assert coroot(DELTA2 - ALPHA) == CartanElement.make(-1, 0, 1, 0, 0)
    assert coroot(ALPHA) == CartanElement.make(1, 0, 0, 0, 0)


def test_coroot_rejects_imaginary():
    with pytest.raises(ValueError):
        coroot(DELTA1)
    with pytest.raises(ValueError):
        coroot(RootVector(0, 0, 0))


def test_reflect_alpha_flips_h():
    lam = Weight.make(3, 5, 7, 1, 2)
    image = reflect(ALPHA, lam)
    assert image == Weight.make(-3, 5, 7, 1, 2)


def test_reflect_alpha0_example():
    lam = Weight.make(1, 2, 0, 0, 0)
    assert reflect(ALPHA0, lam) == Weight.make(3, 2, 0, -1, 0)


real_roots = st.builds(
    lambda a, n1, n2: RootVector(a, n1, n2),
    st.sampled_from([1, -1]), st.integers(-5, 5), st.integers(-5, 5))

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))

weights = st.builds(Weight, rationals, rationals, rationals, rationals, rationals)


@given(real_roots, weights)
def test_reflect_is_involution(beta, lam):
    assert reflect(beta, reflect(beta, lam)) == lam


@given(real_roots, weights, weights)
def test_reflect_preserves_form(beta, x, y):
    assert form_hstar(reflect(beta, x), reflect(beta, y)) == form_hstar(x, y)


@given(real_roots, weights)
def test_reflect_matches_the_pairing_formula(beta, lam):
    # reflect works field by field; the formula it replaced, in full
    expected = lam - lam.pair(coroot(beta)) * Weight.from_root(beta)
    image = reflect(beta, lam)
    assert image == expected and all(type(x) is Fraction for x in image)


def test_reflect_rejects_non_real_roots():
    for beta in (DELTA1, DELTA2 - 2 * DELTA1, RootVector(0, 0, 0), RootVector(2, 1, 0)):
        with pytest.raises(ValueError, match="real roots only"):
            reflect(beta, Weight.make(1, 2, 0, 0, 0))


@given(real_roots, real_roots)
def test_reflection_maps_real_roots_to_real_roots(beta, gamma):
    image = reflect(beta, Weight.from_root(gamma))
    assert classify(weight_as_root(image)) == REAL


def test_dot_action_identity_and_involution():
    lam = Weight.make(Fraction(5, 2), 1, 0, 3, 0)
    assert dot_action([], lam) == lam
    assert dot_action(["r1"], dot_action(["r1"], lam)) == lam
    assert dot_action(["r0"], dot_action(["r0"], lam)) == lam


def test_dot_action_r1_drops_n1_plus_one_alphas():
    lam = Weight.make(4, 2, 0, 0, 0)
    assert dot_action(["r1"], lam) == lam - 5 * Weight.from_root(ALPHA)


@given(weights, st.lists(st.sampled_from(["r0", "r1"]), max_size=4),
       st.lists(st.sampled_from(["r0", "r1"]), max_size=4))
def test_dot_action_composes(lam, w1, w2):
    assert dot_action(w1, dot_action(w2, lam)) == dot_action(w1 + w2, lam)


def test_dot_action_rejects_unknown_generator():
    with pytest.raises(ValueError):
        dot_action(["r2"], RHO)


def test_rho_values():
    assert RHO.pair(coroot(ALPHA1)) == 1
    assert RHO.pair(coroot(ALPHA0)) == 1
    assert RHO.pair(coroot(DELTA2 - ALPHA)) == 1


def test_form_values():
    a = Weight.from_root(ALPHA)
    d1, d2 = Weight.from_root(DELTA1), Weight.from_root(DELTA2)
    om1 = Weight.make(0, 1, 0, 0, 0)
    assert form_hstar(a, a) == 2
    assert form_hstar(d1, d2) == 0
    assert form_hstar(d1, om1) == 1
    assert form_hstar(d2, om1) == 0
    assert form_hstar(a, d1) == 0 and form_hstar(a, om1) == 0


def test_q1_coords_roundtrip():
    for a0 in range(5):
        for a1 in range(5):
            assert q1_coords(root_from_q1(a0, a1)) == (a0, a1)
    with pytest.raises(ValueError):
        q1_coords(DELTA2)
    with pytest.raises(ValueError):
        q1_coords(-1 * ALPHA)


def test_weight_json_roundtrip():
    w = Weight.make(Fraction(-3, 2), 2, 0, Fraction(1, 7), 0)
    assert Weight.from_json(w.to_json()) == w


@pytest.mark.parametrize("obj,field", [
    ({"h": "1", "c1": "0", "c2": "0", "d1": "0"}, "d2"),
    ({"h": "x", "c1": "0", "c2": "0", "d1": "0", "d2": "0"}, "h"),
    ({"h": "1", "c1": "1.5", "c2": "0", "d1": "0", "d2": "0"}, "c1"),
    ({"h": "1", "c1": "0", "c2": "0", "d1": "0", "d2": "0", "zz": "0"}, "zz"),
])
def test_weight_json_errors_name_the_field(obj, field):
    with pytest.raises(ValueError, match=field):
        Weight.from_json(obj)
