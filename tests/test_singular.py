"""Kernel scans for singular vectors and the shifted-orbit comparison."""

from fractions import Fraction

import pytest

from toroidal_sl2 import (HighestWeight, ModuleVector, e, f, find_singular,
                          h, module_for, orbit_report, raising_generators,
                          scan_vs_dot_orbit, scan_weights)
from toroidal_sl2.singular import dot_orbit_drops, dot_orbit_etas

from test_verma import alt_key


def test_raising_generators():
    assert raising_generators() == (e(0, 0), f(1, 0))


def test_positive_delta2_generators_kill_level_zero():
    eng = module_for(HighestWeight(2, 3))
    for eta in [(0, 0), (1, 1), (2, 1)]:
        for m in eng.weight_space_basis(eta):
            vec = ModuleVector.monomial(m)
            assert eng.act(e(0, 2), vec).is_zero()
            assert eng.act(h(0, 1), vec).is_zero()
            assert eng.act(f(-2, 1), vec).is_zero()


def test_vacuum_is_singular():
    cert = find_singular(HighestWeight(Fraction(1, 3), 2), (0, 0))
    assert cert.kernel_dim == 1
    assert cert.kernel[0] == ModuleVector.highest_weight_vector()
    assert cert.verified()


def test_lowering_power_kernel():
    cert = find_singular(HighestWeight(1, 1), (0, 2))
    assert [v for v in cert.kernel] == [ModuleVector.monomial(((f(0, 0), 2),))]
    assert cert.verified()


def test_affine_lowering_power_kernel():
    cert = find_singular(HighestWeight(0, 1), (2, 0))
    assert [v for v in cert.kernel] == [ModuleVector.monomial(((e(-1, 0), 2),))]
    assert cert.verified()


def test_generic_weight_has_no_singular_vector():
    cert = find_singular(HighestWeight(Fraction(1, 2), Fraction(1, 3)), (0, 1))
    assert cert.kernel_dim == 0


def test_kernels_reverify_through_act():
    pool = [HighestWeight(0, 0), HighestWeight(1, 2), HighestWeight(Fraction(3, 2), 1)]
    for hw in pool:
        eng = module_for(hw)
        for total in range(1, 5):
            for a0 in range(total + 1):
                cert = find_singular(hw, (a0, total - a0))
                assert cert.verified()
                for vec in cert.kernel:
                    for g in raising_generators():
                        assert eng.act(g, vec).is_zero()


@pytest.mark.parametrize("n1,k1", [(0, 0), (1, 1), (2, 3), (0, 2)])
def test_canonical_singular_vectors_detected(n1, k1):
    hw = HighestWeight(n1, k1)
    n0 = int(hw.n0)
    cert1 = find_singular(hw, (0, n1 + 1))
    assert ModuleVector.monomial(((f(0, 0), n1 + 1),)) in cert1.kernel
    cert0 = find_singular(hw, (n0 + 1, 0))
    assert ModuleVector.monomial(((e(-1, 0), n0 + 1),)) in cert0.kernel


def test_scan_vs_orbit_level_one():
    report = scan_vs_dot_orbit(HighestWeight(1, 1), 4)
    assert dict(report.singular) == {(0, 2): 1, (1, 0): 1}
    assert report.orbit == ((0, 2), (1, 0))
    assert report.orbit_covered
    assert report.extras == ()


def test_scan_vs_orbit_level_zero():
    report = scan_vs_dot_orbit(HighestWeight(0, 0), 3)
    assert dict(report.singular) == {(0, 1): 1, (1, 0): 1}
    assert report.orbit == ((0, 1), (1, 0))
    assert report.orbit_covered and report.extras == ()


def test_scan_vs_orbit_depth_eight_matches_exactly():
    report = scan_vs_dot_orbit(HighestWeight(1, 1), 8)
    assert dict(report.singular) == {(0, 2): 1, (1, 0): 1, (1, 4): 1, (5, 2): 1}
    assert report.orbit_covered and report.extras == ()


def test_generic_weight_scan_is_empty():
    found = scan_weights(HighestWeight(Fraction(1, 2), Fraction(1, 3)), 4)
    assert found == {}


def test_orbit_report_for_non_dominant_weight_has_no_orbit():
    hw = HighestWeight(3, Fraction(1, 2))
    report = orbit_report(hw, 4, scan_weights(hw, 4))
    assert report.singular == (((0, 4), 1), ((2, 1), 1))
    assert report.orbit is None and report.orbit_covered is None and report.extras is None


def test_dot_orbit_drops_walk_both_chains():
    # (word length, drop): the r0 chain, then the r1 chain
    assert dot_orbit_drops(HighestWeight(1, 1), 12) == [
        (1, (1, 0)), (2, (1, 4)), (3, (8, 4)), (1, (0, 2)), (2, (5, 2))]
    assert dot_orbit_etas(HighestWeight(1, 1), 12) == [(0, 2), (1, 0), (1, 4), (5, 2), (8, 4)]


def test_orbit_requires_dominant_integral():
    with pytest.raises(ValueError):
        dot_orbit_etas(HighestWeight(Fraction(1, 2), 1), 4)


def test_kernel_dims_stable_under_reordering():
    hw = HighestWeight(1, 1)
    for total in range(1, 4):
        for a0 in range(total + 1):
            eta = (a0, total - a0)
            assert (find_singular(hw, eta).kernel_dim
                    == find_singular(hw, eta, alt_key).kernel_dim)


def test_kernels_unaffected_by_d_values():
    plain = HighestWeight(1, 2)
    shifted = HighestWeight(1, 2, d1=Fraction(5), d2=Fraction(-1, 3))
    for total in range(1, 5):
        for a0 in range(total + 1):
            eta = (a0, total - a0)
            c1 = find_singular(plain, eta)
            c2 = find_singular(shifted, eta)
            assert c1.kernel == c2.kernel
