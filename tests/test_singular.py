"""Kernel scans for singular vectors and the shifted-orbit comparison."""

import copy
import io
from fractions import Fraction

import pytest

from toroidal_sl2 import (HighestWeight, ModuleVector, SingularCertificate, cli, e, f,
                          find_singular, h, is_reducible, linalg, module_for, orbit_report,
                          quotient_singular_dim, scan_weights, singular)
from toroidal_sl2.roots import dot_action, q1_coords, weight_as_root
from toroidal_sl2.quotient import _in_m_f
from toroidal_sl2.singular import (_RAISING_DROP, RAISING, _raising_matrices, dot_orbit_drops,
                                   dot_orbit_etas, raising_pencil, scan_drops)
from toroidal_sl2.verma import _ENGINES, VermaModule, weight_free_engine

from conftest import drawn_weights, integral_rows, is_negative


def test_raising_generators():
    assert RAISING == (e(0, 0), f(1, 0))


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
                    for g in RAISING:
                        assert eng.act(g, vec).is_zero()


def test_unverified_certificate_raises(monkeypatch):
    # a scan must not count kernel vectors that the raising operators do not kill
    monkeypatch.setattr(SingularCertificate, "verified", lambda self: False)
    with pytest.raises(AssertionError, match="is not annihilated by the raising operators"):
        scan_weights(HighestWeight(1, 2), 2)


def _reference_raising_matrix(engine, g, basis, eta):
    """act(g, .) straightened at the engine's weight, one monomial at a time."""
    d0, d1 = _RAISING_DROP[g]
    target_eta = (eta[0] - d0, eta[1] - d1)
    images = [engine.act(g, ModuleVector.monomial(m)) for m in basis]
    if min(target_eta) < 0:
        assert all(image.is_zero() for image in images)
        return []
    return [[image.terms.get(m2, 0) for image in images]
            for m2 in engine.weight_space_basis(target_eta)]


def _random_rational(rng, low, high):
    return Fraction(rng.randint(low, high), rng.randint(1, 4))


def test_raising_matrix_matches_act_at_the_weight(rng):
    # q R_g(0) + p L_g = q R_g(lam), n = p/q, evaluated from each drop's
    # pencil, against straightening each column's monomial at lam; fresh
    # engines, so no action that reads lam comes from another weight's memo.
    # Random weights with d-values, then weights drawn as the benchmark's
    # weights workload draws them
    weights = [HighestWeight(_random_rational(rng, -9, 9), _random_rational(rng, 0, 9),
                             _random_rational(rng, -5, 5), _random_rational(rng, -5, 5))
               for _ in range(50)]
    for hw in weights + drawn_weights(rng, 12):
        engine = VermaModule(hw)
        for eta in scan_drops(0, 10):
            basis = engine.weight_space_basis(eta)
            matrices = _raising_matrices(hw, raising_pencil(eta), len(basis))
            for g, n, matrix in zip(RAISING, (hw.n1, hw.n0), matrices):
                reference = [[n.denominator * c for c in row]
                             for row in _reference_raising_matrix(engine, g, basis, eta)]
                assert matrix == reference, (hw, eta, g)


def test_raising_matrix_is_integral_and_exact_at_integral_weights():
    # no Fraction at rational weights, and the action itself where n is an
    # integer, as in every quotient_singular_dim call
    for hw in [HighestWeight(Fraction(-7, 3), Fraction(5, 2)),
               HighestWeight(Fraction(1, 2), Fraction(1, 4), Fraction(2, 3)),
               HighestWeight(-3, 0), HighestWeight(4, 1, Fraction(1, 2), Fraction(-2, 3)),
               HighestWeight(2, Fraction(7, 3))]:
        engine = VermaModule(hw)
        for eta in scan_drops(0, 8):
            basis = engine.weight_space_basis(eta)
            matrices = _raising_matrices(hw, raising_pencil(eta), len(basis))
            for g, n, matrix in zip(RAISING, (hw.n1, hw.n0), matrices):
                assert all(type(c) is int for row in matrix for c in row), (hw, eta, g)
                if n.denominator == 1:
                    assert matrix == _reference_raising_matrix(engine, g, basis, eta)


def test_a_second_weight_at_a_drop_straightens_nothing(fresh_weight_free, monkeypatch):
    # the pencil of a drop is built once; at another weight find_singular
    # only evaluates it, and an empty kernel leaves nothing to check with act
    fresh_weight_free()
    eta = (4, 4)
    assert find_singular(HighestWeight(Fraction(1, 3), Fraction(5, 2)), eta).kernel_dim == 0
    pencil = raising_pencil(eta)
    before = copy.deepcopy(pencil)
    calls = []
    uncached = VermaModule._act_basis_uncached

    def counted(self, g, positive, m):
        calls.append((g, m))
        return uncached(self, g, positive, m)

    monkeypatch.setattr(VermaModule, "_act_basis_uncached", counted)
    assert find_singular(HighestWeight(Fraction(-7, 4), Fraction(3, 4)), eta).kernel_dim == 0
    assert calls == [] and raising_pencil(eta) is pencil and pencil == before


def test_quotient_straightens_no_column_in_m_f(fresh_weight_free):
    # quotient_singular_dim builds its pencil over the columns of M(lam)/M_f
    # only: no raising action on a monomial of f(0,0) exponent above n1
    hw = HighestWeight(1, 2)
    skipped = 0
    for eta in [(3, 3), (2, 5), (0, 4), (4, 0)]:
        free = fresh_weight_free()
        quotient_singular_dim(hw, eta)
        basis = free.weight_space_basis(eta)
        straightened = {(g, m) for g, m in free._cache if g in RAISING and m in set(basis)}
        assert straightened == {(g, m) for g in RAISING for m in basis if not _in_m_f(m, 1)}
        skipped += sum(_in_m_f(m, 1) for m in basis)
    assert skipped > 10


def test_kernels_from_a_warm_memo_match_act_at_the_weight(fresh_weight_free, rng):
    # rational weights drawn as the benchmark's weights workload draws them,
    # each at the probe drop (4, 4) and at its first witness drop of height
    # <= 10; the second pass reads every raising image from the memo that
    # the first pass filled
    free = fresh_weight_free()
    weights = drawn_weights(rng, 24)
    requests = []
    for hw in weights:
        requests.append((hw, (4, 4)))
        drops = [q1_coords(p.l * p.beta) for p in is_reducible(hw).witnesses]
        requests.extend([(hw, eta) for eta in drops if sum(eta) <= 10][:1])
    assert len(requests) > len(weights)
    sizes, found = [], 0
    for _ in range(2):
        for hw, eta in requests:
            engine = VermaModule(hw)
            basis = engine.weight_space_basis(eta)
            reference = [row for g in RAISING
                         for row in _reference_raising_matrix(engine, g, basis, eta)]
            expected = tuple(ModuleVector({basis[j]: c for j, c in x.items()})
                             for x in linalg.nullspace(integral_rows(reference), len(basis)))
            assert find_singular(hw, eta).kernel == expected, (hw, eta)
            found += len(expected)
        sizes.append(len(free._cache))
    assert found and sizes[0] == sizes[1]


def test_lowering_term_reads_the_weight():
    # e(0,0) f(0,0) v = n1 v and f(1,0) e(-1,0) v = n0 v
    fv = ModuleVector.monomial(((f(0, 0), 1),))
    ev = ModuleVector.monomial(((e(-1, 0), 1),))
    assert find_singular(HighestWeight(0, 0), (0, 1)).kernel == (fv,)
    assert find_singular(HighestWeight(1, 2), (0, 1)).kernel == ()
    assert find_singular(HighestWeight(2, 2), (1, 0)).kernel == (ev,)
    assert find_singular(HighestWeight(1, 2), (1, 0)).kernel == ()


def test_certificate_catches_a_missing_weight_term(monkeypatch):
    # the kernel check straightens at lam, so it does not rely on the identity:
    # here both pencils are evaluated at n = 0, whatever the weight
    raising_matrices = singular._raising_matrices
    monkeypatch.setattr(singular, "_raising_matrices", lambda hw, pencil, ncols:
                        raising_matrices(HighestWeight(0, 0), pencil, ncols))
    with pytest.raises(AssertionError, match="is not annihilated by the raising operators"):
        find_singular(HighestWeight(1, 2), (0, 1))
    out, err = io.StringIO(), io.StringIO()
    weight = '{"h":"1","c1":"2","c2":"0","d1":"0","d2":"0"}'
    assert cli.run(["singular", "--weight", weight, "--eta", "0,1"], out, err) == 1
    assert out.getvalue() == "" and "annihilated" in err.getvalue()


@pytest.mark.parametrize("n1,k1", [(0, 0), (1, 1), (2, 3), (0, 2)])
def test_canonical_singular_vectors_detected(n1, k1):
    hw = HighestWeight(n1, k1)
    n0 = int(hw.n0)
    cert1 = find_singular(hw, (0, n1 + 1))
    assert ModuleVector.monomial(((f(0, 0), n1 + 1),)) in cert1.kernel
    cert0 = find_singular(hw, (n0 + 1, 0))
    assert ModuleVector.monomial(((e(-1, 0), n0 + 1),)) in cert0.kernel


def test_scan_vs_orbit_level_one():
    hw = HighestWeight(1, 1)
    report = orbit_report(hw, 4, scan_weights(hw, 4))
    assert dict(report.singular) == {(0, 2): 1, (1, 0): 1}
    assert report.orbit == ((0, 2), (1, 0))
    assert report.orbit_covered
    assert report.extras == ()


def test_scan_vs_orbit_level_zero():
    hw = HighestWeight(0, 0)
    report = orbit_report(hw, 3, scan_weights(hw, 3))
    assert dict(report.singular) == {(0, 1): 1, (1, 0): 1}
    assert report.orbit == ((0, 1), (1, 0))
    assert report.orbit_covered and report.extras == ()


def test_scan_vs_orbit_depth_eight_matches_exactly():
    hw = HighestWeight(1, 1)
    report = orbit_report(hw, 8, scan_weights(hw, 8))
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


def test_dot_orbit_drops_match_full_words():
    # each chain step is one reflection on the previous weight; the
    # reference rebuilds the alternating word and applies all of it
    for n1 in range(4):
        for n0 in range(4):
            hw = HighestWeight(n1, n1 + n0)
            lam = hw.weight()
            for height in range(15):
                expected = []
                for first, other in (("r0", "r1"), ("r1", "r0")):
                    word = [first]
                    while True:
                        drop = q1_coords(weight_as_root(lam - dot_action(word, lam)))
                        if sum(drop) > height:
                            break
                        expected.append((len(word), drop))
                        word.insert(0, other if word[0] == first else first)
                assert dot_orbit_drops(hw, height) == expected


def test_orbit_requires_dominant_integral():
    with pytest.raises(ValueError):
        dot_orbit_etas(HighestWeight(Fraction(1, 2), 1), 4)


def test_kernels_unaffected_by_d_values():
    plain = HighestWeight(1, 2)
    shifted = HighestWeight(1, 2, d1=Fraction(5), d2=Fraction(-1, 3))
    for total in range(1, 5):
        for a0 in range(total + 1):
            eta = (a0, total - a0)
            c1 = find_singular(plain, eta)
            c2 = find_singular(shifted, eta)
            assert c1.kernel == c2.kernel


def test_half_integral_weight_caches_no_integral_fractions():
    # raising matrices are straightened once, at weight zero: over the integers
    free = weight_free_engine()
    hw = HighestWeight(Fraction(1, 2), Fraction(1, 4))
    assert scan_weights(hw, 9) == {(6, 3): 1}
    engine = module_for(hw)
    assert free._cache
    assert all(type(c) is int for terms in free._cache.values() for c in terms.values())
    # negative letters never read lam: their actions join the same memo
    assert any(is_negative(g) for g, _ in free._cache)
    # the certificate straightens at lam into the engine's own memo, where
    # half-integral Cartan values sum and multiply to integers along the way;
    # those are stored as int, the rest stay Fraction
    coeffs = [c for terms in engine._cache.values() for c in terms.values()]
    assert any(type(c) is Fraction for c in coeffs)
    assert not any(type(c) is Fraction and c.denominator == 1 for c in coeffs)
    # a second weight at the same drops adds no entry to the weight-free memo
    size = len(free._cache)
    scan_weights(HighestWeight(Fraction(1, 2), 3), 9)
    assert len(free._cache) == size


def test_evicted_engine_is_rebuilt_with_the_same_reports():
    hw = HighestWeight(1, 2)

    def reports():
        return [find_singular(hw, (a0, total - a0)).to_json()
                for total in range(1, 7) for a0 in range(total + 1)]

    # one slot: an engine at another weight drops the one at hw
    first, engine = reports(), module_for(hw)
    module_for(HighestWeight(0, 50))
    assert hw not in _ENGINES
    assert reports() == first
    assert module_for(hw) is not engine


def test_kernel_vectors_have_integer_coefficients():
    # kernels are primitive integer vectors, also where k1 is not integral
    found = 0
    for hw in (HighestWeight(1, 2), HighestWeight(2, 2), HighestWeight(3, Fraction(1, 2))):
        for total in range(1, 9):
            for a0 in range(total + 1):
                for vec in find_singular(hw, (a0, total - a0)).kernel:
                    found += 1
                    assert all(type(c) is int for _, c in vec.items())
    assert found >= 9
