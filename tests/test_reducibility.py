"""Resonance pairs, the exact decision bound, and cross-checks with kernels."""

from fractions import Fraction
import time

from toroidal_sl2 import (ALPHA, HighestWeight, RHO, RootVector, Weight,
                          coroot, dot_action, find_singular, is_positive,
                          is_reducible, kk_pairs, q1_coords, scan_weights,
                          sufficient_kmax)


def hw_of(n1, k1):
    return HighestWeight(Fraction(n1), Fraction(k1))


def test_kk_pairs_level_zero():
    pairs = {(p.beta, p.l) for p in kk_pairs(hw_of(0, 0), 3)}
    assert (ALPHA, 1) in pairs


def test_kk_pairs_level_one():
    pairs = {(p.beta, p.l) for p in kk_pairs(hw_of(1, 1), 3)}
    assert (ALPHA, 2) in pairs
    assert (RootVector(-1, 1, 0), 1) in pairs


def test_kk_pairs_generic_empty():
    assert kk_pairs(HighestWeight(Fraction(1, 2), Fraction(1, 3)), 20) == []


def test_resonance_invariant():
    for hw in (hw_of(0, 0), hw_of(1, 1), hw_of(3, 2), HighestWeight(Fraction(5, 2), Fraction(3, 2))):
        lam_rho = hw.weight() + RHO
        for p in kk_pairs(hw, 6):
            assert lam_rho.pair(coroot(p.beta)) == p.l
            assert p.quotient_weight == hw.weight() - p.l * Weight.from_root(p.beta)


def test_kk_pairs_match_general_pairing_route(rng):
    # the closed-form progressions against (lam + rho)(beta_check) over every
    # positive real root a*alpha + k*delta1 with |k| <= kmax
    hits = 0
    for _ in range(300):
        n1, k1, d1, d2 = (Fraction(rng.randint(lo, 8), rng.randint(1, 4))
                          for lo in (-8, 0, -8, -8))
        hw = HighestWeight(n1, k1, d1, d2)
        kmax = rng.randint(0, 10)
        lam = hw.weight()
        expected = set()
        for a in (1, -1):
            for k in range(-kmax, kmax + 1):
                beta = RootVector(a, k, 0)
                l = (lam + RHO).pair(coroot(beta))
                if is_positive(beta) and l.denominator == 1 and l >= 1:
                    expected.add((beta, int(l), lam - l * Weight.from_root(beta)))
        got = kk_pairs(hw, kmax)
        assert all(type(p.l) is int for p in got)
        assert len(got) == len(expected)
        assert {(p.beta, p.l, p.quotient_weight) for p in got} == expected
        hits += len(got)
    assert hits > 100


def test_quotient_weights_match_the_root_formula(rng):
    # the test_c05 distribution, every other weight with d1, d2 nonzero, at
    # the decision bound; the weight is lam - l*beta, each field a Fraction
    shifted = 0
    for i in range(400):
        n1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        k1 = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        d1, d2 = ((Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in "ab")
                  if i % 2 else (0, 0))
        hw = HighestWeight(n1, k1, d1, d2)
        for p in kk_pairs(hw, sufficient_kmax(hw)):
            old = hw.weight() - p.l * Weight.from_root(p.beta)
            assert p.quotient_weight == old
            assert all(type(x) is Fraction for x in p.quotient_weight)
            assert p.quotient_weight.to_json() == old.to_json()
            shifted += bool(hw.d1 and hw.d2)
    assert shifted > 100


def walk_kk_pairs(hw, kmax):
    # every k up to kmax, as the scan did before it solved for integral terms
    lam = hw.weight()
    out = []
    for k in range(kmax + 1):
        for a in (1, -1) if k else (1,):
            l = a * (hw.n1 + 1) + k * (hw.k1 + 2)
            if l.denominator == 1 and l >= 1:
                beta = RootVector(a, k, 0)
                out.append((beta, int(l), lam - l * Weight.from_root(beta)))
    out.sort(key=lambda p: (p[1] * (2 * p[0].n1 + p[0].a), p[0].n1, -p[0].a))
    return out


def test_kk_pairs_match_walk_over_every_k(rng):
    for _ in range(600):
        hw = HighestWeight(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                           Fraction(rng.randint(0, 30), rng.randint(1, 12)))
        kmax = rng.randint(0, 40)
        got = [(p.beta, p.l, p.quotient_weight) for p in kk_pairs(hw, kmax)]
        assert got == walk_kk_pairs(hw, kmax)


def test_large_denominators_decide_without_walking_the_bound():
    hw = HighestWeight(Fraction(1, 1009), Fraction(1, 1013))
    start = time.perf_counter()
    report = is_reducible(hw)
    assert time.perf_counter() - start < 1.0
    assert (report.verdict, report.witnesses, report.scan_bound) == (False, (), 1022119)


def test_dominant_integral_always_reducible():
    for n1 in range(4):
        for n0 in range(4):
            hw = hw_of(n1, n1 + n0)
            report = is_reducible(hw)
            assert report.verdict
            assert any(p.beta == ALPHA and p.l == n1 + 1 for p in report.witnesses)


def test_generic_rational_irreducible():
    report = is_reducible(HighestWeight(Fraction(1, 2), Fraction(1, 3)))
    assert not report.verdict
    assert report.witnesses == ()


def test_negative_n1_can_be_irreducible():
    report = is_reducible(HighestWeight(Fraction(-3, 2), 0))
    assert not report.verdict


def test_verdict_unaffected_by_d_values():
    for n1, k1 in [(1, 1), (Fraction(1, 2), Fraction(1, 3)), (Fraction(-3, 2), 0)]:
        plain = is_reducible(HighestWeight(n1, k1))
        shifted = is_reducible(HighestWeight(n1, k1, d1=7, d2=Fraction(2, 5)))
        assert plain.verdict == shifted.verdict
        assert [(p.beta, p.l) for p in plain.witnesses] == \
               [(p.beta, p.l) for p in shifted.witnesses]


def test_scan_bound_is_recorded_and_sufficient():
    hw = HighestWeight(Fraction(1, 2), Fraction(1, 3))
    report = is_reducible(hw)
    assert report.scan_bound == sufficient_kmax(hw)
    # nothing appears even far beyond the certified bound
    assert kk_pairs(hw, report.scan_bound + 50) == []


def generator_weights(hw):
    return [p.quotient_weight for p in is_reducible(hw).witnesses]


def test_maximal_submodule_generators():
    gens = generator_weights(hw_of(0, 0))
    lam = hw_of(0, 0).weight()
    assert lam - Weight.from_root(ALPHA) in gens
    assert generator_weights(HighestWeight(Fraction(1, 2), Fraction(1, 3))) == []
    gens11 = generator_weights(hw_of(1, 1))
    lam11 = hw_of(1, 1).weight()
    assert lam11 - 2 * Weight.from_root(ALPHA) in gens11
    assert lam11 - Weight.from_root(RootVector(-1, 1, 0)) in gens11


def test_soundness_witnesses_have_kernels():
    for hw in (hw_of(1, 1), hw_of(0, 2)):
        for p in is_reducible(hw).witnesses:
            eta = q1_coords(p.l * p.beta)
            if eta[0] + eta[1] <= 6:
                assert find_singular(hw, eta).kernel_dim > 0


def test_completeness_irreducible_means_empty_scan():
    for hw in (HighestWeight(Fraction(1, 2), Fraction(1, 3)),
               HighestWeight(Fraction(-3, 2), 0)):
        assert not is_reducible(hw).verdict
        assert scan_weights(hw, 5) == {}


def test_embedding_chain_through_quotient_weights():
    # every shifted-orbit point of word length <= 3 arises by iterating
    # quotient weights of successive resonance pairs
    hw = HighestWeight(1, 2)
    lam = hw.weight()
    words = [["r1"], ["r0"], ["r1", "r0"], ["r0", "r1"],
             ["r1", "r0", "r1"], ["r0", "r1", "r0"]]
    targets = [dot_action(w, lam) for w in words]

    def height(drop):
        a0 = drop.d1
        a1 = drop.h / 2 + a0
        return a0 + a1

    max_height = max(height(lam - t) for t in targets)
    reachable = {lam}
    frontier = {lam}
    for _ in range(3):
        new = set()
        for mu in frontier:
            mu_hw = HighestWeight.from_weight(mu)
            for p in kk_pairs(mu_hw, 25):
                if height(lam - p.quotient_weight) <= max_height:
                    new.add(p.quotient_weight)
        frontier = new - reachable
        reachable |= new
    for t in targets:
        assert t in reachable
