"""Acceptance criteria, one test per criterion, all exact (tolerance 0).

Each test prints one ``ACCEPTANCE <criterion>: PASS/FAIL`` line (visible
with ``pytest -s``; the test outcome mirrors it).  Randomized criteria
draw from ``random.Random(TV_SEED)`` so runs are reproducible.

Criterion 3 pins the dimension at eta = alpha + delta1 = alpha0 + 2 alpha1
to 3.  At delta2-level 0 the weight space of weight lam - eta has a basis
indexed by the multisets of positive roots of the horizontal affine
subalgebra that sum to eta, each root with multiplicity one.  Here there
are exactly three: {alpha + delta1}, {alpha, delta1} and
{alpha1, alpha1, alpha0}, giving the monomials f(-1,0)v, h(-1,0)f(0,0)v
and e(-1,0)f(0,0)^2 v.  The value 2 once stated for this criterion is the
dimension at delta1 = alpha0 + alpha1 ({delta1} and {alpha0, alpha1}),
not at alpha + delta1.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from toroidal_sl2 import (ALPHA, ALPHA0, ALPHA1, DELTA1, HighestWeight, ModuleVector,
                          RootVector, bracket, demo_infinite_dim,
                          demo_nonintegrability, dim_oracle, e, f, find_singular,
                          h, is_positive, is_reducible, lchar_oracle, module_for,
                          orbit_report, q1_coords, quotient_singular_dim,
                          scan_weights, w_multiplicity)
from toroidal_sl2.roots import roots_in_box
from toroidal_sl2.singular import RAISING

from conftest import SEED, random_basis_element, random_canonical_monomial


def check(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" [{detail}]" if detail else ""))
    assert ok, f"{name} {detail}"


def test_c01_bracket_laws():
    rng = random.Random(SEED)
    ok = True
    for _ in range(1000):
        x, y, z = (random_basis_element(rng, 5, 5) for _ in range(3))
        ok = ok and (bracket(x, y) + bracket(y, x)).is_zero()
        jac = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
               + bracket(z, bracket(x, y)))
        ok = ok and jac.is_zero()
    check("1 bracket laws", ok)


def test_c02_representation_property():
    rng = random.Random(SEED + 2)
    hws = [HighestWeight(1, 1), HighestWeight(0, 2),
           HighestWeight(Fraction(1, 2), Fraction(1, 3))]
    ok = True
    for i in range(500):
        eng = module_for(hws[i % len(hws)])
        x = random_basis_element(rng, mbound=3, nbound=2)
        y = random_basis_element(rng, mbound=3, nbound=2)
        v = ModuleVector.monomial(random_canonical_monomial(rng))
        lhs = eng.act(bracket(x, y), v)
        rhs = eng.act(x, eng.act(y, v)) - eng.act(y, eng.act(x, v))
        ok = ok and lhs == rhs
    check("2 representation property", ok)


def test_c03_dimension_oracle_agreement():
    hw = HighestWeight(0, 0)
    eng = module_for(hw)
    ok = True
    for a0 in range(7):
        for a1 in range(7):
            ok = ok and len(eng.weight_space_basis((a0, a1))) == dim_oracle((a0, a1))
    ok = ok and eng.weight_space_basis((0, 0)) == [()]
    check("3 dimension oracle agreement (49 weights, top dim 1)", ok)


def test_c03_stated_dimension_at_alpha_plus_delta1():
    # the stated value is the number of multisets of positive horizontal
    # affine roots summing to alpha + delta1, written out by hand:
    #   {alpha + delta1}          -> f(-1,0)v
    #   {alpha, delta1}           -> h(-1,0)f(0,0)v
    #   {alpha1, alpha1, alpha0}  -> e(-1,0)f(0,0)^2 v
    # (2 is the count at delta1 = (1, 1): {delta1}, {alpha0, alpha1})
    eta = ALPHA + DELTA1
    partitions = [(ALPHA + DELTA1,), (ALPHA, DELTA1), (ALPHA1, ALPHA1, ALPHA0)]
    ok = q1_coords(eta) == (1, 2)
    ok = ok and len({frozenset(Counter(p).items()) for p in partitions}) == len(partitions)
    for p in partitions:
        ok = ok and all(r.n2 == 0 and is_positive(r) for r in p)
        ok = ok and sum(p, RootVector(0, 0, 0)) == eta
    stated = len(partitions)
    pbw = len(module_for(HighestWeight(0, 0)).weight_space_basis((1, 2)))
    oracle = dim_oracle((1, 2))
    check("3 stated value at alpha+delta1", ok and pbw == stated and oracle == stated,
          f"stated {stated}, enumeration {pbw}, partition count {oracle}")


@pytest.mark.parametrize("n1,k1", [(0, 0), (1, 1), (2, 3), (0, 2)])
def test_c04_canonical_singular_vectors(n1, k1):
    hw = HighestWeight(n1, k1)
    n0 = int(hw.n0)
    eng = module_for(hw)
    ok = True
    for eta, vec in [((0, n1 + 1), ModuleVector.monomial(((f(0, 0), n1 + 1),))),
                     ((n0 + 1, 0), ModuleVector.monomial(((e(-1, 0), n0 + 1),)))]:
        cert = find_singular(hw, eta)
        ok = ok and vec in cert.kernel and cert.verified()
        for g in RAISING:
            ok = ok and eng.act(g, vec).is_zero()
    check(f"4 singular vectors for (n1,k1)=({n1},{k1})", ok)


@pytest.mark.slow
def test_c05_reducibility_cross_validation():
    rng = random.Random(SEED + 5)
    reducible_checked = irreducible_checked = deferred = 0
    ok = True
    for _ in range(50):
        n1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        k1 = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        hw = HighestWeight(n1, k1)
        report = is_reducible(hw)
        if report.verdict:
            in_depth = [p for p in report.witnesses
                        if sum(q1_coords(p.l * p.beta)) <= 8]
            if not in_depth:
                deferred += 1
                continue
            eta = q1_coords(in_depth[0].l * in_depth[0].beta)
            ok = ok and find_singular(hw, eta).kernel_dim > 0
            reducible_checked += 1
        else:
            ok = ok and scan_weights(hw, 8) == {}
            irreducible_checked += 1
    ok = ok and reducible_checked >= 5 and irreducible_checked >= 5
    check("5 reducibility cross-validation",
          ok, f"{reducible_checked} reducible, {irreducible_checked} irreducible, "
              f"{deferred} with no witness inside depth 8")


def test_c06_nonintegrability_identity():
    ok = True
    for n1 in (0, 1, 2):
        eng = module_for(HighestWeight(n1, 1))
        for n in range(1, 7):
            lhs = eng.act(f(0, 1), ModuleVector.monomial(((e(0, -1), n),)))
            coeff = -n * (n - 1 + n1)
            rhs = (coeff * ModuleVector.monomial(((e(0, -1), n - 1),)) if n > 1
                   else coeff * ModuleVector.highest_weight_vector())
            ok = ok and lhs == rhs
    for k1 in (1, Fraction(1, 2)):
        eng = module_for(HighestWeight(0, k1))
        transcript = demo_nonintegrability(HighestWeight(0, k1), 6)
        ok = ok and transcript.all_hold()
        contradiction = eng.act(h(-1, 1), ModuleVector.monomial(((h(1, -1), 1),)))
        ok = ok and contradiction == (-2 * k1) * ModuleVector.highest_weight_vector()
        ok = ok and not contradiction.is_zero()
    check("6 nonintegrability identities", ok)


def test_c07_infinite_dimensionality_rank():
    report = demo_infinite_dim(HighestWeight(0, 1), 10)
    ok = report.rank == 10
    ok = ok and report.diagonal == tuple(str(2 * s) for s in range(1, 11))
    check("7 infinite-dimensionality rank", ok, f"rank {report.rank}, diag {report.diagonal}")


@pytest.mark.parametrize("n1,k1", [(0, 1), (1, 1), (1, 2), (2, 2)])
def test_c08_quotient_character_match(n1, k1):
    hw = HighestWeight(n1, k1)
    ok = True
    for total in range(7):
        for a0 in range(total + 1):
            eta = (a0, total - a0)
            ok = ok and w_multiplicity(hw, eta).quotient_dim == lchar_oracle(hw, eta)
            if total > 0:
                ok = ok and quotient_singular_dim(hw, eta) == 0
    check(f"8 quotient character match for (n1,k1)=({n1},{k1})", ok)


def test_c09_root_partition_box_ten():
    ok = True
    for r in roots_in_box(10):
        pos, neg = is_positive(r), is_positive(-r)
        ok = ok and (pos != neg)
    check("9 root partition on the box |n1|,|n2| <= 10", ok)


def test_c10_dot_action_embedding_chain():
    hw = HighestWeight(1, 2)
    report = orbit_report(hw, 4, scan_weights(hw, 4))
    found = dict(report.singular)
    # r1.lam drops 2*alpha1, r0.lam drops 2*alpha0
    ok = found.get((0, 2), 0) > 0 and found.get((2, 0), 0) > 0
    ok = ok and report.orbit_covered
    check("10 dot-action embedding chain", ok, f"singular at {sorted(found)}")
