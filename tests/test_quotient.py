"""Quotient multiplicities, the character oracle, and the level -1 demos."""

import io
import subprocess
import sys
from fractions import Fraction

import pytest

from toroidal_sl2 import (HighestWeight, ModuleVector, basis_sort_key, cli, demo_infinite_dim,
                          demo_nonintegrability, e, f, find_singular, h, lchar_oracle, linalg,
                          module_for, quotient, quotient_singular_dim,
                          submodule_dim_at, w_multiplicity)
from toroidal_sl2.quotient import _submodule_rows
from toroidal_sl2.singular import _RAISING_DROP, RAISING, _raising_matrices, raising_pencil
from toroidal_sl2.verma import _ENGINES, VermaModule, _affine_negative_generators, weight_free_engine

from conftest import generator_words, submodule_span


def etas_up_to(depth):
    return [(a0, total - a0) for total in range(depth + 1) for a0 in range(total + 1)]


class TestSubmoduleDim:
    def test_generator_weight_has_dimension_one(self):
        for n1, k1 in [(1, 1), (2, 3)]:
            assert submodule_dim_at(HighestWeight(n1, k1), (0, n1 + 1)) == 1

    def test_below_both_generators(self):
        assert submodule_dim_at(HighestWeight(1, 1), (0, 1)) == 0
        assert submodule_dim_at(HighestWeight(2, 4), (1, 1)) == 0

    def test_one_step_below_generator(self):
        for n1, k1 in [(1, 2), (0, 3)]:
            assert submodule_dim_at(HighestWeight(n1, k1), (0, n1 + 2)) == 1

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            submodule_dim_at(HighestWeight(Fraction(1, 2), 1), (1, 1))
        with pytest.raises(ValueError):
            submodule_dim_at(HighestWeight(3, 1), (1, 1))


class TestWMultiplicity:
    def test_top_weight(self):
        q = w_multiplicity(HighestWeight(1, 1), (0, 0))
        assert (q.ambient_dim, q.submodule_dim, q.quotient_dim) == (1, 0, 1)

    def test_generator_weight_drops_rank_one(self):
        for n1, k1 in [(0, 1), (1, 1), (2, 2)]:
            q = w_multiplicity(HighestWeight(n1, k1), (0, n1 + 1))
            assert q.quotient_dim == q.ambient_dim - 1

    def test_delta_weight_level_one(self):
        hw = HighestWeight(1, 1)
        q = w_multiplicity(hw, (1, 1))
        assert (q.ambient_dim, q.submodule_dim, q.quotient_dim) == (2, 1, 1)
        assert lchar_oracle(hw, (1, 1)) == 1

    @pytest.mark.parametrize("dims", [(1, 0, 0), (1, 2, -1), (0, 0, 1)])
    def test_inconsistent_dimensions_raise(self, dims):
        with pytest.raises(AssertionError, match="quotient dimension"):
            quotient.QuotientSpace((0, 0), *dims)
        assert quotient.QuotientSpace(eta=(0, 0), ambient_dim=2, submodule_dim=1,
                                      quotient_dim=1).quotient_dim == 1


class TestLCharOracle:
    def test_top(self):
        assert lchar_oracle(HighestWeight(2, 2), (0, 0)) == 1

    def test_finite_sl2_pattern_at_level_zero_depth(self):
        hw = HighestWeight(1, 1)
        assert lchar_oracle(hw, (0, 1)) == 1
        assert lchar_oracle(hw, (0, 2)) == 0

    def test_basic_level_one(self):
        hw = HighestWeight(0, 1)
        assert lchar_oracle(hw, (0, 1)) == 0
        assert lchar_oracle(hw, (1, 1)) == 1

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            lchar_oracle(HighestWeight(1, 0), (1, 1))


def test_character_match_depth_four():
    hw = HighestWeight(1, 1)
    for total in range(5):
        for a0 in range(total + 1):
            eta = (a0, total - a0)
            assert w_multiplicity(hw, eta).quotient_dim == lchar_oracle(hw, eta)


def test_character_match_depth_eight():
    hw = HighestWeight(1, 1)
    for total in range(9):
        for a0 in range(total + 1):
            eta = (a0, total - a0)
            assert w_multiplicity(hw, eta).quotient_dim == lchar_oracle(hw, eta)


@pytest.mark.parametrize("n1,k1", [(1, 2), (2, 3)])
def test_character_match_depth_twelve(n1, k1):
    hw = HighestWeight(n1, k1)
    for eta in etas_up_to(12):
        assert w_multiplicity(hw, eta).quotient_dim == lchar_oracle(hw, eta)


def test_submodule_rows_match_words_applied_to_generators(fresh_weight_free, monkeypatch):
    # each oracle row is the word u*s applied to v; the reference applies u to
    # the generator vector s step by step on another engine.  The quotient's
    # rows, straightened modulo M_f through its word memo for n1, are the e
    # rows restricted to f(0,0) exponents <= n1 (no image is zero, as U(n-)
    # acts freely)
    monkeypatch.setattr(quotient, "_WORDS", {})
    free = fresh_weight_free()
    hw = HighestWeight(1, 2)
    reference = VermaModule(hw)
    for eta in etas_up_to(10):
        span, basis = submodule_span(hw, eta)
        index = {m: i for i, m in enumerate(basis)}
        expected = []
        for (g0, g1), word in generator_words(hw):
            if eta[0] < g0 or eta[1] < g1:
                continue
            for u in reference.weight_space_basis((eta[0] - g0, eta[1] - g1)):
                image = reference.apply_word(u, ModuleVector.monomial(word))
                if not image.is_zero():
                    row = [0] * len(basis)
                    for m, c in image.items():
                        row[index[m]] = c
                    expected.append(row)
        assert span == expected
        rows, kept = _submodule_rows(hw, eta)
        assert kept == [j for j, m in enumerate(basis) if dict(m).get(f(0, 0), 0) <= 1]
        e_rows, _ = submodule_span(hw, eta, generator_words(hw)[1:])
        assert rows == [[row[j] for j in kept] for row in e_rows]
    # one memo for (n1, n0) = (1, 1), keyed by the prefix u and seeded with
    # e(-1,0)^2 v, straightened into the weight-free memo
    assert list(quotient._WORDS) == [(1, 1)]
    memo = quotient._WORDS[(1, 1)]
    assert memo[()] == ModuleVector.monomial(((e(-1, 0), 2),))
    assert ((e(-1, 0), 1),) in memo
    assert_words_straightened_modulo_m_f(memo, hw)
    assert free._cache


def test_letters_other_than_f00_keep_the_f00_exponent(fresh_weight_free):
    # why _word_mod_f drops the terms in M_f only after f(0,0): f(0,0) is the
    # last letter, so no other letter moves past it, and two level-0
    # negative letters bracket to a nonzero degree, never to f(0,0)
    free = fresh_weight_free()
    letters = [b for b, _ in _affine_negative_generators(10, 10) if b != f(0, 0)]
    assert len(letters) == 29
    for eta in etas_up_to(10):
        for m in free.weight_space_basis(eta):
            exponent = dict(m).get(f(0, 0), 0)
            for g in letters:
                image = free.act(g, ModuleVector.monomial(m))
                assert image.terms
                assert all(dict(m2).get(f(0, 0), 0) == exponent for m2 in image.terms)


@pytest.mark.parametrize("n1,k1", [(1, 2), (0, 1), (3, 3)])
def test_f_generator_span_is_a_coordinate_subspace(n1, k1):
    # the one assumption behind the basis of M(lam)/M_f: f(0,0) is the last
    # PBW letter, so u * f(0,0)^(n1+1) v is u with its f(0,0) exponent raised
    letters = [b for b, _ in _affine_negative_generators(10, 10)]
    assert min(letters, key=basis_sort_key) == f(0, 0)
    engine = VermaModule(HighestWeight(n1, k1))
    word = ((f(0, 0), n1 + 1),)
    for eta in etas_up_to(10):
        for u in engine.weight_space_basis(eta):
            if u and u[-1][0] == f(0, 0):
                raised = u[:-1] + ((f(0, 0), u[-1][1] + n1 + 1),)
            else:
                raised = u + word
            assert engine.apply_word(u + word) == ModuleVector.monomial(raised)


SPAN_WEIGHTS = [(1, 2), (0, 1), (2, 3), (0, 0), (3, 3), (1, 4), (2, 2)]


@pytest.mark.parametrize("n1,k1", SPAN_WEIGHTS)
def test_submodule_dim_is_the_rank_of_both_generators_span(n1, k1):
    hw = HighestWeight(n1, k1)
    for eta in etas_up_to(12):
        assert submodule_dim_at(hw, eta) == linalg.rank(submodule_span(hw, eta)[0])


def assert_words_straightened_modulo_m_f(memo, hw):
    """Every memoized prefix u holds the word u * e(-1,0)^(n0+1) applied to v
    with its monomials of f(0,0) exponent above n1 removed, on an engine of
    its own."""
    n1 = hw.n1
    suffix = ((e(-1, 0), int(hw.n0) + 1),)
    reference = VermaModule(hw)
    assert memo
    for u, image in memo.items():
        full = reference.apply_word(u + suffix)
        assert image.terms == {m: c for m, c in full.items() if dict(m).get(f(0, 0), 0) <= n1}
        assert all(dict(m).get(f(0, 0), 0) <= n1 for m in image.terms)


@pytest.mark.parametrize("n1,k1", SPAN_WEIGHTS)
def test_memoized_words_are_straightened_modulo_m_f(n1, k1, fresh_weight_free, monkeypatch):
    # from an empty word memo and an empty weight-zero memo
    monkeypatch.setattr(quotient, "_WORDS", {})
    fresh_weight_free()
    hw = HighestWeight(n1, k1)
    for eta in etas_up_to(12):
        _submodule_rows(hw, eta)
    assert list(quotient._WORDS) == [(n1, k1 - n1)]
    assert_words_straightened_modulo_m_f(quotient._WORDS[(n1, k1 - n1)], hw)


def test_weights_with_one_n1_and_n0_share_one_word_memo(fresh_weight_free, monkeypatch):
    # the words read n1 (the filter) and n0 (the seed e(-1,0)^(n0+1) v), not
    # the d-values: one memo per (n1, n0), which a second d-value leaves as it is
    monkeypatch.setattr(quotient, "_WORDS", {})
    fresh_weight_free()
    weights = {(1, 1): [HighestWeight(1, 2), HighestWeight(1, 2, 3, Fraction(-1, 3))],
               (1, 3): [HighestWeight(1, 4), HighestWeight(1, 4, Fraction(5, 2), -2)]}
    for key, hws in weights.items():
        for i, hw in enumerate(hws):
            for eta in etas_up_to(10):
                _submodule_rows(hw, eta)
            if i == 0:
                grown = dict(quotient._WORDS[key])
        assert quotient._WORDS[key] == grown
    assert list(quotient._WORDS) == list(weights)
    for key, hws in weights.items():
        for hw in hws:
            assert_words_straightened_modulo_m_f(quotient._WORDS[key], hw)


def test_quotient_path_creates_no_engine():
    # words, bases and raising matrices read lam at most through n1 and n0,
    # so no command but a singular certificate or a demo builds an engine
    hw = HighestWeight(3, 7)  # a weight no other test uses
    before = set(_ENGINES)
    for eta in etas_up_to(5):
        w_multiplicity(hw, eta)
        lchar_oracle(hw, eta)
        submodule_dim_at(hw, eta)
        quotient_singular_dim(hw, eta)
    assert cli.run(["dims", "--depth", "4"], out=io.StringIO()) == 0
    assert set(_ENGINES) == before


def test_long_word_is_straightened_without_recursion():
    # e(-1,0)^1300 v: a cold word's shorter suffixes are straightened in a
    # loop, so its length costs no Python frame (the limit here is 100)
    script = ("import sys\nsys.setrecursionlimit(100)\n"
              "from toroidal_sl2 import HighestWeight, w_multiplicity\n"
              "print(tuple(w_multiplicity(HighestWeight(0, 1299), (1300, 0))[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(1, 1, 0)\n"


def test_integral_weight_straightens_over_the_integers():
    # the quotient applies only negative letters and a raising matrix is
    # straightened at weight zero, both into the weight-free engine's memo;
    # the check of a kernel vector fills the engine's own
    hw = HighestWeight(1, 2)
    engine = module_for(hw)
    for eta in etas_up_to(8):
        w_multiplicity(hw, eta)
    ncols = len(engine.weight_space_basis((3, 3)))
    matrix = _raising_matrices(hw, raising_pencil((3, 3)), ncols)[0]
    assert all(type(c) is int for row in matrix for c in row)
    assert find_singular(hw, (0, 2)).kernel_dim == 1
    for cache in (engine._cache, weight_free_engine()._cache):
        assert cache
        assert all(type(c) is int for terms in cache.values() for c in terms.values())


def test_level_zero_quotient_is_trivial_module():
    # k1 = 0 forces n1 = n0 = 0; the quotient collapses to the top line
    hw = HighestWeight(0, 0)
    for total in range(6):
        for a0 in range(total + 1):
            eta = (a0, total - a0)
            expected = 1 if eta == (0, 0) else 0
            assert w_multiplicity(hw, eta).quotient_dim == expected
            assert lchar_oracle(hw, eta) == expected


def test_quotient_has_no_singular_vectors_below_top():
    hw = HighestWeight(1, 1)
    for total in range(1, 5):
        for a0 in range(total + 1):
            assert quotient_singular_dim(hw, (a0, total - a0)) == 0


def test_quotient_singular_dim_counts_the_top():
    assert quotient_singular_dim(HighestWeight(1, 1), (0, 0)) == 1


def block_nullspace_singular_dim(hw, eta, words=None):
    """Solutions (x, y_e, y_f) of A_g x = S_g^T y_g in M(lam), with independent
    rows S_g of the oracle span at each target, minus the slice at eta."""
    def independent(rows):
        chosen = []
        for row in rows:
            if linalg.rank(chosen + [row]) > len(chosen):
                chosen.append(row)
        return chosen

    engine = module_for(hw)
    basis = engine.weight_space_basis(eta)
    n = len(basis)
    per_target = []
    for g, a_g in zip(RAISING, _raising_matrices(hw, raising_pencil(eta), n)):
        t = (eta[0] - _RAISING_DROP[g][0], eta[1] - _RAISING_DROP[g][1])
        s_g = independent(submodule_span(hw, t, words)[0]) if min(t) >= 0 else []
        per_target.append((a_g, s_g))
    width = sum(len(s_g) for _, s_g in per_target)
    blocks, offset = [], n
    for a_g, s_g in per_target:
        for i, row in enumerate(a_g):
            full = list(row) + [0] * width
            for j, s_row in enumerate(s_g):
                full[offset + j] = -s_row[i]
            blocks.append(full)
        offset += len(s_g)
    return (len(linalg.nullspace(blocks, n + width))
            - len(independent(submodule_span(hw, eta, words)[0])))


@pytest.mark.parametrize("n1,k1", [(1, 2), (0, 1), (3, 3), (0, 0), (2, 5)])
def test_quotient_singular_dim_matches_block_nullspace(n1, k1):
    hw = HighestWeight(n1, k1)
    for eta in etas_up_to(5):
        assert quotient_singular_dim(hw, eta) == block_nullspace_singular_dim(hw, eta)


def test_quotient_singular_dim_checks_empty_targets(monkeypatch):
    # both pencil parts are built even where a target space is empty, so
    # _pencil_part checks that the generator kills the whole weight space
    calls = []
    pencil_part = quotient._pencil_part

    def recorded(g, basis, eta):
        calls.append((g, eta))
        return pencil_part(g, basis, eta)

    monkeypatch.setattr(quotient, "_pencil_part", recorded)
    for eta in [(0, 0), (0, 3), (2, 0)]:
        quotient_singular_dim(HighestWeight(1, 2), eta)
    assert calls == [(g, eta) for eta in [(0, 0), (0, 3), (2, 0)] for g in RAISING]


def test_quotient_singular_dim_with_one_generator(monkeypatch):
    # with the e rows dropped, the quotient is M(lam)/M_f alone: it leaves
    # e(-1,0)^(n0+1) v singular, beside the top
    submodule_rows = quotient._submodule_rows
    monkeypatch.setattr(quotient, "_submodule_rows",
                        lambda hw, eta: ([], submodule_rows(hw, eta)[1]))
    hw = HighestWeight(1, 2)
    f_only = generator_words(hw)[:1]
    assert f_only[0][1] == ((f(0, 0), 2),)
    found = {}
    for eta in etas_up_to(6):
        dim = quotient_singular_dim(hw, eta)
        assert dim == block_nullspace_singular_dim(hw, eta, f_only)
        if dim:
            found[eta] = dim
    assert found == {(0, 0): 1, (2, 0): 1}


class TestNonintegrability:
    def test_transcript_holds_and_reverifies(self):
        transcript = demo_nonintegrability(HighestWeight(0, 1), 5)
        assert transcript.all_hold()
        eng = module_for(HighestWeight(0, 1))
        lhs = eng.act(h(-1, 1), ModuleVector.monomial(((h(1, -1), 1),)))
        assert lhs == -2 * ModuleVector.highest_weight_vector()

    def test_contradiction_line_scales_with_k1(self):
        transcript = demo_nonintegrability(HighestWeight(0, Fraction(1, 2)), 3)
        assert transcript.all_hold()
        final = transcript.checks[-1]
        assert "-2*k1" in final.description
        assert final.holds

    def test_positive_n1_case(self):
        transcript = demo_nonintegrability(HighestWeight(2, 1), 4)
        assert transcript.all_hold()
        # without n1 = 0 the ladder already rules out nilpotency
        assert all("h(-1,1)" not in c.description for c in transcript.checks)

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            demo_nonintegrability(HighestWeight(0, 0), 3)

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_rejects_an_empty_ladder(self, n_max):
        # no identity would be checked, yet the transcript would hold
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            demo_nonintegrability(HighestWeight(1, 1), n_max)


class TestInfiniteDim:
    def test_diagonal_and_rank(self):
        report = demo_infinite_dim(HighestWeight(0, 1), 3)
        assert report.rank == 3
        assert report.diagonal == ("2", "4", "6")
        assert report.image_form == "h(m,-1)*v"

    def test_fractional_level(self):
        report = demo_infinite_dim(HighestWeight(1, Fraction(3, 7)), 2)
        assert report.rank == 2
        assert report.diagonal == ("6/7", "12/7")

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            demo_infinite_dim(HighestWeight(1, 0), 2)
        with pytest.raises(ValueError):
            demo_infinite_dim(HighestWeight(1, 1), 0)
