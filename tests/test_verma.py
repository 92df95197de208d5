"""PBW straightening, weight-space bases, and the partition oracle."""

from bisect import bisect_left
from fractions import Fraction

import pytest

from toroidal_sl2 import (HighestWeight, ModuleVector, basis_sort_key,
                          bracket, dim_oracle, e, f, find_singular, format_monomial,
                          h, module_for, root_from_q1, w_multiplicity, weight_of)
from toroidal_sl2.algebra import C1, C2, D1, D2, AlgebraElement
from toroidal_sl2.roots import CartanElement, Weight
from toroidal_sl2 import verma
from toroidal_sl2.verma import (_ENGINES, VermaModule, _affine_negative_generators,
                                _level0_basis, weight_free_engine)

from conftest import (is_canonical, is_negative, level0_basis_reference, monomial_weight,
                      random_basis_element, random_canonical_monomial, random_negative_element)
from test_straightening_oracle import brute_force_apply


V = ModuleVector.highest_weight_vector()
CARTAN = (h(0, 0), C1, C2, D1, D2)


def mono(*factors):
    return ModuleVector.monomial(tuple(factors))


class TestHighestWeight:
    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            HighestWeight(0, -1)

    def test_derived_n0(self):
        hw = HighestWeight(Fraction(1, 2), Fraction(7, 3))
        assert hw.n0 == Fraction(11, 6)

    def test_dominant_integral(self):
        assert HighestWeight(2, 3).is_dominant_integral()
        assert not HighestWeight(2, 1).is_dominant_integral()
        assert not HighestWeight(Fraction(1, 2), 2).is_dominant_integral()
        assert not HighestWeight(1, Fraction(5, 2)).is_dominant_integral()

    def test_from_weight_requires_zero_c2(self):
        from toroidal_sl2 import Weight
        with pytest.raises(ValueError, match="c2"):
            HighestWeight.from_weight(Weight.make(0, 1, 1, 0, 0))

    def test_coerced_fields_make_equal_keys(self):
        a, b = HighestWeight(1, 2), HighestWeight("1", Fraction(2))
        assert a == b and hash(a) == hash(b)
        assert module_for(a) is module_for(b)
        assert all(type(x) is Fraction for x in (a.n1, a.k1, a.d1, a.d2))
        assert HighestWeight(k1=2, n1=1, d2="1/2").d2 == Fraction(1, 2)

    def test_immutable(self):
        hw = HighestWeight(1, 2)
        with pytest.raises(AttributeError):
            hw.n1 = Fraction(3)
        assert hw == HighestWeight(1, 2)

    def test_repr_names_its_fields(self):
        assert repr(HighestWeight(1, 2)) == ("HighestWeight(n1=Fraction(1, 1), k1=Fraction(2, 1), "
                                             "d1=Fraction(0, 1), d2=Fraction(0, 1))")


class TestAct:
    def test_ef_on_vacuum(self):
        hw = HighestWeight(Fraction(5, 7), 1)
        eng = module_for(hw)
        fv = eng.act(f(0, 0), V)
        assert fv == mono((f(0, 0), 1))
        assert eng.act(e(0, 0), fv) == Fraction(5, 7) * V

    def test_positive_kills_vacuum(self):
        eng = module_for(HighestWeight(1, 1))
        for g in (e(5, 2), e(0, 0), f(1, 0), f(-3, 1), h(0, 1), h(2, 0)):
            assert eng.act(g, V).is_zero()

    def test_cartan_acts_by_weight(self):
        hw = HighestWeight(2, 3, d1=1)
        eng = module_for(hw)
        vec = mono((h(-1, 0), 1))
        assert eng.act(h(0, 0), vec) == 2 * vec
        assert eng.act(C1, vec) == 3 * vec
        assert eng.act(D1, vec) == 0 * vec  # d1-eigenvalue 1 + (-1)
        assert eng.act(D2, vec) == 0 * vec
        # below level 0, with non-integral and nonzero d-values:
        # wt(e(0,-1)^2 f(1,-1)) = alpha + delta1 - 3 delta2
        eng = module_for(HighestWeight(Fraction(1, 2), 3, Fraction(1, 3), -2))
        m = ((e(0, -1), 2), (f(1, -1), 1))
        assert is_canonical(m)
        vec = mono(*m)
        assert eng.act(h(0, 0), vec) == Fraction(5, 2) * vec
        assert eng.act(C1, vec) == 3 * vec
        assert eng.act(C2, vec).is_zero()
        assert eng.act(D1, vec) == Fraction(4, 3) * vec
        assert eng.act(D2, vec) == -5 * vec
        assert eng.act(D2, V) == -2 * V

    def test_cartan_value_is_the_weight_field_of_its_kind(self, rng):
        # the engine reads the eigenvalue of g off the field named g.kind;
        # pairing with the Cartan element of that kind is the general route
        for _ in range(100):
            w = Weight(*(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(5)))
            for g in CARTAN:
                assert getattr(w, g.kind) == w.pair(CartanElement.make(**{g.kind: 1}))

    def test_cartan_action_matches_pairing(self, rng):
        fixed = [((e(0, -1), 2), (f(1, -1), 1)),
                 ((h(-1, -2), 1), (e(2, -1), 3), (f(0, 0), 1)),
                 ((f(-1, -1), 1), (h(-2, 0), 2))]
        for i in range(40):
            n1, k1, d1, d2 = (Fraction(rng.randint(lo, 6), rng.randint(1, 5))
                              for lo in (-6, 0, -6, -6))
            if i % 4 == 0:  # integral weights with nonzero d-values
                n1, k1, d1, d2 = rng.randint(-6, 6), rng.randint(0, 6), 3, -4
            hw = HighestWeight(n1, k1, d1, d2)
            eng = VermaModule(hw)
            for m in [random_canonical_monomial(rng)] + fixed:
                assert is_canonical(m)
                mu = hw.weight() + Weight.from_root(monomial_weight(m))
                for g in CARTAN:
                    expected = mu.pair(CartanElement.make(**{g.kind: 1})) * ModuleVector.monomial(m)
                    assert eng.act(g, ModuleVector.monomial(m)) == expected

    @pytest.mark.parametrize("n1", [0, 1, 2])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_level_minus_one_ladder(self, n1, N):
        eng = module_for(HighestWeight(n1, 1))
        lhs = eng.act(f(0, 1), mono((e(0, -1), N)))
        coeff = -N * (N - 1 + n1)
        rhs = (coeff * mono((e(0, -1), N - 1))) if N > 1 else coeff * V
        assert lhs == rhs

    @pytest.mark.parametrize("s,m", [(1, 1), (1, 2), (2, 2), (3, 1)])
    def test_paired_imaginary_family(self, s, m):
        k1 = Fraction(3, 2)
        eng = module_for(HighestWeight(0, k1))
        vec = mono((h(-m, -1), 1), (h(m, -1), 1))
        image = eng.act(h(s, 1), vec)
        if s == m:
            assert image == (2 * s * k1) * mono((h(m, -1), 1))
        else:
            assert image.is_zero()

    def test_representation_property(self, rng):
        hws = [HighestWeight(1, 1), HighestWeight(Fraction(1, 2), Fraction(1, 3))]
        for _ in range(60):
            eng = module_for(rng.choice(hws))
            x = random_basis_element(rng, mbound=3, nbound=2)
            y = random_basis_element(rng, mbound=3, nbound=2)
            v = ModuleVector.monomial(random_canonical_monomial(rng))
            lhs = eng.act(bracket(x, y), v)
            rhs = eng.act(x, eng.act(y, v)) - eng.act(y, eng.act(x, v))
            assert lhs == rhs

    def test_freeness(self, rng):
        eng = module_for(HighestWeight(2, 3))
        for _ in range(40):
            m = random_canonical_monomial(rng)
            assert eng.apply_word(m) == ModuleVector.monomial(m)

    def test_unsorted_monomial_fails_the_termination_check(self):
        # h(-1,0) sorts below e(-1,0), so this word is not canonical, and
        # its leading letter cannot re-attach after f(0,0) moves past it
        eng = module_for(HighestWeight(1, 2))
        with pytest.raises(AssertionError, match="does not re-attach"):
            eng.act(f(0, 0), mono((h(-1, 0), 1), (e(-1, 0), 1)))

    def test_non_canonical_monomial_is_rejected_and_not_memoized(self):
        # a positive letter inside m would make the memo shared by every
        # engine return an answer of the first weight it was asked at
        m = mono((e(0, 0), 1), (f(0, 0), 1))
        for hw in (HighestWeight(1, 4), HighestWeight(3, 4)):
            with pytest.raises(ValueError, match="is not a canonical monomial"):
                VermaModule(hw).act(f(0, 0), m)
        key = ((e(0, 0), 1), (f(0, 0), 1))
        assert (f(0, 0), key) not in weight_free_engine()._cache

    def test_weight_correctness(self):
        eng = module_for(HighestWeight(1, 2))
        for eta in [(1, 1), (2, 1), (0, 3)]:
            for m in eng.weight_space_basis(eta):
                for g in (e(0, 0), f(1, 0), f(0, 0), h(-1, 0)):
                    image = eng.act(g, ModuleVector.monomial(m))
                    expected = monomial_weight(m) + weight_of(g)
                    for m2 in image.terms:
                        assert monomial_weight(m2) == expected


class TestWeightSpaces:
    def test_dim_at_lambda_is_one(self):
        assert module_for(HighestWeight(0, 0)).weight_space_basis((0, 0)) == [()]

    def test_alpha_basis(self):
        basis = module_for(HighestWeight(1, 1)).weight_space_basis((0, 1))
        assert basis == [((f(0, 0), 1),)]

    def test_alpha_plus_delta_basis(self):
        # three partitions: {alpha+d}, {alpha}+{d}, {alpha0}+2{alpha1}
        basis = module_for(HighestWeight(1, 1)).weight_space_basis((1, 2))
        texts = {format_monomial(m) for m in basis}
        assert texts == {"f(-1,0)*v", "h(-1,0)*f(0,0)*v", "e(-1,0)*f(0,0)^2*v"}

    def test_two_delta_basis(self):
        basis = module_for(HighestWeight(1, 1)).weight_space_basis((2, 2))
        texts = {format_monomial(m) for m in basis}
        assert {"h(-1,0)^2*v", "h(-2,0)*v", "e(-1,0)*f(-1,0)*v"} <= texts
        assert len(basis) == 6

    def test_monomials_are_canonical_with_correct_weight(self):
        eng = module_for(HighestWeight(0, 0))
        for a0 in range(5):
            for a1 in range(5):
                for m in eng.weight_space_basis((a0, a1)):
                    assert is_canonical(m)
                    assert monomial_weight(m) == -1 * root_from_q1(a0, a1)

    def test_cartan_and_central_letters_are_not_canonical(self):
        for b in CARTAN:
            assert not is_canonical(((b, 1),))
        # sorted, so only the Cartan letter inside makes it not canonical
        assert not is_canonical(((f(-1, 0), 1), (h(0, 0), 1), (f(0, 0), 1)))
        assert is_canonical(((f(-1, 0), 1), (f(0, 0), 1)))

    def test_rejects_outside_cone(self):
        eng = module_for(HighestWeight(0, 0))
        with pytest.raises(ValueError):
            eng.weight_space_basis((-1, 2))


class TestDimOracle:
    def test_small_values(self):
        assert dim_oracle((0, 0)) == 1
        assert dim_oracle((0, 1)) == 1
        assert dim_oracle((1, 2)) == 3
        assert dim_oracle((1, 1)) == 2

    def test_matches_enumeration_up_to_six(self):
        eng = module_for(HighestWeight(0, 0))
        for a0 in range(7):
            for a1 in range(7):
                assert len(eng.weight_space_basis((a0, a1))) == dim_oracle((a0, a1))

    def test_rejects_outside_cone(self):
        with pytest.raises(ValueError):
            dim_oracle((-1, 0))


class TestSecondOrder:
    """The engine against the brute-force rewriting of the straightening
    oracle, which reaches normal form by its own termination order."""

    def test_straightening_consistent_across_orders(self):
        # the vacuum-line coefficient of (raising word) * (lowering word) * v
        # does not depend on the order used to straighten
        hw = HighestWeight(1, 2)
        word = [(f(0, 0), 2), (e(-1, 0), 1), (h(-1, 0), 1)]
        raise_word = [(e(0, 0), 1), (f(1, 0), 1), (e(0, 0), 1),
                      (f(1, 0), 1), (e(0, 0), 1)]
        eng = module_for(hw)
        w = eng.apply_word(raise_word, eng.apply_word(word))
        assert set(w.terms) <= {()}
        letters = [b for b, exp in raise_word + word for _ in range(exp)]
        assert w == brute_force_apply(letters, hw)
        assert w.terms[()] == 32


class TestEngineMemos:
    @pytest.mark.parametrize("hw", [HighestWeight(1, 2),
                                    HighestWeight(Fraction(1, 2), Fraction(3, 4))])
    def test_word_matches_step_by_step_actions(self, rng, hw):
        # apply_word memoizes nothing: each call folds its word from v again
        eng, plain = VermaModule(hw), VermaModule(hw)
        for _ in range(60):
            word = []
            for _ in range(rng.randint(0, 4)):
                if word and rng.random() < 0.3:
                    b = word[-1][0]  # a repeated adjacent letter
                elif rng.random() < 0.7:
                    b = random_negative_element(rng, mbound=2, nmin=-1)
                else:
                    b = random_basis_element(rng, mbound=2, nbound=1)
                word.append((b, rng.randint(0, 2)))  # a zero power acts as 1
            expected = V
            for b, exp in reversed(word):
                for _ in range(exp):
                    expected = plain.act(b, expected)
            assert eng.apply_word(word) == expected == eng.apply_word(tuple(word), V)
            assert eng.apply_word(tuple(word)) is not eng.apply_word(word)

    def test_bases_are_shared_by_engines_of_one_order(self, monkeypatch):
        one = VermaModule(HighestWeight(1, 2))
        two = VermaModule(HighestWeight(Fraction(-3, 2), Fraction(5, 4), 1, 2))
        for eta in [(4, 4), (3, 5), (0, 0)]:
            basis = one.weight_space_basis(eta)
            assert two.weight_space_basis(eta) is basis is verma._BASES[eta]
            monkeypatch.setattr(verma, "_BASES", {})
            assert _level0_basis(*eta) == basis == level0_basis_reference(*eta)
            monkeypatch.undo()

    def test_bases_match_the_reference_enumeration(self):
        for height in range(17):
            for a0 in range(height + 1):
                assert _level0_basis(a0, height - a0) == level0_basis_reference(a0, height - a0)

    def test_letters_come_in_the_order(self):
        for a0 in range(8):
            for a1 in range(8):
                letters = [b for b, _ in _affine_negative_generators(a0, a1)]
                assert letters == sorted(letters, key=basis_sort_key)

    def test_cold_basis_matches_warm(self, monkeypatch):
        # warm: every smaller drop is built; cold: the loop builds them
        for height in range(21):
            for a0 in range(height + 1):
                _level0_basis(a0, height - a0)
        warm = _level0_basis(10, 10)
        monkeypatch.setattr(verma, "_BASES", {})
        assert _level0_basis(10, 10) == warm

    def test_deep_basis_builds_each_smaller_drop_once(self, monkeypatch):
        # a bounded cache of 325 bases rebuilt evicted ones at (330, 0) (388
        # misses); a cold drop builds exactly the drops of the box below it
        for eta, built in [((330, 0), 331), ((5, 5), 36), ((6, 9), 70), ((10, 3), 44)]:
            monkeypatch.setattr(verma, "_BASES", {})
            assert _level0_basis(*eta) == level0_basis_reference(*eta)
            assert len(verma._BASES) == built
            assert set(verma._BASES) == {(b0, b1) for b0 in range(eta[0] + 1)
                                         for b1 in range(eta[1] + 1)}

    def test_monomials_of_one_letter_power_share_its_pair(self, monkeypatch):
        # one (letter, exponent) object per power and drop, not one per monomial
        monkeypatch.setattr(verma, "_BASES", {})
        _level0_basis(8, 8)
        for basis in verma._BASES.values():
            heads = {}
            for m in basis:
                if m:
                    assert heads.setdefault(m[0], m[0]) is m[0]
        assert len(verma._BASES[(8, 8)]) > len({m[0] for m in verma._BASES[(8, 8)]})

    def test_one_dimensional_deep_drops_read_only_the_empty_drop(self, monkeypatch):
        # the box below (2000, 0) or (0, 2000) has one letter, the first,
        # which only v can follow: each nonzero drop bisects the basis of
        # (0, 0) once (2,001,000 bisections when every power read a drop)
        reads = []

        def counted(rest, *args, **kwargs):
            reads.append(rest)
            return bisect_left(rest, *args, **kwargs)

        monkeypatch.setattr(verma, "bisect_left", counted)
        for eta, letter in [((2000, 0), e(-1, 0)), ((0, 2000), f(0, 0))]:
            monkeypatch.setattr(verma, "_BASES", {})
            reads.clear()
            assert _level0_basis(*eta) == [((letter, 2000),)]
            assert len(verma._BASES) == 2001
            assert reads == [[()]] * 2000
        monkeypatch.setattr(verma, "_BASES", {})
        assert _level0_basis(6, 9) == level0_basis_reference(6, 9)

    def test_bases_are_sorted_and_complete(self):
        for height in range(13):
            for a0 in range(height + 1):
                eta = (a0, height - a0)
                basis = _level0_basis(*eta)
                assert basis == sorted(
                    basis, key=lambda m: tuple((basis_sort_key(b), a) for b, a in m))
                assert len(basis) == len(set(basis)) == dim_oracle(eta)

    def test_negative_letter_actions_are_shared_by_engines_of_one_order(
            self, fresh_weight_free):
        free = fresh_weight_free()
        engines = [VermaModule(HighestWeight(1, 2)),
                   VermaModule(HighestWeight(Fraction(-3, 2), Fraction(5, 4))),
                   VermaModule(HighestWeight(1, 2, d1=3, d2=Fraction(-1, 3)))]
        for eta in [(3, 3), (2, 4)]:
            for m in engines[0].weight_space_basis(eta):
                for g in (f(0, 0), e(-1, 0), h(-2, 0), f(-1, -1)):
                    first = engines[0]._act_basis(g, m)
                    assert free._cache[(g, m)] is first
                    assert all(e2._act_basis(g, m) is first for e2 in engines[1:])
        assert not any(eng._cache for eng in engines)
        # positive letters read lam, so they stay with the engine
        eng = engines[1]
        for g in (e(0, 0), f(1, 0)):
            eng._act_basis(g, ((f(0, 0), 1),))
            assert (g, ((f(0, 0), 1),)) in eng._cache
            assert (g, ((f(0, 0), 1),)) not in free._cache
        # Cartan letters are read off the weight of m*v and memoized nowhere
        eng, m = engines[2], ((f(-1, 0), 1),)
        mu = eng.hw.weight() + Weight.from_root(monomial_weight(m))
        for g in CARTAN:
            val = getattr(mu, g.kind)
            assert eng._act_basis(g, m) == ({m: val} if val else {})
            assert (g, m) not in eng._cache and (g, m) not in free._cache

    def test_negative_letter_memo_does_not_depend_on_the_weight(self, fresh_weight_free):
        # the same raising actions at two weights, each with a fresh engine at
        # weight zero, fill equal memos; afterwards 19 more weights add nothing
        memos = []
        for hw in (HighestWeight(Fraction(1, 3), Fraction(5, 7)),
                   HighestWeight(Fraction(-3, 2), Fraction(5, 4), Fraction(1, 2), 2)):
            free = fresh_weight_free()
            raise_basis(VermaModule(hw), 5)
            memos.append(free._cache)
        assert memos[0] and memos[0] == memos[1]

        free = fresh_weight_free()
        raise_basis(VermaModule(HighestWeight(Fraction(1, 3), Fraction(5, 7))), 5)
        size = len(free._cache)
        assert size == len(memos[0])
        for i in range(19):
            hw = HighestWeight(Fraction(i - 9, 1 + i % 4), Fraction(i, 2), i % 3, -i)
            raise_basis(VermaModule(hw), 5)
        assert len(free._cache) == size

    def test_one_memo_holds_every_weight_free_action(self, fresh_weight_free, monkeypatch):
        # negative letters never read lam: wherever they act, their actions
        # are memoized by the engine at weight zero and by no other engine
        free = fresh_weight_free()
        seen = set()
        act_basis = VermaModule._act_basis

        def recorded(self, g, m):
            if is_negative(g):
                seen.add((g, m))
            return act_basis(self, g, m)

        monkeypatch.setattr(VermaModule, "_act_basis", recorded)
        assert find_singular(HighestWeight(1, 2), (2, 6)).kernel_dim == 1
        assert w_multiplicity(HighestWeight(2, 3), (4, 4)).submodule_dim
        assert seen and {key for key in free._cache if is_negative(key[0])} == seen
        for eng in _ENGINES.values():
            assert not any(is_negative(g) for g, _ in eng._cache)

    def test_act_memoizes_each_letter_where_act_basis_does(self, fresh_weight_free):
        # act picks a letter's memo itself: negative letters go to the memo
        # at weight zero, positive ones to the engine's, Cartan ones nowhere
        free = fresh_weight_free()
        eng = VermaModule(HighestWeight(Fraction(1, 2), 3, d1=2))
        v = ModuleVector({m: i + 1 for i, m in enumerate(eng.weight_space_basis((2, 3)))})
        where = {g: free._cache for g in (f(0, 0), e(-1, 0), h(-2, 0), f(-1, -1), e(1, -1))}
        where.update({g: eng._cache for g in (e(0, 0), f(1, 0), h(2, 0), e(0, 1))})
        where.update({g: None for g in CARTAN})
        for g, memo in where.items():
            image = eng.act(g, v)
            for m, c in v.items():
                for cache in (free._cache, eng._cache):
                    assert ((g, m) in cache) == (cache is memo)
                image = image - c * ModuleVector._wrap(eng._act_basis(g, m))
            assert image.is_zero()
        x = AlgebraElement({f(0, 0): 2, e(0, 0): Fraction(1, 3), h(0, 0): -1})
        assert eng.act(x, v) == (2 * eng.act(f(0, 0), v) + Fraction(1, 3) * eng.act(e(0, 0), v)
                                 - eng.act(h(0, 0), v))

    def test_a_second_act_straightens_nothing(self, fresh_weight_free, monkeypatch):
        # each term of a repeated action is one memo read
        fresh_weight_free()
        calls = []
        uncached = VermaModule._act_basis_uncached

        def counted(self, g, positive, m):
            calls.append((g, m))
            return uncached(self, g, positive, m)

        monkeypatch.setattr(VermaModule, "_act_basis_uncached", counted)
        eng = VermaModule(HighestWeight(1, 2))
        v = ModuleVector({m: 1 for m in eng.weight_space_basis((3, 3))})
        for g in (f(0, 0), e(-1, 0), h(-2, 0), e(0, 0), f(1, 0), h(0, 0)):
            first = eng.act(g, v)
            assert bool(calls) == (g != h(0, 0))
            calls.clear()
            assert eng.act(g, v) == first
            assert calls == []

    def test_engine_registry_keeps_the_newest(self):
        # one slot: the engine of the last weight asked for
        weights = [HighestWeight(n1, 40) for n1 in range(3)]
        engines = [module_for(hw) for hw in weights]
        assert _ENGINES == {weights[2]: engines[2]}
        assert module_for(weights[2]) is engines[2]
        assert module_for(weights[0]) is not engines[0]
        assert list(_ENGINES) == [weights[0]]

    def test_powers_of_a_letter_memoize_every_lower_power(self, fresh_weight_free):
        # a cold g on lead^a first straightens g on each lower power in a
        # loop; the memo ends as when the powers are straightened one by one
        fresh_weight_free()
        cold, warm = VermaModule(HighestWeight(1, 2)), VermaModule(HighestWeight(1, 2))
        for g, lead, rest in [(e(0, 0), f(0, 0), ()), (f(1, 0), e(-1, 0), ((f(0, 0), 2),)),
                              (e(0, 0), h(-1, 0), ((f(0, 0), 1),))]:
            assert cold._act_basis(g, ((lead, 40),) + rest) == \
                [warm._act_basis(g, ((lead, a),) + rest) for a in range(1, 41)][-1]
            assert (g, ((lead, 39),) + rest) in cold._cache
        assert cold._cache == warm._cache

    def test_memoized_basis_matches_fresh_enumeration(self):
        hw = HighestWeight(1, 2)
        eng = VermaModule(hw)
        for a0 in range(7):
            for a1 in range(7):
                first = eng.weight_space_basis((a0, a1))
                assert eng.weight_space_basis((a0, a1)) is first
                assert first == VermaModule(hw).weight_space_basis((a0, a1))


def raise_basis(eng, depth):
    """Apply both raising letters to every basis monomial up to a height."""
    for total in range(depth + 1):
        for a0 in range(total + 1):
            for m in eng.weight_space_basis((a0, total - a0)):
                for g in (e(0, 0), f(1, 0)):
                    eng.act(g, mono(*m))


class TestTextForms:
    def test_format_and_parse(self):
        # the formatted monomial, applied as a word, is the monomial itself
        eng = module_for(HighestWeight(1, 1))
        m = ((h(-1, 0), 1), (f(0, 0), 2))
        text = format_monomial(m)
        assert text == "h(-1,0)*f(0,0)^2*v"
        assert eng.apply_word(m) == ModuleVector.monomial(m)

    def test_parse_out_of_order_straightens(self):
        eng = module_for(HighestWeight(1, 1))
        word = ((f(0, 0), 2), (h(-1, 0), 1))  # f(0,0)^2*h(-1,0)*v
        result = eng.apply_word(word)
        # f f h v = h f f v with no correction terms ([f, h] = 2f shifts degree)
        assert result == (ModuleVector.monomial(((h(-1, 0), 1), (f(0, 0), 2)))
                          + 4 * ModuleVector.monomial(((f(-1, 0), 1), (f(0, 0), 1))))


def test_module_vector_arithmetic():
    a = mono((f(0, 0), 1))
    b = mono((h(-1, 0), 1))
    assert a + b - a == b
    assert (2 * a) - a - a == ModuleVector.zero()
    assert not (a + b).is_zero()
    assert (0 * a).is_zero()
