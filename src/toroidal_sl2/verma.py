"""Verma modules over the double affine sl2 algebra.

A highest weight vector v is killed by every positive-root generator and
carries a weight lam with lam(c1) = k1 >= 0 and lam(c2) = 0.  The module
is free over the negative half, so ordered products of negative-root
generators applied to v form a basis (PBW monomials), in the one order
``basis_sort_key``: the quotient needs f(0,0) last, and reports sort by it.

Straightening.  ``VermaModule.act`` commutes a generator rightward past
the factors of a canonical monomial, replacing g*F by F*g + [g,F].  The
recursion terminates because each rewrite strictly decreases the pair
(total degree of the word, number of inversions of the moving letter
against the word) in lexicographic order: a bracket substitution drops the
degree by one, and the degree-preserving branch only re-sorts the original
multiset of letters, after which the leading factor re-attaches without
further commutation (checked below).  Lower powers of the letter g moves
past are straightened first, in a loop, so an exponent costs no depth.

Weight spaces.  At delta2-level 0 the weight spaces lam - eta, eta a
nonnegative combination of the simple roots alpha0 and alpha1, are finite
dimensional: every negative root has delta2-degree <= 0, so factors with
nonzero delta2-degree can never cancel back to level 0.  Their dimensions
equal the Kostant partition counts of the horizontal affine subalgebra,
which ``dim_oracle`` computes by an independent dynamic program (it never
touches the PBW engine); each basis is built from those of smaller drops.
Weight spaces at delta2-level < 0 are infinite dimensional and are never
enumerated.

Exact arithmetic, once.  Coefficients are ``int`` while integral and
``Fraction`` only where a non-integral weight field enters; both print and
compare alike, so reports do not depend on which one a value is.  Each
letter carries its sign (``BasisElement.positive``), and
``VermaModule._act_basis``, the only code that reads or fills a
straightening memo, picks the memo by it: each engine memoizes positive
letters on monomials, and Cartan letters are read off the weight.
Negative letters and level-0 bases do not depend on the weight.  The
engine at weight zero (``weight_free_engine``), never evicted, memoizes
every action that does not read the weight: negative letters for every
engine and for the quotient's words, and the raising matrices
``singular`` straightens once for all.  ``module_for`` keeps the engine
of the last weight asked for, for the certificates and demos at the
weight.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Optional, Sequence, Union

from .algebra import (ALPHA_COEFF, AlgebraElement, BasisElement, H,
                      LinearCombination, add_scaled, basis_sort_key, bracket,
                      e, f, format_terms, h)
from .roots import Weight, Rational, frac

PBWMonomial = tuple[tuple[BasisElement, int], ...]

VACUUM: PBWMonomial = ()


class HighestWeight(namedtuple("HighestWeight", "n1 k1 d1 d2")):
    """Highest weight data: n1 = lam(alpha_check), k1 = lam(c1) >= 0.

    lam(c2) is identically 0 and the derived value n0 = k1 - n1 equals
    lam(alpha0_check).  The d-values only shift weights and default to 0.
    Every field is a Fraction.  A tuple, so the engine registry keyed on it
    hashes it in C.
    """

    __slots__ = ()

    def __new__(cls, n1: Rational, k1: Rational, d1: Rational = 0,
                d2: Rational = 0) -> "HighestWeight":
        self = tuple.__new__(cls, (frac(n1), frac(k1), frac(d1), frac(d2)))
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0 (got {self.k1}); c2 always acts by 0")
        return self

    @property
    def n0(self) -> Fraction:
        return self.k1 - self.n1

    def weight(self) -> Weight:
        return Weight(self.n1, self.k1, Fraction(0), self.d1, self.d2)

    def is_dominant_integral(self) -> bool:
        """True when n1 and n0 are both nonnegative integers."""
        # n1 and n0 = k1 - n1 are integers exactly when n1 and k1 are
        n1, k1 = self.n1, self.k1
        return n1.denominator == 1 and k1.denominator == 1 and 0 <= n1.numerator <= k1.numerator

    @staticmethod
    def from_weight(w: Weight) -> "HighestWeight":
        if w.c2 != 0:
            raise ValueError(f"weight field 'c2': must be 0 (got {w.c2})")
        if w.c1 < 0:
            raise ValueError(f"weight field 'c1': must be >= 0 (got {w.c1})")
        return HighestWeight(w.h, w.c1, w.d1, w.d2)


def monomial_degree(m: PBWMonomial) -> int:
    return sum(a for _, a in m)


def format_monomial(m: PBWMonomial) -> str:
    if not m:
        return "v"
    parts = [f"{b!r}^{a}" if a > 1 else repr(b) for b, a in m]
    return "*".join(parts) + "*v"


class ModuleVector(LinearCombination):
    """Finite rational combination of PBW monomials applied to v."""

    __slots__ = ()

    @staticmethod
    def highest_weight_vector() -> "ModuleVector":
        return ModuleVector({VACUUM: 1})

    @staticmethod
    def monomial(m: PBWMonomial, coeff: Rational = 1) -> "ModuleVector":
        return ModuleVector({m: coeff})

    def sorted_terms(self) -> list[tuple[PBWMonomial, Fraction]]:
        def mkey(m: PBWMonomial):
            return tuple((basis_sort_key(b), a) for b, a in m)
        return sorted(self.terms.items(), key=lambda t: (monomial_degree(t[0]), mkey(t[0])))

    def to_json(self) -> list[dict]:
        return [{"monomial": format_monomial(m), "coeff": str(c)}
                for m, c in self.sorted_terms()]

    def __repr__(self) -> str:
        return format_terms((format_monomial(m), c) for m, c in self.sorted_terms())


def _affine_negative_generators(a0: int, a1: int) -> list[tuple[BasisElement, tuple[int, int]]]:
    """Level-0 negative generators with weight drop fitting inside (a0, a1),
    in PBW order: f(0,0), then f(-k,0), h(-k,0), e(-k,0) for k = 1, 2, ...

    Drops are recorded in simple-root coordinates: f(-k,0) drops
    (k, k+1), e(-k,0) drops (k, k-1), h(-k,0) drops (k, k)."""
    gens = [(f(0, 0), (0, 1))] if a1 else []
    for k in range(1, min(a0, a1 + 1) + 1):
        for b, drop in ((f(-k, 0), (k, k + 1)), (h(-k, 0), (k, k)), (e(-k, 0), (k, k - 1))):
            if drop[1] <= a1:
                gens.append((b, drop))
    return gens


# unbounded: one int per drop, (D+1)(D+2)/2 of them on a scan to height D
@cache
def dim_oracle(eta: tuple[int, int]) -> int:
    """Weight-space dimension by an independent partition count.

    Counts multisets of positive roots of the horizontal affine subalgebra
    summing to eta, via a two-dimensional coin-change dynamic program over
    simple-root coordinates.  The positive roots are alpha1 = (0,1) plus,
    for k >= 1, (k, k+1), (k, k-1) and (k, k), each of multiplicity one.
    This deliberately shares no code with the PBW enumeration.
    """
    a0, a1 = eta
    if a0 < 0 or a1 < 0:
        raise ValueError(f"eta outside the nonnegative simple-root cone: {(a0, a1)}")
    table = [[0] * (a1 + 1) for _ in range(a0 + 1)]
    table[0][0] = 1
    coins = [(0, 1)]
    for k in range(1, a0 + 1):
        for coin in ((k, k + 1), (k, k - 1), (k, k)):
            if coin[0] <= a0 and coin[1] <= a1:
                coins.append(coin)
    for c0, c1 in coins:
        for x0 in range(c0, a0 + 1):
            row = table[x0]
            prev = table[x0 - c0]
            for x1 in range(c1, a1 + 1):
                row[x1] += prev[x1 - c1]
    return table[a0][a1]


# Every basis built, by drop, for the process lifetime: a basis reads the
# bases of smaller drops, so evicting one would rebuild every basis above it.
_BASES: dict[tuple[int, int], list[PBWMonomial]] = {}


def _level0_basis(a0: int, a1: int) -> list[PBWMonomial]:
    """Level-0 canonical monomials of drop (a0, a1), sorted by the order; a
    miss builds the box of drops below it, smaller first: for each letter b^e,
    b then e ascending, b^e times the prefix of the drop left below b."""
    if (a0, a1) not in _BASES:
        gens = _affine_negative_generators(a0, a1)
        # every letter of a drop in the box is one of these, ranked by the order
        rank = {b: i for i, (b, _) in enumerate(gens)}
        for b0, b1 in product(range(a0 + 1), range(a1 + 1)):
            if (b0, b1) not in _BASES:
                out: list[PBWMonomial] = [] if b0 or b1 else [VACUUM]
                for i, (b, (c0, c1)) in enumerate(gens):
                    exp = 1 if i else (b0 + b1) // (c0 + c1) or 1  # only v can follow gens[0]
                    while exp * c0 <= b0 and exp * c1 <= b1:
                        rest = _BASES[(b0 - exp * c0, b1 - exp * c1)]
                        stop = bisect_left(rest, i, key=lambda m: rank[m[0][0]] if m else -1)
                        head = ((b, exp),)  # one pair shared by the monomials of b^exp
                        out.extend(head + m for m in rest[:stop])
                        exp += 1
                _BASES[(b0, b1)] = out
    return _BASES[(a0, a1)]


class VermaModule:
    """The module engine for one highest weight.

    All methods are pure.  ``_act_basis`` alone reads and fills the memos,
    picked by the sign the letter carries: positive letters go to this
    instance's ``_cache``, negative letters to the ``_cache`` of the engine
    at weight zero, shared by every engine, and Cartan letters to none.
    """

    def __init__(self, hw: HighestWeight):
        self.hw = hw
        # the Cartan eigenvalues on v by kind, ints where integral
        self._lam = {kind: val.numerator if val.denominator == 1 else val
                     for kind, val in (("h", hw.n1), ("c1", hw.k1), ("c2", Fraction(0)),
                                       ("d1", hw.d1), ("d2", hw.d2))}
        self._cache: dict[tuple[BasisElement, PBWMonomial], dict[PBWMonomial, Rational]] = {}

    # -- single generator action ------------------------------------------

    def _act_basis(self, g: BasisElement, m: PBWMonomial) -> dict[PBWMonomial, Rational]:
        if g.positive is None:
            # Cartan elements act diagonally: m*v has weight lam + wt(m), and
            # wt(m) adds the integers 2a to h, n1 to d1, n2 to d2, 0 to c1, c2.
            # Read off each time: a memo of these is almost never read back.
            val = self._lam[g.kind]
            if g.kind == H:
                val += 2 * sum(ALPHA_COEFF[b.kind] * a for b, a in m)
            elif g.kind in ("d1", "d2"):  # degree index 0 or 1
                val += sum(b.degree[g.kind == "d2"] * a for b, a in m)
            return {m: val} if val else {}
        # A negative letter on m (all letters negative) only reorders and
        # brackets negative letters, and the bracket of two is a negative-root
        # generator or zero, never a Cartan or central term: lam is never
        # read.  Those actions go to the weight-zero engine's memo, shared by
        # every engine, so it grows with the depth scanned, not the weights.
        memo = self._cache if g.positive else weight_free_engine()._cache
        hit = memo.get((g, m))
        if hit is None:
            hit = memo[(g, m)] = self._act_basis_uncached(g, m, memo)
        return hit

    def _act_basis_uncached(self, g: BasisElement, m: PBWMonomial,
                            memo: dict) -> dict[PBWMonomial, Rational]:
        """The miss path of ``_act_basis``, handed the memo it fills."""
        if not m:
            return {} if g.positive else {((g, 1),): 1}
        (lead, a) = m[0]
        kl = lead.key
        if not g.positive:
            if g == lead:
                return {((lead, a + 1),) + m[1:]: 1}
            if g.key > kl:
                return {((g, 1),) + m: 1}
        # m must be canonical, else a negative g reads lam into the shared memo
        if lead.positive is not False:
            raise ValueError(f"{format_monomial(m)} is not a canonical monomial")
        # g must move right: g * lead^a * rest = lead * (g * tail) + [g, lead] * tail
        tail = ((lead, a - 1),) + m[1:] if a > 1 else m[1:]
        if a > 2 and (g, tail) not in memo:
            # g on lead^j * rest first, j = 1 .. a-2, each onto the one below
            for j in range(1, a - 1):
                self._act_basis(g, ((lead, j),) + m[1:])
        out: dict[PBWMonomial, Rational] = {}
        deg = 0  # deg(m), read once, at the first term lead does not precede
        for m2, c2 in self._act_basis(g, tail).items():
            # termination: the degree-preserving part of g*tail is the
            # sorted multiset of its letters, so lead re-attaches directly.
            if m2 and kl < m2[0][0].key:
                deg = deg or monomial_degree(m)
                if monomial_degree(m2) >= deg:
                    raise AssertionError(f"straightening: {lead!r} does not re-attach "
                                         f"to {format_monomial(m2)}")
            add_scaled(out, self._act_basis(lead, m2), c2)
        for b, cb in bracket(g, lead).items():
            add_scaled(out, self._act_basis(b, tail), cb)
        # non-integral Cartan values can sum or multiply to an integer
        for m2, c in out.items():
            if type(c) is Fraction and c.denominator == 1:
                out[m2] = c.numerator
        return out

    # -- public action ------------------------------------------------------

    def act(self, x: Union[AlgebraElement, BasisElement], v: ModuleVector) -> ModuleVector:
        """Action of an algebra element, straightened to canonical form, one
        ``_act_basis`` per generator and term: it alone reads the memos."""
        out: dict[PBWMonomial, Rational] = {}
        for b, cb in ((x, 1),) if isinstance(x, BasisElement) else x.items():
            for m, cm in v.items():
                add_scaled(out, self._act_basis(b, m), cb * cm)
        return ModuleVector._wrap(out)

    def apply_word(self, word: Sequence[tuple[BasisElement, int]],
                   v: Optional[ModuleVector] = None) -> ModuleVector:
        """Apply a product of powers of generators to ``v``, rightmost letter
        first, one ``act`` per letter.  Without ``v`` the word acts on the
        highest weight vector; nothing is memoized.
        """
        if v is None:
            v = ModuleVector.highest_weight_vector()
        for b, exp in reversed(list(word)):
            for _ in range(exp):
                v = self.act(b, v)
        return v

    # -- weight spaces ------------------------------------------------------

    def weight_space_basis(self, eta: tuple[int, int]) -> list[PBWMonomial]:
        """Canonical PBW monomials of weight -eta, eta in the level-0 cone.

        Only factors from the horizontal affine negative half can occur:
        all negative roots have delta2-degree <= 0, so a factor below level
        0 could never be compensated.  The enumeration therefore restricts
        to f(-k,0), e(-k,0), h(-k,0).  The list is cached per drop,
        shared by every engine and caller, who must not change it.
        """
        a0, a1 = eta
        if a0 < 0 or a1 < 0:
            raise ValueError(f"eta outside the nonnegative simple-root cone: {(a0, a1)}")
        return _level0_basis(a0, a1)


# one slot, as each command acts at one weight; bench/child.py reads it
_ENGINES: dict[HighestWeight, VermaModule] = {}


def module_for(hw: HighestWeight) -> VermaModule:
    """The engine for the last weight asked for; asking for another drops it."""
    eng = _ENGINES.get(hw)
    if eng is None:
        _ENGINES.clear()
        eng = _ENGINES[hw] = VermaModule(hw)
    return eng


_WEIGHT_ZERO = VermaModule(HighestWeight(0, 0))  # outside the registry


def weight_free_engine() -> VermaModule:
    """The engine at weight 0, kept for the process lifetime.  Its ``_cache``
    holds the negative letters of every engine and the raising actions that
    ``singular`` straightens here; neither reads the weight."""
    return _WEIGHT_ZERO
