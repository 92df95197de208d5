"""Verma modules over the double affine sl2 algebra.

A highest weight vector v is killed by every positive-root generator and
carries a weight lam with lam(c1) = k1 >= 0 and lam(c2) = 0.  The module
is free over the negative half, so ordered products of negative-root
generators applied to v form a basis (PBW monomials).

Straightening.  ``VermaModule.act`` commutes a generator rightward past
the factors of a canonical monomial, replacing g*F by F*g + [g,F].  The
recursion terminates because each rewrite strictly decreases the pair
(total degree of the word, number of inversions of the moving letter
against the word) in lexicographic order: a bracket substitution drops the
degree by one, and the degree-preserving branch only re-sorts the original
multiset of letters, after which the leading factor re-attaches without
further commutation.  That last fact is asserted below.

Weight spaces.  At delta2-level 0 the weight spaces lam - eta, eta a
nonnegative combination of the simple roots alpha0 and alpha1, are finite
dimensional: every negative root has delta2-degree <= 0, so factors with
nonzero delta2-degree can never cancel back to level 0.  Their dimensions
equal the Kostant partition counts of the horizontal affine subalgebra,
which ``dim_oracle`` computes by an independent dynamic program (it never
touches the PBW engine).  Weight spaces at delta2-level < 0 are infinite
dimensional; ``weight_space_basis_truncated`` enumerates a finite window
of them and is labeled as a truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import re
from typing import Callable, Optional, Sequence, Union

from .algebra import (AlgebraElement, BasisElement, LinearCombination,
                      add_scaled, basis_sort_key, bracket, e, f, format_terms,
                      h, is_cartan, weight_of, _loop)
from .roots import (RootVector, Weight, Rational, frac, is_positive,
                    q1_coords)

PBWMonomial = tuple[tuple[BasisElement, int], ...]
SortKey = Callable[[BasisElement], tuple]

VACUUM: PBWMonomial = ()
_ONE = Fraction(1)


@dataclass(frozen=True, slots=True)
class HighestWeight:
    """Highest weight data: n1 = lam(alpha_check), k1 = lam(c1) >= 0.

    lam(c2) is identically 0 and the derived value n0 = k1 - n1 equals
    lam(alpha0_check).  The d-values only shift weights and default to 0.
    """

    n1: Fraction
    k1: Fraction
    d1: Fraction = Fraction(0)
    d2: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("n1", "k1", "d1", "d2"):
            object.__setattr__(self, name, frac(getattr(self, name)))
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0 (got {self.k1}); c2 always acts by 0")

    @property
    def n0(self) -> Fraction:
        return self.k1 - self.n1

    def weight(self) -> Weight:
        return Weight(self.n1, self.k1, Fraction(0), self.d1, self.d2)

    def is_dominant_integral(self) -> bool:
        """True when n1 and n0 are both nonnegative integers."""
        return (self.n1.denominator == 1 and self.n1 >= 0
                and self.n0.denominator == 1 and self.n0 >= 0)

    @staticmethod
    def from_weight(w: Weight) -> "HighestWeight":
        if w.c2 != 0:
            raise ValueError(f"weight field 'c2': must be 0 (got {w.c2})")
        if w.c1 < 0:
            raise ValueError(f"weight field 'c1': must be >= 0 (got {w.c1})")
        return HighestWeight(w.h, w.c1, w.d1, w.d2)


def monomial_degree(m: PBWMonomial) -> int:
    return sum(a for _, a in m)


def monomial_weight(m: PBWMonomial) -> RootVector:
    w = RootVector(0, 0, 0)
    for b, a in m:
        w = w + a * weight_of(b)
    return w


def is_canonical(m: PBWMonomial, key: SortKey = basis_sort_key) -> bool:
    """Factors strictly decreasing in the order, exponents >= 1, all negative."""
    for b, a in m:
        if a < 1 or is_positive(weight_of(b)):
            return False
    keys = [key(b) for b, _ in m]
    return all(keys[i] > keys[i + 1] for i in range(len(keys) - 1))


def format_monomial(m: PBWMonomial) -> str:
    if not m:
        return "v"
    parts = [f"{b!r}^{a}" if a > 1 else repr(b) for b, a in m]
    return "*".join(parts) + "*v"


_MONO_TOKEN = re.compile(
    r"\s*(?:(?P<gen>[efh])\(\s*(?P<m>-?\d+)\s*,\s*(?P<n>-?\d+)\s*\)(?:\^(?P<exp>\d+))?"
    r"|(?P<vac>v)|(?P<star>\*))\s*"
)


def parse_monomial_text(text: str) -> list[tuple[BasisElement, int]]:
    """Parse ``f(0,0)^2*h(-1,0)*v`` into a factor list (any order accepted).

    The result is a plain word; feed it to ``VermaModule.apply_word`` to
    obtain the straightened module vector it denotes.
    """
    pos = 0
    factors: list[tuple[BasisElement, int]] = []
    saw_v = False
    while pos < len(text):
        m = _MONO_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse monomial near {text[pos:pos+12]!r}")
        if m.group("gen"):
            if saw_v:
                raise ValueError("factors after the vacuum symbol 'v'")
            exp = int(m.group("exp") or 1)
            if exp < 1:
                raise ValueError("exponents must be positive")
            factors.append((_loop(m.group("gen"), int(m.group("m")), int(m.group("n"))), exp))
        elif m.group("vac"):
            saw_v = True
        pos = m.end()
    if not saw_v:
        raise ValueError("monomial text must end with the vacuum symbol 'v'")
    return factors


class ModuleVector(LinearCombination):
    """Finite rational combination of PBW monomials applied to v."""

    __slots__ = ()

    @staticmethod
    def highest_weight_vector() -> "ModuleVector":
        return ModuleVector({VACUUM: 1})

    @staticmethod
    def monomial(m: PBWMonomial, coeff: Rational = 1) -> "ModuleVector":
        return ModuleVector({m: coeff})

    def weight_drop(self) -> Optional[RootVector]:
        """-(total weight) shared by all monomials, or None if inhomogeneous."""
        drops = {-monomial_weight(m) for m in self.terms}
        if len(drops) > 1:
            return None
        return drops.pop() if drops else RootVector(0, 0, 0)

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
    """Level-0 negative generators with weight drop fitting inside (a0, a1).

    Drops are recorded in simple-root coordinates: f(-k,0) drops
    (k, k+1), e(-k,0) drops (k, k-1), h(-k,0) drops (k, k).
    """
    gens: list[tuple[BasisElement, tuple[int, int]]] = []
    for k in range(0, min(a0, a1 - 1) + 1):
        gens.append((f(-k, 0), (k, k + 1)))
    for k in range(1, min(a0, a1 + 1) + 1):
        gens.append((e(-k, 0), (k, k - 1)))
    for k in range(1, min(a0, a1) + 1):
        gens.append((h(-k, 0), (k, k)))
    return gens


def dim_oracle(eta: Union[RootVector, tuple[int, int]]) -> int:
    """Weight-space dimension by an independent partition count.

    Counts multisets of positive roots of the horizontal affine subalgebra
    summing to eta, via a two-dimensional coin-change dynamic program over
    simple-root coordinates.  The positive roots are alpha1 = (0,1) plus,
    for k >= 1, (k, k+1), (k, k-1) and (k, k), each of multiplicity one.
    This deliberately shares no code with the PBW enumeration.
    """
    a0, a1 = eta if isinstance(eta, tuple) else q1_coords(eta)
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


class VermaModule:
    """The module engine for one highest weight (and one basis order).

    All methods are pure; results of single-generator actions are memoized
    per instance, so reusing one engine across a scan is much faster than
    constructing fresh ones.
    """

    def __init__(self, hw: HighestWeight, sort_key: SortKey = basis_sort_key):
        self.hw = hw
        self.key = sort_key
        self._lam = hw.weight()
        self._cache: dict[tuple[BasisElement, PBWMonomial], dict[PBWMonomial, Fraction]] = {}

    # -- single generator action ------------------------------------------

    def _act_basis(self, g: BasisElement, m: PBWMonomial) -> dict[PBWMonomial, Fraction]:
        hit = self._cache.get((g, m))
        if hit is not None:
            return hit
        res = self._act_basis_uncached(g, m)
        self._cache[(g, m)] = res
        return res

    def _act_basis_uncached(self, g: BasisElement, m: PBWMonomial) -> dict[PBWMonomial, Fraction]:
        if is_cartan(g):
            # Cartan elements act diagonally: m*v has weight lam + wt(m).
            val = (self._lam + Weight.from_root(monomial_weight(m))).pair(_cartan_coords(g))
            return {m: val} if val else {}
        positive = is_positive(weight_of(g))
        if not m:
            if positive:
                return {}
            return {((g, 1),): Fraction(1)}
        (lead, a) = m[0]
        if not positive:
            kg, kl = self.key(g), self.key(lead)
            if kg > kl:
                return {((g, 1),) + m: Fraction(1)}
            if kg == kl:
                assert g == lead, "sort key must be a strict total order"
                return {((lead, a + 1),) + m[1:]: Fraction(1)}
        # g must move right: g * lead^a * rest = lead * (g * tail) + [g, lead] * tail
        tail = ((lead, a - 1),) + m[1:] if a > 1 else m[1:]
        deg = monomial_degree(m)
        out: dict[PBWMonomial, Fraction] = {}
        for m2, c2 in self._act_basis(g, tail).items():
            # termination: the degree-preserving part of g*tail is the
            # sorted multiset of its letters, so lead re-attaches directly.
            assert monomial_degree(m2) < deg or self.key(lead) >= self.key(m2[0][0])
            add_scaled(out, self._act_basis(lead, m2), c2)
        for b, cb in bracket(g, lead).items():
            add_scaled(out, self._act_basis(b, tail), cb)
        return out

    # -- public action ------------------------------------------------------

    def act(self, x: Union[AlgebraElement, BasisElement], v: ModuleVector) -> ModuleVector:
        """Action of an algebra element, straightened to canonical form."""
        out: dict[PBWMonomial, Fraction] = {}
        for b, cb in ((x, _ONE),) if isinstance(x, BasisElement) else x.items():
            for m, cm in v.items():
                add_scaled(out, self._act_basis(b, m), cb * cm)
        return ModuleVector._wrap(out)

    def apply_word(self, word: Sequence[tuple[BasisElement, int]],
                   v: Optional[ModuleVector] = None) -> ModuleVector:
        """Apply a product of powers of generators, rightmost letter first."""
        out = v if v is not None else ModuleVector.highest_weight_vector()
        for b, exp in reversed(list(word)):
            for _ in range(exp):
                out = self.act(b, out)
        return out

    # -- weight spaces ------------------------------------------------------

    def weight_space_basis(self, eta: Union[RootVector, tuple[int, int]]) -> list[PBWMonomial]:
        """Canonical PBW monomials of weight -eta, eta in the level-0 cone.

        Only factors from the horizontal affine negative half can occur:
        all negative roots have delta2-degree <= 0, so a factor below level
        0 could never be compensated.  The enumeration therefore restricts
        to f(-k,0), e(-k,0), h(-k,0).
        """
        a0, a1 = eta if isinstance(eta, tuple) else q1_coords(eta)
        if a0 < 0 or a1 < 0:
            raise ValueError(f"eta outside the nonnegative simple-root cone: {(a0, a1)}")
        gens = _affine_negative_generators(a0, a1)
        gens.sort(key=lambda g: self.key(g[0]), reverse=True)
        out: list[PBWMonomial] = []

        def rec(idx: int, r0: int, r1: int, acc: list[tuple[BasisElement, int]]):
            if r0 == 0 and r1 == 0:
                out.append(tuple(acc))
                return
            if idx == len(gens):
                return
            b, (c0, c1) = gens[idx]
            top = min(r0 // c0 if c0 else r1, r1 // c1 if c1 else r0)
            for exp in range(top, 0, -1):
                acc.append((b, exp))
                rec(idx + 1, r0 - exp * c0, r1 - exp * c1, acc)
                acc.pop()
            rec(idx + 1, r0, r1, acc)

        rec(0, a0, a1, [])
        out.sort(key=lambda m: tuple((self.key(b), a) for b, a in m))
        return out

    def weight_space_basis_truncated(self, eta: RootVector, window: int) -> list[PBWMonomial]:
        """TRUNCATED enumeration below level 0: factors limited to |delta1-degree| <= window.

        The true weight spaces at delta2-level < 0 are infinite dimensional;
        this returns only the monomials whose factors satisfy the window
        bound, so it is a finite sample, not a basis.
        """
        if window < 0:
            raise ValueError("window must be >= 0")
        if eta.n2 < 0:
            raise ValueError(f"eta must lie in the positive cone: {eta!r}")
        level = eta.n2
        deep: list[BasisElement] = []
        for n in range(-level, 0):
            for m in range(-window, window + 1):
                for mk in (e, f, h):
                    b = mk(m, n)
                    if not is_positive(weight_of(b)):
                        deep.append(b)
        deep.sort(key=self.key, reverse=True)
        out: list[PBWMonomial] = []

        def rec(idx: int, remaining: RootVector, acc: list[tuple[BasisElement, int]]):
            if remaining.n2 == 0:
                try:
                    a0, a1 = q1_coords(remaining)
                except ValueError:
                    return
                for level0 in self.weight_space_basis((a0, a1)):
                    if all(abs(b.degree[0]) <= window for b, _ in level0):
                        out.append(tuple(acc) + level0)
                return
            if idx == len(deep):
                return
            b = deep[idx]
            w = weight_of(b)
            top = remaining.n2 // (-w.n2) if w.n2 else 0
            for exp in range(top, 0, -1):
                acc.append((b, exp))
                rec(idx + 1, remaining + exp * w, acc)
                acc.pop()
            rec(idx + 1, remaining, acc)

        rec(0, eta, [])
        out.sort(key=lambda m: tuple((self.key(b), a) for b, a in m))
        return out


def _cartan_coords(g: BasisElement):
    from .roots import CartanElement
    if g.kind == "h":
        return CartanElement.make(1, 0, 0, 0, 0)
    idx = {"c1": (0, 1, 0, 0, 0), "c2": (0, 0, 1, 0, 0),
           "d1": (0, 0, 0, 1, 0), "d2": (0, 0, 0, 0, 1)}[g.kind]
    return CartanElement.make(*idx)


_ENGINES: dict[tuple, VermaModule] = {}


def module_for(hw: HighestWeight, sort_key: SortKey = basis_sort_key) -> VermaModule:
    """Shared engine per (highest weight, order); reuses the action cache."""
    key = (hw, sort_key)
    eng = _ENGINES.get(key)
    if eng is None:
        eng = VermaModule(hw, sort_key)
        _ENGINES[key] = eng
    return eng


def act(x: Union[AlgebraElement, BasisElement], v: ModuleVector,
        hw: HighestWeight) -> ModuleVector:
    return module_for(hw).act(x, v)


def weight_space_basis(hw: HighestWeight,
                       eta: Union[RootVector, tuple[int, int]]) -> list[PBWMonomial]:
    return module_for(hw).weight_space_basis(eta)
