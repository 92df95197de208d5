"""Basis elements and the Lie bracket of the double affine sl2 algebra.

Generators are e(m,n), f(m,n), h(m,n) (the sl2 triple tensored with
t1^m t2^n), two central elements c1, c2 and two degree derivations d1, d2.
The bracket on loop elements is

    [x(m,n), y(p,q)] = [x,y](m+p, n+q) + (x|y) * delta_{(m,n),(-p,-q)} * (m c1 + n c2)

with sl2 constants [h,e] = 2e, [h,f] = -2f, [e,f] = h and form
(e|f) = 1, (h|h) = 2.  The central term fires only when the degrees cancel
exactly.  c1, c2 commute with everything; [d_i, x(m,n)] = (m,n)_i x(m,n).

All coefficients are exact rationals.  Every value here is immutable and
every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import re
from typing import Iterable, Iterator, Mapping, Optional, Union

from .roots import RootVector, Rational, frac

E, F, H = "e", "f", "h"
_LOOP_KINDS = (E, F, H)
_CONST_KINDS = ("c1", "c2", "d1", "d2")


@dataclass(frozen=True, slots=True)
class BasisElement:
    """One generator: a loop element with a degree, or one of c1, c2, d1, d2."""

    kind: str
    degree: Optional[tuple[int, int]]

    def __repr__(self) -> str:
        if self.degree is None:
            return self.kind
        m, n = self.degree
        return f"{self.kind}({m},{n})"


@lru_cache(maxsize=None)
def _loop(kind: str, m: int, n: int) -> BasisElement:
    return BasisElement(kind, (m, n))


def e(m: int, n: int) -> BasisElement:
    return _loop(E, m, n)


def f(m: int, n: int) -> BasisElement:
    return _loop(F, m, n)


def h(m: int, n: int) -> BasisElement:
    return _loop(H, m, n)


C1 = BasisElement("c1", None)
C2 = BasisElement("c2", None)
D1 = BasisElement("d1", None)
D2 = BasisElement("d2", None)

_CONSTANTS = {"c1": C1, "c2": C2, "d1": D1, "d2": D2}


def is_loop(b: BasisElement) -> bool:
    return b.degree is not None


def is_cartan(b: BasisElement) -> bool:
    """True for elements of the Cartan subalgebra: h(0,0), c1, c2, d1, d2."""
    return b.degree is None or (b.kind == H and b.degree == (0, 0))


def weight_of(b: BasisElement) -> RootVector:
    """Root under the adjoint Cartan action; zero for c1, c2, d1, d2."""
    if b.degree is None:
        return RootVector(0, 0, 0)
    m, n = b.degree
    a = {E: 1, F: -1, H: 0}[b.kind]
    return RootVector(a, m, n)


_KIND_RANK = {F: 0, H: 1, E: 2}
_CONST_RANK = {"c1": 0, "c2": 1, "d1": 2, "d2": 3}


def basis_sort_key(b: BasisElement) -> tuple:
    """Default strict total order on generators: (-n, -m, rank f < h < e).

    Loop elements sort before the constants; the key groups generators by
    delta2-degree, then delta1-degree, so delta2-level-0 computations stay
    self-contained.  Any fixed total order makes the straightening in the
    module engine terminate; this one is the library default.
    """
    if b.degree is None:
        return (1, _CONST_RANK[b.kind])
    m, n = b.degree
    return (0, -n, -m, _KIND_RANK[b.kind])


def add_scaled(out: dict, terms: Mapping, scale: Rational) -> None:
    """out += scale * terms, in place; coefficients that cancel are removed.

    This is the one place that keeps linear combinations free of zero
    coefficients.
    """
    for key, c in terms.items():
        acc = out.get(key)
        acc = scale * c if acc is None else acc + scale * c
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)


class LinearCombination:
    """Finite rational linear combination of hashable keys.

    Stored as a map key -> nonzero coefficient; the map itself is the
    canonical form.  Supports +, -, scalar *, and exact equality, which
    also requires the same type: combinations of generators and of module
    monomials never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        self.terms: dict = {}
        if terms:
            add_scaled(self.terms, {k: frac(c) for k, c in terms.items()}, 1)

    @classmethod
    def _wrap(cls, terms: dict):
        """An instance around a map already in canonical form."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def zero(cls):
        return cls._wrap({})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self.terms.items())

    def __add__(self, other):
        out = dict(self.terms)
        add_scaled(out, other.terms, 1)
        return self._wrap(out)

    def __sub__(self, other):
        out = dict(self.terms)
        add_scaled(out, other.terms, -1)
        return self._wrap(out)

    def __rmul__(self, k: Rational):
        out: dict = {}
        add_scaled(out, self.terms, frac(k))
        return self._wrap(out)

    def __neg__(self):
        return -1 * self

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class AlgebraElement(LinearCombination):
    """Finite rational linear combination of basis elements."""

    __slots__ = ()

    @staticmethod
    def basis(b: BasisElement, coeff: Rational = 1) -> "AlgebraElement":
        return AlgebraElement({b: coeff})

    def __repr__(self) -> str:
        return f"AlgebraElement({format_element(self)})"


_SL2_BRACKET = {
    (H, E): (E, 2),
    (E, H): (E, -2),
    (H, F): (F, -2),
    (F, H): (F, 2),
    (E, F): (H, 1),
    (F, E): (H, -1),
}

_SL2_FORM = {(E, F): 1, (F, E): 1, (H, H): 2}


@lru_cache(maxsize=None)
def _bracket_basis(x: BasisElement, y: BasisElement) -> "AlgebraElement":
    if x.degree is None:
        if x.kind in ("c1", "c2"):
            return AlgebraElement.zero()
        if y.degree is None:
            return AlgebraElement.zero()
        # derivation: [d_i, y(p,q)] = degree_i * y(p,q)
        i = 0 if x.kind == "d1" else 1
        return AlgebraElement.basis(y, y.degree[i])
    if y.degree is None:
        return -1 * _bracket_basis(y, x)

    m, n = x.degree
    p, q = y.degree
    out: dict[BasisElement, int] = {}
    lie = _SL2_BRACKET.get((x.kind, y.kind))
    if lie is not None:
        kind, coeff = lie
        out[_loop(kind, m + p, n + q)] = coeff
    if (m, n) == (-p, -q):
        form = _SL2_FORM.get((x.kind, y.kind), 0)
        out[C1] = form * m
        out[C2] = form * n
    return AlgebraElement(out)


def bracket(a: Union[AlgebraElement, BasisElement],
            b: Union[AlgebraElement, BasisElement]) -> AlgebraElement:
    """Lie bracket, extended bilinearly; result in canonical form."""
    if isinstance(a, BasisElement):
        if isinstance(b, BasisElement):
            return _bracket_basis(a, b)
        a = AlgebraElement.basis(a)
    if isinstance(b, BasisElement):
        b = AlgebraElement.basis(b)
    out: dict[BasisElement, Fraction] = {}
    for x, cx in a.items():
        for y, cy in b.items():
            add_scaled(out, _bracket_basis(x, y).terms, cx * cy)
    return AlgebraElement._wrap(out)


def format_terms(pairs: Iterable[tuple[str, Fraction]]) -> str:
    """'c*x + ...' from (text of x, c) pairs; coefficients +-1 are elided."""
    parts = [text if c == 1 else f"-{text}" if c == -1 else f"{c}*{text}"
             for text, c in pairs]
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def format_element(x: AlgebraElement) -> str:
    return format_terms((repr(b), c) for b, c in
                        sorted(x.terms.items(), key=lambda t: basis_sort_key(t[0])))


_TOKEN = re.compile(
    r"\s*(?:(?P<gen>[efh])\(\s*(?P<m>-?\d+)\s*,\s*(?P<n>-?\d+)\s*\)"
    r"|(?P<const>c1|c2|d1|d2)"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<op>[+*-]))"
)


def parse_element(text: str) -> AlgebraElement:
    """Parse the element syntax used by the command line.

    Sums of terms; a term is a '*'-product of rational scalars and at most
    one generator, e.g. ``1/2*e(1,0) + 3*h(0,0) - c1``.
    """
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse element near {text[pos:pos+12]!r}")
        tokens.append(m)
        pos = m.end()

    total = AlgebraElement.zero()
    coeff = Fraction(1)
    gen: Optional[BasisElement] = None
    sign = Fraction(1)
    seen_factor = False

    def flush():
        nonlocal total, coeff, gen, sign, seen_factor
        if not seen_factor:
            raise ValueError("empty term in element expression")
        if gen is None:
            raise ValueError("term without a generator (pure scalars are not elements)")
        total = total + (sign * coeff) * AlgebraElement.basis(gen)
        coeff, gen, sign, seen_factor = Fraction(1), None, Fraction(1), False

    for tok in tokens:
        if tok.group("op") == "+":
            flush()
        elif tok.group("op") == "-":
            if seen_factor:
                flush()
            sign = -sign
        elif tok.group("op") == "*":
            if not seen_factor:
                raise ValueError("misplaced '*' in element expression")
        elif tok.group("gen"):
            if gen is not None:
                raise ValueError("a term may contain at most one generator")
            gen = _loop(tok.group("gen"), int(tok.group("m")), int(tok.group("n")))
            seen_factor = True
        elif tok.group("const"):
            if gen is not None:
                raise ValueError("a term may contain at most one generator")
            gen = _CONSTANTS[tok.group("const")]
            seen_factor = True
        else:
            coeff *= Fraction(tok.group("num"))
            seen_factor = True
    flush()
    return total
