"""Root system and weight arithmetic for the double affine sl2 algebra.

Roots are integer combinations a*alpha + n1*delta1 + n2*delta2.  Weights
(functionals on the Cartan subalgebra) are stored as their values on the
ordered basis (alpha_check, c1, c2, d1, d2), all exact rationals.

The positive/negative partition implemented by ``is_positive`` treats the
algebra as an affinization of its horizontal affine subalgebra (loop
variable t1): every root with delta2-degree > 0 is positive, roots with
delta2-degree 0 follow the usual affine sl2 partition, and the rest are
negative.  The seven membership clauses are spelled out literally.

Convention for the shifted Weyl action: ``RHO = Weight(1, 2, 2, 0, 0)``.
Only rho(alpha1_check) = rho(alpha0_check) = 1 is forced; we extend by
rho(c2) = 2 (so the third "simple" coroot also pairs to 1) and rho(d1) =
rho(d2) = 0.  The d-values of rho cancel in w.lam = w(lam + rho) - rho and
in (lam + rho)(beta_check), so this choice does not affect any result
computed here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Rational = Union[int, Fraction, str]

REAL = "real"
IMAGINARY = "imaginary"
NOT_ROOT = "not_root"

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


def frac(x: Rational) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not a rational: {x!r}")


class RootVector(NamedTuple):
    """Integer vector a*alpha + n1*delta1 + n2*delta2.

    A tuple, so it hashes and compares in C; ``k * r`` scales it and
    ``r * k`` raises, as a tuple's repetition would be no scaling.
    """

    a: int
    n1: int
    n2: int

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(self.a + other.a, self.n1 + other.n1, self.n2 + other.n2)

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(self.a - other.a, self.n1 - other.n1, self.n2 - other.n2)

    def __neg__(self) -> "RootVector":
        return RootVector(-self.a, -self.n1, -self.n2)

    def __rmul__(self, k: int) -> "RootVector":
        return RootVector(k * self.a, k * self.n1, k * self.n2)

    def __mul__(self, k):
        return NotImplemented

    def is_zero(self) -> bool:
        return self.a == 0 and self.n1 == 0 and self.n2 == 0

    def to_json(self) -> dict:
        return {"a": self.a, "n1": self.n1, "n2": self.n2}

    def __repr__(self) -> str:
        return f"RootVector({self.a}, {self.n1}, {self.n2})"


ALPHA = RootVector(1, 0, 0)
DELTA1 = RootVector(0, 1, 0)
DELTA2 = RootVector(0, 0, 1)
ALPHA1 = ALPHA
ALPHA0 = DELTA1 - ALPHA


def classify(r: RootVector) -> str:
    """Return one of REAL, IMAGINARY, NOT_ROOT."""
    if r.a in (1, -1):
        return REAL
    if r.a == 0 and not r.is_zero():
        return IMAGINARY
    return NOT_ROOT


def is_positive(r: RootVector) -> bool:
    """Membership of a root in the positive set of the partition.

    The seven clauses below are, in order: alpha + Z+ d1 + Z+ d2;
    -alpha + N d1 + Z+ d2; N d1 + Z+ d2; -alpha - Z+ d1 + N d2;
    alpha - N d1 + N d2; -N d1 + N d2; N d2.  (Z+ = nonnegative,
    N = positive.)  Raises on non-roots.
    """
    if classify(r) == NOT_ROOT:
        raise ValueError(f"not a root: {r!r}")
    a, n1, n2 = r.a, r.n1, r.n2
    return (
        (a == 1 and n1 >= 0 and n2 >= 0)
        or (a == -1 and n1 >= 1 and n2 >= 0)
        or (a == 0 and n1 >= 1 and n2 >= 0)
        or (a == -1 and n1 <= 0 and n2 >= 1)
        or (a == 1 and n1 <= -1 and n2 >= 1)
        or (a == 0 and n1 <= -1 and n2 >= 1)
        or (a == 0 and n1 == 0 and n2 >= 1)
    )


def q1_coords(eta: RootVector) -> tuple[int, int]:
    """Coordinates (a0, a1) of eta in the simple-root basis alpha0, alpha1.

    Requires eta to lie in the nonnegative span of alpha0 and alpha1
    (in particular delta2-degree 0); raises ValueError otherwise.
    """
    if eta.n2 != 0:
        raise ValueError(f"eta has nonzero delta2-degree: {eta!r}")
    a0 = eta.n1
    a1 = eta.a + eta.n1
    if a0 < 0 or a1 < 0:
        raise ValueError(f"eta is not a nonnegative combination of alpha0, alpha1: {eta!r}")
    return a0, a1


def root_from_q1(a0: int, a1: int) -> RootVector:
    """Inverse of q1_coords: a0*alpha0 + a1*alpha1."""
    return RootVector(a1 - a0, a0, 0)


class CartanElement(NamedTuple):
    """Coordinates of a Cartan element on (alpha_check, c1, c2, d1, d2)."""

    h: Fraction
    c1: Fraction
    c2: Fraction
    d1: Fraction
    d2: Fraction

    @staticmethod
    def make(h: Rational = 0, c1: Rational = 0, c2: Rational = 0,
             d1: Rational = 0, d2: Rational = 0) -> "CartanElement":
        return CartanElement(frac(h), frac(c1), frac(c2), frac(d1), frac(d2))


class Weight(NamedTuple):
    """Functional on the Cartan subalgebra, by values on (alpha_check, c1, c2, d1, d2).

    Like ``RootVector``, ``k * w`` scales it and ``w * k`` raises.
    """

    h: Fraction
    c1: Fraction
    c2: Fraction
    d1: Fraction
    d2: Fraction

    @staticmethod
    def make(h: Rational = 0, c1: Rational = 0, c2: Rational = 0,
             d1: Rational = 0, d2: Rational = 0) -> "Weight":
        return Weight(frac(h), frac(c1), frac(c2), frac(d1), frac(d2))

    @staticmethod
    def from_root(r: RootVector) -> "Weight":
        """Embed a*alpha + n1*delta1 + n2*delta2 as a functional."""
        return Weight(Fraction(2 * r.a), Fraction(0), Fraction(0), Fraction(r.n1), Fraction(r.n2))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.h + other.h, self.c1 + other.c1, self.c2 + other.c2,
                      self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.h - other.h, self.c1 - other.c1, self.c2 - other.c2,
                      self.d1 - other.d1, self.d2 - other.d2)

    def __rmul__(self, k: Rational) -> "Weight":
        k = frac(k)
        return Weight(k * self.h, k * self.c1, k * self.c2, k * self.d1, k * self.d2)

    def __mul__(self, k):
        return NotImplemented

    def __neg__(self) -> "Weight":
        return -1 * self

    def pair(self, x: CartanElement) -> Fraction:
        """Evaluate the functional at a Cartan element."""
        return (self.h * x.h + self.c1 * x.c1 + self.c2 * x.c2
                + self.d1 * x.d1 + self.d2 * x.d2)

    def to_json(self) -> dict:
        return {"h": str(self.h), "c1": str(self.c1), "c2": str(self.c2),
                "d1": str(self.d1), "d2": str(self.d2)}

    @staticmethod
    def from_json(obj: dict) -> "Weight":
        if not isinstance(obj, dict):
            raise ValueError("weight must be a JSON object")
        vals = {}
        for field in ("h", "c1", "c2", "d1", "d2"):
            if field not in obj:
                raise ValueError(f"weight field '{field}': missing")
            raw = obj[field]
            if isinstance(raw, int):
                raw = str(raw)
            if not isinstance(raw, str) or not _RATIONAL_RE.fullmatch(raw.strip()):
                raise ValueError(f"weight field '{field}': invalid rational {raw!r} "
                                 "(use 'p/q' in lowest terms)")
            try:
                vals[field] = frac(raw)
            except ZeroDivisionError:
                raise ValueError(f"weight field '{field}': zero denominator in {raw!r}") from None
        extra = set(obj) - {"h", "c1", "c2", "d1", "d2"}
        if extra:
            raise ValueError(f"weight field '{sorted(extra)[0]}': unknown field")
        return Weight(**vals)


RHO = Weight.make(1, 2, 2, 0, 0)


def coroot(r: RootVector) -> CartanElement:
    """Coroot of a real root: sign(a)*alpha_check + n1*c1 + n2*c2."""
    if classify(r) != REAL:
        raise ValueError(f"coroot is defined for real roots only: {r!r}")
    return CartanElement.make(r.a, r.n1, r.n2, 0, 0)


def reflect(beta: RootVector, lam: Weight) -> Weight:
    """Reflection r_beta(lam) = lam - lam(beta_check) * beta, beta real, field by field."""
    if classify(beta) != REAL:
        raise ValueError(f"coroot is defined for real roots only: {beta!r}")
    a, n1, n2 = beta
    coeff = a * lam.h + n1 * lam.c1 + n2 * lam.c2  # lam(beta_check); only h, d1, d2 move
    return Weight(lam.h - 2 * a * coeff, lam.c1, lam.c2, lam.d1 - n1 * coeff, lam.d2 - n2 * coeff)


_SIMPLE = {"r0": ALPHA0, "r1": ALPHA1}


def dot_action(word: Sequence[str], lam: Weight) -> Weight:
    """Shifted action of a word over {r0, r1}: w.lam = w(lam + RHO) - RHO.

    The word is read as a product left to right, so the rightmost
    generator acts first; composing words composes the action.
    """
    mu = lam + RHO
    for gen in reversed([g for g in word]):
        try:
            beta = _SIMPLE[gen]
        except KeyError:
            raise ValueError(f"unknown reflection generator {gen!r} (use 'r0' or 'r1')") from None
        mu = reflect(beta, mu)
    return mu - RHO


def weight_as_root(w: Weight) -> RootVector:
    """Inverse of Weight.from_root; raises if w is not an integral root vector."""
    two_a, n1, n2 = w.h, w.d1, w.d2
    if w.c1 != 0 or w.c2 != 0:
        raise ValueError(f"weight has central components, not a root vector: {w!r}")
    if two_a.denominator != 1 or two_a.numerator % 2 != 0:
        raise ValueError(f"alpha coefficient not an integer: {w!r}")
    if n1.denominator != 1 or n2.denominator != 1:
        raise ValueError(f"delta coefficients not integers: {w!r}")
    return RootVector(two_a.numerator // 2, n1.numerator, n2.numerator)


def roots_in_box(box: int) -> Iterable[RootVector]:
    """All roots with |n1|, |n2| <= box, in a fixed deterministic order."""
    for a in (-1, 0, 1):
        for n1 in range(-box, box + 1):
            for n2 in range(-box, box + 1):
                r = RootVector(a, n1, n2)
                if classify(r) != NOT_ROOT:
                    yield r
