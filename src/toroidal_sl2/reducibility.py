"""Reducibility of the Verma module via resonances on the horizontal
affine subalgebra.

The module for highest weight lam is reducible exactly when some positive
root beta of the horizontal affine subalgebra and some positive integer l
satisfy (lam + rho)(beta_check) = l.  With n1 = lam(alpha_check) and
k1 = lam(c1), the two real-root families give

    beta = alpha + k*delta1  (k >= 0):   l = (n1 + 1) + k*(k1 + 2)
    beta = -alpha + k*delta1 (k >= 1):   l = -(n1 + 1) + k*(k1 + 2)

Imaginary roots beta = k*delta1 resonate only at the critical level
k1 = -2 (their pairing degenerates to k*(k1 + 2) = 0 for every l there and
to nothing otherwise), which the standing assumption k1 >= 0 excludes, so
they never contribute here.

Finite decision bound.  Both families are strictly increasing arithmetic
progressions in k with step s = k1 + 2 >= 2.  A term can be a positive
integer only once the progression has reached 1, which happens no later
than k = ceil((|n1| + 2)/s); and whether a term is an integer depends on k
only through k mod den(s), a period dividing q = lcm(den(n1), den(k1)).
Hence scanning k = 0 .. kmax with

    kmax = max(1, ceil((|n1| + 2)/s) + q)

covers a full integrality period past the positivity threshold for both
families, and finding nothing there proves there is nothing at all.

The scan visits only the integral terms.  With s = p/q and
c = a*(n1 + 1) = u/w in lowest terms, c + k*s is an integer exactly when
w divides q and k*p = -u*(q/w) mod q, a single residue class of k mod q
(p is invertible mod q); when w does not divide q no term is integral.
So the work grows with the number of witnesses, not with kmax.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, lcm
from typing import NamedTuple, Optional

from .roots import RootVector, Weight
from .verma import HighestWeight


class ResonancePair(NamedTuple):
    """A witness (beta, l) with (lam + rho)(beta_check) = l, l a positive integer."""

    beta: RootVector
    l: int
    quotient_weight: Weight

    def to_json(self) -> dict:
        return {
            "beta": self.beta.to_json(),
            "l": self.l,
            "quotient_weight": self.quotient_weight.to_json(),
        }


class ReducibilityReport(NamedTuple):
    verdict: Optional[bool]  # None: a scan below the decision bound found no witness
    witnesses: tuple[ResonancePair, ...]
    scan_bound: int

    def to_json(self) -> dict:
        return {
            "reducible": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
            "scan_bound": self.scan_bound,
        }


def _integral_residue(c: Fraction, s: Fraction) -> Optional[int]:
    """The r in [0, den(s)) with c + k*s integral iff k = r mod den(s), or None."""
    q, w = s.denominator, c.denominator
    if q % w:
        return None
    return -c.numerator * (q // w) * pow(s.numerator, -1, q) % q


def kk_pairs(hw: HighestWeight, kmax: int) -> list[ResonancePair]:
    """All resonance pairs with |delta1-degree of beta| <= kmax.

    Evaluates l = a*(n1 + 1) + k*(k1 + 2) for beta = alpha + k*delta1
    (a = 1, 0 <= k <= kmax) and beta = -alpha + k*delta1 (a = -1,
    1 <= k <= kmax); imaginary roots cannot resonate away from the critical
    level, see the module docstring.  Only the k whose term is integral
    are visited.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    lam = hw.weight()
    s = hw.k1 + 2
    out: list[ResonancePair] = []
    for a, kmin in ((1, 0), (-1, 1)):
        c = a * (hw.n1 + 1)
        r = _integral_residue(c, s)
        if r is None:
            continue
        for k in range(kmin + (r - kmin) % s.denominator, kmax + 1, s.denominator):
            l = c + k * s
            if l >= 1:
                l = int(l)  # lam - l*beta, field by field
                out.append(ResonancePair(RootVector(a, k, 0), l, Weight(
                    lam.h - 2 * a * l, lam.c1, lam.c2, lam.d1 - k * l, lam.d2)))
    # order by height of l*beta in simple-root coordinates, then by family
    out.sort(key=lambda p: (p.l * (2 * p.beta.n1 + p.beta.a), p.beta.n1, -p.beta.a))
    return out


def sufficient_kmax(hw: HighestWeight) -> int:
    """The finite bound that makes the resonance scan a decision procedure."""
    s = hw.k1 + 2
    if s < 2:
        raise AssertionError(f"resonance step k1 + 2 = {s} is below 2")
    q = lcm(hw.n1.denominator, hw.k1.denominator)
    if q % s.denominator:
        raise AssertionError(f"integrality period {s.denominator} does not divide padding {q}")
    return max(1, ceil((abs(hw.n1) + 2) / s) + q)


def is_reducible(hw: HighestWeight) -> ReducibilityReport:
    """Exact reducibility decision; the report records the bound used."""
    bound = sufficient_kmax(hw)
    witnesses = tuple(kk_pairs(hw, bound))
    return ReducibilityReport(bool(witnesses), witnesses, bound)
