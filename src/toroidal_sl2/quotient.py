"""The level-0 quotient by the two canonical singular vectors.

For a dominant integral highest weight (n1 and n0 = k1 - n1 nonnegative
integers), the vectors f(0,0)^(n1+1) v and e(-1,0)^(n0+1) v are singular
and generate the maximal proper submodule met at delta2-level 0.  This
module computes weight multiplicities of the quotient and checks them
against an independent character oracle for the irreducible quotient, and
runs two finite symbolic demonstrations at level -1: the failure of local
nilpotency for e(0,-1), and an infinite family of independent vectors.

Level-0 sufficiency of the submodule span: a vector u * s with s one of
the generating singular vectors lands at delta2-level 0 only if every
factor of u has delta2-degree 0, because all negative roots have
delta2-degree <= 0 and a strictly negative contribution can never be
cancelled.  So spanning with horizontal affine monomials is exact, not a
truncation.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import linalg
from .algebra import e, f, h
# bench/tracer.py wraps quotient.dot_action by name, so the import stays
from .roots import dot_action  # noqa: F401
from .singular import RAISING, _RAISING_DROP, _raising_matrix, dot_orbit_drops
from .verma import (HighestWeight, ModuleVector, PBWMonomial, dim_oracle,
                    format_monomial, module_for)


class QuotientSpace(namedtuple("QuotientSpace", "eta ambient_dim submodule_dim quotient_dim")):
    """Dimensions at one weight: ambient, submodule part, and quotient."""

    __slots__ = ()

    def __new__(cls, eta: tuple[int, int], ambient_dim: int, submodule_dim: int,
                quotient_dim: int) -> "QuotientSpace":
        if not quotient_dim == ambient_dim - submodule_dim >= 0:
            raise AssertionError(
                f"quotient dimension {quotient_dim} at eta {eta} is not "
                f"ambient {ambient_dim} - submodule {submodule_dim} >= 0")
        return tuple.__new__(cls, (eta, ambient_dim, submodule_dim, quotient_dim))


def _require_dominant(hw: HighestWeight) -> tuple[int, int]:
    if not hw.is_dominant_integral():
        raise ValueError("quotient computations require n1 and n0 = k1 - n1 "
                         f"to be nonnegative integers (n1={hw.n1}, n0={hw.n0})")
    return int(hw.n1), int(hw.n0)


def _generator_words(hw: HighestWeight) -> list[tuple[tuple[int, int], PBWMonomial]]:
    """The words of the two singular generators with their weight drops (a0, a1)."""
    n1, n0 = _require_dominant(hw)
    return [((0, n1 + 1), ((f(0, 0), n1 + 1),)),
            ((n0 + 1, 0), ((e(-1, 0), n0 + 1),))]


def _coords_in_basis(vec: ModuleVector, index: dict[PBWMonomial, int]) -> list[Fraction]:
    row = [0] * len(index)
    for m, c in vec.items():
        row[index[m]] = c
    return row


def _submodule_rows(hw: HighestWeight, eta: tuple[int, int]) -> tuple[list[list[Fraction]], list[PBWMonomial]]:
    """Spanning rows of the submodule inside the lam - eta weight space.

    A row is the memoized word u*s applied to v; a scan by height has built
    u*s with the leading exponent of u lowered by one, so a row is one action.
    """
    engine = module_for(hw)
    basis = engine.weight_space_basis(eta)
    index = {m: i for i, m in enumerate(basis)}
    rows: list[list[Fraction]] = []
    for (g0, g1), gen_word in _generator_words(hw):
        r0, r1 = eta[0] - g0, eta[1] - g1
        if r0 < 0 or r1 < 0:
            continue
        for u in engine.weight_space_basis((r0, r1)):
            image = engine.apply_word(u + gen_word)
            if not image.is_zero():
                rows.append(_coords_in_basis(image, index))
    return rows, basis


def submodule_dim_at(hw: HighestWeight, eta: tuple[int, int]) -> int:
    """Dimension of the submodule's slice of the lam - eta weight space."""
    rows, _ = _submodule_rows(hw, eta)
    return linalg.rank(rows)


def w_multiplicity(hw: HighestWeight, eta: tuple[int, int]) -> QuotientSpace:
    ambient = dim_oracle(eta)
    sub = submodule_dim_at(hw, eta)
    return QuotientSpace(eta, ambient, sub, ambient - sub)


@lru_cache(maxsize=64)  # a scan walks each Weyl chain once per height
def _orbit_drops(hw: HighestWeight, height: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    return tuple(dot_orbit_drops(hw, height))


def lchar_oracle(hw: HighestWeight, eta: tuple[int, int]) -> int:
    """Multiplicity in the irreducible quotient, by the alternating sum
    of shifted-orbit Verma multiplicities.

    dim L_(lam - eta) = sum over Weyl words w of (-1)^len(w) *
    K(eta - (lam - w.lam)), with K the partition count of ``dim_oracle``.
    Words come from ``dot_orbit_drops`` up to the height of eta: a word
    with a higher drop contributes K = 0.
    """
    _require_dominant(hw)

    def kostant(a0: int, a1: int) -> int:
        return dim_oracle((a0, a1)) if a0 >= 0 and a1 >= 0 else 0

    total = kostant(*eta)
    for length, (d0, d1) in _orbit_drops(hw, eta[0] + eta[1]):
        total += (-1) ** length * kostant(eta[0] - d0, eta[1] - d1)
    if total < 0:
        raise AssertionError(f"character oracle is negative ({total}) at eta {eta}")
    return total


def quotient_singular_dim(hw: HighestWeight, eta: tuple[int, int]) -> int:
    """Dimension of the space of singular vectors of the quotient at lam - eta.

    A class [x] is singular iff each raising image A_g x lies in the
    submodule slice S_g of its target space, so the x form the preimage of
    S_e + S_f under x -> (A_e x, A_f x).  With A the stacked raising
    matrices and the spanning rows of S_e and S_f as extra columns, that
    preimage has dimension n + rank S_e + rank S_f - rank [A | S_e^T | S_f^T].
    It contains the slice at eta itself, which is subtracted.
    """
    engine = module_for(hw)
    basis = engine.weight_space_basis(eta)
    blocks: list[tuple[list[list[Fraction]], list[list[Fraction]]]] = []
    for g in RAISING:
        d0, d1 = _RAISING_DROP[g]
        t = (eta[0] - d0, eta[1] - d1)
        s_g = _submodule_rows(hw, t)[0] if t[0] >= 0 and t[1] >= 0 else []
        blocks.append((_raising_matrix(engine, g, basis, eta), s_g))
    width = sum(len(s_g) for _, s_g in blocks)
    matrix: list[list[Fraction]] = []
    offset = len(basis)
    for a_g, s_g in blocks:
        for i, row in enumerate(a_g):
            full = row + [0] * width
            for j, s_row in enumerate(s_g):
                full[offset + j] = s_row[i]
            matrix.append(full)
        offset += len(s_g)
    dim = (len(basis) + sum(linalg.rank(s_g) for _, s_g in blocks)
           - linalg.rank(matrix) - submodule_dim_at(hw, eta))
    if dim < 0:
        raise AssertionError(f"quotient singular space at eta {eta} has dimension {dim} < 0")
    return dim


# -- symbolic demonstrations at delta2-level -1 -----------------------------


class IdentityCheck(NamedTuple):
    description: str
    lhs: str
    rhs: str
    holds: bool

    def to_json(self) -> dict:
        return {"description": self.description, "lhs": self.lhs,
                "rhs": self.rhs, "holds": self.holds}


class NonintegrabilityTranscript(NamedTuple):
    """Machine-checked evidence that e(0,-1) is not locally nilpotent."""

    n1: str
    k1: str
    checks: tuple[IdentityCheck, ...]
    conclusion: str

    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> dict:
        return {"n1": self.n1, "k1": self.k1,
                "checks": [c.to_json() for c in self.checks],
                "conclusion": self.conclusion}


def demo_nonintegrability(hw: HighestWeight, n_max: int = 6) -> NonintegrabilityTranscript:
    """Verify f(0,1) e(0,-1)^N v = -N(N-1+n1) e(0,-1)^(N-1) v for 1 <= N <= n_max.

    Were e(0,-1) nilpotent on the highest weight line, the minimal N would
    force n1 = 0 and N = 1; the two follow-up identities then produce the
    nonzero value -2*k1*v from a vector that would have to be 0.  Requires
    k1 > 0.
    """
    if hw.k1 <= 0:
        raise ValueError(f"nonintegrability demo needs k1 > 0 (got {hw.k1})")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1 (got {n_max})")
    engine = module_for(hw)
    checks: list[IdentityCheck] = []
    for n in range(1, n_max + 1):
        vec = ModuleVector.monomial(((e(0, -1), n),))
        lhs = engine.act(f(0, 1), vec)
        coeff = -n * (n - 1 + hw.n1)
        rhs = (ModuleVector.monomial(((e(0, -1), n - 1),), coeff) if n > 1
               else coeff * ModuleVector.highest_weight_vector())
        checks.append(IdentityCheck(
            f"f(0,1) e(0,-1)^{n} v = -{n}*({n}-1+n1) e(0,-1)^{n - 1} v",
            repr(lhs), repr(rhs), lhs == rhs))
    if hw.n1 == 0:
        v1 = engine.act(f(1, 0), engine.act(e(0, -1), ModuleVector.highest_weight_vector()))
        rhs1 = -1 * ModuleVector.monomial(((h(1, -1), 1),))
        checks.append(IdentityCheck(
            "f(1,0) e(0,-1) v = -h(1,-1) v", repr(v1), repr(rhs1), v1 == rhs1))
        v2 = engine.act(h(-1, 1), ModuleVector.monomial(((h(1, -1), 1),)))
        rhs2 = (-2 * hw.k1) * ModuleVector.highest_weight_vector()
        checks.append(IdentityCheck(
            "h(-1,1) h(1,-1) v = -2*k1 v (nonzero, so h(1,-1) v != 0)",
            repr(v2), repr(rhs2), v2 == rhs2 and not v2.is_zero()))
    conclusion = ("e(0,-1) is not nilpotent on the highest weight line: "
                  "its powers can only die if n1 = 0 and N = 1, and then "
                  "h(-1,1) h(1,-1) v = -2*k1 v != 0 contradicts "
                  "f(1,0) e(0,-1) v = -h(1,-1) v = 0.")
    return NonintegrabilityTranscript(str(hw.n1), str(hw.k1), tuple(checks), conclusion)


class InfiniteDimReport(NamedTuple):
    """Rank certificate for the family h(-m,-1) h(m,-1) v, m = 1..size."""

    size: int
    diagonal: tuple[str, ...]
    rank: int
    image_form: str

    def to_json(self) -> dict:
        return {"size": self.size, "diagonal": list(self.diagonal),
                "rank": self.rank, "image_form": self.image_form}


def demo_infinite_dim(hw: HighestWeight, size: int) -> InfiniteDimReport:
    """Pair the vectors h(-m,-1) h(m,-1) v against the raising family h(s,1).

    The straightened value of h(s,1) h(-m,-1) h(m,-1) v is
    delta_(s,m) * 2*s*k1 * h(m,-1) v (the coefficient lands on the
    h(m,-1) v line), so the pairing matrix is diagonal of full rank when
    k1 > 0: the family is linearly independent, and the weight space
    containing it is infinite dimensional as m is unbounded.
    """
    if hw.k1 <= 0:
        raise ValueError(f"infinite-dimensionality demo needs k1 > 0 (got {hw.k1})")
    if size < 1:
        raise ValueError(f"size must be >= 1 (got {size})")
    engine = module_for(hw)
    matrix: list[list[Fraction]] = []
    for s in range(1, size + 1):
        row = []
        for m in range(1, size + 1):
            vec = ModuleVector.monomial(((h(-m, -1), 1), (h(m, -1), 1)))
            image = engine.act(h(s, 1), vec)
            target = ((h(m, -1), 1),)
            coeff = Fraction(0)
            for mono, c in image.items():
                if mono != target:
                    raise AssertionError(f"image {format_monomial(mono)} is off "
                                         f"the h({m},-1) v line")
                coeff = c
            row.append(coeff)
        matrix.append(row)
    for s in range(size):
        for m in range(size):
            expected = Fraction(2 * (s + 1)) * hw.k1 if s == m else Fraction(0)
            if matrix[s][m] != expected:
                raise AssertionError(f"pairing [{s + 1}][{m + 1}] is {matrix[s][m]}, "
                                     f"not {expected}")
    diag = tuple(str(matrix[i][i]) for i in range(size))
    return InfiniteDimReport(size, diag, linalg.rank(matrix), "h(m,-1)*v")
