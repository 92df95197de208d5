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

The submodule M_f generated by f(0,0)^(n1+1) v is not eliminated: f(0,0)
is the last PBW letter, so u * f(0,0)^(n1+1) v is the monomial u with its
f(0,0) exponent raised by n1 + 1.  The monomials of f(0,0) exponent above
n1 span M_f and the others are a basis of M(lam)/M_f, in which the words
u * e(-1,0)^(n0+1) v are straightened, memoized per (n1, n0) by the prefix
u; each action of f(0,0) drops the terms in M_f, as no other letter moves a
term into it.  The submodule's dimension at lam - eta is the count of the
former monomials plus the rank of those rows.  The words and the raising
matrices read only n1 and n0 of lam, so neither builds an engine at lam.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .algebra import e, f, h
# bench/tracer.py wraps quotient.dot_action by name, so the import stays
from .roots import dot_action  # noqa: F401
from .singular import (RAISING, _RAISING_DROP, _pencil_part, _raising_matrices,
                       _require_dominant, dot_orbit_drops)
from .verma import (HighestWeight, ModuleVector, PBWMonomial, dim_oracle, format_monomial,
                    module_for, weight_free_engine)


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


def _in_m_f(m: PBWMonomial, n1: int) -> bool:
    """Whether m v lies in M_f: its f(0,0) exponent is above n1."""
    return bool(m) and m[-1][0] == _F00 and m[-1][1] > n1


_F00 = f(0, 0)
# (n1, n0) -> {u: u * e(-1,0)^(n0+1) v in M(lam)/M_f}, kept for the process lifetime
_WORDS: dict[tuple[int, int], dict[PBWMonomial, ModuleVector]] = {}


def _word_mod_f(memo: dict, n1: int, u: PBWMonomial) -> ModuleVector:
    """u * e(-1,0)^(n0+1) v in M(lam)/M_f: the leading letter of u acts on the
    image of u one letter shorter, memoized (a cold prefix's suffixes first, in
    a loop), so prefixes sharing a tail are straightened once.  Only f(0,0)
    drops terms in M_f: it is the last letter, so no other letter moves past
    it, and two level-0 negative letters bracket to degree -(a+b) < 0, never
    to f(0,0); so no other letter changes a term's f(0,0) exponent."""
    cold, hit = [], memo.get(u)
    while hit is None:
        cold.append(u)
        (lead, a) = u[0]
        u = ((lead, a - 1),) + u[1:] if a > 1 else u[1:]
        hit = memo.get(u)
    for u in reversed(cold):
        hit = weight_free_engine().act(u[0][0], hit)
        if u[0][0] == _F00:
            hit = ModuleVector._wrap({m: c for m, c in hit.items() if not _in_m_f(m, n1)})
        memo[u] = hit
    return hit


def _submodule_rows(hw: HighestWeight, eta: tuple[int, int]) -> tuple[list[list[int]], list[int]]:
    """Rows u * e(-1,0)^(n0+1) v at lam - eta in the basis of M(lam)/M_f, and
    the positions of that basis (f(0,0) exponent <= n1) in the weight space's.

    A row is one action: a scan by height has built the word of u, in the memo
    of (n1, n0) seeded with e(-1,0)^(n0+1) v, with its lead exponent lowered.
    """
    n1, n0 = _require_dominant(hw)
    free = weight_free_engine()
    basis = free.weight_space_basis(eta)
    kept = [j for j, m in enumerate(basis) if not _in_m_f(m, n1)]
    index = {basis[j]: i for i, j in enumerate(kept)}
    rows: list[list[int]] = []
    if eta[0] > n0:
        memo = _WORDS.setdefault((n1, n0), {(): ModuleVector.monomial(((e(-1, 0), n0 + 1),))})
        for u in free.weight_space_basis((eta[0] - n0 - 1, eta[1])):
            row = [0] * len(kept)
            for m, c in _word_mod_f(memo, n1, u).items():
                row[index[m]] = c
            rows.append(row)
    return rows, kept


def submodule_dim_at(hw: HighestWeight, eta: tuple[int, int]) -> int:
    """Dimension of the submodule's slice of the lam - eta weight space."""
    rows, kept = _submodule_rows(hw, eta)
    return len(weight_free_engine().weight_space_basis(eta)) - len(kept) + linalg.rank(rows)


def w_multiplicity(hw: HighestWeight, eta: tuple[int, int]) -> QuotientSpace:
    ambient = dim_oracle(eta)
    sub = submodule_dim_at(hw, eta)
    return QuotientSpace(eta, ambient, sub, ambient - sub)


def lchar_oracle(hw: HighestWeight, eta: tuple[int, int]) -> int:
    """Multiplicity in the irreducible quotient, by the alternating sum
    of shifted-orbit Verma multiplicities.

    dim L_(lam - eta) = sum over Weyl words w of (-1)^len(w) *
    K(eta - (lam - w.lam)), with K the partition count of ``dim_oracle``.
    Words come from ``dot_orbit_drops`` up to the height of eta (a word
    with a higher drop contributes K = 0), which raises ValueError unless
    lam is dominant integral.
    """

    def kostant(a0: int, a1: int) -> int:
        return dim_oracle((a0, a1)) if a0 >= 0 and a1 >= 0 else 0

    total = kostant(*eta)
    for length, (d0, d1) in dot_orbit_drops(hw, eta[0] + eta[1]):
        total += (-1) ** length * kostant(eta[0] - d0, eta[1] - d1)
    if total < 0:
        raise AssertionError(f"character oracle is negative ({total}) at eta {eta}")
    return total


def quotient_singular_dim(hw: HighestWeight, eta: tuple[int, int]) -> int:
    """Dimension of the space of singular vectors of the quotient at lam - eta.

    It works in M(lam)/M_f: the raising matrices A_g restricted to the
    monomials of f(0,0) exponent <= n1 (rows and columns), and the e rows
    alone span the submodule.  A class [x] is singular iff each A_g x lies in
    the submodule slice S_g of its target space, so the x form the preimage
    of S_e + S_f under x -> (A_e x, A_f x).  Bordered by the spanning rows of
    S_e and S_f, the matrix has one row block per raising generator,
    [A_e | S_e^T | 0] and [A_f | 0 | S_f^T], and the preimage has dimension
    n + rank S_e + rank S_f minus its rank, n the dimension of M(lam)/M_f at
    eta.  It contains the slice at eta itself, which is subtracted.

    Only the columns of M(lam)/M_f are straightened, also where a target
    space is empty and ``_pencil_part`` checks that g kills them.  That
    check then skips only the monomials f(0,0)^a v with a > n1 at eta =
    (0, a), which f(1,0) kills as [f(1,0), f(0,0)] = 0.
    """
    basis = weight_free_engine().weight_space_basis(eta)
    s_eta, cols = _submodule_rows(hw, eta)
    columns = [basis[j] for j in cols]
    pencil = [_pencil_part(g, columns, eta) for g in RAISING]
    blocks = []
    for g, a_g in zip(RAISING, _raising_matrices(hw, pencil, len(cols))):
        d0, d1 = _RAISING_DROP[g]
        s_g, kept = _submodule_rows(hw, (eta[0] - d0, eta[1] - d1)) if a_g else ([], [])
        blocks.append(([a_g[i] for i in kept], s_g))
    (a_e, s_e), (a_f, s_f) = blocks
    matrix = ([row + [s[i] for s in s_e] + [0] * len(s_f) for i, row in enumerate(a_e)]
              + [row + [0] * len(s_e) + [s[i] for s in s_f] for i, row in enumerate(a_f)])
    dim = (len(cols) + linalg.rank(s_e) + linalg.rank(s_f)
           - linalg.rank(matrix) - linalg.rank(s_eta))
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

    Each entry is checked as it is computed: h(s,1) h(-m,-1) h(m,-1) v
    straightens to delta_(s,m) * 2*s*k1 * h(m,-1) v, on the h(m,-1) v line.
    So the pairing matrix is diagonal of full rank when k1 > 0: the family
    is linearly independent, and the weight space containing it is
    infinite dimensional as m is unbounded.
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
            for mono in image.terms:
                if mono != target:
                    raise AssertionError(f"image {format_monomial(mono)} is off "
                                         f"the h({m},-1) v line")
            coeff = image.terms.get(target, Fraction(0))
            expected = Fraction(2 * s) * hw.k1 if s == m else Fraction(0)
            if coeff != expected:
                raise AssertionError(f"pairing [{s}][{m}] is {coeff}, not {expected}")
            row.append(coeff)
        matrix.append(row)
    diag = tuple(str(matrix[i][i]) for i in range(size))
    # each entry is a multiple of k1, so k1's denominator clears the matrix
    ints = [[int(c * hw.k1.denominator) for c in row] for row in matrix]
    return InfiniteDimReport(size, diag, linalg.rank(ints), "h(m,-1)*v")
