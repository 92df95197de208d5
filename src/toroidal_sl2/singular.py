"""Singular vectors of the Verma module, by exact kernel computation.

A singular vector is a weight vector killed by the whole positive half.
Two reductions make the search finite and complete:

* Every weight of the module has delta2-level <= 0, so any generator of
  positive delta2-degree maps a level-0 vector into a zero weight space.
  On level 0, invariance under the positive half therefore reduces to
  invariance under the positive half of the horizontal affine subalgebra,
  which is generated by the two raising elements e(0,0) and f(1,0).

* Every singular vector lies at delta2-level 0.  Any nonzero vector
  generates a submodule meeting the level-0 part (one can always raise the
  level with a suitable generator without killing the vector), so a vector
  below level 0 killed by the positive half would generate a submodule
  avoiding level 0, which is impossible.  The level-0 scan is therefore a
  complete enumeration of singular weights, not a restriction.

Kernels are computed by exact sparse integer elimination on the matrices
of the two raising actions restricted to one weight space, so every kernel
vector has primitive integer coefficients.

The raising matrices are straightened once, at weight zero.  As
g kills v, g * x1...xk * v is the sum over i of x1...[g, xi]...xk * v.  Of
the level-0 negative letters only two bracket into the Cartan part:

    [e(0,0), f(0,0)] = h(0,0)          lam reads n1
    [f(1,0), e(-1,0)] = -h(0,0) + c1   lam reads n0 = k1 - n1

Every other bracket is a negative letter, and straightening negative
letters never reads lam.  So R_g(lam) = R_g(0) + n * L_g with n = n1 for
e(0,0) and n0 for f(1,0), where L_g maps a monomial holding that letter
to the power a to a times the monomial with its exponent lowered by one:
the affine analogue of e f^a v = a (n1 - a + 1) f^(a-1) v in sl2.  The
columns of R_g(0) are read straight from the weight-zero engine's memo.
``raising_pencil`` keeps R_g(0) and L_g of each drop it is asked for, for
the process lifetime, as flat lists of (row, column, value) ints: about
30 bytes per nonzero entry, 0.26 MB over every drop to height 12 and
7.3 MB to height 20.  With n = p/q in lowest terms each weight then only
fills q R_g(0) + p L_g into dense rows: integers, with the kernel and row
space of R_g(lam), and R_g(lam) itself at integral weights.  Each kernel
vector is still checked with ``act`` at lam, which straightens from
scratch, so every reported singular vector confirms the identity.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import linalg
from .algebra import BasisElement, e, f
from .roots import Weight
# bench/tracer.py wraps singular.dot_action by name, so the import stays
from .roots import dot_action  # noqa: F401
from .verma import (HighestWeight, ModuleVector, PBWMonomial, format_monomial, module_for,
                    weight_free_engine)

RAISING: tuple[BasisElement, BasisElement] = (e(0, 0), f(1, 0))

# weight drop of each raising generator in simple-root coordinates
_RAISING_DROP = {e(0, 0): (0, 1), f(1, 0): (1, 0)}

# the negative letter each raising generator brackets into the Cartan part
_CARTAN_PARTNER = {e(0, 0): f(0, 0), f(1, 0): e(-1, 0)}


class SingularCertificate(NamedTuple):
    """Joint kernel of the raising actions on one weight space."""

    eta: tuple[int, int]
    weight: Weight
    basis_dim: int
    kernel: tuple[ModuleVector, ...]
    raising_checks: tuple[tuple[str, int, bool], ...]  # (generator, kernel index, killed)

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)

    def verified(self) -> bool:
        return all(ok for _, _, ok in self.raising_checks)

    def to_json(self) -> dict:
        return {
            "eta": list(self.eta),
            "weight": self.weight.to_json(),
            "weight_space_dim": self.basis_dim,
            "kernel_dim": self.kernel_dim,
            "kernel": [v.to_json() for v in self.kernel],
            "raising_checks": [
                {"generator": g, "vector": i, "annihilated": ok}
                for g, i, ok in self.raising_checks
            ],
        }


class PencilPart(NamedTuple):
    """R_g(0) and L_g of one raising generator g from a set of columns of
    the eta space to the eta - drop(g) space, with ``nrows`` rows (the
    dimension of that space): each a flat list of (row, column, value)
    triples."""

    nrows: int
    fixed: list[int]
    lowering: list[int]


# drop -> its raising pencil, kept for the process lifetime as verma's bases are
_PENCILS: dict[tuple[int, int], tuple[PencilPart, PencilPart]] = {}


def _pencil_part(g: BasisElement, basis: Sequence[PBWMonomial],
                 eta: tuple[int, int]) -> PencilPart:
    """R_g(0) and L_g on the columns ``basis`` of the eta space (see the
    module docstring).  Where eta - drop(g) leaves the cone there are no
    rows, and every image must be zero."""
    free = weight_free_engine()
    partner = _CARTAN_PARTNER[g]
    d0, d1 = _RAISING_DROP[g]
    t0, t1 = eta[0] - d0, eta[1] - d1
    target = free.weight_space_basis((t0, t1)) if t0 >= 0 and t1 >= 0 else []
    index = {m: i for i, m in enumerate(target)}
    fixed: list[int] = []
    lowering: list[int] = []
    for j, m in enumerate(basis):
        image = free._act_basis(g, m)
        if not target and (image or any(b is partner for b, _ in m)):
            raise AssertionError(f"{g!r} does not kill {format_monomial(m)} at eta "
                                 f"{eta}, but its target weight space is empty")
        for m2, c in image.items():
            fixed += index[m2], j, c
        # the partner letter (held once) to the power a, lowered by one, times a
        for k, (b, a) in enumerate(m):
            if b is partner:
                lowering += index[m[:k] + (((b, a - 1),) if a > 1 else ()) + m[k + 1:]], j, a
                break
    return PencilPart(len(target), fixed, lowering)


def raising_pencil(eta: tuple[int, int]) -> tuple[PencilPart, PencilPart]:
    """R_g(0) and L_g of both raising generators on the whole eta space, in
    the order of ``RAISING``.  They do not depend on the weight, so each drop
    builds them once, for the process lifetime; the caller must not change
    them."""
    pencil = _PENCILS.get(eta)
    if pencil is None:
        basis = weight_free_engine().weight_space_basis(eta)
        pencil = _PENCILS[eta] = tuple(_pencil_part(g, basis, eta) for g in RAISING)
    return pencil


def _raising_matrices(hw: HighestWeight, pencil: Sequence[PencilPart],
                      ncols: int) -> list[list[list[int]]]:
    """q R_g(0) + p L_g for each part, n = p/q in lowest terms, with n = n1
    for e(0,0) and n0 for f(1,0): dense integer rows with the kernel and row
    space of act(g, .) at lam, equal to it at integral weights."""
    out = []
    for (nrows, fixed, lowering), n in zip(pencil, (hw.n1, hw.n0)):
        p, q = n.numerator, n.denominator
        rows = [[0] * ncols for _ in range(nrows)]
        it = iter(fixed)
        for i, j, c in zip(it, it, it):
            rows[i][j] = q * c
        if p:
            it = iter(lowering)
            for i, j, a in zip(it, it, it):
                rows[i][j] += p * a
        out.append(rows)
    return out


def find_singular(hw: HighestWeight, eta: tuple[int, int]) -> SingularCertificate:
    """All singular vectors of weight lam - eta, eta in the level-0 cone;
    AssertionError if one is not killed by both raising operators."""
    engine = module_for(hw)
    basis = engine.weight_space_basis(eta)
    stacked = [row for matrix in _raising_matrices(hw, raising_pencil(eta), len(basis))
               for row in matrix]
    kernel = [ModuleVector({basis[j]: c for j, c in x.items()})
              for x in linalg.nullspace(stacked, len(basis))]
    checks = []
    for i, vec in enumerate(kernel):
        for g in RAISING:
            checks.append((repr(g), i, engine.act(g, vec).is_zero()))
    a0, a1 = eta  # lam - a0 alpha0 - a1 alpha1, field by field
    weight = Weight(hw.n1 - 2 * (a1 - a0), hw.k1, Fraction(0), hw.d1 - a0, hw.d2)
    cert = SingularCertificate(eta, weight, len(basis), tuple(kernel), tuple(checks))
    if not cert.verified():
        raise AssertionError(f"a kernel vector at eta {eta} is not "
                             "annihilated by the raising operators")
    return cert


def scan_drops(low: int, depth: int) -> list[tuple[int, int]]:
    """Drops (a0, a1) with low <= a0 + a1 <= depth, by height, then by a0."""
    return [(a0, total - a0) for total in range(low, depth + 1) for a0 in range(total + 1)]


def _map_etas(job: Callable, hw: HighestWeight, etas: list[tuple[int, int]],
              jobs: int) -> list:
    """[job(hw, eta) for eta in etas], on at most ``jobs`` processes.

    The pool never has more workers than the processors this process may
    run on (its CPU affinity, where the platform reports one); with one
    worker the jobs run in this process.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, cpus)
    if workers == 1:
        return [job(hw, eta) for eta in etas]
    from concurrent.futures import ProcessPoolExecutor  # --jobs 1 never pays for it
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, [hw] * len(etas), etas))


def scan_weights(hw: HighestWeight, depth: int, jobs: int = 1) -> dict[tuple[int, int], int]:
    """Nonzero kernel dimensions for every eta with 1 <= a0 + a1 <= depth,
    on at most ``jobs`` processes."""
    etas = scan_drops(1, depth)
    certs = _map_etas(find_singular, hw, etas, jobs)
    return {eta: cert.kernel_dim for eta, cert in zip(etas, certs) if cert.kernel_dim}


def _require_dominant(hw: HighestWeight) -> tuple[int, int]:
    """(n1, n0) as ints; ValueError unless both are nonnegative integers."""
    if not hw.is_dominant_integral():
        raise ValueError("the dot orbit and the quotient require n1 and n0 = k1 - n1 "
                         f"to be nonnegative integers (n1={hw.n1}, n0={hw.n0})")
    return hw.n1.numerator, hw.k1.numerator - hw.n1.numerator


def dot_orbit_drops(hw: HighestWeight, height: int) -> list[tuple[int, tuple[int, int]]]:
    """(word length, drop lam - w.lam) for Weyl words w with drop height <= height.

    The affine Weyl group is infinite dihedral on the two simple
    reflections; its nontrivial elements are the alternating words starting
    with r0 (listed first) or r1.  Each chain walks the drop (a0, a1) of
    mu = lam - a0 alpha0 - a1 alpha1 in simple-root coordinates: one more
    reflection r_i on the left subtracts mu(alpha_i^vee) + 1 times alpha_i,
    so a_i grows by n_i + 2(a_j - a_i) + 1, j the other node and n0 = k1 - n1.
    For dominant integral lam every step is positive, so the heights grow
    strictly and each chain stops at its first overflow.
    """
    n1, n0 = _require_dominant(hw)
    n = (n0, n1)  # lam(alpha_i^vee) by node i
    out: list[tuple[int, tuple[int, int]]] = []
    for i in (0, 1):
        drop, length = [0, 0], 0
        while True:
            step = n[i] + 2 * (drop[1 - i] - drop[i]) + 1
            if step <= 0:
                raise AssertionError(f"a dot-orbit step at drop {tuple(drop)} does not "
                                     "raise the height")
            drop[i] += step
            length += 1
            if drop[0] + drop[1] > height:
                break
            out.append((length, (drop[0], drop[1])))
            i = 1 - i
    return out


def dot_orbit_etas(hw: HighestWeight, depth: int) -> list[tuple[int, int]]:
    """Drops lam - w.lam within the depth, over the affine Weyl group."""
    return sorted({drop for _, drop in dot_orbit_drops(hw, depth)})


class OrbitScanReport(NamedTuple):
    """Scan of singular weights versus the shifted Weyl orbit prediction.

    The orbit fields are None when lam is not dominant integral.
    """

    depth: int
    singular: tuple[tuple[tuple[int, int], int], ...]  # (eta, kernel dim)
    orbit: Optional[tuple[tuple[int, int], ...]]
    orbit_covered: Optional[bool]  # every orbit point carries a singular vector
    extras: Optional[tuple[tuple[int, int], ...]]  # singular weights off the orbit

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "singular": [{"eta": list(eta), "kernel_dim": d} for eta, d in self.singular],
            "orbit": _etas_json(self.orbit),
            "orbit_covered": self.orbit_covered,
            "extras": _etas_json(self.extras),
        }


def _etas_json(etas: Optional[tuple[tuple[int, int], ...]]) -> Optional[list[list[int]]]:
    return None if etas is None else [list(eta) for eta in etas]


def orbit_report(hw: HighestWeight, depth: int,
                 found: dict[tuple[int, int], int]) -> OrbitScanReport:
    """Compare the nonzero kernel dimensions ``found`` by a scan to the
    given depth with {w.lam}, when lam is dominant integral."""
    singular = tuple(sorted(found.items()))
    if not hw.is_dominant_integral():
        return OrbitScanReport(depth, singular, None, None, None)
    orbit = dot_orbit_etas(hw, depth)
    extras = tuple(sorted(set(found) - set(orbit)))
    covered = all(eta in found for eta in orbit)
    return OrbitScanReport(depth, singular, tuple(orbit), covered, extras)
