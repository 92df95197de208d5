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

Kernels are computed by exact fraction-free elimination on the matrices of
the two raising actions restricted to one weight space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .algebra import BasisElement, basis_sort_key, e, f
from .roots import RootVector, Weight, dot_action, root_from_q1, q1_coords
from .verma import (HighestWeight, ModuleVector, PBWMonomial, SortKey,
                    VermaModule, module_for)

RAISING: tuple[BasisElement, BasisElement] = (e(0, 0), f(1, 0))

# weight drop of each raising generator in simple-root coordinates
_RAISING_DROP = {e(0, 0): (0, 1), f(1, 0): (1, 0)}


def raising_generators() -> tuple[BasisElement, BasisElement]:
    """The level-0 raising elements generating the positive half there."""
    return RAISING


@dataclass(frozen=True)
class SingularCertificate:
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


def _raising_matrix(engine: VermaModule, g: BasisElement,
                    basis: Sequence[PBWMonomial],
                    eta: tuple[int, int]) -> list[list[Fraction]]:
    """Matrix of act(g, .) from the eta space to the eta - drop(g) space."""
    d0, d1 = _RAISING_DROP[g]
    t0, t1 = eta[0] - d0, eta[1] - d1
    if t0 < 0 or t1 < 0:
        for m in basis:
            assert engine.act(g, ModuleVector.monomial(m)).is_zero()
        return []
    target = engine.weight_space_basis((t0, t1))
    index = {m: i for i, m in enumerate(target)}
    rows = [[Fraction(0)] * len(basis) for _ in target]
    for j, m in enumerate(basis):
        image = engine.act(g, ModuleVector.monomial(m))
        for m2, c in image.items():
            rows[index[m2]][j] = c
    return rows


def find_singular(hw: HighestWeight, eta: Union[RootVector, tuple[int, int]],
                  sort_key: SortKey = basis_sort_key) -> SingularCertificate:
    """All singular vectors of weight lam - eta, eta in the level-0 cone."""
    coords = eta if isinstance(eta, tuple) else q1_coords(eta)
    engine = module_for(hw, sort_key)
    basis = engine.weight_space_basis(coords)
    stacked: list[list[Fraction]] = []
    for g in RAISING:
        stacked.extend(_raising_matrix(engine, g, basis, coords))
    kernel_coords = linalg.nullspace(stacked, len(basis))
    kernel = []
    for x in kernel_coords:
        vec = ModuleVector({m: c for m, c in zip(basis, x) if c})
        kernel.append(vec)
    checks = []
    for i, vec in enumerate(kernel):
        for g in RAISING:
            checks.append((repr(g), i, engine.act(g, vec).is_zero()))
    weight = hw.weight() - Weight.from_root(root_from_q1(*coords))
    return SingularCertificate(coords, weight, len(basis), tuple(kernel), tuple(checks))


def scan_weights(hw: HighestWeight, depth: int,
                 sort_key: SortKey = basis_sort_key) -> dict[tuple[int, int], int]:
    """Kernel dimensions for every eta with 1 <= a0 + a1 <= depth."""
    out: dict[tuple[int, int], int] = {}
    for total in range(1, depth + 1):
        for a0 in range(total + 1):
            cert = find_singular(hw, (a0, total - a0), sort_key)
            if cert.kernel_dim:
                out[(a0, total - a0)] = cert.kernel_dim
    return out


def dot_orbit_drops(hw: HighestWeight, height: int) -> list[tuple[int, tuple[int, int]]]:
    """(word length, drop lam - w.lam) for Weyl words w with drop height <= height.

    The affine Weyl group is infinite dihedral on the two simple
    reflections; its nontrivial elements are the alternating words starting
    with r0 or r1.  For dominant integral lam the drop heights grow strictly
    with word length, so each chain stops at its first overflow.
    """
    if not hw.is_dominant_integral():
        raise ValueError("dot-orbit comparison requires a dominant integral weight")
    lam = hw.weight()
    out: list[tuple[int, tuple[int, int]]] = []
    for first in ("r0", "r1"):
        word: list[str] = []
        while True:
            word.insert(0, "r1" if (len(word) % 2 == 0) == (first == "r1") else "r0")
            coords = _drop_coords(lam - dot_action(word, lam))
            if coords[0] + coords[1] > height:
                break
            out.append((len(word), coords))
            if len(word) > 4 * height + 4:
                raise AssertionError("dot-orbit enumeration failed to terminate")
    return out


def dot_orbit_etas(hw: HighestWeight, depth: int) -> list[tuple[int, int]]:
    """Drops lam - w.lam within the depth, over the affine Weyl group."""
    return sorted({drop for _, drop in dot_orbit_drops(hw, depth)})


def _drop_coords(drop: Weight) -> tuple[int, int]:
    a0 = drop.d1
    a1 = drop.h / 2 + a0
    if drop.c1 or drop.c2 or drop.d2 or a0.denominator != 1 or a1.denominator != 1:
        raise AssertionError(f"dot-orbit drop {drop.to_json()} is not an integral "
                             "combination of alpha0 and alpha1")
    return int(a0), int(a1)


@dataclass(frozen=True)
class OrbitScanReport:
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


def scan_vs_dot_orbit(hw: HighestWeight, depth: int,
                      sort_key: SortKey = basis_sort_key) -> OrbitScanReport:
    """Scan singular weights to the depth and compare them with {w.lam}."""
    return orbit_report(hw, depth, scan_weights(hw, depth, sort_key))
