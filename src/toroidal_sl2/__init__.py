"""Exact-arithmetic engine for the double affine sl2 Lie algebra.

Provides the bracket and root partition, Verma modules under the
decomposition that treats the algebra as an affinization of its
horizontal affine subalgebra, singular-vector scans, an exact
reducibility decision, and quotient character checks.
"""

__version__ = "0.1.0"

from .algebra import (AlgebraElement, BasisElement, C1, C2, D1, D2,
                      basis_sort_key, bracket, e, f, format_element, h,
                      parse_element, weight_of)
from .roots import (ALPHA, ALPHA0, ALPHA1, DELTA1, DELTA2, RHO, CartanElement,
                    RootVector, Weight, classify, coroot, dot_action,
                    form_hstar, is_positive, q1_coords, reflect, root_from_q1)
from .verma import (HighestWeight, ModuleVector, PBWMonomial, VermaModule,
                    act, dim_oracle, format_monomial, module_for,
                    parse_monomial_text, weight_space_basis)
from .singular import (SingularCertificate, find_singular, orbit_report,
                       raising_generators, scan_vs_dot_orbit, scan_weights)
from .reducibility import (ReducibilityReport, ResonancePair, is_reducible,
                           kk_pairs, maximal_submodule_generators,
                           sufficient_kmax)
from .quotient import (QuotientSpace, demo_infinite_dim, demo_nonintegrability,
                       lchar_oracle, quotient_singular_dim, submodule_dim_at,
                       w_multiplicity)

__all__ = [
    "__version__",
    "AlgebraElement", "BasisElement", "C1", "C2", "D1", "D2",
    "basis_sort_key", "bracket", "e", "f", "format_element", "h",
    "parse_element", "weight_of",
    "ALPHA", "ALPHA0", "ALPHA1", "DELTA1", "DELTA2", "RHO", "CartanElement",
    "RootVector", "Weight", "classify", "coroot", "dot_action", "form_hstar",
    "is_positive", "q1_coords", "reflect", "root_from_q1",
    "HighestWeight", "ModuleVector", "PBWMonomial", "VermaModule", "act",
    "dim_oracle", "format_monomial", "module_for", "parse_monomial_text",
    "weight_space_basis",
    "SingularCertificate", "find_singular", "orbit_report",
    "raising_generators", "scan_vs_dot_orbit", "scan_weights",
    "ReducibilityReport", "ResonancePair", "is_reducible", "kk_pairs",
    "maximal_submodule_generators", "sufficient_kmax",
    "QuotientSpace", "demo_infinite_dim", "demo_nonintegrability",
    "lchar_oracle", "quotient_singular_dim", "submodule_dim_at",
    "w_multiplicity",
]
