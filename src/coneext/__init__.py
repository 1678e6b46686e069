"""Exact decision procedures for tensor products of polyhedral cones.

The package decides membership in the extendibility hierarchy between two
proper polyhedral cones, recognizes bases that are products of simplices,
decides whether the associated reduction map is entanglement breaking, and
verifies a quantum-channel counterexample in exact Q(sqrt2) arithmetic.
All computation is exact; every verdict carries a certificate that is
re-verified before it is returned.
"""

from .scalars import Rational, QuadScalar, SQRT2, parse_rational, format_rational
from .cones import (BasedCone, Cone, ConeError, dualize, interior_point,
                    is_simplicial, make_based, make_cone)
from .polytopes import (FactorFailure, Polytope, SimplexFactorization,
                        affine_hull_commutes, base_polytope, factor_as_simplices,
                        is_simple, is_two_level, polytope_from_vertices)
from .lp import (ConicOutcome, LpOutcome, LpProblem, conic_membership, solve,
                 verify_farkas, verify_point, verify_ray)
from .hierarchy import (EbOutcome, ExtkVerdict, HierarchyResult, apply_reduction,
                        dual_hierarchy_k, ext_k_membership,
                        is_entanglement_breaking, max_tensor_halfspaces,
                        min_tensor_generators, omega_interior_test, point_tensor,
                        reduction_map, vertex_facet_tensor)
from .quantum import (AppendixReport, build_X, partial_transpose, psd_check_exact,
                      reduce_b_factors, sym_identity_extension, trace_product,
                      verify_appendix)
from .formats import (ParseError, parse_cone_file, parse_point_file,
                      parse_polytope_file, serialize_cone_file,
                      serialize_point_file, serialize_polytope_file)

__all__ = [
    "Rational", "QuadScalar", "SQRT2", "parse_rational", "format_rational",
    "Cone", "BasedCone", "ConeError", "make_cone", "make_based", "dualize",
    "is_simplicial", "interior_point",
    "Polytope", "SimplexFactorization", "FactorFailure",
    "polytope_from_vertices", "base_polytope", "affine_hull_commutes",
    "factor_as_simplices", "is_simple", "is_two_level",
    "LpProblem", "LpOutcome", "ConicOutcome", "solve", "conic_membership",
    "verify_point", "verify_farkas", "verify_ray",
    "ExtkVerdict", "EbOutcome", "HierarchyResult",
    "reduction_map", "apply_reduction", "ext_k_membership",
    "is_entanglement_breaking", "omega_interior_test", "dual_hierarchy_k",
    "min_tensor_generators", "max_tensor_halfspaces", "point_tensor",
    "vertex_facet_tensor",
    "AppendixReport", "build_X", "psd_check_exact",
    "partial_transpose", "reduce_b_factors", "sym_identity_extension",
    "trace_product", "verify_appendix",
    "ParseError", "parse_cone_file", "parse_polytope_file", "parse_point_file",
    "serialize_cone_file", "serialize_polytope_file", "serialize_point_file",
]

__version__ = "0.1.0"
