"""Exact decision procedures for tensor products of polyhedral cones.

The package decides membership in the extendibility hierarchy between two
proper polyhedral cones, recognizes bases that are products of simplices,
decides whether the associated reduction map is entanglement breaking, and
verifies a quantum-channel counterexample in exact Q(sqrt2) arithmetic.
All computation is exact; every verdict carries a certificate that is
re-verified before it is returned.
"""

import importlib

# public name -> home module, grouped by module; a name is imported from its
# module on first access (PEP 562), so ``import coneext`` loads no submodule
_HOMES = {
    "scalars": ("QuadScalar", "SQRT2", "parse_rational", "format_rational"),
    "cones": ("Cone", "BasedCone", "ConeError", "make_cone", "make_based", "dualize",
              "is_simplicial", "interior_point"),
    "polytopes": ("Polytope", "SimplexFactorization", "FactorFailure",
                  "polytope_from_vertices", "base_polytope", "affine_hull_commutes",
                  "factor_as_simplices", "is_simple", "is_two_level"),
    "lp": ("LpProblem", "LpOutcome", "ConicOutcome", "solve", "conic_membership",
           "verify_point", "verify_farkas"),
    "hierarchy": ("ExtkVerdict", "EbOutcome", "HierarchyResult",
                  "reduction_map", "apply_reduction", "ext_k_membership",
                  "is_entanglement_breaking", "omega_interior_test", "dual_hierarchy_k",
                  "min_tensor_generators", "point_tensor"),
    "quantum": ("build_X", "psd_check_exact", "partial_transpose", "reduce_b_factors",
                "sym_identity_extension", "trace_product", "verify_appendix"),
    "formats": ("ParseError", "parse_cone_file", "parse_polytope_file", "parse_point_file",
                "serialize_cone_file", "serialize_polytope_file", "serialize_point_file"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
