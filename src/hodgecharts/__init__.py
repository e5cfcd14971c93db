"""Exact weight-filtration / monomial-chart machinery for degenerating period
maps, with a floating-point Hodge-metric engine and appendix verifiers.

The public names below load their submodule on first access (PEP 562), so
importing the package, or an exact submodule such as ``charts``, loads neither
numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "charts": (
        "BinomialRelationSet",
        "MonomialAtlas",
        "MonomialMap",
        "binomial_relations",
        "build_atlas",
        "decoupled_fiber_check",
        "fiber_tangency",
        "separation_check",
    ),
    "cones": (
        "FarkasAlternative",
        "FarkasSplit",
        "RelationData",
        "farkas_alternative",
        "farkas_split",
        "k_index_map",
        "positive_basis",
        "relation_space",
    ),
    "filtrations": (
        "NilpotentCone",
        "WeightFiltration",
        "adjoint_filtration",
        "graded_pieces",
        "induced_map",
        "polarization_form",
        "primitive_subspace",
        "rwfp_consequence_check",
        "weight_filtration",
    ),
    "linalg": (
        "RationalMatrix",
        "Subspace",
        "image",
        "kernel",
        "lattice_basis",
        "rank",
    ),
    "metrics": (
        "ExpansionFit",
        "FlagPoint",
        "OrbitSpec",
        "Twist",
        "augmented_log_det",
        "curvature_limit_check",
        "expansion_fit",
        "hodge_decomposition",
        "log_det_lambda",
        "mixed_second_derivative",
        "residue_integral",
    ),
    "ncd": (
        "DoubleCurve",
        "NCDSurface",
        "SurfacePiece",
        "TriplePoint",
        "build_weight_complexes",
        "curve_lmhs",
        "friedman_check",
        "graded_dims",
        "monodromy_graded_maps",
        "triple_point_check",
    ),
    "positivity": (
        "CurvatureTriple",
        "curvature_identity_check",
        "numerical_dimension",
        "sigma_weight1",
        "sigma_weight2",
    ),
    "siegel": (
        "ConeSpec",
        "boundedness_probe",
        "solve_maximal",
        "solve_minimal",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # Look the name up in its submodule on every access rather than caching it
    # here, so that rebinding a submodule attribute (monkeypatching, tracing)
    # is seen through the package too.
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
