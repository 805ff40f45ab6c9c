"""Exact computation with polynomial vector fields on the projective plane."""

from .mpoly import (
    MPoly,
    exact_div,
    linear_subresultant,
    parse_poly,
    poly_gcd,
    resultant,
    squarefree_part,
)
from .foliation import Foliation, foliation_degree, make_foliation
from .singularities import (
    SingularPoint,
    bezout_total,
    classify_all,
    classify_point,
    classify_singularity,
    milnor_number,
    singular_points,
    total_milnor,
)
from .blowup import (
    BlowupUnavailableError,
    ResolutionError,
    ResolutionTree,
    blow_up,
    reduce_local_field,
    resolved_total_z,
    safe_resolution,
    seidenberg_reduce,
    strict_transform,
    total_z,
    z_index,
)
from .curves import (
    CofactorCertificate,
    PlaneCurve,
    curve_singularities,
    extactic,
    first_integral_check,
    first_integral_degree,
    genus,
    is_invariant,
)
from .bounds import (
    BoundReport,
    OracleExhausted,
    PlurigeneraOracle,
    first_integral_bound_from_height,
    first_integral_degree_bound,
    height_lower_bound,
    invariant_curve_degree_bound,
    rr_sections,
    z_bound_quasi_reduced,
)
from .families import (
    BudgetExceeded,
    CensusUndetermined,
    FamilyDescriptor,
    HypergeometricPoly,
    build_family,
    dicritical_count,
    hypergeometric_poly,
    hypergeometric_riccati,
    linear_family,
    linear_first_integral,
    lins_neto,
    power_pullback,
    riccati_invariant_curve,
)

__version__ = "0.1.0"

__all__ = [
    "MPoly", "exact_div", "linear_subresultant", "parse_poly", "poly_gcd",
    "resultant", "squarefree_part",
    "Foliation", "foliation_degree", "make_foliation",
    "SingularPoint", "bezout_total", "classify_all", "classify_point",
    "classify_singularity", "milnor_number", "singular_points", "total_milnor",
    "BlowupUnavailableError", "ResolutionError", "ResolutionTree", "blow_up",
    "reduce_local_field", "resolved_total_z", "safe_resolution",
    "seidenberg_reduce", "strict_transform", "total_z", "z_index",
    "CofactorCertificate", "PlaneCurve", "curve_singularities", "extactic",
    "first_integral_check", "first_integral_degree", "genus", "is_invariant",
    "BoundReport", "OracleExhausted", "PlurigeneraOracle",
    "first_integral_bound_from_height", "first_integral_degree_bound",
    "height_lower_bound", "invariant_curve_degree_bound", "rr_sections",
    "z_bound_quasi_reduced",
    "BudgetExceeded", "CensusUndetermined", "FamilyDescriptor",
    "HypergeometricPoly", "build_family", "dicritical_count",
    "hypergeometric_poly", "hypergeometric_riccati", "linear_family",
    "linear_first_integral", "lins_neto", "power_pullback",
    "riccati_invariant_curve",
]
