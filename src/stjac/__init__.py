"""Exact Jacobi-sum point counts and Sato-Tate identity components for
the trinomial hyperelliptic families y^2 = x^d + c and y^2 = x^d + c*x."""

from .cyclo import CycloElt, cyclotomic_poly, is_root_of_unity
from .ffield import PrimeField, make_field
from .groupid import TorusId, identify_st0, torus_dimension, weight_classes
from .pointcount import (
    ADDITIVE,
    LINEAR,
    CurveSpec,
    contributing_ms,
    count_bruteforce,
    count_formula,
    curve,
    good_reduction,
    trace_sweep,
)
from .splitjac import (
    lockwood_check,
    lower_genus_curve,
    split_full,
    split_odd,
    split_refined,
)
from .stmatrix import (
    CarryMatrix,
    build_matrix,
    right_kernel,
    st_columns,
    validate_matrix,
    verify_relation,
)

__version__ = "0.1.0"

__all__ = [
    "ADDITIVE",
    "LINEAR",
    "CarryMatrix",
    "CurveSpec",
    "CycloElt",
    "PrimeField",
    "TorusId",
    "build_matrix",
    "contributing_ms",
    "count_bruteforce",
    "count_formula",
    "curve",
    "cyclotomic_poly",
    "good_reduction",
    "identify_st0",
    "is_root_of_unity",
    "lockwood_check",
    "lower_genus_curve",
    "make_field",
    "right_kernel",
    "split_full",
    "split_odd",
    "split_refined",
    "st_columns",
    "torus_dimension",
    "trace_sweep",
    "validate_matrix",
    "verify_relation",
    "weight_classes",
]
