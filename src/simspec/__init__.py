"""Exact canonical forms and rank-based separating invariants for matrix
pairs whose first matrix has simple spectrum."""

from .canonical import (
    CanonicalPair,
    CanonResult,
    MatrixPair,
    canonicalize,
    find_conjugator,
    has_simple_spectrum,
    orbit_eq_brute,
    orbit_eq_canonical,
)
from .fields import QQ, FieldElement, PrimeField, field_cmp
from .matrices import (
    Mat,
    charpoly,
    conjugate,
    det,
    diagonalizer,
    eigs_in_field,
    enumerate_GL,
    inverse,
    nullspace_basis,
    order_gl,
    rank,
    sigma,
)
from .ncpoly import NcExpr, NcPoly, alt_sum, eval_word, substitute
from .idempotents import entry_probe_poly, idempotent_poly
from .separators import (
    InvariantProbe,
    SeparationReport,
    build_param_probe,
    orbit_eq_by_ranks,
    rank_indicator,
    type_separation,
    verify_counterexample_sigma_zero,
    verify_counterexample_single_image,
    zero_indicator,
)
from .staircase import (
    StaircaseCert,
    ThreeDiagSeq,
    staircase_cert,
    td_matrices,
    verify_cert,
)
from .stargraph import (
    Digraph,
    StarMatrix,
    UPath,
    disjoint_witness,
    enumerate_forests,
    forest_from_star,
    is_forest,
    matches,
    star_from_forest,
    undirected_path,
)

__version__ = "0.1.0"
