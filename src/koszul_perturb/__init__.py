"""Exact-rational Koszul / homotopy-perturbation engine.

Finite constant-coefficient model of a truncated Koszul resolution over a
ring of odd form variables, with the endomorphism-complex contractions,
the curvature-twisted connection recursion, the generalized Todd class by
two routes, and the contraction endomorphism q_σ it induces.
"""

from .algebra import (
    GradedElement,
    ModelConfig,
    interior_product,
    terms_from_json,
    terms_to_json,
)
from .combinatorics import (
    Composition,
    bernoulli_recursion_check,
    compositions_of_partition,
    erased_compositions,
    lemma_frac_check,
    partitions_of,
    prefix_reciprocal_product,
    reciprocal_product,
)
from .connection import (
    ConnectionComponents,
    CurvatureInput,
    alt_power,
    build_connection,
    first_order_part,
    random_curvature,
)
from .homcomplex import (
    EndSpace,
    WedgeSpace,
    apply_end,
    d_hom,
    extend_derivation,
    i_h,
    p_gv,
    p_t,
    pi_gv,
    pi_t,
    tensorize,
)
from .koszul import CheckSpace, KoszulSpace, d_k, d_k_check, p_k, p_k_check
from .perturbation import (
    Contraction,
    Perturbation,
    make_perturbation,
    perturb,
    random_contraction,
    random_perturbation,
    transfer,
)
from .rational import format_rational, parse_rational
from .rng import SplitRng
from .sparse import LinearMap, matrix_of
from .todd import (
    ToddClass,
    bernoulli,
    perturbation_t,
    perturbed_contractions,
    q_sigma,
    q_sigma_step,
    todd_det,
    todd_exp,
    todd_series_coeff,
)
from .verify import Report, run_suite

__version__ = "0.1.0"

__all__ = [
    "GradedElement",
    "ModelConfig",
    "interior_product",
    "terms_from_json",
    "terms_to_json",
    "Composition",
    "bernoulli_recursion_check",
    "compositions_of_partition",
    "erased_compositions",
    "lemma_frac_check",
    "partitions_of",
    "prefix_reciprocal_product",
    "reciprocal_product",
    "ConnectionComponents",
    "CurvatureInput",
    "alt_power",
    "build_connection",
    "first_order_part",
    "random_curvature",
    "EndSpace",
    "WedgeSpace",
    "apply_end",
    "d_hom",
    "extend_derivation",
    "i_h",
    "p_gv",
    "p_t",
    "pi_gv",
    "pi_t",
    "tensorize",
    "CheckSpace",
    "KoszulSpace",
    "d_k",
    "d_k_check",
    "p_k",
    "p_k_check",
    "Contraction",
    "Perturbation",
    "make_perturbation",
    "perturb",
    "random_contraction",
    "random_perturbation",
    "transfer",
    "format_rational",
    "parse_rational",
    "SplitRng",
    "LinearMap",
    "matrix_of",
    "ToddClass",
    "bernoulli",
    "perturbation_t",
    "perturbed_contractions",
    "q_sigma",
    "q_sigma_step",
    "todd_det",
    "todd_exp",
    "todd_series_coeff",
    "Report",
    "run_suite",
    "__version__",
]
