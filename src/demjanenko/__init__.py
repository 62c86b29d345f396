"""Exact arithmetic around the singularity of Demjanenko matrices."""

from .arith import (
    OrderProfile,
    PrimeContext,
    canonical_rep,
    factorize,
    is_prime,
    make_context,
    mod_inverse,
    mult_order,
)
from .cyclotomic import (
    IntPolynomial,
    ResultantRecord,
    compose_neg_quadratic,
    cyclotomic_poly,
    l_set,
    resultant,
)
from .matrix import (
    DemjanenkoMatrix,
    HalfPlaneSet,
    Stabilizer,
    build_matrix,
    coset_reps,
    dump_matrix,
    exact_rank,
    half_plane_set,
    rank_formula_value,
    stabilizer,
)
from .search import (
    LbmRow,
    LsRecord,
    SearchConfig,
    census,
    corollary712_search,
    density_census,
    find_ls,
    lbm_scan,
)
from .singular import (
    CriterionEvidence,
    KSetReport,
    MStat,
    criterion,
    indicator_eta,
    indicator_zeta,
    k_set,
    m_value,
    verify_bsum_identities,
    verify_character_identities,
)
from .verify import k_set_oracle

__version__ = "0.1.0"

__all__ = [
    "OrderProfile", "PrimeContext", "canonical_rep", "factorize", "is_prime",
    "make_context", "mod_inverse", "mult_order",
    "IntPolynomial", "ResultantRecord", "compose_neg_quadratic",
    "cyclotomic_poly", "l_set", "resultant",
    "DemjanenkoMatrix", "HalfPlaneSet", "Stabilizer", "build_matrix",
    "coset_reps", "dump_matrix", "exact_rank", "half_plane_set",
    "rank_formula_value", "stabilizer",
    "LbmRow", "LsRecord", "SearchConfig", "census", "corollary712_search",
    "density_census", "find_ls", "lbm_scan",
    "CriterionEvidence", "KSetReport", "MStat", "criterion", "indicator_eta",
    "indicator_zeta", "k_set", "k_set_oracle", "m_value",
    "verify_bsum_identities", "verify_character_identities",
    "__version__",
]
