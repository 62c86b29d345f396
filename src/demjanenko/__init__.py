"""Exact arithmetic around the singularity of Demjanenko matrices."""

from .arith import (
    OrderProfile,
    PrimeContext,
    factorize,
    make_context,
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
    build_matrix,
    dump_matrix,
    exact_rank,
    half_plane_set,
    hodge_rank,
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
    k_set,
    m_value,
)
from .verify import k_set_oracle, verify_bsum_identities, verify_character_identities

__version__ = "0.1.0"

__all__ = [
    "OrderProfile", "PrimeContext", "factorize", "make_context", "mult_order",
    "IntPolynomial", "ResultantRecord", "compose_neg_quadratic",
    "cyclotomic_poly", "l_set", "resultant",
    "DemjanenkoMatrix", "build_matrix", "dump_matrix", "exact_rank",
    "half_plane_set", "hodge_rank", "rank_formula_value", "stabilizer",
    "LbmRow", "LsRecord", "SearchConfig", "census", "corollary712_search",
    "density_census", "find_ls", "lbm_scan",
    "CriterionEvidence", "KSetReport", "MStat", "criterion", "k_set",
    "k_set_oracle", "m_value",
    "verify_bsum_identities", "verify_character_identities",
    "__version__",
]
