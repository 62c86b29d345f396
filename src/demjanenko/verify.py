"""Cross-checking suites: every fast path against an independent route.

Each suite returns a list of failure descriptions; an empty list means
the property held everywhere in range.
"""

from __future__ import annotations

from .arith import PrimeContext, make_context
from .errors import NonIntegerRank
from .matrix import build_matrix, exact_rank, rank_formula_value
from .search import SearchConfig, census, odd_primes, ordered_map
from .singular import k_set, m_value, verify_bsum_identities, verify_character_identities


def _per_prime(check, max_ell: int, workers: int) -> list[str]:
    """The failures `check(ell)` reports over the odd primes up to
    max_ell, on a pool of `workers` processes when there is more than one."""
    if workers < 1:
        raise ValueError("workers must be positive")
    with ordered_map(check, odd_primes(max_ell).tolist(), workers) as chunks:
        return [msg for chunk in chunks for msg in chunk]


def k_set_oracle(ctx: PrimeContext) -> list[int]:
    """Independent route: k is in the set iff the matrix rank is deficient.

    Singularity comes from `exact_rank`'s power sums over the half-plane
    reps, which never consult the order criterion.
    """
    out = []
    for k in range(1, ctx.ell - 1):
        dm = build_matrix(ctx, k)
        if exact_rank(dm) < dm.dimension:
            out.append(k)
    return out


def _oracle_one(ell: int) -> list[str]:
    ctx = make_context(ell)
    fast = set(k_set(ctx).members)
    slow = set(k_set_oracle(ctx))
    if fast != slow:
        return [f"ell={ell}: criterion {sorted(fast)} != matrix oracle {sorted(slow)}"]
    return []


def oracle_suite(max_ell: int = 200, workers: int = 1) -> list[str]:
    """Criterion membership vs singularity of the actual matrix."""
    return _per_prime(_oracle_one, max_ell, workers)


def theorem1_suite(
    max_ell: int = 100_000, workers: int = 1, checkpoint_path: str | None = None
) -> list[str]:
    """The count bound |#K - main term| <= error bound, exact rationals."""
    cfg = SearchConfig(max_ell=max_ell, workers=workers, checkpoint_path=checkpoint_path)
    # census raises BoundViolation on a count outside the bound
    if sum(1 for _ in census(cfg)) == 0:
        return ["census produced no reports"]
    return []


def _identities_one(ell: int) -> list[str]:
    ctx = make_context(ell)
    out = verify_character_identities(ctx)
    if ctx.beta >= 1:
        rep = verify_bsum_identities(ctx)
        out += [f"{name} failed" for name, ok in rep.checks.items() if not ok]
    return [f"ell={ell}: {msg}" for msg in out]


def identities_suite(max_ell: int = 200, workers: int = 1) -> list[str]:
    """Character orthogonality, indicator expansions, and the exact
    rational identities behind the count."""
    return _per_prime(_identities_one, max_ell, workers)


def _rankformula_one(ell: int) -> list[str]:
    ctx = make_context(ell)
    out = []
    for k in k_set(ctx).members:
        dm = build_matrix(ctx, k)
        rank = exact_rank(dm)
        try:
            expected = rank_formula_value(ctx, k, m_value(ctx, k).M)
        except NonIntegerRank as exc:
            out.append(f"ell={ell} k={k}: {exc}")
            continue
        if rank != expected:
            out.append(f"ell={ell} k={k}: rank {rank} != formula {expected}")
    return out


def rankformula_suite(max_ell: int = 500, workers: int = 1) -> list[str]:
    """Exact matrix rank against the lcm-defect formula, singular k only."""
    return _per_prime(_rankformula_one, max_ell, workers)
