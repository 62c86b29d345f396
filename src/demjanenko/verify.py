"""Cross-checking suites: every fast path against an independent route.

Each suite returns a list of failure descriptions; an empty list means
the property held everywhere in range.
"""

from __future__ import annotations

from multiprocessing import Pool

from .arith import PrimeContext, make_context
from .errors import NonIntegerRank
from .matrix import build_matrix, exact_rank, rank_formula_value
from .search import SearchConfig, census, sieve_primes
from .singular import k_set, m_value, verify_bsum_identities, verify_character_identities


def _odd_primes(max_ell: int) -> list[int]:
    return [int(p) for p in sieve_primes(max_ell) if p >= 3]


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
    primes = _odd_primes(max_ell)
    if workers > 1:
        with Pool(workers) as pool:
            chunks = pool.map(_oracle_one, primes)
    else:
        chunks = [_oracle_one(p) for p in primes]
    return [msg for chunk in chunks for msg in chunk]


def theorem1_suite(
    max_ell: int = 100_000, workers: int = 1, checkpoint_path: str | None = None
) -> list[str]:
    """The count bound |#K - main term| <= error bound, exact rationals."""
    failures = []
    cfg = SearchConfig(max_ell=max_ell, workers=workers, checkpoint_path=checkpoint_path)
    primes_seen = 0
    for rep in census(cfg):
        primes_seen += 1
        if not rep.within_bound:  # census raises first; belt and braces
            failures.append(f"ell={rep.ctx.ell}: count {rep.count} out of bound")
    if primes_seen == 0:
        failures.append("census produced no reports")
    return failures


def identities_suite(max_ell: int = 200) -> list[str]:
    """Character orthogonality, indicator expansions, and the exact
    rational identities behind the count."""
    failures = []
    for ell in _odd_primes(max_ell):
        ctx = make_context(ell)
        char = verify_character_identities(ctx, cap=max_ell)
        if not char.ok:
            failures.append(
                f"ell={ell}: character deviation "
                f"{max(char.max_dev_orthogonality, char.max_dev_zeta, char.max_dev_eta):.3e}"
            )
        if ctx.beta >= 1:
            rep = verify_bsum_identities(ctx)
            for name, ok in rep.checks.items():
                if not ok:
                    failures.append(f"ell={ell}: {name} failed")
    return failures


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
    primes = _odd_primes(max_ell)
    if workers > 1:
        with Pool(workers) as pool:
            chunks = pool.map(_rankformula_one, primes)
    else:
        chunks = [_rankformula_one(p) for p in primes]
    return [msg for chunk in chunks for msg in chunk]
