"""Range scans and targeted prime searches.

The expensive primitive is deciding whether the singular set of a prime
is empty. It is decided one way at every ell: walk the odd-order
subgroup, which contains every possible singular k, so exhausting it
certifies emptiness and the first hit certifies non-emptiness.
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterator

import numpy as np

from .arith import context_from_factors, factorize, make_context, primitive_root, probable_prime
from .errors import BoundViolation, NotPrime
from .singular import KSetReport, k_set

DEFAULT_LBM_BUDGET = 1 << 40


@dataclass(frozen=True)
class SearchConfig:
    max_ell: int
    workers: int = 1
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.workers < 1 or self.max_ell < 1:
            raise ValueError("workers and max_ell must be positive")


@dataclass(frozen=True)
class LsRecord:
    s: int
    ell: int | None          # None means NOT-FOUND below the limit
    limit: int
    factorization: tuple[tuple[int, int], ...] = ()

    @property
    def found(self) -> bool:
        return self.ell is not None


@dataclass(frozen=True)
class LbmRow:
    alpha: int
    ell: int
    in_l: bool | None        # None when the row was skipped
    skipped: bool = False


@dataclass(frozen=True)
class DensityReport:
    x: int
    count: int
    primes: tuple[int, ...]
    reference: float         # x^(3/4) (log x)^3, no asserted constant

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "count": self.count,
            "primes": list(self.primes),
            "reference": self.reference,
        }


def sieve_primes(n: int) -> np.ndarray:
    """All primes <= n (simple Eratosthenes, numpy)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def odd_primes(max_ell: int) -> list[int]:
    """The odd primes <= max_ell, as Python ints."""
    return [int(p) for p in sieve_primes(max_ell) if p >= 3]


# ---------------------------------------------------------------------------
# Emptiness of the singular set


def k_witness(ell: int, factors=None) -> int | None:
    """Some k in the singular set of ell, or None (certified empty).

    Walks k = h^t over the subgroup of odd-order elements. Every
    singular k has odd order divisible by 3, so it lies on the walk;
    the two remaining conditions cost one modular power each.
    """
    if not probable_prime(ell):
        raise NotPrime(f"{ell} is not prime")
    if factors is None:
        factors = factorize(ell - 1)
    ctx = context_from_factors(ell, factors)
    alpha, beta = ctx.alpha, ctx.beta
    if beta == 0:
        return None
    n = ell - 1
    n0 = n >> alpha          # odd part, order of the walk subgroup
    h = pow(primitive_root(ctx), 1 << alpha, ell)
    k = 1
    for t in range(1, n0):
        k = k * h % ell
        tt, v3 = t, 0
        while tt % 3 == 0 and v3 < beta:
            tt //= 3
            v3 += 1
        if v3 >= beta:
            continue         # order of k has no factor 3
        if n0 // math.gcd(t, n0) == 3:
            continue         # order exactly 3 is excluded
        u = k * (k + 1) % ell
        if pow(ell - u, n0, ell) != 1:
            continue         # -k^2-k must have odd order
        c = beta - v3        # 3-adic valuation of ord k, >= 1
        if pow(u, n // 3 ** (beta - c + 1), ell) == 1:
            return k         # nu3(ord(k^2+k)) < nu3(ord k)
    return None


def k_set_is_empty(ell: int, factors=None) -> bool:
    """True iff the singular set of ell is empty, certified by k_witness."""
    return k_witness(ell, factors) is None


# ---------------------------------------------------------------------------
# Checkpoints: line-oriented "done <lo> <hi>"


def read_checkpoint(path: str) -> set[tuple[int, int]]:
    done = set()
    if path and os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 3 and parts[0] == "done":
                    done.add((int(parts[1]), int(parts[2])))
    return done


def append_checkpoint(path: str, lo: int, hi: int) -> None:
    with open(path, "a") as fh:
        fh.write(f"done {lo} {hi}\n")


# ---------------------------------------------------------------------------
# Census of the singular-count bound


def _census_chunk(primes: list[int]) -> list[KSetReport]:
    return [k_set(make_context(int(p))) for p in primes]


def census(cfg: SearchConfig) -> Iterator[KSetReport]:
    """One report per odd prime <= max_ell, ascending; raises loudly if
    any count escapes the proven bound.

    Shards of 512 primes stream in order (ordered Pool.imap when
    workers > 1), and each shard's checkpoint line is appended right
    after its reports, so an interrupted run keeps every finished shard.
    """
    primes = odd_primes(cfg.max_ell)
    shard = 512
    chunks = [primes[i:i + shard] for i in range(0, len(primes), shard)]
    done = read_checkpoint(cfg.checkpoint_path) if cfg.checkpoint_path else set()

    def bounds(chunk):
        return (chunk[0], chunk[-1] + 1)

    todo = [c for c in chunks if bounds(c) not in done]
    with ExitStack() as stack:
        if cfg.workers > 1 and len(todo) > 1:
            pool = stack.enter_context(Pool(cfg.workers))
            results = pool.imap(_census_chunk, todo)
        else:
            results = map(_census_chunk, todo)
        for chunk, reports in zip(todo, results):
            for rep in reports:
                if not rep.within_bound:
                    raise BoundViolation(
                        f"count {rep.count} escapes the bound at ell={rep.ctx.ell}"
                    )
                yield rep
            if cfg.checkpoint_path:
                append_checkpoint(cfg.checkpoint_path, *bounds(chunk))


# ---------------------------------------------------------------------------
# The alpha=1 finite search


def corollary712_search() -> list[int]:
    """The primes 2*3^beta + 1 with beta in [1, 17].

    Above the threshold ceil(441*8*beta^4/3^beta) the count bound already
    forces a non-empty singular set; the threshold drops to 1 at beta=18,
    which closes the search range.
    """
    found = []
    for beta in range(1, 18):
        m_beta = -(-441 * 8 * beta**4 // 3**beta)  # exact ceiling
        if m_beta < 2:
            continue
        ell = 2 * 3**beta + 1
        if probable_prime(ell):
            found.append(ell)
    return sorted(found)


# ---------------------------------------------------------------------------
# Segmented scan for the smallest empty-set prime with many factors


def _block_data(lo: int, hi: int, small_primes: np.ndarray):
    """(primality mask, omega array) for the integers in [lo, hi)."""
    size = hi - lo
    n = np.arange(lo, hi, dtype=np.int64)
    residual = n.copy()
    omega = np.zeros(size, dtype=np.int16)
    for p in small_primes:
        p = int(p)
        start = (-lo) % p
        idx = np.arange(start, size, p)
        if idx.size == 0:
            continue
        omega[idx] += 1
        residual[idx] //= p
        sub = idx[residual[idx] % p == 0]
        while sub.size:
            residual[sub] //= p
            sub = sub[residual[sub] % p == 0]
    omega += residual > 1    # at most one prime factor above sqrt(hi)
    is_prime_mask = (residual == n) & (n >= 2)
    for p in small_primes:
        if lo <= p < hi:
            is_prime_mask[p - lo] = True
    return is_prime_mask, omega


def _blocks(lo: int, hi: int, size: int):
    while lo < hi:
        yield lo, min(lo + size, hi)
        lo += size


def find_ls(
    s: int,
    limit: int,
    block_size: int = 1 << 20,
    checkpoint_path: str | None = None,
) -> LsRecord:
    """Smallest prime ell <= limit, ell = 1 mod 3, with at least s
    distinct prime factors in ell-1 and an empty singular set.

    NOT-FOUND below the limit is a first-class result, not an error.
    Uses the fast criterion only; never builds a matrix.
    """
    if s < 2 or limit < 3:
        raise ValueError("need s >= 2 and limit >= 3")
    small = sieve_primes(math.isqrt(limit) + 1)
    done = read_checkpoint(checkpoint_path) if checkpoint_path else set()
    for lo, hi in _blocks(2, limit + 1, block_size):
        if (lo, hi) in done:
            continue
        # shift by one so omega of ell-1 is available for ell == lo
        isp, omega = _block_data(lo - 1, hi, small)
        offset = lo - 1
        ells = np.arange(lo, hi, dtype=np.int64)
        cand = ells[
            isp[1:]
            & (ells % 3 == 1)
            & (omega[ells - 1 - offset] >= s)
        ]
        for ell in map(int, cand):
            factors = factorize(ell - 1)
            if k_set_is_empty(ell, factors):
                return LsRecord(s=s, ell=ell, limit=limit, factorization=factors)
        if checkpoint_path:
            append_checkpoint(checkpoint_path, lo, hi)
    return LsRecord(s=s, ell=None, limit=limit)


# ---------------------------------------------------------------------------
# Finiteness scans in the 2^alpha 3^beta m + 1 families


def lbm_scan(
    beta: int,
    m: int,
    alpha_max: int,
    budget: int = DEFAULT_LBM_BUDGET,
) -> list[LbmRow]:
    """For each alpha with 2^alpha 3^beta m + 1 prime, report whether the
    singular set is non-empty. Rows above the budget are skipped, never
    fabricated."""
    if math.gcd(m, 6) != 1 or alpha_max < 1 or beta < 0:
        raise ValueError("need gcd(m,6)=1, alpha_max >= 1, beta >= 0")
    rows = []
    for alpha in range(1, alpha_max + 1):
        ell = 2**alpha * 3**beta * m + 1
        if not probable_prime(ell):
            continue
        if ell > budget:
            rows.append(LbmRow(alpha=alpha, ell=ell, in_l=None, skipped=True))
            continue
        in_l = not k_set_is_empty(ell)
        rows.append(LbmRow(alpha=alpha, ell=ell, in_l=in_l))
    return rows


# ---------------------------------------------------------------------------
# Empirical density of empty-set primes


def density_census(x: int) -> DensityReport:
    """Count primes <= x, = 1 mod 3, with empty singular set, next to the
    x^(3/4) (log x)^3 yardstick (no constant is asserted)."""
    if x < 2:
        raise ValueError("x >= 2 required")
    hits = []
    for p in sieve_primes(x):
        p = int(p)
        if p % 3 != 1:
            continue
        if k_set_is_empty(p):
            hits.append(p)
    ref = x**0.75 * math.log(x) ** 3
    return DensityReport(x=x, count=len(hits), primes=tuple(hits), reference=ref)
