"""Range scans and targeted prime searches.

The expensive primitive is deciding whether the singular set of a prime
is empty. It is decided one way at every ell: walk the odd-order
subgroup, which contains every possible singular k, so exhausting it
certifies emptiness and the first hit certifies non-emptiness. The
Table 1 search and the density census ask the paper's count bound
first: where it excludes a count of 0, the set is proven non-empty and
no walk runs.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterator

import numpy as np

from .arith import (
    check_memory,
    context_from_factors,
    factorize,
    primitive_root,
    probable_prime,
)
from .errors import BoundViolation, NotPrime
from .singular import KSetReport, count_within_bound, k_set

DEFAULT_LBM_BUDGET = 1 << 40

# Primes per shard: in the census the unit of work of a pool task and of
# one checkpoint line; in the census and the density census the batch
# factored by one sieve_factorizations pass.
_SHARD = 512


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
    """All primes <= n (simple Eratosthenes, numpy).

    Refused with CapExceeded when its peak, the mask and 8 bytes a prime
    (pi(n) < 1.26 n/ln n), exceeds physical memory.
    """
    if n < 2:
        return np.empty(0, dtype=np.int64)
    check_memory(n + 1 + 16 * n // (n.bit_length() - 1), f"the sieve of primes <= {n}")
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64, copy=False)


def odd_primes(max_ell: int) -> np.ndarray:
    """The odd primes <= max_ell: the sieve's int64 array past the 2."""
    return sieve_primes(max_ell)[1:]


def sieve_factorizations(n: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """The factorization of each entry of the int64 array n (entries >= 1),
    sorted by prime as `factorize` returns it, in one vectorized pass.

    Every prime q <= isqrt(max n) from the sieve is divided out with its
    multiplicity. What is left of an entry is then 1 or a prime larger
    than every q, as a composite would have a prime factor <= isqrt(max n),
    so no primality test is needed and that prime comes last.
    """
    if n.size == 0:
        return []
    out: list[list[tuple[int, int]]] = [[] for _ in range(len(n))]
    residual = n.copy()
    exps = np.zeros(len(n), dtype=np.int64)
    for q in sieve_primes(math.isqrt(int(n.max()))).tolist():
        idx = np.flatnonzero(residual % q == 0)
        sub = idx
        while sub.size:
            residual[sub] //= q
            exps[sub] += 1
            sub = sub[residual[sub] % q == 0]
        for i, e in zip(idx.tolist(), exps[idx].tolist()):
            out[i].append((q, e))
        exps[idx] = 0
    for i, r in enumerate(residual.tolist()):
        if r > 1:
            out[i].append((r, 1))
    return [tuple(f) for f in out]


@contextmanager
def ordered_map(fn, items: list, workers: int) -> Iterator[Iterator]:
    """The results of fn over items, in order: streamed from a pool of
    `workers` processes when there are more than one worker and one item,
    else computed here. The pool closes when the block exits."""
    if workers > 1 and len(items) > 1:
        with Pool(workers) as pool:
            yield pool.imap(fn, items)
    else:
        yield map(fn, items)


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


def _empty_after_bound(ell: int, factors) -> bool:
    """k_set_is_empty for a sieved prime: False when the count bound
    excludes a count of 0, which proves the set non-empty, else the walk."""
    return count_within_bound(context_from_factors(ell, factors), 0) and k_set_is_empty(ell, factors)


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


def _shards(primes: np.ndarray) -> list[np.ndarray]:
    """Consecutive slices of _SHARD primes, the last one shorter."""
    return [primes[i:i + _SHARD] for i in range(0, len(primes), _SHARD)]


def _census_chunk(primes: np.ndarray) -> list[KSetReport]:
    """The reports of a shard of odd primes from the sieve: their
    primality is known and the factors of ell-1 come from the shard."""
    return [
        k_set(context_from_factors(ell, factors))
        for ell, factors in zip(primes.tolist(), sieve_factorizations(primes - 1))
    ]


def census(cfg: SearchConfig) -> Iterator[KSetReport]:
    """One report per odd prime <= max_ell, ascending; raises loudly if
    any count escapes the proven bound.

    Shards of 512 primes stream in order through ordered_map, and each
    shard's checkpoint line is appended right after its reports, so an
    interrupted run keeps every finished shard.
    """
    chunks = _shards(odd_primes(cfg.max_ell))
    done = read_checkpoint(cfg.checkpoint_path) if cfg.checkpoint_path else set()

    def bounds(chunk):
        return (int(chunk[0]), int(chunk[-1]) + 1)

    todo = [c for c in chunks if bounds(c) not in done]
    with ordered_map(_census_chunk, todo, cfg.workers) as results:
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


def _block_candidates(lo: int, hi: int, s: int, small: np.ndarray):
    """(ell, factors of ell-1) for each prime ell = 1 mod 3 in [lo, hi),
    lo >= 2, whose ell-1 has at least s distinct prime factors.

    small holds every prime <= isqrt(hi - 1). om counts the small primes
    dividing ell-1; as ell-1 has at most one prime factor past them, only
    om >= s - 1 can reach s, and sieve_factorizations gives the count."""
    isp = np.ones(hi - lo, dtype=bool)
    om = np.zeros(hi - lo, dtype=np.int8)
    for p in small.tolist():
        isp[max(p * p, -(-lo // p) * p) - lo:: p] = False
        om[(1 - lo) % p:: p] += 1
    ells = lo + np.flatnonzero(isp & (om >= s - 1))
    ells = ells[ells % 3 == 1]
    pairs = zip(ells.tolist(), sieve_factorizations(ells - 1))
    return [(ell, factors) for ell, factors in pairs if len(factors) >= s]


def find_ls(
    s: int,
    limit: int,
    block_size: int = 1 << 20,
    checkpoint_path: str | None = None,
) -> LsRecord:
    """Smallest prime ell <= limit, ell = 1 mod 3, with at least s
    distinct prime factors in ell-1 and an empty singular set.

    NOT-FOUND below the limit is a first-class result, not an error.
    The candidates come from a plain sieve per block. Each is decided by
    the count bound when it excludes a count of 0, else by the walk;
    never by a matrix.
    """
    if s < 2 or limit < 3 or block_size < 1:
        raise ValueError("need s >= 2, limit >= 3 and block_size >= 1")
    small = sieve_primes(math.isqrt(limit) + 1)
    done = read_checkpoint(checkpoint_path) if checkpoint_path else set()
    for lo in range(2, limit + 1, block_size):
        hi = min(lo + block_size, limit + 1)
        if (lo, hi) in done:
            continue
        for ell, factors in _block_candidates(lo, hi, s, small):
            if _empty_after_bound(ell, factors):
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
    x^(3/4) (log x)^3 yardstick (no constant is asserted).

    Each prime is decided by the count bound when it excludes a count of
    0, else by the walk."""
    if x < 2:
        raise ValueError("x >= 2 required")
    primes = sieve_primes(x)
    hits = [
        ell
        for chunk in _shards(primes[primes % 3 == 1])
        for ell, factors in zip(chunk.tolist(), sieve_factorizations(chunk - 1))
        if _empty_after_bound(ell, factors)
    ]
    ref = x**0.75 * math.log(x) ** 3
    return DensityReport(x=x, count=len(hits), primes=tuple(hits), reference=ref)
