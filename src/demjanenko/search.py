"""Range scans and targeted prime searches.

The expensive primitive is deciding whether the singular set of a prime
is empty. `singular.k_set_is_empty` is that one decision, at every ell:
the paper's count bound where it excludes a count of 0 (the set is then
proven non-empty), else the walk over the odd-order subgroup. Every
scan here calls it. The Table 1 search and the density census are one
scan, `_empty_primes`: a block sieve yields the primes ell = 1 mod 3
with enough prime factors in ell-1, and k_set_is_empty decides each.
"""

from __future__ import annotations

import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterator

import numpy as np

from .arith import PrimeContext, check_memory, factorize, probable_prime
from .errors import BoundViolation
from .singular import KSetReport, k_set, k_set_is_empty, k_witness  # noqa: F401

DEFAULT_LBM_BUDGET = 1 << 40

# Primes per shard of the census: the unit of work of a pool task, of one
# checkpoint line and of one sieve_factorizations pass.
_SHARD = 512

# Integers per block of the empty-prime scan.
_BLOCK = 1 << 20

# Candidates per sieve_factorizations call of the empty-prime scan, so
# the factor tuples of a whole block are never held at once.
_FACTOR_CHUNK = 4096


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
    in_l: bool | None        # None when ell is over the budget: skipped

    @property
    def skipped(self) -> bool:
        return self.in_l is None


@dataclass(frozen=True)
class DensityReport:
    x: int
    primes: tuple[int, ...]
    reference: float         # x^(3/4) (log x)^3, no asserted constant

    @property
    def count(self) -> int:
        return len(self.primes)

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


def prime_contexts(primes: np.ndarray) -> list[PrimeContext]:
    """The context of each odd prime of an int64 array from the sieve:
    its primality is known and the factors of ell-1 come from one
    sieve_factorizations pass over the array."""
    return [
        PrimeContext(ell, factors)
        for ell, factors in zip(primes.tolist(), sieve_factorizations(primes - 1))
    ]


def _census_chunk(primes: np.ndarray) -> list[KSetReport]:
    """The reports of a shard of odd primes from the sieve."""
    return [k_set(ctx) for ctx in prime_contexts(primes)]


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
    """The primes 2*3^beta + 1 whose threshold
    m_beta = ceil(441*8*beta^4/3^beta) is at least 2.

    Where m_beta is 1 the count bound already forces a non-empty singular
    set. m_beta falls for every beta >= 4 and first drops to 1 at
    beta = 18, so the range is beta in [1, 17].
    """
    betas = itertools.takewhile(lambda b: -(-441 * 8 * b**4 // 3**b) >= 2, itertools.count(1))
    return [ell for ell in (2 * 3**b + 1 for b in betas) if probable_prime(ell)]


# ---------------------------------------------------------------------------
# The empty-prime scan behind Table 1 and the density census


def _block_candidates(lo: int, hi: int, s: int, small: np.ndarray):
    """Yield (ell, factors of ell-1), ascending, for each prime
    ell = 1 mod 3 in [lo, hi), lo >= 2, whose ell-1 has at least s
    distinct prime factors.

    small holds every prime <= isqrt(hi - 1). om counts the small primes
    dividing ell-1; as ell-1 has at most one prime factor past them, only
    om >= s - 1 can reach s, and sieve_factorizations, _FACTOR_CHUNK
    candidates at a time, gives the count."""
    isp = np.ones(hi - lo, dtype=bool)
    om = np.zeros(hi - lo, dtype=np.int8)
    for p in small.tolist():
        isp[max(p * p, -(-lo // p) * p) - lo:: p] = False
        om[(1 - lo) % p:: p] += 1
    ells = lo + np.flatnonzero(isp & (om >= s - 1))
    ells = ells[ells % 3 == 1]
    for i in range(0, len(ells), _FACTOR_CHUNK):
        chunk = ells[i:i + _FACTOR_CHUNK]
        for ell, factors in zip(chunk.tolist(), sieve_factorizations(chunk - 1)):
            if len(factors) >= s:
                yield ell, factors


def _empty_primes(limit: int, s: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """(ell, factors of ell-1), ascending, for each prime ell <= limit,
    ell = 1 mod 3, with at least s distinct prime factors in ell-1 and
    an empty singular set.

    The candidates come from a plain sieve per block of _BLOCK integers,
    and k_set_is_empty decides each with the sieve's factors; never a
    matrix."""
    small = sieve_primes(math.isqrt(limit) + 1)
    for lo in range(2, limit + 1, _BLOCK):
        for ell, factors in _block_candidates(lo, min(lo + _BLOCK, limit + 1), s, small):
            if k_set_is_empty(ell, factors):
                yield ell, factors


def find_ls(s: int, limit: int) -> LsRecord:
    """Smallest prime ell <= limit, ell = 1 mod 3, with at least s
    distinct prime factors in ell-1 and an empty singular set: the first
    prime _empty_primes yields.

    NOT-FOUND below the limit is a first-class result, not an error.
    """
    if s < 2 or limit < 3:
        raise ValueError("need s >= 2 and limit >= 3")
    ell, factors = next(_empty_primes(limit, s), (None, ()))
    return LsRecord(s=s, ell=ell, limit=limit, factorization=factors)


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
    fabricated. m is factored once, for every walk."""
    if m < 1 or math.gcd(m, 6) != 1 or alpha_max < 1 or beta < 0:
        raise ValueError("need m >= 1 with gcd(m,6)=1, alpha_max >= 1, beta >= 0")
    odd_factors = (((3, beta),) if beta else ()) + factorize(m)
    rows = []
    for alpha in range(1, alpha_max + 1):
        ell = 2**alpha * 3**beta * m + 1
        if not probable_prime(ell):
            continue
        in_l = None if ell > budget else not k_set_is_empty(ell, ((2, alpha),) + odd_factors)
        rows.append(LbmRow(alpha=alpha, ell=ell, in_l=in_l))
    return rows


# ---------------------------------------------------------------------------
# Empirical density of empty-set primes


def density_census(x: int) -> DensityReport:
    """Count primes <= x, = 1 mod 3, with empty singular set, next to the
    x^(3/4) (log x)^3 yardstick (no constant is asserted).

    The primes are what _empty_primes(x, 2) yields: for a prime
    ell = 1 mod 3, ell-1 is a multiple of 6, so it has at least two
    distinct prime factors and the scan keeps every such prime."""
    if x < 2:
        raise ValueError("x >= 2 required")
    hits = [ell for ell, _ in _empty_primes(x, 2)]
    ref = x**0.75 * math.log(x) ** 3
    return DensityReport(x=x, primes=tuple(hits), reference=ref)
