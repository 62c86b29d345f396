"""Demjanenko matrix construction and exact rank over the rationals.

The matrix is stored as a square array of signs: +1 where the half-plane
indicator at -c^{-1}a is 1, -1 where it is 0. Scaling the rational
entries (indicator - 1/2) by 2 preserves the rank.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .arith import PrimeContext, check_k, probable_prime
from .errors import DimensionTooLarge, NonIntegerRank

DEFAULT_RANK_CAP = 600
_RANK_CAP_ENV = "DEMJANENKO_EXACT_RANK_CAP"

# 30-bit moduli keep every intermediate product of the vectorized
# elimination inside int64.
_MOD_PRIME_BITS = 30


@dataclass(frozen=True)
class HalfPlaneSet:
    """Residues j with <kj> + <j> < ell; always (ell-1)/2 of them."""

    ell: int
    k: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class Stabilizer:
    """Setwise multiplicative stabilizer of a half-plane set; size 1 or 3."""

    ell: int
    k: int
    elements: tuple[int, ...]


@dataclass(frozen=True)
class DemjanenkoMatrix:
    ell: int
    k: int
    reps: tuple[int, ...]
    signs: np.ndarray  # square, entries in {-1, +1}

    @property
    def dimension(self) -> int:
        return len(self.reps)


def half_plane_set(ctx: PrimeContext, k: int) -> HalfPlaneSet:
    check_k(ctx, k)
    ell = ctx.ell
    j = np.arange(1, ell, dtype=np.int64)
    members = j[(k * j % ell) + j < ell]
    return HalfPlaneSet(ell=ell, k=k, members=tuple(int(x) for x in members))


def _membership_mask(hps: HalfPlaneSet) -> np.ndarray:
    mask = np.zeros(hps.ell, dtype=bool)
    mask[list(hps.members)] = True
    return mask


def _cube_roots_of_unity(ell: int) -> list[int]:
    """1 and, when 3 divides ell-1, the two roots of x^2+x+1 mod ell."""
    if (ell - 1) % 3:
        return [1]
    e = (ell - 1) // 3
    w = next(w for w in (pow(a, e, ell) for a in range(2, ell)) if w != 1)
    return sorted((1, w, w * w % ell))


def stabilizer(hps: HalfPlaneSet) -> Stabilizer:
    """Exact setwise stabilizer. It has size 1 or 3, so it lies in the
    cube roots of unity; each of those is kept only if it maps the set
    into itself."""
    ell = hps.ell
    in_m = _membership_mask(hps)
    members = np.array(hps.members, dtype=np.int64)
    elements = [
        w for w in _cube_roots_of_unity(ell)
        if in_m[w * members % ell].all()
    ]
    return Stabilizer(ell=ell, k=hps.k, elements=tuple(elements))


def coset_reps(hps: HalfPlaneSet, stab: Stabilizer) -> tuple[int, ...]:
    """Smallest representative of each stabilizer orbit on the set, sorted."""
    ell = hps.ell
    reps = []
    seen = set()
    for j in hps.members:  # members are sorted, so reps come out minimal
        if j in seen:
            continue
        orbit = {w * j % ell for w in stab.elements}
        seen |= orbit
        reps.append(j)
    return tuple(reps)


def build_matrix(ctx: PrimeContext, k: int) -> DemjanenkoMatrix:
    """Sign matrix over coset representatives c, a: +1 iff -c^{-1}a is
    outside the half-plane set."""
    check_k(ctx, k)
    ell = ctx.ell
    hps = half_plane_set(ctx, k)
    stab = stabilizer(hps)
    reps = coset_reps(hps, stab)
    in_m = _membership_mask(hps)
    r = np.array(reps, dtype=np.int64)
    inv = np.array([pow(int(c), -1, ell) for c in reps], dtype=np.int64)
    args = (-np.outer(inv, r)) % ell
    signs = np.where(in_m[args], -1, 1).astype(np.int64)
    return DemjanenkoMatrix(ell=ell, k=k, reps=reps, signs=signs)


def _rank_cap() -> int:
    raw = os.environ.get(_RANK_CAP_ENV)
    return int(raw) if raw else DEFAULT_RANK_CAP


def _gen_mod_primes():
    p = (1 << _MOD_PRIME_BITS) - 1
    while True:
        if probable_prime(p):
            yield p
        p -= 2


_MOD_PRIMES: list[int] = []


def _mod_primes(count: int) -> list[int]:
    if len(_MOD_PRIMES) < count:
        g = _gen_mod_primes()
        _MOD_PRIMES[:] = [next(g) for _ in range(count)]
    return _MOD_PRIMES[:count]


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over GF(p), vectorized elimination."""
    a = np.asarray(matrix, dtype=np.int64) % p
    n_rows, n_cols = a.shape
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        col = a[r + 1:, c]
        if col.size:
            a[r + 1:] = (a[r + 1:] - np.outer(col, a[r])) % p
        r += 1
    return r


def bareiss_rank(matrix) -> int:
    """Fraction-free integer echelon rank (exact, no modular shortcuts)."""
    a = [[int(x) for x in row] for row in np.asarray(matrix)]
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    rank = 0
    prev = 1
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pivot_row = a[rank]
        pv = pivot_row[c]
        for i in range(rank + 1, n_rows):
            row = a[i]
            f = row[c]
            for j in range(c, n_cols):
                row[j] = (pv * row[j] - f * pivot_row[j]) // prev
        prev = pv
        rank += 1
        if rank == n_rows:
            break
    return rank


def _certified_rank(signs: np.ndarray) -> int:
    """Exact rank via CRT-certified modular elimination.

    Every minor of an n x n sign matrix is bounded by Hadamard's n^{n/2}.
    If rank mod p_i <= r for moduli whose product exceeds twice that
    bound, every (r+1)-minor vanishes modulo the product and is therefore
    zero, so r is also an upper bound for the rational rank.
    """
    n = signs.shape[0]
    bound_bits = int(n / 2 * math.log2(n)) + 2 if n > 1 else 2
    count = max(3, bound_bits // (_MOD_PRIME_BITS - 1) + 1)
    best = 0
    for p in _mod_primes(count):
        best = max(best, rank_mod(signs, p))
        if best == n:
            return n
    return best


def exact_rank(dm: DemjanenkoMatrix, cap: int | None = None) -> int:
    """Rank of the matrix over the rationals, exact.

    One certified multi-modular pass: a full-rank matrix exits on the
    first modulus that shows full rank (usually the first one), and a
    singular one takes every modulus the Hadamard bound asks for.
    """
    n = dm.dimension
    limit = cap if cap is not None else _rank_cap()
    if n > limit:
        raise DimensionTooLarge(f"dimension {n} exceeds exact-rank cap {limit}")
    return _certified_rank(dm.signs)


def rank_formula_value(ctx: PrimeContext, k: int, M: int) -> int:
    """(ell-1)/2 * (1 - 2/M) as an exact integer."""
    check_k(ctx, k)
    num = (ctx.ell - 1) * (M - 2)
    den = 2 * M
    if num % den:
        raise NonIntegerRank(f"(ell-1)(M-2)/(2M) not integral for ell={ctx.ell}, M={M}")
    return num // den


def dump_matrix(dm: DemjanenkoMatrix, stab_size: int) -> str:
    """Textual grid of +/- characters with a header line."""
    header = f"ell={dm.ell} k={dm.k} dim={dm.dimension} |W|={stab_size}"
    rows = ["".join("+" if s > 0 else "-" for s in row) for row in dm.signs]
    return "\n".join([header, *rows])
