"""Demjanenko matrix construction and exact rank over the rationals.

A matrix is stored as its coset representatives; its square array of
signs (+1 where the half-plane indicator at -c^{-1}a is 0, -1 where it
is 1) is built only on demand. Scaling the rational entries
(1/2 - indicator) by 2 preserves the rank.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .arith import PrimeContext, check_k
from .errors import DimensionTooLarge, NonIntegerRank

DEFAULT_RANK_CAP = 600
_RANK_CAP_ENV = "DEMJANENKO_EXACT_RANK_CAP"


@dataclass(frozen=True)
class DemjanenkoMatrix:
    ell: int
    k: int
    reps: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.reps)

    @property
    def signs(self) -> np.ndarray:
        """The dim x dim matrix of signs over the reps c (rows), a
        (columns): with x = -c^{-1}a mod ell, the entry is -1 iff
        <kx> + <x> < ell, else +1. Built anew on each access, at a cost
        of dim^2 in time and memory; `exact_rank` never reads it."""
        ell = self.ell
        r = np.array(self.reps, dtype=np.int64)
        inv = np.array([pow(c, -1, ell) for c in self.reps], dtype=np.int64)
        x = -np.outer(inv, r) % ell
        return np.where(self.k * x % ell + x < ell, -1, 1)

    @property
    def stabilizer_size(self) -> int:
        """|W| = (ell-1)/(2 dim): the reps are one per W-orbit of M."""
        return (self.ell - 1) // (2 * self.dimension)


def half_plane_set(ctx: PrimeContext, k: int) -> np.ndarray:
    """Membership mask of length ell: mask[j] iff j >= 1 and
    <kj> + <j> < ell. It always has (ell-1)/2 members."""
    check_k(ctx, k)
    ell = ctx.ell
    j = np.arange(ell, dtype=np.int64)
    mask = k * j % ell + j < ell
    mask[0] = False
    return mask


def stabilizer(mask: np.ndarray) -> tuple[int, ...]:
    """Exact setwise stabilizer W of the half-plane set, sorted. It has
    size 1 or 3, so it lies in the cube roots of unity; being a group,
    it holds the nontrivial root w iff it holds w^2, so only w is
    checked, by whether it maps the set into itself."""
    ell = mask.size
    if (ell - 1) % 3:
        return (1,)
    e = (ell - 1) // 3
    w = next(w for w in (pow(a, e, ell) for a in range(2, ell)) if w != 1)
    if not mask[w * np.flatnonzero(mask) % ell].all():
        return (1,)
    return tuple(sorted((1, w, w * w % ell)))


def build_matrix(ctx: PrimeContext, k: int) -> DemjanenkoMatrix:
    """The matrix over the coset representatives of the half-plane set.

    Every matrix of a prime ell has dimension (ell-1)/(2|W|) >= (ell-1)/6,
    since |W| <= 3; an ell that puts that past the exact-rank cap is
    refused before anything of size ell is allocated.
    """
    check_k(ctx, k)
    cap = _rank_cap()
    if (ctx.ell - 1) // 6 > cap:
        raise DimensionTooLarge(
            f"ell={ctx.ell}: every matrix has dimension at least "
            f"{(ctx.ell - 1) // 6}, over the exact-rank cap {cap}"
        )
    mask = half_plane_set(ctx, k)
    reps = np.flatnonzero(mask)
    for w in stabilizer(mask)[1:]:  # keep the least member of each W-orbit
        reps = reps[reps < w * reps % ctx.ell]
    return DemjanenkoMatrix(ell=ctx.ell, k=k, reps=tuple(reps.tolist()))


def _rank_cap() -> int:
    raw = os.environ.get(_RANK_CAP_ENV)
    return int(raw) if raw else DEFAULT_RANK_CAP


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over GF(p), vectorized elimination.

    `exact_rank` does not use it; it is the modular oracle of the tests.
    """
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


def exact_rank(dm: DemjanenkoMatrix, cap: int | None = None) -> int:
    """Rank of the matrix over the rationals, exact.

    The rank is read from `dm.reps` of a matrix made by `build_matrix`;
    the signs array is not read. Up to row and column signs the matrix is
    the group matrix over (Z/ell)^*/(+-W) of the odd, W-invariant sign
    function, so its eigenvalues are lambda_t = sum_r omega(r)^t over the
    reps, omega the Teichmueller character and t odd with |W| | t. At a
    prime above ell, omega(x) = x and lambda_t reduces to the power sum
    sum_r r^t mod ell. The t with one gcd(t, ell-1) are one Galois orbit.
    If every power sum in an orbit vanishes, ell^phi divides the norm of
    lambda while |lambda| <= dim < ell bounds it below ell^phi, so
    lambda = 0; otherwise lambda != 0. The rank is the size of the orbits
    with a nonzero power sum.
    """
    n = dm.dimension
    limit = cap if cap is not None else _rank_cap()
    if n > limit:
        raise DimensionTooLarge(f"dimension {n} exceeds exact-rank cap {limit}")
    ell, w = dm.ell, dm.stabilizer_size
    power = np.array([pow(r, w, ell) for r in dm.reps], dtype=np.int64)
    step = power * power % ell
    sums = np.empty(n, dtype=np.int64)
    for i in range(n):  # power = r^t for t = (2i+1)w
        sums[i] = power.sum() % ell
        power = power * step % ell
    orbit = np.gcd(np.arange(w, ell - 1, 2 * w), ell - 1)
    return int(np.isin(orbit, orbit[sums != 0]).sum())


def rank_formula_value(ctx: PrimeContext, k: int, M: int) -> int:
    """(ell-1)/2 * (1 - 2/M) as an exact integer."""
    check_k(ctx, k)
    num = (ctx.ell - 1) * (M - 2)
    den = 2 * M
    if num % den:
        raise NonIntegerRank(f"(ell-1)(M-2)/(2M) not integral for ell={ctx.ell}, M={M}")
    return num // den


def dump_matrix(dm: DemjanenkoMatrix) -> str:
    """Textual grid of +/- characters with a header line."""
    header = f"ell={dm.ell} k={dm.k} dim={dm.dimension} |W|={dm.stabilizer_size}"
    rows = ["".join("+" if s > 0 else "-" for s in row) for row in dm.signs]
    return "\n".join([header, *rows])
