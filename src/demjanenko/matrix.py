"""Demjanenko matrix construction and exact rank over the rationals.

A matrix is stored as its coset representatives; its square array of
signs (+1 where the half-plane indicator at -c^{-1}a is 0, -1 where it
is 1) is built only on demand. Scaling the rational entries
(1/2 - indicator) by 2 preserves the rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import PrimeContext, check_k, check_memory, check_modulus
from .errors import DimensionTooLarge, NonIntegerRank


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
        <kx> + <x> < ell, else +1. Built anew on each access; `exact_rank`
        never reads it. Its peak, with the grid `dump_matrix` makes of it,
        is about 32 bytes an entry, checked against the machine before
        anything is built."""
        ell, dim = self.ell, self.dimension
        check_modulus(ell, "the sign matrix")
        check_memory(32 * dim * dim, f"the {dim} x {dim} sign matrix of ell={ell}")
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

    Peak memory is about 32 bytes per residue mod ell: the int64 mask
    arithmetic, then up to (ell-1)/2 reps as a tuple of Python ints. It
    is checked against the machine before anything is built, as is
    ell < 2^31, which keeps every int64 product of residues exact.
    """
    check_k(ctx, k)
    ell = ctx.ell
    check_modulus(ell, "the Demjanenko matrix")
    check_memory(32 * ell, f"the Demjanenko matrix of ell={ell}")
    mask = half_plane_set(ctx, k)
    reps = np.flatnonzero(mask)
    for w in stabilizer(mask)[1:]:  # keep the least member of each W-orbit
        reps = reps[reps < w * reps % ell]
    return DemjanenkoMatrix(ell=ell, k=k, reps=tuple(reps.tolist()))


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
    """Rank of the matrix over the rationals, exact; a `cap` on the
    dimension, when given, is enforced with DimensionTooLarge.

    The rank is read from `dm.reps` of a matrix made by `build_matrix`;
    the signs array is not read. Up to row and column signs the matrix is
    the group matrix over (Z/ell)^*/(+-W) of the odd, W-invariant sign
    function, so its eigenvalues are lambda_t = sum_r omega(r)^t over the
    reps, omega the Teichmueller character and t odd with |W| | t. At a
    prime above ell, omega(x) = x and lambda_t reduces to the power sum
    sum_r r^t mod ell. The t with one d = gcd(t, ell-1) are one Galois
    orbit, as conjugation moves lambda_t to lambda_at for the units a
    mod ell-1. If every power sum in an orbit vanishes, ell^phi divides
    the norm of lambda while |lambda| <= dim < ell bounds it below
    ell^phi, so lambda = 0; otherwise lambda != 0. The rank is the size
    of the orbits with a nonzero power sum.

    Each orbit stops at its first nonzero power sum. It tries t = d
    first, which is in the orbit as d is odd and a multiple of |W|, then
    t = ds over the units s mod (ell-1)/d, so only an orbit of zeros is
    walked to its end: about (orbits * log ell + defect) * dim products
    in all. Peak memory is about 32 bytes a rep, on top of the matrix.
    """
    n, ell, w = dm.dimension, dm.ell, dm.stabilizer_size
    if cap is not None and n > cap:
        raise DimensionTooLarge(f"dimension {n} exceeds exact-rank cap {cap}")
    check_modulus(ell, "the exact rank")
    check_memory(32 * n, f"the exact rank of a dimension-{n} matrix")
    reps = np.array(dm.reps, dtype=np.int64)
    orbits, sizes = np.unique(np.gcd(np.arange(w, ell - 1, 2 * w), ell - 1), return_counts=True)
    nonzero = [_orbit_nonzero(reps, d, ell) for d in orbits.tolist()]
    return int(sizes[nonzero].sum())


def _orbit_nonzero(reps: np.ndarray, d: int, ell: int) -> bool:
    """Whether some power sum sum_r r^t mod ell with gcd(t, ell-1) = d is
    nonzero, trying t = ds for s = 1, 2, ... prime to (ell-1)/d."""
    base = reps
    for bit in bin(d)[3:]:  # base = reps^d, by square and multiply
        base = base * base % ell
        if bit == "1":
            base = base * reps % ell
    m = (ell - 1) // d
    power = base
    for s in range(1, m):
        if math.gcd(s, m) == 1 and power.sum() % ell:
            return True
        power = power * base % ell
    return False


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
