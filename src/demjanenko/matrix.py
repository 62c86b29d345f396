"""Demjanenko matrix construction and exact rank over the rationals.

A matrix is stored as its coset representatives; its square array of
signs (+1 where the half-plane indicator at -c^{-1}a is 0, -1 where it
is 1) is built only on demand. Scaling the rational entries
(1/2 - indicator) by 2 preserves the rank.

The rank needs no matrix. Up to row and column signs it is the group
matrix over (Z/ell)^*/(+-W) of an odd sign function, with eigenvalues
lambda_chi over the odd characters chi trivial on W. As [<ka> + <a> >=
ell] = {ka/ell} + {a/ell} - {(k+1)a/ell}, lambda_chi is a nonzero
multiple of (conj chi(k) + 1 - conj chi(k+1)) B_{1,chi}, and B_{1,chi}
!= 0 for odd chi (Washington, Introduction to Cyclotomic Fields, ch. 4).
So lambda_chi = 0 iff chi(k+1) is a primitive sixth root of unity and
chi(k) = chi(k+1)^2, the only solutions of 1 + x = y on the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arith import PrimeContext, check_k, check_memory, check_modulus, mult_order
from .errors import DimensionTooLarge, NonIntegerRank


@dataclass(frozen=True)
class DemjanenkoMatrix:
    ctx: PrimeContext
    k: int
    reps: tuple[int, ...]

    @property
    def ell(self) -> int:
        return self.ctx.ell

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


def stabilizer(ctx: PrimeContext, k: int) -> tuple[int, ...]:
    """Exact setwise stabilizer W of the half-plane set of k, sorted:
    {1, k, k^2} when k^2 + k + 1 = 0 mod ell, that is when k is a cube
    root of unity other than 1, and (1,) otherwise."""
    check_k(ctx, k)
    ell = ctx.ell
    if (k * k + k + 1) % ell:
        return (1,)
    return tuple(sorted({1, k, k * k % ell}))


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
    reps = np.flatnonzero(half_plane_set(ctx, k))
    for w in stabilizer(ctx, k)[1:]:  # keep the least member of each W-orbit
        reps = reps[reps < w * reps % ell]
    return DemjanenkoMatrix(ctx=ctx, k=k, reps=tuple(reps.tolist()))


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


def hodge_rank(ctx: PrimeContext, k: int) -> tuple[int, int]:
    """(dimension, rank) of the matrix of k, exact, from the orders o1 of
    k and o2 of k+1; no matrix is built, so any odd prime ell is admitted.

    The characters are chi = omega^t, t mod n = ell-1 with t = |W| mod
    2|W|. Reduced at a prime above ell, chi(k+1) is a primitive sixth root
    iff t = j2 o2/6 mod o2 with j2 in {1, 5}, and then chi(k) = chi(k+1)^2
    iff t = j1 o1/3 mod o1 with k^(j1 o1/3) = (k+1)^(j2 o2/3). Congruences
    solvable two by two are solvable together, by n / lcm of the t mod n.
    """
    ell, n, w = ctx.ell, ctx.ell - 1, len(stabilizer(ctx, k))
    dim = n // (2 * w)
    o1, o2 = mult_order(k, ctx).order, mult_order(k + 1, ctx).order
    if o1 % 3 or o2 % 6:
        return dim, dim
    cube, z = pow(k, o1 // 3, ell), pow(k + 1, o2 // 6, ell)
    zeros = 0
    for j2 in (1, 5):
        j1 = 1 if cube == pow(z, 2 * j2, ell) else 2
        system = ((j1 * o1 // 3, o1), (j2 * o2 // 6, o2), (w, 2 * w))
        if all((a - b) % math.gcd(m, q) == 0 for (a, m), (b, q) in combinations(system, 2)):
            zeros += n // math.lcm(o1, o2, 2 * w)
    return dim, dim - zeros


def exact_rank(dm: DemjanenkoMatrix, cap: int | None = None) -> int:
    """Rank of the matrix over the rationals, exact: `hodge_rank`'s count
    of the odd characters trivial on W whose eigenvalue, by the module's
    argument, is nonzero. A `cap` on the dimension, when given, is
    enforced with DimensionTooLarge. The signs are not read."""
    if cap is not None and dm.dimension > cap:
        raise DimensionTooLarge(f"dimension {dm.dimension} exceeds exact-rank cap {cap}")
    return hodge_rank(dm.ctx, dm.k)[1]


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
