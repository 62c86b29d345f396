"""Demjanenko matrix construction and exact rank over the rationals.

The matrix is stored as a square array of signs: +1 where the half-plane
indicator at -c^{-1}a is 1, -1 where it is 0. Scaling the rational
entries (indicator - 1/2) by 2 preserves the rank.
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

    @property
    def stabilizer_size(self) -> int:
        """|W| = (ell-1)/(2 dim): the reps are one per W-orbit of M."""
        return (self.ell - 1) // (2 * self.dimension)


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
