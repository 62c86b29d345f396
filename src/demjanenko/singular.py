"""Singularity of the Demjanenko matrix via the order criterion.

Membership of k in the singular set is decided by three conditions on
the multiplicative orders of k, -k^2-k and k^2+k. Every singular k lies
in the subgroup of units of odd order, and this module owns both scans
of it: the singular set in one vectorized pass with one int8 table of
3-adic levels, and the walk that stops at the first singular k, which
certifies emptiness when it finds none. It also gives the count against
the asymptotic main term and the lcm statistic controlling the rank
defect. `k_set_is_empty` is the one emptiness decision: the count bound
where it excludes a count of 0, else the walk. The exact identity
suites behind the count live in `verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    PrimeContext,
    check_k,
    check_memory,
    make_context,
    mult_order,
    power_table,
    primitive_root,
)

# Denominator of sqrt_upper, so its error is below 10^-6.
_SQRT_SCALE = 10**6


@dataclass(frozen=True)
class CriterionEvidence:
    cond_i: bool
    cond_ii: bool
    cond_iii: bool

    @property
    def in_k_set(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


@dataclass(frozen=True)
class KSetReport:
    """The singular set of ctx.ell, ascending, against the count bound
    |count - main_term| <= error_bound.

    main_term and error_bound are exact Fractions computed from ctx on
    demand; within_bound decides the same inequality in integers, by
    count_within_bound.
    """

    ctx: PrimeContext
    members: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def main_term(self) -> Fraction:
        return main_term(self.ctx)

    @property
    def error_bound(self) -> Fraction:
        return error_bound(self.ctx)

    @property
    def within_bound(self) -> bool:
        return count_within_bound(self.ctx, self.count)

    def to_json(self) -> dict:
        return {
            "ell": self.ctx.ell,
            "alpha": self.ctx.alpha,
            "beta": self.ctx.beta,
            "m": self.ctx.m,
            "count": self.count,
            "members": list(self.members),
            "main_term": frac_str(self.main_term),
            "error_bound": frac_str(self.error_bound),
            "within_bound": self.within_bound,
        }


@dataclass(frozen=True)
class MStat:
    k: int
    M: int


def frac_str(f: Fraction) -> str:
    """p/q, the denominator kept even when it is 1."""
    return f"{f.numerator}/{f.denominator}"


def criterion(ctx: PrimeContext, k: int) -> CriterionEvidence:
    """Evaluate the three order conditions for a single k."""
    check_k(ctx, k)
    ell = ctx.ell
    pos = k * (k + 1) % ell
    ord_k = mult_order(k, ctx)
    ord_neg = mult_order(ell - pos, ctx)
    ord_pos = mult_order(pos, ctx)
    return CriterionEvidence(
        cond_i=ord_k.order != 3,
        cond_ii=ord_k.nu2 == 0 and ord_neg.nu2 == 0,
        cond_iii=ord_k.nu3 > ord_pos.nu3,
    )


def sqrt_upper(n: int) -> Fraction:
    """Rational upper bound for sqrt(n) with error below 10^-6."""
    return Fraction(math.isqrt(n * _SQRT_SCALE**2) + 1, _SQRT_SCALE)


def a0_closed_form(ctx: PrimeContext) -> Fraction:
    return Fraction(1, 2 ** (2 * ctx.alpha + 2)) * (1 - Fraction(1, 3 ** (2 * ctx.beta)))


def main_term(ctx: PrimeContext) -> Fraction:
    return ctx.ell * a0_closed_form(ctx)


def error_bound(ctx: PrimeContext) -> Fraction:
    return 4 * ctx.beta**2 * sqrt_upper(ctx.ell) + Fraction(33, 16)


def count_within_bound(ctx: PrimeContext, count: int) -> bool:
    """|count - main_term| <= error_bound, as one integer comparison.

    At count 0 a False proves the singular set of ctx.ell non-empty.
    """
    # main = ell (9^beta - 1) / d with d = 4^(alpha+1) 9^beta, and
    # err = 4 beta^2 a/b + 33/16 with a/b = sqrt_upper(ell); times 16 b d
    ell, beta = ctx.ell, ctx.beta
    nine = 9**beta
    d = nine << 2 * ctx.alpha + 2
    root = sqrt_upper(ell)
    a, b = root.numerator, root.denominator
    gap = abs(count * d - ell * (nine - 1))
    return 16 * b * gap <= d * (64 * beta**2 * a + 33 * b)


def _odd_subgroup(ctx: PrimeContext) -> tuple[int, int]:
    """(n0, h): with g the smallest primitive root, h = g^(2^alpha)
    generates the n0 = (ell-1)/2^alpha units of odd order."""
    return (ctx.ell - 1) >> ctx.alpha, pow(primitive_root(ctx), 1 << ctx.alpha, ctx.ell)


def _nu3_levels(n: int, beta: int) -> np.ndarray:
    """int8 table of min(nu_3(j), beta) for j in [0, n); j = 0 maps to beta."""
    v3 = np.zeros(n, dtype=np.int8)
    for e in range(1, beta + 1):
        v3[:: 3**e] += 1
    return v3


def k_set(ctx: PrimeContext) -> KSetReport:
    """All k in [1, ell-2] passing the criterion, with the count report.

    One vectorized pass over the odd-order subgroup, k = h^j with h of
    order n0 = (ell-1)/2^alpha: every singular k has odd order, so it
    lies there. With v3[j] = min(nu_3(j), beta) = beta - nu_3(ord h^j)
    and the int8 table level (level[h^j] = v3[j], -1 off the subgroup,
    so failing against v3 >= 0), the conditions read (i) j not in {n0/3,
    2n0/3} and (ii)+(iii) v3[j] < level[-k^2-k], since -1, of order 2,
    leaves the 3-part of an order alone. Agrees with criterion().

    Peak memory is max(ell + 17*n0, 10*n0 + 56*count) bytes: the int64
    powers and -k^2-k, the level table and its gather; then the members.
    A scan whose first peak exceeds physical memory is refused with
    CapExceeded before any table is built.
    """
    if ctx.beta == 0:
        members: tuple[int, ...] = ()
    else:
        ell = ctx.ell
        n0, h = _odd_subgroup(ctx)
        check_memory(ell + 17 * n0, f"the k_set scan of ell={ell}")
        powers = power_table(h, n0, ell)
        level = np.full(ell, -1, dtype=np.int8)
        level[powers] = _nu3_levels(n0, ctx.beta)
        k = powers[1:]                   # k = h^j for j in [1, n0)
        neg = k + 1
        neg *= k
        neg %= ell
        np.subtract(ell, neg, out=neg)   # -k^2-k, a unit since k != 0, -1
        neg_level = level[neg]
        del neg, level                   # free both before the filters: peak memory
        hit = _nu3_levels(n0, ctx.beta)[1:] < neg_level
        hit[n0 // 3 - 1] = hit[2 * n0 // 3 - 1] = False  # (i); 3 | n0 as beta >= 1
        members = tuple(np.sort(k[hit]).tolist())
    return KSetReport(ctx=ctx, members=members)


def k_witness(ell: int, factors=None) -> int | None:
    """Some k in the singular set of ell, or None (certified empty).
    `factors`, the factorization of ell-1, comes from a caller that has
    proven ell prime; without it make_context tests and factors ell.

    Walks k = h^t over the subgroup of odd-order elements. Every
    singular k has odd order divisible by 3, so it lies on the walk.
    With 3^v = gcd(t, 3^beta) and v < beta, ord k has 3-adic
    valuation beta - v >= 1, and it is 3 iff n0 divides 3t. Such a k is
    singular iff -k^2-k lies in the odd subgroup at a level above v,
    that is iff its n0/3^(v+1)-th power is 1: one modular power.
    """
    ctx = make_context(ell) if factors is None else PrimeContext(ell, factors)
    if ctx.beta == 0:
        return None
    n0, h = _odd_subgroup(ctx)
    top = 3**ctx.beta
    k = 1
    for t in range(1, n0):
        k = k * h % ell
        g = math.gcd(t, top)     # 3^v3(t), capped at 3^beta
        if g == top or 3 * t % n0 == 0:
            continue             # order of k prime to 3, or exactly 3
        if pow(-k * (k + 1) % ell, n0 // (3 * g), ell) == 1:
            return k
    return None


def k_set_is_empty(ell: int, factors=None) -> bool:
    """True iff the singular set of ell is empty. `factors` is as for
    k_witness.

    False where the count bound excludes a count of 0, which proves the
    set non-empty; else k_witness decides, and None certifies it empty.
    """
    ctx = make_context(ell) if factors is None else PrimeContext(ell, factors)
    return count_within_bound(ctx, 0) and k_witness(ell, ctx.factors) is None


def m_value(ctx: PrimeContext, k: int) -> MStat:
    """lcm of the orders of -k^2-k and k."""
    check_k(ctx, k)
    ell = ctx.ell
    neg = (-(k * k + k)) % ell
    a = mult_order(neg, ctx).order
    b = mult_order(k, ctx).order
    return MStat(k=k, M=math.lcm(a, b))
