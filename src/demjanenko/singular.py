"""Singularity of the Demjanenko matrix via the order criterion.

Membership of k in the singular set is decided by three conditions on
the multiplicative orders of k, -k^2-k and k^2+k. Every singular k lies
in the subgroup of units of odd order, and this module owns both scans
of it: the singular set in one vectorized pass with one int8 table of
3-adic levels, and the walk that stops at the first singular k, which
certifies emptiness when it finds none. It also gives the count against
the asymptotic main term, the lcm statistic controlling the rank
defect, and verifies the character-sum identities behind the count
exactly, in integers.
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
    index_table,
    make_context,
    mult_order,
    power_table,
    primitive_root,
)
from .errors import BetaZero, HOutOfRange

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
    """True iff the singular set of ell is empty, certified by k_witness."""
    return k_witness(ell, factors) is None


def m_value(ctx: PrimeContext, k: int) -> MStat:
    """lcm of the orders of -k^2-k and k."""
    check_k(ctx, k)
    ell = ctx.ell
    neg = (-(k * k + k)) % ell
    a = mult_order(neg, ctx).order
    b = mult_order(k, ctx).order
    return MStat(k=k, M=math.lcm(a, b))


def indicator_zeta(ctx: PrimeContext, u: int) -> int:
    """1 iff the order of u has no factor 2."""
    return 1 if mult_order(u, ctx).nu2 == 0 else 0


def indicator_eta(ctx: PrimeContext, u: int, h: int) -> int:
    """1 iff the 3-adic valuation of the order of u equals h."""
    if not 0 <= h <= ctx.beta:
        raise HOutOfRange(f"h={h} outside [0, {ctx.beta}]")
    return 1 if mult_order(u, ctx).nu3 == h else 0


# ---------------------------------------------------------------------------
# Character-sum verification


def verify_character_identities(ctx: PrimeContext) -> list[str]:
    """Exact check, at every unit u, of the character identities behind
    the count; returns the failures, [] when all hold.

    The characters of order dividing d | n = ell-1 are chi_c(u) =
    zeta_d^(c ind(u)), c in [0, d), ind the log to the smallest primitive
    root g; S_d(u) is their sum: d where d | ind(u), as each term is 1,
    else 0. Both are checked mod ell at every u: at the prime above ell
    where zeta_n = g, chi_c(u) reduces to g^(c ind(u) n/d) = u^(c n/d), the
    Teichmueller reduction of `exact_rank`, summed term by term (so a wrong
    log fails). The 0 lifts: conjugation multiplies ind(u) by a unit mod d,
    so the sweep over all u puts S_d(u) in every prime above ell, hence in
    ell Z[zeta_d]; with |S_d| <= d < ell on every conjugate, the norm of
    S_d(u)/ell is an integer below 1 in size, so S_d(u) = 0.

    Against the orders from `mult_order`, denominators cleared: S_d(u) =
    d [ord u | n/d] for every d | n; S_(2^alpha)(u) = 2^alpha [ord u odd];
    and for h in [0, beta], with d = 3^(beta-h), (2 + [h = 0]) +
    3 (S_d - 1) - (S_3d - 1) = 3d [nu_3(ord u) = h], the last term 0 at
    h = 0, where no character has order 3^(beta+1).
    """
    ell, alpha, beta = ctx.ell, ctx.alpha, ctx.beta
    n = ell - 1
    ind = index_table(ctx)[1:]  # log of u = 1..n
    profiles = [mult_order(u, ctx) for u in range(1, ell)]
    orders, nu3 = np.array([(p.order, p.nu3) for p in profiles], dtype=np.int64).T

    def char_sum(d: int) -> np.ndarray:
        return np.where(ind % d == 0, d, 0)  # S_d, certified below for every d | n

    failures = []
    for d in _divisors(n):
        step = np.array([pow(u, n // d, ell) for u in range(1, ell)])  # chi_1(u), reduced
        term, reduced = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        for _ in range(d):
            reduced += term
            term = term * step % ell
        s = char_sum(d)
        if not np.array_equal(reduced % ell, s):
            failures.append(f"S_{d} differs mod {ell} from its sum of character values")
        if not np.array_equal(s, d * (n // d % orders == 0)):
            failures.append(f"orthogonality fails for the characters of order dividing {d}")

    two = 1 << alpha
    if not np.array_equal(char_sum(two), two * (orders % 2)):
        failures.append("the odd-order indicator is not its character average")
    for h in range(beta + 1):
        d1 = 3 ** (beta - h)
        s2 = char_sum(3 * d1) - 1 if h else 0
        lhs = 2 + (h == 0) + 3 * (char_sum(d1) - 1) - s2
        if not np.array_equal(lhs, 3 * d1 * (nu3 == h)):
            failures.append(f"the level-{h} indicator is not its character expansion")
    return failures


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


# ---------------------------------------------------------------------------
# Exact identity suite for the singular-count expansion


def a0_closed_form(ctx: PrimeContext) -> Fraction:
    return Fraction(1, 2 ** (2 * ctx.alpha + 2)) * (1 - Fraction(1, 3 ** (2 * ctx.beta)))


def a0_double_sum(ctx: PrimeContext) -> Fraction:
    """The telescoped double sum defining the constant coefficient."""
    alpha, beta = ctx.alpha, ctx.beta
    total = Fraction(0)
    for r in range(1, beta + 1):
        for s in range(r):
            theta_s = 1 if s == 0 else 0
            total += Fraction(2, 3 ** (beta - r + 1)) * Fraction(
                2 + theta_s, 3 ** (beta - s + 1)
            )
    return total / 2 ** (2 * alpha)


def _zeta_ext(ctx: PrimeContext, u: int) -> Fraction:
    """Odd-order indicator extended to 0 by the principal-character rule."""
    if u % ctx.ell == 0:
        return Fraction(1, 2**ctx.alpha)
    return Fraction(indicator_zeta(ctx, u))


def _eta_ext(ctx: PrimeContext, u: int, h: int) -> Fraction:
    if u % ctx.ell == 0:
        if h == 0:
            return Fraction(1, 3**ctx.beta)
        return Fraction(2, 3 ** (ctx.beta - h + 1))
    return Fraction(indicator_eta(ctx, u, h))


def b_value(ctx: PrimeContext, k: int) -> Fraction:
    """The summand of the singular-count expansion, exact rational.

    At k = 0 and k = -1 the arguments hit 0 and the principal-character
    convention (value 1 at 0, nonprincipal value 0) takes over.
    """
    ell, beta = ctx.ell, ctx.beta
    if beta == 0:
        raise BetaZero("expansion is empty when 3 does not divide ell-1")
    pos = k * (k + 1) % ell
    z = _zeta_ext(ctx, k) * _zeta_ext(ctx, ell - pos)
    if z == 0:
        return Fraction(0)
    total = Fraction(0)
    for r in range(1, beta + 1):
        er = _eta_ext(ctx, k, r)
        if er == 0:
            continue
        for s in range(r):
            total += er * _eta_ext(ctx, pos, s)
    return z * total


@dataclass(frozen=True)
class BSumReport:
    """Each named check with whether it held, and the computed k = -1 term."""

    checks: dict
    b_minus_one: Fraction


def verify_bsum_identities(ctx: PrimeContext) -> BSumReport:
    """Exact checks tying the expansion to the singular count.

    The closed form recorded for the k = -1 term fails for alpha >= 2:
    the order of -1 is 2, so its odd-order indicator vanishes and the
    term is identically 0, which the report carries.
    """
    if ctx.beta == 0:
        raise BetaZero("identities degenerate for beta = 0")
    ell = ctx.ell
    sum_b = sum((b_value(ctx, k) for k in range(1, ell - 1)), Fraction(0))
    evidence = [criterion(ctx, k) for k in range(1, ell - 1)]
    kstar_count = sum(1 for e in evidence if e.cond_ii and e.cond_iii)
    k_count = sum(1 for e in evidence if e.in_k_set)
    a0c = a0_closed_form(ctx)
    bm1 = b_value(ctx, ell - 1)
    checks = {
        "sum_equals_kstar": sum_b == kstar_count,
        "k_vs_kstar_within_2": abs(k_count - kstar_count) <= 2,
        "a0_closed_form": a0c == a0_double_sum(ctx),
        "b_zero_is_a0": b_value(ctx, 0) == a0c,
        "b_minus_one_closed_form": bm1 == (2**ctx.alpha - 2) * a0c,
    }
    return BSumReport(checks=checks, b_minus_one=bm1)
