"""Singularity of the Demjanenko matrix via the order criterion.

Membership of k in the singular set is decided by three conditions on
the multiplicative orders of k, -k^2-k and k^2+k. This module computes
the set in one vectorized pass over the odd-order subgroup, its count
against the asymptotic main term, the lcm statistic controlling the
rank defect, and numerically verifies the character-sum identities
behind the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import (
    OrderProfile,
    PrimeContext,
    check_k,
    index_table,
    mult_order,
    odd_subgroup_tables,
)
from .errors import BetaZero, CapExceeded, HOutOfRange


@dataclass(frozen=True)
class CriterionEvidence:
    k: int
    ord_k: OrderProfile
    ord_neg: OrderProfile  # order of -k^2-k
    ord_pos: OrderProfile  # order of k^2+k
    cond_i: bool
    cond_ii: bool
    cond_iii: bool

    @property
    def in_k_set(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


@dataclass(frozen=True)
class KSetReport:
    ctx: PrimeContext
    members: tuple[int, ...]
    main_term: Fraction
    error_bound: Fraction

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def within_bound(self) -> bool:
        return abs(self.count - self.main_term) <= self.error_bound

    def to_json(self) -> dict:
        return {
            "ell": self.ctx.ell,
            "alpha": self.ctx.alpha,
            "beta": self.ctx.beta,
            "m": self.ctx.m,
            "count": self.count,
            "members": list(self.members),
            "main_term": _frac_str(self.main_term),
            "error_bound": _frac_str(self.error_bound),
            "within_bound": self.within_bound,
        }


@dataclass(frozen=True)
class MStat:
    k: int
    M: int


def _frac_str(f: Fraction) -> str:
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
        k=k,
        ord_k=ord_k,
        ord_neg=ord_neg,
        ord_pos=ord_pos,
        cond_i=ord_k.order != 3,
        cond_ii=ord_k.nu2 == 0 and ord_neg.nu2 == 0,
        cond_iii=ord_k.nu3 > ord_pos.nu3,
    )


def sqrt_upper(n: int, digits: int = 6) -> Fraction:
    """Rational upper bound for sqrt(n) with error below 10^-digits."""
    scale = 10**digits
    return Fraction(math.isqrt(n * scale * scale) + 1, scale)


def main_term(ctx: PrimeContext) -> Fraction:
    return Fraction(ctx.ell, 2 ** (2 * ctx.alpha + 2)) * (
        1 - Fraction(1, 3 ** (2 * ctx.beta))
    )


def error_bound(ctx: PrimeContext) -> Fraction:
    return 4 * ctx.beta**2 * sqrt_upper(ctx.ell) + Fraction(33, 16)


def _nu3_table(n: int, beta: int) -> np.ndarray:
    """int8 table of min(nu_3(j), beta) for j in [0, n); j = 0 maps to beta."""
    v3 = np.zeros(n, dtype=np.int8)
    for e in range(1, beta + 1):
        v3[:: 3**e] += 1
    return v3


def k_set(ctx: PrimeContext, scan_cap: int = 1 << 26) -> KSetReport:
    """All k in [1, ell-2] passing the criterion, with the count report.

    One vectorized pass over the odd-order subgroup, k = h^j with h of
    order n0 = (ell-1)/2^alpha: every singular k has odd order, so it
    lies there. With the subgroup log L (-1 off the subgroup), the
    conditions read (i) j not in {n0/3, 2n0/3}, (ii) L[-k^2-k] >= 0 and
    (iii) min(nu_3(j), beta) < min(nu_3(L[-k^2-k]), beta), because
    nu_3(ord h^j) = beta - min(nu_3(j), beta) and -1, of order 2, leaves
    the 3-part of an order alone. Agrees with criterion() for every k.
    """
    if ctx.beta == 0:
        members: tuple[int, ...] = ()
    else:
        ell = ctx.ell
        if ell > scan_cap:
            raise CapExceeded(f"k_set scan of ell={ell} exceeds cap {scan_cap}")
        n0 = (ell - 1) >> ctx.alpha
        powers, log = odd_subgroup_tables(ctx)
        k = powers[1:]                   # k = h^j for j in [1, n0)
        neg = k + 1
        neg *= k
        neg %= ell
        np.subtract(ell, neg, out=neg)   # -k^2-k, a unit since k != 0, -1
        t = log[neg]
        del neg, log                     # free both before the filters: peak memory
        j = np.flatnonzero(t >= 0) + 1   # (ii): -k^2-k has odd order
        t = t[j - 1]
        v3 = _nu3_table(n0, ctx.beta)
        hit = (v3[j] < v3[t]) & (3 * j != n0) & (3 * j != 2 * n0)
        members = tuple(np.sort(powers[j[hit]]).tolist())
    return KSetReport(
        ctx=ctx,
        members=members,
        main_term=main_term(ctx),
        error_bound=error_bound(ctx),
    )


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


@dataclass(frozen=True)
class CharacterReport:
    ell: int
    tolerance: float
    max_dev_orthogonality: float
    max_dev_zeta: float
    max_dev_eta: float

    @property
    def ok(self) -> bool:
        return (
            max(self.max_dev_orthogonality, self.max_dev_zeta, self.max_dev_eta)
            < self.tolerance
        )


def verify_character_identities(
    ctx: PrimeContext, tolerance: float = 1e-9, cap: int = 200
) -> CharacterReport:
    """Realize the character group explicitly and check, for every unit u:
    the divisor orthogonality relation, the character average for the
    odd-order indicator, and the two-term expression for the 3-adic
    level indicators.
    """
    ell, alpha, beta = ctx.ell, ctx.alpha, ctx.beta
    if ell > cap:
        raise CapExceeded(f"character verification capped at ell <= {cap}")
    n = ell - 1
    ind = index_table(ctx)[1:]  # log of u = 1..ell-1
    orders = n // np.gcd(ind, n)

    def char_sum(d: int) -> np.ndarray:
        # sum over the d characters of order dividing d, at every u
        c = np.arange(d)
        phases = np.exp(2j * math.pi * np.outer(c * (n // d), ind) / n)
        return phases.sum(axis=0)

    dev_orth = 0.0
    for t in _divisors(n):
        d = n // t
        lhs = char_sum(d) / d
        rhs = (np.int64(t) % orders == 0).astype(float)  # u^t = 1 iff ord | t
        dev_orth = max(dev_orth, float(np.abs(lhs - rhs).max()))

    two = 1 << alpha
    zeta_lhs = char_sum(two) / two
    zeta_rhs = (orders % 2 == 1).astype(float)
    dev_zeta = float(np.abs(zeta_lhs - zeta_rhs).max())

    dev_eta = 0.0
    nu3 = np.zeros(n, dtype=np.int64)
    o = orders.copy()
    while (o % 3 == 0).any():
        mask = o % 3 == 0
        nu3 += mask
        o[mask] //= 3
    for h in range(beta + 1):
        theta = 1 if h == 0 else 0
        d1 = 3 ** (beta - h)
        s1 = char_sum(d1) - 1.0  # non-principal part
        if h == 0:
            s2 = np.zeros(n)  # characters of order 3^{beta+1} do not exist
        else:
            s2 = char_sum(3 ** (beta - h + 1)) - 1.0
        lhs = (2 + theta) / (3 ** (beta - h + 1)) + s1 / d1 - s2 / (3 ** (beta - h + 1))
        rhs = (nu3 == h).astype(float)
        dev_eta = max(dev_eta, float(np.abs(lhs - rhs).max()))

    return CharacterReport(
        ell=ell,
        tolerance=tolerance,
        max_dev_orthogonality=dev_orth,
        max_dev_zeta=dev_zeta,
        max_dev_eta=dev_eta,
    )


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
    ell: int
    sum_b: Fraction              # over k in [1, ell-2]
    kstar_count: int
    k_count: int
    a0_closed: Fraction
    a0_sum: Fraction
    b_zero: Fraction
    b_minus_one: Fraction
    b_minus_one_expected: Fraction
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def verify_bsum_identities(ctx: PrimeContext) -> BSumReport:
    """Exact checks tying the expansion to the singular count.

    The closed form recorded for the k = -1 term fails for alpha >= 2:
    the order of -1 is 2, so its odd-order indicator vanishes and the
    term is identically 0. The report carries both values.
    """
    if ctx.beta == 0:
        raise BetaZero("identities degenerate for beta = 0")
    ell = ctx.ell
    sum_b = sum((b_value(ctx, k) for k in range(1, ell - 1)), Fraction(0))
    evidence = [criterion(ctx, k) for k in range(1, ell - 1)]
    kstar_count = sum(1 for e in evidence if e.cond_ii and e.cond_iii)
    k_count = sum(1 for e in evidence if e.in_k_set)
    a0c = a0_closed_form(ctx)
    a0s = a0_double_sum(ctx)
    b0 = b_value(ctx, 0)
    bm1 = b_value(ctx, ell - 1)
    bm1_expected = (2**ctx.alpha - 2) * a0c
    checks = {
        "sum_equals_kstar": sum_b == kstar_count,
        "k_vs_kstar_within_2": abs(k_count - kstar_count) <= 2,
        "a0_closed_form": a0c == a0s,
        "b_zero_is_a0": b0 == a0c,
        "b_minus_one_closed_form": bm1 == bm1_expected,
    }
    return BSumReport(
        ell=ell,
        sum_b=sum_b,
        kstar_count=kstar_count,
        k_count=k_count,
        a0_closed=a0c,
        a0_sum=a0s,
        b_zero=b0,
        b_minus_one=bm1,
        b_minus_one_expected=bm1_expected,
        checks=checks,
    )
