"""Cross-checking suites: every fast path against an independent route.

Each per-prime suite returns a list of failure descriptions; an empty
list means the property held everywhere in range. The suites take each
prime's context from the sieve, by `search.prime_contexts`, so no prime
is tested or factored again. The count bound has no suite here: the
census checks it at every prime it reports. The exact identity checks
behind the singular count live here too: the character sums and
indicator expansions, checked in integers at every unit, and the
rational expansion of the count with its constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import PrimeContext, check_memory, check_modulus, index_table, mult_order
from .errors import BetaZero, NonIntegerRank
from .matrix import DemjanenkoMatrix, build_matrix, rank_formula_value
from .search import odd_primes, ordered_map, prime_contexts
from .singular import a0_closed_form, criterion, k_set, m_value


def _per_prime(check, max_ell: int, workers: int) -> list[str]:
    """The failures `check(ctx)` reports over the contexts of the odd
    primes up to max_ell, on a pool of `workers` processes when there is
    more than one."""
    if workers < 1:
        raise ValueError("workers must be positive")
    with ordered_map(check, prime_contexts(odd_primes(max_ell)), workers) as chunks:
        return [msg for chunk in chunks for msg in chunk]


def power_sum_rank(dm: DemjanenkoMatrix) -> int:
    """Rank of the matrix over the rationals, exact, from power sums over
    its reps: the oracle of `matrix.hodge_rank`, sharing no arithmetic.

    Up to row and column signs the matrix is the group matrix over
    (Z/ell)^*/(+-W) of the odd, W-invariant sign function, so its
    eigenvalues are lambda_t = sum_r omega(r)^t over the reps, omega the
    Teichmueller character and t odd with |W| | t. At a prime above ell,
    omega(x) = x and lambda_t reduces to the power sum sum_r r^t mod ell.
    The t with one d = gcd(t, ell-1) are one Galois orbit, as conjugation
    moves lambda_t to lambda_at for the units a mod ell-1. If every power
    sum in an orbit vanishes, ell^phi divides the norm of lambda while
    |lambda| <= dim < ell bounds it below ell^phi, so lambda = 0;
    otherwise lambda != 0. The rank is the size of the orbits with a
    nonzero power sum.

    Each orbit stops at its first nonzero power sum, trying t = d (odd, a
    multiple of |W|) first. Peak memory is about 32 bytes a rep.
    """
    n, ell, w = dm.dimension, dm.ell, dm.stabilizer_size
    check_modulus(ell, "the power-sum rank")
    check_memory(32 * n, f"the power-sum rank of a dimension-{n} matrix")
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


def k_set_oracle(ctx: PrimeContext) -> list[int]:
    """Independent route: k is in the set iff the matrix rank is deficient.

    Singularity comes from `power_sum_rank` over the half-plane reps,
    which never consults the order criterion.
    """
    out = []
    for k in range(1, ctx.ell - 1):
        dm = build_matrix(ctx, k)
        if power_sum_rank(dm) < dm.dimension:
            out.append(k)
    return out


def _oracle_one(ctx: PrimeContext) -> list[str]:
    fast = set(k_set(ctx).members)
    slow = set(k_set_oracle(ctx))
    if fast != slow:
        return [f"ell={ctx.ell}: criterion {sorted(fast)} != matrix oracle {sorted(slow)}"]
    return []


def oracle_suite(max_ell: int = 200, workers: int = 1) -> list[str]:
    """Criterion membership vs singularity of the actual matrix."""
    return _per_prime(_oracle_one, max_ell, workers)


# ---------------------------------------------------------------------------
# Character-sum identities


def verify_character_identities(ctx: PrimeContext) -> list[str]:
    """Exact check, at every unit u, of the character identities behind
    the count; returns the failures, [] when all hold.

    The characters of order dividing d | n = ell-1 are chi_c(u) =
    zeta_d^(c ind(u)), c in [0, d), ind the log to the smallest primitive
    root g; S_d(u) is their sum: d where d | ind(u), as each term is 1,
    else 0. Both are checked mod ell at every u: at the prime above ell
    where zeta_n = g, chi_c(u) reduces to g^(c ind(u) n/d) = u^(c n/d), the
    Teichmueller reduction of `power_sum_rank`, summed term by term (so a wrong
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
    for d in _divisors(ctx.factors):
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


def _divisors(factors: tuple[tuple[int, int], ...]) -> list[int]:
    """Every divisor of the product of the prime powers in factors, ascending."""
    out = [1]
    for p, e in factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# Exact identity suite for the singular-count expansion


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
    """1 iff the order of u is odd, extended to 0 by the
    principal-character rule."""
    if u % ctx.ell == 0:
        return Fraction(1, 2**ctx.alpha)
    return Fraction(int(mult_order(u, ctx).nu2 == 0))


def _eta_ext(ctx: PrimeContext, u: int, h: int) -> Fraction:
    """1 iff the order of u has 3-adic valuation h, h in [0, beta],
    extended to 0 by the principal-character rule."""
    if u % ctx.ell == 0:
        if h == 0:
            return Fraction(1, 3**ctx.beta)
        return Fraction(2, 3 ** (ctx.beta - h + 1))
    return Fraction(int(mult_order(u, ctx).nu3 == h))


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


def _identities_one(ctx: PrimeContext) -> list[str]:
    out = verify_character_identities(ctx)
    if ctx.beta >= 1:
        rep = verify_bsum_identities(ctx)
        out += [f"{name} failed" for name, ok in rep.checks.items() if not ok]
    return [f"ell={ctx.ell}: {msg}" for msg in out]


def identities_suite(max_ell: int = 200, workers: int = 1) -> list[str]:
    """Character orthogonality, indicator expansions, and the exact
    rational identities behind the count."""
    return _per_prime(_identities_one, max_ell, workers)


def _rankformula_one(ctx: PrimeContext) -> list[str]:
    out = []
    for k in k_set(ctx).members:
        rank = power_sum_rank(build_matrix(ctx, k))
        try:
            expected = rank_formula_value(ctx, k, m_value(ctx, k).M)
        except NonIntegerRank as exc:
            out.append(f"ell={ctx.ell} k={k}: {exc}")
            continue
        if rank != expected:
            out.append(f"ell={ctx.ell} k={k}: rank {rank} != formula {expected}")
    return out


def rankformula_suite(max_ell: int = 500, workers: int = 1) -> list[str]:
    """Power-sum matrix rank against the lcm-defect formula, singular k only."""
    return _per_prime(_rankformula_one, max_ell, workers)
