"""Integer and modular arithmetic kernels.

Primality, factorization, multiplicative orders with their 2-adic and
3-adic valuations, power and discrete-log tables, and the checks of a
table's peak memory against the machine's and of a modulus against int64.
All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, KOutOfRange, NoPrimitiveRoot, NotPrime, NotUnit, RangeExceeded

# Sorenson & Webster witness set: Miller-Rabin with these bases is
# exhaustive (no pseudoprime) below 3.317e24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial division covers the small primes only; rho finds a prime factor
# p in about sqrt(p) squarings, so one below 10^6 costs it about 10^3,
# far fewer than trial division's bignum remainders up to p. Of 2^6..2^12,
# 2^8 factored n below 10^13 fastest and tied on the l_set resultants.
_TRIAL_LIMIT = 1 << 8
_TRIAL_PRIMES = tuple(
    p for p in range(2, _TRIAL_LIMIT + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))
)

# Work cap of one Brent-rho call, in squarings mod n times n's bit length,
# so it admits about 2^28/63 > 4e6 squarings below 2^63 and far fewer on
# huge numbers. Below 2^63 a composite cofactor has a prime factor of at
# most 2^31.5, which rho finds in about 10^5 squarings: the cap is never
# reached there.
_RHO_WORK_CAP = 1 << 28

# Physical memory of the machine in bytes, read once at import.
PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class PrimeContext:
    """A prime ell with the factorization of ell-1, sorted by prime;
    alpha, beta and m of ell-1 = 2^alpha 3^beta m are derived from it.
    The caller proves ell prime: make_context tests it, a sieve proves it."""

    ell: int
    factors: tuple[tuple[int, int], ...]
    alpha: int = field(init=False)
    beta: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        if math.prod(p**e for p, e in self.factors) != self.ell - 1:
            raise ValueError("factor list does not reconstruct ell-1")
        fd = dict(self.factors)
        alpha, beta = fd.get(2, 0), fd.get(3, 0)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "m", (self.ell - 1 >> alpha) // 3**beta)


@dataclass(frozen=True)
class OrderProfile:
    """Multiplicative order of a residue with its 2- and 3-adic valuations."""

    order: int
    nu2: int
    nu3: int


def check_memory(peak: int, what: str) -> None:
    """Refuse with CapExceeded a computation whose peak of `peak` bytes
    exceeds the machine's physical memory; call it before allocating."""
    if peak > PHYSICAL_MEMORY:
        raise CapExceeded(
            f"{what} needs {peak} bytes, over the {PHYSICAL_MEMORY} bytes of physical memory"
        )


def check_modulus(ell: int, what: str) -> None:
    """Refuse with RangeExceeded a modulus ell >= 2^31, past which the
    product of two residues can overflow int64."""
    if ell >= 1 << 31:
        raise RangeExceeded(f"{what} needs ell < 2^31, got {ell}")


def valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n (n > 0)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def probable_prime(n: int) -> bool:
    """Primality of any integer n: Miller-Rabin to the bases _WITNESSES.

    Deterministic below 3.317e24; above it the fixed witness set is
    heuristic (no counterexample known).
    """
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    # n >= 41 now, so every base is a unit below n
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant).

    Raises CapExceeded once the squarings exceed _RHO_WORK_CAP.
    """
    budget = _RHO_WORK_CAP // n.bit_length()
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise CapExceeded(
                    f"Pollard rho hit its work cap on a {len(str(n))}-digit composite"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # cycle degenerated; retry with the next polynomial


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1, sorted by prime.

    Trial division by the primes up to 2^8, then on each composite
    cofactor a square descent (a perfect square r^2 is replaced by r with
    doubled multiplicity) and Brent-Pollard rho; handles arbitrary-precision
    n (resultants factored downstream can exceed 2^63 and are often perfect
    squares). Raises CapExceeded when rho passes its work cap, which never
    happens below 2^63.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    stack = [(n, 1)] if n > 1 else []  # (factor, multiplicity)
    while stack:
        m, e = stack.pop()
        if m == 1:
            continue
        if probable_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.append((r, 2 * e))
            continue
        d = _brent_rho(m)
        k = 0
        while m % d == 0:  # all of d at once, so rho never finds it again
            m //= d
            k += 1
        stack.append((d, e * k))
        stack.append((m, e))
    return tuple(sorted(out.items()))


def make_context(ell: int) -> PrimeContext:
    """The PrimeContext of an odd prime ell; NotPrime for any other ell."""
    if ell < 3 or not probable_prime(ell):
        raise NotPrime(f"{ell} is not an odd prime")
    return PrimeContext(ell, factorize(ell - 1))


def check_k(ctx: PrimeContext, k: int) -> None:
    """Reject k outside [1, ell-2]."""
    if not 1 <= k <= ctx.ell - 2:
        raise KOutOfRange(f"k={k} outside [1, {ctx.ell - 2}]")


def mult_order(u: int, ctx: PrimeContext) -> OrderProfile:
    """Order of u mod ell by stripping prime factors from ell-1."""
    ell = ctx.ell
    r = u % ell
    if r == 0:
        raise NotUnit(f"{u} is divisible by {ell}")
    t = ell - 1
    for p, _ in ctx.factors:
        while t % p == 0 and pow(r, t // p, ell) == 1:
            t //= p
    return OrderProfile(order=t, nu2=valuation(t, 2), nu3=valuation(t, 3))


def primitive_root(ctx: PrimeContext) -> int:
    """Smallest primitive root modulo ctx.ell."""
    ell = ctx.ell
    exponents = [(ell - 1) // p for p, _ in ctx.factors]
    for g in range(2, ell):
        if all(pow(g, e, ell) != 1 for e in exponents):
            return g
    raise NoPrimitiveRoot(f"no generator mod {ell}")


def power_table(g: int, n: int, ell: int) -> np.ndarray:
    """g^j mod ell for j in [0, n), by doubling: each pass multiplies the
    filled prefix by the next power, in place. Requires ell < 2^31 so
    products fit in int64."""
    check_modulus(ell, "the power table")
    powers = np.empty(n, dtype=np.int64)
    powers[0] = 1
    size = 1
    while size < n:
        out = powers[size:2 * size]
        np.multiply(powers[:out.size], int(powers[size - 1]) * g % ell, out=out)
        np.remainder(out, ell, out=out)
        size *= 2
    return powers


def index_table(ctx: PrimeContext) -> np.ndarray:
    """Discrete logs to the smallest primitive root g: table ind with
    g^ind[x] = x for x in [1, ell-1].

    ind[0] is unused. Requires ell < 2^31 so products fit in int64.
    """
    ell = ctx.ell
    g = primitive_root(ctx)
    n = ell - 1
    powers = power_table(g, n, ell)
    ind = np.empty(ell, dtype=np.int64)
    ind[0] = -1
    ind[powers] = np.arange(n, dtype=np.int64)
    return ind
