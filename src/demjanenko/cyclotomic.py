"""Exact cyclotomic polynomials and resultants over the integers.

Polynomials are coefficient lists, constant term first. Phi_n is built
from the factors X^d - 1 over the divisors d of the radical r of n, each
a one-pass multiply or exact divide, and spread out as Phi_r(X^(n/r)).
The resultant uses the subresultant polynomial remainder sequence, so
everything stays in arbitrary-precision integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .arith import factorize
from .errors import CapExceeded, DegenerateParameters, ZeroPolynomial

CYCLOTOMIC_CAP = 1_000_000

# l_set refuses parameters whose bound 3^(phi(3^a d) phi(3^b e)) on |Res|
# has more than this many digits, before the PRS: (5, 4) and (6, 3) bound
# 4174 digits and end in the factorization's work cap within seconds;
# (6, 4) bounds 12522 digits and took 38 s to reach that cap, and (6, 5)
# bounds 37566 digits and its PRS ran past 200 s.
_RESULTANT_DIGIT_CAP = 5000


@dataclass(frozen=True)
class IntPolynomial:
    coefficients: tuple[int, ...]

    def __post_init__(self):
        c = self.coefficients
        if c and c[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def is_zero(self) -> bool:
        return not self.coefficients


def poly(coeffs) -> IntPolynomial:
    c = [int(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return IntPolynomial(tuple(c))


@functools.lru_cache(maxsize=None)
def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    primes = [p for p, _ in factorize(n)]
    r = math.prod(primes)
    deg = math.prod(p - 1 for p in primes)
    # Phi_r = prod over d | r of (1 - X^d)^mu(r/d) for r > 1, as a power
    # series cut past degree phi(r); there dividing by 1 - X^d is always
    # exact, so the factors may come in any order
    c = [1] + [0] * deg
    for k in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            d = r // math.prod(chosen)
            if d > deg:  # 1 - X^d is 1 below the cut
                continue
            if k % 2:  # divide by 1 - X^d: c[i] += c[i - d]
                for j in range(d):
                    c[j::d] = itertools.accumulate(c[j::d])
            else:  # multiply by 1 - X^d: c[i] -= c[i - d]
                c[d:] = [x - y for x, y in zip(c[d:], c)]
    # Phi_n(X) = Phi_r(X^(n/r))
    step = n // r
    out = [0] * (deg * step + 1)
    out[::step] = c
    return tuple(out)


def cyclotomic_poly(n: int) -> IntPolynomial:
    """The nth cyclotomic polynomial, exact integer coefficients."""
    if not 1 <= n <= CYCLOTOMIC_CAP:
        raise CapExceeded(f"cyclotomic index must be in [1, {CYCLOTOMIC_CAP}]")
    return IntPolynomial(_cyclotomic_coeffs(n))


def compose_neg_quadratic(p: IntPolynomial) -> IntPolynomial:
    """p(-X^2 - X), expanded exactly (Horner in the outer variable)."""
    acc = list(p.coefficients[-1:])
    for c in reversed(p.coefficients[:-1]):
        # acc * (-X - X^2) + c: coefficient i + 1 is -(acc[i] + acc[i - 1])
        acc = [c] + [-(x + y) for x, y in zip(acc + [0], [0] + acc)]
    return poly(acc)


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b): remainder of lc(b)^(deg a - deg b + 1) * a by b, for
    deg a >= deg b. The scaled a has an integer quotient by b, so each
    quotient coefficient r[top] // lc(b) is exact, and a step touches
    only the deg b coefficients under b."""
    db = len(b) - 1
    lb = b[-1]
    f = lb ** (len(a) - db)
    r = [c * f for c in a]
    for top in range(len(a) - 1, db - 1, -1):
        c = r[top] // lb
        r[top - db : top] = [x - c * y for x, y in zip(r[top - db : top], b)]
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return r


def _content(a: list[int]) -> int:
    return math.gcd(*a) if a else 0


def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Res(p, q) with the Sylvester-determinant sign convention,
    computed by the subresultant PRS."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    a, b = list(p.coefficients), list(q.coefficients)
    s = 1
    if len(a) < len(b):
        if ((len(a) - 1) * (len(b) - 1)) % 2:
            s = -s
        a, b = b, a
    ca, cb = _content(a), _content(b)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    g = h = 1
    while len(b) - 1 > 0:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if (da % 2) and (db % 2):
            s = -s
        r = _pseudo_rem(a, b)
        if not r:
            return 0  # common factor
        a = b
        b = [x // (g * h**delta) for x in r]
        g = a[-1]
        if delta > 0:
            h = g**delta // h ** (delta - 1)
    # deg b == 0
    da = len(a) - 1
    h = b[0] ** da // h ** (da - 1) if da > 0 else 1
    return s * t * h


@dataclass(frozen=True)
class ResultantRecord:
    """Resultant of the two cyclotomic-derived polynomials for
    parameters (a, b, d, e), with its distinct prime divisors."""

    a: int
    b: int
    d: int
    e: int
    resultant: int
    prime_divisors: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "d": self.d,
            "e": self.e,
            "resultant": str(self.resultant),
            "primes": list(self.prime_divisors),
        }


def l_set(a: int, b: int, d: int, e: int) -> ResultantRecord:
    """Res of the order-3^a*d cyclotomic against the order-3^b*e
    cyclotomic composed with -X^2-X, plus its prime divisors.

    p = Phi_{3^a d} is monic, so |Res| is the product of |q(-z^2-z)| over
    the roots z of p, where |-z^2-z| = |z+1| <= 2 makes each root of
    q = Phi_{3^b e} at most 3 away: |Res| <= 3^(deg p * deg q). CapExceeded
    when that bound has more than _RESULTANT_DIGIT_CAP digits.
    """
    if a < 1 or b < 0 or b > a - 1:
        raise ValueError(f"need 1 <= a and 0 <= b <= a-1, got a={a}, b={b}")
    if d < 1 or e < 1:
        raise ValueError(f"need d >= 1 and e >= 1, got d={d}, e={e}")
    if math.gcd(d, 6) != 1 or math.gcd(e, 6) != 1:
        raise ValueError("d and e must be coprime to 6")
    # Only a=1, d=1 lets the two share a root: a common root x is a root of
    # unity with |x(x+1)| = 1, so |x+1| = 1 and x = e^{+-2 pi i/3}.
    if a == 1 and d == 1:
        raise DegenerateParameters("a=1, d=1 puts cube roots of unity in both")
    # 3^a > 2^a (and b < a), so an a past the cap's bit length is refused
    # before any power of 3 is built
    if a > CYCLOTOMIC_CAP.bit_length() or max(3**a * d, 3**b * e) > CYCLOTOMIC_CAP:
        raise CapExceeded(
            f"3^a*d and 3^b*e must not exceed the cyclotomic cap {CYCLOTOMIC_CAP}"
        )
    p = cyclotomic_poly(3**a * d)
    q = cyclotomic_poly(3**b * e)
    exponent = (len(p.coefficients) - 1) * (len(q.coefficients) - 1)
    # 27^cap > 10^cap: an exponent past 3 * cap is refused without its power
    if 3 ** min(exponent, 3 * _RESULTANT_DIGIT_CAP) >= 10**_RESULTANT_DIGIT_CAP:
        raise CapExceeded(
            f"the resultant is bounded by 3^{exponent}, which has more than "
            f"{_RESULTANT_DIGIT_CAP} digits"
        )
    res = resultant(p, compose_neg_quadratic(q))
    primes = tuple(pp for pp, _ in factorize(abs(res)))
    return ResultantRecord(a=a, b=b, d=d, e=e, resultant=res, prime_divisors=primes)
