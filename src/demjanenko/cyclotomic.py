"""Exact cyclotomic polynomials and resultants over the integers.

Polynomials are coefficient lists, constant term first. The resultant
uses the subresultant polynomial remainder sequence, so everything stays
in arbitrary-precision integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .arith import factorize
from .errors import CapExceeded, DegenerateParameters, ZeroPolynomial

CYCLOTOMIC_CAP = 1_000_000


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


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """Quotient of a by b in Z[X]; raises if the division is not exact."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        head = r[db + i]
        if head % lb:
            raise ArithmeticError("inexact polynomial division")
        c = head // lb
        q[i] = c
        if c:
            for j in range(db + 1):
                r[i + j] -= c * b[j]
    if any(r):
        raise ArithmeticError("nonzero remainder in exact division")
    return q


@functools.lru_cache(maxsize=None)
def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    # X^n - 1 divided by the product of all proper-divisor cyclotomics
    num = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _mul(den, list(_cyclotomic_coeffs(d)))
    return tuple(_exact_div(num, den))


def cyclotomic_poly(n: int) -> IntPolynomial:
    """The nth cyclotomic polynomial, exact integer coefficients."""
    if not 1 <= n <= CYCLOTOMIC_CAP:
        raise CapExceeded(f"cyclotomic index {n} outside [1, {CYCLOTOMIC_CAP}]")
    return IntPolynomial(_cyclotomic_coeffs(n))


def compose_neg_quadratic(p: IntPolynomial) -> IntPolynomial:
    """p(-X^2 - X), expanded exactly (Horner in the outer variable)."""
    inner = [0, -1, -1]
    acc: list[int] = []
    for c in reversed(p.coefficients):
        acc = _mul(acc, inner)
        if c:
            if not acc:
                acc = [c]
            else:
                acc[0] += c
    return poly(acc)


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b): remainder of lc(b)^(deg a - deg b + 1) * a by b."""
    db = len(b) - 1
    lb = b[-1]
    e = len(a) - 1 - db + 1
    r = list(a)
    while r and len(r) - 1 >= db:
        top = r[-1]
        shift = len(r) - 1 - db
        new = [lb * c for c in r[:-1]]
        for j in range(db):
            new[shift + j] -= top * b[j]
        while new and new[-1] == 0:
            new.pop()
        r = new
        e -= 1
    if e > 0 and r:
        f = lb**e
        r = [c * f for c in r]
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
    cyclotomic composed with -X^2-X, plus its prime divisors."""
    if a < 1 or b < 0 or b > a - 1:
        raise ValueError(f"need 1 <= a and 0 <= b <= a-1, got a={a}, b={b}")
    if math.gcd(d, 6) != 1 or math.gcd(e, 6) != 1:
        raise ValueError("d and e must be coprime to 6")
    # Only a=1, d=1 lets the two share a root: a common root x is a root of
    # unity with |x(x+1)| = 1, so |x+1| = 1 and x = e^{+-2 pi i/3}.
    if a == 1 and d == 1:
        raise DegenerateParameters("a=1, d=1 puts cube roots of unity in both")
    p = cyclotomic_poly(3**a * d)
    q = compose_neg_quadratic(cyclotomic_poly(3**b * e))
    res = resultant(p, q)
    primes = tuple(pp for pp, _ in factorize(abs(res)))
    return ResultantRecord(a=a, b=b, d=d, e=e, resultant=res, prime_divisors=primes)
