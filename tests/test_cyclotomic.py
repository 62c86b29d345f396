"""Cyclotomic polynomials and subresultant resultants against sympy."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from sympy.abc import x as sym_x

from demjanenko import arith, cyclotomic
from demjanenko.arith import factorize
from demjanenko.cyclotomic import (
    IntPolynomial,
    compose_neg_quadratic,
    cyclotomic_poly,
    l_set,
    poly,
    resultant,
)
from demjanenko.errors import CapExceeded, DegenerateParameters, ZeroPolynomial


def _to_sympy(p: IntPolynomial):
    return sympy.Poly(list(reversed(p.coefficients)), sym_x)


def test_cyclotomic_small_values():
    assert cyclotomic_poly(1).coefficients == (-1, 1)
    assert cyclotomic_poly(2).coefficients == (1, 1)
    assert cyclotomic_poly(3).coefficients == (1, 1, 1)
    assert cyclotomic_poly(6).coefficients == (1, -1, 1)
    assert cyclotomic_poly(9).coefficients == (1, 0, 0, 1, 0, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12, 30, 105, 128, 200, 1155, 2310])
def test_cyclotomic_matches_sympy(n):
    ours = _to_sympy(cyclotomic_poly(n))
    assert ours == sympy.Poly(sympy.cyclotomic_poly(n, sym_x), sym_x)


def test_divisor_product_identity():
    # prod over d | n of Phi_d = X^n - 1
    for n in (1, 2, 6, 12, 36, 60, 100, 1155, 15015):
        prod = sympy.Poly(1, sym_x)
        for d in range(1, n + 1):
            if n % d == 0:
                prod *= _to_sympy(cyclotomic_poly(d))
        assert prod == sympy.Poly(sym_x**n - 1, sym_x)


def test_cyclotomic_cap():
    with pytest.raises(CapExceeded):
        cyclotomic_poly(0)
    with pytest.raises(CapExceeded):
        cyclotomic_poly(10**7)
    # past Python's 4300-digit int -> str limit, so the message must not
    # format the index
    with pytest.raises(CapExceeded, match="1000000"):
        cyclotomic_poly(10**5000)


def test_compose_neg_quadratic_examples():
    # (X - 1) o (-X^2 - X) = -X^2 - X - 1
    assert compose_neg_quadratic(poly([-1, 1])).coefficients == (-1, -1, -1)
    # Phi_3(-X^2-X) = X^4 + 2X^3 + ... by direct sympy expansion
    p = cyclotomic_poly(3)
    composed = compose_neg_quadratic(p)
    expected = sympy.Poly(
        sympy.expand(sympy.cyclotomic_poly(3, -sym_x**2 - sym_x)), sym_x
    )
    assert _to_sympy(composed) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 12, 27])
def test_compose_matches_sympy(n):
    composed = compose_neg_quadratic(cyclotomic_poly(n))
    expected = sympy.Poly(
        sympy.expand(sympy.cyclotomic_poly(n, -sym_x**2 - sym_x)), sym_x
    )
    assert _to_sympy(composed) == expected


def _sylvester_resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Independent oracle: determinant of the Sylvester matrix over Q."""
    a = list(reversed(p.coefficients))
    b = list(reversed(q.coefficients))
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + a + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + b + [0] * (m - 1 - i))
    # fraction-free determinant via Bareiss
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if mat[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for r in range(c + 1, size):
            f = mat[r][c] * inv
            if f:
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[c])]
    assert det.denominator == 1
    return int(det)


def test_resultant_small_cases():
    p = poly([-1, 1])         # X - 1
    q = poly([-2, 1])         # X - 2
    assert resultant(p, q) == -1  # p(2) * sign = 1*... det convention
    assert resultant(q, p) == 1
    assert resultant(p, p) == 0


@pytest.mark.parametrize(
    "pc,qc",
    [
        ([-1, 1], [-2, 1]),
        ([1, 1, 1], [2, 0, 1]),
        ([1, 0, -3, 1], [5, 1]),
        ([2, -1, 0, 1], [1, 1, 1, 1]),
        ([1, 2, 3, 4, 5], [-1, 0, 2]),
        # non-monic divisors several degrees shorter: exact division
        ([1, 2, 0, -1, 0, 3], [5, 0, 2]),
        ([-4, 1, 1, 0, 0, 0, 7], [3, 2]),
    ],
)
def test_resultant_matches_sylvester_and_sympy(pc, qc):
    p, q = poly(pc), poly(qc)
    ours = resultant(p, q)
    assert ours == _sylvester_resultant(p, q)
    assert ours == int(sympy.resultant(_to_sympy(p).as_expr(), _to_sympy(q).as_expr(), sym_x))


def test_resultant_cyclotomic_pairs_match_sympy():
    for a, b in [(2, 1), (3, 1), (3, 2)]:
        p = cyclotomic_poly(3**a)
        q = compose_neg_quadratic(cyclotomic_poly(3**b))
        ours = resultant(p, q)
        assert ours == int(
            sympy.resultant(_to_sympy(p).as_expr(), _to_sympy(q).as_expr(), sym_x)
        )


def test_resultant_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        resultant(poly([]), poly([1, 1]))


def test_resultant_float_sanity():
    # |Res(p, q)| = |lc(q)|^deg p * prod |p(root of q)|
    import numpy as np

    p = cyclotomic_poly(9)
    q = compose_neg_quadratic(cyclotomic_poly(3))
    roots = np.roots(list(reversed(q.coefficients)))
    approx = abs(np.prod([np.polyval(list(reversed(p.coefficients)), r) for r in roots]))
    assert math.isclose(abs(resultant(p, q)), approx, rel_tol=1e-6)


def test_l_set_known_values():
    assert l_set(2, 1, 1, 1).prime_divisors == (3,)
    assert l_set(3, 2, 1, 1).prime_divisors == (3, 271)
    assert l_set(3, 1, 1, 1).prime_divisors == (3, 271)
    assert l_set(1, 0, 5005, 1).resultant == 1
    # a long p (degree 10004) against a short q: the PRS divides by a quadratic
    rec = l_set(1, 0, 5003, 1)
    assert rec.resultant == 25030009
    assert rec.prime_divisors == (5003,)


# the prime divisors of the l_set inputs the benchmark factors
_BENCH_L_SETS = {
    (5, 2, 1, 1): (3, 1459, 2917, 867511, 1832221, 87846931, 2702695087,
                   5413107367, 26992241713, 330016214089),
    (4, 3, 1, 1): (3, 163, 77761, 4110751, 8868367, 10055827),
    (4, 2, 1, 1): (3, 163, 77761, 4110751, 10055827),
    (3, 2, 5, 1): (1621, 4861, 6211, 47251, 2736451, 5979118681),
}


@pytest.mark.parametrize("abde", list(_BENCH_L_SETS), ids=str)
def test_l_set_bench_inputs(abde):
    rec = l_set(*abde)
    assert rec.prime_divisors == _BENCH_L_SETS[abde]
    n = abs(rec.resultant)
    assert math.prod(p**e for p, e in factorize(n)) == n


def test_l_set_rho_sees_nothing_above_2_63(monkeypatch):
    # p-1 splits every prime of this resultant off before rho runs
    rho_inputs = []
    brent_rho = arith._brent_rho

    def recording(n, budget):
        rho_inputs.append(n)
        return brent_rho(n, budget)

    monkeypatch.setattr(arith, "_brent_rho", recording)
    assert l_set(5, 2, 1, 1).prime_divisors == _BENCH_L_SETS[(5, 2, 1, 1)]
    assert all(n < 1 << 63 for n in rho_inputs)


def _resultant_exponent(a, b, d, e):
    """deg Phi_{3^a d} * deg Phi_{3^b e}: |Res| <= 3 to this power."""
    return int(sympy.totient(3**a * d) * sympy.totient(3**b * e))


# the ten l_set inputs the benchmark draws from
_BENCH_POOL = [(2, 1, 1, 1), (3, 2, 1, 1), (3, 1, 1, 1), (5, 2, 1, 1), (4, 1, 1, 1),
               (4, 2, 1, 1), (4, 3, 1, 1), (3, 1, 1, 5), (3, 2, 5, 1), (2, 1, 5, 1)]


@pytest.mark.parametrize("abde", _BENCH_POOL, ids=str)
def test_l_set_resultant_within_its_bound(abde):
    assert abs(l_set(*abde).resultant) <= 3 ** _resultant_exponent(*abde)


def test_l_set_refuses_an_oversized_resultant_before_the_prs(monkeypatch):
    computed = []

    def stub(p, q):
        computed.append((p, q))
        return 1

    monkeypatch.setattr(cyclotomic, "resultant", stub)
    # 3^8748 has 4174 digits: computed
    assert len(str(3 ** _resultant_exponent(6, 3, 1, 1))) == 4174
    assert l_set(6, 3, 1, 1).prime_divisors == ()
    assert len(computed) == 1
    # 3^15552, 3^26244 and 3^78732 have more than 5000 digits: refused;
    # so is 3^(5760 * 999982), without building that power (1.1 GB)
    for abde in [(4, 3, 5, 5), (6, 4, 1, 1), (6, 5, 1, 1), (1, 0, 5005, 999983)]:
        with pytest.raises(CapExceeded, match="more than 5000 digits"):
            l_set(*abde)
    assert len(computed) == 1


def test_l_set_record_json():
    j = l_set(2, 1, 1, 1).to_json()
    assert j == {"a": 2, "b": 1, "d": 1, "e": 1, "resultant": "81", "primes": [3]}
    j = l_set(3, 2, 1, 1).to_json()
    assert isinstance(j["resultant"], str)
    assert int(j["resultant"]) % 271 == 0


def test_only_a1_d1_shares_a_root():
    # why l_set rejects a=1, d=1 and needs no gcd check for the rest
    assert resultant(cyclotomic_poly(3), compose_neg_quadratic(cyclotomic_poly(1))) == 0
    for a, d, e in itertools.product((1, 2, 3), (1, 5, 7), (1, 5, 7)):
        if (a, d) == (1, 1):
            continue
        p = cyclotomic_poly(3**a * d)
        for b in range(a):
            q = compose_neg_quadratic(cyclotomic_poly(3**b * e))
            assert resultant(p, q) != 0, (a, b, d, e)


def test_l_set_validation():
    with pytest.raises(ValueError):
        l_set(0, 0, 1, 1)
    with pytest.raises(ValueError):
        l_set(2, 2, 1, 1)   # b > a-1
    with pytest.raises(ValueError):
        l_set(2, 1, 2, 1)   # d not coprime to 6
    for d, e in [(-5, 1), (1, -1), (0, 1)]:
        with pytest.raises(ValueError, match="need d >= 1 and e >= 1"):
            l_set(2, 1, d, e)
    with pytest.raises(DegenerateParameters):
        l_set(1, 0, 1, 1)
    # refused before 3^a is built
    with pytest.raises(CapExceeded, match="1000000"):
        l_set(10**8, 0, 1, 1)
