"""Arithmetic kernels against brute-force and sympy oracles."""

import math
import pickle
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from demjanenko import arith
from demjanenko.arith import (
    PrimeContext,
    factorize,
    index_table,
    make_context,
    mult_order,
    power_table,
    primitive_root,
    probable_prime,
    valuation,
)
from demjanenko.errors import CapExceeded, NotPrime, NotUnit
from demjanenko.singular import _odd_subgroup


def test_is_prime_small_range_matches_sympy():
    ours = [n for n in range(2, 2000) if probable_prime(n)]
    theirs = list(sympy.primerange(2, 2000))
    assert ours == theirs


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to base 2; must all be rejected
    for n in (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141):
        assert not probable_prime(n)
        assert sympy.isprime(n) is False


def test_is_prime_large_primes():
    assert probable_prime(2**61 - 1)
    assert not probable_prime(2**62 - 1)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_factorize_roundtrip(n):
    factors = factorize(n)
    prod = 1
    for p, e in factors:
        assert probable_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    assert list(factors) == sorted(factors)


def test_factorize_large_semiprime():
    p, q = 1_000_000_007, 1_000_000_009
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_factorize_beyond_machine_range():
    # resultants factored downstream can exceed 2^63
    n = 3**4 * 271**7
    assert factorize(n) == ((3, 4), (271, 7))


def _sympy_factors(n):
    return tuple(sorted(sympy.factorint(n).items()))


@given(st.integers(min_value=2, max_value=10**12))
@settings(max_examples=200, deadline=None)
def test_factorize_square_doubles_exponents(n):
    # a square cofactor is replaced by its root, so n*n costs what n costs
    squared = factorize(n * n)
    assert squared == tuple((p, 2 * e) for p, e in factorize(n))
    assert squared == _sympy_factors(n * n)


@pytest.mark.parametrize("p,q", [(1031, 999983), (7919, 104729), (1031, 1031)])
def test_factorize_fourth_power_past_trial_division(p, q):
    # both primes lie between the trial-division limit and 10^6, so the
    # cofactor descends square by square to p*q (or p) before rho
    assert arith._TRIAL_LIMIT < min(p, q) and max(p, q) < 10**6
    n = (p * q) ** 4
    assert factorize(n) == _sympy_factors(n)


def test_square_descent_keeps_the_rho_cap(monkeypatch):
    # the root of a square still goes through rho and its work cap
    monkeypatch.setattr(arith, "_RHO_WORK_CAP", 1 << 10)
    p, q = 1_000_000_007, 1_000_000_009
    with pytest.raises(CapExceeded):
        factorize((p * q) ** 2)


# Primes in (2^21, 2^32), so any three multiply past 2^63 and rho splits
# any composite of them in about 10^5 squarings, far inside the budget.
_RHO_PRIMES = st.integers(1 << 22, 1 << 32).map(sympy.prevprime)


def _smooth_prime(base, m):
    """The least prime base*m' + 1 with m' >= m coprime to 6."""
    while m % 6 not in (1, 5) or not sympy.isprime(base * m + 1):
        m += 1
    return base * m + 1


# 2^i 3^j m + 1 with m coprime to 6 and about 2^16 at most, so p - 1 is
# a product of prime powers <= 2^16 and p-1 stage 1 splits the prime off;
# m starts where p lies in (2^21, 2^30], so the next prime stays near it.
_PM1_PRIMES = st.tuples(st.integers(4, 16), st.integers(1, 6)).map(
    lambda ij: 2 ** ij[0] * 3 ** ij[1]
).flatmap(
    lambda base: st.integers(
        -(-(1 << 21) // base), min(1 << 16, (1 << 30) // base)
    ).map(lambda m: _smooth_prime(base, m))
)


@given(st.lists(st.one_of(_RHO_PRIMES, _PM1_PRIMES), min_size=3, max_size=4))
@settings(max_examples=100, deadline=None)
def test_factorize_above_2_63_returns_the_drawn_primes(primes):
    n = math.prod(primes)
    assert n > arith._PM1_FLOOR
    assert factorize(n) == tuple(sorted(Counter(primes).items()))


# both primes are 2q + 1 with q prime, so p-1 to 2^16 splits neither
_SAFE_SEMIPRIME = (4294967387, 8589935363)


def test_factorize_safe_prime_semiprime_falls_through_to_rho():
    p, q = _SAFE_SEMIPRIME
    n = p * q
    assert n > arith._PM1_FLOOR
    assert arith._pollard_pm1(n, 1 << 20)[:2] == ([], n)
    assert factorize(n) == ((p, 1), (q, 1))


def test_pm1_is_charged_to_the_cofactors_budget(monkeypatch):
    p, q = _SAFE_SEMIPRIME
    n = p * q
    one_pass = sum(exponent.bit_length() for _, exponent in arith._pm1_blocks())
    rho_budgets = []

    def rho(m, budget):
        rho_budgets.append(budget)
        raise CapExceeded("rho")

    monkeypatch.setattr(arith, "_brent_rho", rho)
    # a budget one squaring short of one p-1 pass: rho is never reached
    monkeypatch.setattr(arith, "_RHO_WORK_CAP", n.bit_length() * one_pass - 1)
    with pytest.raises(CapExceeded, match="p-1 hit its work cap"):
        factorize(n)
    assert rho_budgets == []
    # exactly one pass: rho gets what is left, nothing
    monkeypatch.setattr(arith, "_RHO_WORK_CAP", n.bit_length() * one_pass)
    with pytest.raises(CapExceeded, match="rho"):
        factorize(n)
    assert rho_budgets == [0]


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(7, 5) == 0


def test_make_context_fields():
    ctx = make_context(13)
    assert (ctx.ell, ctx.alpha, ctx.beta, ctx.m) == (13, 2, 1, 1)
    ctx = make_context(31)
    assert (ctx.alpha, ctx.beta, ctx.m) == (1, 1, 5)
    assert math.prod(p**e for p, e in ctx.factors) == 30


def test_prime_context_rejects_factors_off_ell_minus_1():
    assert PrimeContext(13, ((2, 2), (3, 1))).m == 1
    for factors in [((2, 2),), ((2, 2), (3, 1), (5, 1)), ((2, 1), (3, 2))]:
        with pytest.raises(ValueError, match="reconstruct"):
            PrimeContext(13, factors)


def test_prime_context_derives_the_valuations_of_its_factors():
    primes = [int(p) for p in sympy.primerange(3, 5000)] + [127681, 25858561, 2091048961]
    for ell in primes:
        factors = factorize(ell - 1)
        ctx = PrimeContext(ell, factors)
        alpha, beta = valuation(ell - 1, 2), valuation(ell - 1, 3)
        assert (ctx.alpha, ctx.beta, ctx.m) == (alpha, beta, (ell - 1) // (2**alpha * 3**beta))
        assert ctx == make_context(ell) == pickle.loads(pickle.dumps(ctx))


def test_make_context_rejects_composite():
    with pytest.raises(NotPrime):
        make_context(15)
    with pytest.raises(NotPrime):
        make_context(2)


def _order_brute(u, ell):
    x, t = u % ell, 1
    while x != 1:
        x = x * u % ell
        t += 1
    return t


@pytest.mark.parametrize("ell", [3, 7, 13, 31, 61, 127, 211, 499])
def test_mult_order_brute_force(ell):
    ctx = make_context(ell)
    for u in range(1, ell):
        prof = mult_order(u, ctx)
        expected = _order_brute(u, ell)
        assert prof.order == expected
        assert prof.nu2 == valuation(expected, 2)
        assert prof.nu3 == valuation(expected, 3)


def test_mult_order_rejects_zero():
    ctx = make_context(7)
    with pytest.raises(NotUnit):
        mult_order(0, ctx)


@pytest.mark.parametrize("ell", [3, 7, 13, 31, 127, 331])
def test_primitive_root(ell):
    ctx = make_context(ell)
    g = primitive_root(ctx)
    assert mult_order(g, ctx).order == ell - 1
    assert g == sympy.primitive_root(ell)


@pytest.mark.parametrize("ell", [7, 13, 31, 127, 1009])
def test_index_table(ell):
    ctx = make_context(ell)
    g = primitive_root(ctx)
    ind = index_table(ctx)
    # g^ind[x] == x for every unit, and the logs are a permutation
    for x in range(1, ell):
        assert pow(g, int(ind[x]), ell) == x
    assert sorted(int(v) for v in ind[1:]) == list(range(ell - 1))
    assert ind[1] == 0


def test_index_table_orders_agree():
    ctx = make_context(211)
    ind = index_table(ctx)
    n = ctx.ell - 1
    orders = n // np.gcd(ind[1:], n)
    for u in range(1, ctx.ell):
        assert int(orders[u - 1]) == mult_order(u, ctx).order


@pytest.mark.parametrize("ell", [7, 13, 31, 97, 211, 257, 7681, 995329])
def test_odd_subgroup_tables(ell):
    ctx = make_context(ell)
    n0, h = _odd_subgroup(ctx)
    assert n0 == (ell - 1) >> ctx.alpha and n0 % 2 == 1
    assert h == pow(primitive_root(ctx), 1 << ctx.alpha, ell)
    powers = power_table(h, n0, ell)
    assert powers.shape == (n0,) and powers.dtype == np.int64
    # n0 distinct units with x^n0 = 1 are the whole subgroup of odd order
    assert len(set(powers.tolist())) == n0
    assert all(pow(int(x), n0, ell) == 1 for x in powers)
    assert all(pow(h, j, ell) == int(powers[j]) for j in range(n0))
