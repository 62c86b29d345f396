"""Arithmetic kernels against brute-force and sympy oracles."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from demjanenko import arith
from demjanenko.arith import (
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
