"""Arithmetic kernels against brute-force and sympy oracles."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from demjanenko.arith import (
    DETERMINISTIC_PRIME_LIMIT,
    canonical_rep,
    factorize,
    index_table,
    is_prime,
    make_context,
    mod_inverse,
    mult_order,
    odd_subgroup_tables,
    primitive_root,
    probable_prime,
    valuation,
)
from demjanenko.errors import NotPrime, NotUnit, RangeExceeded


def test_is_prime_small_range_matches_sympy():
    ours = [n for n in range(2, 2000) if is_prime(n)]
    theirs = list(sympy.primerange(2, 2000))
    assert ours == theirs


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to base 2; must all be rejected
    for n in (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141):
        assert not is_prime(n)
        assert sympy.isprime(n) is False


def test_is_prime_large_primes():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)


def test_is_prime_range_guard():
    with pytest.raises(RangeExceeded):
        is_prime(2**63 + 1)
    # probable_prime has no guard and the witness set is still exhaustive here
    assert probable_prime(2**63 + 1) is False
    assert DETERMINISTIC_PRIME_LIMIT > 2**63


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_factorize_roundtrip(n):
    factors = factorize(n)
    prod = 1
    for p, e in factors:
        assert is_prime(p)
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


def test_canonical_rep():
    assert canonical_rep(-1, 7) == 6
    assert canonical_rep(15, 7) == 1
    with pytest.raises(NotUnit):
        canonical_rep(14, 7)


@given(st.sampled_from([7, 13, 31, 97, 211]), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_mod_inverse(ell, u):
    if u % ell == 0:
        with pytest.raises(NotUnit):
            mod_inverse(u, ell)
    else:
        assert u * mod_inverse(u, ell) % ell == 1


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
    n0 = (ell - 1) >> ctx.alpha
    powers, level = odd_subgroup_tables(ctx)
    assert powers.shape == (n0,) and level.shape == (ell,) and level.dtype == np.int8
    # n0 distinct units with x^n0 = 1 are the whole subgroup of odd order
    assert len(set(powers.tolist())) == n0
    assert all(pow(int(x), n0, ell) == 1 for x in powers)
    h = pow(primitive_root(ctx), 1 << ctx.alpha, ell)
    assert all(pow(h, j, ell) == int(powers[j]) for j in range(n0))
    for x in powers.tolist():
        assert level[x] == ctx.beta - mult_order(x, ctx).nu3, x
    odd = np.zeros(ell, dtype=bool)
    odd[powers] = True
    assert (level[~odd] == -1).all()
