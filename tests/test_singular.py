"""Order criterion, count report, and the identity suites."""

from fractions import Fraction

import numpy as np
import pytest

from demjanenko.arith import index_table, make_context, mult_order
from demjanenko.errors import BetaZero, CapExceeded, HOutOfRange, KOutOfRange
from demjanenko.singular import (
    a0_closed_form,
    a0_double_sum,
    b_value,
    criterion,
    error_bound,
    indicator_eta,
    indicator_zeta,
    k_set,
    m_value,
    main_term,
    sqrt_upper,
    verify_bsum_identities,
    verify_character_identities,
)
from demjanenko.search import sieve_primes
from demjanenko.verify import identities_suite, k_set_oracle


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _criterion_brute(ell, k):
    """Literal restatement of the three conditions, no shortcuts."""
    def order(u):
        x, t = u % ell, 1
        while x != 1:
            x = x * u % ell
            t += 1
        return t

    ok = order(k)
    oneg = order((-(k * k + k)) % ell)
    opos = order((k * k + k) % ell)
    return (
        ok != 3
        and _valuation(ok, 2) == 0 == _valuation(oneg, 2)
        and _valuation(ok, 3) > _valuation(opos, 3)
    )


@pytest.mark.parametrize("ell", [7, 13, 31, 61, 67, 97, 163])
def test_criterion_against_brute_force(ell):
    ctx = make_context(ell)
    for k in range(1, ell - 1):
        ev = criterion(ctx, k)
        assert ev.in_k_set == _criterion_brute(ell, k)


def test_criterion_range_check():
    ctx = make_context(13)
    with pytest.raises(KOutOfRange):
        criterion(ctx, 0)
    with pytest.raises(KOutOfRange):
        criterion(ctx, 12)


@pytest.mark.parametrize("ell", [7, 13, 31, 61, 67, 97, 127, 163, 199])
def test_k_set_matches_per_k_criterion(ell):
    ctx = make_context(ell)
    members = set(k_set(ctx).members)
    expected = {k for k in range(1, ell - 1) if criterion(ctx, k).in_k_set}
    assert members == expected


def _nu3_capped(t: np.ndarray, beta: int) -> np.ndarray:
    """Componentwise min(nu_3(t), beta); t == 0 maps to beta."""
    v = np.zeros(t.shape, dtype=np.int64)
    x = t.copy()
    for _ in range(beta):
        div = x % 3 == 0
        v += div
        x[div] //= 3
    return v


def _condition_masks(ctx, ind: np.ndarray):
    """Vectorized condition flags for all k in [1, ell-2]."""
    ell, alpha, beta = ctx.ell, ctx.alpha, ctx.beta
    n = ell - 1
    k = np.arange(1, ell - 1, dtype=np.int64)
    pos = k * (k + 1) % ell
    t_k = ind[k]
    t_pos = ind[pos]
    t_neg = ind[ell - pos]
    two = np.int64(1 << alpha)
    cond_ii = (t_k % two == 0) & (t_neg % two == 0)
    cond_iii = _nu3_capped(t_k, beta) < _nu3_capped(t_pos, beta)
    if n % 3 == 0:
        cond_i = np.gcd(t_k, n) != n // 3  # order 3 <=> gcd(t, n) = n/3
    else:
        cond_i = np.ones(k.shape, dtype=bool)
    return k, cond_i, cond_ii, cond_iii


def _full_scan_members(ctx) -> tuple[int, ...]:
    """The singular set by a scan of all ell-2 residues through the full
    discrete-log table; the exact oracle for the odd-subgroup scan."""
    if ctx.beta == 0:
        return ()
    k, c1, c2, c3 = _condition_masks(ctx, index_table(ctx))
    return tuple(int(x) for x in k[c1 & c2 & c3])


def test_k_set_matches_full_scan_up_to_20000():
    for ell in sieve_primes(20000)[1:]:
        ctx = make_context(int(ell))
        assert k_set(ctx).members == _full_scan_members(ctx), ell


@pytest.mark.parametrize("ell", [7, 13, 97, 193, 769, 12289, 786433])
def test_k_set_empty_when_only_cube_roots_remain(ell):
    # ell - 1 = 2^alpha * 3: the odd-order subgroup is {1, w, w^2}
    ctx = make_context(ell)
    assert (ell - 1) >> ctx.alpha == 3
    assert k_set(ctx).members == () == _full_scan_members(ctx)


@pytest.mark.parametrize(
    "ell, alpha, beta",
    [(995329, 12, 5), (1048609, 5, 2)],
)
def test_k_set_edge_primes_match_full_scan(ell, alpha, beta):
    ctx = make_context(ell)
    assert (ctx.alpha, ctx.beta) == (alpha, beta)
    assert k_set(ctx).members == _full_scan_members(ctx)


def test_k_set_beta_zero_is_empty():
    for ell in (5, 11, 17, 23, 29, 7340033):
        ctx = make_context(ell)
        assert ctx.beta == 0
        assert k_set(ctx).members == ()


def test_k_set_scan_cap():
    ctx = make_context(127681)
    with pytest.raises(CapExceeded):
        k_set(ctx, scan_cap=1000)


@pytest.mark.parametrize("ell", [7, 13, 19, 31, 37, 43, 61, 67, 73, 79])
def test_k_set_against_matrix_oracle(ell):
    ctx = make_context(ell)
    assert list(k_set(ctx).members) == k_set_oracle(ctx)


def test_known_counts():
    assert k_set(make_context(7)).count == 0
    assert k_set(make_context(19)).count == 0
    assert k_set(make_context(163)).count >= 1
    assert k_set(make_context(67)).members == (6, 10, 19, 47, 56, 60)


def test_report_fields_and_json():
    ctx = make_context(31)
    rep = k_set(ctx)
    assert rep.main_term == Fraction(31, 18)
    assert rep.within_bound
    j = rep.to_json()
    assert j["main_term"] == "31/18"
    assert j["ell"] == 31 and j["alpha"] == 1 and j["beta"] == 1 and j["m"] == 5
    assert isinstance(j["error_bound"], str) and "/" in j["error_bound"]


def test_main_term_and_bound_values():
    ctx = make_context(13)  # alpha=2, beta=1
    assert main_term(ctx) == Fraction(13, 64) * Fraction(8, 9)
    b = error_bound(ctx)
    assert b > 4 * (13**0.5)  # rational upper bound dominates the float
    assert b - Fraction(33, 16) >= 4 * sqrt_upper(13) - Fraction(1, 1000)


def test_sqrt_upper_is_tight_upper_bound():
    for n in (2, 3, 10, 1001, 10**8 + 7):
        s = sqrt_upper(n)
        assert s * s > n
        assert (s - Fraction(1, 10**5)) ** 2 < n


@pytest.mark.parametrize("ell", [7, 13, 31, 67])
def test_indicators_match_orders(ell):
    ctx = make_context(ell)
    for u in range(1, ell):
        prof = mult_order(u, ctx)
        assert indicator_zeta(ctx, u) == (1 if prof.order % 2 == 1 else 0)
        for h in range(ctx.beta + 1):
            assert indicator_eta(ctx, u, h) == (1 if prof.nu3 == h else 0)


def test_indicator_eta_range():
    ctx = make_context(13)
    with pytest.raises(HOutOfRange):
        indicator_eta(ctx, 2, ctx.beta + 1)


def test_m_value():
    ctx = make_context(67)
    assert m_value(ctx, 6).M == 33
    # lcm of the two orders, brute force
    for k in (1, 5, 10, 33):
        a = mult_order((-(k * k + k)) % 67, ctx).order
        b = mult_order(k, ctx).order
        import math

        assert m_value(ctx, k).M == math.lcm(a, b)


@pytest.mark.parametrize("ell", [7, 13, 31, 37, 61, 67, 97, 109, 127, 139, 151, 163, 181, 193, 199])
def test_character_identities(ell):
    rep = verify_character_identities(make_context(ell))
    assert rep.ok, (
        f"deviation {max(rep.max_dev_orthogonality, rep.max_dev_zeta, rep.max_dev_eta)}"
    )


def test_character_identities_cap():
    with pytest.raises(CapExceeded):
        verify_character_identities(make_context(211), cap=200)


def test_a0_closed_form_equals_double_sum():
    for ell in (7, 13, 19, 31, 37, 61, 109, 163):
        ctx = make_context(ell)
        assert a0_closed_form(ctx) == a0_double_sum(ctx)


def test_b_values_at_special_points():
    for ell in (7, 13, 31, 37, 61, 97, 109, 163):
        ctx = make_context(ell)
        assert b_value(ctx, 0) == a0_closed_form(ctx)
        # ord(-1) = 2 for every odd prime, so the odd-order indicator kills
        # the k = -1 term identically
        assert b_value(ctx, ell - 1) == 0


@pytest.mark.parametrize("ell", [7, 13, 19, 31, 37, 61, 67])
def test_bsum_identities(ell):
    rep = verify_bsum_identities(make_context(ell))
    assert rep.checks["sum_equals_kstar"]
    assert rep.checks["k_vs_kstar_within_2"]
    assert rep.checks["a0_closed_form"]
    assert rep.checks["b_zero_is_a0"]
    # the recorded closed form for the k = -1 term only holds when
    # (2^alpha - 2) a_0 happens to be 0, i.e. alpha = 1
    ctx = make_context(ell)
    if ctx.alpha == 1:
        assert rep.checks["b_minus_one_closed_form"]
    else:
        assert not rep.checks["b_minus_one_closed_form"]
        assert rep.b_minus_one == 0


def test_identities_suite_same_on_a_pool():
    serial = identities_suite(60)
    assert serial  # the k = -1 closed form fails at the alpha >= 2 primes
    assert identities_suite(60, workers=2) == serial


def test_bsum_requires_beta_positive():
    with pytest.raises(BetaZero):
        verify_bsum_identities(make_context(11))
