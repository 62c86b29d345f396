"""Order criterion, count report, and the identity suites."""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from demjanenko import arith, singular
from demjanenko.arith import (
    index_table,
    is_prime,
    make_context,
    mult_order,
    odd_subgroup_tables,
    primitive_root,
    valuation,
)
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


def _int32_log_members(ctx) -> tuple[int, ...]:
    """The singular set by the earlier odd-subgroup kernel: an int32
    subgroup log table, a second gather into the 3-adic levels, and the
    cube roots removed by their log; the oracle for the int8 level table."""
    if ctx.beta == 0:
        return ()
    ell = ctx.ell
    n0 = (ell - 1) >> ctx.alpha
    powers = odd_subgroup_tables(ctx)[0]
    log = np.full(ell, -1, dtype=np.int32)
    log[powers] = np.arange(n0, dtype=np.int32)
    k = powers[1:]
    neg = (ell - k * (k + 1) % ell) % ell
    t = log[neg]
    j = np.flatnonzero(t >= 0) + 1
    t = t[j - 1]
    v3 = np.zeros(n0, dtype=np.int8)
    for e in range(1, ctx.beta + 1):
        v3[:: 3**e] += 1
    hit = (v3[j] < v3[t]) & (3 * j != n0) & (3 * j != 2 * n0)
    return tuple(np.sort(powers[j[hit]]).tolist())


def _seeded_prime(seed: int, alpha: int, beta: int, base: int = 1 << 22) -> int:
    """A prime in [base, base * (1 + 1/64)) with 2^alpha || ell-1, 3^beta || ell-1."""
    rng = random.Random(seed)
    while True:
        ell = base + rng.randrange(base // 64)
        if valuation(ell - 1, 2) == alpha and valuation(ell - 1, 3) == beta and is_prime(ell):
            return ell


@pytest.mark.parametrize(
    "ell",
    [995329, 1048609, 39367, 1459, _seeded_prime(22, 1, 1), _seeded_prime(22, 2, 2)],
)
def test_k_set_matches_int32_log_kernel(ell):
    ctx = make_context(ell)
    assert k_set(ctx).members == _int32_log_members(ctx)


def test_k_set_peak_memory():
    # live arrays at the peak: the int64 powers and -k^2-k (8*n0 each), the
    # int8 level table (ell) and its gather (n0); afterwards the members
    # cost 10*n0 plus 8 + 8 + 8 + 32 bytes each (sorted array, list, tuple, int)
    ctx = make_context(_seeded_prime(22, 1, 1))
    assert ctx.alpha == 1
    ell, n0 = ctx.ell, (ctx.ell - 1) >> 1
    k_set(make_context(19))  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        count = k_set(ctx).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(ell + 17 * n0, 10 * n0 + 56 * count) + 4096, (ell, peak)


def test_k_set_beta_zero_is_empty():
    for ell in (5, 11, 17, 23, 29, 7340033):
        ctx = make_context(ell)
        assert ctx.beta == 0
        assert k_set(ctx).members == ()


def test_k_set_scan_cap(monkeypatch):
    # the scan's first peak at 127681 = 2^6 * 1995 + 1 is ell + 17 * 1995 bytes
    ctx = make_context(127681)
    peak = 127681 + 17 * 1995
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", peak)
    assert k_set(ctx).count == 0
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", peak - 1)
    with pytest.raises(CapExceeded):
        k_set(ctx)


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


def test_within_bound_is_the_fraction_inequality():
    # the integer comparison against |count - main| <= err in Fractions, at
    # the real count and at the counts one either side of both edges
    for ell in sieve_primes(20000)[1:].tolist():
        rep = k_set(make_context(ell))
        main, err = rep.main_term, rep.error_bound
        counts = {0, rep.count}
        for edge in (main - err, main + err):
            counts |= set(range(math.floor(edge) - 1, math.ceil(edge) + 2))
        for c in counts:
            if c >= 0:
                probe = dataclasses.replace(rep, members=tuple(range(c)))
                assert probe.within_bound == (abs(c - main) <= err), (ell, c)


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


# 257: 2^8 = ell-1, so d = n; 487 and 1459: beta = 5 and 6
@pytest.mark.parametrize(
    "ell", [7, 13, 31, 37, 61, 67, 97, 109, 127, 139, 151, 163, 181, 193, 199, 257, 487, 1459]
)
def test_character_identities(ell):
    assert verify_character_identities(make_context(ell)) == []


@pytest.mark.parametrize("ell", [7, 13, 37, 257])
def test_character_identities_catch_a_wrong_log(ell, monkeypatch):
    # swap the logs of 1 and of the primitive root: 1 then looks of order n
    ctx = make_context(ell)
    g = primitive_root(ctx)
    ind = index_table(ctx)
    ind[1], ind[g] = ind[g], ind[1]
    monkeypatch.setattr(singular, "index_table", lambda _: ind)
    failures = verify_character_identities(ctx)
    assert f"S_{ell - 1} differs mod {ell} from its sum of character values" in failures
    assert "the odd-order indicator is not its character average" in failures


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
