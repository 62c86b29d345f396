"""Searches: census, the finite alpha=1 list, Table-style scans."""

import dataclasses
import functools
import math
import random

import numpy as np
import pytest
import sympy

from demjanenko import arith, search, singular, verify
from demjanenko.arith import make_context
from demjanenko.errors import BoundViolation, CapExceeded, NotPrime
from demjanenko.search import (
    SearchConfig,
    append_checkpoint,
    census,
    corollary712_search,
    density_census,
    find_ls,
    k_set_is_empty,
    k_witness,
    lbm_scan,
    ordered_map,
    read_checkpoint,
    sieve_factorizations,
    sieve_primes,
)
from demjanenko.singular import count_within_bound, criterion, k_set


def test_sieve_primes():
    assert list(sieve_primes(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(sieve_primes(1)) == []
    assert list(sieve_primes(5000)) == list(sympy.primerange(2, 5001))


def test_sieve_primes_refuses_past_physical_memory(monkeypatch):
    # the bound of the peak at n = 5000: 5001 bytes of mask, 16n/12 for the primes
    peak = 5001 + 16 * 5000 // 12
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", peak)
    assert len(sieve_primes(5000)) == 669
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", peak - 1)
    with pytest.raises(CapExceeded):
        sieve_primes(5000)


def test_odd_primes_is_the_sieve_array():
    primes = search.odd_primes(30)
    assert primes.dtype == np.int64
    assert primes.tolist() == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert search.odd_primes(2).size == search.odd_primes(1).size == 0


def test_sieve_factorizations_match_factorize():
    primes = search.odd_primes(10**5)
    shards = search._shards(primes) + [np.array([p]) for p in (3, 5, 257, 65537)]
    for shard in shards:
        expected = [arith.factorize(int(p) - 1) for p in shard]
        assert sieve_factorizations(shard - 1) == expected, shard[0]
    assert sieve_factorizations(np.array([65536])) == [((2, 16),)]
    assert sieve_factorizations(np.empty(0, dtype=np.int64)) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_keeps_order(workers):
    items = list(range(40))
    with ordered_map(str, items, workers) as results:
        assert list(results) == [str(i) for i in items]


@pytest.mark.parametrize("ell", [7, 13, 19, 31, 67, 103, 163, 271, 9907])
def test_k_witness_agrees_with_full_scan(ell):
    ctx = make_context(ell)
    members = set(k_set(ctx).members)
    w = k_witness(ell)
    if members:
        assert w in members
    else:
        assert w is None


def _first_singular_on_the_walk(ell):
    """k_witness by the definition: h^t for t = 1, 2, ... with h = g^(2^alpha),
    g the smallest primitive root, until criterion accepts one."""
    ctx = make_context(ell)
    if ctx.beta == 0:
        return None
    n0 = (ell - 1) >> ctx.alpha
    h = pow(arith.primitive_root(ctx), 1 << ctx.alpha, ell)
    return next((k for k in (pow(h, t, ell) for t in range(1, n0))
                 if criterion(ctx, k).in_k_set), None)


def test_k_witness_is_the_first_singular_power_on_the_walk():
    for ell in map(int, search.odd_primes(20_000)):
        assert k_witness(ell) == _first_singular_on_the_walk(ell), ell


def test_k_set_is_empty_routes_agree():
    # the decision, the sequential subgroup walk alone and the vectorized
    # k_set scan
    for ell in map(int, sieve_primes(20_000)):
        if ell < 3:
            continue
        ctx = make_context(ell)
        assert k_set_is_empty(ell) == (k_witness(ell) is None) == (k_set(ctx).count == 0)


def test_k_set_is_empty_rejects_composite():
    # 25 - 1 = 2^3 * 3: without the primality check the walk would run
    with pytest.raises(NotPrime):
        k_set_is_empty(25)
    with pytest.raises(NotPrime):
        k_witness(2)  # as make_context(2)


def test_k_witness_trusts_the_sieve_factors():
    primes = search.odd_primes(30_000)
    for ell, factors in zip(primes.tolist(), sieve_factorizations(primes - 1)):
        assert k_witness(ell, factors) == k_witness(ell), ell


def test_k_set_is_empty_large_prime_uses_walk():
    ell = 25858561
    assert k_set_is_empty(ell)
    assert k_set(make_context(ell)).count == 0
    ell2 = 1048783  # prime, 1 mod 3
    assert sympy.isprime(ell2) and ell2 % 3 == 1
    ctx_small_check = k_witness(ell2)
    # whatever the walk says, the criterion on the witness must confirm it
    if ctx_small_check is not None:
        assert criterion(make_context(ell2), ctx_small_check).in_k_set


def test_census_counts_and_order():
    reports = list(census(SearchConfig(max_ell=300)))
    ells = [r.ctx.ell for r in reports]
    assert ells == sorted(ells)
    assert ells[0] == 3
    assert all(r.within_bound for r in reports)
    by_ell = {r.ctx.ell: r for r in reports}
    assert by_ell[7].count == 0
    assert by_ell[67].count == 6
    assert by_ell[163].count >= 1


def test_census_workers_deterministic():
    # whole reports: the contexts pickled back from the workers keep the
    # alpha, beta and m that PrimeContext sets in __post_init__ only
    one = list(census(SearchConfig(max_ell=2000, workers=1)))
    two = list(census(SearchConfig(max_ell=2000, workers=2)))
    assert one == two


def _refuse_per_prime_work(monkeypatch):
    """Make every per-prime primality test or factorization raise, where
    search looks them up, where make_context does, in singular, whose
    walk builds a context by make_context when no factors are passed, and
    in verify, should its suites build their own contexts."""
    def refuse(*args):
        raise AssertionError("a per-prime primality test or factorization ran")

    for module in (search, singular, arith):
        monkeypatch.setattr(module, "factorize", refuse, raising=False)
        monkeypatch.setattr(module, "probable_prime", refuse, raising=False)
    monkeypatch.setattr(singular, "make_context", refuse)
    monkeypatch.setattr(verify, "make_context", refuse, raising=False)


@pytest.mark.parametrize("workers", [1, 2])
def test_census_takes_primality_and_factors_from_the_sieve(monkeypatch, workers):
    primes = search.odd_primes(5000).tolist()
    expected = [k_set(make_context(p)) for p in primes]
    _refuse_per_prime_work(monkeypatch)
    assert list(census(SearchConfig(max_ell=5000, workers=workers))) == expected


def test_scans_take_primality_and_factors_from_the_sieve(monkeypatch):
    expected = _walk_every_prime(20_000)
    _refuse_per_prime_work(monkeypatch)
    assert find_ls(5, 200_000).ell == 127681
    assert list(density_census(20_000).primes) == expected


def test_verify_suites_take_primality_and_factors_from_the_sieve(monkeypatch):
    expected = (verify.oracle_suite(200), verify.identities_suite(100),
                verify.rankformula_suite(300))
    _refuse_per_prime_work(monkeypatch)
    assert (verify.oracle_suite(200), verify.identities_suite(100),
            verify.rankformula_suite(300)) == expected
    assert verify.identities_suite(2) == []  # no odd prime: an empty sieve array


def test_census_raises_on_a_count_past_the_bound(monkeypatch):
    _refuse_per_prime_work(monkeypatch)

    def inflated(ctx):
        rep = k_set(ctx)
        if ctx.ell == 4999:
            rep = dataclasses.replace(rep, members=tuple(range(1, ctx.ell - 1)))
        return rep

    monkeypatch.setattr(search, "k_set", inflated)
    with pytest.raises(BoundViolation, match="ell=4999"):
        list(census(SearchConfig(max_ell=5000)))


def test_census_checkpoint(tmp_path):
    path = str(tmp_path / "census.ckpt")
    list(census(SearchConfig(max_ell=2000, checkpoint_path=path)))
    with open(path) as fh:
        assert fh.read() == "done 3 2000\n"  # 302 odd primes, one shard up to 1999
    # a resumed run skips everything and yields nothing new
    resumed = list(census(SearchConfig(max_ell=2000, checkpoint_path=path)))
    assert resumed == []


def test_census_checkpoints_each_shard_as_it_streams(tmp_path, monkeypatch):
    # 668 odd primes <= 5000: a shard of 512, then one of 156
    path = str(tmp_path / "census.ckpt")
    real_chunk = search._census_chunk
    calls = []

    def failing_chunk(primes):
        calls.append(primes[0])
        if len(calls) == 2:
            raise RuntimeError("killed in the second shard")
        return real_chunk(primes)

    monkeypatch.setattr(search, "_census_chunk", failing_chunk)
    got = []
    with pytest.raises(RuntimeError):
        for rep in census(SearchConfig(max_ell=5000, checkpoint_path=path)):
            got.append(rep.ctx.ell)
    primes = [int(p) for p in sieve_primes(5000)[1:]]
    assert got == primes[:512]
    assert read_checkpoint(path) == {(3, primes[511] + 1)}
    # the resumed run computes only the second shard
    monkeypatch.setattr(search, "_census_chunk", real_chunk)
    resumed = [r.ctx.ell for r in census(SearchConfig(max_ell=5000, checkpoint_path=path))]
    assert resumed == primes[512:]
    assert len(read_checkpoint(path)) == 2


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "x.ckpt")
    append_checkpoint(path, 3, 100)
    append_checkpoint(path, 100, 200)
    assert read_checkpoint(path) == {(3, 100), (100, 200)}


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_ell=0)
    with pytest.raises(ValueError):
        SearchConfig(max_ell=10, workers=0)


def test_corollary712_exact_list():
    assert corollary712_search() == [
        7, 19, 163, 487, 1459, 39367, 86093443, 258280327,
    ]


def test_corollary712_empty_k_subset():
    empties = [ell for ell in corollary712_search() if ell <= 10**6 and k_set_is_empty(ell)]
    assert empties == [7, 19]


def test_find_ls_small():
    rec = find_ls(3, 10_000)
    assert rec.found and rec.ell == 31
    assert rec.factorization == ((2, 1), (3, 1), (5, 1))
    rec = find_ls(4, 10_000)
    assert rec.ell == 3121
    assert rec.factorization == ((2, 4), (3, 1), (5, 1), (13, 1))
    rec = find_ls(5, 200_000)
    assert rec.ell == 127681
    assert rec.factorization == ((2, 6), (3, 1), (5, 1), (7, 1), (19, 1))


def test_find_ls_not_found_is_first_class():
    rec = find_ls(6, 10_000)
    assert not rec.found
    assert rec.ell is None and rec.limit == 10_000


def test_find_ls_validation():
    with pytest.raises(ValueError):
        find_ls(1, 100)
    with pytest.raises(ValueError):
        find_ls(3, 2)


def _factorint(n):
    return tuple(sorted(sympy.factorint(n).items()))


@pytest.mark.parametrize("block_size", [777, 1 << 20])
def test_block_candidates_match_sympy(block_size):
    # the sieve keeps om >= s - 1 because ell-1 may have one prime factor
    # past isqrt(limit); the exact count then comes from the factorization
    limit = 199_999
    small = sieve_primes(math.isqrt(limit) + 1)
    primes = [p for p in sympy.primerange(2, limit + 1) if p % 3 == 1]
    omega = {p: len(sympy.primefactors(p - 1)) for p in primes}
    for s in range(2, 7):
        got = [
            pair
            for lo in range(2, limit + 1, block_size)
            for pair in search._block_candidates(lo, min(lo + block_size, limit + 1), s, small)
        ]
        assert [ell for ell, _ in got] == [p for p in primes if omega[p] >= s], s
        assert all(factors == _factorint(ell - 1) for ell, factors in got)


def _walk_every_candidate(s, limit):
    """find_ls without the sieve or the bound: the first prime whose
    singular set the walk finds empty."""
    for ell in sympy.primerange(7, limit + 1):
        if ell % 3 == 1 and len(sympy.primefactors(ell - 1)) >= s and k_witness(ell) is None:
            return ell
    return None


@pytest.mark.parametrize("s,limit", [
    (2, 1000), (3, 30), (3, 10_000), (4, 10_000), (5, 100_000), (5, 200_000),
])
def test_find_ls_matches_walking_every_candidate(s, limit, monkeypatch):
    expected = _walk_every_candidate(s, limit)
    for block_size in (777, 1 << 20):
        monkeypatch.setattr(search, "_BLOCK", block_size)
        rec = find_ls(s, limit)
        assert rec.ell == expected
        assert rec.factorization == (_factorint(expected - 1) if expected else ())


def test_lbm_scan_small_families():
    rows = lbm_scan(1, 1, 20)
    assert all(not r.skipped for r in rows)
    assert all(r.in_l is False for r in rows)  # L_{1,1} empty in range
    ells = [r.ell for r in rows]
    assert 7 in ells and 13 in ells and 97 in ells
    # beta=0 rows are never in L
    rows0 = lbm_scan(0, 1, 10)
    assert all(r.in_l is False for r in rows0)


def test_lbm_scan_budget_skips():
    rows = lbm_scan(1, 1, 40, budget=10**4)
    big = [r for r in rows if r.ell > 10**4]
    assert big and all(r.skipped and r.in_l is None for r in big)
    small = [r for r in rows if r.ell <= 10**4]
    assert all(not r.skipped for r in small)


def test_lbm_scan_nonempty_family():
    # 67 = 2 * 3 * 11 + 1 has a non-empty singular set
    rows = lbm_scan(1, 11, 8)
    hit = {r.ell: r.in_l for r in rows}
    assert hit[67] is True


@pytest.mark.parametrize("beta,m,alpha_max", [(0, 1, 16), (2, 5, 14)])
def test_lbm_scan_factors_m_once(monkeypatch, beta, m, alpha_max):
    # each walk takes ell-1 = 2^alpha 3^beta m from the scan, never re-factored
    expected = [
        (a, ell, k_witness(ell) is not None)
        for a in range(1, alpha_max + 1)
        if sympy.isprime(ell := 2**a * 3**beta * m + 1)
    ]
    factored = []
    real = arith.factorize
    for module in (search, arith):
        monkeypatch.setattr(module, "factorize", lambda n: factored.append(n) or real(n))
    rows = lbm_scan(beta, m, alpha_max)
    assert [(r.alpha, r.ell, r.in_l) for r in rows] == expected
    assert factored == [m]


def test_lbm_scan_validation():
    with pytest.raises(ValueError):
        lbm_scan(1, 2, 10)   # m not coprime to 6
    with pytest.raises(ValueError):
        lbm_scan(-1, 1, 10)
    with pytest.raises(ValueError):
        lbm_scan(1, -1, 10)   # m < 1: the family has no prime


@functools.cache
def _walk_every_prime(x):
    """density_census without the sieve or the bound."""
    return [p for p in sympy.primerange(7, x + 1) if p % 3 == 1 and k_witness(p) is None]


@pytest.mark.parametrize("x,count", [
    (200_000, None),
    pytest.param(10**6, 565, marks=pytest.mark.slow),
])
def test_density_census_matches_walking_every_prime(x, count):
    rep = density_census(x)
    assert list(rep.primes) == _walk_every_prime(x)
    assert count is None or rep.count == count


def test_density_census_sieves_blocks_with_the_primes_to_the_square_root(monkeypatch):
    # blocks of 777 integers: the scan crosses a block boundary 257 times
    sieved = []

    def recording(n):
        sieved.append(n)
        return sieve_primes(n)

    monkeypatch.setattr(search, "_BLOCK", 777)
    monkeypatch.setattr(search, "sieve_primes", recording)
    assert list(density_census(200_000).primes) == _walk_every_prime(200_000)
    assert sieved and max(sieved) <= math.isqrt(200_000) + 1


def test_density_census_factors_one_chunk_at_a_time(monkeypatch):
    # 8988 candidates below 2e5 share one block of 2^20 integers
    sizes = []

    def recording(n):
        sizes.append(n.size)
        return sieve_factorizations(n)

    monkeypatch.setattr(search, "sieve_factorizations", recording)
    assert list(density_census(200_000).primes) == _walk_every_prime(200_000)
    assert sum(sizes) == 8988
    assert max(sizes) <= search._FACTOR_CHUNK


def _recording(calls, fn):
    def recording(ell, factors=None):
        calls.append(ell)
        return fn(ell, factors)

    return recording


def test_scans_walk_only_the_primes_the_bound_leaves_open(monkeypatch):
    # every candidate is decided by k_set_is_empty, which walks only
    # where the count bound leaves the set open
    decided, walked = [], []
    monkeypatch.setattr(search, "k_set_is_empty", _recording(decided, k_set_is_empty))
    monkeypatch.setattr(singular, "k_witness", _recording(walked, k_witness))
    density_census(20_000)
    primes = [p for p in sympy.primerange(7, 20_001) if p % 3 == 1]
    assert decided == primes
    assert walked == [p for p in primes if count_within_bound(make_context(p), 0)]
    decided.clear()
    walked.clear()
    assert find_ls(5, 200_000).ell == 127681
    assert (len(decided), len(walked)) == (740, 269)  # candidates up to 127681, walks


@functools.cache
def _bound_decided_sample():
    """200 primes 1 mod 6 below 10^7 whose singular set the count bound
    proves non-empty."""
    rng = random.Random(1307)
    sample = set()
    while len(sample) < 200:
        ell = rng.randrange(7, 10**7, 6)  # 1 mod 6
        if sympy.isprime(ell) and not count_within_bound(make_context(ell), 0):
            sample.add(ell)
    return sorted(sample)


def test_k_witness_on_primes_the_bound_decides():
    # the bound proves these sets non-empty; the walk must find a member
    for ell in _bound_decided_sample():
        k = k_witness(ell)
        assert k is not None and criterion(make_context(ell), k).in_k_set, ell


def test_k_set_is_empty_takes_the_bound_where_it_decides(monkeypatch):
    walked = []
    monkeypatch.setattr(singular, "k_witness", _recording(walked, k_witness))
    for ell in _bound_decided_sample():
        assert k_set_is_empty(ell) is False, ell
    assert walked == []


def test_density_census():
    rep = density_census(200)
    assert rep.primes[0] == 7
    assert 31 in rep.primes
    assert rep.count == len(rep.primes)
    assert all(p % 3 == 1 for p in rep.primes)
    assert rep.reference > 0
    j = rep.to_json()
    assert j["count"] == rep.count and j["x"] == 200
    with pytest.raises(ValueError):
        density_census(1)
