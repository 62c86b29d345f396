"""Acceptance gate: one test per criterion, one pass/fail line each.

Criterion 8 includes a closed-form subcheck for the k = -1 term that is
arithmetically false whenever alpha >= 2 (the order of -1 is 2, so the
odd-order indicator kills the term and its value is 0, not
(2^alpha - 2) a_0). That subcheck is reported and left failing rather
than patched over; see the repository notes.
"""

import time

import pytest

from demjanenko import verify
from demjanenko.arith import make_context
from demjanenko.cyclotomic import l_set
from demjanenko.search import (
    SearchConfig,
    census,
    corollary712_search,
    find_ls,
    lbm_scan,
    sieve_primes,
)
from demjanenko.singular import k_set


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def _summary(failures: list[str]) -> str:
    return "; ".join(failures[:4]) + (" ..." if len(failures) > 4 else "")


def test_criterion_1_empty_k_primes():
    counts = {ell: k_set(make_context(ell)).count for ell in (7, 19, 163, 487, 1459, 39367)}
    ok = (
        counts[7] == 0
        and counts[19] == 0
        and all(counts[ell] > 0 for ell in (163, 487, 1459, 39367))
    )
    _report(1, "empty singular set exactly for 7 and 19 among the eight", ok, str(counts))


def test_criterion_2_finite_alpha1_search():
    got = corollary712_search()
    expected = [7, 19, 163, 487, 1459, 39367, 86093443, 258280327]
    _report(2, "alpha=1 finite search yields the eight primes", got == expected, str(got))


def test_criterion_3_table1_fast():
    got = {s: find_ls(s, limit).ell for s, limit in ((3, 10_000), (4, 10_000), (5, 200_000))}
    ok = got == {3: 31, 4: 3121, 5: 127681}
    _report(3, "smallest empty-set primes for s=3,4,5", ok, str(got))


@pytest.mark.slow
def test_criterion_3_table1_s6():
    rec = find_ls(6, 26_000_000)
    _report(3, "smallest empty-set prime for s=6", rec.ell == 25858561, str(rec.ell))


def test_criterion_4_oracle_equivalence():
    bad = verify.oracle_suite(200)
    _report(4, "criterion matches matrix singularity for all primes <= 200", not bad, _summary(bad))


def test_criterion_5_theorem1_bound():
    t0 = time.time()
    n = 0
    for rep in census(SearchConfig(max_ell=100_000, workers=4)):
        n += 1
        if not rep.within_bound:  # census would already have raised
            _report(5, "count bound", False, f"ell={rep.ctx.ell}")
    elapsed = time.time() - t0
    _report(
        5,
        "count bound holds for every prime <= 1e5",
        n == 9591 and elapsed < 300,
        f"{n} primes in {elapsed:.0f}s",
    )


def test_criterion_6_rank_formula():
    bad = verify.rankformula_suite(500)
    _report(6, "exact rank equals the lcm-defect formula, primes <= 500", not bad, _summary(bad))


def test_criterion_7_resultant_lsets():
    got = {
        (2, 1): l_set(2, 1, 1, 1).prime_divisors,
        (3, 2): l_set(3, 2, 1, 1).prime_divisors,
        (3, 1): l_set(3, 1, 1, 1).prime_divisors,
    }
    ok = got == {(2, 1): (3,), (3, 2): (3, 271), (3, 1): (3, 271)}
    _report(7, "cyclotomic resultant prime sets", ok, str(got))


def test_criterion_8_identity_suite():
    failures = verify.identities_suite(200)
    _report(8, "character and rational identity suite, primes <= 200", not failures,
            _summary(failures))


def test_criterion_9_positivity_threshold():
    bad = []
    for ell in map(int, sieve_primes(10_000)):
        if ell < 3:
            continue
        ctx = make_context(ell)
        if ctx.beta >= 1 and k_set(ctx).count == 0:
            if ell > 441 * 2 ** (4 * ctx.alpha) * ctx.beta**4:
                bad.append(ell)
    _report(9, "empty-set primes <= 1e4 obey the positivity threshold", not bad, str(bad))


def test_criterion_10_lbm_emptiness():
    t0 = time.time()
    results = {}
    for beta in (1, 2, 3):
        rows = lbm_scan(beta, 1, 40, budget=1 << 40)
        checked = [r for r in rows if not r.skipped]
        results[beta] = (len(checked), all(r.in_l is False for r in checked))
    ok = all(flag for _, flag in results.values()) and all(
        n > 0 for n, _ in results.values()
    )
    elapsed = time.time() - t0
    _report(
        10,
        "families 2^a*3^b+1 show no singular members up to the 2^40 budget",
        ok and elapsed < 120,
        f"{results} in {elapsed:.0f}s",
    )
