"""The four workloads: seeded inputs, one timed pass, and a gate.

Each workload builds its inputs from the seed (`inputs`), runs one pass
of library calls (`run_pass`) and re-checks that pass's outputs against
references independent of the code path that produced them (`gate`),
outside the timed region. Library calls go through module attributes
(`search.census`, not an imported name) so a traced pass sees them.

A unit's latency is the time from the start of the public call that
produces it until that call hands the unit back: census reports share
the census call, find_ls decisions share their find_ls call, lbm rows
share their lbm_scan call.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from demjanenko import arith, cyclotomic, matrix, search, singular


@dataclass
class Pass:
    units: int                                   # units attempted
    latencies: list[float] = field(default_factory=list)
    first_result_s: float = 0.0
    outputs: object = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    failed_units: int = 0                        # units lost to exceptions


@dataclass
class Gate:
    checks: int = 0
    failed_units: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, units: int, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failed_units += units
            self.messages.append(message)


# ---------------------------------------------------------------------------
# Number theory of the benchmark's own, used to make inputs and references
# without calling the code under test.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a witness set exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> dict[int, int]:
    """Trial division; meant for n up to a few times 10^8."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def odd_primes_upto(n: int) -> list[int]:
    mask = np.ones(n + 1, dtype=bool)
    mask[:3] = False
    mask[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if mask[p]:
            mask[p * p::2 * p] = False
    return [int(p) for p in np.nonzero(mask)[0]]


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def count_bound(ell: int) -> tuple[Fraction, Fraction]:
    """(main term, error bound) of the singular-count theorem for ell."""
    alpha, beta = valuation(ell - 1, 2), valuation(ell - 1, 3)
    main = Fraction(ell, 2 ** (2 * alpha + 2)) * (1 - Fraction(1, 9**beta))
    # 4 beta^2 sqrt(ell) + 33/16, with sqrt(ell) rounded up to an integer
    err = 4 * beta**2 * (math.isqrt(ell) + 1) + Fraction(33, 16)
    return main, err


def in_k_set(ell: int, ks) -> list[bool]:
    """Membership of each k by the library's per-k criterion, the oracle."""
    ctx = arith.make_context(ell)
    return [singular.criterion(ctx, k).in_k_set for k in ks]


def odd_order_subgroup(ell: int) -> list[int]:
    """Every unit of odd order mod ell; every singular k is one of them."""
    n = ell - 1
    primes = factor(n)
    g = next(g for g in range(2, ell) if all(pow(g, n // q, ell) != 1 for q in primes))
    h = pow(g, 1 << valuation(n, 2), ell)
    out, x = [], 1
    for _ in range(n >> valuation(n, 2)):
        out.append(x)
        x = x * h % ell
    return out


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# census: thousands of small k_set calls through search.census


class Census:
    name = "census"
    unit = "prime"

    def inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(seed)
        lo = {"full": 30_000, "tiny": 600}[size]
        max_ell = lo + rng.randrange(lo // 100)
        primes = odd_primes_upto(max_ell)
        return {
            "max_ell": max_ell,
            "primes": primes,
            "shards": math.ceil(len(primes) / 512),
            "spot": sorted(rng.sample(primes[len(primes) // 2:], 8)),
            "rng": random.Random(seed + 1),
            "runs": 0,
        }

    def run_pass(self, inp: dict, tmp_dir: str) -> Pass:
        inp["runs"] += 1
        path = os.path.join(tmp_dir, f"census-{inp['runs']}.ckpt")
        if os.path.exists(path):
            os.remove(path)
        cfg = search.SearchConfig(max_ell=inp["max_ell"], workers=1, checkpoint_path=path)
        spot = set(inp["spot"])
        rows, arrivals, errors = [], [], []
        t0 = time.perf_counter()
        try:
            for rep in search.census(cfg):
                arrivals.append(time.perf_counter() - t0)
                ell = rep.ctx.ell
                rows.append((ell, rep.count, rep.members if ell in spot else None))
        except Exception as exc:  # the gate counts the missing reports
            errors.append(f"census raised {exc!r}")
        checkpoint = []
        if os.path.exists(path):
            with open(path) as fh:
                checkpoint = fh.read().split("\n")
            os.remove(path)
        return Pass(
            units=len(inp["primes"]),
            latencies=arrivals,
            first_result_s=arrivals[0] if arrivals else 0.0,
            outputs=[rows, checkpoint],
            errors=errors,
        )

    def gate(self, inp: dict, outputs) -> Gate:
        rows, checkpoint = outputs
        g = Gate()
        got = [ell for ell, _, _ in rows]
        expected = inp["primes"]
        wrong = len(set(expected) ^ set(got)) + len(got) - len(set(got))
        g.check(got == expected, max(wrong, 1),
                f"census reported {len(got)} primes, expected one per odd prime <= {inp['max_ell']}")
        done = [line for line in checkpoint if line.startswith("done ")]
        g.check(len(set(done)) == inp["shards"], 1,
                f"checkpoint has {len(set(done))} shards, expected {inp['shards']}")
        rng = inp["rng"]
        for ell, count, members in rows:
            main, err = count_bound(ell)
            g.check(abs(count - main) <= err, 1, f"ell={ell}: count {count} outside the bound")
            if members is None:
                continue
            inside = set(members)
            outside = [k for k in rng.sample(range(1, ell - 1), 5) if k not in inside]
            ok = (len(members) == count and all(in_k_set(ell, members[:5]))
                  and not any(in_k_set(ell, outside)))
            g.check(ok, 1, f"ell={ell}: members disagree with the criterion")
        return g


# ---------------------------------------------------------------------------
# kset_large: singular.k_set on primes whose tables are far larger than L3

# (log2 of the stratum base, alpha, beta): each seed draws one prime per
# stratum from [base, base * (1 + 1/64)) with exactly that factor profile,
# so the work, the member count and the peak memory barely move with it.
# The largest goes first, so the first result is the longest call.
_KSET_STRATA = ((22.8, 1, 1), (22.4, 2, 2), (22.0, 1, 1))
_TINY_KSET_STRATA = ((13.0, 1, 1), (12.5, 2, 2), (12.0, 1, 1))


class KSetLarge:
    name = "kset_large"
    unit = "prime"

    def inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(seed)
        strata = _KSET_STRATA if size == "full" else _TINY_KSET_STRATA
        ells = []
        for exp, alpha, beta in strata:
            base = int(2**exp)
            while True:
                ell = base + rng.randrange(base // 64)
                if (valuation(ell - 1, 2) == alpha and valuation(ell - 1, 3) == beta
                        and is_prime(ell)):
                    ells.append(ell)
                    break
        return {"ells": ells, "rng": random.Random(seed + 1)}

    def run_pass(self, inp: dict, tmp_dir: str) -> Pass:
        rng = inp["rng"]
        p = Pass(units=len(inp["ells"]))
        t0 = time.perf_counter()
        for ell in inp["ells"]:
            try:
                rep, dt = _timed(lambda: singular.k_set(arith.make_context(ell)))
            except Exception as exc:
                p.errors.append(f"ell={ell}: k_set raised {exc!r}")
                p.failed_units += 1
                continue
            if not p.latencies:
                p.first_result_s = time.perf_counter() - t0
            p.latencies.append(dt)
            # keep a sample, not the member tuple, so memory stays that of one call
            members = rep.members
            inside = rng.sample(members, min(20, len(members)))
            outside = []
            while len(outside) < 20:
                k = rng.randrange(1, ell - 1)
                i = bisect.bisect_left(members, k)
                if i == len(members) or members[i] != k:
                    outside.append(k)
            p.outputs.append((ell, rep.count, inside, outside))
            del rep, members
        return p

    def gate(self, inp: dict, outputs) -> Gate:
        g = Gate()
        for ell, count, inside, outside in outputs:
            main, err = count_bound(ell)
            g.check(abs(count - main) <= err, 1, f"ell={ell}: count {count} outside the bound")
            g.check(all(in_k_set(ell, inside)), 1,
                    f"ell={ell}: a reported member fails the criterion")
            g.check(not any(in_k_set(ell, outside)), 1,
                    f"ell={ell}: a non-member passes the criterion")
        return g


# ---------------------------------------------------------------------------
# search: emptiness decisions on both sides of the vector/walk route boundary

TABLE1 = ((3, 10_000, 31), (4, 10_000, 3121), (5, 200_000, 127681))
KNOWN_EMPTY = 25858561
# Criterion 7: (a, b, d, e) -> prime divisors of the resultant.
CRITERION7 = {(2, 1, 1, 1): (3,), (3, 2, 1, 1): (3, 271), (3, 1, 1, 1): (3, 271)}
# Seeded resultants come from this pool, all a <= 5 and all cheap to
# factor; l_set(5, 2, 1, 1) runs on every seed.
_LSET_POOL = ((4, 1, 1, 1), (4, 2, 1, 1), (4, 3, 1, 1), (3, 1, 1, 5), (3, 2, 5, 1), (2, 1, 5, 1))
_LSET_FIXED = (5, 2, 1, 1)
LBM_FIXED = ((1, 1), (2, 1), (3, 1))          # criterion 10 families
LBM_ALPHA_MAX = 40
LBM_BUDGET = 1 << 40
# Largest prime of the fixed families that is decided by a full scan
# (<= 2^20): seeded families with a larger one would raise peak memory.
_LBM_SCAN_TOP = 786433


def _omega_upto(n: int) -> np.ndarray:
    omega = np.zeros(n + 1, dtype=np.int16)
    for p in [2] + odd_primes_upto(n):
        omega[p::p] += 1
    return omega


def _lbm_primes(beta: int, m: int) -> list[int]:
    """Every prime row of the family; those above the budget are skipped."""
    ells = (2**alpha * 3**beta * m + 1 for alpha in range(1, LBM_ALPHA_MAX + 1))
    return [ell for ell in ells if is_prime(ell)]


class Search:
    name = "search"
    unit = "decision"  # an emptiness decision, or one resultant record

    def inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(seed)
        full = size == "full"
        table1 = TABLE1 if full else TABLE1[:2]
        omega = _omega_upto(max(limit for _, limit, _ in table1))
        # find_ls decides every candidate up to the answer, in order
        find_ls_units = {
            s: sum(1 for ell in range(7, answer + 1, 6) if omega[ell - 1] >= s and is_prime(ell))
            for s, _, answer in table1
        }
        lo, hi = (1 << 20, 1 << 22) if full else (1 << 20, (1 << 20) + (1 << 16))
        sample = []
        while len(sample) < (20 if full else 3):
            ell = rng.randrange(lo, hi) | 1
            if ell % 3 == 1 and ell not in sample and len(factor(ell - 1)) >= 5 and is_prime(ell):
                sample.append(ell)
        families = list(LBM_FIXED)
        while len(families) < len(LBM_FIXED) + 2:
            fam = (rng.randrange(1, 4), rng.choice([m for m in range(5, 50) if math.gcd(m, 6) == 1]))
            scanned = [p for p in _lbm_primes(*fam) if p <= 1 << 20]
            if fam not in families and max(scanned, default=0) <= _LBM_SCAN_TOP:
                families.append(fam)
        if not full:
            families = [(2, 1), families[-1]]
        lsets = list(CRITERION7) + ([_LSET_FIXED] if full else []) + rng.sample(_LSET_POOL, 2)
        return {
            "table1": table1,
            "find_ls_units": find_ls_units,
            "sample": [KNOWN_EMPTY] + sample if full else sample,
            "families": families,
            "lbm_units": {fam: sum(1 for p in _lbm_primes(*fam) if p <= LBM_BUDGET)
                          for fam in families},
            "lsets": lsets,
        }

    def run_pass(self, inp: dict, tmp_dir: str) -> Pass:
        units = (sum(inp["find_ls_units"].values()) + len(inp["sample"])
                 + sum(inp["lbm_units"].values()) + len(inp["lsets"]))
        p = Pass(units=units)
        out = {"lbm": {}, "find_ls": {}, "empty": {}, "l_set": {}}
        t0 = time.perf_counter()

        def call(kind, key, n_units, fn, *args):
            try:
                res, dt = _timed(fn, *args)
            except Exception as exc:
                p.errors.append(f"{kind}{key}: raised {exc!r}")
                p.failed_units += n_units
                return
            out[kind][key] = res
            if n_units and not p.latencies:
                p.first_result_s = time.perf_counter() - t0
            p.latencies.extend([dt] * n_units)

        # the largest Table 1 search first: the first result is a long call,
        # which a noisy machine times more steadily than a short one
        for s, limit, _ in reversed(inp["table1"]):
            call("find_ls", s, inp["find_ls_units"][s], search.find_ls, s, limit)
        for fam in inp["families"]:
            call("lbm", fam, inp["lbm_units"][fam], search.lbm_scan, *fam, LBM_ALPHA_MAX, LBM_BUDGET)
        for ell in inp["sample"]:
            call("empty", ell, 1, search.k_set_is_empty, ell)
        for params in inp["lsets"]:
            call("l_set", params, 1, cyclotomic.l_set, *params)
        p.outputs = out
        return p

    def gate(self, inp: dict, out) -> Gate:
        g = Gate()
        for s, limit, answer in inp["table1"]:
            rec = out["find_ls"].get(s)
            if rec is None:
                continue
            fact = 1
            for q, e in rec.factorization:
                fact *= q**e
            ok = rec.ell == answer and fact == answer - 1 and len(rec.factorization) >= s
            g.check(ok, inp["find_ls_units"][s], f"find_ls({s}, {limit}) = {rec.ell}, expected {answer}")
        for ell, empty in out["empty"].items():
            self._check_decision(g, ell, empty)
        for fam, rows in out["lbm"].items():
            expected = _lbm_primes(*fam)
            ok = [r.ell for r in rows] == expected and all(
                r.skipped == (r.ell > LBM_BUDGET) for r in rows)
            g.check(ok, inp["lbm_units"][fam], f"lbm_scan{fam}: rows {[r.ell for r in rows]}")
            for r in rows:
                if not r.skipped:
                    self._check_decision(g, r.ell, not r.in_l)
        for params, rec in out["l_set"].items():
            g.check(self._l_set_ok(params, rec), 1, f"l_set{params}: wrong record")
        return g

    @staticmethod
    def _check_decision(g: Gate, ell: int, empty: bool) -> None:
        """A non-empty decision needs a witness the criterion accepts. An
        empty one is re-decided by the criterion on every odd-order unit
        when there are few, else by the full scan; 25858561 is checked
        against its published value (its scan would need 2 GB)."""
        if ell == KNOWN_EMPTY:
            g.check(empty, 1, f"{KNOWN_EMPTY} must be empty")
        elif not empty:
            k = search.k_witness(ell)
            g.check(k is not None and in_k_set(ell, [k])[0], 1, f"ell={ell}: no valid witness")
        elif (ell - 1) >> valuation(ell - 1, 2) <= 1 << 14:
            ks = odd_order_subgroup(ell)
            hits = [k for k, ok in zip(ks, in_k_set(ell, ks)) if ok]
            g.check(not hits, 1, f"ell={ell}: decided empty, criterion accepts {hits[:3]}")
        else:
            count = singular.k_set(arith.make_context(ell)).count
            g.check(count == 0, 1, f"ell={ell}: decided empty, full scan finds {count}")

    @staticmethod
    def _l_set_ok(params, rec) -> bool:
        if params in CRITERION7:
            return rec.prime_divisors == CRITERION7[params]
        a, b, d, e = params
        res = rec.resultant
        if res == 0:
            return False
        rest = abs(res)
        for q in rec.prime_divisors:
            if not is_prime(q) or rest % q:
                return False
            while rest % q == 0:
                rest //= q
        if rest != 1:
            return False
        p_poly = cyclotomic_coeffs(3**a * d)
        q_poly = compose_neg_quadratic(cyclotomic_coeffs(3**b * e))
        return all(res % m == resultant_mod(p_poly, q_poly, m) for m in (1_000_000_007, 998_244_353))


def cyclotomic_coeffs(n: int) -> list[int]:
    """Phi_n, constant term first, from prod_{d | n} (X^d - 1)^mu(n/d)."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = _mobius(n // d)
        if mu:
            factor_poly = [-1] + [0] * (d - 1) + [1]
            if mu == 1:
                num = _poly_mul(num, factor_poly)
            else:
                den = _poly_mul(den, factor_poly)
    # exact division num / den; den is monic up to sign
    quot = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(den) - 1] // den[-1]
        quot[i] = c
        for j, x in enumerate(den):
            rem[i + j] -= c * x
    return quot


def _mobius(n: int) -> int:
    f = factor(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def compose_neg_quadratic(coeffs: list[int]) -> list[int]:
    """p(-X^2 - X) for p given constant term first."""
    acc = [0]
    for c in reversed(coeffs):
        acc = _poly_mul(acc, [0, -1, -1])
        acc[0] += c
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return acc


def resultant_mod(p: list[int], q: list[int], m: int) -> int:
    """Res(p, q) mod the prime m as the Sylvester determinant."""
    dp, dq = len(p) - 1, len(q) - 1
    n = dp + dq
    syl = np.zeros((n, n), dtype=np.int64)
    for i in range(dq):
        syl[i, i:i + dp + 1] = [c % m for c in reversed(p)]
    for i in range(dp):
        syl[dq + i, i:i + dq + 1] = [c % m for c in reversed(q)]
    det = 1
    for c in range(n):
        nz = np.nonzero(syl[c:, c])[0]
        if nz.size == 0:
            return 0
        r = c + int(nz[0])
        if r != c:
            syl[[c, r]] = syl[[r, c]]
            det = -det
        det = det * int(syl[c, c]) % m
        inv = pow(int(syl[c, c]), m - 2, m)
        factors = syl[c + 1:, c] * inv % m
        syl[c + 1:] = (syl[c + 1:] - np.outer(factors, syl[c]) % m) % m
    return det % m


# ---------------------------------------------------------------------------
# rank: build_matrix + exact_rank, singular and full-rank k side by side


class Rank:
    name = "rank"
    unit = "matrix"

    def inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(seed)
        # Latencies come in blocks of equal-size matrices, one block per
        # ell and kind, with gaps of up to 30% between blocks. This range
        # and these counts put the median inside the full-rank block of
        # ell = 271..283 and the tail percentile (11th largest) inside the
        # singular block of ell = 223, where neither jumps between seeds.
        lo, hi, singular_per_prime, full_per_prime = (
            (200, 300, 3, 4) if size == "full" else (20, 80, 1, 2))
        singular_units, full_units, members, ctxs = [], [], {}, {}
        for ell in odd_primes_upto(hi):
            if ell < lo or (ell - 1) % 3:
                continue
            ctxs[ell] = ctx = arith.make_context(ell)
            ks = singular.k_set(ctx).members
            members[ell] = set(ks)
            singular_units += [(ell, k) for k in rng.sample(ks, min(singular_per_prime, len(ks)))]
            others = [k for k in range(1, ell - 1) if k not in members[ell]]
            full_units += [(ell, k) for k in rng.sample(others, full_per_prime)]
        # descending ell, the two kinds interleaved so that machine noise
        # during the pass reaches both alike; the largest singular matrix
        # goes first, so the first result is a long call
        units = sorted(singular_units + full_units,
                       key=lambda u: (-u[0], u[1] not in members[u[0]]))
        units.insert(0, units.pop(units.index(max(singular_units))))
        return {"units": units, "members": members, "ctxs": ctxs}

    def run_pass(self, inp: dict, tmp_dir: str) -> Pass:
        p = Pass(units=len(inp["units"]))
        ctxs = inp["ctxs"]

        def one(ell, k):
            dm = matrix.build_matrix(ctxs[ell], k)
            return dm.dimension, matrix.exact_rank(dm)

        t0 = time.perf_counter()
        for ell, k in inp["units"]:
            try:
                (dim, rank), dt = _timed(one, ell, k)
            except Exception as exc:
                p.errors.append(f"ell={ell} k={k}: raised {exc!r}")
                p.failed_units += 1
                continue
            if not p.latencies:
                p.first_result_s = time.perf_counter() - t0
            p.latencies.append(dt)
            p.outputs.append((ell, k, dim, rank))
        return p

    def gate(self, inp: dict, outputs) -> Gate:
        g = Gate()
        for ell, k, dim, rank in outputs:
            ctx = inp["ctxs"][ell]
            if k in inp["members"][ell]:
                expected = matrix.rank_formula_value(ctx, k, singular.m_value(ctx, k).M)
                g.check(rank == expected and rank < dim, 1,
                        f"ell={ell} k={k}: singular rank {rank}, formula {expected}")
            else:
                g.check(rank == dim, 1, f"ell={ell} k={k}: rank {rank} < dimension {dim}")
        return g


WORKLOADS = {w.name: w for w in (Census(), KSetLarge(), Search(), Rank())}
