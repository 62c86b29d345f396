"""Matrix construction and exact rank against independent routes."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from demjanenko import arith
from demjanenko.arith import make_context, mult_order, probable_prime
from demjanenko.errors import (
    CapExceeded,
    DimensionTooLarge,
    KOutOfRange,
    NonIntegerRank,
    RangeExceeded,
)
from demjanenko.matrix import (
    DemjanenkoMatrix,
    build_matrix,
    dump_matrix,
    exact_rank,
    half_plane_set,
    rank_formula_value,
    rank_mod,
    stabilizer,
)
from demjanenko.singular import k_set, m_value


def _frac(j, ell):
    return Fraction(j % ell, ell)


def fraction_rank(matrix) -> int:
    """Plain Gaussian elimination over exact rationals; the slow oracle."""
    a = [[Fraction(int(x)) for x in row] for row in np.asarray(matrix)]
    rows, cols = len(a), len(a[0]) if len(a) else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def bareiss_rank(matrix) -> int:
    """Fraction-free integer echelon rank (exact, no modular shortcuts)."""
    a = [[int(x) for x in row] for row in np.asarray(matrix)]
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    rank = 0
    prev = 1
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pivot_row = a[rank]
        pv = pivot_row[c]
        for i in range(rank + 1, n_rows):
            row = a[i]
            f = row[c]
            for j in range(c, n_cols):
                row[j] = (pv * row[j] - f * pivot_row[j]) // prev
        prev = pv
        rank += 1
        if rank == n_rows:
            break
    return rank


# 30-bit moduli keep every intermediate product of rank_mod inside int64.
_MOD_PRIMES = [p for p in range((1 << 30) - 1, (1 << 30) - 2000, -2) if probable_prime(p)]


def certified_rank(signs: np.ndarray) -> int:
    """Exact rank via CRT-certified modular elimination.

    Every minor of an n x n sign matrix is bounded by Hadamard's n^{n/2}.
    If rank mod p_i <= r for moduli whose product exceeds twice that
    bound, every (r+1)-minor vanishes modulo the product and is therefore
    zero, so r is also an upper bound for the rational rank.
    """
    n = signs.shape[0]
    bound_bits = int(n / 2 * math.log2(n)) + 2 if n > 1 else 2
    count = max(3, bound_bits // 29 + 1)
    assert count <= len(_MOD_PRIMES)
    best = 0
    for p in _MOD_PRIMES[:count]:
        best = max(best, rank_mod(signs, p))
        if best == n:
            return n
    return best


def _old_build(ctx, k) -> DemjanenkoMatrix:
    """The matrix as build_matrix made it before its one-pass build: the
    members as a tuple, each cube root of unity kept in the stabilizer
    by its own membership check, and a loop over the members that keeps
    the first of each orbit. The independent oracle of the reps."""
    ell = ctx.ell
    members = tuple(j for j in range(1, ell) if k * j % ell + j < ell)
    in_m = set(members)
    roots = [1]
    if (ell - 1) % 3 == 0:
        e = (ell - 1) // 3
        w = next(w for w in (pow(a, e, ell) for a in range(2, ell)) if w != 1)
        roots += [w, w * w % ell]
    elements = [w for w in roots if all(w * j % ell in in_m for j in members)]
    reps, seen = [], set()
    for j in members:  # members are sorted, so reps come out minimal
        if j in seen:
            continue
        seen |= {w * j % ell for w in elements}
        reps.append(j)
    return DemjanenkoMatrix(ell=ell, k=k, reps=tuple(reps))


def test_build_matrix_matches_old_construction():
    for ell in sympy.primerange(3, 201):
        ctx = make_context(ell)
        for k in range(1, ell - 1):
            assert build_matrix(ctx, k) == _old_build(ctx, k), (ell, k)


def test_build_matrix_matches_old_construction_up_to_cap():
    # primes below 3607; each gets the two k with k^2+k+1 = 0 (|W| = 3)
    # when ell = 1 mod 3, and four random k
    rng = random.Random(7)
    primes = [int(p) for p in sympy.primerange(201, 3607)]
    for ell in rng.sample(primes, 12):
        ctx = make_context(ell)
        roots = [k for k in range(1, ell - 1) if (k * k + k + 1) % ell == 0]
        for k in roots + rng.sample(range(1, ell - 1), 4):
            assert build_matrix(ctx, k) == _old_build(ctx, k), (ell, k)


@pytest.mark.parametrize("ell", [5, 7, 13, 31, 61])
def test_half_plane_set_size_and_definition(ell):
    ctx = make_context(ell)
    for k in range(1, ell - 1):
        mask = half_plane_set(ctx, k)
        assert mask.shape == (ell,)
        assert mask.sum() == (ell - 1) // 2
        for j in range(ell):
            lhs = j > 0 and _frac(k * j, ell) + _frac(j, ell) < 1
            assert mask[j] == lhs


def test_k_range_enforced():
    ctx = make_context(13)
    for bad in (0, -1, 12, 13):
        with pytest.raises(KOutOfRange):
            half_plane_set(ctx, bad)
        with pytest.raises(KOutOfRange):
            build_matrix(ctx, bad)


@pytest.mark.parametrize("ell", [7, 13, 31, 61, 67])
def test_stabilizer_size_matches_root_condition(ell):
    # |W| = 3 exactly when k^2+k+1 = 0 mod ell, else 1
    ctx = make_context(ell)
    for k in range(1, ell - 1):
        stab = stabilizer(half_plane_set(ctx, k))
        expect = 3 if (k * k + k + 1) % ell == 0 else 1
        assert len(stab) == expect
        assert 1 in stab


def _stabilizer_all_units(mask) -> tuple[int, ...]:
    """The setwise stabilizer by testing every unit; the exact oracle."""
    ell = mask.size
    w = np.arange(1, ell, dtype=np.int64)
    images = np.outer(w, np.flatnonzero(mask)) % ell
    return tuple(int(x) for x in w[mask[images].all(axis=1)])


def test_stabilizer_matches_all_units_scan():
    for ell in sympy.primerange(3, 201):
        ctx = make_context(ell)
        for k in range(1, ell - 1):
            mask = half_plane_set(ctx, k)
            assert stabilizer(mask) == _stabilizer_all_units(mask), (ell, k)


def test_stabilizer_elements_fix_the_set():
    ctx = make_context(13)
    mask = half_plane_set(ctx, 3)  # 3^2+3+1 = 13
    stab = stabilizer(mask)
    assert len(stab) == 3
    members = set(np.flatnonzero(mask).tolist())
    for w in stab:
        assert {w * j % 13 for j in members} == members


@pytest.mark.parametrize("ell", [7, 13, 31, 61])
def test_coset_reps_partition(ell):
    ctx = make_context(ell)
    for k in range(1, ell - 1):
        mask = half_plane_set(ctx, k)
        stab = stabilizer(mask)
        reps = build_matrix(ctx, k).reps
        assert len(reps) * len(stab) == mask.sum()
        assert list(reps) == sorted(reps)
        seen = set()
        for r in reps:
            orbit = {w * r % ell for w in stab}
            assert r == min(orbit)
            assert not orbit & seen
            seen |= orbit
        assert seen == set(np.flatnonzero(mask).tolist())


def test_matrix_small_hand_oracle():
    # ell=5, k=1: M = {1, 2}; signs from membership of -c^{-1} a
    ctx = make_context(5)
    dm = build_matrix(ctx, 1)
    assert dm.reps == (1, 2)
    in_m = {1, 2}
    for i, c in enumerate(dm.reps):
        cinv = pow(c, -1, 5)
        for j, a in enumerate(dm.reps):
            expected = -1 if (-cinv * a) % 5 in in_m else 1
            assert dm.signs[i, j] == expected


def _signs_from_membership(in_m, reps) -> np.ndarray:
    """The sign matrix as build_matrix made it before it kept only the
    reps: -1 where -c^{-1}a mod ell lies in the half-plane set."""
    ell = in_m.size
    r = np.array(reps, dtype=np.int64)
    inv = np.array([pow(c, -1, ell) for c in reps], dtype=np.int64)
    return np.where(in_m[-np.outer(inv, r) % ell], -1, 1)


def test_signs_match_half_plane_membership():
    for ell in sympy.primerange(3, 201):
        ctx = make_context(ell)
        for k in range(1, ell - 1):
            dm = build_matrix(ctx, k)
            expected = _signs_from_membership(half_plane_set(ctx, k), dm.reps)
            assert np.array_equal(dm.signs, expected), (ell, k)


def test_matrix_is_a_value():
    ctx = make_context(67)
    assert build_matrix(ctx, 6) == build_matrix(ctx, 6)
    assert build_matrix(ctx, 6) != build_matrix(ctx, 7)
    assert len({build_matrix(ctx, 6), build_matrix(ctx, 6)}) == 1


def test_build_matrix_refuses_past_physical_memory(monkeypatch):
    # the build's peak at ell = 1009 is bounded by 32 bytes a residue
    ctx = make_context(1009)
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 32 * 1009)
    assert build_matrix(ctx, 2).dimension == 504
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 32 * 1009 - 1)
    with pytest.raises(CapExceeded):
        build_matrix(ctx, 2)


def test_signs_and_rank_refuse_past_physical_memory(monkeypatch):
    dm = build_matrix(make_context(67), 6)  # dim 33
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 32 * 33 * 33)
    assert dm.signs.shape == (33, 33)
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 32 * 33 * 33 - 1)
    with pytest.raises(CapExceeded):
        dm.signs
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 32 * 33)
    assert exact_rank(dm) == 31
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 32 * 33 - 1)
    with pytest.raises(CapExceeded):
        exact_rank(dm)


def test_matrix_refuses_ell_past_int64_products(monkeypatch):
    # from 2^31 on, a product of two residues can overflow int64; the
    # refusal does not depend on the memory of the machine
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 1 << 62)
    ctx = make_context(2147483659)
    with pytest.raises(RangeExceeded):
        build_matrix(ctx, 2)
    by_hand = DemjanenkoMatrix(ell=ctx.ell, k=2, reps=(1,))
    with pytest.raises(RangeExceeded):
        by_hand.signs
    with pytest.raises(RangeExceeded):
        exact_rank(by_hand)


def test_dump_matrix_format():
    ctx = make_context(13)
    dm = build_matrix(ctx, 3)
    text = dump_matrix(dm)
    lines = text.splitlines()
    assert lines[0] == "ell=13 k=3 dim=2 |W|=3"
    assert len(lines) == 3
    assert all(set(row) <= {"+", "-"} for row in lines[1:])
    assert all(len(row) == 2 for row in lines[1:])


def test_exact_rank_matches_fraction_oracle():
    for ell in (7, 13, 31, 37):
        ctx = make_context(ell)
        for k in range(1, ell - 1):
            dm = build_matrix(ctx, k)
            assert exact_rank(dm) == fraction_rank(dm.signs)


def test_exact_rank_matches_certified_elimination():
    for ell in sympy.primerange(3, 201):
        ctx = make_context(ell)
        for k in range(1, ell - 1):
            dm = build_matrix(ctx, k)
            assert exact_rank(dm) == certified_rank(dm.signs), (ell, k)


def test_exact_rank_large_ell_sample():
    # Full rank is certified by full rank modulo one prime (rank mod p is
    # at most the rational rank); singular ranks meet the paper's formula.
    rng = random.Random(5)
    primes = [int(p) for p in sympy.primerange(501, 1201)]
    singular = 0
    for ell in rng.sample(primes, 8):
        ctx = make_context(ell)
        members = k_set(ctx).members
        for k in rng.sample(members, min(2, len(members))):
            dm = build_matrix(ctx, k)
            expected = rank_formula_value(ctx, k, m_value(ctx, k).M)
            assert exact_rank(dm) == expected < dm.dimension, (ell, k)
            singular += 1
        k = rng.choice([k for k in range(1, ell - 1) if k not in members])
        dm = build_matrix(ctx, k)
        assert exact_rank(dm) == dm.dimension == rank_mod(dm.signs, _MOD_PRIMES[0]), (ell, k)
    assert singular > 0


def _rank_all_power_sums(dm) -> int:
    """exact_rank as it was before each orbit stopped at its first nonzero
    power sum: every power sum sum_r r^t mod ell, t = |W|, 3|W|, ..., is
    computed, and an orbit counts when any of its sums is nonzero."""
    n = dm.dimension
    ell, w = dm.ell, dm.stabilizer_size
    power = np.array([pow(r, w, ell) for r in dm.reps], dtype=np.int64)
    step = power * power % ell
    sums = np.empty(n, dtype=np.int64)
    for i in range(n):  # power = r^t for t = (2i+1)w
        sums[i] = power.sum() % ell
        power = power * step % ell
    orbit = np.gcd(np.arange(w, ell - 1, 2 * w), ell - 1)
    return int(np.isin(orbit, orbit[sums != 0]).sum())


def test_exact_rank_matches_all_power_sums_past_old_cap():
    # primes in (3606, 20000] with 3 | ell-1: a singular k (the least M, so
    # the most orbits of zeros), a k with |W| = 3 and a random k each
    rng = random.Random(11)
    primes = [int(p) for p in sympy.primerange(3607, 20001) if p % 3 == 1]
    singular = 0
    for ell in rng.sample(primes, 3):
        ctx = make_context(ell)
        members = k_set(ctx).members
        ks = [next(k for k in range(1, ell - 1) if (k * k + k + 1) % ell == 0),
              rng.randrange(1, ell - 1)]
        if members:
            ks.append(min(members, key=lambda k: m_value(ctx, k).M))
        for k in ks:
            dm = build_matrix(ctx, k)
            rank = exact_rank(dm)
            assert rank == _rank_all_power_sums(dm), (ell, k)
            singular += rank < dm.dimension
    assert singular > 0


def test_exact_rank_meets_rank_formula_up_to_1e5():
    rng = random.Random(13)
    primes = [int(p) for p in sympy.primerange(20001, 100_001) if p % 3 == 1]
    checked = 0
    for ell in rng.sample(primes, 10):
        ctx = make_context(ell)
        members = k_set(ctx).members
        for k in rng.sample(members, min(2, len(members))):
            dm = build_matrix(ctx, k)
            expected = rank_formula_value(ctx, k, m_value(ctx, k).M)
            assert exact_rank(dm) == expected < dm.dimension, (ell, k)
            checked += 1
    assert checked > 0


def test_rank_routes_agree_on_random_sign_matrices():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        a = rng.choice([-1, 1], size=(n, n)).astype(np.int64)
        # force some singular cases
        if rng.random() < 0.5:
            a[n - 1] = a[0]
        expected = fraction_rank(a)
        assert bareiss_rank(a) == expected
        p = 1073741789  # 30-bit prime
        assert rank_mod(a, p) <= expected


def test_rank_permutation_invariance():
    ctx = make_context(67)
    dm = build_matrix(ctx, 6)  # singular case
    base = exact_rank(dm)
    assert base < dm.dimension
    rng = np.random.default_rng(11)
    for _ in range(50):
        perm = rng.permutation(dm.dimension)
        shuffled = dm.signs[perm][:, rng.permutation(dm.dimension)]
        assert bareiss_rank(shuffled) == base


def test_exact_rank_cap():
    ctx = make_context(67)
    dm = build_matrix(ctx, 6)
    with pytest.raises(DimensionTooLarge):
        exact_rank(dm, cap=10)


def test_exact_rank_has_no_default_cap():
    dm = build_matrix(make_context(3607), 2)  # past the dimension-600 cap it once had
    assert exact_rank(dm) == dm.dimension == 1803


def test_rank_formula_value():
    ctx = make_context(67)
    assert rank_formula_value(ctx, 6, 33) == 31
    with pytest.raises(NonIntegerRank):
        rank_formula_value(ctx, 6, 4)


def test_bareiss_on_known_determinant():
    a = np.array([[2, 0], [0, 3]])
    assert bareiss_rank(a) == 2
    assert bareiss_rank(np.array([[1, 2], [2, 4]])) == 1
    assert bareiss_rank(np.zeros((3, 3), dtype=int)) == 0


def test_orders_on_reps_well_defined():
    # multiplying a rep by a stabilizer element permutes rows consistently:
    # the matrix entry only depends on the cosets
    ctx = make_context(13)
    mask = half_plane_set(ctx, 3)
    stab = stabilizer(mask)
    members = np.flatnonzero(mask).tolist()
    for c in members:
        for a in members:
            base = mask[(-pow(c, -1, 13) * a) % 13]
            for w in stab:
                cw = c * w % 13
                assert mask[(-pow(cw, -1, 13) * a) % 13] == base


def test_mult_order_consistency_with_stabilizer():
    # the nontrivial stabilizer element has order 3
    ctx = make_context(13)
    stab = stabilizer(half_plane_set(ctx, 3))
    others = [w for w in stab if w != 1]
    assert all(mult_order(w, ctx).order == 3 for w in others)
