"""Exact linear algebra: generic RREF, GF(p) numpy kernels, certified
rational nullspace.  The numpy kernels are cross-checked against the
pure-Python generic path on random instances."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, islice
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperlin.fields as fields
import hyperlin.linalg as linalg
from hyperlin import LinearSys, affine_space
from hyperlin.conditions import point_condition_rows
from hyperlin.fields import GF, primes_from, rationals
from hyperlin.linalg import (
    clear_denominators,
    nullspace,
    nullspace_mod_p,
    nullspace_rational,
    rank,
    rank_mod_p,
    ref_mod_p,
    rref,
    rref_mod_p,
)
import oracles
from oracles import rref_nullspace

QQ = rationals()


def frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_rref_small_known():
    # [[1,2],[2,4],[0,1]] has rank 2 with pivots 0,1
    R, piv = rref(frac_rows([[1, 2], [2, 4], [0, 1]]), QQ)
    assert piv == [0, 1]
    assert R == frac_rows([[1, 0], [0, 1]])


def test_rref_reverse_cols_matches_section_echelon_example():
    # columns: x^2, x*y, y^2, x*z, y*z, z^2 (grevlex-descending);
    # rows are x^2+z^2, y^2-x*z, x*y+y^2, x*z.  Pivoting right-to-left must
    # give back rows representing x^2+z^2, x*z, y^2, x*y in that order.
    rows = frac_rows(
        [
            [1, 0, 0, 0, 0, 1],
            [0, 0, 1, -1, 0, 0],
            [0, 1, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
        ]
    )
    R, piv = rref(rows, QQ, reverse_cols=True)
    assert piv == [5, 3, 2, 1]
    assert R == frac_rows(
        [
            [1, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
        ]
    )


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(10):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(6)] for _ in range(4)]
        R1, p1 = rref(rows, QQ)
        R2, p2 = rref(R1, QQ)
        assert R1 == R2 and p1 == p2


def test_nullspace_generic():
    # x + y + z = 0, y - z = 0 over QQ -> span{(-2, 1, 1)} canonical v[free]=1
    rows = frac_rows([[1, 1, 1], [0, 1, -1]])
    basis = nullspace(rows, QQ)
    assert len(basis) == 1
    v = basis[0]
    assert v[2] == 1
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0
    # empty matrix: nullspace is everything
    idb = nullspace([], QQ, ncols=3)
    assert len(idb) == 3


def test_nullspace_extension_field():
    F = GF(7, 2)
    u = F.generator()
    rows = [[F.one, u, F.zero], [F.zero, F.zero, F.one]]
    basis = nullspace(rows, F)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        acc = F.zero
        for a, b in zip(row, v):
            acc = F.add(acc, F.mul(a, b))
        assert F.is_zero(acc)


# -- numpy GF(p) kernels -------------------------------------------------------


def np_oracle_pairs(rng, p, m, n):
    A = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64)
    F = GF(p)
    rows = [[int(v) for v in row] for row in A]
    return A, rows, F


def test_rref_mod_p_matches_generic():
    rng = random.Random(3)
    for p in (2, 7, 101):
        for _ in range(8):
            m, n = rng.randint(1, 6), rng.randint(1, 7)
            A, rows, F = np_oracle_pairs(rng, p, m, n)
            Rnp, pivnp = rref_mod_p(A, p)
            Rgen, pivgen = rref(rows, F)
            assert pivnp == pivgen
            assert [[int(v) for v in r] for r in Rnp] == Rgen


def rowloop_rref_mod_p(A, p):
    """The oracle of the float64 kernel: RREF over GF(p), p < 2^31, by
    vectorized int64 row operations (every product below p^2 < 2^62).
    Returns (R, pivots) like `rref_mod_p`.  Each pivot step updates only the
    active columns c: in place: the pivot row comes from the rows at or
    below r, which are zero left of c."""
    A = np.mod(np.asarray(A, dtype=np.int64), p)
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i], c:] = A[[i, r], c:]
        row = A[r, c:]
        a = int(row[0])
        if a != 1:
            row *= pow(a, -1, p)
            row %= p
        col = A[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            X = A[hit, c:]
            X -= col[hit, None] * row
            X %= p
            A[hit, c:] = X
        pivots.append(c)
        r += 1
    return A[:r], pivots


def echelon(U, piv, p):
    """The echelon form in `ref_mod_p`'s compact storage, as int64 in
    [0, p): the multipliers of L stored below each pivot set to 0."""
    U = np.mod(U, p).astype(np.int64)
    for k, c in enumerate(piv):
        U[k + 1 :, c] = 0
    return U


def test_ref_mod_p_rank_and_shape(monkeypatch):
    rng = random.Random(4)
    p = 397
    for _ in range(6):
        m, n = rng.randint(2, 40), rng.randint(2, 40)
        A, rows, F = np_oracle_pairs(rng, p, m, n)
        # narrow leaves exercise the TRSM and the trailing products
        monkeypatch.setattr(linalg, "_LEAF", rng.randint(1, 8))
        U, piv = ref_mod_p(A, p)
        assert len(piv) == rank(rows, F)
        assert piv == sorted(piv)
        assert (np.abs(U) <= p // 2).all()
        U = echelon(U, piv, p)
        # echelon shape: row k starts at its pivot
        for k, pc in enumerate(piv):
            assert U[k, pc] % p != 0
            assert not U[k, :pc].any()


def test_nullspace_mod_p_matches_generic_and_annihilates():
    rng = random.Random(11)
    for p in (5, 397):
        for _ in range(8):
            m, n = rng.randint(1, 8), rng.randint(2, 9)
            A, rows, F = np_oracle_pairs(rng, p, m, n)
            Nnp = nullspace_mod_p(A, p)
            Ngen = nullspace(rows, F)
            assert [[int(v) for v in r] for r in Nnp] == Ngen
            assert not ((A @ Nnp.T) % p).any()


def test_blocked_kernel_agrees_with_rowloop_on_larger_instance(monkeypatch):
    # 5885833 is the largest prime p with 260*h^2 + p - 1 < 2^51, h = p // 2,
    # the direct regime's bound for a 300 x 260 matrix; 5885843, the next
    # prime, takes the split regime, whose updates have inner dimensions
    # above 64 and so split both operands
    for p, leaf in ((397, 1), (397, 5), (5885833, 8), (5885843, 8)):
        monkeypatch.setattr(linalg, "_LEAF", leaf)
        rng = np.random.default_rng(2)
        A = rng.integers(0, p, size=(300, 260)).astype(np.int64)
        # force rank deficiency: last rows are combinations of earlier ones
        A[250:] = (A[:50] * 3 + A[50:100] * 7) % p
        assert linalg._float_exact(300, 260, p) == (p != 5885843)
        R, piv = rref_mod_p(A, p)
        R_oracle, piv_oracle = rowloop_rref_mod_p(A, p)
        assert piv == piv_oracle and np.array_equal(R, R_oracle)
        U, piv2 = ref_mod_p(A, p)
        assert piv == piv2
        assert rank_mod_p(A, p) == len(piv) == 250
        N = nullspace_mod_p(A, p)
        assert N.shape[0] == 260 - len(piv)
        free = [f for f in range(260) if f not in piv]
        # the canonical basis of the RREF: identity on the free columns
        assert (N[:, free] == np.eye(len(free), dtype=np.int64)).all()
        assert (N[:, piv] == (-R[:, free].T) % p).all()
        assert not ((A @ N.T) % p).any()


def test_rank_mod_p():
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert rank_mod_p(A, 7) == 2
    assert rank_mod_p(np.zeros((2, 3), dtype=np.int64), 7) == 0
    # a tall matrix: the bound reads min(m, n) = 5, so this p, beyond the
    # direct regime from 7 columns on, is within it
    p = 38543941
    assert linalg._float_exact(20000, 5, p) and not linalg._float_exact(20000, 7, p)
    A = np.random.default_rng(0).integers(0, p, size=(20000, 5))
    assert rank_mod_p(A, p) == 5
    assert nullspace_mod_p(A, p).shape == (0, 5)


# -- certified rational nullspace ------------------------------------------------


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(2, 3), 1]) == [3, 4, 6]
    assert clear_denominators([0, Fraction(0)]) == [0, 0]
    row = [3, -4, 0]
    assert clear_denominators(row) is row


def test_nullspace_rational_small_exact():
    rows = [[1, 1, 1], [0, 1, -1]]
    res = nullspace_rational(rows)
    assert res.rank == 2
    assert len(res.basis) == 1
    v = res.basis[0]
    assert v[2] == 1 and v == [Fraction(-2), Fraction(1), Fraction(1)]


def test_nullspace_rational_matches_generic_on_random():
    rng = random.Random(17)
    for _ in range(10):
        m, n = rng.randint(1, 6), rng.randint(2, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        res = nullspace_rational(rows)
        gen = rref_nullspace(frac_rows(rows), QQ)
        assert res.basis == gen
        assert res.rank == rank(frac_rows(rows), QQ)


def test_nullspace_rational_full_rank_certificate():
    rows = [[1, 0], [0, 1], [3, 5]]
    res = nullspace_rational(rows)
    assert res.rank == 2 and res.basis == []


def test_nullspace_rational_big_entries():
    # entries far beyond int64: exactness must survive the mod-p reductions
    big = 10**40
    rows = [[big, -big, 0], [0, big, -big]]
    res = nullspace_rational(rows)
    assert res.rank == 2
    assert res.basis == [[Fraction(1), Fraction(1), Fraction(1)]]


def test_nullspace_rational_fraction_rows():
    # second row is 3x the first: rank 1, nullspace spanned by (-2/3, 1)
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    res = nullspace_rational(rows)
    assert res.rank == 1 and res.basis == [[Fraction(-2, 3), Fraction(1)]]
    rows2 = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1)]]
    res2 = nullspace_rational(rows2)
    assert res2.rank == 2 and res2.basis == []


def test_nullspace_rational_zero_matrix():
    res = nullspace_rational([[0, 0, 0]])
    assert res.rank == 0 and len(res.basis) == 3
    with pytest.raises(ValueError):
        nullspace_rational([])


def test_solve_nullspace_clears_each_rational_row_once(monkeypatch):
    # forced onto the multimodular path; the third row is dependent.  The
    # oracle runs before the spies go in, so they count the solve alone
    half = Fraction(1, 2)
    rows = [[half, 2, 3, 4], [0, 1, 1, 1], [half, 3, 4, 5]]
    expected = rref_nullspace(rows, QQ)
    monkeypatch.setattr(linalg, "_DEFER_MIN_ENTRIES", 0)
    cleared, solved = [], []
    real_clear, real_solve = linalg.clear_denominators, linalg.nullspace_rational
    monkeypatch.setattr(linalg, "clear_denominators", lambda row: cleared.append(row) or real_clear(row))
    monkeypatch.setattr(linalg, "nullspace_rational", lambda rows: solved.append(rows) or real_solve(rows))
    count, basis = linalg.solve_nullspace(rows, QQ, 4)
    assert count == 2 and basis == expected
    assert len(cleared) == 3 and len(solved) == 1


def test_generic_nullspace_of_integer_rows_is_exact():
    # integer rows give the Fraction basis of the same rows as Fractions,
    # as the oracle does, where QQ.inv(int) is a Fraction
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    rows = [[2, 3, 5], [7, 11, 13]]
    assert nullspace(rows, QQ) == [[Fraction(-16), Fraction(9), Fraction(1)]]
    rng = random.Random(23)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        basis = nullspace(rows, QQ)
        assert all(type(v) is Fraction for vec in basis for v in vec)
        assert basis == rref_nullspace(frac_rows(rows), QQ)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_deferred_rational_basis_matches_generic_nullspace(data):
    # full row rank mod the first prime: the count is certified by that
    # prime and the basis is a callable, run here
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(m + 1, 7))
    if data.draw(st.booleans()):
        entry = st.integers(-30, 30)
    else:
        entry = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    p = next(linalg._lift_primes(m, n))
    reduced = np.array([[v % p for v in clear_denominators(row)] for row in rows], dtype=np.int64)
    assume(rank_mod_p(reduced, p) == m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_DEFER_MIN_ENTRIES", 0)
        count, basis = linalg.solve_nullspace(rows, QQ, n)
    expected = rref_nullspace([[Fraction(v) for v in row] for row in rows], QQ)
    assert callable(basis)
    assert count == len(expected) == n - m
    assert basis() == expected


def test_deferred_rational_basis_checks_its_rank_certificate(monkeypatch):
    monkeypatch.setattr(linalg, "_DEFER_MIN_ENTRIES", 0)
    count, basis = linalg.solve_nullspace([[1, 2, 3], [4, 5, 6]], QQ, 3)
    assert count == 1 and callable(basis)
    # a reconstruction of rank 1 contradicts the rank 2 found mod p
    wrong = linalg.RationalNullspace([[Fraction(1), Fraction(0), Fraction(0)],
                                      [Fraction(0), Fraction(1), Fraction(0)]], 1, [])
    monkeypatch.setattr(linalg, "nullspace_rational", lambda rows: wrong)
    with pytest.raises(RuntimeError, match="rank certificate contradicted"):
        basis()


def test_nullspace_rational_unlucky_first_prime():
    # mod the first prime p0 the pivots are (0, 2); over QQ, and mod every
    # other prime, they are (0, 1).  The reference group must be the
    # lexicographically smallest pivot tuple of the largest rank, not the
    # first one seen.  p0 is the largest prime of the direct regime for 2 x 3
    p0 = next(linalg._lift_primes(2, 3))
    assert p0 == 67108859
    rows = [[1, 1, 0], [1, 1 + p0, 1]]
    res = nullspace_rational(rows)
    expected = [[Fraction(1, p0), Fraction(-1, p0), Fraction(1)]]
    assert rref_nullspace(frac_rows(rows), QQ) == expected
    assert res.basis == expected and res.rank == 2
    assert res.primes_used[0] == p0


def _lifted_primes(monkeypatch):
    # the primes whose residues join the lift, in order, as (group, prime),
    # and the moduli of each crt_combine call.  A combine that extends its
    # group's last combination passes the product of the group's primes first
    added, combines = [], []
    real = linalg.crt_combine

    def spy(residues, moduli):
        extends = bool(added) and moduli[0] == prod(p for g, p in added if g == added[-1][0])
        group = added[-1][0] if extends else len(combines)
        added.extend((group, p) for p in moduli[extends:])
        combines.append(list(moduli))
        return real(residues, moduli)

    monkeypatch.setattr(linalg, "crt_combine", spy)
    return added, combines


def test_a_stack_beats_an_unlucky_reference(monkeypatch):
    # the first prime p0 is unlucky (pivots (0, 2)); the stack of the next
    # two has the pivots (0, 1) of QQ, which replace the reference group
    added, _ = _lifted_primes(monkeypatch)
    p0 = next(linalg._lift_primes(2, 3))
    rows = [[1, 1, 0], [1, 1 + p0, 1]]
    res = nullspace_rational(rows)
    assert res.basis == rref_nullspace(frac_rows(rows), QQ) and res.rank == 2
    assert res.primes_used == list(islice(linalg._lift_primes(2, 3), len(res.primes_used)))
    # p0 starts the first group; the stack starts the second, which lifts
    first, second = added[0][0], added[1][0]
    assert added[0] == (first, p0) and first != second
    assert [p for g, p in added[1:]] == res.primes_used[1 : len(added)] and {g for g, _ in added[1:]} == {second}


def test_a_group_combined_twice_is_replaced(monkeypatch):
    # mod each of the first three primes p0, p1, p2 the pivots are (0, 2),
    # over QQ (0, 1).  The groups [p0] and [p1, p2] share the unlucky
    # pivots and are combined twice; the stack [p3..p6] replaces them, and
    # its first combine holds none of their primes
    added, combines = _lifted_primes(monkeypatch)
    p = list(islice(linalg._lift_primes(2, 3), 7))
    rows = [[1, 1, 0], [1, 1 + prod(p[:3]), 1]]
    res = nullspace_rational(rows)
    assert res.basis == rref_nullspace(frac_rows(rows), QQ) and res.rank == 2
    assert res.primes_used == list(islice(linalg._lift_primes(2, 3), len(res.primes_used)))
    assert len(res.primes_used) == 15
    assert combines[:3] == [[p[0]], [p[0], p[1], p[2]], p[3:7]]
    assert {g for g, q in added if q in p[:3]} == {0} and {g for g, q in added if q not in p[:3]} == {2}


@pytest.mark.parametrize("index", [1, 2, 4, 9])
def test_an_unlucky_prime_inside_a_stack_is_left_out(monkeypatch, index):
    # mod the prime q at `index` of the lift primes the pivots are (0, 2),
    # over QQ (0, 1).  The stacks are [0], [1, 2], [3..6], [7..14]: q dies
    # in its stack, the others of the stack join the lift.  The 150-bit
    # column keeps the lift going past q
    added, combines = _lifted_primes(monkeypatch)
    orders = _recorded_orders(monkeypatch)
    q = next(islice(linalg._lift_primes(2, 4), index, None))
    big = random.Random(index).randint(2**149, 2**150)
    rows = [[1, 1, 0, big], [1, 1 + q, 1, 3 * big + 1]]
    res = nullspace_rational(rows)
    assert res.basis == rref_nullspace(frac_rows(rows), QQ) and res.rank == 2
    assert res.primes_used == list(islice(linalg._lift_primes(2, 4), len(res.primes_used)))
    lifted = [p for _, p in added]
    assert q in res.primes_used and q not in lifted and len({g for g, _ in added}) == 1
    assert lifted == [p for p in res.primes_used if p != q][: len(lifted)]
    # one combine per stack, which folds in all of its live slices at once
    ends = list(accumulate(len(o) for o in orders))
    stacks = [res.primes_used[a:b] for a, b in zip([0, *ends], ends)]
    assert [c[1:] if i else c for i, c in enumerate(combines)] == [[p for p in s if p != q] for s in stacks]


def _recorded_orders(monkeypatch):
    # per stack of the lift: the row order each slice's elimination recorded
    orders = []
    real = linalg.rref_mod_p

    def spy(A, p, **kw):
        out = real(A, p, **kw)
        orders.append(kw["order"].copy())
        return out

    monkeypatch.setattr(linalg, "rref_mod_p", spy)
    return orders


def test_an_unlucky_first_prime_in_another_row_order(monkeypatch):
    # the two tests of an unlucky first prime, with the row order it
    # records reversed before the lift puts the limbs in it: any order
    # gives the same lift
    reversed_first = []
    real = linalg.rref_mod_p

    def reversing(A, p, **kw):
        out = real(A, p, **kw)
        if not reversed_first:
            reversed_first.append(kw["order"][0].tolist())
            kw["order"][0] = kw["order"][0][::-1].copy()
        return out

    monkeypatch.setattr(linalg, "rref_mod_p", reversing)
    test_nullspace_rational_unlucky_first_prime()
    reversed_first.clear()
    test_a_stack_beats_an_unlucky_reference(monkeypatch)
    assert reversed_first == [[0, 1]]


def test_a_wrong_first_order_costs_later_primes_only_swaps(monkeypatch):
    # rows c = [0, p0, 0, 0], a = e0, b = e2.  Mod the first prime p0, c
    # vanishes: p0 is unlucky, and the order it records, a, b, c, puts b
    # where the lucky primes need their pivot of column 1.  Their
    # eliminations swap c up again
    orders = _recorded_orders(monkeypatch)
    p0 = next(linalg._lift_primes(3, 4))
    rows = [[0, p0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
    res = nullspace_rational(rows)
    assert res.basis == rref_nullspace(frac_rows(rows), QQ) and res.rank == 3
    assert orders[0].tolist() == [[1, 2, 0]]
    assert all(o.tolist() == [0, 2, 1] for o in orders[1][:2])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_reordered_lift_matches_the_fraction_oracle(data):
    """Taylor rows of fat points have structural zeros (a d/dy row vanishes
    on x^d), so the first prime's elimination swaps rows and the lift puts
    its pivot rows first for the later primes.  Any order gives the same
    basis: condition rows of a complete plane system at random integer
    points, coordinates up to 10^4 so that the lift takes several stacks,
    shuffled, with repeated points, rows that are sums of two others and
    zero rows."""
    L = LinearSys.complete(affine_space(QQ, 2), data.draw(st.integers(2, 6)))
    coordinate = st.one_of(st.integers(-3, 3), st.integers(-10**4, 10**4))
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        point = (data.draw(coordinate), data.draw(coordinate))
        rows += point_condition_rows(L, point, data.draw(st.integers(1, 4)))
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
        rows.append([a + b for a, b in zip(rows[i], rows[j])])
    rows += [[0] * len(L.monomials())] * data.draw(st.integers(0, 2))
    random.Random(data.draw(st.integers(0, 2**32 - 1))).shuffle(rows)
    res = nullspace_rational(rows)
    assert res.basis == rref_nullspace(frac_rows(rows), QQ)


# qq-special's system for its seed 0 (perfbench/workloads.py): complete
# degree 20 over QQ, 18 integer points, three of them on the line
# y = x + 1 with multiplicities 7, 8 and 9, in special position
_SPECIAL_POINTS = [(17, 8), (18, 1), (4, 16), (3, 4), (1, 13), (5, 6), (14, 1), (14, 20), (9, 8),
                   (9, 10), (8, 15), (19, 4), (11, 1), (1, 1), (1, 15), (13, 7), (12, 8), (18, 8)]
_SPECIAL_MULTS = [5, 3, 2, 8, 2, 7, 3, 2, 2, 9, 7, 3, 3, 3, 2, 2, 5, 5]
# the lift of this system in the given row order takes 119 primes in 17
# stacks, and one full reconstruction, which with the probes, one a stack,
# calls rational_reconstruct 46 times
_SPECIAL_PRIMES, _SPECIAL_RECONSTRUCTIONS, _SPECIAL_CALLS = 119, 1, 46


def _full_reconstructions(monkeypatch):
    # every call of reconstruct_rationals in linalg: one a full reconstruction of Y
    calls = []
    real = linalg.reconstruct_rationals
    monkeypatch.setattr(linalg, "reconstruct_rationals", lambda *args: calls.append(1) or real(*args))
    return calls


def _rational_reconstructions(monkeypatch):
    # every call of rational_reconstruct, by the probe in linalg or by
    # fields.reconstruct_rationals
    calls = []
    real = fields.rational_reconstruct

    def counted(x, m):
        calls.append(1)
        return real(x, m)

    monkeypatch.setattr(fields, "rational_reconstruct", counted)
    monkeypatch.setattr(linalg, "rational_reconstruct", counted)
    return calls


def test_the_reordered_lift_draws_no_more_primes_on_a_special_system(monkeypatch):
    """A guard against a runaway lift: the same primes, rounded up to the
    stacks of 8 of a 230 x 231 matrix, one combine a stack, no more
    reconstructions, no more calls of rational_reconstruct (a lift of Y a
    pivot row at a time makes 1081), and no pivot search that moves a row
    after the first stack."""
    orders = _recorded_orders(monkeypatch)
    calls = _rational_reconstructions(monkeypatch)
    reconstructions = _full_reconstructions(monkeypatch)
    added, combines = _lifted_primes(monkeypatch)
    L = LinearSys.complete(affine_space(QQ, 2), 20)
    rows = [row for pt, mult in zip(_SPECIAL_POINTS, _SPECIAL_MULTS) for row in point_condition_rows(L, pt, mult)]
    res = nullspace_rational(rows)
    assert (len(rows), len(rows[0]), res.rank, len(res.basis)) == (230, 231, 226, 5)
    sizes = [len(o) for o in orders]
    assert sizes == [1, 2, 4] + [8] * (len(sizes) - 3)
    # 119 = 1 + 2 + 4 + 14 * 8 is a boundary of the stacks of 8
    assert len(res.primes_used) == sum(sizes) == _SPECIAL_PRIMES and len(sizes) == 17
    # every prime is lucky here, and every stack's slices go into one combine
    assert [p for _, p in added] == res.primes_used and len({g for g, _ in added}) == 1
    assert len(combines) == len(sizes)
    assert len(reconstructions) <= _SPECIAL_RECONSTRUCTIONS
    assert len(calls) <= _SPECIAL_CALLS
    assert not np.array_equal(orders[0][0], np.arange(230))
    assert all(np.array_equal(o, np.broadcast_to(np.arange(230), o.shape)) for o in orders[1:])


# qq-rank's degree-10 system for its seed 0 (perfbench/workloads.py)
_DEG10_POINTS = [(30, 34), (38, 30), (17, 25), (14, 7), (22, 37), (6, 2), (13, 22), (15, 26), (19, 4)]
_DEG10_MULTS = [2, 2, 2, 3, 3, 3, 4, 4, 5]


def test_the_lift_of_a_general_system_makes_few_reconstructions(monkeypatch):
    """The 62 x 66 condition matrix of qq-rank's degree-10 system takes 63
    primes and 26 calls of rational_reconstruct: one probe a stack, and
    each column of the free block has one running denominator (a lift a
    pivot row at a time makes 297 calls)."""
    calls = _rational_reconstructions(monkeypatch)
    L = LinearSys.complete(affine_space(QQ, 2), 10)
    rows = [row for pt, mult in zip(_DEG10_POINTS, _DEG10_MULTS) for row in point_condition_rows(L, pt, mult)]
    res = nullspace_rational(rows)
    assert (len(rows), len(rows[0]), res.rank, len(res.basis)) == (62, 66, 62, 4)
    assert len(res.primes_used) == 63 and len(calls) <= 26
    assert res.basis == rref_nullspace(frac_rows(rows), QQ)


def test_nullspace_rational_gives_up_after_max_primes(monkeypatch):
    # the same 150-bit matrix needs about 50 primes; with a budget of 5 the
    # basis cannot be lifted, and the primes are drawn only as they are used
    rng = random.Random(7)
    rows = [[rng.randint(-2 ** 150, 2 ** 150) for _ in range(6)] for _ in range(4)]
    drawn = []
    real_primes = linalg._lift_primes

    def counted(m, n):
        for p in real_primes(m, n):
            drawn.append(p)
            yield p

    monkeypatch.setattr(linalg, "_MAX_PRIMES", 5)
    monkeypatch.setattr(linalg, "_lift_primes", counted)
    with pytest.raises(RuntimeError, match="did not stabilize"):
        nullspace_rational(rows)
    assert drawn == list(islice(real_primes(4, 6), 5))


def test_nullspace_rational_probe_rejects_spurious_reconstructions(monkeypatch):
    # a 4 x 6 integer matrix with 150-bit entries needs about 50 primes; a
    # plain reconstruction of the probe entry succeeds on about half of
    # them, the margin 2^20 only once the basis is within reach
    rng = random.Random(7)
    rows = [[rng.randint(-2 ** 150, 2 ** 150) for _ in range(6)] for _ in range(4)]
    reconstructions = _full_reconstructions(monkeypatch)
    res = nullspace_rational(rows)
    assert len(res.primes_used) > 30 and len(reconstructions) <= 1
    assert res.basis == rref_nullspace(frac_rows(rows), QQ)


def test_rows_that_vanish_mod_the_first_prime():
    # rank 0 mod p0 sets no reference group that can lift; the next primes
    # see rank 1
    p0 = next(linalg._lift_primes(2, 3))
    rows = [[p0, 2 * p0, 0], [3 * p0, 6 * p0, 0]]
    res = nullspace_rational(rows)
    assert res.basis == rref_nullspace(frac_rows(rows), QQ) and res.rank == 1
    assert res.primes_used[0] == p0


def test_a_lifted_basis_shares_its_denominators():
    # one int object per distinct denominator value across the basis
    rng = random.Random(11)
    rows = [[rng.randint(-2 ** 60, 2 ** 60) for _ in range(7)] for _ in range(4)]
    basis = nullspace_rational(rows).basis
    assert basis == rref_nullspace(frac_rows(rows), QQ)
    dens = [f.denominator for vec in basis for f in vec]
    assert len({id(d) for d in dens}) == len(set(dens)) < len(dens)


def test_qq_nullspace_edge_cases():
    assert nullspace([], QQ, ncols=2) == rref_nullspace([], QQ, ncols=2) == [[1, 0], [0, 1]]
    for rows in ([[0]], [[3]], [[Fraction(-2, 7)]], [[0, 0], [0, 0]], [[1, 2], [0, 0], [2, 4]]):
        assert nullspace(rows, QQ) == rref_nullspace(frac_rows(rows), QQ)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_qq_nullspace_matches_the_fraction_oracle(data):
    # QQ `nullspace` is the certified multimodular basis; the Fraction
    # Gauss-Jordan is its oracle.  From 0 rows and from 1 x 1; integer or
    # Fraction entries; with a zero row, a dependent row, or unit rows that
    # make the column rank full
    m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        entry = st.integers(-30, 30)
    else:
        entry = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    kind = data.draw(st.sampled_from(["random", "zero", "dependent", "full"]))
    if kind == "zero":
        rows.insert(data.draw(st.integers(0, m)), [0] * n)
    elif kind == "dependent" and rows:
        c = data.draw(entry)
        rows.append([a + c * b for a, b in zip(rows[0], rows[-1])])
    elif kind == "full":
        rows += [[int(i == j) for j in range(n)] for i in range(n)]
    basis = nullspace(rows, QQ, ncols=n)
    assert basis == rref_nullspace(frac_rows(rows), QQ, ncols=n)
    assert all(type(v) is Fraction for vec in basis for v in vec)
    if kind == "full":
        assert basis == []


LIFT_SHAPES = [(1, 2), (2, 1), (2, 3), (4, 6), (16, 17), (62, 66), (66, 62), (124, 136), (230, 231)]


def test_lift_primes_are_the_largest_of_the_direct_regime():
    # descending and consecutive from the largest p of the direct regime,
    # which the next prime above leaves; all of the budget for 230 x 231
    for m, n in LIFT_SHAPES:
        count = linalg._MAX_PRIMES if (m, n) == (230, 231) else 32
        drawn = list(islice(linalg._lift_primes(m, n), count))
        assert len(drawn) == count
        assert all(linalg._float_exact(m, n, p) for p in drawn)
        assert not linalg._float_exact(m, n, primes_from(drawn[0] + 1, 1)[0])
        assert all(primes_from(b + 1, 1)[0] == a for a, b in zip(drawn[:32], drawn[1:32]))
    assert next(linalg._lift_primes(62, 66)) == 12053089
    assert next(linalg._lift_primes(230, 231)) == 6257917
    # past min(m, n) of about 2^13 the primes start at the floor instead
    # (split regime), and the budget stays above 2^19
    drawn = list(islice(linalg._lift_primes(10**5, 10**5), linalg._MAX_PRIMES))
    assert drawn[0] == 1048573 and primes_from(drawn[0] + 1, 1)[0] > linalg._PRIME_FLOOR
    assert not linalg._float_exact(10**5, 10**5, drawn[0]) and drawn[-1] > 2**19


def test_rational_paths_draw_from_the_lift_primes(monkeypatch):
    # the rank prime of the deferred path and every prime of the lift
    rng = random.Random(7)
    rows = [[rng.randint(-2 ** 150, 2 ** 150) for _ in range(6)] for _ in range(4)]
    res = nullspace_rational(rows)
    assert res.primes_used == list(islice(linalg._lift_primes(4, 6), len(res.primes_used)))
    assert all(linalg._float_exact(4, 6, p) for p in res.primes_used)
    seen = []
    real = linalg.rank_mod_p
    monkeypatch.setattr(linalg, "rank_mod_p", lambda A, p: seen.append(p) or real(A, p))
    monkeypatch.setattr(linalg, "_DEFER_MIN_ENTRIES", 0)
    count, basis = linalg.solve_nullspace(rows[:3] + [[0] * 6], QQ, 6)
    assert count == 3 and callable(basis) and seen == [next(linalg._lift_primes(3, 6))]
    assert basis() == rref_nullspace(frac_rows(rows[:3]), QQ)


# -- differential oracles: numpy and multimodular kernels vs the generic loop ----


def _low_rank(draw, m, n, r, entry):
    """An m x n integer matrix B @ C of rank at most r."""
    B = [[draw(entry) for _ in range(r)] for _ in range(m)]
    C = [[draw(entry) for _ in range(n)] for _ in range(r)]
    return [[sum(B[i][k] * C[k][j] for k in range(r)) for j in range(n)] for i in range(m)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rref_mod_p_matches_generic_rref(data):
    p = data.draw(st.sampled_from([2, 3, 101, 1073741827, 2147483647]))
    m, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    r = data.draw(st.integers(0, min(m, n) - 1)) if min(m, n) > 1 else 0
    A = [[v % p for v in row] for row in _low_rank(data.draw, m, n, r, st.integers(0, p - 1))]
    R, piv = rref_mod_p(np.array(A, dtype=np.int64), p)
    R_gen, piv_gen = rref(A, GF(p))
    assert piv == piv_gen and len(piv) <= r
    assert R.tolist() == R_gen


# 15005989 is the largest prime p with 40*h^2 + p - 1 < 2^51, h = p // 2:
# the direct regime's bound when min(m, n) = 40; 15006031 is the next prime
_P40, _P40_NEXT = 15005989, 15006031
# p = 2, small primes, the direct regime's edge at 40 columns, the first
# multimodular prime and the largest prime below 2^31
_KERNEL_PRIMES = [2, 3, 397, _P40, _P40_NEXT, 1073741827, 2147483647]


def oracle_basis(R, piv, n, p):
    """Canonical nullspace basis of an RREF mod p: identity on the free
    columns, minus the free columns of R on the pivots."""
    free = [f for f in range(n) if f not in piv]
    N = np.zeros((len(free), n), dtype=np.int64)
    N[np.arange(len(free)), free] = 1
    N[:, piv] = (-R[:, free].T) % p
    return N


def _check_ref_mod_p(A, p, leaf, one_sided_k=None):
    """ref_mod_p and the back-substitution at leaf width `leaf` against the
    int64 oracle: the same pivots; U in the symmetric range, echelon once
    the stored multipliers are cleared, with the oracle's RREF; the
    back-substitution gives the oracle's RREF rows on the free columns, and
    nullspace_mod_p the oracle's basis."""
    n = A.shape[1]
    R, piv_ref = rowloop_rref_mod_p(A, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_LEAF", leaf)
        if one_sided_k is not None:
            mp.setattr(linalg, "_ONE_SIDED_K", one_sided_k)
        U, piv = ref_mod_p(A, p)
        free = linalg._free_columns(piv, n)
        Y = linalg._backsolve(U, piv, p, free)
        N = nullspace_mod_p(A, p)
    assert piv == piv_ref
    assert U.shape == (len(piv), n) and (np.abs(U) <= p // 2).all()
    E = echelon(U, piv, p)
    for k, c in enumerate(piv):
        assert E[k, c] and not E[k, :c].any()
    R_of_U, piv_of_U = rowloop_rref_mod_p(E, p)
    assert piv_of_U == piv and np.array_equal(R_of_U, R)
    assert (np.abs(Y) <= p // 2).all() and np.array_equal(np.mod(Y, p), R[:, free])
    assert np.array_equal(N, oracle_basis(R, piv, n, p))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ref_mod_p_and_backsolve_match_rref_mod_p(data):
    # _P40 and _P40_NEXT straddle the direct regime's bound at 40 x 40
    p = data.draw(st.sampled_from([3, 5, 101, 397, _P40, _P40_NEXT]))
    m, n = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    r = data.draw(st.integers(0, min(m, n)))
    zero_cols = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n)) % p
    A[:, zero_cols] = 0
    leaf = data.draw(st.integers(1, 8))  # narrow leaves exercise the recursion
    _check_ref_mod_p(A, p, leaf)
    R, piv = rref_mod_p(A, p)
    R_oracle, piv_oracle = rowloop_rref_mod_p(A, p)
    assert piv == piv_oracle and np.array_equal(R, R_oracle)


def test_ref_mod_p_with_gapped_pivots_and_rows_running_out():
    # column 1 is zero and column 3 is a multiple of column 0, so at leaf
    # width 2 the pivots of the left half 0:6 are 0, 2, 4, 5 (not
    # contiguous) and its L is gathered; with 5 rows the rows run out in the
    # right half, with 3 rows inside the left half
    p = 397
    rng = np.random.default_rng(7)
    A = rng.integers(0, p, size=(5, 12))
    A[:, 1] = 0
    A[:, 3] = 3 * A[:, 0] % p
    for m, expected in ((5, [0, 2, 4, 5, 6]), (3, [0, 2, 4])):
        for leaf in (1, 2, 3):
            _check_ref_mod_p(A[:m], p, leaf)
        assert ref_mod_p(A[:m], p)[1] == expected
    # rows 0 and 1 agree mod p up to column 5: at leaf width 2 the leaf 1:3
    # swaps rows 1 and 2 for its pivot, and the range 3:4 finds no pivot
    B = np.array([[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 7], [0, 0, 1, 1, 1, 1]], dtype=np.int64)
    B[1] += p
    _check_ref_mod_p(B, p, 2)
    assert ref_mod_p(B, p)[1] == [0, 2, 5]


def _matrix_mod_p(rng, p, m, n, r):
    """An m x n matrix mod p of rank at most r, from exact integer products."""
    B = rng.integers(0, p, size=(m, r)).astype(object)
    C = rng.integers(0, p, size=(r, n)).astype(object)
    return (B @ C % p).astype(np.int64) if r else np.zeros((m, n), dtype=np.int64)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_gfp_kernel_matches_the_int64_oracle(data):
    """The four public GF(p) functions against the int64 row loop, and on
    small matrices against the generic `rref` and `nullspace`: both product
    regimes, leaf widths 1-8, gapped pivots, m < n and m > n, every rank,
    and matrices of entries +-h, h = p // 2, at the edge of the split
    bound.  The split products split both operands at every inner dimension
    when `_ONE_SIDED_K` is drawn as 0."""
    p = data.draw(st.sampled_from(_KERNEL_PRIMES))
    m, n = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        A = (p // 2) * rng.choice([-1, 1], size=(m, n))
    else:
        A = _matrix_mod_p(rng, p, m, n, data.draw(st.integers(0, min(m, n))))
        # gapped pivots: zero columns and columns that repeat an earlier one
        for c in data.draw(st.lists(st.integers(0, n - 1), max_size=n // 2)):
            A[:, c] = 0 if c % 2 or c == 0 else A[:, c - 1] * 3 % p
    leaf = data.draw(st.integers(1, 8))
    one_sided_k = data.draw(st.sampled_from([0, linalg._ONE_SIDED_K]))
    _check_ref_mod_p(A, p, leaf, one_sided_k)
    R_oracle, piv_oracle = rowloop_rref_mod_p(A, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_LEAF", leaf)
        mp.setattr(linalg, "_ONE_SIDED_K", one_sided_k)
        R, piv = rref_mod_p(A, p)
        assert ref_mod_p(A, p)[1] == piv
        assert rank_mod_p(A, p) == len(piv)
        N = nullspace_mod_p(A, p)
    assert piv == piv_oracle and R.dtype == np.int64 and np.array_equal(R, R_oracle)
    assert np.array_equal(N, oracle_basis(R_oracle, piv, n, p))
    assert not (A.astype(object) @ N.T.astype(object) % p).any()
    if m <= 10 and n <= 10:
        rows = [[int(v) % p for v in row] for row in A]
        assert rref(rows, GF(p)) == (R.tolist(), piv)
        assert nullspace(rows, GF(p)) == N.tolist()


# the largest prime below 2^26.5, and the first prime above 2^31
_P26_5, _P31_NEXT = 94906249, 2147483659


def _spy_on_the_kernel(mp):
    """Record the primes of every `rref_mod_p`, `rank_mod_p` and
    `nullspace_mod_p` call."""
    calls = {"rref_mod_p": [], "rank_mod_p": [], "nullspace_mod_p": []}
    for name, seen in calls.items():
        real = getattr(linalg, name)
        mp.setattr(linalg, name, lambda A, p, real=real, seen=seen: seen.append(p) or real(A, p))
    return calls


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rref_rank_and_nullspace_match_the_generic_loop(data):
    """The GF(p) entry points, which take the numpy kernel above
    `_NUMPY_MIN_ENTRIES` entries, against the Gauss-Jordan loop itself:
    `rref` in both column orders, `rank` and `nullspace`, on shapes on both
    sides of the threshold and of every rank."""
    p = data.draw(st.sampled_from([2, 3, 101, _P26_5, 2**31 - 1]))
    m, n = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = _matrix_mod_p(rng, p, m, n, data.draw(st.integers(0, min(m, n)))).tolist()
    F = GF(p)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_on_the_kernel(mp)
        got = [rref(rows, F), rref(rows, F, reverse_cols=True), rank(rows, F), nullspace(rows, F)]
    R, piv = oracles.rref(rows, F)
    assert got == [(R, piv), oracles.rref(rows, F, reverse_cols=True), len(piv), rref_nullspace(rows, F)]
    kernel = m * n > linalg._NUMPY_MIN_ENTRIES
    assert calls == {"rref_mod_p": [p] * 2 if kernel else [], "rank_mod_p": [p] if kernel else [],
                     "nullspace_mod_p": [p] if kernel else []}


@pytest.mark.parametrize("F", [GF(7, 2), GF(_P31_NEXT)], ids=["gf49", "p>2^31"])
def test_fields_outside_the_kernel_never_reach_it(F, monkeypatch):
    # 20 x 20 is above the threshold, but the kernel takes only p < 2^31
    rng = random.Random(4)
    rows = [[F.random(rng) for _ in range(20)] for _ in range(18)]
    rows += [[F.add(a, b) for a, b in zip(rows[0], rows[1])], rows[2]]
    calls = _spy_on_the_kernel(monkeypatch)
    R, piv = rref(rows, F)
    assert (R, piv) == oracles.rref(rows, F) and len(piv) == rank(rows, F) == 18
    assert rref(rows, F, reverse_cols=True) == oracles.rref(rows, F, reverse_cols=True)
    assert nullspace(rows, F) == rref_nullspace(rows, F)
    assert calls == {"rref_mod_p": [], "rank_mod_p": [], "nullspace_mod_p": []}


def test_free_columns_leave_numpy_ma_unimported():
    # np.setdiff1d imports numpy.ma on its first call, about 1.5 MB of memory
    code = ("import sys, numpy as np, hyperlin.linalg as l; "
            "assert l._free_columns([3, 0], 5).tolist() == [1, 2, 4]; "
            "assert l._free_columns([], 2).tolist() == [0, 1]; "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(linalg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def _stack(A, primes):
    """The stack of the integer matrix A mod each prime, in the kernel's
    layout."""
    X = linalg._column_major((len(primes),) + A.shape)
    for b, p in enumerate(primes):
        X[b] = np.mod(A, p)
    return X


def _check_stack(A, primes, leaf, one_sided_k=None, update_rows=None):
    """The stacked rref_mod_p against the int64 oracle of each slice: the
    pivots are the earliest of the slices' rank profiles (a profile that
    lacks a column another one has is later), the slices with those pivots
    are live and give the 2-D result bit for bit, the others are dead.
    Returns the live mask."""
    n = A.shape[1]
    oracle = [rowloop_rref_mod_p(A, p) for p in primes]
    pivots = min((piv for _, piv in oracle), key=lambda piv: piv + [n] * (n - len(piv)))
    free = [f for f in range(n) if f not in pivots]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_LEAF", leaf)
        if one_sided_k is not None:
            mp.setattr(linalg, "_ONE_SIDED_K", one_sided_k)
        if update_rows is not None:
            mp.setattr(linalg, "_UPDATE_ROWS", update_rows)
        Y, piv, live = rref_mod_p(_stack(A, primes), primes)
        flat = [rref_mod_p(A, p) for p in primes]
    assert piv == pivots and Y.dtype == np.int64 and Y.shape == (len(primes), len(piv), n - len(piv))
    assert live.tolist() == [p == pivots for _, p in oracle]
    for (R, p_piv), (R2, piv2), y, alive in zip(oracle, flat, Y, live):
        assert piv2 == p_piv and np.array_equal(R2, R)
        if alive:
            assert np.array_equal(y, R[:, free])
    return live


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stacked_kernel_matches_the_int64_oracle_slice_by_slice(data):
    """One pass over a stack of 1-6 primes, drawn from `_KERNEL_PRIMES` or
    from the first lift primes of the shape: both product regimes (a stack
    is direct only if its largest prime is), leaf widths 1-8, and updates
    in one row block or in blocks of a few rows over the stack.  Entries
    that vanish mod one prime only make its slice swap other rows; a column
    that vanishes mod one prime only makes its slice die."""
    m, n = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    pool = _KERNEL_PRIMES if data.draw(st.booleans()) else list(islice(linalg._lift_primes(m, n), 6))
    primes = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        primes.insert(data.draw(st.integers(0, len(primes))), 2147483647)  # the split regime
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    r = data.draw(st.integers(0, min(m, n)))
    A = rng.integers(-40, 41, size=(m, r)) @ rng.integers(-40, 41, size=(r, n))
    for _ in range(data.draw(st.integers(0, 4))):
        A[rng.integers(m), rng.integers(n)] = data.draw(st.sampled_from(primes)) * rng.integers(1, 4)
    if data.draw(st.booleans()):
        A[:, rng.integers(n)] = data.draw(st.sampled_from(primes)) * rng.integers(-3, 4, size=m)
    _check_stack(A, primes, data.draw(st.integers(1, 8)), data.draw(st.sampled_from([0, linalg._ONE_SIDED_K])),
                 data.draw(st.sampled_from([12, linalg._UPDATE_ROWS])))


def test_stacked_kernel_kills_the_slice_of_an_unlucky_prime():
    # column 2 vanishes mod the middle prime only: that slice dies, the
    # others keep their pivots; at leaf width 1 the pivot rows of the slices
    # differ where an entry vanishes mod one prime
    p, q, s = 397, 401, 409
    rng = np.random.default_rng(1)
    A = rng.integers(0, 1000, size=(6, 9))
    A[:, 2] = q * rng.integers(1, 5, size=6)
    A[0, 0] = p * s
    for leaf in (1, 3, 16):
        assert _check_stack(A, [p, q, s], leaf).tolist() == [True, False, True]
    # every slice dead but one, and a stack that only holds the unlucky prime
    assert _check_stack(A, [q, p, q], 2).tolist() == [False, True, False]
    assert _check_stack(A, [q], 2).tolist() == [True]
    # a stack is checked: reduced slices, the kernel's layout, one per prime
    with pytest.raises(ValueError, match="reduced"):
        rref_mod_p(_stack(A, [p]) + p, [p])
    with pytest.raises(ValueError, match="column-major"):
        rref_mod_p(np.ascontiguousarray(_stack(A, [p, s])), [p, s])
    with pytest.raises(ValueError, match="column-major"):
        rref_mod_p(_stack(A, [p, s]), [p])


def _echelon_combinations(rng, m, n, r, u):
    """An m x n integer matrix whose rows are combinations, with
    coefficients in {-1, 0, 1}, of an r x n echelon form E: r rows by a unit
    lower triangle, the rest at random, most of them zero, then shuffled.
    E's pivots are 1 except one, which is the prime u, so u is unlucky and
    every other prime keeps the rank and the pivots.  On E's pivots a set
    of rows has the minor of its coefficients times 1 or u, which is below
    r^(r/2) <= 4096 in absolute value before the factor u."""
    piv = np.sort(rng.choice(n, size=r, replace=False))
    E = rng.integers(-9, 10, size=(r, n))
    for i, c in enumerate(piv):
        E[i, :c] = 0
        E[i, c] = 1
        E[:i, c] = 0
    E[r // 2, piv[r // 2]] = u
    C = np.vstack([np.tril(rng.integers(-1, 2, size=(r, r)), -1) + np.eye(r, dtype=np.int64),
                   rng.integers(-1, 2, size=(m - r, r)) * (rng.random((m - r, 1)) < 0.3)])
    return rng.permutation(C @ E), list(piv)


@pytest.mark.parametrize("p", [2, 397, _P40, 2147483647])
def test_the_kernel_records_each_slices_row_order(p):
    """The row order `rref_mod_p` records, slice by slice, is a permutation
    of the rows whose first rank rows are independent mod the slice's prime.
    Mod another lucky prime q, the reordered matrix needs no row swap: q is
    above every pivot minor of the coefficients.  In a stack, the unlucky
    prime u dies and the live slices record what they record alone."""
    m, n, r, u = 48, 40, 8, 401
    q = 2147483647 if p == _P40 else _P40
    A, piv = _echelon_combinations(np.random.default_rng(p % 1000), m, n, r, u)
    order = np.empty(m, dtype=np.intp)
    R, piv_p = rref_mod_p(A, p, order=order)
    assert piv_p == piv and sorted(order.tolist()) == list(range(m))
    assert not np.array_equal(order, np.arange(m)) and rank_mod_p(A[order[:r]], p) == r
    again = np.empty(m, dtype=np.intp)
    R_q, piv_q = rref_mod_p(A[order], q, order=again)
    assert piv_q == piv and np.array_equal(again[:r], np.arange(r))
    assert np.array_equal(R_q, rref_mod_p(A, q)[0])
    primes = [p, u, q]
    orders = np.empty((3, m), dtype=np.intp)
    Y, piv_s, live = rref_mod_p(_stack(A, primes), primes, order=orders)
    assert piv_s == piv and live.tolist() == [True, False, True]
    for o, prime, alive in zip(orders, primes, live):
        assert sorted(o.tolist()) == list(range(m))
        if alive:
            assert rank_mod_p(A[o[:r]], prime) == r
    assert np.array_equal(orders[0], order)
    assert np.array_equal(R[:, [f for f in range(n) if f not in piv]], Y[0])


def _full_rank_mod_p(rng, p, m, n):
    """An m x n matrix of rank min(m, n) mod every p: a unit lower times a
    unit upper trapezoid."""
    k = min(m, n)
    lower = np.tril(rng.integers(0, p, size=(m, k)).astype(object), -1) + np.eye(m, k, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(k, n)).astype(object), 1) + np.eye(k, n, dtype=np.int64)
    return (lower @ upper % p).astype(np.int64)


@pytest.mark.parametrize("p", [2, 397, _P40, 2147483647])
def test_a_float64_working_matrix_is_eliminated_in_place(p):
    """The four GF(p) functions on a float64 column-major matrix reduced to
    [0, p), which they eliminate in place, against the int64 copy (which
    they leave as it is) and the Gauss-Jordan loop: full rank and rank
    deficient, at min(m, n) = 40, where _P40 is the largest prime of the
    direct regime and 2^31 - 1 takes the split one."""
    assert linalg._float_exact(40, 40, p) == (p != 2147483647)
    rng = np.random.default_rng(p % 1000)
    F = GF(p)
    for A, full in ((_full_rank_mod_p(rng, p, 40, 52), True), (_full_rank_mod_p(rng, p, 60, 40), True),
                    (_matrix_mod_p(rng, p, 60, 40, 25), False)):
        n = A.shape[1]
        before = A.copy()
        rows = A.tolist()
        piv = linalg._gauss_jordan(rows, F, range(n))
        assert (len(piv) == 40) == full
        R = np.array(rows[: len(piv)], dtype=np.int64).reshape(-1, n)
        U, piv_ref = ref_mod_p(A, p)
        X = np.asfortranarray(A, dtype=np.float64)
        U_X, piv_X = ref_mod_p(X, p)
        assert piv_ref == piv_X == piv and np.array_equal(U_X, U) and np.shares_memory(U_X, X)
        assert rank_mod_p(np.asfortranarray(A, dtype=np.float64), p) == rank_mod_p(A, p) == len(piv)
        R_X, piv_X = rref_mod_p(np.asfortranarray(A, dtype=np.float64), p)
        assert piv_X == piv and np.array_equal(R_X, R) and np.array_equal(rref_mod_p(A, p)[0], R)
        N = oracle_basis(R, piv, n, p)
        assert np.array_equal(nullspace_mod_p(np.asfortranarray(A, dtype=np.float64), p), N)
        assert np.array_equal(nullspace_mod_p(A, p), N)
        assert np.array_equal(A, before)
    # an empty matrix has no pivots, though numpy gives it zero strides
    for shape in ((0, 5), (3, 0)):
        assert ref_mod_p(np.zeros(shape, order="F"), p)[1] == rref_mod_p(np.zeros(shape, order="F"), p)[1] == []
    # anything else in float64 is refused: row-major, or not reduced
    negative, large = np.asfortranarray(A, dtype=np.float64), np.asfortranarray(A, dtype=np.float64)
    negative[3, 5], large[-1, -1] = -1, p
    for bad, message in ((np.ascontiguousarray(A, dtype=np.float64), "column-major"),
                         (negative, "reduced"), (large, "reduced")):
        for fn in (ref_mod_p, rref_mod_p, rank_mod_p, nullspace_mod_p):
            with pytest.raises(ValueError, match=message):
                fn(bad, p)


@pytest.mark.parametrize("p", [2, 397, 2147483647])
def test_the_four_gfp_functions_take_one_input_contract(p):
    """`rank_mod_p`, `ref_mod_p`, `rref_mod_p` and `nullspace_mod_p` on the
    same matrix in every form they take, against the int64 row loop: an
    int64 array, rows of Python ints that are negative or beyond 2^63, a
    uint64 array beyond 2^63, rows of integral floats, a reduced float64
    working matrix, a flat row, and the empty shapes 0 x n and m x 0 as
    arrays and as rows.  An entry with a fraction raises ValueError in any
    form."""
    rng = np.random.default_rng(p % 1000)
    A = _matrix_mod_p(rng, p, 7, 9, 5)
    shift = [[int(k) << 64 for k in row] for row in rng.integers(-5, 5, size=A.shape)]
    just_above = A.tolist()
    just_above[0][0] += p * ((1 << 63) // p + 1)  # in [2^63, 2^64)
    # (the form given, the matrix it stands for)
    forms = [(A, A),
             ([[v - p + k * p for v, k in zip(row, ks)] for row, ks in zip(A.tolist(), shift)], A),
             (just_above, A),
             (np.array(just_above, dtype=np.uint64), A),
             ([[float(v) for v in row] for row in A.tolist()], A),
             (A[2].tolist(), A[2:3]),
             ([-v - (p << 70) for v in A[4].tolist()], np.mod(-A[4:5], p)),
             (np.zeros((0, 9), dtype=np.int64), np.zeros((0, 9))),
             (np.zeros((4, 0), dtype=np.int64), np.zeros((4, 0))),
             ([[]] * 4, np.zeros((4, 0))),
             ([], np.zeros((0, 0)))]
    for given_form, matrix in forms:
        matrix = np.asarray(matrix, dtype=np.int64)
        R, piv = rowloop_rref_mod_p(matrix, p)
        N = oracle_basis(R, piv, matrix.shape[1], p)
        # a float64 working matrix is eliminated in place: a fresh one per call
        for fresh in (lambda: given_form, lambda: np.asfortranarray(matrix, dtype=np.float64)):
            assert rank_mod_p(fresh(), p) == len(piv)
            assert ref_mod_p(fresh(), p)[1] == piv
            R_got, piv_got = rref_mod_p(fresh(), p)
            assert piv_got == piv and R_got.dtype == np.int64 and np.array_equal(R_got, R)
            N_got = nullspace_mod_p(fresh(), p)
            assert N_got.dtype == np.int64 and np.array_equal(N_got, N)
    # an entry that is not an integer is refused, not truncated: rows that
    # numpy would convert to int64, rows beyond int64, arrays, and a float64
    # working matrix
    for form in ([[1.5, 2]], [v + 0.5 for v in A[0].tolist()], [[Fraction(1, 2), 2]],
                 [[1 << 70, 1.5]], np.array([[0.5, 1]], dtype=np.float32),
                 np.asfortranarray([[1.5, 2.0]])):
        for fn in (rank_mod_p, ref_mod_p, rref_mod_p, nullspace_mod_p):
            with pytest.raises(ValueError, match="integers"):
                fn(form, p)
    # p is checked first, so an empty input is no exception
    for bad in (1, 2**31):
        for form in (A, A.tolist(), [], [[]] * 3, np.zeros((0, 4), dtype=np.int64)):
            for fn in (rank_mod_p, ref_mod_p, rref_mod_p, nullspace_mod_p):
                with pytest.raises(ValueError, match="2\\^31"):
                    fn(form, bad)


def test_split_products_are_exact_at_their_bounds():
    # operands at the largest magnitudes of their halves: h = 2^30 - 1 has
    # the high half 2^15, and 2^29 + 2^14 the low half 2^14
    p = 2147483647
    h = p // 2
    product = linalg._product(p, direct=False)
    rng = np.random.default_rng(3)
    for m, k, n in ((5, 1, 7), (1, linalg._ONE_SIDED_K, 3), (4, linalg._ONE_SIDED_K + 1, 2),
                    (1, linalg._SPLIT_K - 1, 2)):
        A = rng.choice([h, -h, 2**29 + 2**14, -(2**29 + 2**14)], size=(m, k))
        B = rng.choice([h, -h, 2**29 + 2**14, -(2**29 + 2**14)], size=(k, n))
        B[:, 0] = h * np.sign(A[0])  # a column whose partials all add up
        S = product(A.astype(np.float64), B.astype(np.float64))
        assert (np.abs(S) <= h).all()
        assert np.array_equal(S.astype(np.int64) % p, A.astype(object) @ B.astype(object) % p)


def test_ref_mod_p_enforces_its_float64_bound(monkeypatch):
    # the largest prime within min(m, n)*h^2 + p - 1 < 2^51 and the next
    # prime, for min(m, n) = 2 and 40; the bound reads min(m, n), not n.
    # The next prime takes the split regime.
    rng = np.random.default_rng(5)
    for shape, p, above in (((2, 50), 67108859, 67108879), ((40, 40), _P40, _P40_NEXT), ((60, 40), _P40, _P40_NEXT)):
        assert linalg._float_exact(*shape, p) and not linalg._float_exact(*shape, above)
        _check_ref_mod_p(rng.integers(0, p, size=shape), p, 3)
        _check_ref_mod_p(rng.integers(0, above, size=shape), above, 3)
    # p = 2 is within the direct regime
    assert linalg._float_exact(40, 40, 2)
    _check_ref_mod_p(rng.integers(0, 2, size=(40, 40)), 2, 3)
    # every GF(p) function rejects p >= 2^31, where int64 inputs reduced
    # mod p no longer have products below 2^62
    for p in (2**31, 2147483659):
        for fn in (ref_mod_p, rref_mod_p, rank_mod_p, nullspace_mod_p):
            with pytest.raises(ValueError, match="2\\^31"):
                fn(np.eye(3, dtype=np.int64), p)
    # the split products' inner dimension bound, lowered here to reach it
    monkeypatch.setattr(linalg, "_SPLIT_K", 5)
    assert ref_mod_p(np.eye(4, 6, dtype=np.int64), 2147483647)[1] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="inner dimension"):
        ref_mod_p(np.eye(5, 6, dtype=np.int64), 2147483647)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32))
def test_nullspace_rational_matches_generic_on_huge_entries(m, n, r, seed):
    r = min(r, m - 1, n - 1)
    rng = random.Random(seed)
    C = [[rng.choice((-1, 1)) * rng.randrange(10**30, 10**31) for _ in range(n)] for _ in range(r)]
    # B has an identity block, so the rows of C appear among the rows of B @ C
    B = [[int(i == j) if i < r else rng.randint(-3, 3) for j in range(r)] for i in range(m)]
    rows = [[sum(b * c for b, c in zip(brow, col)) for col in zip(*C)] for brow in B]
    res = nullspace_rational(rows)
    assert res.basis == rref_nullspace(frac_rows(rows), QQ)
    assert res.rank == rank(frac_rows(rows), QQ) == r
    assert len(res.primes_used) > 3
