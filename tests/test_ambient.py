"""Ambient spaces: monomial bases and counts, point canonicalization,
chart selection, enumeration."""

import random
from fractions import Fraction
from math import comb

import pytest

from hyperlin.ambient import (
    Ambient,
    affine_space,
    product_projective,
    projective_space,
)
from hyperlin.fields import GF, rationals

QQ = rationals()


def test_variable_naming():
    assert projective_space(QQ, 2).names == ("x", "y", "z")
    assert affine_space(QQ, 2).names == ("x", "y")
    assert projective_space(QQ, 3).names == ("x1", "x2", "x3", "x4")
    A = affine_space(QQ, 2, names=("s", "t"))
    assert A.names == ("s", "t")


def test_print_order_by_kind():
    # affine prints lexicographically, projective by grevlex
    assert affine_space(QQ, 2).ring.print_order == "lex"
    assert projective_space(QQ, 2).ring.print_order == "grevlex"
    assert product_projective(QQ, [1, 1]).ring.print_order == "grevlex"


def test_monomial_counts_closed_form():
    # projective P^n degree d: C(n+d, n); affine A^n: C(n+d, n) as well (deg <= d)
    for n in range(1, 7):
        for d in range(0, 31, 5):
            P = projective_space(GF(5), n)
            assert P.monomial_count(d) == comb(n + d, n)
    assert projective_space(QQ, 2).monomial_count(2) == 6
    assert projective_space(QQ, 3).monomial_count(25) == 3276
    assert affine_space(QQ, 2).monomial_count(20) == 231


def test_monomial_basis_matches_count_and_degrees():
    P = projective_space(QQ, 3)
    basis = P.monomial_basis(4)
    assert len(basis) == P.monomial_count(4)
    assert all(sum(e) == 4 for e in basis)
    A = affine_space(QQ, 2)
    basis = A.monomial_basis(3)
    assert len(basis) == 10
    assert all(sum(e) <= 3 for e in basis)
    # grevlex-descending: first entry is x^3, last is 1
    assert basis[0] == (3, 0) and basis[-1] == (0, 0)


def test_product_multidegree_basis():
    W = product_projective(QQ, [1, 1])
    basis = W.monomial_basis([2, 1])
    assert len(basis) == 3 * 2 == W.monomial_count([2, 1])
    assert all(sum(e[0:2]) == 2 and sum(e[2:4]) == 1 for e in basis)
    with pytest.raises(ValueError):
        W.monomial_basis(2)  # int degree invalid for products
    with pytest.raises(ValueError):
        W.monomial_basis([2, -1])


def test_section_fits_degree():
    P = projective_space(QQ, 2)
    x, y, z = P.ring.gens()
    assert P.section_fits_degree(x**2 + y * z, 2)
    assert not P.section_fits_degree(x**2 + y, 2)
    A = affine_space(QQ, 2)
    xa, ya = A.ring.gens()
    assert A.section_fits_degree(xa**2 + ya, 2)
    assert not A.section_fits_degree(xa**3, 2)


def test_projective_point_canonicalization():
    P = projective_space(QQ, 3)
    p = P.point([2, 4, 6, 2])
    assert p.coords == (Fraction(1), Fraction(2), Fraction(3), Fraction(1))
    q = P.point([1, 2, 3, 1])
    assert p == q
    # scaling invariance
    r = P.point([Fraction(1, 2), 1, Fraction(3, 2), Fraction(1, 2)])
    assert r == p
    # last nonzero gets scaled to 1
    s = P.point([3, 6, 0, 0])
    assert s.coords == (Fraction(1, 2), Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        P.point([0, 0, 0, 0])


def test_affine_chart():
    P = projective_space(QQ, 3)
    charts, aff = P.point([1, 1, 1, 1]).affine_chart()
    assert charts == [3] and aff == (1, 1, 1)
    charts, aff = P.point([3, 3, 2, 1]).affine_chart()
    assert charts == [3] and aff == (3, 3, 2)
    charts, aff = P.point([2, 1, 0, 0]).affine_chart()
    assert charts == [1] and aff == (2, 0, 0)
    A = affine_space(QQ, 2)
    charts, aff = A.point([5, 7]).affine_chart()
    assert charts == [None] and aff == (5, 7)


def test_product_point_blocks():
    W = product_projective(GF(5), [1, 1])
    p = W.point([2, 4, 1, 0])
    # each block canonicalized independently: (2:4) -> (3:1), (1:0) stays
    assert p.coords == (3, 1, 1, 0)
    charts, aff = p.affine_chart()
    assert charts == [1, 2] and aff == (3, 0)
    with pytest.raises(ValueError):
        W.point([0, 0, 1, 1])


def test_enumerate_projective_points_count():
    for q, n in [(2, 1), (3, 2), (5, 2), (7, 3)]:
        P = projective_space(GF(q), n)
        pts = list(P.enumerate_points())
        expected = (q ** (n + 1) - 1) // (q - 1)
        assert len(pts) == expected
        assert len(set(pts)) == expected


def test_enumerate_affine_points_count():
    A = affine_space(GF(3), 2)
    pts = list(A.enumerate_points())
    assert len(pts) == 9


def test_random_point_canonical_and_in_range():
    rng = random.Random(0)
    P1 = projective_space(GF(5), 1)
    seen = set()
    for _ in range(200):
        p = P1.random_point(rng)
        seen.add(p)
    assert len(seen) == 6  # all canonical points of P^1(GF(5))
    A = affine_space(QQ, 2)
    for _ in range(20):
        p = A.random_point(rng, 1, 40)
        assert all(1 <= v <= 40 for v in p.coords)
    # projective random points always end their block with a 1
    P = projective_space(GF(7), 2)
    for _ in range(50):
        p = P.random_point(rng)
        nz = [v for v in p.coords if v != 0]
        assert nz[-1] == 1


def test_random_scalar_equivalence():
    rng = random.Random(1)
    P = projective_space(GF(101), 3)
    for _ in range(30):
        p = P.random_point(rng)
        lam = rng.randrange(1, 101)
        q = P.point([(lam * v) % 101 for v in p.coords])
        assert p == q


def test_ambient_json_round_trip():
    P = projective_space(GF(397), 3)
    data = P.to_json()
    assert data == {"kind": "projective", "dim": 3, "names": ["x1", "x2", "x3", "x4"]}
    assert Ambient.from_json(data, GF(397)) == P
    Q = product_projective(QQ, [1, 2], names=["s", "t", "a", "b", "c"])
    assert Q.to_json() == {"kind": "product", "dims": [1, 2], "names": ["s", "t", "a", "b", "c"]}
    assert Ambient.from_json(Q.to_json(), QQ) == Q
