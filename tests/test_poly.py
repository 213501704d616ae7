"""Polynomial arithmetic, substitution, translation and string round-trips."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlin.fields import GF, rationals
from hyperlin.poly import (
    MultiPoly,
    PolyRing,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_below_degree,
    monomials_of_degree,
    random_poly,
)

QQ = rationals()


def ring_xyz(field=QQ, order="grevlex"):
    return PolyRing(field, ("x", "y", "z"), print_order=order)


def ring_xy(field=QQ, order="lex"):
    return PolyRing(field, ("x", "y"), print_order=order)


# -- monomial helpers ---------------------------------------------------------


def test_monomial_helpers():
    assert mono_mul((1, 2, 0), (0, 1, 3)) == (1, 3, 3)
    assert mono_divides((1, 0, 2), (2, 0, 2))
    assert not mono_divides((1, 1, 0), (2, 0, 2))
    assert mono_div((2, 3, 1), (1, 1, 0)) == (1, 2, 1)
    with pytest.raises(ValueError):
        mono_div((1, 0, 0), (2, 0, 0))
    assert mono_lcm((2, 0, 1), (1, 3, 1)) == (2, 3, 1)


def test_grevlex_order_on_quadratics():
    # In three variables the degree-2 monomials must come out as
    # x^2 > x*y > y^2 > x*z > y*z > z^2.
    monos = monomials_of_degree(3, 2)
    assert monos == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]
    # and the list really is sorted descending under the exported key
    assert monos == sorted(monos, key=grevlex_key, reverse=True)


def test_monomial_counts():
    # number of degree-d monomials in n variables is C(n+d-1, d)
    from math import comb

    for n, d in product(range(1, 5), range(0, 6)):
        assert len(monomials_of_degree(n, d)) == comb(n + d - 1, d)
        assert len(monomials_below_degree(n, d + 1)) == comb(n + d, d)


# -- arithmetic ----------------------------------------------------------------


def test_basic_arithmetic():
    R = ring_xyz()
    x, y, z = R.gens()
    f = (x + y) * (x - y)
    assert f == x**2 - y**2
    g = (x + y + z) ** 2
    assert g.coefficient((1, 1, 0)) == 2
    assert g.coefficient((2, 0, 0)) == 1
    assert g.num_terms() == 6
    assert (f - f).is_zero()
    assert (x * 0).is_zero()


def test_arithmetic_in_characteristic_p():
    R = PolyRing(GF(5), ("x", "y"))
    x, y = R.gens()
    # freshman's dream: (x+y)^5 = x^5 + y^5 over GF(5)
    assert (x + y) ** 5 == x**5 + y**5
    assert (5 * x).is_zero()


def test_scalar_coercion():
    R = ring_xy()
    x, y = R.gens()
    f = Fraction(1, 2) * x + 3
    assert f.coefficient((1, 0)) == Fraction(1, 2)
    assert f.coefficient((0, 0)) == 3
    assert (f - Fraction(1, 2) * x - 3).is_zero()


def test_leading_term_and_monic():
    R = ring_xyz()
    x, y, z = R.gens()
    f = 3 * x * y + 2 * z**2 + 5 * y**2
    e, c = f.leading_term()
    assert e == (1, 1, 0) and c == Fraction(3)
    m = f.monic()
    assert m.coefficient((1, 1, 0)) == 1
    assert m.coefficient((0, 2, 0)) == Fraction(5, 3)


def test_mixed_ring_rejected():
    R1 = ring_xy()
    R2 = PolyRing(GF(7), ("x", "y"))
    with pytest.raises(ValueError):
        R1.gen(0) + R2.gen(0)


# -- evaluation, substitution, translation ---------------------------------------


def test_evaluate():
    R = ring_xyz()
    x, y, z = R.gens()
    f = x**2 * y - z + 4
    assert f.evaluate((2, 3, 1)) == 4 * 3 - 1 + 4
    assert f.evaluate((Fraction(1, 2), 4, 0)) == 5


def test_substitute_matches_evaluation():
    # evaluating f(g1, g2) at a point equals evaluating f at (g1(pt), g2(pt))
    R = ring_xy(order="grevlex")
    rng = random.Random(7)
    support = monomials_below_degree(2, 4)
    for _ in range(25):
        f = random_poly(R, support, rng)
        g1 = random_poly(R, support, rng)
        g2 = random_poly(R, support, rng)
        h = f.substitute([g1, g2])
        for pt in [(0, 0), (1, 2), (-1, 3), (Fraction(1, 2), Fraction(-2, 3))]:
            assert h.evaluate(pt) == f.evaluate((g1.evaluate(pt), g2.evaluate(pt)))


def test_translate_matches_evaluation():
    R = ring_xyz()
    rng = random.Random(11)
    support = monomials_below_degree(3, 4)
    for _ in range(25):
        f = random_poly(R, support, rng)
        a = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        g = f.translate(a)
        for pt in [(0, 0, 0), (1, -1, 2), (Fraction(1, 3), 0, 1)]:
            shifted = tuple(p + ai for p, ai in zip(pt, a))
            assert g.evaluate(pt) == f.evaluate(shifted)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_translate_over_qq_matches_the_expansion_by_ring_powers(data):
    # the integer shift against sum c * prod (x_i + a_i)^e_i in ring arithmetic
    R = ring_xyz()
    fraction = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    exps = st.tuples(*[st.integers(0, 4)] * 3)
    terms = data.draw(st.dictionaries(exps, fraction.filter(bool), max_size=8))
    a = data.draw(st.tuples(*[st.one_of(st.just(Fraction(0)), fraction)] * 3))
    f = MultiPoly(R, terms)
    want = R.zero()
    for e, c in terms.items():
        term = R.constant(c)
        for g, ai, k in zip(R.gens(), a, e):
            term = term * (g + ai) ** k
        want = want + term
    got = f.translate(a)
    assert got == want and all(type(c) is Fraction for c in got.terms.values())
    assert f.translate((0, 0, 0)) == f
    assert R.zero().translate(a) == R.zero()


def test_translate_in_characteristic_p():
    R = PolyRing(GF(13), ("x", "y"))
    x, y = R.gens()
    f = x**3 + y**2
    g = f.translate((1, 2))
    for a in range(13):
        for b in range(13):
            assert g.evaluate((a, b)) == f.evaluate((a + 1, b + 2))


def test_low_degree_coefficients_against_translate():
    # Taylor coefficients of f at a point = low-order coefficients of f(x + a)
    R = ring_xy(order="grevlex")
    rng = random.Random(3)
    support = monomials_below_degree(2, 5)
    f = random_poly(R, support, rng)
    a = (2, -3)
    g = f.translate(a)
    coeffs = g.low_degree_coefficients(2)
    monos = monomials_below_degree(2, 2)
    assert monos == [(1, 0), (0, 1), (0, 0)]
    assert coeffs[0] == g.coefficient((1, 0))
    assert coeffs[1] == g.coefficient((0, 1))
    assert coeffs[2] == f.evaluate(a)


def test_multiplicity_at_origin():
    R = ring_xy()
    x, y = R.gens()
    assert (x**2 * y + y**5).multiplicity_at_origin() == 3
    assert R.one().multiplicity_at_origin() == 0
    assert R.zero().multiplicity_at_origin() is None


# -- calculus ---------------------------------------------------------------------


def test_partial_derivatives():
    R = ring_xyz()
    x, y, z = R.gens()
    f = x**3 * y + z**2
    assert f.partial(0) == 3 * x**2 * y
    assert f.partial(1) == x**3
    assert f.partial(2) == 2 * z
    # derivative kills p-th powers in characteristic p
    Rp = PolyRing(GF(3), ("x", "y"))
    xp, yp = Rp.gens()
    assert (xp**3).partial(0).is_zero()


def test_euler_relation_for_homogeneous():
    # d * f = sum x_i * df/dx_i for homogeneous f of degree d
    R = ring_xyz()
    rng = random.Random(19)
    for d in (2, 3, 4):
        f = random_poly(R, monomials_of_degree(3, d), rng)
        lhs = d * f
        rhs = R.zero()
        for i in range(3):
            rhs = rhs + R.gen(i) * f.partial(i)
        assert lhs == rhs


def test_homogenize_dehomogenize():
    R = ring_xyz()
    x, y, z = R.gens()
    f = x**2 + y + 3
    F = f.homogenize("z")
    assert F == x**2 + y * z + 3 * z**2
    assert F.is_homogeneous()
    assert F.dehomogenize("z") == f
    with pytest.raises(ValueError):
        (x * z).homogenize("z")


# -- division -----------------------------------------------------------------------


def test_exact_division():
    R = ring_xyz()
    x, y, z = R.gens()
    f = (x + y) * (x**2 - z)
    assert f.divide_exact(x + y) == x**2 - z
    assert f.divide_exact(x**2 - z) == x + y
    with pytest.raises(ValueError):
        (f + 1).divide_exact(x + y)
    g = x**2 * y**3 + 2 * x**3 * y**2
    assert g.exact_divide_monomial((2, 2, 0)) == y + 2 * x
    with pytest.raises(ValueError):
        g.exact_divide_monomial((0, 0, 1))


# -- printing and parsing ---------------------------------------------------------------


def test_str_grevlex_projective_style():
    R = ring_xyz(order="grevlex")
    x, y, z = R.gens()
    assert str(y**2 - x * z) == "y^2-x*z"
    assert str(R.zero()) == "0"
    assert str(R.one()) == "1"
    assert str(-x) == "-x"
    assert str(x - 1) == "x-1"


def test_str_lex_affine_style():
    R = ring_xy(order="lex")
    x, y = R.gens()
    f = (
        x**6
        + Fraction(26171, 9604) * x**4 * y**2
        + Fraction(26171, 9604) * x**2 * y**4
        - Fraction(35775, 4802) * x**2 * y**2
        + y**6
    )
    assert (
        str(f)
        == "x^6+26171/9604*x^4*y^2+26171/9604*x^2*y^4-35775/4802*x^2*y^2+y^6"
    )


def test_parse_round_trip():
    R = ring_xyz(order="grevlex")
    cases = [
        "y^2-x*z",
        "x^3-3*x*y*z+z^3",
        "1/2*x^2-2/3*y+5",
        "-x^2+x-1",
        "0",
    ]
    for s in cases:
        assert str(R.parse(s)) == s


def test_parse_implicit_and_spaces():
    R = ring_xy()
    x, y = R.gens()
    assert R.parse("3x + 2y") == 3 * x + 2 * y
    assert R.parse("(x+y)^2") == x**2 + 2 * x * y + y**2
    assert R.parse("x^2 - 2(x - y)") == x**2 - 2 * x + 2 * y
    with pytest.raises(ValueError):
        R.parse("x + w")
    with pytest.raises(ValueError):
        R.parse("x %% y")


def test_parse_extension_coefficients():
    F = GF(59, 2)
    R = PolyRing(F, ("x", "y"), print_order="grevlex")
    f = R.parse("(3*u+5)*x^2+u*y-7")
    assert f.coefficient((2, 0)).raw == (5, 3)
    assert f.coefficient((0, 1)).raw == (0, 1)
    assert str(f) == "(3*u+5)*x^2+u*y+52"


def test_random_poly_support():
    R = ring_xy()
    rng = random.Random(0)
    support = monomials_of_degree(2, 3)
    f = random_poly(R, support, rng)
    assert all(sum(e) == 3 for e in f.terms)
    assert not f.is_zero()


# -- hypothesis: ring axioms ------------------------------------------------------------


def small_polys(field, nvars=2, maxdeg=3):
    support = monomials_below_degree(nvars, maxdeg + 1)
    names = ("x", "y", "z", "w")[:nvars]
    R = PolyRing(field, names)

    @st.composite
    def poly_st(draw):
        terms = draw(
            st.dictionaries(
                st.sampled_from(support),
                st.integers(min_value=-6, max_value=6),
                max_size=5,
            )
        )
        return R.from_terms(terms.items())

    return poly_st()


@settings(max_examples=60, deadline=None)
@given(small_polys(QQ), small_polys(QQ), small_polys(QQ))
def test_ring_axioms_rational(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f + (-f) == f.ring.zero()


@settings(max_examples=60, deadline=None)
@given(small_polys(GF(7)), small_polys(GF(7)))
def test_product_degree_gf7(f, g):
    fg = f * g
    if f.is_zero() or g.is_zero():
        assert fg.is_zero()
    else:
        assert fg.total_degree() <= f.total_degree() + g.total_degree()
        # leading terms multiply, so equality holds over a field
        assert fg.total_degree() == f.total_degree() + g.total_degree()
