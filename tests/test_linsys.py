import json
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlin.ambient import affine_space, product_projective, projective_space
from hyperlin.blowup import BlowupChainSpec, impose_chain
from hyperlin.cli import main
from hyperlin.conditions import SchemeSpec, impose_containment, impose_points
import hyperlin.linalg as linalg
from hyperlin.fields import GF, rationals
from hyperlin.linalg import rref
from hyperlin.linsys import LinearSys, poly_gcd
from oracles import stacked_complement

import random

QQ = rationals()


def quadric_plane():
    return projective_space(QQ, 2)


def test_complete_is_lazy():
    P3 = projective_space(QQ, 3)
    t0 = time.perf_counter()
    L = LinearSys.complete(P3, 50)
    n = L.nsections()
    elapsed = time.perf_counter() - t0
    # nothing proportional to the 23426 basis monomials may be touched
    assert n == 23426
    assert L._monomials is None and L._matrix is None and L._sections is None
    assert elapsed < 0.01
    assert L.dimension() == 23425


def test_from_matrix_sections_verbatim():
    P2 = quadric_plane()
    ring = P2.ring
    mons = [
        (2, 0, 0),  # x^2
        (0, 2, 0),  # y^2
        (0, 0, 2),  # z^2
        (1, 1, 0),  # x*y
        (1, 0, 1),  # x*z
    ]
    M = [
        [1, 0, 1, 0, 0],
        [0, 1, 0, 0, -1],
        [0, 1, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    L = LinearSys.from_matrix(P2, M, mons)
    expected = ["x^2+z^2", "y^2-x*z", "x*y+y^2", "x*z"]
    assert [str(s) for s in L.sections()] == expected
    assert L.nsections() == 4
    assert L.degree == (2,)


def test_change_basis_echelon_order():
    # pivots are scanned from the smallest grevlex monomial upward, so the
    # echelon basis comes out [x^2+z^2, x*z, y^2, x*y]
    P2 = quadric_plane()
    ring = P2.ring
    secs = [ring.parse(s) for s in ["x^2+z^2", "y^2-x*z", "x*y+y^2", "x*z"]]
    L = LinearSys.from_sections(P2, secs, change_basis=True)
    assert [str(s) for s in L.sections()] == ["x^2+z^2", "x*z", "y^2", "x*y"]


def test_dependent_sections_reduced():
    A2 = affine_space(QQ, 2)
    ring = A2.ring
    x, y = ring.gens()
    L = LinearSys.from_sections(A2, [x, 2 * x, y], degree=1)
    assert L.nsections() == 2
    assert L.dimension() == 1
    assert len(L.sections()) == 2


def test_dependent_input_is_stored_as_a_basis(tmp_path, capsys):
    # x, 2*x, y span a 2-dimensional system; every entry point must store a
    # basis of it, so each condition below leaves exactly one section
    def assert_basis(L, n):
        assert L.nsections() == len(L.sections()) == len(L.matrix()) == n

    A2 = affine_space(QQ, 2)
    P1 = projective_space(QQ, 1)
    M, mons = [[1, 0], [2, 0], [0, 1]], [(1, 0), (0, 1)]
    L = LinearSys.from_matrix(A2, M, mons)
    x = A2.ring.gens()[0]
    assert_basis(L, 2)
    parsed = LinearSys.from_json(
        {"ambient": A2.to_json(), "degree": 1, "sections": ["x", "2*x", "y"]}
    )
    assert_basis(parsed, 2)
    cut = [
        impose_points(L, [(1, 1)], [1]),
        impose_chain(L, [BlowupChainSpec((0, 0), [1, 1], [(1, 0)])]),
        impose_containment(L, SchemeSpec([x])),
        impose_containment(
            LinearSys.from_matrix(P1, M, mons),
            SchemeSpec([P1.ring.gens()[0]], saturated=True),
        ),
        impose_points(parsed, [(1, 1)], [1]),
    ]
    for R in cut:
        assert_basis(R, 1)
    assert [str(R.sections()[0]) for R in cut] == ["x-y", "y", "x", "x", "x-y"]

    job = {
        "field": {"kind": "rationals"},
        "ambient": {"kind": "affine", "dim": 2},
        "system": {"matrix": M, "monomials": ["x", "y"]},
        "operations": [{"op": "impose-points", "points": [[1, 1]], "multiplicities": [1]}],
        "output": {"sections": True},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nsections: 1\n" in out and out.endswith("sections:\n  x-y\n")


def test_section_validation_errors():
    P2 = quadric_plane()
    ring = P2.ring
    x, y, z = ring.gens()
    with pytest.raises(ValueError):
        LinearSys.from_sections(P2, [x * x, ring.zero()])
    with pytest.raises(ValueError):
        LinearSys.from_sections(P2, [x, x * x])  # mixed degrees
    with pytest.raises(ValueError):
        LinearSys.from_sections(P2, [x * x + x])  # inhomogeneous
    with pytest.raises(ValueError):
        LinearSys.from_matrix(P2, [[1, 0], [0, 0]], [(2, 0, 0), (0, 2, 0)])
    with pytest.raises(ValueError):
        LinearSys.from_matrix(P2, [[1, 0, 0]], [(2, 0, 0), (0, 2, 0)])
    # every monomial is checked: off the stated degree, repeated, one
    # exponent short, negative
    F7 = GF(7)
    for ambient, M, mons, degree, message in [
        (projective_space(F7, 2), [[1]], [(2, 0, 0)], 3, "does not fit degree 3"),
        (projective_space(F7, 2), [[1, 1], [1, 2]], [(2, 0, 0), (2, 0, 0)], None, "repeated monomial"),
        (projective_space(F7, 2), [[1]], [(2, 0)], None, "does not fit"),
        (affine_space(F7, 2), [[1]], [(-1, 3)], None, "does not fit"),
        # a fraction or a bool is refused, not truncated to x^2 or read as 1
        (projective_space(F7, 2), [[1]], [(2.5, -0.5, 0)], None, "exponents must be integers, got 2.5"),
        (projective_space(F7, 2), [[1]], [(True, 1, 0)], None, "exponents must be integers, got True"),
    ]:
        with pytest.raises(ValueError, match=message):
            LinearSys.from_matrix(ambient, M, mons, degree=degree)
    # numpy ints are integers
    L = LinearSys.from_matrix(P2, [[1]], [tuple(np.int64(v) for v in (1, 1, 0))])
    assert L.monomials() == [(1, 1, 0)] and all(type(v) is int for v in L.monomials()[0])
    # JSON spells monomials in the ambient's ring: only the degree and a
    # repeat can be wrong there
    for degree, M, mons, message in [
        (3, [["1"]], ["x^2"], "does not fit degree 3"),
        (2, [["1", "1"], ["1", "2"]], ["x^2", "x^2"], "repeated monomial"),
    ]:
        data = {"ambient": P2.to_json(), "degree": degree, "matrix": M, "monomials": mons}
        with pytest.raises(ValueError, match=message):
            LinearSys.from_json(data)


def test_json_monomials_are_one_term_with_coefficient_one():
    # a sum read as its first term, a scalar multiple read as its monomial
    # and the zero polynomial are refused, each naming the entry
    P2 = projective_space(GF(7), 2)
    for mon in ["x+y", "3*y", "0"]:
        data = {"ambient": P2.to_json(), "degree": 1, "matrix": [["1"]], "monomials": [mon]}
        with pytest.raises(ValueError, match=rf"'{re.escape(mon)}' is not a monomial"):
            LinearSys.from_json(data)
    data = {"ambient": P2.to_json(), "degree": 1, "matrix": [["1"]], "monomials": ["y"]}
    assert LinearSys.from_json(data).monomials() == [(0, 1, 0)]


def test_coefficient_map_roundtrip():
    P2 = quadric_plane()
    ring = P2.ring
    secs = [ring.parse(s) for s in ["x^2+z^2", "y^2-x*z", "x*y+y^2", "x*z"]]
    L = LinearSys.from_sections(P2, secs)
    f = 3 * secs[0] - secs[1] + 7 * secs[3]
    a = L.coefficient_map()(f)
    assert [c.raw for c in a] == [
        Fraction(3),
        Fraction(-1),
        Fraction(0),
        Fraction(7),
    ]
    assert L.polynomial_map([c.raw for c in a]) == f


def test_coefficient_map_dependent_sections():
    # any valid solution is acceptable when the sections are dependent
    A2 = affine_space(QQ, 2)
    ring = A2.ring
    x, y = ring.gens()
    L = LinearSys.from_sections(A2, [x, 2 * x, y], degree=1)
    f = 5 * x + y
    a = [c.raw for c in L.coefficient_map()(f)]
    assert L.polynomial_map(a) == f


@pytest.mark.parametrize("field", [GF(101), GF(7, 2), QQ], ids=["gf101", "gf49", "qq"])
def test_coefficient_solver_round_trips_and_rejects(field, monkeypatch):
    # 17 sextics from 19 dependent ones; over GF(101) the RREF of [M | I]
    # (17 x 45) runs on the numpy kernel
    P2 = projective_space(field, 2)
    K = LinearSys.complete(P2, 6)
    rng = random.Random(8)
    forms = [K.random_member(rng) for _ in range(17)]
    L = LinearSys.from_sections(P2, forms + [forms[0] + forms[1], 3 * forms[2]], degree=6)
    assert L.nsections() == 17
    calls = []
    real = linalg.rref_mod_p
    monkeypatch.setattr(linalg, "rref_mod_p", lambda A, p: calls.append(p) or real(A, p))
    solver = L.coefficient_map()
    assert len(calls) == (field.kind == "prime")
    for _ in range(4):
        a = [field.from_int(rng.randint(-9, 9)) for _ in range(17)]
        assert [c.raw for c in solver(L.polynomial_map(a))] == a
    g = K.random_member(rng)
    assert LinearSys.from_sections(P2, forms + [g], degree=6).nsections() == 18
    with pytest.raises(ValueError, match="not in the span"):
        solver(g)


def test_coefficient_solver_of_a_system_without_sections():
    # not complete and no sections, with or without a monomial list: only
    # the zero polynomial is a member, with no coefficients
    P2 = projective_space(GF(101), 2)
    for E in (LinearSys.empty(P2, 2), LinearSys.from_matrix(P2, [], P2.monomial_basis(2), degree=2)):
        assert not E.is_complete and E.nsections() == 0
        assert E.coefficient_map()(P2.ring.zero()) == []
        assert P2.ring.parse("x^2") not in E


def test_subspace_operations_at_degree_20_match_the_stacked_oracle(monkeypatch):
    # a non-complete degree-20 plane system over GF(101) and a subsystem:
    # the kernel's rank, span and complement against the generic loop
    P2 = projective_space(GF(101), 2)
    K = LinearSys.complete(P2, 20)
    rng = random.Random(20)
    L = LinearSys.from_sections(P2, [K.random_member(rng) for _ in range(40)], degree=20)
    sub = LinearSys.from_sections(P2, [L.random_member(rng, -3, 3) for _ in range(25)], degree=20)
    assert (L.nsections(), sub.nsections()) == (40, 25)
    calls = []
    real = linalg.rref_mod_p
    monkeypatch.setattr(linalg, "rref_mod_p", lambda A, p: calls.append(p) or real(A, p))
    C = L.complement(sub)
    assert calls and sub.is_subsystem_of(L) and not L.is_subsystem_of(sub)
    expect = stacked_complement(L, sub)
    assert [str(s) for s in C.sections()] == [str(s) for s in expect.sections()]
    assert C.nsections() == 15
    assert L.same_span(LinearSys.from_sections(P2, sub.sections() + C.sections(), degree=20))
    assert not L.same_span(sub)


def test_membership():
    P2 = quadric_plane()
    ring = P2.ring
    x, y, z = ring.gens()
    L = LinearSys.from_sections(P2, [x * x + z * z, x * z])
    assert x * x + z * z in L
    assert 2 * (x * x) + 7 * (x * z) + 2 * (z * z) in L
    assert y * y not in L
    assert x * x - z * z not in L  # right support, wrong span
    assert x not in L  # wrong degree
    assert 42 not in L  # not a polynomial


def test_complete_membership_no_matrix():
    P2 = quadric_plane()
    ring = P2.ring
    L = LinearSys.complete(P2, 2)
    assert ring.parse("x^2-3*x*y+y*z") in L
    assert ring.parse("x^3") not in L
    assert L._matrix is None  # the shortcut never built the identity matrix


def test_complement_rank_additivity():
    P2 = quadric_plane()
    ring = P2.ring
    x, y, z = ring.gens()
    L = LinearSys.complete(P2, 2)
    J = LinearSys.from_sections(P2, [x * x, x * y + y * z])
    C = L.complement(J)
    assert C.nsections() == L.nsections() - J.nsections() == 4
    # conics x^2, x*y, y^2, x*z, y*z, z^2: J's echelon pivots (scanning right
    # to left) are x^2 and y*z; the complement is the other four monomials
    assert [str(s) for s in C.sections()] == ["z^2", "x*z", "y^2", "x*y"]
    # J together with C spans L
    both = LinearSys.from_sections(
        P2, J.sections() + C.sections()
    )
    assert both.same_span(L)


def test_complement_requires_subsystem():
    P2 = quadric_plane()
    ring = P2.ring
    x, y, z = ring.gens()
    L = LinearSys.from_sections(P2, [x * x, y * y])
    J = LinearSys.from_sections(P2, [x * z])
    with pytest.raises(ValueError):
        L.complement(J)
    # x*y + y^2 has its echelon pivot at y^2, a pivot of L, but is not in L
    K = LinearSys.from_sections(P2, [x * y + y * y])
    assert not K.is_subsystem_of(L)
    with pytest.raises(ValueError):
        L.complement(K)


def test_complement_trivial_cases():
    P2 = quadric_plane()
    L = LinearSys.complete(P2, 2)
    E = LinearSys.empty(P2, 2)
    assert L.complement(E).same_span(L)
    full = L.complement(E)
    assert L.complement(full).is_empty()
    assert E.nsections() == 0 and E.dimension() == -1


def test_same_span_across_supports():
    # identical spans presented on different monomial lists
    P2 = quadric_plane()
    ring = P2.ring
    x, y, z = ring.gens()
    A = LinearSys.from_sections(P2, [x * x])
    B = LinearSys.from_matrix(P2, [[1, 0]], [(2, 0, 0), (0, 2, 0)], degree=2)
    assert A.same_span(B)
    assert A.is_subsystem_of(B) and B.is_subsystem_of(A)
    C = LinearSys.from_matrix(P2, [[0, 1]], [(2, 0, 0), (0, 2, 0)], degree=2)
    assert not A.same_span(C)


_CONICS = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]


@st.composite
def _conic_pair(draw):
    """Two systems of conics over GF(5), either of them possibly empty or
    complete; often the first is one row whose last nonzero column (its
    echelon pivot) is a pivot of the second."""
    P2 = projective_space(GF(5), 2)
    coeff = st.integers(min_value=0, max_value=4)
    row = st.lists(coeff, min_size=6, max_size=6)

    def system(rows, complete=False):
        if complete:
            return LinearSys.complete(P2, 2)
        rows = [r for r in rows if any(r)]
        if not rows:
            return LinearSys.empty(P2, 2)
        return LinearSys.from_matrix(P2, rows, _CONICS, degree=2)

    B = system(draw(st.lists(row, max_size=4)), draw(st.booleans()) and draw(st.booleans()))
    pivots = sorted(set(rref(B.matrix(), GF(5), reverse_cols=True)[1])) if not B.is_complete else []
    if pivots and draw(st.booleans()):
        c = draw(st.sampled_from(pivots))
        head = draw(st.lists(coeff, min_size=c, max_size=c))
        A = system([head + [draw(st.integers(min_value=1, max_value=4))] + [0] * (5 - c)])
    else:
        A = system(draw(st.lists(row, max_size=4)), draw(st.booleans()) and draw(st.booleans()))
    return (A, B) if draw(st.booleans()) else (B, A)


@settings(max_examples=150, deadline=None)
@given(_conic_pair())
def test_subspace_predicates_match_membership(pair):
    A, B = pair
    a_in_b = all(s in B for s in A.sections())
    b_in_a = all(s in A for s in B.sections())
    assert A.is_subsystem_of(B) == a_in_b
    assert B.is_subsystem_of(A) == b_in_a
    assert A.same_span(B) == B.same_span(A) == (a_in_b and b_in_a)
    if b_in_a:
        # a direct-sum complement: B and C together are a basis of A
        C = A.complement(B)
        assert C.nsections() == A.nsections() - B.nsections()
        assert all(s in A for s in C.sections())
        if B.sections() or C.sections():
            both = LinearSys.from_sections(A.ambient, B.sections() + C.sections(), degree=2)
            assert both.nsections() == A.nsections()


def test_base_ideal_generators():
    A2 = affine_space(QQ, 2)
    ring = A2.ring
    x, y = ring.gens()
    L = LinearSys.from_sections(A2, [x, 2 * x, x + y], degree=1)
    gens = L.base_ideal_generators()
    assert len(gens) == 2
    span = LinearSys.from_sections(A2, gens, degree=1)
    assert span.same_span(LinearSys.from_sections(A2, [x, y], degree=1))


def test_reduction_common_factor():
    A3 = affine_space(QQ, 3)
    ring = A3.ring
    x, y, z = ring.gens()
    L = LinearSys.from_sections(A3, [x * y, x * z])
    reduced, g = L.reduction()
    assert g == x
    assert {str(s) for s in reduced.sections()} == {"y", "z"}
    again, g2 = reduced.reduction()
    assert g2 == ring.one()
    assert again is reduced


def test_reduction_projective():
    P2 = quadric_plane()
    ring = P2.ring
    x, y, z = ring.gens()
    L = LinearSys.from_sections(P2, [x * x * y, x * x * z])
    reduced, g = L.reduction()
    assert g == x * x
    assert reduced.degree == (1,)


def test_poly_gcd():
    A2 = affine_space(QQ, 2)
    ring = A2.ring
    x, y = ring.gens()
    assert poly_gcd(x * x - y * y, x * x + 2 * x * y + y * y) == x + y
    assert poly_gcd(x * x * y + x * y * y, x * y) == x * y
    assert poly_gcd(x + y, x - y) == ring.one()
    assert poly_gcd(ring.zero(), 3 * x) == x
    # univariate chain
    assert poly_gcd(x**3 - x, x**2 - 1) == x * x - 1
    F7 = affine_space(GF(7), 2)
    a, b = F7.ring.gens()
    assert poly_gcd((a + b) ** 3 * a, (a + b) * b) == a + b


def test_random_member():
    P2 = quadric_plane()
    ring = P2.ring
    x, y, z = ring.gens()
    L = LinearSys.from_sections(P2, [x * x + z * z, x * z])
    rng = random.Random(7)
    f = L.random_member(rng)
    assert f in L
    with pytest.raises(ValueError):
        LinearSys.empty(P2, 2).random_member(rng)
    # complete systems draw coefficients without building a matrix
    big = LinearSys.complete(projective_space(GF(397), 3), 25)
    g = big.random_member(rng)
    assert big._matrix is None
    assert big.ambient.section_fits_degree(g, 25)


def test_json_roundtrip_sections():
    # a sections payload is read; every non-complete system writes its matrix
    P2 = quadric_plane()
    ring = P2.ring
    secs = [ring.parse(s) for s in ["x^2+z^2", "y^2-x*z"]]
    L = LinearSys.from_sections(P2, secs)
    parsed = LinearSys.from_json(
        {"ambient": P2.to_json(), "degree": 2, "sections": ["x^2+z^2", "y^2-x*z"]}
    )
    assert [str(s) for s in parsed.sections()] == ["x^2+z^2", "y^2-x*z"]
    data = L.to_json()
    assert "sections" not in data and data["monomials"] == ["x^2", "y^2", "x*z", "z^2"]
    assert data == parsed.to_json()
    L.sections()
    assert L.to_json() == data  # the cached sections do not change the form
    L2 = LinearSys.from_json(data)
    assert L2.same_span(L)
    assert json.dumps(data, sort_keys=True) == json.dumps(
        L2.to_json(), sort_keys=True
    )


def test_json_roundtrip_matrix():
    P2 = projective_space(GF(13), 2)
    L = LinearSys.from_matrix(
        P2, [[1, 12], [0, 5]], [(2, 0, 0), (1, 1, 0)], degree=2
    )
    data = L.to_json()
    assert "matrix" in data and "monomials" in data
    L.sections()
    assert L.to_json() == data  # the cached sections do not change the form
    L2 = LinearSys.from_json(data)
    assert L2.same_span(L)


def test_json_roundtrip_complete():
    P3 = projective_space(QQ, 3)
    L = LinearSys.complete(P3, 50)
    data = L.to_json()
    assert data["complete"] is True
    L2 = LinearSys.from_json(data)
    assert L2.is_complete and L2.nsections() == L.nsections()
    assert L2._monomials is None  # still lazy after the roundtrip


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=6, max_size=6),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(min_value=0, max_value=6), min_size=5, max_size=5),
)
def test_polynomial_map_section_of_coefficient_map(rows, vec):
    # over GF(7): any combination of sections must round-trip through the
    # coefficient map back to the same polynomial; the stored sections are
    # a basis, so only the zero combination gives the zero polynomial
    P2 = projective_space(GF(7), 2)
    mons = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1)]
    rows = [r for r in rows if any(v % 7 for v in r[:5])]
    if not rows:
        return
    L = LinearSys.from_matrix(P2, [r[:5] for r in rows], mons, degree=2)
    n = L.nsections()
    f = L.polynomial_map(vec[:n])
    if f.is_zero():
        assert all(v % 7 == 0 for v in vec[:n])
    a = [c.raw for c in L.coefficient_map()(f)]
    assert L.polynomial_map(a) == f


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_complement_additivity_property(data):
    P1 = projective_space(GF(5), 1)
    d = data.draw(st.integers(min_value=2, max_value=5))
    L = LinearSys.complete(P1, d)
    n = L.nsections()
    nsub = data.draw(st.integers(min_value=0, max_value=n))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    vecs = [[rng.randrange(5) for _ in range(n)] for _ in range(nsub)]
    vecs = [v for v in vecs if any(v)]
    J = (
        LinearSys.from_nullspace(L, vecs)
        if vecs
        else LinearSys.empty(P1, d)
    )
    J = LinearSys.from_sections(P1, J.sections(), degree=d) if vecs else J
    C = L.complement(J)
    assert C.nsections() == n - J.nsections()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_complement_matches_the_stacked_oracle(data):
    # a complete self reads unit rows off sub's free columns, any other self
    # eliminates the stacked bases: both give the oracle's rows exactly
    field = data.draw(st.sampled_from([QQ, GF(101), GF(7, 2)]))
    kind = data.draw(st.sampled_from(["A2", "P2", "P1xP1"]))
    if kind == "A2":
        ambient, degree = affine_space(field, 2), data.draw(st.integers(1, 3))
    elif kind == "P2":
        ambient, degree = projective_space(field, 2), data.draw(st.integers(1, 4))
    else:
        ambient = product_projective(field, [1, 1])
        degree = [data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))]
    rng = random.Random(data.draw(st.integers(0, 10**6)))

    def build():
        K = LinearSys.complete(ambient, degree)
        if data.draw(st.booleans(), label="complete"):
            return K
        forms = [K.random_member(rng) for _ in range(K.nsections() // 2 + 1)]
        return LinearSys.from_sections(ambient, forms, degree=degree)

    L = build()
    nsub = data.draw(st.integers(0, L.nsections()))
    sub = (
        LinearSys.from_sections(ambient, [L.random_member(rng, -3, 3) for _ in range(nsub)], degree=degree)
        if nsub
        else LinearSys.empty(ambient, degree)
    )
    C = L.complement(sub)
    if L.is_complete:
        assert L._matrix is None
    expect = stacked_complement(L, sub)
    assert [str(s) for s in C.sections()] == [str(s) for s in expect.sections()]
