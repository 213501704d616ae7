"""Chains of infinitely near points: strict transforms and imposed systems."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperlin.blowup as blowup
import hyperlin.linalg as linalg
from hyperlin.ambient import affine_space
from hyperlin.blowup import (
    BlowupChainSpec,
    TangentDirection,
    _blow_transform,
    impose_chain,
    multiplicity_sequence,
    pencil_parameter_lift,
    quadrifolium,
    sextic_pencil_scan,
)
from hyperlin.fields import GF, rationals
from hyperlin.linalg import identity, matmul, rank
from hyperlin.linsys import LinearSys
from hyperlin.poly import monomials_below_degree
from hyperlin.schema import JobError
from oracles import rref_nullspace

QQ = rationals()


def plane():
    A2 = affine_space(QQ, 2)
    x, y = A2.ring.gens()
    return A2, x, y


# -- tangent directions and spec validation ----------------------------------


def test_tangent_normalization():
    t = TangentDirection(QQ, (2, 4))
    assert not t.infinite
    assert t.c == Fraction(1, 2)
    assert t.pair() == (Fraction(1, 2), Fraction(1))
    inf = TangentDirection(QQ, (3, 0))
    assert inf.infinite
    assert inf.pair() == (Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        TangentDirection(QQ, (0, 0))


def test_chain_spec_validation():
    with pytest.raises(ValueError, match="tangent"):
        BlowupChainSpec((0, 0), [2, 2], [])
    with pytest.raises(ValueError):
        BlowupChainSpec((0, 0), [], [])
    with pytest.raises(ValueError):
        BlowupChainSpec((0, 0), [2, -1], [(1, 0)])
    # only integers, never truncated: 2.7 is not 2 and True is not 1
    for bad in (2.7, True, "2"):
        with pytest.raises(ValueError, match="integers"):
            BlowupChainSpec((0, 0), [bad, 1], [(1, 0)])
    assert BlowupChainSpec((0, 0), [np.int64(2), 1], [(1, 0)]).mults == [2, 1]


def test_chain_spec_json_roundtrip():
    spec = BlowupChainSpec(
        (Fraction(1, 5), Fraction(7, 10)), [2, 1], [(1, -1)]
    )
    data = spec.to_json()
    assert data == {"point": ["1/5", "7/10"], "mults": [2, 1], "tangents": [[1, -1]]}
    back = BlowupChainSpec.from_json(data, QQ)
    assert back.point == (Fraction(1, 5), Fraction(7, 10))
    assert back.mults == [2, 1]


@pytest.mark.parametrize("data, message", [
    ({"point": [0, 0], "mults": [1], "weight": 2}, "chain: unknown key(s): weight"),
    ({"point": [0, 0]}, "chain: missing key(s): mults"),
    # a string was read as its characters, the point (1, 2)
    ({"point": "12", "mults": [1]}, "chain.point: expected a list"),
    ({"point": [0, 0], "mults": [2, 1], "tangents": ["10"]}, "chain.tangents[0]: expected a list"),
    ({"point": ["1/0", 0], "mults": [1]}, "chain: "),
])
def test_chain_spec_json_refusals_are_located(data, message):
    with pytest.raises(JobError) as exc:
        BlowupChainSpec.from_json(data, QQ)
    assert str(exc.value).startswith(message)


# -- multiplicity sequences of classical singularities ------------------------
# A cusp y^2 = x^3 resolves after one blowup into a smooth branch tangent to
# the exceptional line: sequence [2, 1, 1].  A tacnode y^2 = x^4 stays a
# double point for one more blowup: [2, 2].  Both branches point along the
# x-axis, direction [1 : 0].


def test_cusp_sequence():
    A2, x, y = plane()
    cusp = y * y - x * x * x
    assert multiplicity_sequence(cusp, (0, 0), [(1, 0), (1, 0)]) == [2, 1, 1]


def test_tacnode_sequence():
    A2, x, y = plane()
    tac = y * y - x ** 4
    assert multiplicity_sequence(tac, (0, 0), [(1, 0)]) == [2, 2]


def test_sequence_away_from_origin():
    A2, x, y = plane()
    f = (y - 3) * (y - 3) - (x - 2) ** 3
    assert multiplicity_sequence(f, (2, 3), [(1, 0), (1, 0)]) == [2, 1, 1]


def test_sequence_multiplicative():
    # strict transform of a product is the product of strict transforms
    A2, x, y = plane()
    f = y * y - x ** 3
    g = y - x
    fg = f * g
    path = [(1, 0), (1, 0)]
    sf = multiplicity_sequence(f, (0, 0), path)
    sg = multiplicity_sequence(g, (0, 0), path)
    sfg = multiplicity_sequence(fg, (0, 0), path)
    assert sfg == [a + b for a, b in zip(sf, sg)]


def test_transform_rejects_inexact_division():
    A2, x, y = plane()
    t = TangentDirection(QQ, (0, 1))
    with pytest.raises(ValueError, match="divisible"):
        _blow_transform(x + y, t, 2)


# -- imposing chains -----------------------------------------------------------
# Reference: the chain imposed point by point on the sections themselves.
# Every member is translated, blown up and divided as a polynomial, a small
# nullspace of its Taylor rows is taken at each point and folded into the
# coefficient matrix V.


def _combine(rows, polys, ring):
    """The polynomials sum_j row[j] * polys[j], one per coefficient row."""
    field = ring.field
    out = []
    for row in rows:
        acc = ring.zero()
        for cval, g in zip(row, polys):
            if not field.is_zero(cval):
                acc = acc + g * cval
        out.append(acc)
    return out


def _chain_step(V, cur, ring, m, tangent, prev):
    """One point of a chain.  cur[i] is the member with coefficient vector
    V[i], transformed so far; blow it up along `tangent` (dividing the
    exceptional factor to the power `prev`, the previous multiplicity), then
    keep the combinations vanishing to order m at the origin: the nullspace
    N of their Taylor rows, folded into V and cur."""
    field = ring.field
    if tangent is not None:
        cur = [_blow_transform(g, tangent, prev) for g in cur]
    if m == 0:
        return V, cur
    rows = [[g.terms.get(t, field.zero) for g in cur] for t in monomials_below_degree(2, m)]
    N = rref_nullspace(rows, field, ncols=len(cur))
    return matmul(N, V, field), _combine(N, cur, ring)


def stepwise_impose_chain(L, specs):
    ambient = L.ambient
    field = ambient.field
    ring = ambient.ring
    V = identity(L.nsections(), field)
    sections = L.sections()
    for spec in specs:
        if not V:
            break
        point = tuple(field.coerce(v) for v in ambient.point(spec.point).coords)
        cur = [g.translate(point) for g in _combine(V, sections, ring)]
        tangents = [None] + [
            t if isinstance(t, TangentDirection) else TangentDirection(field, t)
            for t in spec.tangents
        ]
        for tangent, m, prev in zip(tangents, spec.mults, [0] + spec.mults):
            V, cur = _chain_step(V, cur, ring, m, tangent, prev)
            if not V:
                break
    return LinearSys.from_nullspace(L, V)


def test_chain_of_length_one_is_a_point_condition():
    from hyperlin.conditions import impose_points

    A2, x, y = plane()
    J = LinearSys.complete(A2, 4)
    via_chain = impose_chain(J, [BlowupChainSpec((1, 2), [3], [])])
    via_points = impose_points(J, [(1, 2)], [3])
    assert via_chain.same_span(via_points)


def test_tacnode_membership():
    A2, x, y = plane()
    J = LinearSys.complete(A2, 4)
    L = impose_chain(J, [BlowupChainSpec((0, 0), [2, 2], [(1, 0)])])
    assert (y * y - x ** 4) in L
    assert (y * y - x ** 3) not in L  # cusp is transverse to E after one blowup
    assert (y * y - x * x) not in L  # node has two tangents, neither imposed twice


def test_cusp_membership():
    A2, x, y = plane()
    J = LinearSys.complete(A2, 4)
    L = impose_chain(J, [BlowupChainSpec((0, 0), [2, 1, 1], [(1, 0), (1, 0)])])
    assert (y * y - x ** 3) in L


def test_tacnode_conditions_explicit():
    # Expanding g(xy, y)/y^2 and recentering at c = 1 by hand, the [2,2]
    # chain along [1 : 1] pins six coefficients of a quartic g = sum c_ab:
    #   c00 = c10 = c01 = 0
    #   c20 + c11 + c02 = 0          (constant term on E)
    #   2 c20 + c11 = 0              (coefficient of x)
    #   c30 + c21 + c12 + c03 = 0    (coefficient of y)
    A2, x, y = plane()
    J = LinearSys.complete(A2, 4)
    L = impose_chain(J, [BlowupChainSpec((0, 0), [2, 2], [(1, 1)])])
    assert L.nsections() == 15 - 6
    for s in L.sections():
        c = lambda a, b: s.terms.get((a, b), Fraction(0))
        assert c(0, 0) == c(1, 0) == c(0, 1) == 0
        assert c(2, 0) + c(1, 1) + c(0, 2) == 0
        assert 2 * c(2, 0) + c(1, 1) == 0
        assert c(3, 0) + c(2, 1) + c(1, 2) + c(0, 3) == 0


def test_spec_order_independence():
    A2, x, y = plane()
    J = LinearSys.complete(A2, 5)
    s1 = BlowupChainSpec((0, 0), [2, 2], [(1, 1)])
    s2 = BlowupChainSpec((1, 0), [2, 1], [(0, 1)])
    assert impose_chain(J, [s1, s2]).same_span(impose_chain(J, [s2, s1]))


def test_chain_on_subsystem_and_empty_exhaustion():
    A2, x, y = plane()
    J = LinearSys.from_sections(A2, [x * x, y * y, x * y], degree=2)
    L = impose_chain(J, [BlowupChainSpec((1, 1), [1], [])])
    assert L.nsections() == 2
    # mult 2 at (1,1) leaves only (x - y)^2; its strict transform is tangent
    # to [1 : 1], so asking for a double point along [1 : 0] empties the system
    diag = impose_chain(J, [BlowupChainSpec((1, 1), [2], [])])
    assert diag.nsections() == 1
    assert ((x - y) * (x - y)) in diag
    heavy = impose_chain(J, [BlowupChainSpec((1, 1), [2, 2], [(1, 0)])])
    assert heavy.is_empty()


def test_tacnode_cusp_quartic():
    A2, x, y = plane()
    J = LinearSys.complete(A2, 4)
    specs = [
        BlowupChainSpec((0, 0), [2, 2], [(1, 1)]),
        BlowupChainSpec((2, 3), [2, 1, 1], [(1, 1), (1, 0)]),
    ]
    L = impose_chain(J, specs)
    assert L.nsections() == 4
    total = A2.ring.zero()
    for s in L.sections():
        total = total + s
    assert multiplicity_sequence(total, (0, 0), [(1, 1)]) == [2, 2]
    assert multiplicity_sequence(total, (2, 3), [(1, 1), (1, 0)]) == [2, 1, 1]


def _assert_matches_stepwise(L, specs):
    rows = impose_chain(L, specs)
    steps = stepwise_impose_chain(L, specs)
    assert rows.nsections() == steps.nsections()
    assert rows.same_span(steps)


# 2^31 - 1 is prime: the edge of the GF(p) kernels' int64 bound
CHAIN_FIELDS = [QQ, GF(101), GF(7, 2), GF(2**31 - 1)]


def _even_monomials(A2, d):
    ring = A2.ring
    mons = [ring.monomial(e) for e in monomials_below_degree(2, d + 1) if e[0] % 2 == e[1] % 2 == 0]
    return LinearSys.from_sections(A2, mons, degree=d)


@pytest.mark.parametrize(
    "field, d, system, specs",
    [
        # infinite tangents, also twice in a row
        (QQ, 5, "complete", [BlowupChainSpec((1, -2), [2, 2, 1], [(1, 0), (3, 0)])]),
        # multiplicity 0 in mid-chain, and at the base point
        (GF(101), 5, "complete", [BlowupChainSpec((3, 4), [2, 0, 2], [(2, 1), (5, 1)]),
                                  BlowupChainSpec((1, 1), [0, 2, 1], [(1, 0), (1, 1)])]),
        # a system that is not complete: quadrifolium's even monomials
        (QQ, 6, "even", [BlowupChainSpec((0, 0), [4, 2], [(1, 0)]),
                         BlowupChainSpec((0, 0), [4, 2], [(0, 1)])]),
        # fractional points and tangents
        (QQ, 5, "complete", [BlowupChainSpec((Fraction(1, 3), Fraction(-5, 2)), [2, 1, 1],
                                             [(Fraction(2, 7), 1), (3, Fraction(4, 5))])]),
        (GF(7, 2), 5, "complete", [BlowupChainSpec(((1, 3), (5, 0)), [2, 2], [((0, 1), (1, 0))])]),
        (GF(2**31 - 1), 5, "complete", [BlowupChainSpec((2**30, -7), [3, 2], [(12345, 1)])]),
        # more conditions than the degree: sum of the mults above 4
        (GF(101), 4, "complete", [BlowupChainSpec((1, 2), [3, 2, 2], [(1, 4), (1, 0)])]),
        (QQ, 4, "empty", [BlowupChainSpec((0, 0), [2, 1], [(1, 1)])]),
    ],
)
def test_chain_rows_match_stepwise_cases(field, d, system, specs):
    A2 = affine_space(field, 2)
    L = {"complete": LinearSys.complete, "even": _even_monomials, "empty": LinearSys.empty}[system](A2, d)
    _assert_matches_stepwise(L, specs)


@st.composite
def chain_cases(draw):
    field = draw(st.sampled_from(CHAIN_FIELDS))
    A2 = affine_space(field, 2)
    ring = A2.ring
    d = draw(st.integers(1, 5))

    def coord():
        if field.kind == "rational":
            return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if field.kind == "extension":
            return tuple(draw(st.integers(0, 6)) for _ in range(2))
        return draw(st.integers(-4, 4))

    def tangent():
        if draw(st.booleans()):
            return (1, 0)
        pair = (coord(), coord())
        return pair if any(field.coerce(a) != field.zero for a in pair) else (0, 1)

    system = draw(st.sampled_from(["complete", "even", "sections", "empty"]))
    if system == "sections":
        mons = monomials_below_degree(2, d + 1)
        polys = []
        for _ in range(draw(st.integers(1, 4))):
            f = ring.zero()
            for e in draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4, unique=True)):
                f = f + ring.monomial(e, coord())
            if not f.is_zero():
                polys.append(f)
        L = LinearSys.from_sections(A2, polys, degree=d) if polys else LinearSys.empty(A2, d)
    else:
        L = {"complete": LinearSys.complete, "even": _even_monomials, "empty": LinearSys.empty}[system](A2, d)
    specs = []
    for _ in range(draw(st.integers(0, 3))):
        mults = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        specs.append(BlowupChainSpec((coord(), coord()), mults, [tangent() for _ in mults[1:]]))
    return L, specs


@given(chain_cases())
@settings(max_examples=60, deadline=None)
def test_chain_rows_match_stepwise(case):
    _assert_matches_stepwise(*case)


def test_degree_20_chains_over_gf101():
    import random

    rng = random.Random(20)
    F = GF(101)
    A2 = affine_space(F, 2)
    specs = []
    while len(specs) < 4:
        point = (rng.randrange(101), rng.randrange(101))
        if all(point != s.point for s in specs):
            specs.append(BlowupChainSpec(point, [5, 4, 3], [(rng.randrange(101), 1) for _ in range(2)]))
    L = impose_chain(LinearSys.complete(A2, 20), specs)
    assert L.nsections() == 231 - 4 * (15 + 10 + 6)
    for _ in range(3):
        f = L.random_member(rng)
        for s in specs:
            seq = multiplicity_sequence(f, s.point, s.tangents)
            assert all(a >= m for a, m in zip(seq, s.mults)), (s.point, seq)


def test_degree_16_chains_over_qq():
    # 124 stacked rows on 153 sections, a certified multimodular basis of
    # 29 vectors (about 90 s through a Fraction Gauss-Jordan)
    import random

    rng = random.Random(12)
    A2 = affine_space(QQ, 2)
    specs = []
    while len(specs) < 4:
        point = (rng.randint(-3, 3), rng.randint(-3, 3))
        if all(point != s.point for s in specs):
            specs.append(BlowupChainSpec(point, [5, 4, 3], [(rng.randint(-3, 3), 1) for _ in range(2)]))
    L = impose_chain(LinearSys.complete(A2, 16), specs)
    assert L.nsections() == 153 - 4 * (15 + 10 + 6)
    for _ in range(2):
        f = L.random_member(rng)
        for s in specs:
            seq = multiplicity_sequence(f, s.point, s.tangents)
            assert all(a >= m for a, m in zip(seq, s.mults)), (s.point, seq)


# -- the quadrifolium ----------------------------------------------------------


def test_quadrifolium_pinned_curve():
    q = quadrifolium()
    assert str(q) == "x^6+26171/9604*x^4*y^2+26171/9604*x^2*y^4-35775/4802*x^2*y^2+y^6"
    assert all(a % 2 == 0 and b % 2 == 0 for a, b in q.terms)
    assert multiplicity_sequence(q, (0, 0), [(1, 0)]) == [4, 2]
    assert multiplicity_sequence(q, (0, 0), [(0, 1)]) == [4, 2]
    assert multiplicity_sequence(q, (1, 1), [(1, -1)])[:2] == [1, 1]
    for pt in [(Fraction(1, 5), Fraction(7, 10)), (Fraction(7, 10), Fraction(1, 5))]:
        assert q.translate(pt).multiplicity_at_origin() == 1


# -- the sextic pencil over GF(p^2) ---------------------------------------------


def test_pencil_scan_finds_two_conjugate_parameters():
    p = 59
    hits = sextic_pencil_scan(p, cross_check=3)
    assert len(hits) == 2
    K = GF(p, 2)
    e1 = K.add(*hits)
    e2 = K.mul(*hits)
    assert K.in_prime_subfield(e1) and K.in_prime_subfield(e2)

    def red(f):
        return f.numerator * pow(f.denominator, -1, p) % p

    assert e1[0] == red(Fraction(3645985316400, 227892834937))
    assert e2[0] == red(Fraction(14582741040000, 227892834937))


def brute_force_pencil_scan(p):
    """Reference: every a in GF(p^2)*, with the rank of the last point's
    three Taylor conditions on the fixed 8-point prefix, imposed over
    GF(p^2) and evaluated at c = 1/a by Horner's rule."""
    K = GF(p, 2)
    A2 = affine_space(K, 2)
    V, cur = identity(28, K), LinearSys.complete(A2, 6).sections()
    for k in range(8):
        tangent = TangentDirection(K, (1, k)) if k else None
        V, cur = _chain_step(V, cur, A2.ring, 2, tangent, 2)
    upolys = []
    for g in cur:
        u0, ux, uy = [K.zero] * 3, [K.zero] * 2, [K.zero] * 4
        for (a, b), cval in g.terms.items():
            if a + b == 2:
                u0[a] = cval
                if a >= 1:
                    ux[a - 1] = K.add(ux[a - 1], K.mul(K.from_int(a), cval))
            elif a + b == 3:
                uy[a] = cval
        upolys.append((u0, ux, uy))

    def horner(coeffs, c):
        acc = K.zero
        for v in reversed(coeffs):
            acc = K.add(K.mul(acc, c), v)
        return acc

    hits = []
    for a in K.elements():
        if K.is_zero(a):
            continue
        c = K.inv(a)
        rows = [[horner(u, c) for u in us] for us in zip(*upolys)]
        if len(cur) - rank(rows, K) == 2:
            hits.append(a)
    return sorted(hits)


# no hits at 5, every a at 7, two values in GF(p) at 11, 19 and 29, two
# conjugate values outside GF(p) at 13, 17 and 23
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 59])
def test_pencil_scan_matches_brute_force(p):
    hits = sextic_pencil_scan(p)
    assert hits == brute_force_pencil_scan(p)
    K = GF(p, 2)
    rational = [K.in_prime_subfield(a) for a in hits]
    expected = {5: [], 7: [True] * 6 + [False] * 42, 11: [True] * 2, 13: [False] * 2}
    if p in expected:
        assert sorted(rational, reverse=True) == expected[p]
    if p in (19, 29):
        assert rational == [True, True]
    if p in (17, 23):
        assert rational == [False, False]


def test_pencil_scan_rejects_characteristic_two():
    with pytest.raises(ValueError, match="odd prime"):
        sextic_pencil_scan(2)


def _stand_in_scan(scanned, trace_norm_at):
    """A scan whose two hits are the roots of x^2 - e1*x + e2 with
    (e1, e2) = trace_norm_at(p), chosen to have roots 2, 3 or 1, 3 in GF(p)."""

    def scan(p):
        scanned.append(p)
        K = GF(p, 2)
        pair = trace_norm_at(p)
        if pair is None:
            return []
        roots = {(5, 6): (2, 3), (4, 3): (1, 3)}[pair]
        return sorted(K.from_int(r) for r in roots)

    return scan


def test_pencil_lift_confirms_at_a_check_prime(monkeypatch):
    scanned = []
    # no two values at 67: the check moves on to 71
    monkeypatch.setattr(
        blowup, "sextic_pencil_scan", _stand_in_scan(scanned, lambda p: None if p == 67 else (5, 6))
    )
    assert pencil_parameter_lift(primes=[61, 59]) == (5, 6, 59 * 61, [61, 59])
    assert scanned == [61, 59, 67, 71]
    scanned.clear()
    # 67 is skipped by the lift too; the check prime follows 71, the last one used
    assert pencil_parameter_lift(start_prime=59, target_modulus=10**5) == (5, 6, 59 * 61 * 71, [59, 61, 71])
    assert scanned == [59, 61, 67, 71, 73]


def test_pencil_lift_raises_when_the_check_prime_disagrees(monkeypatch):
    scanned = []
    # consistent on the primes used, a different trace at the check prime
    monkeypatch.setattr(
        blowup, "sextic_pencil_scan", _stand_in_scan(scanned, lambda p: (5, 6) if p < 67 else (4, 3))
    )
    with pytest.raises(RuntimeError, match="check prime 67"):
        pencil_parameter_lift(primes=[59, 61])
    assert scanned == [59, 61, 67]
    # no prime with two values after the last one used
    monkeypatch.setattr(
        blowup, "sextic_pencil_scan", _stand_in_scan(scanned, lambda p: (5, 6) if p < 67 else None)
    )
    with pytest.raises(RuntimeError, match="no check prime"):
        pencil_parameter_lift(primes=[59, 61])


# -- property: strict transforms respect linearity -----------------------------


@st.composite
def poly_pairs(draw):
    K = GF(7)
    A2 = affine_space(K, 2)
    ring = A2.ring
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(1, 6),
            min_size=1,
            max_size=6,
        )
    )
    f = ring.zero()
    for e, c in terms.items():
        f = f + ring.monomial(e, c)
    path = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda t: t != (0, 0)),
            min_size=1,
            max_size=2,
        )
    )
    return f, path


@given(poly_pairs(), poly_pairs())
@settings(max_examples=40, deadline=None)
def test_sequences_add_under_products(fp, gp):
    f, path = fp
    g, _ = gp
    sf = multiplicity_sequence(f, (0, 0), path)
    sg = multiplicity_sequence(g, (0, 0), path)
    sfg = multiplicity_sequence(f * g, (0, 0), path)
    assert sfg == [a + b for a, b in zip(sf, sg)]


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_four_chains_on_the_degree_24_plane(p, monkeypatch):
    # 124 chain rows on 325 monomials: one GF(p) kernel elimination
    F = GF(p)
    L = LinearSys.complete(affine_space(F, 2), 24)
    specs = [
        BlowupChainSpec((3, 7), [5, 4, 3], [(1, 2), (1, 5)]),
        BlowupChainSpec((11, 2), [5, 4, 3], [(1, 0), (2, 1)]),
        BlowupChainSpec((5, 13), [5, 4, 3], [(1, 9), (0, 1)]),
        BlowupChainSpec((20, 9), [5, 4, 3], [(3, 1), (1, 1)]),
    ]
    solved = []
    real = linalg.nullspace_mod_p
    monkeypatch.setattr(linalg, "nullspace_mod_p", lambda A, q: solved.append(np.shape(A)) or real(A, q))
    J = impose_chain(L, specs)
    assert solved == [(124, 325)]
    assert J.nsections() == 325 - 4 * (15 + 10 + 6)
    # every section meets the chains; a random member meets them exactly
    f = J.random_member(random.Random(p))
    for spec in specs:
        assert multiplicity_sequence(f, spec.point, spec.tangents) == spec.mults
        for g in J.sections()[:3]:
            seq = multiplicity_sequence(g, spec.point, spec.tangents)
            assert all(s >= m for s, m in zip(seq, spec.mults))
