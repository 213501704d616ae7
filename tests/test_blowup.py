"""Chains of infinitely near points: strict transforms and imposed systems."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hyperlin.blowup as blowup
from hyperlin.ambient import affine_space
from hyperlin.blowup import (
    BlowupChainSpec,
    TangentDirection,
    _blow_transform,
    _chain_step,
    impose_chain,
    multiplicity_sequence,
    pencil_parameter_lift,
    quadrifolium,
    sextic_pencil_scan,
)
from hyperlin.fields import GF, rationals
from hyperlin.linalg import identity, rank
from hyperlin.linsys import LinearSys

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


def test_chain_spec_json_roundtrip():
    spec = BlowupChainSpec(
        (Fraction(1, 5), Fraction(7, 10)), [2, 1], [(1, -1)]
    )
    data = spec.to_json()
    assert data == {"point": ["1/5", "7/10"], "mults": [2, 1], "tangents": [[1, -1]]}
    back = BlowupChainSpec.from_json(data, QQ)
    assert back.point == (Fraction(1, 5), Fraction(7, 10))
    assert back.mults == [2, 1]


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
