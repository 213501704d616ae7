"""Singular point enumeration and A1/A2 classification on surfaces in P^3."""

import random
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperlin.singular as singular
from hyperlin.ambient import affine_space, projective_space
from hyperlin.conditions import impose_points, taylor_row
from hyperlin.fields import GF, primes_from, rationals
from hyperlin.linalg import rank
from hyperlin.linsys import LinearSys
from hyperlin.poly import MultiPoly
from hyperlin.singular import (
    ScanResult,
    _contract,
    _evaluate,
    _hasse_values,
    _orders,
    classify,
    invariant_family_scan,
    singular_points,
)
from oracles import rref_nullspace


def quintic_30_nodes():
    P3 = projective_space(GF(101), 3)
    x1, x2, x3, x4 = P3.ring.gens()
    F = (
        x1 ** 5 + x2 ** 5 + x1 ** 2 * x2 ** 2 * x3 * 76 + x1 * x2 * x3 ** 3 * 54
        + x3 ** 5 * 65 + x1 ** 2 * x2 ** 2 * x4 * 90 + x1 * x2 * x3 ** 2 * x4 * 93
        + x3 ** 4 * x4 * 29 + x1 * x2 * x3 * x4 ** 2 * 37 + x3 ** 3 * x4 ** 2 * 53
        + x1 * x2 * x4 ** 3 * 85 + x3 ** 2 * x4 ** 3 * 20 + x3 * x4 ** 4 * 10
        + x4 ** 5 * 93
    )
    return P3, F


# -- enumeration ----------------------------------------------------------------


def brute_force_singulars(F, p):
    """Independent oracle: exhaustive sweep of canonical representatives with
    plain integer arithmetic, partials taken term by term."""
    terms = {e: int(c) for e, c in F.terms.items()}
    parts = []
    for i in range(4):
        d = {}
        for e, c in terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
                d[ne] = (d.get(ne, 0) + c * e[i]) % p
        parts.append(d)

    def ev(d, pt):
        total = 0
        for e, c in d.items():
            v = c
            for x, ei in zip(pt, e):
                v = v * pow(x, ei, p) % p
            total = (total + v) % p
        return total

    out = []
    for chart in (3, 2, 1, 0):
        for head in iproduct(range(p), repeat=chart):
            pt = head + (1,) + (0,) * (3 - chart)
            if ev(terms, pt) == 0 and all(ev(d, pt) == 0 for d in parts):
                out.append(pt)
    return out


def test_cayley_cubic_four_nodes():
    K = GF(7)
    P3 = projective_space(K, 3)
    x1, x2, x3, x4 = P3.ring.gens()
    cayley = x1 * x2 * x3 + x1 * x2 * x4 + x1 * x3 * x4 + x2 * x3 * x4
    pts = singular_points(cayley)
    coords = sorted(p.coords for p in pts)
    assert coords == sorted(brute_force_singulars(cayley, 7))
    assert len(pts) == 4
    for p in pts:
        assert sorted(p.coords) == [0, 0, 0, 1]
        assert classify(cayley, p).classification == "A1"


def test_smooth_quadric_has_no_singular_points():
    P3 = projective_space(GF(11), 3)
    x1, x2, x3, x4 = P3.ring.gens()
    assert singular_points(x1 * x4 - x2 * x3) == []


def test_singular_line_counts_every_point():
    # x1*x2 = 0 is singular along the line x1 = x2 = 0
    K = GF(7)
    P3 = projective_space(K, 3)
    x1, x2, x3, x4 = P3.ring.gens()
    pts = singular_points(x1 * x2)
    assert len(pts) == 8
    assert all(p.coords[0] == 0 and p.coords[1] == 0 for p in pts)
    rep = classify(x1 * x2, pts[0])
    assert rep.classification == "other"
    assert rep.hessian_rank == 2


def test_enumeration_validations():
    P3 = projective_space(GF(7), 3)
    x1, x2, x3, x4 = P3.ring.gens()
    with pytest.raises(ValueError, match="zero"):
        singular_points(P3.ring.zero())
    with pytest.raises(ValueError, match="homogeneous"):
        singular_points(x1 * x2 + x3)
    big = projective_space(GF(257), 3)
    y = big.ring.gens()
    with pytest.raises(ValueError, match="too large"):
        singular_points(y[0] * y[1])


def test_generic_sweep_over_extension_field():
    K = GF(3, 2)
    P3 = projective_space(K, 3)
    x1, x2, x3, x4 = P3.ring.gens()
    cayley = x1 * x2 * x3 + x1 * x2 * x4 + x1 * x3 * x4 + x2 * x3 * x4
    pts = singular_points(cayley)
    assert len(pts) == 4
    zero, one = K.zero, K.one
    for p in pts:
        assert sorted(p.coords) == sorted([one, zero, zero, zero])


def test_sweep_points_equal_constructed_points():
    # singular_points builds its points without the AmbientPoint
    # constructor; they must be the points the constructor makes from the
    # same coordinates, over a prime field and an extension field
    for K in (GF(101), GF(3, 2)):
        P3 = projective_space(K, 3)
        x1, x2, x3, x4 = P3.ring.gens()
        cayley = x1 * x2 * x3 + x1 * x2 * x4 + x1 * x3 * x4 + x2 * x3 * x4
        for F in (cayley, x1 * x2 * x3 * x4):
            pts = singular_points(F)
            assert pts
            for pt in pts:
                again = P3.point(pt.coords)
                assert again == pt and hash(again) == hash(pt) and str(again) == str(pt)
                assert type(pt.coords) is tuple and all(type(v) is type(K.zero) for v in pt.coords)


def _power_table(p, maxexp):
    vals = np.arange(p, dtype=np.int64)
    pw = [np.ones(p, dtype=np.int64)]
    for _ in range(maxexp):
        pw.append(pw[-1] * vals % p)
    return pw


@st.composite
def _contraction_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 101] + primes_from(240, 2)))
    nfree = draw(st.integers(1, 3 if p <= 101 else 2))
    exps = st.lists(st.integers(0, 5), min_size=nfree, max_size=nfree).filter(lambda e: sum(e) <= 5)
    terms = draw(st.dictionaries(exps.map(tuple), st.integers(0, p - 1), max_size=8))
    # each variable's grid: every residue, or a subset in any order
    residues = st.permutations(range(p)).flatmap(lambda v: st.integers(1, p).map(lambda k: v[:k]))
    values = draw(st.lists(st.one_of(st.just(list(range(p))), residues), min_size=nfree, max_size=nfree))
    points = draw(st.lists(st.tuples(*[st.integers(0, len(v) - 1) for v in values]), min_size=3, max_size=3))
    return p, terms, values, points


@settings(max_examples=60, deadline=None)
@given(_contraction_cases())
# one variable over GF(251), every coefficient 250: exponents up to 66 stay in
# float32 (67 * 250^2 < 2^22), up to 67 they do not (68 * 250^2 > 2^22)
@example((251, {(e,): 250 for e in range(67)}, [list(range(251))], [(250,), (2,), (0,)]))
@example((251, {(e,): 250 for e in range(68)}, [list(range(251))], [(250,), (3,), (0,)]))
def test_contraction_matches_term_by_term_evaluation(case):
    p, terms, values, points = case
    values = [np.array(v) for v in values]
    maxexp = max((max(e) for e in terms), default=0)
    pw = _power_table(p, maxexp)
    got = _contract(terms, pw, p, values)
    assert got.shape == tuple(len(v) for v in values)
    assert got.dtype == (np.float32 if (maxexp + 1) * (p - 1) ** 2 < 2 ** 22 else np.float64)
    assert np.array_equal(got % p, _evaluate(terms, pw, p, np.ix_(*values)))
    # and at a few grid positions by plain integer arithmetic
    for pos in points:
        pt = [int(v[k]) for v, k in zip(values, pos)]
        direct = sum(c * np.prod([pow(x, e, p) for x, e in zip(pt, ex)]) for ex, c in terms.items()) % p
        assert int(got[pos]) % p == direct


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hasse_values_match_taylor_rows(data):
    p = data.draw(st.sampled_from([5, 7, 101, 103, 1073741827, 2 ** 31 - 1]))
    K = GF(p)
    degree = data.draw(st.integers(0, 6))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    mons = [e for e in iproduct(range(degree + 1), repeat=4) if sum(e) == degree]
    terms = {e: rng.randrange(p) for e in rng.sample(mons, min(len(mons), rng.randint(1, 12)))}
    F = MultiPoly(projective_space(K, 3).ring, {e: c for e, c in terms.items() if c})
    X = [[rng.randrange(p) for _ in range(4)] for _ in range(data.draw(st.integers(1, 6)))]
    tmax = data.draw(st.integers(0, 3))
    with pytest.MonkeyPatch.context() as mp:
        # small blocks split the points over several passes
        mp.setattr("hyperlin.conditions._HASSE_BLOCK", data.draw(st.sampled_from([1, 500, 1 << 18])))
        got = _hasse_values(F, X, p, tmax)
    orders = _orders(tmax)
    assert got.shape == (len(X), len(orders)) and got.dtype == np.int64
    for a, row in zip(X, got):
        for t, v in zip(orders, row):
            assert int(v) == sum(x * c for x, c in zip(taylor_row(list(F.terms), a, t, K), F.terms.values())) % p
    # Euler's identity deg * F(a) = sum a_i dF/dx_i(a) for the homogeneous F
    low = _hasse_values(F, X, p, 1)
    for a, (f, *grad) in zip(X, low.tolist()):
        assert degree * f % p == sum(x * g for x, g in zip(a, grad)) % p


def test_hasse_values_enforce_their_int64_bound():
    p = primes_from(2 ** 31, 1)[0]
    x = projective_space(GF(p), 3).ring.gens()
    with pytest.raises(ValueError, match="int64"):
        _hasse_values(x[0] * x[1], [[1, 2, 3, 4]], p, 1)


def test_forged_survivor_fails_the_exact_recheck(monkeypatch):
    # the re-check reads F and its partials from `_hasse_values`, not from
    # the sweep's `_contract`/`_evaluate` values
    P3, F = quintic_30_nodes()
    real = singular._sweep_prime

    def forged(local, p, values):
        found = real(local, p, values)
        return np.concatenate([found, np.zeros((3, 1), dtype=found.dtype)], axis=1) if len(values) == 3 else found

    monkeypatch.setattr(singular, "_sweep_prime", forged)
    assert F.evaluate((0, 0, 0, 1)).raw != 0
    with pytest.raises(RuntimeError, match="re-check"):
        singular_points(F, P3)


def test_contraction_enforces_its_float64_bound():
    # (D+1)*(p-1)^2 >= 2^51: exponents up to 1 at p ~ 2^26
    p = primes_from(67_108_879, 1)[0]
    with pytest.raises(ValueError, match="float64"):
        _contract({(1,): 1}, [np.ones(1)] * 2, p, [np.arange(1)])


def test_evaluation_enforces_its_int64_bound():
    # len(terms) * (p-1)^(nfree+1) < 2^63: at p = 2^31 - 1 two terms in one
    # variable are exact at the largest residues, a third is refused
    p = 2**31 - 1
    x = np.array([p - 1, p - 2, 0, 1])
    pw = [np.ones(len(x), dtype=np.int64), x, x * x % p]
    terms = {(1,): p - 1, (2,): p - 2}
    want = [((p - 1) * v + (p - 2) * v * v) % p for v in x.tolist()]
    assert _evaluate(terms, pw, p, (np.arange(len(x)),)).tolist() == want
    with pytest.raises(ValueError, match="int64"):
        _evaluate({**terms, (0,): 1}, pw, p, (np.arange(len(x)),))
    with pytest.raises(ValueError, match="int64"):
        _evaluate({(1, 1): 1}, pw, p, (np.arange(len(x)),) * 2)


# -- classification --------------------------------------------------------------


def translation_oracle(F, point, chart=None):
    """(hessian_rank, classification, chart) by the local equation: F
    dehomogenized at the chart, translated so the point is the origin, the
    rank of its quadratic part by generic elimination and its cubic part on
    the kernel line."""
    ring = F.ring
    field = ring.field
    coords = point.coords
    if chart is None:
        chart = max(i for i in range(4) if not field.is_zero(coords[i]))
    inv = field.inv(coords[chart])
    scaled = [field.mul(v, inv) for v in coords]
    localvars = [i for i in range(4) if i != chart]
    lring = affine_space(field, 3, names=[ring.names[i] for i in localvars]).ring
    terms = {}
    for e, c in F.terms.items():
        le = tuple(e[i] for i in localvars)
        terms[le] = field.add(terms.get(le, field.zero), c)
    g = MultiPoly(lring, {e: c for e, c in terms.items() if not field.is_zero(c)})
    g = g.translate(tuple(scaled[i] for i in localvars))
    assert all(sum(e) >= 2 for e in g.terms), "not a singular point"

    def quad(i, j):
        e = tuple((k == i) + (k == j) for k in range(3))
        c = g.terms.get(e, field.zero)
        return field.add(c, c) if i == j else c

    M = [[quad(i, j) for j in range(3)] for i in range(3)]
    r = rank(M, field)
    if r == 3:
        return r, "A1", chart
    if r != 2:
        return r, "other", chart
    k = rref_nullspace(M, field)[0]
    cubic = field.zero
    for e, c in g.terms.items():
        if sum(e) == 3:
            for i, ei in enumerate(e):
                c = field.mul(c, field.pow(k[i], ei))
            cubic = field.add(cubic, c)
    return r, ("A2" if not field.is_zero(cubic) else "other"), chart


def _random_element(field, rng, nonzero=False):
    while True:
        if field.kind == "rational":
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        else:
            v = field.random(rng)
        if not (nonzero and field.is_zero(v)):
            return v


def _surface_with_germs(P3, germs, rng):
    """A surface singular at each given point, with a local equation there
    whose quadratic part has (generically) the given rank and whose cubic
    part vanishes on the kernel line when asked to: sum over the points of
    G_j * prod_{i != j} l_ij^4, where G_j is a cubic form with that germ at
    a_j and l_ij a linear form vanishing at a_i but not at a_j.  The factor
    is a unit at a_j, which keeps the rank and the A1/A2/other type."""
    field = P3.field
    ring = P3.ring
    x = ring.gens()
    F = ring.zero()
    for j, (a, chart, r, flat) in enumerate(germs):
        y = [x[l] - x[chart] * a[l] for l in range(4) if l != chart]  # x_chart * local coords

        def linear():
            out = ring.zero()
            for yl in y:
                out = out + yl * _random_element(field, rng)
            return out

        forms = [linear() for _ in range(r)]
        quad = ring.zero()
        for lf in forms:
            quad = quad + lf * lf * _random_element(field, rng, nonzero=True)
        cubic = ring.zero()
        for s in iproduct(range(4), repeat=3):
            if sum(s) == 3 and rng.random() < 0.5:
                cubic = cubic + y[0] ** s[0] * y[1] ** s[1] * y[2] ** s[2] * _random_element(field, rng)
        if flat and r == 2:
            # the first form vanishes on the kernel line of the quadratic part
            cubic = forms[0] * linear() * linear()
        G = quad * x[chart] + cubic
        for i, (b, *_) in enumerate(germs):
            if i != j:
                m, n = next((m, n) for m in range(4) for n in range(4)
                            if not field.is_zero(field.sub(field.mul(a[m], b[n]), field.mul(a[n], b[m]))))
                G = G * (x[m] * b[n] - x[n] * b[m]) ** 4
        F = F + G
    return F


@pytest.mark.parametrize(
    "field", [GF(5), GF(7), GF(101), GF(103), GF(2 ** 31 - 1), GF(7, 2), rationals()], ids=repr)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_classify_matches_the_translation_oracle(field, data):
    # 2^31 - 1 is the largest prime of the int64 evaluator; GF(7^2) and QQ
    # take the field-arithmetic path
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    P3 = projective_space(field, 3)
    germs, points = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        chart = data.draw(st.integers(0, 3))
        a = [_random_element(field, rng) for _ in range(chart)] + [field.one] + [field.zero] * (3 - chart)
        pt = P3.point(a)
        if pt in points:
            continue
        points.append(pt)
        germs.append((pt.coords, chart, data.draw(st.integers(0, 3)), data.draw(st.booleans())))
    F = _surface_with_germs(P3, germs, rng)
    if F.is_zero():
        return
    expected = [translation_oracle(F, pt) for pt in points]
    got = classify(F, points)
    assert [(r.hessian_rank, r.classification, r.chart) for r in got] == expected
    assert [r.point for r in got] == points
    for pt in points:
        for chart in range(4):
            if field.is_zero(pt.coords[chart]):
                continue
            rep = classify(F, pt, chart=chart)
            assert (rep.hessian_rank, rep.classification, rep.chart) == translation_oracle(F, pt, chart)


def test_classify_node_and_cusp_normal_forms():
    K = GF(101)
    P3 = projective_space(K, 3)
    x1, x2, x3, x4 = P3.ring.gens()
    # local equations at (0:0:0:1): x^2 + y^2 + z^2 resp. x^2 + y^2 + z^3
    node = (x1 * x1 + x2 * x2 + x3 * x3) * x4
    cusp = (x1 * x1 + x2 * x2) * x4 + x3 ** 3
    rep = classify(node, (0, 0, 0, 1))
    assert rep.classification == "A1"
    assert rep.hessian_rank == 3
    rep = classify(cusp, (0, 0, 0, 1))
    assert rep.classification == "A2"
    assert rep.hessian_rank == 2
    assert rep.line() == "point [0:0:0:1] rank=2 class=A2"
    # degenerate quadratic part with square cubic on the kernel: not a cusp
    flat = (x1 * x1 + x2 * x2) * x4 + x3 ** 2 * x1
    assert classify(flat, (0, 0, 0, 1)).classification == "other"


def test_classify_rejects_nonsingular_and_small_characteristic():
    K = GF(101)
    P3 = projective_space(K, 3)
    x1, x2, x3, x4 = P3.ring.gens()
    smooth = x1 * x4 - x2 * x3
    with pytest.raises(ValueError, match="singular"):
        classify(smooth, (0, 0, 0, 1))
    K3 = GF(3)
    Q3 = projective_space(K3, 3)
    y1, y2, y3, y4 = Q3.ring.gens()
    with pytest.raises(ValueError, match="characteristic"):
        classify(y1 * y2, (0, 0, 0, 1))


def test_list_form_returns_reports_in_order_and_rejects_smooth_points():
    P3, F = quintic_30_nodes()
    pts = singular_points(F)
    reports = classify(F, pts)
    assert [r.point for r in reports] == pts
    assert [r.line() for r in reports] == [classify(F, p).line() for p in pts]
    assert classify(F, []) == []
    with pytest.raises(ValueError, match="singular"):
        classify(F, pts[:3] + [P3.point((0, 0, 0, 1))])


def test_classification_is_chart_independent():
    P3, F = quintic_30_nodes()
    field = P3.field
    pts = singular_points(F)
    checked = 0
    for p in pts:
        charts = [i for i in range(4) if not field.is_zero(p.coords[i])]
        if len(charts) < 2:
            continue
        reports = [classify(F, p, chart=c) for c in charts[:2]]
        assert reports[0].classification == reports[1].classification == "A1"
        assert reports[0].hessian_rank == reports[1].hessian_rank
        checked += 1
    assert checked >= 5


# -- the invariant family scan ----------------------------------------------------


def test_scan_generic_member_has_twenty_nodes():
    res = invariant_family_scan(
        "z5", 101, 4,
        lambda count, hist: count == 20 and hist.get("A1", 0) == 20,
        rng=random.Random(1),
    )
    assert isinstance(res, ScanResult)
    assert res.trials == 4
    assert len(res.matches) >= 2
    match = res.matches[0]
    assert len(match.parameters) == 4
    assert len(match.points) == 20
    assert match.polynomial.total_degree() == 5


def test_scan_is_deterministic():
    a = invariant_family_scan("z5", 101, 3, "nodes30", rng=random.Random(5))
    b = invariant_family_scan("z5", 101, 3, "nodes30", rng=random.Random(5))
    assert [m.parameters for m in a.matches] == [m.parameters for m in b.matches]
    assert a.skipped == b.skipped


def test_scan_skips_degenerate_draws():
    class Rigged:
        def randrange(self, n):
            return 5

    res = invariant_family_scan("z5", 101, 2, "nodes30", rng=Rigged())
    assert res.skipped == 2
    assert res.matches == []


def test_scan_stop_after_first_match():
    res = invariant_family_scan(
        "z6", 103, 3,
        lambda count, hist: count == 15,
        rng=random.Random(0),
        stop_after=1,
    )
    assert len(res.matches) == 1
    assert res.trials <= 3


def test_named_target_classifies_only_when_the_count_matches(monkeypatch):
    points = []  # every point passed to classify, one call per surface
    real = singular.classify
    monkeypatch.setattr(singular, "classify", lambda F, pts: points.extend(pts) or real(F, pts))
    named = invariant_family_scan("z5", 101, 4, "nodes30", rng=random.Random(1))
    assert named.matches == [] and points == []
    # a callable target sees the histogram of every trial
    seen = invariant_family_scan(
        "z5", 101, 4, lambda count, hist: count == 30, rng=random.Random(1)
    )
    assert seen.matches == [] and len(points) >= 20


def test_scan_validations():
    with pytest.raises(ValueError, match="family"):
        invariant_family_scan("z7", 101, 1, "nodes30")
    with pytest.raises(ValueError, match="target"):
        invariant_family_scan("z5", 101, 1, "nodes99")
    # a negative or fractional trial count, a stop_after below 1
    for trials, stop_after, message in [
        (-3, None, "trials must be nonnegative"),
        (2.5, None, "must be integers, got 2.5"),
        (True, None, "must be integers, got True"),
        (2, 0, "stop_after must be at least 1"),
        (2, -1, "stop_after must be at least 1"),
        (2, 1.5, "must be integers, got 1.5"),
    ]:
        with pytest.raises(ValueError, match=message):
            invariant_family_scan("z5", 101, trials, "nodes30", stop_after=stop_after)
    assert invariant_family_scan("z5", 101, np.int64(0), "nodes30").trials == 0


# -- the orbit sweep of a diagonal symmetry -------------------------------------------


def _member(family, q, coeffs, double_points):
    """The family's invariant quintic with double points imposed at
    double_points and the given coefficients on a basis of what is left (None
    when that is empty), with the family's symmetry."""
    P3 = projective_space(GF(q), 3)
    build, symmetry = singular._FAMILIES[family]
    L = LinearSys.from_sections(P3, build(P3)[0], degree=5)
    L = impose_points(L, double_points, [2] * len(double_points))
    F = sum((S * c for S, c in zip(L.sections(), coeffs)), P3.ring.zero())
    return P3, F, symmetry


def _assert_orbit_sweep_is_the_full_sweep(P3, F, symmetry):
    full = singular_points(F, P3)
    assert singular_points(F, P3, symmetry=symmetry) == full
    return full


# (family, q): the whole group (z5 at 11, 31, 101; z6 at 31, 37), part of it
# (z6 at 101: only x3 -> -x3) and none of it (z5 at 7, 13)
_GROUPS = [("z5", 11), ("z5", 31), ("z5", 101), ("z6", 31), ("z6", 37), ("z6", 101), ("z5", 7), ("z5", 13)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbit_sweep_matches_the_full_sweep(data):
    family, q = data.draw(st.sampled_from(_GROUPS))
    # coordinates biased to 0, so that points lie in every chart and on x_j = 0
    coord = st.one_of(st.just(0), st.integers(0, q - 1))
    points = data.draw(st.lists(st.tuples(coord, coord, coord, coord).filter(any), max_size=2))
    coeffs = data.draw(st.lists(st.one_of(st.just(0), st.integers(1, q - 1)), min_size=14, max_size=14))
    P3, F, symmetry = _member(family, q, coeffs, points)
    if F.is_zero():
        return
    full = _assert_orbit_sweep_is_the_full_sweep(P3, F, symmetry)
    for pt in points:
        assert P3.point(pt) in full


@pytest.mark.parametrize("family, q, point, chart", [
    # z5 moves x1 in charts 3, 2 and 1; z6 over GF(31) x1 too, over GF(101) x3 in chart 3
    ("z5", 101, (0, 5, 7, 1), 3),
    ("z5", 101, (3, 4, 1, 0), 2),
    ("z5", 101, (2, 1, 0, 0), 1),
    ("z5", 101, (1, 0, 0, 0), 0),
    ("z5", 11, (0, 3, 0, 1), 3),
    ("z6", 31, (0, 2, 9, 1), 3),
    ("z6", 31, (0, 6, 1, 0), 2),
    ("z6", 31, (5, 1, 0, 0), 1),
    ("z6", 101, (4, 8, 0, 1), 3),
    ("z6", 101, (0, 3, 1, 0), 2),
    ("z6", 101, (7, 1, 0, 0), 1),
    ("z6", 37, (1, 0, 0, 0), 0),
    ("z5", 13, (0, 2, 3, 1), 3),
])
def test_orbit_sweep_finds_points_off_the_orbits_and_in_every_chart(family, q, point, chart):
    # a double point where the swept coordinate x_j is 0 is not expanded;
    # one in a lower chart is found on that chart's own reduced grid
    coeffs = random.Random(q).choices(range(1, q), k=14)
    P3, F, symmetry = _member(family, q, coeffs, [point])
    assert not F.is_zero()
    full = _assert_orbit_sweep_is_the_full_sweep(P3, F, symmetry)
    pt = P3.point(point)
    assert pt in full and max(i for i, v in enumerate(pt.coords) if v) == chart


def test_orbit_sweep_takes_a_semi_invariant_but_not_an_invariant_f():
    # every term of weight 2 mod 5 under z5's (0, 2, 1, 1): F(g x) = zeta^2 F(x)
    P3 = projective_space(GF(101), 3)
    x1, x2, x3, x4 = P3.ring.gens()
    F = x1 ** 4 * x2 + 3 * x1 ** 3 * x3 * x4 + 5 * x1 ** 3 * x4 ** 2 + 7 * x1 * x2 ** 3 * x3 + x1 ** 3 * x3 ** 2
    assert _assert_orbit_sweep_is_the_full_sweep(P3, F, (5, (0, 2, 1, 1)))


def test_orbit_sweep_refuses_an_f_that_is_not_semi_invariant():
    P3 = projective_space(GF(101), 3)
    x1, x2, x3, x4 = P3.ring.gens()
    F = x1 ** 5 + x2 ** 5 + x1 * x4 ** 4  # weights 0, 0 and 4 mod 5
    with pytest.raises(ValueError, match="semi-invariant"):
        singular_points(F, P3, symmetry=(5, (0, 2, 1, 1)))
    # over GF(31) z6's x3 -> -x3 exists, and x3 * x4^4 changes sign while x4^5 does not
    Q3 = projective_space(GF(31), 3)
    y1, y2, y3, y4 = Q3.ring.gens()
    with pytest.raises(ValueError, match="semi-invariant"):
        singular_points(y4 ** 5 + y3 * y4 ** 4, Q3, symmetry=(6, (4, 2, 3, 0)))
    # over GF(7) no element of order 5 exists: every F is semi-invariant under the trivial group
    R3 = projective_space(GF(7), 3)
    z1, z2, z3, z4 = R3.ring.gens()
    G = z1 ** 5 + z2 ** 5 + z1 * z4 ** 4
    assert singular_points(G, R3, symmetry=(5, (0, 2, 1, 1))) == singular_points(G, R3)
    for bad in [(0, (0, 0, 0, 0)), (5, (0, 2, 1)), (2.5, (0, 0, 0, 0))]:
        with pytest.raises(ValueError):
            singular_points(F, P3, symmetry=bad)


def test_orbit_sweep_over_an_extension_field():
    # GF(9)* has order 8: z6's x3 -> -x3 exists there, and the generic sweep
    # visits one point per orbit too
    K = GF(3, 2)
    P3 = projective_space(K, 3)
    x1, x2, x3, x4 = P3.ring.gens()
    u = K.element(K.generator())
    F = x4 ** 5 + x3 ** 2 * x4 ** 3 * u + x1 * x2 * x4 ** 3 + x3 ** 4 * x4 + x2 ** 3 * x3 ** 2 * (u + 1) + x1 ** 4 * x2
    assert _assert_orbit_sweep_is_the_full_sweep(P3, F, (6, (4, 2, 3, 0)))
