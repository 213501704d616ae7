"""Imposing geometric conditions on linear systems.

Point conditions (vanishing to a prescribed multiplicity, including on
projective and product ambients via the canonical affine chart at each
point), containment of a subscheme, and images of schemes under polynomial
maps.  Each construction produces the condition matrix with respect to the
system's sections and returns the subsystem cut out by its nullspace.  Every
condition matrix goes through `linalg.solve_nullspace`, so the basis is the
canonical one whichever kernel runs; the chains of infinitely near points
in `blowup` are condition rows too.  Projective containment reads the
generators' multiples off as rows over all monomials of the degree (the
complete system's coefficient map); the annihilator of their span, a
basis from `linalg.nullspace`, gives the condition rows.

Derivatives are divided-power (Hasse) derivatives throughout, so
multiplicity conditions are correct in positive characteristic as well.
Each row C(e, t) a^(e-t) comes from one of two cores: `_taylor_rows` for
every field, from `poly._hasse_tables` (its QQ rows are integer multiples
of the Taylor rows, so the rational kernels need no clearing), and the
numpy `_hasse_rows_mod_p` for GF(p), exact for p < 2^31 (enforced).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import prod

import numpy as np

from .fields import _integer
from .groebner import groebner_basis, normal_form
from .linalg import _INT64_P, gf_numpy_path, matmul, nullspace, solve_nullspace
from .linsys import LinearSys
from .poly import MultiPoly, _hasse_tables, grevlex_key, monomials_below_degree

_HASSE_BLOCK = 1 << 16  # int64 entries (orders x monomials x points) per block of `_hasse_rows_mod_p`


class SchemeSpec:
    """A subscheme presented by ideal generators.

    The `saturated` flag is a caller promise that the homogeneous ideal is
    saturated; projective containment refuses to run without it, since
    degree-bounded multiples of an unsaturated ideal can miss sections that
    do vanish on the scheme.
    """

    __slots__ = ("generators", "saturated")

    def __init__(self, generators, saturated=False):
        self.generators = [g for g in generators if not g.is_zero()]
        rings = {g.ring for g in self.generators}
        if len(rings) > 1:
            raise ValueError("generators from different rings")
        self.saturated = bool(saturated)

    def is_zero_ideal(self):
        return not self.generators

    def is_unit_ideal(self):
        return any(
            not g.is_zero() and g.total_degree() == 0 for g in self.generators
        )

    def to_json(self):
        return {
            "generators": [str(g) for g in self.generators],
            "saturated": self.saturated,
        }

    @staticmethod
    def from_json(data, ring):
        gens = [ring.parse(s) for s in data.get("generators", [])]
        return SchemeSpec(gens, saturated=data.get("saturated", False))

    def __repr__(self):
        flag = ", saturated" if self.saturated else ""
        return f"SchemeSpec({len(self.generators)} generator(s){flag})"


# ---------------------------------------------------------------------------
# point conditions


def taylor_row(monomials, coords, t, field):
    """Row of divided-power derivative values: entry per monomial e is
    prod_i C(e_i, t_i) * a_i^(e_i - t_i), the t-th Hasse derivative of x^e
    evaluated at a."""
    columns = [[e[i] for e in monomials] for i in range(len(coords))]
    (row,) = _taylor_rows(field, coords, columns, [t])
    if field.kind == "rational":
        scale = _qq_scale(coords, columns, t)
        row = [Fraction(v, scale) for v in row]
    return row


def _taylor_rows(field, coords, columns, orders):
    """Rows of Hasse derivative values, one per order t, over the monomials
    whose exponents in variable i are columns[i]: the entry of a monomial e
    is prod_i T_i[t_i][e_i], one lookup per variable in the tables of
    `_hasse_tables` at a_i = coords[i], built once per call.  Over a finite
    field that is the Taylor row; over QQ it is the integer row
    `_qq_scale(coords, columns, t)` times the Taylor row."""
    tables = [_hasse_tables(field, a, max(col, default=0), max(ts))
              for a, col, ts in zip(coords, columns, zip(*orders))]
    mul = operator.mul if field.kind == "rational" else field.mul
    rows = []
    for t in orders:
        row = None
        for ti, table, col in zip(t, tables, columns):
            factor = table[ti]
            if row is None:
                row = [factor[e] for e in col]
            else:
                row = [mul(v, factor[e]) for v, e in zip(row, col)]
        rows.append(row)
    return rows


def _qq_scale(coords, columns, t):
    """prod_i d_i^(top_i - t_i), a_i = n_i/d_i and top_i = max(columns[i]):
    the positive integer by which a QQ row of `_taylor_rows` exceeds the
    Taylor row of order t.  A t_i above top_i counts as top_i: both rows
    are zero there."""
    tops = (max(col, default=0) for col in columns)
    return prod(a.denominator ** max(top - ti, 0) for a, top, ti in zip(coords, tops, t))


def point_condition_rows(L, point, multiplicity):
    """Condition rows (over L's monomials) for vanishing to order
    `multiplicity` at the point: one row per local order t with |t| below
    the multiplicity, in `monomials_below_degree` order.

    The rows of `_taylor_rows` in the local coordinates: over a finite field
    the row of order t is `taylor_row(..., t, field)`, over QQ that row
    times the positive integer `_qq_scale`, a row of ints, equal to the
    Taylor row at an integer point.  The chart variables (coordinate 1,
    order 0) contribute the factor 1 and are skipped."""
    ambient = L.ambient
    point = ambient.point(point.coords if hasattr(point, "coords") else point)
    charts, _ = point.affine_chart()
    local = [i for i in range(ambient.total_vars()) if i not in charts]
    mons = L.monomials()
    coords = [point.coords[i] for i in local]
    columns = [[e[i] for e in mons] for i in local]
    return _taylor_rows(ambient.field, coords, columns, monomials_below_degree(len(local), multiplicity))


def _hasse_rows_mod_p(E, X, orders, p, dtype=np.int64):
    """Hasse derivatives C(e, t) a^(e - t) mod p of every monomial e (rows
    of E) of every order t (rows of orders) at every point a (rows of X), as
    a C-ordered [order, monomial, point] array of the dtype; with float64 its
    [0].T is the column-major working matrix of the GF(p) kernel.  It is
    allocated after the tables: before them, the heap keeps more free space.
    One table [t, e, point] per variable; a block of monomials at a time
    multiplies one entry per variable in int64, reduced mod p only where the
    next factor could pass 2^63.  The one int64 bound: exact for p < 2^31,
    where a reduced entry times a factor is below p^2 < 2^62 (enforced)."""
    if p >= _INT64_P:
        raise ValueError(f"GF({p}) is beyond the int64 Hasse evaluation (p < 2^31)")
    orders = np.array(orders, dtype=np.int64)
    E, X = (np.array(A, dtype=np.int64).reshape(-1, orders.shape[1]) for A in (E, X))
    X %= p
    tables = []
    for e, t, x in zip(E.T, orders.T, X.T):
        # T[k, d] = C(d, k) x^(d-k), by Pascal's rule
        T = np.zeros((int(t.max(initial=0)) + 1, int(e.max(initial=0)) + 1, len(x)), dtype=np.int64)
        T[0, 0] = 1
        for d in range(1, T.shape[1]):
            T[:, d] = T[:, d - 1] * x % p
            T[1:, d] = (T[1:, d] + T[:-1, d - 1]) % p
        tables.append((T, t[:, None]))
    out = np.empty((len(orders), len(E), len(X)), dtype=dtype)
    step = max(1, _HASSE_BLOCK // max(len(orders) * len(X), 1))
    for j in range(0, len(E), step):
        block = E[j : j + step]
        a = np.ones((len(orders), len(block), len(X)), dtype=np.int64)
        top = 1  # bound on the entries of a
        for (T, t), e in zip(tables, block.T):
            if top * (p - 1) >= 1 << 63:
                a %= p
                top = p - 1
            a *= T[t, e]
            top *= p - 1
        if top >= p:
            a %= p
        out[:, j : j + len(block)] = a
    return out


def _mass_evaluation_rows(L, points):
    """Evaluation of every basis monomial at every (simple) point over GF(p)
    as the kernel's float64 working matrix: points x monomials, in [0, p),
    column-major.  The orders {0} of `_hasse_rows_mod_p`, written in place."""
    order0 = [(0,) * L.ambient.total_vars()]
    X = [pt.coords for pt in points]
    return _hasse_rows_mod_p(L.monomials(), X, order0, L.ambient.field.p, np.float64)[0].T


def impose_points(L, points, multiplicities):
    """Subsystem of L vanishing to order m_i at each point p_i."""
    ambient = L.ambient
    field = ambient.field
    if len(points) != len(multiplicities):
        raise ValueError("one multiplicity per point required")
    pts = []
    for pt, m in zip(points, multiplicities):
        m = _multiplicity(m)
        if m == 0:
            continue
        pts.append((ambient.point(pt.coords if hasattr(pt, "coords") else pt), m))
    if not pts:
        return L
    if (
        L.is_complete
        and all(m == 1 for _, m in pts)
        and gf_numpy_path(field, len(pts), L.nsections())
    ):
        rows = _mass_evaluation_rows(L, [pt for pt, _ in pts])
    else:
        rows = [row for pt, m in pts for row in point_condition_rows(L, pt, m)]
    return _impose_rows(L, rows)


def _multiplicity(m):
    if (m := _integer(m, "multiplicities")) < 0:
        raise ValueError("multiplicities must be nonnegative")
    return m


def _impose_rows(L, rows):
    """Cut L down by condition rows given over its monomial support."""
    if len(rows) == 0:
        return L
    if not L.is_complete:
        # conditions act on sections: C_sections = C_monomials . M^T
        M = L.matrix()
        Mt = [list(col) for col in zip(*M)] if M else []
        rows = matmul(rows, Mt, L.ambient.field)
    return _kernel_subsystem(L, rows)


def _vanishing_combinations(L, forms):
    """Subsystem of L whose coefficient vectors combine the forms, one per
    section of L, to zero: one condition row per monomial of their support,
    one column per section.  L itself when every form is zero."""
    support = sorted({e for f in forms for e in f.terms}, key=grevlex_key, reverse=True)
    if not support:
        return L
    zero = L.ambient.field.zero
    return _kernel_subsystem(L, [[f.terms.get(e, zero) for f in forms] for e in support])


def _kernel_subsystem(L, rows):
    """Subsystem of L whose coefficient vectors in L's basis span the right
    nullspace of the condition rows (one column per section of L)."""
    count, basis = solve_nullspace(rows, L.ambient.field, L.nsections())
    if callable(basis):
        return LinearSys.from_nullspace(L, None, nsections=count, pending=basis)
    return LinearSys.from_nullspace(L, basis)


# ---------------------------------------------------------------------------
# containment and trace support


def impose_containment(L, scheme):
    """Subsystem of the sections that lie in the ideal of the scheme.

    Projective and product ambients intersect the system with the span of the
    degree-matched multiples of the generators, which is the honest answer
    exactly when the ideal is saturated: the annihilator of that span is the
    condition matrix.  Affine ambients reduce the sections to normal form
    against a Groebner basis and solve for the combinations reducing to zero.
    Either way the basis is the canonical nullspace basis of the conditions.
    """
    ambient = L.ambient
    field = ambient.field
    if not isinstance(scheme, SchemeSpec):
        scheme = SchemeSpec(scheme)
    if scheme.is_unit_ideal():
        return L
    if scheme.is_zero_ideal():
        return LinearSys.empty(L.ambient, L.degree)
    for g in scheme.generators:
        if g.ring != ambient.ring:
            raise ValueError("scheme generators live on a different ambient")

    if ambient.kind == "affine":
        G = groebner_basis(scheme.generators)
        return _vanishing_combinations(L, [normal_form(s, G) for s in L.sections()])

    if not scheme.saturated:
        raise ValueError(
            "projective containment needs a saturated ideal: saturate the "
            "generators and construct SchemeSpec(..., saturated=True)"
        )
    degree = L.degree
    candidates = []
    for g in scheme.generators:
        gdeg = ambient.block_degrees(next(iter(g.terms)))
        if not g.is_homogeneous() or any(
            ambient.block_degrees(e) != gdeg for e in g.terms
        ):
            raise ValueError("projective scheme generators must be homogeneous")
        rest = [d - gd for d, gd in zip(degree, gdeg)]
        if any(d < 0 for d in rest):
            continue
        for e in ambient.monomial_basis(rest):
            candidates.append(g * ambient.ring.monomial(e))
    if not candidates:
        return LinearSys.empty(ambient, degree)
    # candidate rows over every monomial of L's degree; the complete system's
    # coefficient map reads them off and rejects a candidate of another degree
    to_row = LinearSys.complete(ambient, degree).coefficient_map()
    B = [[c.raw for c in to_row(q)] for q in candidates]
    # span(B) is where its annihilator W vanishes, so W's columns at L's
    # monomials are condition rows cutting L down to L ∩ span(B)
    W = nullspace(B, field, len(to_row.monomials))
    cols = [to_row.mono_index[e] for e in L.monomials()]
    return _impose_rows(L, [[w[c] for c in cols] for w in W])


# ---------------------------------------------------------------------------
# images of schemes under polynomial maps


def image_system(components, target, degree, scheme=None):
    """Degree-d forms on the target ambient whose pullback along the map with
    the given coordinate components lies in the ideal of the source scheme.

    With a zero-ideal scheme this is the system of forms vanishing on the
    image of the whole source."""
    if not components:
        raise ValueError("a map needs at least one component")
    ring_src = components[0].ring
    for f in components:
        if f.ring != ring_src:
            raise ValueError("map components from different rings")
    if len(components) != target.total_vars():
        raise ValueError(
            f"map into {target.total_vars()} coordinates needs that many components"
        )
    field = target.field
    if ring_src.field != field:
        raise ValueError("source and target coefficient fields differ")
    if scheme is None:
        scheme = SchemeSpec([])
    G = groebner_basis(scheme.generators) if scheme.generators else []
    mons = target.monomial_basis(degree)
    forms = []
    for e in mons:
        pb = ring_src.one()
        for f, ei in zip(components, e):
            if ei:
                pb = pb * f**ei
        forms.append(normal_form(pb, G) if G else pb)
    return _vanishing_combinations(LinearSys.complete(target, degree), forms)


# ---------------------------------------------------------------------------
# points on schemes


class SamplePoints(list):
    """List of points found on a scheme; `complete` records whether the
    request was met: every point of the scheme in exhaustive mode, `count`
    distinct points in random mode."""

    def __init__(self, points, complete):
        super().__init__(points)
        self.complete = complete


def sample_points(ambient, generators, count=None, rng=None, limit=6_000_000):
    """Points of the vanishing locus of the generators.

    Exhaustive enumeration when `count` is None (finite fields, ambient point
    count below `limit`), with complete=True.  Otherwise random draws until
    `count` distinct points are found (complete=True) or the trial budget runs
    out (complete=False, with the points found so far)."""
    field = ambient.field
    if not field.is_finite:
        raise ValueError("sampling needs a finite coefficient field")
    gens = [g for g in generators if not g.is_zero()]
    for g in gens:
        if g.ring != ambient.ring:
            raise ValueError("generators live on a different ambient")

    def on_scheme(pt):
        vals = pt.coords
        return all(field.is_zero(g._eval_raw(vals)) for g in gens)

    if count is None:
        q = field.order
        total = 1
        for b in ambient.block_sizes():
            total *= q**b if ambient.kind == "affine" else (q**b - 1) // (q - 1)
        if total > limit:
            raise ValueError(
                f"{total} ambient points exceed the enumeration limit {limit}"
            )
        found = [pt for pt in ambient.enumerate_points() if on_scheme(pt)]
        return SamplePoints(found, True)
    if rng is None:
        raise ValueError("random sampling needs an rng")
    seen = set()
    found = []
    if count == 0:
        return SamplePoints(found, True)
    for _ in range(400 * count):
        pt = ambient.random_point(rng)
        if pt in seen:
            continue
        seen.add(pt)
        if on_scheme(pt):
            found.append(pt)
            if len(found) == count:
                return SamplePoints(found, True)
    return SamplePoints(found, False)


def random_points(ambient, n, rng, lo=None, hi=None):
    """n distinct random points (canonical representatives)."""
    out = []
    if n == 0:
        return out
    seen = set()
    for _ in range(400 * n):
        pt = ambient.random_point(rng, lo=lo, hi=hi)
        if pt in seen:
            continue
        seen.add(pt)
        out.append(pt)
        if len(out) == n:
            return out
    raise ValueError("could not draw enough distinct points")
