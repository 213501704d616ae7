"""Singular points of surfaces in P^3 over small finite fields.

Enumeration sweeps the projective space chart by chart; each point is visited
once through its canonical representative (last nonzero coordinate = 1).
Over a prime field the sweep is vectorized: F is evaluated on the whole
chart grid by contracting its coefficient tensor with a power table
x^e mod p, one matmul and one reduction mod p per variable.  For exponents
up to D the grid is float32 while (D+1)*(p-1)^2 < 2^22, which holds for
every degree up to 64 under the point limit (p <= 254), and float64 while
it is < 2^51 (enforced).  The partials are evaluated on the survivors
only, in int64 with one reduction each, exact while the unreduced sum of
the terms stays below 2^63 (enforced).

A surface with a diagonal cyclic symmetry (n, weights), x_i -> zeta^(w_i) x_i
for zeta a primitive n-th root of unity, is swept one point per orbit.  GF(q)
has the subgroup of order n' = gcd(n, q-1), and F must be semi-invariant
under it: every term has the same sum(w_i e_i) mod n' (enforced, else
ValueError), so the zeros of F and of its partials are unions of orbits.  In
the chart of x_c the group acts by x_i -> zeta^(u_i) x_i, u_i = w_i - w_c; the
free coordinate x_j whose u_j has the largest order d mod n' runs over 0 and
one representative of each coset of mu_d in GF(q)*, the others over all of
GF(q), and each survivor with x_j != 0 is expanded to its d images, a
bijection onto the chart's points with x_j != 0.  Sorted row-major, the
points are those of the full sweep in its order; the trivial group (d = 1)
is the full sweep.

Everything after the sweep reads Hasse derivatives D^t F(a), the
coefficients of the Taylor expansion of F at a: the rows of the two cores
of `conditions` over F's terms, dotted with F's coefficients.  Over GF(p)
`_hasse_values` takes every order |t| <= tmax at a whole batch of points
from `_hasse_rows_mod_p` (exact for p < 2^31, its one int64 bound,
enforced); other fields take them point by point from `_taylor_rows`.
Every survivor of the sweep is re-checked exactly from its orders <= 1
(F and its four partials), in one batch per surface.

Classification of a double point reads its quadratic part (the orders 2 in
the local variables of its chart) and its cubic part (the orders 3): rank 3
is a node (A1), rank 2 with the cubic part nonzero on the kernel line is a
cusp (A2), anything else is "other".  The kernel vector comes from the
adjugate of the 3x3 symmetric matrix, which for rank 2 is a nonzero multiple
of k k^T; over GF(p) a whole list of points is classified at once, with the
rank from the adjugate too.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import product as iproduct
from math import gcd

import numpy as np

from .ambient import AmbientPoint, projective_space
from .conditions import _hasse_rows_mod_p, _qq_scale, _taylor_rows, impose_points
from .fields import GF, _integer
from .linalg import _reduce_sym, rank
from .linsys import LinearSys
from .poly import monomials_of_degree

_POINT_LIMIT = 16_500_000  # ~ 254^3, the practical full-enumeration ceiling
_SWEEP_ROWS = 1024  # grid rows per block of the contraction


class SingularPointReport:
    """Classification record for one singular point."""

    __slots__ = ("point", "hessian_rank", "classification", "chart")

    def __init__(self, point, hessian_rank, classification, chart):
        self.point = point
        self.hessian_rank = hessian_rank
        self.classification = classification
        self.chart = chart

    def line(self):
        field = self.point.ambient.field
        coords = ":".join(field.to_str(v) for v in self.point.coords)
        return f"point [{coords}] rank={self.hessian_rank} class={self.classification}"

    def __repr__(self):
        return self.line()


# ---------------------------------------------------------------------------
# enumeration


def singular_points(F, ambient=None, symmetry=None):
    """All points of P^3(GF(q)) where F and its four partials vanish,
    in chart order (x4-chart first) and row-major within each chart.

    symmetry, if given, is (n, weights): the diagonal action
    x_i -> zeta^(w_i) x_i, zeta a primitive n-th root of unity, under which
    F is semi-invariant.  GF(q) has only the subgroup of order
    n' = gcd(n, q-1), with the weights taken mod n'; ValueError unless every
    term of F has the same weighted degree sum(w_i e_i) mod n'.  The sweep
    then visits one point per orbit and returns the same points in the same
    order as with symmetry=None (the trivial group)."""
    if F.is_zero():
        raise ValueError("the zero polynomial does not define a surface")
    ring = F.ring
    if ring.nvars != 4:
        raise ValueError("surface enumeration expects 4 homogeneous variables")
    if not F.is_homogeneous():
        raise ValueError("the surface polynomial must be homogeneous")
    field = ring.field
    if not field.is_finite:
        raise ValueError("point enumeration requires a finite field")
    q = field.order
    if q ** 3 + q ** 2 + q + 1 > _POINT_LIMIT:
        raise ValueError(f"GF({q}) is too large for a full enumeration")
    if ambient is None:
        ambient = projective_space(field, 3, names=ring.names)
    elif ambient.ring != ring:
        raise ValueError("ambient does not match the polynomial ring")
    n, weights = _subgroup(symmetry, q)
    if len({sum(w * e for w, e in zip(weights, exps)) % n for exps in F.terms}) > 1:
        raise ValueError(f"the surface polynomial is not semi-invariant under {symmetry}")
    elems, E, M = _unit_tables(field, n)

    polys = [F] + [F.partial(i) for i in range(4)]
    found = []
    for chart in (3, 2, 1, 0):
        # dehomogenized one at a time: each check stops at the first
        # polynomial that leaves no survivors
        local = (_dehomogenize(g, chart) for g in polys)
        if chart == 0:
            if all(not terms for terms in local):
                found.append((field.one, field.zero, field.zero, field.zero))
            continue
        # the action on the chart's free coordinates, renormalized to x_chart = 1:
        # x_i -> zeta^(u_i) x_i; x_j, of the largest order d, sweeps only {0}
        # and one representative of each coset of mu_d in GF(q)*
        u = np.array([(w - weights[chart]) % n for w in weights[:chart]])
        orders = [n // gcd(int(ui), n) for ui in u]
        d = max(orders)
        j = orders.index(d)
        values = [np.arange(q)] * chart
        values[j] = np.sort(np.concatenate(([0], E[: (q - 1) // d])))
        if field.kind == "prime":
            idx = _sweep_prime(local, field.p, values)
        else:
            idx = _sweep_generic(local, field, values)
        # survivors with x_j != 0 and their images under zeta^k, k = 1..d-1:
        # a bijection onto the chart's singular points with x_j != 0
        moving = idx[:, idx[j] != 0]
        idx = np.concatenate([idx] + [M[(k * u % n)[:, None], moving] for k in range(1, d)], axis=1)
        idx = idx[:, np.lexsort(idx[::-1])]
        pad = (field.one,) + (field.zero,) * (3 - chart)
        found.extend(tuple(elems[i] for i in head) + pad for head in idx.T.tolist())

    # the sweep yields raw values with the last nonzero coordinate 1
    points = [AmbientPoint.canonical(ambient, coords) for coords in found]
    if field.kind == "prime":
        low = _hasse_values(F, [pt.coords for pt in points], field.p, 1)
        bad = np.flatnonzero(low.any(axis=1)).tolist()
    else:
        bad = [k for k, pt in enumerate(points)
               if any(not field.is_zero(v) for v in _field_hasse_values(F, pt.coords, 1))]
    if bad:
        raise RuntimeError(f"sweep survivor fails exact re-check at {points[bad[0]]}")
    return points


def _subgroup(symmetry, q):
    """(n', weights mod n') for the subgroup of order n' = gcd(n, q-1) of the
    diagonal action symmetry = (n, weights) that GF(q) has; (1, zeros) for
    None."""
    if symmetry is None:
        return 1, (0,) * 4
    n, weights = symmetry
    if _integer(n, "symmetry orders") < 1 or len(weights) != 4:
        raise ValueError(f"a symmetry is (n >= 1, four weights), got {symmetry!r}")
    m = gcd(n, q - 1)
    return m, tuple(_integer(w, "symmetry weights") % m for w in weights)


@lru_cache(maxsize=None)
def _unit_tables(field, n):
    """Tables over GF(q) in element indices (positions in field.elements()),
    for n dividing q-1: the raw elements; E, with E[l] the index of g^l for
    the first generator g of GF(q)*; and M, with M[m, x] the index of
    zeta^m times element x, zeta = g^((q-1)/n) a primitive n-th root of
    unity."""
    elems = list(field.elements())
    q = len(elems)
    index = {a: i for i, a in enumerate(elems)}
    for g in elems[1:]:
        powers = [field.one]
        while (a := field.mul(powers[-1], g)) != field.one:
            powers.append(a)
        if len(powers) == q - 1:
            break
    E = np.array([index[a] for a in powers], dtype=np.intp)
    M = np.zeros((n, q), dtype=np.intp)
    for m in range(n):
        M[m, E] = np.roll(E, -m * (q - 1) // n)
    return elems, E, M


def _dehomogenize(g, chart):
    """Terms of g with the chart variable set to 1 and later variables to 0,
    as a {head-exponent: raw coeff} dict over the first `chart` variables."""
    out = {}
    for e, c in g.terms.items():
        if any(e[j] for j in range(chart + 1, 4)):
            continue
        out[e[:chart]] = c
    return out


def _sweep_prime(local, p, values):
    """Common zeros of the dehomogenized polynomials that `local` yields on
    the product grid values[0] x .. x values[-1] of GF(p) residues, as an
    array of their coordinates [variable, point] in the grid's row-major
    order: the first polynomial on the whole grid by `_contract`, the others
    on its survivors by `_evaluate`, each drawn from `local` only while
    survivors remain."""
    local = iter(local)
    vals = np.arange(p, dtype=np.int64)
    pw = [np.ones(p, dtype=np.int64)]

    def powers(terms):
        # the table pw[e] = x^e mod p, up to the largest exponent of terms
        for _ in range(len(pw), max((max(e) for e in terms), default=0) + 1):
            pw.append(pw[-1] * vals % p)
        return pw

    first = next(local)
    # flat indices: np.nonzero on the n-d mask is several times slower
    grid = _contract(first, powers(first), p, values)
    pos = np.unravel_index(np.flatnonzero(grid == 0), grid.shape)
    idx = np.array([v[k] for v, k in zip(values, pos)]).reshape(len(values), -1)
    for terms in local:
        if not idx.shape[1]:
            break
        idx = idx[:, _evaluate(terms, powers(terms), p, idx) == 0]
    return idx


def _contract(terms, pw, p, values):
    """Values mod p of the polynomial with the given terms on the product
    grid values[0] x .. x values[-1] of residues, as an array indexed by the
    positions in those lists, of residues in the symmetric range.  The
    coefficient tensor C[e1, .., e_nfree] is contracted with the power table
    P[e, x] = x^e mod p, restricted to each variable's values, one variable
    at a time: one matmul and one reduction mod p per variable.  Each product
    entry is a sum of D+1 products of residues below p, D the largest
    exponent, so every partial sum is an integer of magnitude below
    (D+1)*(p-1)^2.  The grid is float32 while that bound is below 2^22 and
    float64 while it is below 2^51: with an s-bit significand, 2^(s-2),
    where the sums are exact and so is `_reduce_sym`.  Beyond that,
    ValueError."""
    D = len(pw) - 1
    bound = (D + 1) * (p - 1) ** 2
    dtype = next((t for t in (np.float32, np.float64) if bound < 2 ** (np.finfo(t).nmant - 1)), None)
    if dtype is None:
        raise ValueError(f"GF({p}) with exponents up to {D} is beyond the float64 contraction")
    C = np.zeros((D + 1,) * len(values), dtype=dtype)
    for e, c in terms.items():
        C[e] = c
    P = np.array(pw, dtype=dtype)
    invp = dtype(1.0 / p)
    for v in values:
        # contract the leading exponent axis; its point axis goes last.  Row
        # blocks keep the reduction's temporaries small.
        A = C.reshape(D + 1, -1).T
        Pv = P[:, v]
        out = np.empty((A.shape[0], len(v)), dtype=dtype)
        for b in range(0, A.shape[0], _SWEEP_ROWS):
            _reduce_sym(np.matmul(A[b : b + _SWEEP_ROWS], Pv, out=out[b : b + _SWEEP_ROWS]), p, invp)
        C = out.reshape(C.shape[1:] + (len(v),))
    return C


def _evaluate(terms, pw, p, idx):
    """Values mod p, in [0, p), of the polynomial with the given terms at the
    points whose coordinates are idx, one index array per variable: the
    survivors of an earlier filter, or open-mesh ranges (np.ix_) for a whole
    grid.  Each term is its coefficient times one power value per variable,
    all below p, and the terms are summed unreduced in int64, with one
    reduction at the end: exact while len(terms) * (p-1)^(nfree+1) < 2^63,
    nfree = len(idx) (enforced, else ValueError)."""
    if len(terms) * (p - 1) ** (len(idx) + 1) >= 1 << 63:
        raise ValueError(f"GF({p}) with {len(terms)} terms in {len(idx)} variables is beyond the int64 evaluation")
    acc = np.zeros(np.broadcast_shapes(*(ix.shape for ix in idx)), dtype=np.int64)
    for e, c in terms.items():
        block = np.int64(c)
        for ix, ei in zip(idx, e):
            block = block * pw[ei][ix]
        acc += block
    acc %= p
    return acc


def _sweep_generic(local, field, values):
    """`_sweep_prime` in field arithmetic, for any finite field: values are
    element indices (positions in field.elements()), and so are the
    returned coordinates."""
    elems = list(field.elements())

    def vanishes(terms, head):
        acc = field.zero
        for e, c in terms.items():
            for i, ei in zip(head, e):
                if ei:
                    c = field.mul(c, field.pow(elems[i], ei))
            acc = field.add(acc, c)
        return field.is_zero(acc)

    heads = iproduct(*(v.tolist() for v in values))
    for terms in local:
        heads = [head for head in heads if vanishes(terms, head)]
        if not heads:
            break
    return np.array(heads, dtype=np.intp).reshape(-1, len(values)).T


# ---------------------------------------------------------------------------
# Hasse derivatives


@lru_cache(maxsize=None)
def _orders(tmax):
    """The orders t in N^4 with |t| <= tmax, by degree: F first, then the
    four first partials, then the orders 2, ..."""
    return tuple(t for d in range(tmax + 1) for t in monomials_of_degree(4, d))


def _hasse_values(F, X, p, tmax):
    """Hasse derivatives D^t F(a) mod p for every order t in `_orders(tmax)`
    at every row a of X (points of GF(p)^4), as an int64 array [point, order]:
    the rows of `_hasse_rows_mod_p` over F's terms, each reduced times its
    coefficient (below p^2 < 2^62), summed over the terms and reduced."""
    H = _hasse_rows_mod_p(list(F.terms), X, _orders(tmax), p)
    H *= np.array(list(F.terms.values()), dtype=np.int64)[:, None]
    H %= p
    return H.sum(axis=1).T % p


def _field_hasse_values(F, a, tmax):
    """D^t F(a) for every order t in `_orders(tmax)` in field arithmetic, as
    the rows of `_taylor_rows` over F's terms dotted with F's coefficients
    (over QQ divided by `_qq_scale`): the values `_hasse_values` gives over
    GF(p), for any field."""
    field = F.ring.field
    columns = [[e[i] for e in F.terms] for i in range(4)]
    orders = _orders(tmax)
    out = []
    for row, t in zip(_taylor_rows(field, a, columns, orders), orders):
        acc = reduce(field.add, map(field.mul, row, F.terms.values()), field.zero)
        out.append(acc / _qq_scale(a, columns, t) if field.kind == "rational" else acc)
    return out


# ---------------------------------------------------------------------------
# classification

_LOCAL_CUBICS = monomials_of_degree(3, 3)
_CLASSES = ("other", "A2", "A1")


def _chart_columns(chart):
    """Columns of `_orders(3)` that hold the quadratic part (3x3, the local
    variables in order) and the cubic part (in `_LOCAL_CUBICS` order) of the
    local equation in the chart: the orders that are 0 at the chart variable."""
    index = {t: k for k, t in enumerate(_orders(3))}

    def col(s):
        return index[s[:chart] + (0,) + s[chart:]]

    hess = [[col(tuple((k == i) + (k == j) for k in range(3))) for j in range(3)] for i in range(3)]
    return hess, [col(s) for s in _LOCAL_CUBICS]


# indexed [chart, i, j] and [chart, cubic monomial]
_HESS_COLS, _CUBIC_COLS = (np.array(c) for c in zip(*(_chart_columns(c) for c in range(4))))


def classify(F, point, chart=None):
    """A1/A2/other classification of singular points of V(F) in P^3.

    point is one point (an AmbientPoint or a coordinate sequence), for which
    one SingularPointReport is returned, or a list of AmbientPoints, for
    which the reports are returned in order; classifying a surface's points
    in one call is what makes the GF(p) path batched.  Each point is read in
    its chart: the given one, or by default the last nonzero coordinate.
    Raises ValueError if a point is not singular on V(F)."""
    ring = F.ring
    field = ring.field
    if field.kind != "rational" and field.p < 5:
        raise ValueError("classification needs characteristic 0 or >= 5")
    single = not (isinstance(point, list) and all(isinstance(q, AmbientPoint) for q in point))
    if not single:
        points = point
    elif isinstance(point, AmbientPoint):
        points = [point]
    else:
        points = [projective_space(field, 3, names=ring.names).point(point)]
    charts, scaled = [], []
    for pt in points:
        coords = pt.coords
        c = max(i for i in range(4) if not field.is_zero(coords[i])) if chart is None else chart
        if field.is_zero(coords[c]):
            raise ValueError("the point does not lie in the requested chart")
        inv = field.inv(coords[c])
        charts.append(c)
        scaled.append([field.mul(v, inv) for v in coords])
    if field.kind == "prime":
        found = _classify_prime(F, scaled, charts, field.p)
    else:
        found = [_classify_generic(F, a, c) for a, c in zip(scaled, charts)]
    reports = [SingularPointReport(pt, r, cls, c) for pt, (r, cls), c in zip(points, found, charts)]
    return reports[0] if single else reports


def _classify_prime(F, X, charts, p):
    """(rank, class) of each point of X (rows scaled to their charts) over
    GF(p), from one `_hasse_values` call.  For the symmetric 3x3 matrix M of
    the quadratic part, det M != 0 is rank 3; otherwise adj M = lambda k k^T
    with k spanning the kernel when the rank is 2 (its nonzero diagonal
    entries pick a nonzero column, which is a kernel vector), and adj M = 0
    when the rank is at most 1."""
    H = _hasse_values(F, X, p, 3)
    if H[:, :5].any():
        raise ValueError("the point is not a singular point of the surface")
    charts = np.array(charts, dtype=np.intp)
    rows = np.arange(len(H))
    M = H[rows[:, None, None], _HESS_COLS[charts]]
    diag = [0, 1, 2]
    M[:, diag, diag] = 2 * M[:, diag, diag] % p
    # cofactors C[i][j] = M[i+1][j+1] M[i+2][j+2] - M[i+1][j+2] M[i+2][j+1]
    # (indices mod 3); M is symmetric, so C is the adjugate
    n1, n2 = [1, 2, 0], [2, 0, 1]
    A1, A2 = M[:, n1][:, :, n1], M[:, n2][:, :, n2]
    B1, B2 = M[:, n1][:, :, n2], M[:, n2][:, :, n1]
    C = (A1 * A2 % p - B1 * B2 % p) % p
    det = (M[:, 0] * C[:, 0] % p).sum(axis=1) % p
    adj_diag = C[:, diag, diag] != 0
    r = np.where(det != 0, 3, np.where(adj_diag.any(axis=1), 2, np.where(M.any(axis=(1, 2)), 1, 0)))
    # the cubic part on the kernel line, for every point (used at rank 2)
    K = C[rows, adj_diag.argmax(axis=1)]
    kp = np.ones(K.shape + (4,), dtype=np.int64)
    for d in range(1, 4):
        kp[..., d] = kp[..., d - 1] * K % p
    cubic = H[rows[:, None], _CUBIC_COLS[charts]]
    for i in range(3):
        cubic = cubic * kp[:, i][:, [s[i] for s in _LOCAL_CUBICS]] % p
    cusp = (r == 2) & (cubic.sum(axis=1) % p != 0)
    # codes into _CLASSES, so every report shares the three str constants
    code = np.where(r == 3, 2, cusp.astype(np.intp))
    return [(rk, _CLASSES[c]) for rk, c in zip(r.tolist(), code.tolist())]


def _classify_generic(F, a, chart):
    """(rank, class) of the point a, scaled to its chart, in field
    arithmetic: the same values as `_classify_prime`, with the rank from the
    generic elimination and the kernel vector from the same adjugate."""
    field = F.ring.field
    H = _field_hasse_values(F, a, 3)
    if any(not field.is_zero(v) for v in H[:5]):
        raise ValueError("the point is not a singular point of the surface")
    M = [[H[k] for k in row] for row in _HESS_COLS[chart]]
    for i in range(3):
        M[i][i] = field.add(M[i][i], M[i][i])
    r = rank(M, field)
    if r == 3:
        return r, "A1"
    if r != 2:
        return r, "other"
    # the cofactors, indices mod 3, are the adjugate lambda k k^T
    C = [[field.sub(field.mul(M[(i + 1) % 3][(j + 1) % 3], M[(i + 2) % 3][(j + 2) % 3]),
                    field.mul(M[(i + 1) % 3][(j + 2) % 3], M[(i + 2) % 3][(j + 1) % 3]))
          for j in range(3)] for i in range(3)]
    k = next(row for i, row in enumerate(C) if not field.is_zero(row[i]))
    cubic = field.zero
    for s, col in zip(_LOCAL_CUBICS, _CUBIC_COLS[chart]):
        v = H[col]
        for ki, si in zip(k, s):
            v = field.mul(v, field.pow(ki, si))
        cubic = field.add(cubic, v)
    return r, ("A2" if not field.is_zero(cubic) else "other")


# ---------------------------------------------------------------------------
# random search inside the invariant quintic families


class ScanMatch:
    __slots__ = ("trial", "parameters", "polynomial", "points", "histogram")

    def __init__(self, trial, parameters, polynomial, points, histogram):
        self.trial = trial
        self.parameters = parameters
        self.polynomial = polynomial
        self.points = points
        self.histogram = histogram

    def __repr__(self):
        hist = ", ".join(f"{k}:{v}" for k, v in sorted(self.histogram.items()))
        return f"trial {self.trial}: {len(self.points)} points ({hist})"


class ScanResult:
    __slots__ = ("family", "q", "trials", "skipped", "matches")

    def __init__(self, family, q, trials, skipped, matches):
        self.family = family
        self.q = q
        self.trials = trials
        self.skipped = skipped
        self.matches = matches

    def __repr__(self):
        return (
            f"ScanResult({self.family} over GF({self.q}): {len(self.matches)} "
            f"match(es) in {self.trials} trial(s), {self.skipped} skipped)"
        )


def _family_z5(ambient):
    """Quintic monomials fixed by (x1, x2, x3, x4) -> (x1, r^2 x2, r x3, r x4),
    r^5 = 1, with the two base double points of the 20-nodal family."""
    x1, x2, x3, x4 = ambient.ring.gens()
    mons = [
        x1 ** 5, x2 ** 5, x1 ** 2 * x2 ** 2 * x3, x1 * x2 * x3 ** 3, x3 ** 5,
        x1 ** 2 * x2 ** 2 * x4, x1 * x2 * x3 ** 2 * x4, x3 ** 4 * x4,
        x1 * x2 * x3 * x4 ** 2, x3 ** 3 * x4 ** 2, x1 * x2 * x4 ** 3,
        x3 ** 2 * x4 ** 3, x3 * x4 ** 4, x4 ** 5,
    ]
    fixed = [(1, 1, 1, 1), (3, 3, 2, 1)]

    def draw(rng, field):
        a, b, c, d = [field.random(rng) for _ in range(4)]
        return (a, b, c, d), [(a, a, b, field.one), (c, c, d, field.one)]

    return mons, fixed, draw


def _family_z6(ambient):
    """Quintic monomials fixed by x3 -> -x3 and (x1, x2) -> (r^2 x1, r x2),
    r^3 = 1, with the half-fixed double point of the 15-nodal family."""
    x1, x2, x3, x4 = ambient.ring.gens()
    mons = [
        x4 ** 5, x3 ** 2 * x4 ** 3, x1 * x2 * x4 ** 3, x2 ** 3 * x4 ** 2,
        x1 ** 3 * x4 ** 2, x3 ** 4 * x4, x1 * x2 * x3 ** 2 * x4,
        x1 ** 2 * x2 ** 2 * x4, x2 ** 3 * x3 ** 2, x1 ** 3 * x3 ** 2,
        x1 * x2 ** 4, x1 ** 4 * x2,
    ]
    fixed = [(1, 1, 0, 1)]

    def draw(rng, field):
        vals = [field.random(rng) for _ in range(6)]
        return tuple(vals), [
            (vals[0], vals[1], vals[2], field.one),
            (vals[3], vals[4], vals[5], field.one),
        ]

    return mons, fixed, draw


# each family with its diagonal cyclic symmetry (n, weights),
# x_i -> zeta^(w_i) x_i for zeta a primitive n-th root of unity: z5's
# r = zeta, and z6's x3 -> -x3 = zeta^3 x3 with r = zeta^2
_FAMILIES = {"z5": (_family_z5, (5, (0, 2, 1, 1))), "z6": (_family_z6, (6, (4, 2, 3, 0)))}

# named targets: the singular point count they need, all of one class;
# classification runs only on trials with that count
_TARGETS = {"nodes30": (30, "A1"), "nodes31": (31, "A1"), "cusps15": (15, "A2")}


def invariant_family_scan(family, q, trials, target, rng=None, stop_after=None):
    """Random search for specializations of an invariant quintic family whose
    singular locus matches the target predicate.

    family is "z5" or "z6"; target is a named target (nodes30, nodes31,
    cusps15: that many singular points, all nodes resp. cusps) or a callable
    (count, histogram) -> bool.  trials is an integer >= 0.  Each trial
    draws the family's free double points over GF(q); draws whose imposed
    system is not a single section are skipped and counted.  Every surface
    is swept by `singular_points` with the family's symmetry, so one point
    per orbit is evaluated.  A named target classifies the singular points
    only when their count matches; a callable sees every trial.  stop_after,
    an integer >= 1, ends the scan at that many matches (None runs every
    trial)."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    if _integer(trials, "trial counts") < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if stop_after is not None and _integer(stop_after, "stop_after values") < 1:
        raise ValueError(f"stop_after must be at least 1, got {stop_after}")
    if callable(target):
        count, predicate = None, target
    elif target in _TARGETS:
        count, cls = _TARGETS[target]
        predicate = lambda n, hist: hist.get(cls, 0) == n
    else:
        raise ValueError(f"unknown target {target!r}; choose from {sorted(_TARGETS)}")
    if rng is None:
        import random

        rng = random.Random(0)
    field = GF(q)
    ambient = projective_space(field, 3)
    build, symmetry = _FAMILIES[family]
    mons, fixed, draw = build(ambient)
    base = LinearSys.from_sections(ambient, mons, degree=5)
    prefix = impose_points(base, fixed, [2] * len(fixed))

    skipped = 0
    matches = []
    ran = 0
    for trial in range(trials):
        ran = trial + 1
        params, pts = draw(rng, field)
        L = impose_points(prefix, pts, [2] * len(pts))
        if L.nsections() != 1:
            skipped += 1
            continue
        F = L.sections()[0]
        sing = singular_points(F, ambient, symmetry=symmetry)
        if count is not None and len(sing) != count:
            continue
        hist = Counter(r.classification for r in classify(F, sing))
        if predicate(len(sing), dict(hist)):
            matches.append(ScanMatch(trial, params, F, sing, dict(hist)))
            if stop_after is not None and len(matches) >= stop_after:
                break
    return ScanResult(family, q, ran, skipped, matches)
