"""Singular points of surfaces in P^3 over small finite fields.

Enumeration sweeps the projective space chart by chart; each point is visited
once through its canonical representative (last nonzero coordinate = 1).
Over a prime field the sweep is vectorized: F is evaluated on the whole
chart grid by contracting its coefficient tensor with a power table
x^e mod p, one float64 matmul and one reduction mod p per variable, which
is exact while (D+1)*(p-1)^2 < 2^51 for exponents up to D (enforced; the
point limit keeps p <= 254).  The partials are evaluated term by term on
the survivors only.  Every survivor is re-verified exactly, together with
the Euler relation deg(F) * F = sum x_i dF/dx_i.  Classification of a
double point reads the rank of the quadratic part of the local equation:
rank 3 is a node (A1), rank 2 with the cubic part nonzero on the kernel
line is a cusp (A2).
"""

from __future__ import annotations

from collections import Counter
from itertools import product as iproduct

import numpy as np

from .ambient import AmbientPoint, affine_space, projective_space
from .conditions import impose_points
from .linalg import _F51, _reduce_sym, nullspace, rank
from .linsys import LinearSys
from .poly import MultiPoly

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


def singular_points(F, ambient=None):
    """All points of P^3(GF(q)) where F and its four partials vanish,
    in chart order (x4-chart first) and row-major within each chart."""
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

    polys = [F] + [F.partial(i) for i in range(4)]
    degree = F.total_degree()
    found = []
    for chart in (3, 2, 1, 0):
        local = [_dehomogenize(g, chart) for g in polys]
        if chart == 0:
            if all(not terms for terms in local):
                found.append((field.one, field.zero, field.zero, field.zero))
            continue
        if field.kind == "prime":
            heads = _sweep_prime(local, field.p, chart)
        else:
            heads = _sweep_generic(local, field, chart)
        pad = (field.one,) + (field.zero,) * (3 - chart)
        found.extend(tuple(field.coerce(v) for v in head) + pad for head in heads)

    points = []
    for coords in found:
        pt = AmbientPoint(ambient, coords)
        vals = [g.evaluate(pt.coords).raw for g in polys]
        if any(not field.is_zero(v) for v in vals):
            raise RuntimeError(f"sweep survivor fails exact re-check at {pt}")
        euler = field.zero
        for i in range(4):
            euler = field.add(euler, field.mul(pt.coords[i], vals[1 + i]))
        if euler != field.mul(field.from_int(degree), vals[0]):
            raise RuntimeError(f"Euler relation violated at {pt}")
        points.append(pt)
    return points


def _dehomogenize(g, chart):
    """Terms of g with the chart variable set to 1 and later variables to 0,
    as a {head-exponent: raw coeff} dict over the first `chart` variables."""
    out = {}
    for e, c in g.terms.items():
        if any(e[j] for j in range(chart + 1, 4)):
            continue
        out[e[:chart]] = c
    return out


def _sweep_prime(local, p, nfree):
    """Common zeros over GF(p)^nfree of the dehomogenized polynomials,
    as exponent-index tuples in row-major order: the first polynomial on the
    whole grid by `_contract`, the others on its survivors by `_evaluate`."""
    maxexp = max((max(e) for terms in local for e in terms), default=0)
    vals = np.arange(p, dtype=np.int64)
    pw = [np.ones(p, dtype=np.int64)]
    for _ in range(maxexp):
        pw.append(pw[-1] * vals % p)
    idx = np.nonzero(_contract(local[0], pw, p, nfree) == 0)
    for terms in local[1:]:
        if not len(idx[0]):
            break
        keep = _evaluate(terms, pw, p, idx) == 0
        idx = tuple(ix[keep] for ix in idx)
    return list(zip(*(ix.tolist() for ix in idx)))


def _contract(terms, pw, p, nfree):
    """Values mod p of the polynomial with the given terms on the whole grid
    GF(p)^nfree, as a float64 array indexed [x1, .., x_nfree] of residues
    in the symmetric range.  The coefficient tensor C[e1, .., e_nfree] is
    contracted with the power table P[e, x] = x^e mod p one variable at a
    time: one matmul and one reduction mod p per variable.  Each product
    entry is a sum of D+1 products of residues below p, D the largest
    exponent, so it and its reduction are exact while (D+1)*(p-1)^2 < 2^51,
    the range of `_reduce_sym`."""
    D = len(pw) - 1
    if (D + 1) * (p - 1) ** 2 >= _F51:
        raise ValueError(f"GF({p}) with exponents up to {D} is beyond the float64 contraction")
    C = np.zeros((D + 1,) * nfree)
    for e, c in terms.items():
        C[e] = c
    P = np.array(pw, dtype=np.float64)
    invp = 1.0 / p
    for _ in range(nfree):
        # contract the leading exponent axis; its point axis goes last.  Row
        # blocks keep the reduction's temporaries small.
        A = C.reshape(D + 1, -1).T
        out = np.empty((A.shape[0], p))
        for b in range(0, A.shape[0], _SWEEP_ROWS):
            _reduce_sym(np.matmul(A[b : b + _SWEEP_ROWS], P, out=out[b : b + _SWEEP_ROWS]), p, invp)
        C = out.reshape(C.shape[1:] + (p,))
    return C


def _evaluate(terms, pw, p, idx):
    """Values mod p of the polynomial with the given terms at the points whose
    coordinates are idx, one index array per variable: the survivors of an
    earlier filter, or open-mesh ranges (np.ix_) for a whole grid."""
    acc = np.zeros(np.broadcast_shapes(*(ix.shape for ix in idx)), dtype=np.int64)
    for e, c in terms.items():
        # coefficient times <= 3 power values, plus acc, stays below 2^63
        block = np.int64(c)
        for ix, ei in zip(idx, e):
            block = block * pw[ei][ix]
        acc += block
        acc %= p
    return acc


def _sweep_generic(local, field, nfree):
    elems = list(field.elements())
    out = []
    for head in iproduct(range(len(elems)), repeat=nfree):
        point = [elems[i] for i in head]
        ok = True
        for terms in local:
            acc = field.zero
            for e, c in terms.items():
                v = c
                for i, ei in enumerate(e):
                    if ei:
                        v = field.mul(v, field.pow(point[i], ei))
                acc = field.add(acc, v)
            if not field.is_zero(acc):
                ok = False
                break
        if ok:
            out.append(tuple(point))
    return out


# ---------------------------------------------------------------------------
# classification


def classify(F, point, chart=None):
    """A1/A2/other classification of a singular point of V(F) in P^3."""
    ring = F.ring
    field = ring.field
    if field.kind != "rational" and field.p < 5:
        raise ValueError("classification needs characteristic 0 or >= 5")
    if not isinstance(point, AmbientPoint):
        ambient = projective_space(field, 3, names=ring.names)
        point = ambient.point(point)
    coords = point.coords
    if chart is None:
        chart = max(i for i in range(4) if not field.is_zero(coords[i]))
    elif field.is_zero(coords[chart]):
        raise ValueError("the point does not lie in the requested chart")
    inv = field.inv(coords[chart])
    scaled = [field.mul(v, inv) for v in coords]

    localvars = [i for i in range(4) if i != chart]
    A3 = affine_space(field, 3, names=[ring.names[i] for i in localvars])
    lring = A3.ring
    terms = {}
    for e, c in F.terms.items():
        le = tuple(e[i] for i in localvars)
        if le in terms:
            terms[le] = field.add(terms[le], c)
        else:
            terms[le] = c
    g = MultiPoly(lring, {e: c for e, c in terms.items() if not field.is_zero(c)})
    g = g.translate(tuple(scaled[i] for i in localvars))

    low = {e: c for e, c in g.terms.items() if sum(e) < 2}
    if low:
        raise ValueError("the point is not a singular point of the surface")

    def quad(i, j):
        if i == j:
            e = tuple(2 if k == i else 0 for k in range(3))
            c = g.terms.get(e, field.zero)
            return field.add(c, c)
        e = tuple(1 if k in (i, j) else 0 for k in range(3))
        return g.terms.get(e, field.zero)

    M = [[quad(i, j) for j in range(3)] for i in range(3)]
    r = rank(M, field)
    if r == 3:
        cls = "A1"
    elif r == 2:
        k = nullspace(M, field)[0]
        cubic = field.zero
        for e, c in g.terms.items():
            if sum(e) != 3:
                continue
            v = c
            for i, ei in enumerate(e):
                if ei:
                    v = field.mul(v, field.pow(k[i], ei))
            cubic = field.add(cubic, v)
        cls = "A2" if not field.is_zero(cubic) else "other"
    else:
        cls = "other"
    return SingularPointReport(point, r, cls, chart)


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


_FAMILIES = {"z5": _family_z5, "z6": _family_z6}

# named targets: the singular point count they need, all of one class;
# classification runs only on trials with that count
_TARGETS = {"nodes30": (30, "A1"), "nodes31": (31, "A1"), "cusps15": (15, "A2")}


def invariant_family_scan(family, q, trials, target, rng=None, stop_after=None):
    """Random search for specializations of an invariant quintic family whose
    singular locus matches the target predicate.

    family is "z5" or "z6"; target is a named target (nodes30, nodes31,
    cusps15: that many singular points, all nodes resp. cusps) or a callable
    (count, histogram) -> bool.  Each trial draws the family's free double
    points over GF(q); draws whose imposed system is not a single section are
    skipped and counted.  A named target classifies the singular points only
    when their count matches; a callable sees every trial.  stop_after bounds
    the number of matches collected (None runs every trial)."""
    from .fields import GF

    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
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
    mons, fixed, draw = _FAMILIES[family](ambient)
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
        sing = singular_points(F, ambient)
        if count is not None and len(sing) != count:
            continue
        hist = Counter(classify(F, p).classification for p in sing)
        if predicate(len(sing), dict(hist)):
            matches.append(ScanMatch(trial, params, F, sing, dict(hist)))
            if stop_after is not None and len(matches) >= stop_after:
                break
    return ScanResult(family, q, ran, skipped, matches)
