"""Infinitely near base points: chains of blowups on the affine plane.

A chain assigns multiplicities along a sequence of points, each after the
first lying on the exceptional line of the previous blowup and selected by a
tangent direction.  Coordinates are chosen per step so that the exceptional
line is always {y = 0}: for a direction [c : 1] the blowup substitutes
x -> x*y and recenters x at c; for [1 : 0] it substitutes y -> x*y and swaps
the variables afterwards.

A chain with multiplicities m_0..m_k is imposed as ordinary condition rows:
C times the Taylor rows of its base point (`point_condition_rows`), where C
is read off the images of the local monomials x^t, |t| < m_0 + ... + m_k,
pushed through the blowups.  Before the blowup after point i - 1 the terms
of degree below m_{i-1} are dropped (that point's rows zero them, and the
division is then exact); after it, the terms of degree m_i + ... + m_k and
up, which land at y-degree m_{i+1} + ... + m_k or more and reach no later
condition.  All chains of one call go into one `solve_nullspace`.

The sextic pencil scan looks for the last tangent direction [1 : a] of a
chain of nine double points that leaves a pencil.  It does not try every a
in GF(p^2): the first eight points are imposed as rows over GF(p), the
conditions of the last point on what is left form a matrix of polynomials
over GF(p) in c = 1/a, read off the monomials' images at the eighth point,
and the a sought are read off the roots in GF(p^2) of the gcd of its
minors, found by a distinct-degree split and equal-degree factoring over
GF(p).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

from .fields import (
    GF,
    _upoly_add,
    _upoly_gcd,
    _upoly_mul,
    _upoly_roots_p2,
    _upoly_scale,
    _upoly_trim,
    lift_rationals,
    primes_from,
)
from .conditions import _impose_rows, _multiplicity, point_condition_rows
from .linalg import clear_denominators, matmul, nullspace
from .linsys import LinearSys
from .poly import MultiPoly, monomials_below_degree


class TangentDirection:
    """Direction [a : b] on the exceptional line, normalized to [1 : 0] or
    [c : 1]."""

    __slots__ = ("field", "infinite", "c")

    def __init__(self, field, pair):
        a, b = pair
        a = field.coerce(a)
        b = field.coerce(b)
        if field.is_zero(a) and field.is_zero(b):
            raise ValueError("tangent direction cannot be [0 : 0]")
        if field.is_zero(b):
            self.infinite = True
            self.c = field.zero
        else:
            self.infinite = False
            self.c = field.mul(a, field.inv(b))
        self.field = field

    def pair(self):
        if self.infinite:
            return (self.field.one, self.field.zero)
        return (self.c, self.field.one)

    def __repr__(self):
        if self.infinite:
            return "[1 : 0]"
        return f"[{self.field.to_str(self.c)} : 1]"


class BlowupChainSpec:
    """Point, multiplicities along the chain, and the tangent directions
    walking down it (one fewer than the multiplicities)."""

    __slots__ = ("point", "mults", "tangents")

    def __init__(self, point, mults, tangents=()):
        self.point = tuple(point)
        self.mults = [_multiplicity(m) for m in mults]
        if not self.mults:
            raise ValueError("a chain needs at least one multiplicity")
        self.tangents = list(tangents)
        if len(self.tangents) != len(self.mults) - 1:
            raise ValueError(
                f"{len(self.mults)} multiplicities need "
                f"{len(self.mults) - 1} tangent direction(s)"
            )

    def to_json(self):
        return {
            "point": [_coord_json(v) for v in self.point],
            "mults": list(self.mults),
            "tangents": [
                [_coord_json(a) for a in (t.pair() if isinstance(t, TangentDirection) else t)]
                for t in self.tangents
            ],
        }

    @staticmethod
    def from_json(data, field):
        point = [_coord_parse(v, field) for v in data["point"]]
        tangents = [
            [_coord_parse(a, field) for a in t] for t in data.get("tangents", [])
        ]
        return BlowupChainSpec(point, data["mults"], tangents)


def _coord_json(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    if isinstance(v, int):
        return v
    return str(v)


def _coord_parse(v, field):
    # coerce, not from_int: a JSON true or 2.5 is refused, as in impose-points
    return field.parse(v) if isinstance(v, str) else field.coerce(v)


# ---------------------------------------------------------------------------
# the blowup substitution


def _blow_transform(f, tangent, divide_power):
    """Strict-transform step: substitute the chart of the tangent direction,
    divide the exceptional factor exactly, and recenter the named point at
    the origin (exceptional line = {y = 0} afterwards)."""
    field = f.ring.field
    m = divide_power
    terms = {}
    for (a, b), cval in f.terms.items():
        # y -> x*y and swap (x, y) -> (y, x) for [1 : 0], x -> x*y otherwise
        e = (b, a + b - m) if tangent.infinite else (a, a + b - m)
        if e[1] < 0:
            raise ValueError("section is not divisible by the exceptional factor")
        terms[e] = cval
    g = MultiPoly(f.ring, terms)
    if tangent.infinite or field.is_zero(tangent.c):
        return g
    return g.translate((tangent.c, field.zero))


def multiplicity_sequence(f, point, tangents):
    """Multiplicities of the strict transforms of f along the chain of
    infinitely near points selected by the tangent directions."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no multiplicity sequence")
    ring = f.ring
    if ring.nvars != 2:
        raise ValueError("blowup chains live on the affine plane")
    field = ring.field
    g = f.translate(tuple(field.coerce(v) for v in point))
    seq = [g.multiplicity_at_origin()]
    for t in tangents:
        if not isinstance(t, TangentDirection):
            t = TangentDirection(field, t)
        g = _blow_transform(g, t, seq[-1])
        seq.append(g.multiplicity_at_origin())
    return seq


# ---------------------------------------------------------------------------
# imposing chains on linear systems


def _chain_images(ring, mults, tangents, top):
    """The chain's conditions on a local polynomial sum f_t x^t, |t| < top:
    returns (C, images), C one row of coefficients of the f_t per condition,
    images[t] the image of x^t at the point after the last tangent, up to
    the degree that the multiplicities after it can see."""
    field = ring.field

    def part(h, lo, hi):
        return MultiPoly(ring, {e: c for e, c in h.terms.items() if lo <= sum(e) < hi})

    images = [ring.monomial(t) for t in monomials_below_degree(2, top)]
    bound = sum(mults)
    C = []
    for tangent, m, prev in zip([None] + tangents, mults, [0] + mults):
        if tangent is not None:
            images = [_blow_transform(part(h, prev, bound + prev), tangent, prev) for h in images]
        images = [part(h, 0, bound) for h in images]
        C += [[h.terms.get(t, field.zero) for h in images] for t in monomials_below_degree(2, m)]
        bound -= m
    return C, images


def _chain_rows(L, spec):
    """Condition rows of one chain over L's monomials: C times the Taylor
    rows at the base point, of order below min(sum of mults, deg L + 1)."""
    field = L.ambient.field
    point = tuple(field.coerce(v) for v in L.ambient.point(spec.point).coords)
    tangents = [t if isinstance(t, TangentDirection) else TangentDirection(field, t) for t in spec.tangents]
    top = min(sum(spec.mults), L.degree[0] + 1)
    C, _ = _chain_images(L.ambient.ring, spec.mults, tangents, top)
    T = point_condition_rows(L, point, top)
    if field.kind == "rational":
        # row t of T is the Taylor row times d_x^(top_x - t_x) d_y^(top_y - t_y):
        # give every row the same factor, and C integer rows
        dx, dy = (v.denominator for v in point)
        T = [[v * dx**a * dy**b for v in row] for (a, b), row in zip(monomials_below_degree(2, top), T)]
        C = [clear_denominators(row) for row in C]
    return matmul(C, T, field)


def impose_chain(L, specs):
    """Subsystem of L whose members realize every chain: multiplicity
    mults[0] at the point, then mults[k] at the k-th infinitely near point
    down the tangent directions."""
    ambient = L.ambient
    if ambient.kind != "affine" or ambient.dims[0] != 2:
        raise ValueError("chains of infinitely near points need the affine plane")
    rows = []
    for spec in specs:
        if not isinstance(spec, BlowupChainSpec):
            spec = BlowupChainSpec(*spec)
        rows += _chain_rows(L, spec)
    return _impose_rows(L, rows)


# ---------------------------------------------------------------------------
# named constructions


def quadrifolium():
    """The degree-6 curve with two tacnode-like chains at the origin along
    the coordinate axes, symmetric under both sign flips, through three
    simple points (one with a fixed tangent).  Returns the unique section
    normalized to leading coefficient 1 at x^6."""
    from .ambient import affine_space
    from .fields import rationals

    field = rationals()
    A2 = affine_space(field, 2)
    ring = A2.ring
    even = [
        ring.monomial(e)
        for e in monomials_below_degree(2, 7)
        if e[0] % 2 == 0 and e[1] % 2 == 0
    ]
    J = LinearSys.from_sections(A2, even, degree=6)
    fifth = Fraction(1, 5)
    specs = [
        BlowupChainSpec((0, 0), [4, 2], [(1, 0)]),
        BlowupChainSpec((0, 0), [4, 2], [(0, 1)]),
        BlowupChainSpec((1, 1), [1, 1], [(1, -1)]),
        BlowupChainSpec((fifth, Fraction(7, 10)), [1], []),
        BlowupChainSpec((Fraction(7, 10), fifth), [1], []),
    ]
    L = impose_chain(J, specs)
    if L.nsections() != 1:
        raise RuntimeError(f"expected a unique curve, found {L.nsections()} sections")
    f = L.sections()[0]
    lead = f.terms[(6, 0)]
    return f * field.inv(lead)


def sextic_pencil_scan(p, cross_check=0, rng=None):
    """Values a in GF(p^2)* for which the sextics with nine infinitely near
    double points at the origin along [1,1],..,[1,7],[1,a] form a pencil
    (a 2-section system), sorted; p an odd prime.

    The first eight points of the chain do not depend on a and are defined
    over GF(p), so they are imposed once, over GF(p), leaving nsec sections.
    The last blowup adds three Taylor conditions whose values on the
    sections are polynomials over GF(p) in c = 1/a: a 3 x nsec matrix M(c).
    The system is a pencil exactly where rank M(c) = r = nsec - 2, that is,
    where every (r+1)-minor of M vanishes and some r-minor does not.  So the
    hits are the a = 1/c for the nonzero roots c in GF(p^2) of the gcd of the
    (r+1)-minors that are not roots of the gcd of the r-minors; a gcd that
    is the zero polynomial vanishes at every c.  With cross_check > 0, the
    hits and that many random other values are re-verified through the full
    chain machinery over GF(p^2).
    """
    if p == 2:
        raise ValueError("the pencil scan needs an odd prime")
    from .ambient import affine_space

    F = GF(p)
    A2 = affine_space(F, 2)
    # the depth-9 chain of double points up to the 8th point, whose tangent
    # directions [1,1] .. [1,7] are fixed.  At the origin the Taylor
    # coefficients of a sextic are its coefficients, so C acts on them as
    # they are, and the 8th point's images give each g's terms of degree < 4
    tangents = [TangentDirection(F, (1, k)) for k in range(1, 8)]
    C, images = _chain_images(A2.ring, [2] * 9, tangents, 7)
    basis = nullspace(C, F, len(C[0]))
    nsec = len(basis)
    quad, cubic = [(a, 2 - a) for a in range(3)], [(a, 3 - a) for a in range(4)]
    coeffs = [[h.terms.get(u, 0) for h in images] for u in quad + cubic]
    G = matmul(coeffs, [list(col) for col in zip(*basis)], F)
    # after the last substitution x -> x*y, y^2 division and recentering at c,
    # the three order-<2 coefficients of each g are univariate in c:
    #   1: sum_{a+b=2} g_ab c^a,  x: sum_{a+b=2} a g_ab c^(a-1),
    #   y: sum_{a+b=3} g_ab c^a
    M = [[], [], []]
    for j in range(nsec):
        u0, uy = [row[j] for row in G[:3]], [row[j] for row in G[3:]]
        ux = [a * u0[a] % p for a in (1, 2)]
        for row, u in zip(M, (u0, ux, uy)):
            row.append(_upoly_trim(u))
    # 28 sextic monomials and 8 x 3 conditions: r >= 2
    K = GF(p, 2)
    r = nsec - 2
    excluded = set(_minor_roots(M, r, K))
    hits = sorted(
        K.inv(c) for c in _minor_roots(M, r + 1, K) if not K.is_zero(c) and c not in excluded
    )

    if cross_check:
        import random as _random

        rng = rng or _random.Random(0)
        L = LinearSys.complete(affine_space(K, 2), 6)
        candidates = list(hits)
        pool = [a for a in K.elements() if not K.is_zero(a) and a not in hits]
        candidates += [pool[rng.randrange(len(pool))] for _ in range(cross_check)]
        for a in candidates:
            spec = BlowupChainSpec(
                (0, 0),
                [2] * 9,
                [(1, k) for k in range(1, 8)] + [(K.one, a)],
            )
            full = impose_chain(L, [spec])
            if (full.nsections() == 2) != (a in hits):
                raise RuntimeError(f"pencil scan disagrees with the chain at a={a}")
    return hits


def _minor_roots(M, k, K):
    """The c in K = GF(p^2) at which every k x k minor of M vanishes, M a
    matrix of polynomials over GF(p): the roots of the gcd of the minors,
    or all of K when that gcd is the zero polynomial (also when there is no
    k x k minor)."""
    g = []
    for rows in combinations(range(len(M)), k):
        for cols in combinations(range(len(M[0])), k):
            g = _upoly_gcd(g, _det([[M[i][j] for j in cols] for i in rows], K.p), K.p)
    return _upoly_roots_p2(g, K) if g else list(K.elements())


def _det(M, p):
    """Determinant of a square matrix of polynomials over GF(p), by cofactor
    expansion along the first row."""
    if not M:
        return [1]
    out = []
    for j, a in enumerate(M[0]):
        if a:
            minor = _det([row[:j] + row[j + 1 :] for row in M[1:]], p)
            out = _upoly_add(out, _upoly_scale(_upoly_mul(a, minor, p), (-1) ** j, p), p)
    return out


_CHECK_SCANS = 8  # primes scanned at most for the lift's check prime


def pencil_parameter_lift(start_prime=59, target_modulus=10**25, max_primes=40, primes=None):
    """Lift the symmetric functions of the two pencil parameters to the
    rationals by scanning one prime after another and CRT-reconstructing.

    Returns (e1, e2, modulus, primes_used): the lifted trace and norm of a,
    so the parameter satisfies x^2 - e1*x + e2.  Primes where the scan does
    not find exactly two values are skipped.  With an explicit `primes` list
    exactly those primes are scanned; otherwise consecutive primes from
    start_prime are consumed until the modulus clears target_modulus.

    The lift is then checked at one more prime: the primes after the last
    one used (after the largest listed prime, for an explicit list) are
    scanned, at most _CHECK_SCANS of them, until one gives two values, and
    e1 and e2 must reduce to that prime's trace and norm.  RuntimeError if
    they do not, or if no such prime turns up."""
    explicit = primes is not None
    pool = list(primes) if explicit else primes_from(start_prime, max_primes)
    moduli = []
    residues = []
    for p in pool:
        pair = _trace_and_norm(p)
        if pair is None:
            continue
        moduli.append(p)
        residues.append(pair)
        if not explicit and prod(moduli) > target_modulus:
            break
    if not moduli:
        raise RuntimeError("no usable primes: every scan missed the two-value pattern")
    if not explicit and prod(moduli) <= target_modulus:
        raise RuntimeError("not enough usable primes to reach the target modulus")
    lifted = lift_rationals(residues, moduli)
    if not lifted.all_ok:
        raise RuntimeError("rational reconstruction failed; extend the prime range")
    e1, e2 = lifted.values
    start = max(pool) + 1 if explicit else moduli[-1] + 1
    for q in primes_from(start, _CHECK_SCANS):
        pair = _trace_and_norm(q)
        if pair is None:
            continue
        reduced = [None if f.denominator % q == 0 else f.numerator * pow(f.denominator, -1, q) % q
                   for f in (e1, e2)]
        if reduced != pair:
            raise RuntimeError(f"the lifted trace and norm disagree with the scan at the check prime {q}")
        return e1, e2, prod(moduli), list(moduli)
    raise RuntimeError(f"no check prime: none of the {_CHECK_SCANS} primes from {start} gives two values")


def _trace_and_norm(p):
    """[e1, e2] mod p of the two pencil parameters over GF(p^2), or None when
    the scan does not find exactly two values with e1 and e2 in GF(p)."""
    hits = sextic_pencil_scan(p)
    if len(hits) != 2:
        return None
    K = GF(p, 2)
    e1 = K.add(*hits)
    e2 = K.mul(*hits)
    if not (K.in_prime_subfield(e1) and K.in_prime_subfield(e2)):
        return None
    return [e1[0], e2[0]]
