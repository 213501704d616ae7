"""Reference implementations shared by the tests, kept out of the library.

They eliminate with the generic Gauss-Jordan loop itself, never with the
dispatching `linalg.rref`, so they stay independent of the kernel choice
they check; the Hasse rows are computed entry by entry, independent of the
tables that the library's two cores read."""

from math import comb

from hyperlin.linalg import _gauss_jordan, identity
from hyperlin.linsys import LinearSys, _aligned_pair, _padded_rows


def rref(rows, field, reverse_cols=False):
    """`linalg.rref` by the generic loop alone, over any field and size."""
    R = [list(r) for r in rows]
    n = len(R[0]) if R else 0
    pivots = _gauss_jordan(R, field, range(n - 1, -1, -1) if reverse_cols else range(n))
    return R[: len(pivots)], pivots


def rref_nullspace(rows, field, ncols=None):
    """Canonical right-nullspace basis from the generic Gauss-Jordan loop,
    over any field: one vector per free column f (ascending), with v[f] = 1
    and v[pivot_i] = -R[i][f].  Over QQ this is the Fraction Gauss-Jordan,
    the oracle of the certified multimodular basis that `linalg.nullspace`
    returns there."""
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return identity(ncols, field)
    n = len(rows[0])
    R, piv = rref(rows, field)
    basis = []
    for f in sorted(set(range(n)) - set(piv)):
        v = [field.zero] * n
        v[f] = field.one
        for i, c in enumerate(piv):
            v[c] = field.neg(R[i][f])
        basis.append(v)
    return basis


def intersect_with_span(L, polys):
    """Subsystem spanned by the intersection of L with span(polys), by
    elimination of the stacked rows; the oracle of projective containment,
    which cuts L down by the annihilator of span(polys) instead.

    A complete L takes the span of the candidate rows.  Otherwise each
    vector (u | w) of the left nullspace of [L's rows; candidate rows]
    gives u . L's rows inside the intersection."""
    field = L.ambient.field
    K = LinearSys.complete(L.ambient, L.degree)
    to_row = K.coefficient_map()
    B = [[c.raw for c in to_row(q)] for q in polys]
    if L.is_complete:
        R, _ = rref(B, field)
        return LinearSys.from_nullspace(L, R)
    A = _padded_rows(L, to_row.mono_index, len(to_row.monomials))
    left = rref_nullspace([list(col) for col in zip(*(A + B))], field)
    R, _ = rref([row[: len(A)] for row in left], field)
    return LinearSys.from_nullspace(L, R)


def stacked_complement(L, sub):
    """`LinearSys.complement` by one reverse-column elimination of the two
    bases stacked on their union support, for every L: the echelon rows of
    L at the pivot columns that sub's echelon form lacks.  Builds the
    identity matrix of a complete L."""
    field = L.ambient.field
    mons, A, B = _aligned_pair(L, sub)
    R, piv = rref(A + B, field, reverse_cols=True)
    if len(piv) != len(A):
        raise ValueError("complement argument is not a subsystem")
    taken = set(rref(B, field, reverse_cols=True)[1])
    comp = [row for row, c in zip(R, piv) if c not in taken]
    if not comp:
        return LinearSys.empty(L.ambient, L.degree)
    return LinearSys.from_matrix(L.ambient, comp, mons, degree=L.degree)


def taylor_row_by_powers(monomials, coords, t, field):
    """The t-th Hasse derivative prod_i C(e_i, t_i) a_i^(e_i - t_i) of each
    monomial x^e at a = coords, in field arithmetic, one entry at a time from
    a cache of powers a_i^d: the reference of `conditions.taylor_row` and of
    the rows that `_taylor_rows` and `_hasse_rows_mod_p` build."""
    row = []
    pow_cache = {}

    def power(i, d):
        key = (i, d)
        v = pow_cache.get(key)
        if v is None:
            v = field.pow(coords[i], d)
            pow_cache[key] = v
        return v

    for e in monomials:
        val = field.one
        for i, (ei, ti) in enumerate(zip(e, t)):
            if ti == 0 and ei == 0:
                continue
            c = comb(ei, ti)
            if c == 0:
                val = field.zero
                break
            val = field.mul(val, power(i, ei - ti))
            if c != 1:
                val = field.mul(val, field.from_int(c))
        row.append(val)
    return row
