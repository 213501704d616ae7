"""Reference implementations shared by the tests, kept out of the library."""

from hyperlin.linalg import identity, rref


def rref_nullspace(rows, field, ncols=None):
    """Canonical right-nullspace basis from the generic `rref`, over any
    field: one vector per free column f (ascending), with v[f] = 1 and
    v[pivot_i] = -R[i][f].  Over QQ this is the Fraction Gauss-Jordan, the
    oracle of the certified multimodular basis that `linalg.nullspace`
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
