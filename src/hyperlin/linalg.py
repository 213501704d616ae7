"""Exact linear algebra kernels.

Three tiers, all exact:

- generic dense routines over any CoefficientField (lists of raw values),
  all built on one Gauss-Jordan loop, used for small systems and for
  extension fields;
- numpy kernels over GF(p): an int64 row-loop RREF and a column-recursive
  float64 forward elimination (CUP, as in FFLAS-FFPACK) whose every trailing
  update is one matrix product with delayed reduction mod p, used for the
  large point-condition matrices;
- a certified multi-prime nullspace over the rationals: rank lower bounds
  from reductions mod ~2^30 primes, CRT + rational reconstruction of the
  candidate basis, and exact integer verification.  Since rank can only
  drop under reduction mod p, a verified basis of size n - max(rank_p) is
  provably a full nullspace basis.  The work per prime is numpy only (rows
  reduced from 30-bit limbs split once, then `rref_mod_p`) plus a probe:
  one entry is CRT-combined and reconstructed.  Only when the probe
  reconstructs with a margin of 2^20 is the whole basis combined, by one
  vector CRT that extends the previous one, so the multiprecision work is
  O(entries * primes).  The entries of a vector are reconstructed against a
  running common denominator, calling `rational_reconstruct` only where it
  does not already give a small numerator, and each vector, scaled by the
  lcm of its denominators, is checked by integer dot products against
  every row.

`solve_nullspace` is the one place that picks a kernel for a condition
matrix.  It owns the single size threshold (`_NUMPY_MIN_ENTRIES` matrix
entries), the field rule and the exactness bounds: the int64 kernels, and
the int64 mass evaluation that `gf_numpy_path` selects in `conditions`, need
p < 2^31 so that every product stays below p^2 < 2^62; the float64 kernel
runs only for odd p with min(m, n)*h^2 + h < 2^51, h = (p-1)/2
(`_float_exact`, which the kernel also enforces), and the int64 RREF
otherwise.

Echelonization convention: matrices over monomial bases keep columns in
grevlex-descending order, and `reverse_cols=True` selects pivots scanning
columns right to left (smallest monomial first).  Rows of the result are
in pivot-discovery order.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

import numpy as np

from .fields import crt_combine, primes_from, rational_reconstruct, rationals

# Matrices with more entries than this go to the numpy and multimodular
# kernels; below it the generic loop has less overhead.
_NUMPY_MIN_ENTRIES = 50_000
_PROBE_MARGIN_BITS = 20  # the probe's n/d must satisfy |n| d 2^20 < m
_INT64_P = 1 << 31  # int64 kernels need p below this: products < p^2 < 2^62
_F51 = 2**51
_FIRST_PRIME_ABOVE = (1 << 30) + 1  # the multimodular primes start here
_UPDATE_ROWS = 256  # row block of the float64 kernel's matrix products
_LEAF = 16  # widest column range the float64 kernel eliminates pivot by pivot
_LIMB = 30  # bits per limb of the integer rows reduced mod p

# ---------------------------------------------------------------------------
# generic exact routines (any field, raw values)


def identity(n, field):
    return [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]


def _gauss_jordan(R, field, cols):
    """Reduce the row list R in place, searching pivots in the columns `cols`
    in that order.  Returns the pivot columns; R[:len(pivots)] are then the
    nonzero reduced rows in pivot-discovery order."""
    m = len(R)
    pivots = []
    r = 0
    for c in cols:
        if r == m:
            break
        pr = None
        for i in range(r, m):
            if not field.is_zero(R[i][c]):
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = field.inv(R[r][c])
        R[r] = [field.mul(v, inv) for v in R[r]]
        prow = R[r]
        for i in range(m):
            if i != r and not field.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(R[i], prow)]
        pivots.append(c)
        r += 1
    return pivots


def rref(rows, field, reverse_cols=False):
    """Reduced row echelon form.  Returns (R, pivots): R the nonzero rows in
    pivot-discovery order, pivots the matching column indices."""
    R = [list(r) for r in rows]
    n = len(R[0]) if R else 0
    pivots = _gauss_jordan(R, field, range(n - 1, -1, -1) if reverse_cols else range(n))
    return R[: len(pivots)], pivots


def rref_with_transform(rows, field):
    """RREF together with the row-operation record: the `rref` loop run on
    [A | I], with pivots searched only in the columns of A.

    Returns (R, pivots, E, N) with E @ input = R for the nonzero rows, and N
    the transform rows whose image is zero (a basis of the left nullspace).
    """
    n = len(rows[0]) if rows else 0
    R = [list(r) + e for r, e in zip(rows, identity(len(rows), field))]
    pivots = _gauss_jordan(R, field, range(n))
    r = len(pivots)
    main = [row[:n] for row in R[:r]]
    E = [row[n:] for row in R[:r]]
    N = [row[n:] for row in R[r:]]
    return main, pivots, E, N


def rank(rows, field):
    return len(rref(rows, field)[1])


def nullspace(rows, field, ncols=None):
    """Canonical right-nullspace basis: one vector per free column f (ascending),
    with v[f] = 1 and v[pivot_i] = -R[i][f]."""
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return identity(ncols, field)
    n = len(rows[0])
    R, piv = rref(rows, field)
    pivset = set(piv)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [field.zero] * n
        v[f] = field.one
        for i, c in enumerate(piv):
            v[c] = field.neg(R[i][f])
        basis.append(v)
    return basis


def matmul(A, B, field):
    """Exact product of raw-value matrices (lists of rows)."""
    if not A:
        return []
    inner = len(A[0])
    if inner != len(B):
        raise ValueError("shape mismatch")
    nb = len(B[0]) if B else 0
    out = []
    for arow in A:
        acc = [field.zero] * nb
        for k, a in enumerate(arow):
            if field.is_zero(a):
                continue
            brow = B[k]
            for j in range(nb):
                b = brow[j]
                if not field.is_zero(b):
                    acc[j] = field.add(acc[j], field.mul(a, b))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# the kernel dispatcher


def gf_numpy_path(field, m, n):
    """True when `solve_nullspace` eliminates an m x n matrix over `field`
    with the numpy GF(p) kernels: a prime field with p < 2^31 and more than
    `_NUMPY_MIN_ENTRIES` entries."""
    return field.kind == "prime" and field.p < _INT64_P and m * n > _NUMPY_MIN_ENTRIES


def solve_nullspace(rows, field, ncols):
    """Right nullspace of a condition matrix with `ncols` columns, by the
    kernel that suits its size and field.

    rows: lists of raw values, or an int64 array over GF(p).  Returns
    (count, basis).  basis is the canonical basis of `nullspace` (the same
    vectors whichever kernel ran), or, for a large rational matrix that has
    full row rank modulo one word-size prime, a callable that produces it on
    demand; the count is then certified by that prime alone.
    """
    m = len(rows)
    if gf_numpy_path(field, m, ncols):
        N = nullspace_mod_p(rows, field.p)
        return len(N), N.tolist()
    if field.kind == "rational" and m * ncols > _NUMPY_MIN_ENTRIES:
        return _solve_rational(rows, field, ncols)
    basis = nullspace(rows, field, ncols)
    return len(basis), basis


def _solve_rational(rows, field, ncols):
    int_rows = [r for r in map(clear_denominators, rows) if any(r)]
    if not int_rows:
        return ncols, identity(ncols, field)
    p = primes_from(_FIRST_PRIME_ABOVE, 1)[0]
    r = rank_mod_p(_mod_rows(int_rows, p), p)
    if r == ncols:
        return 0, []
    if r < len(int_rows):
        result = nullspace_rational(int_rows)
        return ncols - result.rank, result.basis

    # full row rank mod p pins the rank exactly; basis only on demand
    def basis():
        result = nullspace_rational(int_rows)
        if result.rank != r:
            raise RuntimeError("rank certificate contradicted by reconstruction")
        return result.basis

    return ncols - r, basis


# ---------------------------------------------------------------------------
# GF(p) numpy kernels


def rref_mod_p(A, p):
    """RREF over GF(p), p < 2^31, vectorized int64 row operations.
    Returns (R, pivots): R an int64 array of the rank nonzero rows.

    Each pivot step updates only the active columns c: in place: the pivot
    row comes from the rows at or below r, which are zero left of c."""
    A = np.mod(np.asarray(A, dtype=np.int64), p)
    if A.ndim != 2:
        raise ValueError("matrix required")
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i], c:] = A[[i, r], c:]
        row = A[r, c:]
        a = int(row[0])
        if a != 1:
            row *= pow(a, -1, p)
            row %= p
        col = A[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            X = A[hit, c:]
            X -= col[hit, None] * row
            X %= p
            A[hit, c:] = X
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _reduce_sym(X, p, invp):
    """In-place reduction of exact float64 integers to the symmetric residue
    range |x| <= (p-1)/2, for odd p and |x| < 2^51.  The quotient q = x*invp
    is within |x/p| * 2^-52 < 1/(2p) of x/p, and x/p is at least 1/(2p) from
    any half-integer, so rint(q) is the integer nearest to x/p."""
    q = X * invp
    np.rint(q, out=q)
    q *= p
    X -= q


def _float_exact(m, n, p):
    """The float64 kernel's exactness bound for an m x n matrix mod p: odd p
    and min(m, n)*h^2 + h < 2^51, with h = (p-1)/2.  Entries start in the
    symmetric range |x| <= h, and between two reductions each of the at most
    min(m, n) pivots adds one product of two reduced operands, so no entry
    leaves the range where `_reduce_sym` is exact."""
    h = (p - 1) // 2
    return p % 2 == 1 and min(m, n) * h * h + h < _F51


def _cup_mod_p(A, p):
    """Column-recursive CUP elimination over GF(p) in float64, the scheme of
    FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008; rank
    profiles after Dumas, Pernet and Sultan, ISSAC 2013).  A column range is
    factored by factoring its left half, solving the unit lower triangle of
    the left half's pivots against the right half's top rows (TRSM), updating
    the rows below by one matrix product, and factoring the right half.
    Ranges of at most `_LEAF` columns are eliminated pivot by pivot; row
    swaps move whole rows.

    The working copy is column-major, so leaf panels and pivot searches are
    contiguous.  An entry is reduced only where it becomes an operand: on
    entry to a leaf panel, as a leaf's pivot column or pivot row, and after
    each TRSM row; in between it only accumulates, within the bound of
    `_float_exact`, which is enforced.

    Returns (X, pivots): pivots is the column rank profile, the pivots of
    `rref_mod_p`; the first len(pivots) rows of X hold U in the symmetric
    range, except that the multipliers of the unit lower factor L are stored
    below each pivot."""
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    if p % 2 == 0:
        raise ValueError("float64 kernel requires an odd modulus")
    if not _float_exact(m, n, p):
        raise ValueError(f"GF({p}) on a {m} x {n} matrix is beyond the float64 kernel's bound")
    half = (p - 1) // 2
    X = np.remainder(A, p, out=np.empty((m, n), order="F"))  # exact: < p
    np.subtract(X, p, out=X, where=X > half)
    invp = 1.0 / p
    pivots = []

    def lower(r0, r1, piv):
        # rows r0:r1 of L in the pivot columns piv: a view when they are
        # contiguous, else a gathered copy
        if piv[-1] - piv[0] + 1 == len(piv):
            return X[r0:r1, piv[0] : piv[-1] + 1]
        return X[r0:r1, piv]

    def update(C, r0, piv, B):
        # C -= L[r0:r0+len(C), piv] @ B by row blocks, each product written
        # to a small column-major buffer laid out like C
        T = np.empty((min(len(C), _UPDATE_ROWS), C.shape[1]), order="F")
        for b in range(0, len(C), _UPDATE_ROWS):
            Cb = C[b : b + _UPDATE_ROWS]
            Cb -= np.matmul(lower(r0 + b, r0 + b + len(Cb), piv), B, out=T[: len(Cb)])

    def trsm(r, piv, B):
        # B <- L^-1 B for the unit lower triangle of rows r:r+len(piv) in
        # the columns piv; B is left reduced
        k = len(piv)
        if k <= _LEAF:
            L = lower(r, r + k, piv)
            for t in range(k):
                if t:
                    B[t] -= L[t, :t] @ B[:t]
                _reduce_sym(B[t], p, invp)
            return
        h = k // 2
        trsm(r, piv[:h], B[:h])
        update(B[h:], r + h, piv[:h], B[:h])
        trsm(r + h, piv[h:], B[h:])

    def leaf(r, c0, c1):
        P = X[r:, c0:c1]
        _reduce_sym(P, p, invp)
        k = 0
        for j in range(c1 - c0):
            col = P[k:, j]
            if k:
                _reduce_sym(col, p, invp)
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            i = r + k + int(nz[0])
            if i != r + k:
                X[[r + k, i]] = X[[i, r + k]]
            f = P[k + 1 :, j]
            f *= pow(int(P[k, j]) % p, -1, p)
            _reduce_sym(f, p, invp)
            if j + 1 < c1 - c0:
                row = P[k, j + 1 :]
                _reduce_sym(row, p, invp)
                P[k + 1 :, j + 1 :] -= f[:, None] * row
            pivots.append(c0 + j)
            k += 1
            if r + k == m:
                break
        return k

    def factor(r, c0, c1):
        # eliminate columns c0:c1 in the rows r:, returning the pivot count
        if r == m:
            return 0
        if c1 - c0 <= _LEAF:
            return leaf(r, c0, c1)
        c = (c0 + c1) // 2
        k = factor(r, c0, c)
        if k:
            piv = pivots[-k:]
            B = X[r : r + k, c:c1]
            trsm(r, piv, B)
            update(X[r + k :, c:c1], r + k, piv, B)
        return k + factor(r + k, c, c1)

    factor(0, 0, n)
    return X, pivots


def ref_mod_p(A, p):
    """Forward (non-reduced) row echelon form over GF(p) in float64, by the
    column-recursive elimination `_cup_mod_p`.  Requires odd p within
    `_float_exact` (ValueError otherwise).  Returns (U, pivots): pivots the
    column rank profile, equal to `rref_mod_p`'s, and U float64 (rank x n),
    echelon with entries in [0, p) and zeros below each pivot, so
    `_backsolve_ref` gives the canonical basis."""
    X, pivots = _cup_mod_p(A, p)
    U = X[: len(pivots)]
    for k, c in enumerate(pivots):
        U[k + 1 :, c] = 0  # the stored multipliers of L
    np.add(U, p, out=U, where=U < 0)
    return U, pivots


def _float_kernel(m, n, p):
    """Whether the float64 kernel eliminates an m x n matrix mod p: large
    enough to pay off, and within `_float_exact`."""
    return m * n > _NUMPY_MIN_ENTRIES and _float_exact(m, n, p)


def _basis_from_rref_mod_p(R, piv, p, n):
    """Canonical nullspace basis (int64, nullity x n) of an RREF mod p:
    v[f] = 1 on its free column f, v[pivot_i] = -R[i][f]."""
    free = np.setdiff1d(np.arange(n), np.asarray(piv, dtype=np.int64))
    X = np.zeros((len(free), n), dtype=np.int64)
    X[np.arange(len(free)), free] = 1
    X[:, piv] = np.mod(-R[:, free].T, p)
    return X


def nullspace_mod_p(A, p):
    """Canonical right-nullspace basis over GF(p) as an int64 array (nullity x n).
    Chooses the float64 kernel for large matrices with small p, otherwise the
    int64 RREF."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    m, n = A.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if m == 0:
        return np.eye(n, dtype=np.int64)
    if _float_kernel(m, n, p):
        U, piv = ref_mod_p(A, p)
        return _backsolve_ref(U, piv, p, n)
    R, piv = rref_mod_p(A, p)
    return _basis_from_rref_mod_p(R, piv, p, n)


def _backsolve_ref(U, piv, p, n):
    # Exactness: a row of X is nonzero only on its free column and the pivot
    # columns already solved, so each dot product has at most rank terms,
    # each below p^2, and rank*(p-1)^2 < 2^53 follows from `_float_exact`.
    r = len(piv)
    pivset = set(piv)
    free = [f for f in range(n) if f not in pivset]
    X = np.zeros((len(free), n))
    for idx, f in enumerate(free):
        X[idx, f] = 1.0
    for k in range(r - 1, -1, -1):
        pc = piv[k]
        s = np.mod(X[:, pc + 1 :] @ U[k, pc + 1 :], p)
        inv = pow(int(U[k, pc]), -1, p)
        X[:, pc] = np.mod((p - s) * inv, p)
    return X.astype(np.int64)


def rank_mod_p(A, p):
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    m, n = A.shape
    if m == 0 or n == 0:
        return 0
    # the float64 path only counts pivots: U is not made canonical
    kernel = _cup_mod_p if _float_kernel(m, n, p) else rref_mod_p
    return len(kernel(A, p)[1])


# ---------------------------------------------------------------------------
# certified rational nullspace


def clear_denominators(row):
    """Scale a row of Fractions/ints to integers (common denominator).  A
    row of ints, such as a QQ row of `conditions.point_condition_rows`, is
    returned as it is."""
    if all(type(v) is int for v in row):
        return row
    fr = [Fraction(v) for v in row]
    d = lcm(*(f.denominator for f in fr)) if fr else 1
    return [int(f * d) for f in fr]


def _mod_rows(int_rows, p):
    # one prime: a big-int % per entry costs less than splitting into limbs
    return np.array([[v % p for v in row] for row in int_rows], dtype=np.int64)


def _split_limbs(int_rows):
    """Split integer rows once into 30-bit limbs of their absolute values.
    Returns (limbs, negative): an int32 array (L, m, n), least significant
    limb first, and the bool sign mask (m, n).  Row by row, so no
    matrix-sized temporary of Python ints is made."""
    bits = max(1, *(v.bit_length() for row in int_rows for v in row))
    limbs = np.empty((-(-bits // _LIMB), len(int_rows), len(int_rows[0])), dtype=np.int32)
    mask = (1 << _LIMB) - 1
    for i, row in enumerate(int_rows):
        mags = [abs(v) for v in row]
        for k, limb in enumerate(limbs):
            limb[i] = [(v >> (_LIMB * k)) & mask for v in mags]
    return limbs, np.array([[v < 0 for v in row] for row in int_rows])


def _reduce_limbs(limbs, negative, p):
    """The integer matrix of `_split_limbs` mod p < 2^31, as int64: Horner in
    base 2^30, each step below 2^31 * 2^30 + 2^30 < 2^62."""
    base = (1 << _LIMB) % p
    acc = limbs[-1].astype(np.int64)
    acc %= p
    for limb in limbs[-2::-1]:
        acc *= base
        acc += limb
        acc %= p
    np.negative(acc, out=acc, where=negative)
    acc %= p
    return acc


class RationalNullspace:
    """Result of the certified multi-prime nullspace: exact basis (list of
    Fraction vectors, identity pattern on the free columns) plus the certified
    rank of the input matrix."""

    __slots__ = ("basis", "rank", "primes_used")

    def __init__(self, basis, rank, primes_used):
        self.basis = basis
        self.rank = rank
        self.primes_used = primes_used


def nullspace_rational(rows, max_primes=1024):
    """Certified exact right-nullspace over ℚ.

    rows: list of rows of ints/Fractions.  Returns a RationalNullspace whose
    basis is exact and verified: every vector is checked against the integer
    matrix, and the count matches the best mod-p rank lower bound, which pins
    the rank of the matrix exactly.

    The reference group, whose residues are lifted, is the primes with the
    largest rank and the lexicographically smallest pivot tuple: a prime can
    only lower the rank or push pivots later, so that is the pattern over ℚ.
    The probe entry is the last one that failed to reconstruct.  Plain
    reconstruction succeeds on about 60% of random residues, so the probe
    is accepted only with a margin, |n| d 2^20 < m (Monagan's
    maximal-quotient criterion, ISSAC 2004), which a random residue meets
    with probability of order 2^-20 log m; the full reconstruction and the
    exact check remain the certificate.  Rows that are already integer,
    such as the cleared rows `solve_nullspace` passes on, are used as they
    are.
    """
    int_rows = [r if all(type(v) is int for v in r) else clear_denominators(r) for r in rows]
    int_rows = [r for r in int_rows if any(r)]
    if not rows and not int_rows:
        raise ValueError("ncols unknown for an empty matrix; use nullspace()")
    n = len(rows[0])
    if not int_rows:
        return RationalNullspace(identity(n, rationals()), 0, [])
    limbs, negative = _split_limbs(int_rows)
    best = None  # pivots tuple of the reference group
    group = None
    probe = 0  # flat index of the probe entry in the k x n basis
    used = []
    for p in primes_from(_FIRST_PRIME_ABOVE, max_primes):
        used.append(p)
        R, piv = rref_mod_p(_reduce_limbs(limbs, negative, p), p)
        if len(piv) == n:
            # full column rank certified: rank mod p is a lower bound
            return RationalNullspace([], n, used)
        key = tuple(piv)
        if best is None or (-len(key), key) < (-len(best), best):
            best, group, probe = key, _Lift(n), 0
        elif key != best:
            continue  # unlucky prime: rank dropped or pivots moved right
        group.add(p, _basis_from_rref_mod_p(R, piv, p, n).ravel())
        f = rational_reconstruct(group.combine(probe), group.modulus)
        if f is None or abs(f.numerator) * f.denominator << _PROBE_MARGIN_BITS >= group.modulus:
            continue
        basis, failed = group.reconstruct()
        if basis is None:
            probe = failed
        elif _verified(basis, int_rows):
            return RationalNullspace(basis, len(best), used)
    raise RuntimeError("rational nullspace did not stabilize")


class _Lift:
    """The flattened canonical basis of the reference group, lifted by CRT:
    the combination over the primes of the last full combine, plus the int64
    residues mod each prime added since."""

    def __init__(self, n):
        self.n = n
        self.modulus = 1  # product of all the primes added
        self.values = None  # the last full combination, mod self.combined_modulus
        self.combined_modulus = 1
        self.pending = []  # (p, residues) added since

    def add(self, p, residues):
        self.pending.append((p, residues))
        self.modulus *= p

    def combine(self, entry=None):
        """CRT of one flat entry (an int), or of the whole basis (a list,
        kept so the next full combine starts from it)."""
        # the int64 arrays go in as they are: as lists of ints, the residues
        # of every prime since the last combine would be held at once
        residues = [r if entry is None else int(r[entry]) for _, r in self.pending]
        moduli = [p for p, _ in self.pending]
        if self.values is not None:
            residues.insert(0, self.values if entry is None else self.values[entry])
            moduli.insert(0, self.combined_modulus)
        x = crt_combine(residues, moduli)
        if entry is None:
            self.values, self.combined_modulus, self.pending = x, self.modulus, []
        return x

    def reconstruct(self):
        """Rational basis from the residues, or (None, flat index of the
        first entry that fails).  Entries of one vector share most of their
        denominator: the running lcm d of the denominators found so far gives
        the entry n/d directly when d*x mod m is within the reconstruction
        bound, and `rational_reconstruct` is called only when it is not.
        Either way the result is the one `rational_reconstruct` gives, which
        is unique within the bound."""
        values, m = self.combine(), self.modulus
        bound = isqrt(m // 2)
        basis = []
        for start in range(0, len(values), self.n):
            vec, d = [], 1
            for j, x in enumerate(values[start : start + self.n]):
                y = x * d % m
                if y > m - y:
                    y -= m
                if -bound <= y <= bound and d <= bound:
                    f = Fraction(y, d)
                else:
                    f = rational_reconstruct(x, m)
                    if f is None:
                        return None, start + j
                    d = lcm(d, f.denominator)
                vec.append(f)
            basis.append(vec)
        return basis, None


def _verified(basis, int_rows):
    """Exact check: every lcm-scaled basis vector is orthogonal to every row."""
    for vec in basis:
        scale = lcm(*(f.denominator for f in vec))
        w = [f.numerator * (scale // f.denominator) for f in vec]
        for row in int_rows:
            if sum(map(mul, row, w)):
                return False
    return True


def rank_rational(rows):
    """Certified rank over ℚ."""
    if not rows:
        return 0
    return nullspace_rational(rows).rank
