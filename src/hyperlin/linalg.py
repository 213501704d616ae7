"""Exact linear algebra kernels.

Three tiers, all exact:

- generic dense routines over any CoefficientField (lists of raw values),
  all built on one Gauss-Jordan loop, used for small systems and for
  extension fields;
- numpy kernels over GF(p): an int64 row-loop RREF and a blocked float64
  forward elimination whose trailing updates run as one matrix product per
  panel, used for the large point-condition matrices;
- a certified multi-prime nullspace over the rationals: rank lower bounds
  from reductions mod ~2^30 primes, CRT + rational reconstruction of the
  candidate basis, and exact integer verification.  Since rank can only
  drop under reduction mod p, a verified basis of size n - max(rank_p) is
  provably a full nullspace basis.  The work per prime is numpy only (rows
  reduced from 30-bit limbs split once, then `rref_mod_p`) plus a probe:
  one entry is CRT-combined and reconstructed.  Only when the probe
  reconstructs is the whole basis combined, by one vector CRT that extends
  the previous one, so the multiprecision work is O(entries * primes).  The
  entries of a vector are reconstructed against a running common
  denominator, calling `rational_reconstruct` only where it does not
  already give a small numerator, and each vector, scaled by the lcm of its
  denominators, is checked by integer dot products against every row.

`solve_nullspace` is the one place that picks a kernel for a condition
matrix.  It owns the single size threshold (`_NUMPY_MIN_ENTRIES` matrix
entries), the field rule and the exactness bounds: the int64 kernels, and
the int64 mass evaluation that `gf_numpy_path` selects in `conditions`, need
p < 2^31 so that every product stays below p^2 < 2^62; the float64 panel
kernel runs only for odd p with n*p^2 < 2^53 (n counted as at least 8, the
smallest panel), and the int64 RREF otherwise.

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
_INT64_P = 1 << 31  # int64 kernels need p below this: products < p^2 < 2^62
_F53 = float(2**53)
_FIRST_PRIME_ABOVE = (1 << 30) + 1  # the multimodular primes start here
_UPDATE_ROWS = 256  # row block of ref_mod_p's trailing update
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
    range |x| <= (p-1)/2.  Exact for |x| < 2^53 and odd p: the quotient
    x/p is approximated to ~1e-9 while the nearest integer is at distance
    >= 1/(2p) from any half-integer, so rint recovers it exactly."""
    q = X * invp
    np.rint(q, out=q)
    q *= p
    X -= q


def ref_mod_p(A, p, block=192):
    """Forward (non-reduced) row echelon form over GF(p) in float64, with the
    trailing submatrix updated by one matrix product per panel of pivots.
    Intermediate entries are kept in the symmetric range |x| <= p/2, so the
    panel products stay exact while block*(p/2)^2 < 2^53.  Requires odd p.
    Returns (U, pivots): U float64 with canonical entries in [0, p)."""
    if p % 2 == 0:
        raise ValueError("float64 kernel requires an odd modulus")
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    # int64 remainder written straight into the float64 copy (exact: < p)
    A = np.remainder(A, p, out=np.empty((m, n)))
    half = (p - 1) // 2
    A[A > half] -= p
    # cap keeps every value below 2^51, which makes the rint quotient exact
    maxblock = int(_F53 // (p * p))
    if maxblock < 8:
        raise ValueError("modulus too large for the float64 kernel")
    block = max(1, min(block, maxblock))
    invp = 1.0 / p
    r = 0
    c = 0
    pivots = []
    while r < m and c < n:
        bc = min(block, n - c)
        P = A[r:, c : c + bc]
        L = np.zeros((m - r, bc))
        k = 0
        for j in range(bc):
            nz = np.nonzero(P[k:, j])[0]
            if nz.size == 0:
                continue
            i = k + int(nz[0])
            if i != k:
                A[[r + k, r + i]] = A[[r + i, r + k]]
                L[[k, i]] = L[[i, k]]
            inv = pow(int(P[k, j]) % p, -1, p)
            f = np.mod(P[k + 1 :, j], p)
            f *= inv
            np.mod(f, p, out=f)
            f[f > half] -= p
            sub = P[k + 1 :, j:]
            sub -= f[:, None] * P[k, j:]
            _reduce_sym(sub, p, invp)
            L[k + 1 :, k] = f
            pivots.append(c + j)
            k += 1
            if r + k == m:
                break
        if c + bc < n and k > 0:
            T = A[r:, c + bc :]
            for t in range(1, k):
                T[t] -= L[t, :t] @ T[:t]
                _reduce_sym(T[t], p, invp)
            # row blocks keep the product temporaries small
            for b in range(k, m - r, _UPDATE_ROWS):
                Tb = T[b : b + _UPDATE_ROWS]
                Tb -= L[b : b + _UPDATE_ROWS, :k] @ T[:k]
                _reduce_sym(Tb, p, invp)
        r += k
        c += bc
    U = A[:r]
    np.mod(U, p, out=U)
    return U, pivots


def _float_kernel(m, n, p):
    """Whether the float64 panel kernel eliminates an m x n matrix mod p:
    large enough to pay off, and exact (odd p, n*p^2 < 2^53, and panels of
    at least 8 columns, which `ref_mod_p` requires)."""
    return p % 2 == 1 and max(n, 8) * p * p < _F53 and m * n > _NUMPY_MIN_ENTRIES


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
    Chooses the float64 panel kernel for large matrices with small p, otherwise
    the int64 RREF."""
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
    # Exactness: dot accumulation bounded by n*p^2 < 2^53.
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
    kernel = ref_mod_p if _float_kernel(m, n, p) else rref_mod_p
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
    The probe entry is the last one that failed to reconstruct.  Rows that
    are already integer, such as the cleared rows `solve_nullspace` passes
    on, are used as they are.
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
        if rational_reconstruct(group.combine(probe), group.modulus) is None:
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
        residues = [r.tolist() if entry is None else int(r[entry]) for _, r in self.pending]
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
