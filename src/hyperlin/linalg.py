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
  provably a full nullspace basis.

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
from math import lcm

import numpy as np

from .fields import crt_combine, primes_from, rational_reconstruct, rationals

# Matrices with more entries than this go to the numpy and multimodular
# kernels; below it the generic loop has less overhead.
_NUMPY_MIN_ENTRIES = 50_000
_INT64_P = 1 << 31  # int64 kernels need p below this: products < p^2 < 2^62
_F53 = float(2**53)
_FIRST_PRIME_ABOVE = (1 << 30) + 1  # the multimodular primes start here

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
    Returns (R, pivots): R an int64 array of the rank nonzero rows."""
    A = np.mod(np.asarray(A, dtype=np.int64), p).copy()
    if A.ndim != 2:
        raise ValueError("matrix required")
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        a = int(A[r, c])
        if a != 1:
            A[r] = (A[r] * pow(a, -1, p)) % p
        col = A[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            A[hit] = (A[hit] - col[hit, None] * A[r][None, :]) % p
        pivots.append(int(c))
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
            if m - r > k:
                T[k:] -= L[k:, :k] @ T[:k]
                _reduce_sym(T[k:], p, invp)
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
    """Scale a row of Fractions/ints to integers (common denominator)."""
    fr = [Fraction(v) for v in row]
    d = lcm(*(f.denominator for f in fr)) if fr else 1
    return [int(f * d) for f in fr]


def _mod_rows(int_rows, p):
    return np.array([[v % p for v in row] for row in int_rows], dtype=np.int64)


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
    """
    int_rows = [clear_denominators(r) for r in rows]
    int_rows = [r for r in int_rows if any(r)]
    if not rows and not int_rows:
        raise ValueError("ncols unknown for an empty matrix; use nullspace()")
    n = len(rows[0])
    if not int_rows:
        return RationalNullspace(identity(n, rationals()), 0, [])
    prime_iter = iter(primes_from(_FIRST_PRIME_ABOVE, max_primes))
    best = None  # (rank, pivots tuple) with the largest rank seen
    groups = {}  # pivots tuple -> list of (p, nullspace residues array)
    used = []
    while True:
        try:
            p = next(prime_iter)
        except StopIteration:
            raise RuntimeError("rational nullspace did not stabilize") from None
        used.append(p)
        R, piv = rref_mod_p(_mod_rows(int_rows, p), p)
        key = tuple(piv)
        r = len(piv)
        if best is None or r > best[0]:
            best = (r, key)
            groups = {k: v for k, v in groups.items() if len(k) == r}
        if r < best[0]:
            continue  # unlucky prime, rank dropped
        if r == n:
            # full column rank certified: rank mod p is a lower bound
            return RationalNullspace([], n, used)
        groups.setdefault(key, []).append((p, _basis_from_rref_mod_p(R, piv, p, n)))
        # attempt reconstruction with the (largest-rank) reference group
        cand = _reconstruct_and_verify(groups[best[1]], int_rows, n)
        if cand is not None:
            return RationalNullspace(cand, best[0], used)


def _reconstruct_and_verify(group, int_rows, n):
    moduli = [p for p, _ in group]
    mats = [N for _, N in group]
    k = mats[0].shape[0]
    basis = []
    for i in range(k):
        vec = []
        for j in range(n):
            if len(moduli) == 1:
                combined, m = int(mats[0][i, j]), moduli[0]
            else:
                combined = crt_combine([int(N[i, j]) for N in mats], moduli)
                m = 1
                for p in moduli:
                    m *= p
            q = rational_reconstruct(combined % m, m)
            if q is None:
                return None
            vec.append(q)
        basis.append(vec)
    # exact verification against the integer matrix
    for vec in basis:
        for row in int_rows:
            s = Fraction(0)
            for a, v in zip(row, vec):
                if a and v:
                    s += a * v
            if s:
                return None
    return basis


def rank_rational(rows):
    """Certified rank over ℚ."""
    if not rows:
        return 0
    return nullspace_rational(rows).rank
