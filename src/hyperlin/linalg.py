"""Exact linear algebra kernels.

Two tiers, both exact:

- generic dense routines over any CoefficientField (lists of raw values),
  all built on one Gauss-Jordan loop: `rref`, `rank` and `nullspace` over
  GF(p^k), p >= 2^31 and small GF(p) matrices, `rref` and `rank` over QQ;
- one numpy kernel over GF(p) for every 2 <= p < 2^31: a column-recursive
  float64 CUP elimination (as in FFLAS-FFPACK) whose updates are matrix
  products, and whose leaves factor their top block in int64 and get the
  multipliers below it in one product, with a blocked back-substitution
  for the RREF and the nullspace basis.  Its products have two exactness
  regimes (`_product`).  The direct regime, while min(m, n)*h^2 + p - 1 <
  2^51 with h = p // 2 (`_float_exact`), is one product with delayed
  reduction: an entry is reduced only where it becomes an operand.  The
  split regime, otherwise, writes operands in halves x1 2^15 + x0 and
  combines their partial products by Horner in base 2^15 with a reduction
  after each step, which is exact for inner dimensions below 2^21 - 2^15
  (enforced on min(m, n)).
  `ref_mod_p`, `rref_mod_p`, `rank_mod_p` and `nullspace_mod_p` all run it
  on a matrix, a batch of one; `_cup_mod_p` alone checks p and copies their
  input (rows of ints of any size, a flat row, an integer array; an entry
  with a fraction raises ValueError) to float64, or eliminates a float64
  working matrix in place.  `rref_mod_p` also takes a stack of a matrix mod
  B primes and eliminates it in one pass, by stacked products, with the
  pivots common to the slices that reach them.

On top of the GF(p) kernel sits the certified multi-prime nullspace over
the rationals, which is `nullspace` over QQ: rank lower bounds from
reductions mod the largest primes of the direct regime (`_lift_primes`,
about 2^22.6 for 230 x 231), CRT + rational reconstruction of the RREF's
free block Y (rank x nullity), and exact integer verification.  Since rank
can only drop under reduction mod p, a verified basis of size
n - max(rank_p) is provably a full nullspace basis.  The eliminations are
numpy only: the rows are split once into 30-bit limbs, reduced mod each
prime into the slices of a float64 stack, and the first prime goes alone
through `rref_mod_p`, then stacks of 2, 4, ... primes, up to a memory
budget, with the rows put once in the order of the first prime's pivot
steps: the lucky primes share its pivot rows (Dumas, Pernet and Sultan,
ISSAC 2013), so the later ones find their pivots in place.  After each
stack, one vector CRT extends the combined Y, column by column, by the Y of
all the stack's live slices, and one entry of it is reconstructed as a
probe.  Only when the probe reconstructs with a margin of 2^20 is each
column reconstructed against a running denominator
(`fields.reconstruct_rationals`, as in `lift_rationals`).  Its basis
vector, 1 at its free column and -Y at the pivots, scaled by the lcm of its
denominators, is checked against every row by integer dot products over
the pivot columns; `_canonical_basis`, as in the generic `nullspace`,
builds it.

`gf_numpy_path` is the one rule that sends a GF(p) matrix to the kernel,
asked by `rref`, `rank` (by `rank_mod_p`, with no RREF), `nullspace` and
the mass evaluation in `conditions`: p < 2^31, so that every int64 product
of residues stays below p^2 < 2^62, and more than `_NUMPY_MIN_ENTRIES`
entries, the measured crossover below which the generic loop is faster.
`solve_nullspace`, for `conditions._kernel_subsystem` alone, gives a QQ
matrix of more than `_DEFER_MIN_ENTRIES` entries a deferred basis; every
other caller asks `nullspace` for a basis.

Echelonization convention: matrices over monomial bases keep columns in
grevlex-descending order, and `reverse_cols=True` selects pivots scanning
columns right to left (smallest monomial first).  Rows of the result are
in pivot-discovery order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import compress, islice, takewhile
from math import isqrt, lcm, prod
from operator import mul
from typing import NamedTuple

import numpy as np

from .fields import _is_prime, crt_combine, rational_reconstruct, rationals, reconstruct_rationals

_NUMPY_MIN_ENTRIES = 150  # GF(p) matrices of more entries take the numpy kernel
_DEFER_MIN_ENTRIES = 50_000  # QQ condition matrices of more entries get a deferred basis
_PROBE_MARGIN_BITS = 20  # the probe's n/d must satisfy |n| d 2^20 < m
_INT64_P = 1 << 31  # p bound of the GF(p) kernel and the int64 evaluators (products < p^2 < 2^62)
_F51 = 2**51
_MAX_PRIMES = 1024  # primes the multimodular nullspace tries before giving up
_PRIME_FLOOR = 1 << 20  # lowest start of the multimodular primes: the 1024 below it exceed 2^19
_UPDATE_ENTRIES = 3 << 17  # float64 entries of a row block of the kernel's updates (3 MB), over all slices of a stack
_LEAF = 32  # widest column range of a leaf of the float64 kernel
_HALF = 2.0**15  # base of the split regime's operand halves
_SPLIT_K = 2**21 - 2**15  # split products are exact for inner dimensions below this
_ONE_SIDED_K = 64  # split products split one operand up to this inner dimension
_LIMB = 30  # bits per limb of the integer rows reduced mod p
_STACK_ENTRIES = 7 << 16  # float64 entries of the lift's stacks of slices: a 3.5 MB budget, eight of 230 x 231
_MAX_STACK = 16  # most primes in one stack of the lift

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
    pivot-discovery order, pivots the matching column indices.  The GF(p)
    kernel (`gf_numpy_path`) takes the columns reversed for `reverse_cols`."""
    n = len(rows[0]) if len(rows) else 0
    if gf_numpy_path(field, len(rows), n):
        flip = slice(None, None, -1 if reverse_cols else 1)
        R, pivots = rref_mod_p(np.array(rows, dtype=np.int64)[:, flip], field.p)
        return R[:, flip].tolist(), [n - 1 - c if reverse_cols else c for c in pivots]
    R = [list(r) for r in rows]
    pivots = _gauss_jordan(R, field, range(n - 1, -1, -1) if reverse_cols else range(n))
    return R[: len(pivots)], pivots


def rank(rows, field):
    """Rank: by `rank_mod_p` where `gf_numpy_path` holds, else by `rref`."""
    if gf_numpy_path(field, len(rows), len(rows[0]) if len(rows) else 0):
        return rank_mod_p(rows, field.p)
    return len(rref(rows, field)[1])


def nullspace(rows, field, ncols=None):
    """Canonical right-nullspace basis: one vector per free column f (ascending),
    with v[f] = 1 and v[pivot_i] = -R[i][f]: `nullspace_rational` over QQ,
    `nullspace_mod_p` where `gf_numpy_path` holds (in place on a float64
    working matrix), otherwise `_canonical_basis` of the generic `rref`."""
    if len(rows) == 0:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return identity(ncols, field)
    if field.kind == "rational":
        return nullspace_rational(rows).basis
    n = len(rows[0])
    if gf_numpy_path(field, len(rows), n):
        return nullspace_mod_p(rows, field.p).tolist()
    R, piv = rref(rows, field)
    free = sorted(set(range(n)) - set(piv))
    return _canonical_basis([[row[f] for row in R] for f in free], piv, free, field)


def _canonical_basis(columns, pivots, free, field):
    """The canonical nullspace basis from the columns of an RREF's free block
    Y: the vector of columns[j] has 1 at free[j], -Y[i][j] at pivots[i]."""
    n = len(pivots) + len(free)
    basis = []
    for f, column in zip(free, columns):
        v = [field.zero] * n
        v[f] = field.one
        for c, y in zip(pivots, column):
            v[c] = field.neg(y)
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
    """True when an m x n matrix over `field` goes to the numpy GF(p)
    kernel: a prime field with p < 2^31 and more than `_NUMPY_MIN_ENTRIES`
    entries.  The one kernel rule of `rref`, `rank`, `nullspace` and the
    mass evaluation of `conditions.impose_points`."""
    return field.kind == "prime" and field.p < _INT64_P and m * n > _NUMPY_MIN_ENTRIES


def solve_nullspace(rows, field, ncols):
    """Right nullspace of a condition matrix with `ncols` columns.

    rows: lists of raw values, or a float64 working matrix over GF(p),
    which `nullspace_mod_p` overwrites.  Returns (count, basis).  basis is
    the canonical basis of `nullspace`, or, for a rational matrix of more
    than `_DEFER_MIN_ENTRIES` entries that has full row rank modulo one
    word-size prime, a callable that produces it on demand; the count is
    then certified by that prime alone.
    """
    if field.kind == "rational" and len(rows) * ncols > _DEFER_MIN_ENTRIES:
        return _solve_rational(rows, field, ncols)
    basis = nullspace(rows, field, ncols)
    return len(basis), basis


def _solve_rational(rows, field, ncols):
    int_rows = [r for r in map(clear_denominators, rows) if any(r)]
    if not int_rows:
        return ncols, identity(ncols, field)
    p = next(_lift_primes(len(int_rows), ncols))
    r = rank_mod_p(int_rows, p)
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
# GF(p) numpy kernel


def _reduce_sym(X, p, invp):
    """In-place reduction of the integers in a float array to residues
    |x| <= p // 2, the symmetric range for odd p, with invp = 1/p in X's
    dtype.  One rule: exact for |x| < 2^(s-2) with an s-bit significand
    (2^22 in float32, 2^51 in float64).  invp and q = x*invp round once each,
    so q is within |x/p| (2^(1-s) + 2^-2s) < 1/(2p) of x/p, and for odd p x/p
    is at least 1/(2p) from any half-integer, so rint(q) is the integer
    nearest to x/p and x - rint(q)*p is exact; for p = 2, invp and q are
    exact.  p and invp are scalars, or arrays that broadcast one modulus to
    each slice of a stack."""
    q = X * invp
    np.rint(q, out=q)
    q *= p
    X -= q


def _float_exact(m, n, p):
    """Whether the direct product regime is exact for an m x n matrix mod p:
    min(m, n)*h^2 + p - 1 < 2^51, with h = p // 2.  Entries start in
    [0, p), every operand is reduced to |x| <= h, and between two
    reductions each of the at most min(m, n) pivots adds one product of two
    operands to an entry, so no entry leaves the range where `_reduce_sym`
    is exact."""
    h = p // 2
    return min(m, n) * h * h + p - 1 < _F51


def _product(p, direct):
    """The matrix product of the elimination kernel mod p:
    product(A, B, out=None) is congruent to A @ B, for float64 operands
    reduced to |x| <= h = p // 2 with inner dimension k, and is written to
    `out` when given.  Operands may be stacks (B x . x .), multiplied slice
    by slice, with p an array that gives each slice its modulus.  An inner
    dimension of 1 is a broadcast product: an outer product, or with B of
    A's height, a scaling of B's rows.

    Direct regime (`_float_exact`): the exact product itself, |A @ B| <=
    k h^2, which the caller accumulates and reduces only where an entry
    becomes an operand.

    Split regime, for any p < 2^31 (so h < 2^30): an operand is written
    x = x1 2^15 + x0 with |x0| <= 2^14 and |x1| <= 2^15, and the partial
    products are combined by Horner in base 2^15 with a reduction after
    each step.  For k <= 64 only the smaller operand is split:
    |x1 y| < k 2^45 <= 2^51, then h 2^15 + |x0 y| < 2^45 + k 2^44 < 2^51.
    Otherwise both are, in four partials: |A1 B1| <= k 2^30, then
    h 2^15 + |A1 B0 + A0 B1| <= 2^45 + k 2^30, then h 2^15 + |A0 B0|, all
    below 2^51 for k < 2^21 - 2^15 (`_SPLIT_K`, which the kernel enforces on
    min(m, n)).  The result is reduced, so an entry that takes at most
    min(m, n) of them between two reductions stays below
    (min(m, n) + 1) h < 2^51."""
    if direct:
        return lambda A, B, out=None: (np.multiply if A.shape[-1] == 1 else np.matmul)(A, B, out=out)
    invp = 1.0 / p

    def halves(X):
        hi = X * (1.0 / _HALF)
        np.rint(hi, out=hi)
        return hi, X - hi * _HALF

    def horner(S, *partials):
        # S <- (S mod p) * 2^15 + sum(partials), for each step in turn
        _reduce_sym(S, p, invp)
        S *= _HALF
        for P in partials:
            S += P

    def product(A, B, out=None):
        k = A.shape[-1]
        mul = np.multiply if k == 1 else np.matmul
        if k > _ONE_SIDED_K:
            A1, A0 = halves(A)
            B1, B0 = halves(B)
            S = mul(A1, B1)
            horner(S, mul(A1, B0), mul(A0, B1))
            horner(S, mul(A0, B0))
        elif A.size <= B.size:
            A1, A0 = halves(A)
            S = mul(A1, B)
            horner(S, mul(A0, B))
        else:
            B1, B0 = halves(B)
            S = mul(A, B1)
            horner(S, mul(A, B0))
        _reduce_sym(S, p, invp)
        if out is None:
            return S
        out[...] = S
        return out

    return product


def _column_major(shape):
    """An uninitialised float64 array of `shape` in the kernel's layout: each
    matrix (the last two axes) column-major, so leaf panels and pivot
    searches are contiguous."""
    return np.empty(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)


class _Elimination:
    """The state of one GF(p) elimination (`factor`) or back-substitution
    (`solve_upper`) in float64: X, a matrix (m x n) with one prime or a
    stack (B x m x n) with a sequence of B primes, the product of their
    regime, the pivots common to the live slices, the mask of live slices
    and, per leaf of the CUP, the inverse of its unit lower triangle.
    Every operation indexes the last two axes, so a matrix is a batch of one
    with no batch axis, and a stack is eliminated by stacked products with
    each slice's modulus broadcast.  Methods rather than nested functions,
    so that no reference cycle keeps X alive after the elimination
    returns."""

    def __init__(self, X, primes, direct):
        self.X = X
        self.slices = X if X.ndim == 3 else X[None]
        self.primes = primes
        self.p = primes[0] if X.ndim == 2 else np.array(primes, dtype=np.float64).reshape(-1, 1, 1)
        self.invp = 1.0 / self.p
        self.direct = direct
        self.product = _product(self.p, direct)
        self.pivots = []
        self.live = np.ones(len(self.primes), dtype=bool)
        self.leaves = []  # first row of each leaf's pivots, ascending
        self.lower_inverses = {}  # first row -> inverse of the leaf's unit lower triangle

    def reduce(self, M):
        _reduce_sym(M, self.p, self.invp)

    def mul(self, A, B, out=None):
        # a product reduced to the symmetric range
        M = self.product(A, B, out=out)
        if self.direct:
            self.reduce(M)
        return M

    def inverses(self, D):
        """The inverses of nonzero entries in the symmetric range, as a
        column per slice: D holds one list per slice, inverted mod that
        slice's prime."""
        inv = [[_inverse(d, p) for d in row] for row, p in zip(D, self.primes)]
        return np.array(inv).reshape(self.X.shape[:-2] + (-1, 1))

    def unit_inverse(self, M):
        """(I + M)^-1 for a strictly triangular k x k matrix M, or a stack
        of them, reduced: the product (I - M)(I + M^2)(I + M^4)... of
        ceil(log2 k) factors, since M^k = 0.  M is reduced, and so are its
        powers, which `mul` returns, and their diagonals are 0: each factor
        is reduced as it is."""
        k = M.shape[-1]
        eye = np.eye(k)
        inv = eye - M
        for _ in range(max(k - 1, 0).bit_length() - 1):
            M = self.mul(M, M)
            inv = self.mul(inv, eye + M)
        return inv

    def block(self, r0, r1, cols):
        # rows r0:r1 of X in the columns cols: a view when they are
        # contiguous, else a gathered copy
        if cols[-1] - cols[0] + 1 == len(cols):
            return self.X[..., r0:r1, cols[0] : cols[-1] + 1]
        return self.X[..., r0:r1, cols]

    def update(self, C, r0, cols, B):
        # C -= X[r0:r0+len(C), cols] @ B by row blocks, each product written
        # to a small column-major buffer laid out like C; a block holds at
        # most _UPDATE_ENTRIES entries over all the slices of a stack
        h = C.shape[-2]
        step = max(1, _UPDATE_ENTRIES // (len(self.slices) * C.shape[-1]))
        T = _column_major(C.shape[:-2] + (min(h, step), C.shape[-1]))
        for b in range(0, h, step):
            Cb = C[..., b : b + step, :]
            rows = Cb.shape[-2]
            Cb -= self.product(self.block(r0 + b, r0 + b + rows, cols), B, out=T[..., :rows, :])

    def factor(self, r, c0, c1):
        """Eliminate the columns c0:c1 in the rows r:, returning the pivot
        count: the left half, the TRSM of its pivot rows against the right
        half, one update of the rows below, the right half."""
        if r == self.X.shape[-2]:
            return 0
        if c1 - c0 <= _LEAF:
            return self.leaf(r, c0, c1)
        c = (c0 + c1) // 2
        k = self.factor(r, c0, c)
        if k:
            B = self.X[..., r : r + k, c:c1]
            self.trsm(r, r + k, B)
            self.update(self.X[..., r + k :, c:c1], r + k, self.pivots[r : r + k], B)
        return k + self.factor(r + k, c, c1)

    def trsm(self, r0, r1, B):
        """B <- L^-1 B, reduced, for the unit lower triangle of the rows
        r0:r1 in their pivot columns.  The rows are whole leaves: the range
        is split at the leaf boundary nearest its middle, and a single leaf
        applies its stored inverse."""
        i, j = bisect_right(self.leaves, r0), bisect_left(self.leaves, r1)
        if i == j:
            self.reduce(B)
            B[...] = self.mul(self.lower_inverses[r0], B)
            return
        h = min(self.leaves[i:j], key=lambda s: abs(2 * s - r0 - r1))
        self.trsm(r0, h, B[..., : h - r0, :])
        self.update(B[..., h - r0 :, :], h, self.pivots[r0:h], B[..., : h - r0, :])
        self.trsm(h, r1, B[..., h - r0 :, :])

    def leaf(self, r, c0, c1):
        """Eliminate the panel of columns c0:c1 in the rows r:, whose entries
        may be unreduced: the block path (`top_block`) takes the pivots it
        can; at the column where it stops, the step loop (`step`) takes that
        one column, searching the whole height of the panel, and the block
        path resumes right of it, below the pivots found so far.  No work is
        redone: each of them leaves every row of the panel updated by its
        pivots.  Then the inverse of the leaf's unit lower triangle is
        stored for the TRSMs of its pivot rows."""
        m, w = self.X.shape[-2], c1 - c0
        P = self.X[..., r:, c0:c1]
        k = j = 0
        while j < w and r + k < m:
            g = self.top_block(P[..., k:, j:], r + k)
            self.pivots += range(c0 + j, c0 + j + g)
            k, j = k + g, j + g
            if j < w and r + k < m:
                k += self.step(P, r, k, c0, j)
                j += 1
        if k:
            self.leaves.append(r)
            self.lower_inverses[r] = self.unit_inverse(np.tril(self.block(r, r + k, self.pivots[r:]), -1))
        return k

    def top_block(self, Q, r0):
        """The block path of a leaf on Q (rows x w), the part of its panel
        right of the columns done and below the pivots found, which starts
        at row r0 of X.  Returns g, the number of pivots it takes: the first
        g columns of Q.

        The top block T = Q[:t], t = min(rows, w), of every slice is
        factored in int64 by the step loop's own rule with no search below
        T: at column i, a slice with a zero diagonal entry swaps up its
        first nonzero row of T (whole rows of X and their entries of
        `order`, as `step` does), and the block stops at the first column
        where a slice has none in T.  Every row of T below the pivots holds
        their updates, so these are the step loop's pivots and swaps; where
        the block stops, `step` searches the whole column and decides which
        slices die.  An entry of T is reduced mod its slice's prime where it
        becomes an operand, in a pivot row or column, and all of T every
        `lag` pivots: a product of two residues is at most (p - 1)^2 < 2^62,
        and an entry that takes `lag` of them stays above -2^63, so the
        block is exact for every p < 2^31.

        T, which holds U11, L11 and the updated rows below them, is written
        back reduced.  The multipliers of the rows below T are then
        L21 = A21 U11^-1, one product, with U11 = D (I + M) for D its
        diagonal, so that U11^-1 = (I + M)^-1 D^-1 by `unit_inverse`; if
        g < w, one rank-g update of the rest of the panel follows."""
        t = min(Q.shape[-2:])
        p = np.array(self.primes, dtype=np.int64).reshape(-1, 1, 1)
        top = max(self.primes) - 1
        lag = ((1 << 63) - 1 - top) // max(1, top * top)
        Q3 = Q if Q.ndim == 3 else Q[None]
        T = Q3[:, :t].astype(np.int64)
        inverses = []
        for i in range(t):
            if i % lag == 0:
                T[:, i:, i:] %= p
            T[:, i:, i : i + 1] %= p
            D = T[:, i, i].tolist()
            if 0 in D:
                # the step loop's swaps, where each slice's first nonzero row is in T
                first = T[:, i:, i].astype(bool).argmax(axis=-1).tolist()
                if not all(T[b, i + s, i] for b, s in enumerate(first)):
                    break
                for b, s in enumerate(first):
                    if s:
                        self.swap(b, r0 + i, s)
                        T[b, [i, i + s]] = T[b, [i + s, i]]
                D = T[:, i, i].tolist()
            T[:, i : i + 1, i + 1 :] %= p
            inverses.append([_inverse(d, q) for d, q in zip(D, self.primes)])
            col = T[:, i + 1 :, i : i + 1]
            col *= np.array(inverses[-1], dtype=np.int64).reshape(p.shape)
            col %= p
            T[:, i + 1 :, i + 1 :] -= col * T[:, i : i + 1, i + 1 :]
        g = len(inverses)
        if g:
            T[:, g:, g:] %= p
            Q3[:, :t] = T
            self.reduce(Q3[:, :t])
        if g and t < Q.shape[-2]:
            d = np.array(inverses).T.reshape(Q.shape[:-2] + (g, 1))
            M = np.triu(self.mul(d, Q[..., :g, :g]), 1)
            U_inverse = self.mul(self.unit_inverse(M), np.eye(g) * d.swapaxes(-1, -2))
            L = Q[..., t:, :g]
            self.reduce(L)
            L[...] = self.mul(L, U_inverse)
            if g < Q.shape[-1]:
                Q[..., t:, g:] -= self.product(L, Q[..., :g, g:])
        return g

    def swap(self, b, t, i):
        # rows t and t + i of slice b, whole, and their entries of `order`
        self.slices[b, [t, t + i]] = self.slices[b, [t + i, t]]
        self.order[b, [t, t + i]] = self.order[b, [t + i, t]]

    def step(self, P, r, k, c0, j):
        """The step loop on column j of the leaf panel P (the rows r:, the
        columns from c0), below its k pivots: reduce the column; where a
        slice has a zero in the pivot row, swap up its first nonzero row
        below (`swap`); scale the multipliers below the pivot, one rank-1
        update of the panel to its right.  Returns 1 for a pivot, 0 for
        none.

        A column is a pivot if a live slice has a nonzero in it.  A live
        slice without one has a lexicographically later pivot tuple: it
        dies, and runs on with a unit pivot in place of the zero, so that
        every slice stays invertible on the common pivots."""
        S = self.slices
        col = P[..., k:, j : j + 1]
        self.reduce(col)
        t = r + k
        D = S[:, t, c0 + j : c0 + j + 1].tolist()
        if [0.0] in D:
            for b, i in enumerate(col.astype(bool).argmax(axis=-2).ravel().tolist()):
                if i:
                    self.swap(b, t, i)
            D = S[:, t, c0 + j : c0 + j + 1].tolist()
        if [0.0] in D:
            found = np.array(D)[:, 0] != 0
            if not (found & self.live).any():
                return 0
            self.live &= found
            S[~found, t, c0 + j] = 1
            D = [[d or 1.0] for d, in D]
        f = P[..., k + 1 :, j : j + 1]
        self.mul(f, self.inverses(D), out=f)
        if j + 1 < P.shape[-1]:
            row = P[..., k : k + 1, j + 1 :]
            self.reduce(row)
            P[..., k + 1 :, j + 1 :] -= self.product(f, row)
        self.pivots.append(c0 + j)
        return 1

    def solve_upper(self, k0, k1, B, inverses):
        """B <- T^-1 B, reduced, for the upper triangle T of the rows k0:k1
        in their pivot columns, with `inverses` the inverses of all the
        pivots: the lower half of the range, one update of the upper half's
        right-hand sides, the upper half.  At most `_LEAF` rows scale T and
        B by the inverses of their pivots, so T becomes unit, and apply the
        inverse of the unit T."""
        if k1 - k0 > _LEAF:
            h = (k0 + k1) // 2
            self.solve_upper(h, k1, B[..., h - k0 :, :], inverses)
            self.update(B[..., : h - k0, :], k0, self.pivots[h:k1], B[..., h - k0 :, :])
            self.solve_upper(k0, h, B[..., : h - k0, :], inverses)
            return
        d = inverses[..., k0:k1, :]
        T = self.unit_inverse(np.triu(self.mul(d, self.block(k0, k1, self.pivots[k0:k1])), 1))
        self.reduce(B)
        B[...] = self.mul(T, self.mul(d, B))


def _inverse(d, p):
    # 1/d mod p in the symmetric range, as a float, for an integer-valued d
    v = pow(int(d) % p, -1, p)
    return float(v - p if v > p // 2 else v)


def _moduli(p):
    # the primes of a call: a single prime, or a sequence for a stack
    primes = [p] if np.ndim(p) == 0 else list(p)
    for q in primes:
        if not 2 <= q < _INT64_P:
            raise ValueError(f"the GF(p) kernel needs 2 <= p < 2^31, got p = {q}")
    return primes


def _int64_exact(A, B):
    """Whether B, numpy's int64 conversion of A, holds A's entries exactly.
    numpy truncates a float or a Fraction there and wraps a uint64 above
    2^63, so A must be an array whose dtype casts safely to int64, or rows
    whose entries sum to an int: one float or Fraction anywhere makes the
    sum one too, in one C-level pass over the rows (a type check per entry
    costs several times more)."""
    if isinstance(A, np.ndarray):
        return np.can_cast(A.dtype, np.int64) or not A.size
    total = sum(map(sum, A)) if B.ndim == 2 else sum(A) if B.ndim == 1 else A
    return isinstance(total, (int, np.integer))


def _check_reduced(X, primes):
    """ValueError unless every entry of the working matrix or stack X is an
    integer in [0, p) of its slice's prime.  One pass in blocks of columns,
    which X holds contiguously, of at most 2^15 entries each, so a block
    stays in cache for its three tests: no temporary of X's size, and about
    the cost of one min and one max over X."""
    if not X.size:
        return
    step = max(1, (1 << 15) * X.shape[-1] // X.size)
    for c in range(0, X.shape[-1], step):
        block = X[..., c : c + step]
        if (block != np.floor(block)).any():
            raise ValueError("GF(p) matrix entries must be integers")
        if block.min() < 0 or (block.max(axis=(-2, -1)) >= primes).any():
            raise ValueError("a float64 matrix or stack must be reduced to [0, p)")


def _cup_mod_p(A, p, order=None):
    """Column-recursive CUP elimination over GF(p) in float64, the scheme of
    FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008; rank
    profiles after Dumas, Pernet and Sultan, ISSAC 2013).  A column range is
    factored by factoring its left half, solving the unit lower triangle of
    the left half's pivots against the right half's top rows (TRSM), updating
    the rows below by one matrix product, and factoring the right half.
    Ranges of at most `_LEAF` columns are leaves (`_Elimination.leaf`): a
    leaf factors its top block in int64, takes the multipliers below it in
    one product, and steps pivot by pivot, with a search down the whole
    column, only at a column where the block meets no nonzero; row swaps
    move whole rows.  Each leaf then inverts its unit lower triangle once,
    and every TRSM over its pivot rows is one product with that inverse.

    A is a matrix and p a prime, a batch of one, or a stack (B x m x n) and
    a sequence of B primes, eliminated in one pass by stacked products.  Here
    the four GF(p) functions check p (2 <= p < 2^31, else ValueError, on an
    empty A too) and take their input.  A float64 A laid out by
    `_column_major`, slice b holding integers in [0, p[b]), is eliminated in
    place; any other float64 A (one with a fraction too), or a stack of
    another dtype, raises ValueError.
    With one prime, integers are copied into a float64 working matrix: an
    integer array or rows of ints (a flat row is 1 x n), reduced by numpy,
    or rows with an int beyond int64, reduced row by row with `%`.  So do
    rows with a float or a Fraction in them and arrays whose dtype does not
    cast safely to int64 (float, object, uint64); an integral entry is read
    as its value, and one with a fraction raises ValueError.
    An empty A (0 x n or m x 0) has no pivots.  The pivots are common: a
    column is a pivot if a live slice has a nonzero in it, and each slice
    swaps up its own first nonzero row (see `_Elimination.leaf`).  The
    slices that have a nonzero at every pivot stay live, and the pivots are
    their column rank profile; every other slice has a lexicographically
    later one (an unlucky prime), and its result is meaningless.

    Every float64 product, in the updates, the TRSMs, the inverses, a
    leaf's multipliers and its rank-g and rank-1 updates, goes through
    `_product`: direct while `_float_exact` holds for the largest prime,
    split otherwise (p < 2^31 and min(m, n) < `_SPLIT_K`, else ValueError).
    An entry is reduced only where it becomes an operand: in a leaf's top
    block (in int64), as the block's A21, as a step's pivot column or pivot
    row, and as a right-hand side of a TRSM.  Each pivot adds at most one
    product to an entry, so the entry stays where `_float_exact` holds.

    Returns (X, pivots, live): X the eliminated matrix or stack, pivots the
    common column rank profile (the pivots of the RREF), live the bool mask
    of the slices it belongs to (one entry for a matrix).  The first
    len(pivots) rows of each slice hold U in the symmetric range, except
    that the multipliers of the unit lower factor L are stored below each
    pivot.  `order`, if given an int array of A's shape less the last axis,
    receives each slice's row order: row i of the slice is row order[i] of
    A.  The first len(pivots) of a live slice are independent mod its prime;
    in that order a lucky prime that divides no pivot minor never swaps."""
    primes = _moduli(p)
    if getattr(A, "dtype", None) == np.float64 or np.ndim(p):
        X = A
        if X.ndim < 2 or X.shape[:-2] != np.shape(p) or X.dtype != np.float64 or X.size and X.strides[-2] != 8:
            raise ValueError("a float64 matrix, or a stack of one slice per prime, must be column-major")
        _check_reduced(X, primes)
    else:
        try:
            B = np.asarray(A, dtype=np.int64)
        except OverflowError:
            B = None
        if B is not None and B.ndim > 2:
            raise ValueError("matrix required")
        if B is None or not _int64_exact(A, B):
            # ints beyond int64 (a big-int % per entry costs less than limbs for
            # one prime), or entries numpy truncated: their residues keep a fraction
            rows = A.tolist() if isinstance(A, np.ndarray) else A
            rows = [rows] if np.ndim(rows[0]) == 0 else rows
            X = _column_major((len(rows), len(rows[0])))
            for i, row in enumerate(rows):
                X[i] = [v % p for v in row]
            _check_reduced(X, primes)
        else:
            A = np.atleast_2d(B)
            # one pass checks 0 <= A < p: a negative entry reads as a huge uint64
            if A.size and A.view(np.uint64).max() >= p:
                A = np.mod(A, p)
            X = A.astype(np.float64, order="F")
    m, n = X.shape[-2:]
    direct = _float_exact(m, n, max(primes))
    if not direct and min(m, n) >= _SPLIT_K:
        raise ValueError(f"a {m} x {n} matrix is beyond the split products' inner dimension bound")
    order = np.empty(X.shape[:-1], dtype=np.intp) if order is None else order
    order[...] = np.arange(m)
    elimination = _Elimination(X, primes, direct)
    elimination.order = order.reshape(len(primes), m)
    elimination.factor(0, 0, n)
    return X, elimination.pivots, elimination.live


def _backsolve(U, piv, p, free):
    """Y = T^-1 U[:, free] mod p, with T = U[:, piv] the upper triangle of
    the pivot columns, as float64 (rank x len(free)) in the symmetric range.
    U is read only on and right of each pivot, so the compact storage of
    `ref_mod_p` serves.  Row k of the canonical RREF is the unit vector of
    pivot k plus Y[k] on the free columns.  A stack U (B x rank x n) with a
    sequence of B primes, as in `_cup_mod_p`, gives the stack of its
    slices' Y.

    Blocked like the CUP's TRSM (`_Elimination.solve_upper`), with
    `_product`'s products in the regime of `_float_exact` for U's shape and
    the largest prime: a right-hand side starts reduced and takes at most
    one product per pivot below it between two reductions."""
    r = len(piv)
    Y = U[..., free]
    if r and len(free):
        primes = _moduli(p)
        elimination = _Elimination(U, primes, _float_exact(r, U.shape[-1], max(primes)))
        elimination.pivots = piv
        D = elimination.slices[:, np.arange(r), piv].tolist()
        elimination.solve_upper(0, r, Y, elimination.inverses(D))
    return Y


def _free_columns(piv, n):
    # a mask, not np.setdiff1d, whose first call imports numpy.ma (about 1.5 MB)
    free = np.ones(n, dtype=bool)
    free[piv] = False
    return np.flatnonzero(free)


def ref_mod_p(A, p):
    """Forward row echelon form over GF(p), 2 <= p < 2^31 (ValueError
    otherwise), by the float64 CUP elimination `_cup_mod_p`.  Returns
    (U, pivots): pivots the column rank profile, the pivots of `rref_mod_p`,
    and U float64 (rank x n) in compact CUP storage: entries in the
    symmetric range |x| <= p // 2, row k zero left of pivots[k] except in
    earlier pivot columns, which hold the multipliers of the unit lower
    factor L.  The echelon form is the entries on and right of each pivot;
    `_backsolve` reads only those."""
    X, pivots, _ = _cup_mod_p(A, p)
    return X[: len(pivots)], pivots


def rref_mod_p(A, p, *, order=None):
    """RREF over GF(p), 2 <= p < 2^31 (ValueError otherwise): the CUP
    elimination plus the blocked back-substitution.  Returns (R, pivots): R
    an int64 array of the rank nonzero rows, entries in [0, p).

    A stack (B x m x n, see `_cup_mod_p`) with a sequence of B primes is
    eliminated in one pass, and returns (Y, pivots, live): pivots common to
    the slices of the bool mask live, and Y int64 (B x rank x (n - rank)),
    the free columns of each slice's RREF in [0, p[b]).  A canonical RREF
    has the identity in its pivot columns, so Y[b] is the whole RREF of a
    live slice.  A slice that is not live has a lexicographically later
    pivot tuple (an unlucky prime), and its Y is meaningless.  `order`
    receives the row order of each slice, as in `_cup_mod_p`."""
    X, piv, live = _cup_mod_p(A, p, order)
    n = X.shape[-1]
    free = _free_columns(piv, n)
    Y = _backsolve(X[..., : len(piv), :], piv, p, free)
    if X.ndim == 3:
        return np.mod(Y, np.array(p, dtype=np.float64)[:, None, None]).astype(np.int64), piv, live
    R = np.zeros((len(piv), n), dtype=np.int64)
    R[np.arange(len(piv)), piv] = 1
    R[:, free] = np.mod(Y, p)
    return R, piv


def nullspace_mod_p(A, p):
    """Canonical right-nullspace basis over GF(p), 2 <= p < 2^31 (ValueError
    otherwise), as an int64 array (nullity x n): `ref_mod_p` plus the
    back-substitution of the free columns only, so the RREF is never
    formed: v[f] = 1 on its free column f, v[pivot_i] = -R[i][f].  A
    float64 A is eliminated in place (see `_cup_mod_p`)."""
    U, piv = ref_mod_p(A, p)
    n = U.shape[1]
    free = _free_columns(piv, n)
    N = np.zeros((len(free), n), dtype=np.int64)
    N[np.arange(len(free)), free] = 1
    N[:, piv] = np.mod(-_backsolve(U, piv, p, free).T, p)
    return N


def rank_mod_p(A, p):
    """Rank over GF(p), 2 <= p < 2^31 (ValueError otherwise): the pivot
    count of the CUP elimination, with no back-substitution."""
    return len(_cup_mod_p(A, p)[1])


# ---------------------------------------------------------------------------
# certified rational nullspace


def _integer_row(row):
    # one pass over the types, not a generator step per entry
    return set(map(type, row)) <= {int}


def clear_denominators(row):
    """Scale a row of Fractions/ints to integers (common denominator).  A
    row of ints, such as a QQ row of `conditions.point_condition_rows`, is
    returned as it is."""
    if _integer_row(row):
        return row
    fr = [Fraction(v) for v in row]
    d = lcm(*(f.denominator for f in fr)) if fr else 1
    return [int(f * d) for f in fr]


def _lift_primes(m, n):
    """The primes of the multimodular path for an m x n matrix, on demand and
    descending from the largest p with `_float_exact(m, n, p)`, so no product
    is split; or from `_PRIME_FLOOR`, for min(m, n) above about 2^13."""
    top = 2 * isqrt(_F51 // min(m, n)) + 1  # at least the largest such p
    while not _float_exact(m, n, top):
        top -= 1
    return filter(_is_prime, range(max(top, _PRIME_FLOOR), 1, -1))


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


class RationalNullspace(NamedTuple):
    """Result of the certified multi-prime nullspace: exact basis (list of
    Fraction vectors, identity pattern on the free columns) plus the certified
    rank of the input matrix."""

    basis: list
    rank: int
    primes_used: list


def nullspace_rational(rows):
    """Certified exact right-nullspace over ℚ.

    rows: list of rows of ints/Fractions.  Returns a RationalNullspace whose
    basis is exact and verified: every vector is checked against the integer
    matrix, and the count matches the best mod-p rank lower bound, which pins
    the rank of the matrix exactly.

    The first prime is eliminated alone, then the primes go in stacks of 2,
    4, ... slices (`_eliminations`) in the row order of the first prime's
    pivot steps, which changes no slice's RREF, pivots or liveness.  The
    reference group, whose free blocks Y are lifted into the basis
    (`_canonical_basis`), is the primes with the largest rank and the
    lexicographically smallest pivot tuple: a prime can only lower the rank
    or push pivots later, so that is the pattern over ℚ.  After each stack
    of its key, one `crt_combine` extends the group's combined Y, column by
    column, by the Y of all the stack's live slices, and one probe entry is
    reconstructed; only if it passes is all of Y reconstructed.  A new
    reference group starts the combination afresh.
    The probe entry of Y is the last one that failed to reconstruct.  Plain
    reconstruction succeeds on about 60% of random residues, so the probe
    is accepted only with a margin, |n| d 2^20 < m (Monagan's
    maximal-quotient criterion, ISSAC 2004), which a random residue meets
    with probability of order 2^-20 log m; the full reconstruction and the
    exact check remain the certificate.  Rows that are already integer,
    such as the cleared rows `solve_nullspace` passes on, are used as they
    are.  primes_used lists every prime eliminated, in order.
    """
    int_rows = [r if _integer_row(r) else clear_denominators(r) for r in rows]
    int_rows = [r for r in int_rows if any(r)]
    if not rows and not int_rows:
        raise ValueError("ncols unknown for an empty matrix; use nullspace()")
    n = len(rows[0])
    if not int_rows:
        return RationalNullspace(identity(n, rationals()), 0, [])
    best = values = None  # pivots tuple of the reference group, and its combined Y, column by column
    modulus = probe = 0  # product of the primes in values, and the flat index of the probe entry
    used = []
    primes = islice(_lift_primes(len(int_rows), n), _MAX_PRIMES)
    for stack, Y, piv, live in _eliminations(int_rows, primes):
        used += stack
        if len(piv) == n:
            # full column rank certified: rank mod p is a lower bound
            return RationalNullspace([], n, used)
        key = tuple(piv)
        if best is None or (-len(key), key) < (-len(best), best):
            best, values, probe = key, None, 0
        if key != best or not key:
            continue  # unlucky primes (rank dropped or pivots moved right), or rows that vanish mod p
        residues = [y.T.ravel() for y in compress(Y, live)]
        moduli = list(compress(stack, live))
        if values is not None:  # Garner's scheme extends the last combination
            residues.insert(0, values)
            moduli.insert(0, modulus)
        values, modulus = crt_combine(residues, moduli), prod(moduli)
        f = rational_reconstruct(values[probe], modulus)
        if f is None or abs(f.numerator) * f.denominator << _PROBE_MARGIN_BITS >= modulus:
            continue
        rank = len(key)
        flat = list(takewhile(lambda f: f is not None, reconstruct_rationals(values, modulus, rank)))
        if len(flat) < len(values):
            probe = len(flat)
            continue
        columns = [flat[i : i + rank] for i in range(0, len(flat), rank)]
        free = _free_columns(piv, n).tolist()
        if _verified(columns, piv, free, int_rows):
            return RationalNullspace(_canonical_basis(columns, piv, free, rationals()), rank, used)
    raise RuntimeError("rational nullspace did not stabilize")


def _eliminations(int_rows, primes):
    """The eliminations of the lift, by `rref_mod_p` on stacks of the
    integer matrix mod the next primes: the first prime alone, then stacks
    of 2, 4, ... up to `_STACK_ENTRIES` // (m n) slices (at most
    `_MAX_STACK`; eight for 230 x 231), a stack reusing the float64 slices
    of the last.  Limbs are reduced straight into the slices.  After the
    first prime, which sets the first reference group, they are put once in
    the row order it recorded, its pivot rows first, so the later lucky
    primes skip the pivot search.  Every row stays in every stack: a stack
    of higher rank can still replace an unlucky first prime.  Yields
    (primes, Y, pivots, live) per stack, as the stacked `rref_mod_p`
    returns them."""
    limbs, negative = _split_limbs(int_rows)
    _, m, n = limbs.shape
    cap = max(1, min(_MAX_STACK, _STACK_ENTRIES // (m * n)))
    X = _column_major((cap, m, n))
    order = np.empty((cap, m), dtype=np.intp)
    size, reorder = 1, True
    while stack := list(islice(primes, size)):
        S = X[: len(stack)]
        for b, p in enumerate(stack):
            S[b] = _reduce_limbs(limbs, negative, p)
        yield (stack, *rref_mod_p(S, stack, order=order[: len(stack)]))
        if reorder:
            limbs, negative, reorder = limbs[:, order[0]], negative[order[0]], False
        size = min(2 * size, cap)


def _verified(columns, pivots, free, int_rows):
    """Exact check of a lifted Y: each `_canonical_basis` vector, scaled by
    the lcm of its denominators, is orthogonal to every row: row[f] * scale
    is the row's pivot entries times the scaled column of Y."""
    pivot_entries = [[row[c] for c in pivots] for row in int_rows]
    for f, column in zip(free, columns):
        scale = lcm(*(y.denominator for y in column))
        w = [y.numerator * (scale // y.denominator) for y in column]
        for row, entries in zip(int_rows, pivot_entries):
            if sum(map(mul, entries, w)) != row[f] * scale:
                return False
    return True
