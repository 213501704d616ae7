"""Linear systems of hypersurfaces.

A LinearSys is a subspace of the forms of fixed (multi)degree on an ambient.
A complete system is a flag and a count; every other system is stored as
coefficient rows over a list of monomials, and its sections are a cache
built from them on demand.  Systems produced by imposing conditions can
carry a certified section count together with a deferred factory for the
rows.

Every system stores a basis: its sections (the rows of its matrix) are
linearly independent, so nsections() == len(sections()) == len(matrix()).
Input from outside goes through one constructor core, which checks each
monomial once (one exponent per variable, none negative, none repeated, all
of the system's degree) and reduces the rows: independent rows are kept
verbatim, dependent ones are replaced by their echelon rows.

Matrix columns follow the grevlex-descending monomial order; echelonization
selects pivots scanning columns right to left (smallest monomial first), and
the echelon rows are kept in pivot-discovery order.

Subspace operations stack the two bases on their union monomial support and
eliminate with `linalg.rank`/`rref` (over GF(p), on the numpy kernel at the
sizes of `linalg.gf_numpy_path`): containment and equality of spans are rank
comparisons, and `complement` (hence `trace`) returns the echelon rows of
self at the pivot columns the subsystem's echelon form lacks.  A complete
self's echelon form is the unit rows, so there `complement` eliminates only
the subsystem and returns the monomials at the columns it leaves free.
"""

from __future__ import annotations

from .fields import FieldElement, _integer
from .linalg import identity, matmul, rank, rref
from .poly import MultiPoly, grevlex_key


class LinearSys:
    __slots__ = (
        "ambient",
        "degree",
        "is_complete",
        "_sections",
        "_monomials",
        "_matrix",
        "_nsections",
        "_solver",
        "_pending",
    )

    def __init__(self, ambient, degree):
        self.ambient = ambient
        self.degree = ambient.degree_tuple(degree)
        self.is_complete = False
        self._sections = None
        self._monomials = None
        self._matrix = None
        self._nsections = None
        self._solver = None
        self._pending = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def complete(cls, ambient, degree):
        """The full system of forms of the given degree.  O(1): nothing
        proportional to the monomial count is allocated until queried."""
        L = cls(ambient, degree)
        L.is_complete = True
        L._nsections = ambient.monomial_count(L.degree)
        return L

    @classmethod
    def from_sections(cls, ambient, sections, degree=None, change_basis=False):
        """System spanned by the sections: their coefficient rows over their
        joint support, sorted grevlex-descending.  Independent sections are
        kept as the cached sections; with `change_basis`, or when they are
        dependent, the stored basis is their echelon form."""
        sections = list(sections)
        for s in sections:
            if not isinstance(s, MultiPoly) or s.ring != ambient.ring:
                raise ValueError("sections must be polynomials on the ambient ring")
        support = sorted({e for s in sections for e in s.terms}, key=grevlex_key, reverse=True)
        zero = ambient.field.zero
        rows = [[s.terms.get(e, zero) for e in support] for s in sections]
        return cls._from_rows(ambient, rows, support, degree, change_basis, sections)

    @classmethod
    def from_matrix(cls, ambient, matrix, monomials, degree=None):
        """System spanned by matrix rows over the given monomial list (exponent
        tuples of Python or numpy ints), kept verbatim when independent;
        sections materialize on demand as row * monomials."""
        field = ambient.field
        rows = [[field.coerce(v) for v in row] for row in matrix]
        mons = [tuple(_integer(x, "exponents") for x in e) for e in monomials]
        return cls._from_rows(ambient, rows, mons, degree)

    @classmethod
    def _from_rows(cls, ambient, rows, monomials, degree, echelon=False, sections=None):
        """The core of `from_sections`, `from_matrix` and `empty`.  The
        degree, if not given, is the largest total degree of the monomials
        (affine) or the block degrees of the first.  Every monomial must fit
        it and appear once, and no row may be zero.  The rows are stored
        verbatim, with `sections` as their cache, unless they are dependent
        or `echelon` asks for the echelon form."""
        if degree is None:
            if not monomials:
                raise ValueError("cannot infer the degree of a system without monomials")
            affine = ambient.kind == "affine"
            degree = max(map(sum, monomials)) if affine else ambient.block_degrees(monomials[0])
        L = cls(ambient, degree)
        if len(set(monomials)) != len(monomials):
            raise ValueError("repeated monomial")
        for e in monomials:
            if not ambient.monomial_fits_degree(e, L.degree):
                n = ambient.total_vars()
                raise ValueError(f"monomial {e} does not fit degree {degree} on {n} variables")
        field = ambient.field
        for row in rows:
            if len(row) != len(monomials):
                raise ValueError("matrix width does not match the monomial list")
            if all(field.is_zero(v) for v in row):
                raise ValueError("zero row would give a zero section")
        R, _ = rref(rows, field, reverse_cols=True)
        verbatim = not echelon and len(R) == len(rows)
        L._matrix = rows if verbatim else R
        L._sections = sections if verbatim else None
        L._monomials = monomials
        L._nsections = len(R)
        return L

    @classmethod
    def empty(cls, ambient, degree):
        return cls._from_rows(ambient, [], [], degree, sections=[])

    @classmethod
    def from_nullspace(cls, parent, vectors, nsections=None, pending=None):
        """Subsystem of `parent` spanned by independent coefficient-space
        vectors (each of length parent.nsections()); no vectors give the
        empty system.  With `pending`, the vectors are produced lazily by the
        callable and only the certified count `nsections` is stored."""
        if pending is None and not vectors:
            return cls.empty(parent.ambient, parent.degree)
        L = cls(parent.ambient, parent.degree)
        if pending is not None:
            L._nsections = nsections
            L._pending = (pending, parent)
            return L
        L._set_rows(parent, vectors)
        L._nsections = len(L._matrix)
        return L

    # -- materialization ----------------------------------------------------------

    def _set_rows(self, parent, vectors):
        """Store the combinations vec . parent sections as rows over the
        parent's monomials."""
        field = self.ambient.field
        rows = [[field.coerce(x) for x in v] for v in vectors]
        self._matrix = rows if parent.is_complete else matmul(rows, parent.matrix(), field)
        self._monomials = list(parent.monomials())

    def _run_pending(self):
        factory, parent = self._pending
        self._set_rows(parent, factory())
        self._pending = None
        if len(self._matrix) != self._nsections:
            raise RuntimeError("deferred basis does not match the certified count")

    def monomials(self):
        """Monomial support (exponent tuples, grevlex-descending)."""
        if self._monomials is None:
            if self.is_complete:
                self._monomials = self.ambient.monomial_basis(self.degree)
            else:
                self._run_pending()
        return self._monomials

    def matrix(self):
        """Coefficient matrix (rows = sections) over monomials(), raw values."""
        if self._matrix is None:
            if self.is_complete:
                self._matrix = identity(self.nsections(), self.ambient.field)
            else:
                self._run_pending()
        return self._matrix

    def sections(self):
        if self._sections is None:
            ring = self.ambient.ring
            mons = self.monomials()
            if self.is_complete:
                self._sections = [ring.monomial(e) for e in mons]
            else:
                field = ring.field
                self._sections = [
                    MultiPoly(
                        ring,
                        {e: v for e, v in zip(mons, row) if not field.is_zero(v)},
                    )
                    for row in self.matrix()
                ]
        return self._sections

    def nsections(self):
        """Size of the basis, stored at construction: no basis is materialized
        for it (complete systems, certified results)."""
        return self._nsections

    def dimension(self):
        return self.nsections() - 1

    def is_empty(self):
        return self.nsections() == 0

    # -- coefficient and polynomial maps ----------------------------------------------

    def coefficient_map(self):
        """Solver sending a member polynomial to coefficients in the stored
        basis; built once and cached."""
        if self._solver is None:
            self._solver = CoefficientSolver(self)
        return self._solver

    def polynomial_map(self, coefficients):
        secs = self.sections()
        if len(coefficients) != len(secs):
            raise ValueError("coefficient vector length does not match the basis")
        total = self.ambient.ring.zero()
        for c, s in zip(coefficients, secs):
            total = total + s * c
        return total

    def __contains__(self, f):
        if not isinstance(f, MultiPoly):
            return False
        try:
            self.coefficient_map().apply(f)
            return True
        except ValueError:
            return False

    def random_member(self, rng, lo=-10, hi=10):
        """Random combination with integer coefficients in [lo, hi]; resamples
        an all-zero draw up to 16 times."""
        if self.nsections() == 0:
            raise ValueError("random member of an empty system")
        field = self.ambient.field
        mons = self.monomials()
        ring = self.ambient.ring
        M = None if self.is_complete else self.matrix()
        for _ in range(16):
            terms = {}
            if M is None:
                # complete system: a coefficient per basis monomial, no matrix
                for e in mons:
                    c = field.from_int(rng.randint(lo, hi))
                    if not field.is_zero(c):
                        terms[e] = c
            else:
                for row in M:
                    c = field.from_int(rng.randint(lo, hi))
                    if field.is_zero(c):
                        continue
                    for e, v in zip(mons, row):
                        if not field.is_zero(v):
                            cur = field.add(terms.get(e, field.zero), field.mul(c, v))
                            if field.is_zero(cur):
                                terms.pop(e, None)
                            else:
                                terms[e] = cur
            if terms:
                return MultiPoly(ring, terms)
        raise ValueError("all random draws were zero (coefficient range too small?)")

    # -- subspace operations ---------------------------------------------------------

    def _check_compatible(self, other):
        if self.ambient != other.ambient or self.degree != other.degree:
            raise ValueError("linear systems on different ambients or degrees")

    def same_span(self, other):
        self._check_compatible(other)
        _, A, B = _aligned_pair(self, other)
        return len(A) == len(B) == rank(A + B, self.ambient.field)

    def is_subsystem_of(self, other):
        """True if span(self) is contained in span(other)."""
        self._check_compatible(other)
        _, A, B = _aligned_pair(self, other)
        return rank(A + B, self.ambient.field) == len(B)

    def complement(self, sub):
        """A subsystem C with span(C) + span(sub) = span(self) (direct sum).

        Its basis is the echelon rows of self (pivots scanned right to left)
        whose pivot columns are not pivots of sub's echelon form; for a
        complete self these are the monomials at those columns."""
        self._check_compatible(sub)
        field = self.ambient.field
        if self.is_complete:
            # self's echelon form is the unit rows and holds every sub: keep
            # those at the columns sub's echelon form leaves free; a sub of
            # self's size spans it (and may be complete, with no matrix)
            if sub.nsections() == self.nsections():
                return LinearSys.empty(self.ambient, self.degree)
            mons = self.monomials()
            B = _padded_rows(sub, {e: i for i, e in enumerate(mons)}, len(mons))
            taken = set(rref(B, field, reverse_cols=True)[1])
            unit = [field.zero] * len(mons)
            free = [c for c in reversed(range(len(mons))) if c not in taken]
            comp = [unit[:c] + [field.one] + unit[c + 1 :] for c in free]
            return LinearSys.from_matrix(self.ambient, comp, mons, degree=self.degree)
        mons, A, B = _aligned_pair(self, sub)
        # with sub inside self, the stacked echelon form is self's own
        R, piv = rref(A + B, field, reverse_cols=True)
        if len(piv) != len(A):
            raise ValueError("complement argument is not a subsystem")
        taken = set(rref(B, field, reverse_cols=True)[1])
        comp = [row for row, c in zip(R, piv) if c not in taken]
        if not comp:
            return LinearSys.empty(self.ambient, self.degree)
        return LinearSys.from_matrix(self.ambient, comp, mons, degree=self.degree)

    def trace(self, scheme):
        """System induced on a subscheme: the complement of the subsystem of
        members vanishing on it, with the basis `complement` returns.
        Tracing on the whole ambient (zero ideal) spans self; tracing on the
        empty scheme (unit ideal) is empty."""
        from .conditions import impose_containment

        J = impose_containment(self, scheme)
        return self.complement(J)

    # -- base ideal and reduction ------------------------------------------------------

    def base_ideal_generators(self):
        """The basis sections; these generate the ideal whose zero locus is
        the base scheme."""
        return list(self.sections())

    def reduction(self):
        """(reduced system, common factor): divides out the monic gcd of all
        sections, leaving the moving part."""
        secs = self.base_ideal_generators()
        if not secs:
            raise ValueError("reduction of an empty system")
        g = secs[0]
        for s in secs[1:]:
            g = poly_gcd(g, s)
            if g.total_degree() == 0:
                break
        g = g.monic()
        if g.total_degree() == 0:
            return self, self.ambient.ring.one()
        reduced = [s.divide_exact(g) for s in secs]
        return LinearSys.from_sections(self.ambient, reduced), g

    # -- serialization --------------------------------------------------------------------

    def to_json(self):
        """The ambient, the degree, and either the complete flag or the
        matrix over its monomials; `from_json` also reads a list of
        sections."""
        degree = list(self.degree) if self.ambient.kind == "product" else self.degree[0]
        out = {"ambient": self.ambient.to_json(), "degree": degree}
        if self.is_complete:
            out["complete"] = True
        else:
            field = self.ambient.field
            ring = self.ambient.ring
            out["matrix"] = [[field.to_str(v) for v in row] for row in self.matrix()]
            out["monomials"] = [str(ring.monomial(e)) for e in self.monomials()]
        return out

    @staticmethod
    def from_json(data, field=None):
        from .fields import CoefficientField

        amb_data = data["ambient"]
        if field is None:
            field = CoefficientField.from_json(amb_data["field"])
        from .ambient import Ambient

        ambient = Ambient.from_json(amb_data, field)
        degree = data["degree"]
        if data.get("complete"):
            return LinearSys.complete(ambient, degree)
        ring = ambient.ring
        if "sections" in data:
            secs = [ring.parse(s) for s in data["sections"]]
            return LinearSys.from_sections(ambient, secs, degree=degree)
        mons = [ring.parse_monomial(m) for m in data["monomials"]]
        rows = [[field.parse(v) for v in row] for row in data["matrix"]]
        return LinearSys.from_matrix(ambient, rows, mons, degree=degree)

    def __repr__(self):
        shape = "complete " if self.is_complete else ""
        return f"<{shape}linear system of degree {self.degree} with {self._nsections} section(s)>"


# ---------------------------------------------------------------------------
# helpers


def _aligned_pair(A, B):
    """Union monomial support and both coefficient matrices padded onto it."""
    mons = sorted(
        set(A.monomials()) | set(B.monomials()), key=grevlex_key, reverse=True
    )
    idx = {e: i for i, e in enumerate(mons)}
    return mons, _padded_rows(A, idx, len(mons)), _padded_rows(B, idx, len(mons))


def _padded_rows(L, idx, width):
    field = L.ambient.field
    cols = [idx[e] for e in L.monomials()]
    out = []
    for row in L.matrix():
        r = [field.zero] * width
        for c, v in zip(cols, row):
            r[c] = v
        out.append(r)
    return out


class CoefficientSolver:
    """Cached solver for expressing members in the stored section basis.

    Solves f = sum a_j s_j by reading the coefficients of f at the pivot
    columns of the RREF of [M | I], M the section matrix, and mapping them
    back through its right block E; M's rows are independent, so every pivot
    lies in M.  Every answer is verified exactly against f.
    """

    def __init__(self, system):
        self.system = system
        field = system.ambient.field
        self.field = field
        self.monomials = list(system.monomials())
        self.mono_index = {e: i for i, e in enumerate(self.monomials)}
        self._complete = system.is_complete
        if not self._complete:
            # a complete system's basis is its monomials: apply() reads f
            M, n = system.matrix(), len(self.monomials)
            R, self.pivcols = rref([row + e for row, e in zip(M, identity(len(M), field))], field)
            self.E = [row[n:] for row in R]

    def apply(self, f):
        """Coefficient vector of f in the stored basis; ValueError when f is
        not a member."""
        system = self.system
        field = self.field
        if not isinstance(f, MultiPoly) or f.ring != system.ambient.ring:
            raise ValueError("polynomial from a different ring")
        if not system.ambient.section_fits_degree(f, system.degree):
            raise ValueError("degree does not match the system")
        v = [field.zero] * len(self.monomials)
        for e, c in f.terms.items():
            j = self.mono_index.get(e)
            if j is None:
                raise ValueError("polynomial is not in the span (unsupported monomial)")
            v[j] = c
        if self._complete:
            return [FieldElement(field, x) for x in v]
        a = matmul([[v[pc] for pc in self.pivcols]], self.E, field)[0]
        # exact membership check (raw values are canonical); no sections span 0
        if (matmul([a], system.matrix(), field)[0] if a else [field.zero] * len(v)) != v:
            raise ValueError("polynomial is not in the span")
        return [FieldElement(field, x) for x in a]

    __call__ = apply


# ---------------------------------------------------------------------------
# multivariate gcd (primitive polynomial-remainder sequence), used by reduction


def poly_gcd(f, g):
    """Monic gcd of two polynomials over a field (desk scale)."""
    if f.is_zero():
        return g.monic() if not g.is_zero() else g
    if g.is_zero():
        return f.monic()
    h = _gcd_rec(f, g)
    return h.monic()


def _present_vars(f):
    out = set()
    for e in f.terms:
        for i, x in enumerate(e):
            if x:
                out.add(i)
    return out


def _gcd_rec(f, g):
    ring = f.ring
    pv = _present_vars(f) | _present_vars(g)
    if not pv:
        return ring.one()
    # eliminate the variable of largest degree
    v = max(pv, key=lambda i: max(f.degree_in(i) or 0, g.degree_in(i) or 0))
    cf, pf = _content_pp(f, v)
    cg, pg = _content_pp(g, v)
    c = _gcd_rec(cf, cg)
    while True:
        dg = pg.degree_in(v)
        if pg.is_zero():
            return c * pf
        if dg == 0:
            return c
        if pf.degree_in(v) < dg:
            pf, pg = pg, pf
            continue
        r = _prem(pf, pg, v)
        if r.is_zero():
            return c * pg
        _, r = _content_pp(r, v)
        pf, pg = pg, r


def _coeffs_in(f, v):
    """Map degree-in-v -> coefficient polynomial (v stripped)."""
    ring = f.ring
    out = {}
    for e, cval in f.terms.items():
        d = e[v]
        ne = e[:v] + (0,) + e[v + 1 :]
        cur = out.get(d)
        if cur is None:
            out[d] = MultiPoly(ring, {ne: cval})
        else:
            out[d] = cur + MultiPoly(ring, {ne: cval})
    return out


def _content_pp(f, v):
    """(content, primitive part) with respect to the variable v."""
    coeffs = _coeffs_in(f, v)
    content = None
    for cpoly in coeffs.values():
        content = cpoly if content is None else _gcd_rec(content, cpoly)
        if content.total_degree() == 0:
            content = f.ring.one()
            return content, f
    content = content.monic()
    if content.total_degree() == 0:
        return f.ring.one(), f
    return content, f.divide_exact(content)


def _prem(f, g, v):
    """Pseudo-remainder of f by g in the variable v."""
    ring = f.ring
    dg = g.degree_in(v)
    lcg = _coeffs_in(g, v)[dg]
    while True:
        if f.is_zero():
            return f
        df = f.degree_in(v)
        if df < dg:
            return f
        lcf = _coeffs_in(f, v)[df]
        shift = [0] * ring.nvars
        shift[v] = df - dg
        f = f * lcg - g * lcf * ring.monomial(shift)
