"""Sparse multivariate polynomials over an exact coefficient field.

Terms are stored as a dict mapping exponent tuples to raw field values
(never zero).  A PolyRing fixes the field, the variable names, and the
order used when printing.  Monomials are plain exponent tuples; the
helpers below implement the graded reverse lexicographic order that the
rest of the library uses for matrix columns and leading terms.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .fields import FieldElement

# ---------------------------------------------------------------------------
# exponent-tuple helpers


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """Exponents of x^a / x^b; requires divisibility."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in out):
        raise ValueError(f"monomial {a} is not divisible by {b}")
    return out


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(e):
    """Sort key: ascending order under graded reverse lex."""
    return (sum(e), tuple(-x for x in reversed(e)))


def lex_key(e):
    return e


_ORDER_KEYS = {"grevlex": grevlex_key, "lex": lex_key}


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree exactly d, grevlex-descending."""
    out = []

    def rec(prefix, remaining, left):
        if remaining == 1:
            out.append(prefix + (left,))
            return
        for e in range(left, -1, -1):
            rec(prefix + (e,), remaining - 1, left - e)

    if nvars == 0:
        return [()] if d == 0 else []
    rec((), nvars, d)
    out.sort(key=grevlex_key, reverse=True)
    return out


def monomials_below_degree(nvars, m):
    """All exponent tuples of total degree < m, grevlex-descending."""
    out = []
    for d in range(m - 1, -1, -1):
        out.extend(monomials_of_degree(nvars, d))
    out.sort(key=grevlex_key, reverse=True)
    return out


class PolyRing:
    """Polynomial ring context: coefficient field, variable names, print order."""

    __slots__ = ("field", "names", "nvars", "print_order", "_token_re")

    def __init__(self, field, names, print_order="grevlex"):
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for n in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", n):
                raise ValueError(f"bad variable name {n!r}")
        if print_order not in _ORDER_KEYS:
            raise ValueError(f"unknown order {print_order!r}")
        self.field = field
        self.names = tuple(names)
        self.nvars = len(names)
        self.print_order = print_order
        self._token_re = None

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"PolyRing({self.field!r}, {','.join(self.names)})"

    # -- constructors --------------------------------------------------------

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        raw = self.field.coerce(c)
        if self.field.is_zero(raw):
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * self.nvars: raw})

    def gen(self, i):
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        e = [0] * self.nvars
        e[i] = 1
        return MultiPoly(self, {tuple(e): self.field.one})

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def monomial(self, exponents, c=1):
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.nvars or any(e < 0 for e in exponents):
            raise ValueError(f"bad exponent tuple {exponents}")
        raw = self.field.coerce(c)
        if self.field.is_zero(raw):
            return MultiPoly(self, {})
        return MultiPoly(self, {exponents: raw})

    def from_terms(self, terms):
        """terms: iterable of (exponent tuple, coefficient)."""
        field = self.field
        acc = {}
        for e, c in terms:
            e = tuple(int(x) for x in e)
            if len(e) != self.nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e}")
            raw = field.coerce(c)
            if e in acc:
                raw = field.add(acc[e], raw)
            if field.is_zero(raw):
                acc.pop(e, None)
            else:
                acc[e] = raw
        return MultiPoly(self, acc)

    # -- parsing ---------------------------------------------------------------

    def parse(self, s):
        """Parse a polynomial string: rational or field coefficients, '^' powers,
        '*' products (optional between a coefficient and a variable), parentheses."""
        return _Parser(self, s).parse()

    def parse_monomial(self, s):
        """Exponent tuple of a monomial string: it must parse to exactly one
        term, with coefficient 1, else ValueError naming s."""
        terms = self.parse(s).terms
        if len(terms) != 1 or next(iter(terms.values())) != self.field.one:
            raise ValueError(f"{s!r} is not a monomial (one term with coefficient 1)")
        return next(iter(terms))


class MultiPoly:
    """Immutable-by-convention sparse polynomial bound to a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- basics -----------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def total_degree(self):
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return None
        return max(e[i] for e in self.terms)

    def num_terms(self):
        return len(self.terms)

    def coefficient(self, exponents):
        """Coefficient of a monomial, as a FieldElement."""
        raw = self.terms.get(tuple(exponents), self.ring.field.zero)
        return FieldElement(self.ring.field, raw)

    def leading_term(self):
        """(exponents, raw coefficient) of the grevlex-largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def monic(self):
        """Divide by the grevlex leading coefficient."""
        e, c = self.leading_term()
        field = self.ring.field
        if c == field.one:
            return self
        inv = field.inv(c)
        return MultiPoly(self.ring, {m: field.mul(v, inv) for m, v in self.terms.items()})

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- ring operations -----------------------------------------------------------

    def _check_ring(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        return self.ring.constant(other)

    def __add__(self, other):
        other = self._check_ring(other)
        field = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = field.add(out[e], c)
                if field.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        return MultiPoly(self.ring, {e: field.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check_ring(other))

    def __rsub__(self, other):
        return self._check_ring(other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            # scalar path
            field = self.ring.field
            try:
                raw = field.coerce(other)
            except (ValueError, TypeError):
                return NotImplemented
            if field.is_zero(raw):
                return self.ring.zero()
            return MultiPoly(self.ring, {e: field.mul(c, raw) for e, c in self.terms.items()})
        other = self._check_ring(other)
        field = self.ring.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                c = field.mul(c1, c2)
                if e in out:
                    s = field.add(out[e], c)
                    if field.is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
                else:
                    out[e] = c
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c):
        return self * c

    # -- evaluation and substitution ---------------------------------------------

    def _eval_raw(self, coords):
        field = self.ring.field
        if len(coords) != self.ring.nvars:
            raise ValueError("wrong number of coordinates")
        # cache powers per variable
        pows = [{0: field.one} for _ in coords]
        total = field.zero
        for e, c in self.terms.items():
            v = c
            for i, ei in enumerate(e):
                if ei:
                    cache = pows[i]
                    if ei not in cache:
                        acc = cache[max(cache)]
                        for k in range(max(cache) + 1, ei + 1):
                            acc = field.mul(acc, coords[i])
                            cache[k] = acc
                    v = field.mul(v, cache[ei])
            total = field.add(total, v)
        return total

    def evaluate(self, coords):
        """Value at a coordinate tuple (ints, Fractions, raws or FieldElements)."""
        field = self.ring.field
        raws = [field.coerce(c) for c in coords]
        return FieldElement(field, self._eval_raw(raws))

    def substitute(self, images):
        """f(g_1, ..., g_n) for polynomials g_i from the same ring."""
        ring = self.ring
        images = [g if isinstance(g, MultiPoly) else ring.constant(g) for g in images]
        for g in images:
            if g.ring != ring:
                raise ValueError("substitution images must live in the same ring")
        if len(images) != ring.nvars:
            raise ValueError("one image per variable required")
        pows = [{0: ring.one()} for _ in images]

        def power(i, e):
            cache = pows[i]
            if e not in cache:
                top = max(cache)
                acc = cache[top]
                for k in range(top + 1, e + 1):
                    acc = acc * images[i]
                    cache[k] = acc
            return cache[e]

        total = ring.zero()
        for e, c in self.terms.items():
            part = ring.constant(FieldElement(ring.field, c))
            for i, ei in enumerate(e):
                if ei:
                    part = part * power(i, ei)
            total = total + part
        return total

    def translate(self, point):
        """f(x + p): shift each variable by the matching coordinate of p.  A
        variable with a_i != 0 and largest exponent top_i maps c x_i^e to the
        terms c T[t][e] x_i^t of `_hasse_tables`.  Over QQ the coefficients
        run as integers: scaled by the lcm D of their denominators, with
        a_i = n_i/d_i the tables carry d_i^(top_i - t), so the coefficient of
        x^t ends as an int divided once by D and the d_i^(top_i - t_i)."""
        ring = self.ring
        field = ring.field
        coords = [field.coerce(c) for c in point]
        if len(coords) != ring.nvars:
            raise ValueError("wrong number of coordinates")
        rational = field.kind == "rational"
        if rational:
            D = math.lcm(*(c.denominator for c in self.terms.values()))
            terms = {e: c.numerator * (D // c.denominator) for e, c in self.terms.items()}
            add, mul, zero = operator.add, operator.mul, 0
        else:
            terms = self.terms
            add, mul, zero = field.add, field.mul, field.zero
        scales = []
        for i, a in enumerate(coords):
            if field.is_zero(a):
                continue
            top = max((e[i] for e in terms), default=0)
            T = _hasse_tables(field, a, top, top)
            out = {}
            for e, c in terms.items():
                for t in range(e[i] + 1):
                    ne = e[:i] + (t,) + e[i + 1 :]
                    out[ne] = add(out.get(ne, zero), mul(c, T[t][e[i]]))
            terms = out
            if rational:
                scales.append((i, top, a.denominator))
        out = {}
        for e, c in terms.items():
            if not field.is_zero(c):
                if rational:
                    den = D
                    for i, top, d in scales:
                        den *= d ** (top - e[i])
                    c = Fraction(c, den)
                out[e] = c
        return MultiPoly(ring, out)

    # -- calculus-flavoured operations ------------------------------------------

    def partial(self, i):
        """Formal partial derivative with respect to variable i."""
        field = self.ring.field
        out = {}
        for e, c in self.terms.items():
            ei = e[i]
            if ei == 0:
                continue
            ne = e[:i] + (ei - 1,) + e[i + 1 :]
            c2 = field.mul(c, field.from_int(ei))
            if not field.is_zero(c2):
                _acc_term(out, ne, c2, field)
        return MultiPoly(self.ring, out)

    def low_degree_coefficients(self, m):
        """Coefficients of all monomials of total degree < m, as FieldElements,
        listed grevlex-descending.  These are the order-< m Taylor coefficients
        at the origin, valid in any characteristic."""
        field = self.ring.field
        out = []
        for e in monomials_below_degree(self.ring.nvars, m):
            out.append(FieldElement(field, self.terms.get(e, field.zero)))
        return out

    def multiplicity_at_origin(self):
        """Smallest total degree of a term; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def homogenize(self, var):
        """Multiply each term by (variable var)^(d - deg term), d = total degree."""
        if not self.terms:
            return self
        i = self._var_index(var)
        if any(e[i] for e in self.terms):
            raise ValueError("homogenizing variable already occurs")
        d = self.total_degree()
        out = {}
        for e, c in self.terms.items():
            ne = e[:i] + (d - sum(e),) + e[i + 1 :]
            out[ne] = c
        return MultiPoly(self.ring, out)

    def dehomogenize(self, var):
        """Set the given variable to 1."""
        i = self._var_index(var)
        field = self.ring.field
        out = {}
        for e, c in self.terms.items():
            ne = e[:i] + (0,) + e[i + 1 :]
            _acc_term(out, ne, c, field)
        return MultiPoly(self.ring, out)

    def _var_index(self, var):
        if isinstance(var, str):
            try:
                return self.ring.names.index(var)
            except ValueError:
                raise ValueError(f"no variable {var!r} in {self.ring!r}") from None
        i = int(var)
        if not 0 <= i < self.ring.nvars:
            raise ValueError(f"variable index {i} out of range")
        return i

    # -- division ------------------------------------------------------------------

    def exact_divide_monomial(self, exponents):
        """Divide by x^exponents; raises if any term is not divisible."""
        e0 = tuple(exponents)
        out = {}
        for e, c in self.terms.items():
            out[mono_div(e, e0)] = c
        return MultiPoly(self.ring, out)

    def divide_exact(self, g):
        """Quotient self/g when g divides exactly; raises ValueError otherwise."""
        g = self._check_ring(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        field = self.ring.field
        lt_e, lt_c = g.leading_term()
        lt_c_inv = field.inv(lt_c)
        rem = dict(self.terms)
        quo = {}
        while rem:
            e = max(rem, key=grevlex_key)
            c = rem[e]
            if not mono_divides(lt_e, e):
                raise ValueError("polynomial does not divide exactly")
            qe = mono_div(e, lt_e)
            qc = field.mul(c, lt_c_inv)
            quo[qe] = qc
            for ge, gc in g.terms.items():
                ne = mono_mul(qe, ge)
                _acc_term(rem, ne, field.neg(field.mul(qc, gc)), field)
        return MultiPoly(self.ring, quo)

    # -- printing --------------------------------------------------------------------

    def sorted_terms(self, order=None):
        key = _ORDER_KEYS[order or self.ring.print_order]
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.names
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                n if ei == 1 else f"{n}^{ei}" for n, ei in zip(names, e) if ei
            )
            cs = field.format_coefficient(c)
            if not mono:
                term = cs
            elif cs == "1":
                term = mono
            elif cs == "-1":
                term = f"-{mono}"
            else:
                term = f"{cs}*{mono}"
            if parts and not term.startswith("-"):
                parts.append("+")
            parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _acc_term(d, e, c, field):
    if e in d:
        s = field.add(d[e], c)
        if field.is_zero(s):
            del d[e]
        else:
            d[e] = s
    elif not field.is_zero(c):
        d[e] = c


def _hasse_tables(field, a, top, tmax):
    """T[t][e] for t <= tmax and e <= top: the t-th Hasse derivative
    C(e,t) * a^(e-t) of x^e at a.  Over QQ, with a = n/d and d > 0, the
    integer C(e,t) * n^(e-t) * d^(top-e), which is that value times
    d^(top-t)."""
    if field.kind == "rational":
        n, d = a.numerator, a.denominator
        npow, dpow = [1], [1]
        for _ in range(top):
            npow.append(npow[-1] * n)
            dpow.append(dpow[-1] * d)
        return [
            [math.comb(e, t) * npow[e - t] * dpow[top - e] if e >= t else 0 for e in range(top + 1)]
            for t in range(tmax + 1)
        ]
    apow = [field.one]
    for _ in range(top):
        apow.append(field.mul(apow[-1], a))
    return [
        [field.mul(field.from_int(math.comb(e, t)), apow[e - t]) if e >= t else field.zero
         for e in range(top + 1)]
        for t in range(tmax + 1)
    ]


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))")


class _Parser:
    """Recursive-descent parser for polynomial strings."""

    def __init__(self, ring, text):
        self.ring = ring
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"bad character in polynomial string at {text[pos:]!r}")
            pos = m.end()
            if m.group("int") is not None:
                self.tokens.append(("int", int(m.group("int"))))
            elif m.group("name") is not None:
                self.tokens.append(("name", m.group("name")))
            else:
                self.tokens.append(("op", m.group("op")))
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        if not self.tokens:
            raise ValueError("empty polynomial string")
        p = self.expr()
        if self.i != len(self.tokens):
            raise ValueError(f"trailing input in polynomial string {self.text!r}")
        return p

    def expr(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        p = self.product()
        if negate:
            p = -p
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.product()
                p = p - q if val == "-" else p + q
            else:
                break
        return p

    def product(self):
        p = self.power()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.power()
            elif kind == "op" and val == "/":
                self.next()
                q = self.power()
                if q.total_degree() not in (0, None) or q.is_zero():
                    raise ValueError("division only by nonzero constants")
                (e0, c0), = q.terms.items()
                field = self.ring.field
                p = p * FieldElement(field, field.inv(c0))
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                # implicit product, e.g. "3x" or "2(x+y)"
                p = p * self.power()
            else:
                break
        return p

    def power(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, e = self.next()
            if kind != "int":
                raise ValueError("exponent must be an integer literal")
            return base ** e
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return self.ring.constant(val)
        if kind == "name":
            if val in self.ring.names:
                return self.ring.gen(self.ring.names.index(val))
            if val == "u" and self.ring.field.kind == "extension":
                return self.ring.constant(FieldElement(self.ring.field, self.ring.field.generator()))
            raise ValueError(f"unknown variable {val!r}")
        if kind == "op" and val == "(":
            p = self.expr()
            kind, val = self.next()
            if (kind, val) != ("op", ")"):
                raise ValueError("unbalanced parentheses")
            return p
        if kind == "op" and val == "-":
            return -self.atom()
        raise ValueError(f"unexpected token {val!r} in polynomial string")


def random_poly(ring, support, rng, lo=-10, hi=10, ensure_nonzero=True):
    """Random polynomial with integer coefficients drawn from [lo, hi] on the
    given monomial support."""
    field = ring.field
    for _ in range(64):
        terms = {}
        for e in support:
            raw = field.from_int(rng.randint(lo, hi))
            if not field.is_zero(raw):
                terms[tuple(e)] = raw
        if terms or not ensure_nonzero:
            return MultiPoly(ring, terms)
    raise ValueError("could not draw a nonzero polynomial (range too small?)")
