"""Exact coefficient fields: the rationals, prime fields GF(p) and extensions GF(p^k).

Elements are kept in a canonical raw form (Fraction for the rationals, an int
residue in [0, p) for GF(p), a tuple of k residues for GF(p^k)) and can be
wrapped in FieldElement for operator syntax.  The raw-level methods on
CoefficientField are what the linear-algebra kernels call in hot loops.

The module also provides the multi-prime lifting tools: Chinese remaindering,
rational reconstruction of a residue into a bounded fraction, and of vectors
against a running denominator (`lift_rationals` and `linalg`'s lift).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .schema import check_keys, fail, located


class FieldMismatchError(ValueError):
    """Raised when elements of two different fields are combined."""


def _as_int(x, what):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an int, got {x!r}")
    return x


def _integer(x, what):
    """x as a Python int, for a Python or numpy int: 2.5 and True are
    refused, not truncated.  `what` names such values, in the plural."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise ValueError(f"{what} must be integers, got {x!r}")
    return operator.index(x)


# ---------------------------------------------------------------------------
# univariate polynomials over GF(p), for extension-field arithmetic and root
# finding (coefficient lists, ascending powers, entries in [0, p), no
# trailing zeros)


def _upoly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _upoly_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _upoly_trim(out)


def _upoly_scale(a, s, p):
    return _upoly_trim([c * s % p for c in a])


def _upoly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _upoly_trim([c % p for c in out])


def _upoly_divmod(a, b, p):
    """(q, r) with a = q*b + r over GF(p) and deg r < deg b; b nonzero."""
    r = list(a)
    k = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - k, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + k] * inv % p
        q[i] = c
        if c:
            for j in range(k + 1):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return _upoly_trim(q), _upoly_trim(r[:k])


def _upoly_powmod(a, e, f, p):
    result = [1]
    base = _upoly_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _upoly_divmod(_upoly_mul(result, base, p), f, p)[1]
        base = _upoly_divmod(_upoly_mul(base, base, p), f, p)[1]
        e >>= 1
    return _upoly_divmod(result, f, p)[1]


def _upoly_gcd(a, b, p):
    """Monic gcd over GF(p); [] when both are zero."""
    a, b = _upoly_trim(list(a)), _upoly_trim(list(b))
    while b:
        a, b = b, _upoly_divmod(a, b, p)[1]
    return _upoly_scale(a, pow(a[-1], -1, p), p) if a else a


def _upoly_frobenius_gcd(f, e, p):
    """gcd(f, u^(p^e) - u): the product of the distinct monic irreducible
    factors of f whose degree divides e; f nonzero."""
    return _upoly_gcd(f, _upoly_add(_upoly_powmod([0, 1], p ** e, f, p), [0, p - 1], p), p)


def _upoly_equal_degree_factors(f, d, p):
    """The monic irreducible factors of f, a monic product of distinct
    irreducibles of degree d over GF(p), p odd (Cantor-Zassenhaus).  The
    splitting polynomials a are taken in a fixed order, every polynomial of
    degree >= 1 in turn, so the result is deterministic.  By the CRT some a of
    degree < deg f is a square modulo one factor and not modulo another, so
    gcd(a^((p^d - 1)/2) - 1, f) splits f and the loop ends."""
    if len(f) - 1 <= d:
        return [f] if len(f) > 1 else []
    e = (p ** d - 1) // 2
    code = p
    while True:
        a, c = [], code
        while c:
            a.append(c % p)
            c //= p
        g = _upoly_gcd(f, _upoly_add(_upoly_powmod(a, e, f, p), [p - 1], p), p)
        if 1 < len(g) < len(f):
            return _upoly_equal_degree_factors(g, d, p) + _upoly_equal_degree_factors(
                _upoly_divmod(f, g, p)[0], d, p
            )
        code += 1


def _upoly_roots_p2(g, K):
    """The distinct roots in K = GF(p^2), p odd, of a nonzero polynomial g
    over GF(p), as raw elements of K.  A distinct-degree split separates the
    roots in GF(p) from the irreducible quadratic factors; each part is split
    into its irreducible factors, and each quadratic is solved in K."""
    p = K.p
    g = _upoly_scale(g, pow(g[-1], -1, p), p)
    linear = _upoly_frobenius_gcd(g, 1, p)
    quadratic = _upoly_divmod(_upoly_frobenius_gcd(g, 2, p), linear, p)[0]
    roots = [K.from_int(-f[0]) for f in _upoly_equal_degree_factors(linear, 1, p)]
    # K = GF(p)[u]/(u^2 + m1 u + m0), and w = 2u + m1 squares to m1^2 - 4 m0,
    # a non-square of GF(p).  The discriminant of an irreducible c^2 + b c + e
    # is a non-square too, so t^2 = (b^2 - 4e) / (m1^2 - 4 m0) has a root t
    # in GF(p), and the roots of the quadratic are (-b +- t w)/2.
    m0, m1 = K.modulus
    half = pow(2, -1, p)
    for e, b, _ in _upoly_equal_degree_factors(quadratic, 2, p):
        t2 = (b * b - 4 * e) * pow(m1 * m1 - 4 * m0, -1, p) % p
        t = _upoly_equal_degree_factors([-t2 % p, 0, 1], 1, p)[0][0]
        for s in (t, -t):
            roots.append(((s * m1 - b) * half % p, s % p))
    return roots


def _is_irreducible(tail, p):
    """Rabin test for the monic polynomial u^k + tail over GF(p)."""
    k = len(tail)
    f = list(tail) + [1]
    if k == 0:
        return False
    if k == 1:
        return True
    # u^(p^k) == u mod f
    if _upoly_frobenius_gcd(f, k, p) != f:
        return False
    # gcd(u^(p^(k/r)) - u, f) == 1 for each prime r | k
    r = 2
    kk = k
    checked = set()
    while kk > 1:
        while kk % r:
            r += 1
        if r not in checked:
            checked.add(r)
            if len(_upoly_frobenius_gcd(f, k // r, p)) != 1:
                return False
        kk //= r
    return True


def _default_modulus(p, k):
    """Deterministic irreducible monic u^k + tail: smallest tail in base-p order."""
    for code in range(p ** k):
        tail = []
        c = code
        for _ in range(k):
            tail.append(c % p)
            c //= p
        if _is_irreducible(tail, p):
            return tuple(tail)
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoefficientField:
    """An exact field: kind is one of 'rational', 'prime', 'extension'.

    Raw element forms:
      rational   Fraction
      prime      int in [0, p)
      extension  tuple of k ints in [0, p), coefficients of 1, u, ..., u^(k-1)
    """

    __slots__ = ("kind", "p", "k", "modulus", "_redrows")

    def __init__(self, kind, p=None, k=1, modulus=None):
        self.kind = kind
        if kind == "rational":
            self.p = None
            self.k = 1
            self.modulus = None
            self._redrows = None
        elif kind in ("prime", "extension"):
            _as_int(p, "p")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            self.p = p
            self.k = k
            if kind == "prime":
                if k != 1:
                    raise ValueError("prime field has k = 1")
                self.modulus = None
                self._redrows = None
            else:
                if k < 2:
                    raise ValueError("extension field needs k >= 2")
                if modulus is None:
                    modulus = _default_modulus(p, k)
                modulus = tuple(_integer(c, "modulus coefficients") % p for c in modulus)
                if len(modulus) != k:
                    raise ValueError("modulus tail must have k coefficients")
                if not _is_irreducible(list(modulus), p):
                    raise ValueError(f"u^{k} + {list(modulus)} is not irreducible over GF({p})")
                self.modulus = modulus
                # reduction rows: u^(k+j) expressed in the power basis, j = 0..k-2
                rows = []
                cur = [(-c) % p for c in modulus]  # u^k
                rows.append(tuple(cur))
                for _ in range(k - 2):
                    cur = [0] + cur
                    top = cur.pop()
                    if top:
                        cur = [(cur[i] + top * rows[0][i]) % p for i in range(k)]
                    rows.append(tuple(cur))
                self._redrows = tuple(rows)
        else:
            raise ValueError(f"unknown field kind {kind!r}")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, CoefficientField)
            and self.kind == other.kind
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.k, self.modulus))

    def __repr__(self):
        if self.kind == "rational":
            return "QQ"
        if self.kind == "prime":
            return f"GF({self.p})"
        if self.modulus != _default_modulus(self.p, self.k):
            return f"GF({self.p}^{self.k}, modulus={self.modulus})"
        return f"GF({self.p}^{self.k})"

    @property
    def characteristic(self):
        return 0 if self.kind == "rational" else self.p

    @property
    def order(self):
        if self.kind == "rational":
            return None
        return self.p ** self.k

    @property
    def is_finite(self):
        return self.kind != "rational"

    # -- raw constants and coercion ----------------------------------------

    @property
    def zero(self):
        if self.kind == "rational":
            return _FR_ZERO
        if self.kind == "prime":
            return 0
        return (0,) * self.k

    @property
    def one(self):
        if self.kind == "rational":
            return _FR_ONE
        if self.kind == "prime":
            return 1
        return (1,) + (0,) * (self.k - 1)

    def generator(self):
        """Raw u for extensions; errors elsewhere."""
        if self.kind != "extension":
            raise ValueError(f"{self!r} has no generator u")
        return (0, 1) + (0,) * (self.k - 2)

    def from_int(self, n):
        if self.kind == "rational":
            return Fraction(n)
        if self.kind == "prime":
            return n % self.p
        return (n % self.p,) + (0,) * (self.k - 1)

    def coerce(self, x):
        """Accept ints, Fractions, FieldElements and raw values; return raw."""
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatchError(f"element of {x.field!r} used in {self!r}")
            return x.raw
        if isinstance(x, bool):
            raise ValueError("bool is not a field element")
        if isinstance(x, int):
            return self.from_int(x)
        if self.kind == "rational":
            if isinstance(x, Fraction):
                return x
            raise ValueError(f"cannot coerce {x!r} into {self!r}")
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes in {self!r}")
            num = self.from_int(x.numerator)
            den = self.from_int(x.denominator)
            return self.mul(num, self.inv(den))
        if self.kind == "extension" and isinstance(x, tuple) and len(x) == self.k:
            return tuple(int(c) % self.p for c in x)
        raise ValueError(f"cannot coerce {x!r} into {self!r}")

    def element(self, x):
        return FieldElement(self, self.coerce(x))

    # -- raw arithmetic ------------------------------------------------------

    def add(self, a, b):
        if self.kind == "prime":
            return (a + b) % self.p
        if self.kind == "rational":
            return a + b
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.kind == "prime":
            return (a - b) % self.p
        if self.kind == "rational":
            return a - b
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        if self.kind == "prime":
            return (-a) % self.p
        if self.kind == "rational":
            return -a
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        if self.kind == "prime":
            return a * b % self.p
        if self.kind == "rational":
            return a * b
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = [c % p for c in prod[:k]]
        for j in range(k - 1):
            c = prod[k + j] % p
            if c:
                row = self._redrows[j]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def inv(self, a):
        if self.kind == "prime":
            if a % self.p == 0:
                raise ZeroDivisionError(f"inverse of 0 in {self!r}")
            return pow(a, -1, self.p)
        if self.kind == "rational":
            if not a:
                raise ZeroDivisionError("inverse of 0 in QQ")
            return _FR_ONE / a
        if not any(a):
            raise ZeroDivisionError(f"inverse of 0 in {self!r}")
        p = self.p
        # extended Euclid: find s with s*a == 1 mod f
        r0, r1 = list(self.modulus) + [1], _upoly_trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, r = _upoly_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _upoly_add(s0, _upoly_scale(_upoly_mul(q, s1, p), p - 1, p), p)
        # r0 is the gcd (a nonzero constant since f is irreducible)
        s0 = _upoly_scale(s0, pow(r0[0], -1, p), p)
        s0 += [0] * (self.k - len(s0))
        return tuple(s0[: self.k])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        if self.kind == "prime":
            return a == 0
        if self.kind == "rational":
            return not a
        return not any(a)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- enumeration / randomness -------------------------------------------

    def elements(self):
        """All raw elements, deterministic order; finite fields only."""
        if self.kind == "prime":
            return (i for i in range(self.p))
        if self.kind == "extension":
            def gen():
                for code in range(self.p ** self.k):
                    c, out = code, []
                    for _ in range(self.k):
                        out.append(c % self.p)
                        c //= self.p
                    yield tuple(out)
            return gen()
        raise ValueError("cannot enumerate QQ")

    def random(self, rng, lo=None, hi=None):
        """Uniform raw element; for QQ, an integer drawn from [lo, hi]."""
        if self.kind == "rational":
            if lo is None or hi is None:
                raise ValueError("random rational draws need an integer range")
            return Fraction(rng.randint(lo, hi))
        if lo is not None or hi is not None:
            return self.from_int(rng.randint(lo, hi))
        if self.kind == "prime":
            return rng.randrange(self.p)
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    # -- residue lifting ------------------------------------------------------

    def residue(self, a):
        """Canonical integer lift in [0, p); prime fields only."""
        if self.kind != "prime":
            raise ValueError(f"residue lift needs a prime field, not {self!r}")
        return a % self.p

    def in_prime_subfield(self, a):
        """True if a lies in GF(p) inside an extension (or trivially otherwise)."""
        if self.kind == "extension":
            return not any(a[1:])
        return True

    # -- strings --------------------------------------------------------------

    def to_str(self, a):
        if self.kind == "rational":
            return str(a)
        if self.kind == "prime":
            return str(a % self.p)
        parts = []
        for e in range(self.k - 1, -1, -1):
            c = a[e]
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                upow = "u" if e == 1 else f"u^{e}"
                parts.append(upow if c == 1 else f"{c}*{upow}")
        if not parts:
            return "0"
        return "+".join(parts)

    def format_coefficient(self, a):
        """Coefficient as used inside polynomial strings (parenthesized if composite)."""
        s = self.to_str(a)
        if self.kind == "extension" and any(op in s[1:] for op in "+-"):
            return f"({s})"
        return s

    def parse(self, s):
        """Inverse of to_str, returning a raw element."""
        s = s.strip().replace(" ", "")
        if self.kind == "rational":
            return Fraction(s)
        if self.kind == "prime":
            return int(s, 10) % self.p
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        out = [0] * self.k
        if not s:
            raise ValueError("empty field element string")
        i = 0
        n = len(s)
        while i < n:
            sign = 1
            if s[i] == "+":
                i += 1
            elif s[i] == "-":
                sign = -1
                i += 1
            j = i
            while j < n and s[j] not in "+-":
                j += 1
            term = s[i:j]
            i = j
            if not term:
                raise ValueError(f"malformed field element string {s!r}")
            if "u" in term:
                coef_s, _, tail = term.partition("u")
                coef = int(coef_s.rstrip("*"), 10) if coef_s.rstrip("*") else 1
                if tail.startswith("^"):
                    e = int(tail[1:], 10)
                elif not tail:
                    e = 1
                else:
                    raise ValueError(f"malformed field element term {term!r}")
            else:
                coef = int(term, 10)
                e = 0
            if e >= self.k:
                raise ValueError(f"power u^{e} out of range for {self!r}")
            out[e] = (out[e] + sign * coef) % self.p
        return tuple(out)

    def to_json(self):
        if self.kind == "rational":
            return {"kind": "rationals"}
        obj = {"kind": "gf", "p": self.p}
        if self.k > 1:
            obj.update(k=self.k, modulus=list(self.modulus))
        return obj

    @staticmethod
    def from_json(data, path="field"):
        """{"kind": "rationals"} or {"kind": "gf", "p"[, "k"[, "modulus"]]},
        modulus the tail of u^k + ... (default: `_default_modulus`);
        JobError at path for any other key or value."""
        check_keys(data, path, ("kind",), ("p", "k", "modulus"))
        if data["kind"] == "rationals":
            check_keys(data, path, ("kind",))  # p, k and modulus are GF's
            return rationals()
        if data["kind"] != "gf":
            fail(path, f"unknown field kind {data['kind']!r}")
        check_keys(data, path, ("kind", "p"), ("k", "modulus"))
        with located(path, (ValueError, TypeError)):
            return GF(data["p"], data.get("k", 1), data.get("modulus"))


_FR_ZERO = Fraction(0)
_FR_ONE = Fraction(1)

_QQ = CoefficientField("rational")


def rationals():
    """The field of rational numbers."""
    return _QQ


def GF(p, k=1, modulus=None):
    """Finite field with p^k elements; modulus is the tail of a monic degree-k
    polynomial (defaults to a deterministic irreducible one)."""
    if _as_int(k, "k") == 1:
        if modulus is not None:
            raise ValueError("GF(p) takes no modulus")
        return CoefficientField("prime", p)
    return CoefficientField("extension", p, k, modulus)


class FieldElement:
    """A raw value bound to its field, with operator syntax."""

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    def _coerce_other(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine elements of {self.field!r} and {other.field!r}"
                )
            return other.raw
        return self.field.coerce(other)

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.raw, self._coerce_other(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.raw, self._coerce_other(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self._coerce_other(other), self.raw))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.raw))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.raw, self._coerce_other(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.raw, self._coerce_other(other)))

    def __rtruediv__(self, other):
        return FieldElement(self.field, self.field.div(self._coerce_other(other), self.raw))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow(self.raw, e))

    def __eq__(self, other):
        try:
            return self.raw == self._coerce_other(other)
        except (ValueError, ZeroDivisionError):
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.raw))

    def __bool__(self):
        return not self.field.is_zero(self.raw)

    def is_zero(self):
        return self.field.is_zero(self.raw)

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.raw))

    def __str__(self):
        return self.field.to_str(self.raw)

    def __repr__(self):
        return f"{self.field!r}({self.field.to_str(self.raw)})"


# ---------------------------------------------------------------------------
# multi-prime lifting


def crt_combine(residues, moduli):
    """Solve x == residues[i] mod moduli[i]; moduli must be pairwise coprime.

    Returns the unique solution in [0, prod(moduli)).  Vector form: when each
    residues[i] is a sequence (the residues mod moduli[i] of one vector of
    entries, all of one length), every entry is combined and a list is
    returned; each inverse is computed once for the whole vector.  Garner's
    incremental scheme: x stays reduced mod the product of the moduli seen so
    far, so a combined vector and its modulus may be passed back in as one
    residue sequence to extend it by further moduli.
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have equal length")
    if not moduli:
        raise ValueError("need at least one modulus")
    # coprimality against the running product, one gcd per modulus
    invs, m = [], 1
    for i, q in enumerate(moduli):
        if _as_int(q, "modulus") < 2:
            raise ValueError(f"modulus {q} must be >= 2")
        if math.gcd(m, q) != 1:
            a = next(a for a in moduli[:i] if math.gcd(a, q) != 1)
            raise ValueError(f"moduli {a} and {q} are not coprime (gcd {math.gcd(a, q)})")
        invs.append(pow(m % q, -1, q))
        m *= q
    vector = hasattr(residues[0], "__len__")
    if not vector:
        residues = [[r] for r in residues]
    if any(len(r) != len(residues[0]) for r in residues):
        raise ValueError("residue vectors must share one length")
    xs, m = [int(r) % moduli[0] for r in residues[0]], moduli[0]
    for rs, q, inv in zip(residues[1:], moduli[1:], invs[1:]):
        # x + m*t == r mod q
        xs = [x + m * ((int(r) - x % q) * inv % q) for x, r in zip(xs, rs)]
        m *= q
    return xs if vector else xs[0]


def rational_reconstruct(r, m):
    """Find n/d with n == d*r mod m, |n|, d <= floor(sqrt(m/2)), gcd(n, d) = 1, d > 0.

    Returns a Fraction, or None if no such pair exists.  Half-extended Euclid
    with early stop.
    """
    _as_int(r, "residue")
    _as_int(m, "modulus")
    if m < 2:
        raise ValueError("modulus must be >= 2")
    r %= m
    if r == 0:
        return Fraction(0)
    bound = math.isqrt(m // 2)
    r0, r1 = m, r
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 == 0 or abs(t1) > bound:
        return None
    n, d = r1, t1
    if d < 0:
        n, d = -n, -d
    if d == 0 or math.gcd(abs(n), d) != 1:
        return None
    if (n - d * r) % m != 0:
        return None
    return Fraction(n, d)


class LiftResult:
    """Outcome of lifting vectors of GF(p) residues to rational numbers."""

    __slots__ = ("moduli", "residues", "combined_modulus", "values", "ok")

    def __init__(self, moduli, residues, combined_modulus, values, ok):
        self.moduli = moduli
        self.residues = residues
        self.combined_modulus = combined_modulus
        self.values = values
        self.ok = ok

    @property
    def all_ok(self):
        return all(self.ok)

    def __repr__(self):
        good = sum(self.ok)
        return f"LiftResult({good}/{len(self.ok)} lifted, modulus ~1e{len(str(self.combined_modulus)) - 1})"


def reconstruct_rationals(xs, m, length=None):
    """Yield `rational_reconstruct(x, m)` for each x of the list xs, cut into
    vectors of `length` entries (one vector by default).  In a vector the
    running lcm d of the denominators found gives y/d directly when
    y = d*x mod m is within the bound, and `rational_reconstruct` is called
    only when it is not.  Its denominators are prime to m, so y/d in lowest
    terms meets the congruence and is, unique within the bound, what it
    gives.  Each distinct denominator is one int object across the block
    (Fraction's slot _denominator), which takes a third off a basis."""
    length = length or len(xs) or 1
    bound = math.isqrt(m // 2)
    denominators = {}
    for start in range(0, len(xs), length):
        d = 1
        for x in xs[start : start + length]:
            y = x * d % m
            if y > m - y:
                y -= m
            if -bound <= y <= bound and d <= bound:
                f = Fraction(y, d)
            else:
                f = rational_reconstruct(x, m)
                if f is None:
                    yield None
                    continue
                d = math.lcm(d, f.denominator)
            f._denominator = denominators.setdefault(f.denominator, f.denominator)
            yield f


def lift_rationals(residue_vectors, moduli):
    """CRT-combine per-modulus residue vectors and rationally reconstruct each entry.

    residue_vectors[i] is the vector of residues mod moduli[i]; all vectors must
    share one length.  The combined vector is reconstructed by
    `reconstruct_rationals`, entry for entry what `rational_reconstruct`
    gives.  Entries that fail reconstruction get value None, ok False.
    `crt_combine` rejects mismatched or missing moduli.
    """
    combined = crt_combine(residue_vectors, moduli)
    m = math.prod(moduli)
    values = list(reconstruct_rationals(combined, m))
    ok = [f is not None for f in values]
    return LiftResult(tuple(moduli), tuple(map(tuple, residue_vectors)), m, values, ok)


def iter_primes(start):
    """The primes >= start in increasing order, drawn on demand
    (deterministic Miller-Rabin)."""
    return filter(_is_prime, itertools.count(max(2, start)))


def primes_from(start, count):
    """The first `count` primes >= start."""
    return list(itertools.islice(iter_primes(start), count))
