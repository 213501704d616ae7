"""Ambient spaces and points.

An Ambient is affine n-space, projective n-space, or a product of projective
spaces, over an exact coefficient field.  It owns the polynomial ring (with
the printing order: lexicographic for affine, grevlex otherwise) and supplies
the monomial bases of a given (multi)degree.

Projective points are stored canonically with their last nonzero coordinate
scaled to 1, which both fixes equality testing and selects the affine chart
used for imposing local conditions.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import comb

from .fields import FieldElement
from .poly import PolyRing, grevlex_key, monomials_below_degree, monomials_of_degree


def default_names(n):
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i+1}" for i in range(n))


class Ambient:
    """Ambient space descriptor; immutable."""

    __slots__ = ("kind", "dims", "field", "names", "ring", "_offsets")

    def __init__(self, kind, dims, field, names=None):
        if kind not in ("affine", "projective", "product"):
            raise ValueError(f"unknown ambient kind {kind!r}")
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ValueError("ambient dimensions must be positive")
        if kind != "product" and len(dims) != 1:
            raise ValueError("affine/projective ambients have exactly one block")
        if kind == "product" and len(dims) < 2:
            raise ValueError("product ambients need at least two blocks")
        self.kind = kind
        self.dims = dims
        self.field = field
        nvars = self.total_vars()
        if names is None:
            names = default_names(nvars)
        names = tuple(names)
        if len(names) != nvars:
            raise ValueError(f"expected {nvars} variable names, got {len(names)}")
        self.names = names
        order = "lex" if kind == "affine" else "grevlex"
        self.ring = PolyRing(field, names, print_order=order)
        offs = []
        pos = 0
        for b in self.block_sizes():
            offs.append(pos)
            pos += b
        self._offsets = tuple(offs)

    # -- structure ---------------------------------------------------------------

    def block_sizes(self):
        """Coordinate count per block (projective blocks carry dim+1)."""
        if self.kind == "affine":
            return [self.dims[0]]
        return [d + 1 for d in self.dims]

    def total_vars(self):
        return sum(self.block_sizes())

    def nblocks(self):
        return len(self.dims)

    def block_slice(self, i):
        start = self._offsets[i]
        return slice(start, start + self.block_sizes()[i])

    def __eq__(self, other):
        return (
            isinstance(other, Ambient)
            and self.kind == other.kind
            and self.dims == other.dims
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.kind, self.dims, self.field, self.names))

    def __repr__(self):
        if self.kind == "affine":
            return f"A^{self.dims[0]}({self.field!r})"
        if self.kind == "projective":
            return f"P^{self.dims[0]}({self.field!r})"
        return " x ".join(f"P^{d}" for d in self.dims) + f"({self.field!r})"

    # -- degrees and monomials ------------------------------------------------------

    def degree_tuple(self, degree):
        """Normalize a degree spec to one entry per block."""
        if isinstance(degree, int):
            if self.nblocks() != 1:
                raise ValueError("product ambients need a multidegree sequence")
            degree = (degree,)
        degree = tuple(int(d) for d in degree)
        if len(degree) != self.nblocks():
            raise ValueError(
                f"degree spec has {len(degree)} entries for {self.nblocks()} block(s)"
            )
        if any(d < 0 for d in degree):
            raise ValueError("degrees must be nonnegative")
        return degree

    def monomial_count(self, degree):
        """Number of basis monomials, by closed formula (no materialization)."""
        degree = self.degree_tuple(degree)
        if self.kind == "affine":
            n, d = self.dims[0], degree[0]
            return comb(n + d, n)
        total = 1
        for n, d in zip(self.dims, degree):
            total *= comb(n + d, n)
        return total

    def monomial_basis(self, degree):
        """Exponent tuples in grevlex-descending order.  Affine systems of
        degree d contain all monomials of degree <= d; projective blocks are
        exactly homogeneous of their block degree."""
        degree = self.degree_tuple(degree)
        if self.kind == "affine":
            return monomials_below_degree(self.dims[0], degree[0] + 1)
        per_block = [
            monomials_of_degree(n + 1, d) for n, d in zip(self.dims, degree)
        ]
        monos = [sum(parts, ()) for parts in iproduct(*per_block)]
        monos.sort(key=grevlex_key, reverse=True)
        return monos

    def block_degrees(self, exponents):
        """Per-block total degree of an exponent tuple."""
        return tuple(sum(exponents[self.block_slice(i)]) for i in range(self.nblocks()))

    def monomial_fits_degree(self, e, degree):
        """True if an exponent tuple is a monomial of the degree-d system of
        this ambient: one nonnegative exponent per variable, of the exact
        block degree (projective/product) or total degree <= d (affine)."""
        degree = self.degree_tuple(degree)
        if len(e) != self.total_vars() or min(e, default=0) < 0:
            return False
        if self.kind == "affine":
            return sum(e) <= degree[0]
        return self.block_degrees(e) == degree

    def section_fits_degree(self, f, degree):
        """True if every term of a polynomial fits `monomial_fits_degree`."""
        degree = self.degree_tuple(degree)
        return all(self.monomial_fits_degree(e, degree) for e in f.terms)

    # -- points ------------------------------------------------------------------------

    def point(self, coords):
        return AmbientPoint(self, coords)

    def random_point(self, rng, lo=None, hi=None):
        """Uniformly random coordinates (canonicalized per projective block);
        over the rationals an integer range [lo, hi] is required."""
        field = self.field
        while True:
            coords = [field.random(rng, lo, hi) for _ in range(self.total_vars())]
            try:
                return AmbientPoint(self, coords)
            except ValueError:
                continue  # a projective block drew all zeros

    def enumerate_points(self):
        """All points over a finite field, canonical representatives, each once."""
        if not self.field.is_finite:
            raise ValueError("point enumeration requires a finite field")
        blocks = []
        for i, b in enumerate(self.block_sizes()):
            if self.kind == "affine":
                blocks.append(list(iproduct(self.field.elements(), repeat=b)))
            else:
                blocks.append(list(_projective_reps(self.field, b)))
        for parts in iproduct(*blocks):
            yield AmbientPoint(self, [v for part in parts for v in part])

    # -- serialization ------------------------------------------------------------------

    def to_json(self):
        out = {"kind": self.kind, "field": self.field.to_json()}
        if self.kind == "product":
            out["dims"] = list(self.dims)
        else:
            out["dim"] = self.dims[0]
        return out

    @staticmethod
    def from_json(data, field):
        kind = data["kind"]
        dims = data["dims"] if kind == "product" else [data["dim"]]
        return Ambient(kind, dims, field, names=data.get("names"))


def _projective_reps(field, ncoords):
    """Canonical representatives of projective points: last nonzero = 1."""
    for chart in range(ncoords - 1, -1, -1):
        # coordinates after the chart are 0, at the chart 1, before it free
        for head in iproduct(field.elements(), repeat=chart):
            yield head + (field.one,) + (field.zero,) * (ncoords - chart - 1)


def affine_space(field, n, names=None):
    return Ambient("affine", [n], field, names)


def projective_space(field, n, names=None):
    return Ambient("projective", [n], field, names)


def product_projective(field, dims, names=None):
    return Ambient("product", dims, field, names)


class AmbientPoint:
    """Point of an ambient, coordinates stored canonically (raw values)."""

    __slots__ = ("ambient", "coords")

    def __init__(self, ambient, coords):
        field = ambient.field
        raw = [field.coerce(c) for c in coords]
        if len(raw) != ambient.total_vars():
            raise ValueError(
                f"expected {ambient.total_vars()} coordinates, got {len(raw)}"
            )
        if ambient.kind != "affine":
            for i in range(ambient.nblocks()):
                sl = ambient.block_slice(i)
                block = raw[sl]
                last = None
                for j in range(len(block) - 1, -1, -1):
                    if not field.is_zero(block[j]):
                        last = j
                        break
                if last is None:
                    raise ValueError("projective block of a point cannot be zero")
                inv = field.inv(block[last])
                raw[sl] = [field.mul(v, inv) for v in block]
        self.ambient = ambient
        self.coords = tuple(raw)

    @classmethod
    def canonical(cls, ambient, coords):
        """The point with these coordinates, which must already be canonical:
        a tuple of raw values with last nonzero coordinate 1 in each
        projective block.  Nothing is coerced or checked."""
        point = cls.__new__(cls)
        point.ambient = ambient
        point.coords = coords
        return point

    def __eq__(self, other):
        return (
            isinstance(other, AmbientPoint)
            and self.ambient == other.ambient
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.ambient, self.coords))

    def elements(self):
        return [FieldElement(self.ambient.field, v) for v in self.coords]

    def __str__(self):
        field = self.ambient.field
        if self.ambient.kind == "affine":
            return "(" + ", ".join(field.to_str(v) for v in self.coords) + ")"
        parts = []
        for i in range(self.ambient.nblocks()):
            sl = self.ambient.block_slice(i)
            parts.append("(" + " : ".join(field.to_str(v) for v in self.coords[sl]) + ")")
        return " x ".join(parts)

    def __repr__(self):
        return str(self)

    def affine_chart(self):
        """(chart variable index per block or None, affine coordinates).

        For each projective block the chart is the canonical coordinate equal
        to 1 (the last nonzero); the affine coordinates are the remaining ones
        in variable order.  Composing dehomogenization at the chart with
        translation by the affine coordinates moves the point to the origin.
        """
        amb = self.ambient
        charts = []
        affine = []
        for i in range(amb.nblocks()):
            sl = amb.block_slice(i)
            block = self.coords[sl]
            if amb.kind == "affine":
                charts.append(None)
                affine.extend(block)
                continue
            field = amb.field
            last = max(j for j in range(len(block)) if not field.is_zero(block[j]))
            charts.append(sl.start + last)
            affine.extend(block[:last] + block[last + 1 :])
        return charts, tuple(affine)
