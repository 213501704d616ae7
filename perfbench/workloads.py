"""The benchmark's workloads: input generators, timed calls and exact checks.

A workload is a batch of items that one client runs in a closed loop: each
item starts when the previous one has returned.  `generate(seed, size)`
builds the items from the seed alone; `run_item` makes the calls into the
library that are timed; `check` verifies every answer exactly, after the
timed region, without going through `linalg`.

Sizes: "full" is what the benchmark measures; "small" is the same code on
instances small enough for the self-test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb, lcm

import numpy as np

from hyperlin import (
    GF,
    LinearSys,
    affine_space,
    impose_points,
    invariant_family_scan,
    projective_space,
    random_points,
    rationals,
    sextic_pencil_scan,
)
from hyperlin.gallery import SEXTIC_PENCIL_NORM, SEXTIC_PENCIL_TRACE

DEFAULT_SEED = 0

# the paper's plane-deg20 configuration (cli repro `plane-deg20`)
PLANE20_MULTS = [2] * 6 + [3] * 5 + [5] * 3 + [7] * 2 + [8, 9]

# Digests of exact outputs at full size, as (seed, digest); seed None means
# every seed.  A change to them is a change in what the library computes.
PINNED = {
    "qq-special": (None, "f2c2b38672399ce0"),
    "fq-search": (DEFAULT_SEED, "89209492f6402d2e"),
}


class Item:
    """One unit of timed work.  `ops` is how many benchmark operations it
    stands for (a scan of 100 trials is 100 operations).  An item with a
    `known_defect` is timed and checked like the others, but its check
    result is reported on its own instead of as failed operations."""

    __slots__ = ("name", "ops", "data", "expected", "known_defect")

    def __init__(self, name, ops, data, expected, known_defect=None):
        self.name = name
        self.ops = ops
        self.data = data
        self.expected = expected
        self.known_defect = known_defect


def expected_dimension(degree, mults):
    """Affine plane curves of the given degree with the given point
    multiplicities, expected dimension (monomials minus conditions)."""
    return max(0, comb(degree + 2, 2) - sum(comb(m + 1, 2) for m in mults))


def _special_position(pts, mults, degree, allowed=frozenset()):
    """True if, by Bezout, a line or a conic through some of the points is a
    fixed component of every curve of the system: the multiplicities on a
    line add up to more than the degree, or those at six points on a conic
    to more than twice the degree.  `allowed` is the set of point indices
    of a line that is heavy on purpose."""
    n = len(pts)
    for i, j in itertools.combinations(range(n), 2):
        (a, b), (c, d) = pts[i], pts[j]
        on = frozenset(k for k in range(n) if (c - a) * (pts[k][1] - b) == (d - b) * (pts[k][0] - a))
        if on != allowed and sum(mults[k] for k in on) > degree:
            return True
    # a point can only be in a six-set over 2*degree if its multiplicity
    # plus the five largest ones exceeds 2*degree
    top5 = sum(sorted(mults, reverse=True)[:5])
    heavy = [k for k in range(n) if mults[k] + top5 > 2 * degree]
    for six in itertools.combinations(heavy, 6):
        if sum(mults[k] for k in six) > 2 * degree and _on_conic([pts[k] for k in six]):
            return True
    return False


def _on_conic(pts):
    """Whether six points lie on one conic: the 6x6 matrix of the conic
    monomials at the points is singular (exact Gaussian elimination)."""
    m = [[Fraction(v) for v in (x * x, x * y, y * y, x, y, 1)] for x, y in pts]
    for c in range(6):
        r = next((r for r in range(c, 6) if m[r][c]), None)
        if r is None:
            return True
        m[c], m[r] = m[r], m[c]
        for r in range(c + 1, 6):
            f = m[r][c] / m[c][c]
            m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return False


def _plane_draw(rng, degree, mults):
    """Distinct points with coordinates in 1..40, or None when they put
    the system in special position."""
    A2 = affine_space(rationals(), 2)
    pts = [tuple(int(v) for v in p.coords) for p in random_points(A2, len(mults), rng, lo=1, hi=40)]
    return None if _special_position(pts, mults, degree) else pts


# ---------------------------------------------------------------------------
# qq-rank: counts of rational fat-point systems on both sides of the kernel
# dispatch size


def _gen_qq_rank(seed, size):
    if size == "full":
        plane = (20, PLANE20_MULTS, 9)
        small_sys = (10, [2] * 3 + [3] * 3 + [4] * 2 + [5])
    else:
        plane = (6, [2, 2, 3, 3], 2)
        small_sys = (4, [2, 2, 2])
    degree, mults, draws = plane
    items = []
    # draw j uses random.Random(1000*seed + j), so at the default seed the
    # draws are the `plane-deg20` repro seeds in general position (0-4, 6-9)
    for j in itertools.count():
        pts = _plane_draw(random.Random(1000 * seed + j), degree, mults)
        if pts is not None:
            items.append(Item(f"plane-deg{degree}#{j}", 1, (degree, mults, pts),
                              expected_dimension(degree, mults)))
            if len(items) == draws:
                break
    degree, mults = small_sys
    for j in itertools.count(1000 * seed + 500):
        pts = _plane_draw(random.Random(j), degree, mults)
        if pts is not None:
            break
    items.append(Item(f"plane-deg{degree}", 1, (degree, mults, pts), expected_dimension(degree, mults)))
    return items


def _run_count(item):
    degree, mults, pts = item.data
    L = LinearSys.complete(affine_space(rationals(), 2), degree)
    return impose_points(L, pts, mults).nsections()


def _check_count(item, out):
    return [] if out == item.expected else [f"{item.name}: nsections {out}, expected {item.expected}"]


# ---------------------------------------------------------------------------
# qq-special: count and exact basis of a system in special position by
# construction, which takes the multimodular nullspace path for every seed

# One configuration for every seed: the seed only permutes the order in
# which the points (and so the condition rows) are given.  The canonical
# basis, and with it the number of primes the multimodular path needs, does
# not depend on that order, so the cost is the same for every seed and the
# exact basis can be pinned for all of them.  Coordinates in 1..20 give an
# instance of 90 primes.
SPECIAL_CONFIG_SEED, SPECIAL_LO, SPECIAL_HI = 1, 1, 20


def _special_configuration(degree, mults, line_mults):
    rng = random.Random(SPECIAL_CONFIG_SEED)
    allowed = frozenset(range(len(mults), len(mults) + 3))
    while True:
        xs = rng.sample(range(SPECIAL_LO, SPECIAL_HI), 3)
        line = [(x, x + 1) for x in xs]
        others = []
        while len(others) < len(mults):
            p = (rng.randint(SPECIAL_LO, SPECIAL_HI), rng.randint(SPECIAL_LO, SPECIAL_HI))
            if p[1] != p[0] + 1 and p not in others:
                others.append(p)
        pts = others + line
        if not _special_position(pts, mults + line_mults, degree, allowed):
            return pts


def _gen_qq_special(seed, size):
    if size == "full":
        degree, mults, line_mults = 20, PLANE20_MULTS[:-3], [7, 8, 9]
    else:
        degree, mults, line_mults = 5, [2, 2], [2, 2, 3]
    pts = _special_configuration(degree, mults, line_mults)
    # The line y = x + 1 carries multiplicities adding to more than the
    # degree, so it divides every member, and so on while that stays true.
    # The residual system is expected to be in general position.
    d, lm, k = degree, list(line_mults), 0
    while sum(lm) > d:
        d, lm, k = d - 1, [max(0, m - 1) for m in lm], k + 1
    expected = expected_dimension(d, mults + lm)
    pairs = list(zip(pts, mults + line_mults))
    random.Random(seed).shuffle(pairs)
    pts, all_mults = [p for p, _ in pairs], [m for _, m in pairs]
    return [Item(f"special-deg{degree}", 1, (degree, all_mults, pts, k), expected)]


def _run_special(item):
    degree, mults, pts, _ = item.data
    L = LinearSys.complete(affine_space(rationals(), 2), degree)
    J = impose_points(L, pts, mults)
    return J.nsections(), J.sections()


def _check_special(item, out):
    degree, mults, pts, k = item.data
    n, sections = out
    errors = []
    if n != item.expected or len(sections) != n:
        errors.append(f"{item.name}: nsections {n} with {len(sections)} sections, expected {item.expected}")
    ring = affine_space(rationals(), 2).ring
    x, y = ring.gens()
    power = (y - x - 1) ** k
    for i, s in enumerate(sections):
        if s.is_zero() or s.total_degree() > degree:
            errors.append(f"{item.name}: section {i} is zero or has the wrong degree")
            continue
        try:
            s.divide_exact(power)
        except ValueError:
            errors.append(f"{item.name}: section {i} is not divisible by (y-x-1)^{k}")
        # a nonzero multiple has the same multiplicities; integer
        # coefficients keep the translations free of Fraction gcds
        s = s * lcm(*(c.denominator for c in s.terms.values()))
        for pt, m in zip(pts, mults):
            if s.translate(pt).multiplicity_at_origin() < m:
                errors.append(f"{item.name}: section {i} has multiplicity < {m} at {pt}")
    return errors


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _special_digest(items, outputs):
    return _digest([[str(s) for s in out[1]] for out in outputs])


# ---------------------------------------------------------------------------
# gf-points: simple-point conditions over prime fields, on both sides of the
# prime bound that selects the float64 kernels

LARGE_P = 1073741827


def _gen_gf_points(seed, size):
    if size == "full":
        cases = [(397, 3, 25, 3275, 1)]
        large = (LARGE_P, 2, 30, 490, 6)
    else:
        cases = [(397, 3, 4, 34, 1)]
        large = (LARGE_P, 2, 5, 15, 6)
    items = []
    rng = random.Random(seed)
    for p, n, degree, npts, expected in cases:
        pts = [tuple(pt.coords) for pt in random_points(projective_space(GF(p), n), npts, rng)]
        items.append(Item(f"P{n}-GF({p})-deg{degree}", 1, (p, n, degree, pts), expected))
    p, n, degree, npts, expected = large
    pts = [tuple(pt.coords) for pt in random_points(projective_space(GF(p), n), npts, random.Random(seed + 1))]
    defect = "float64 mass evaluation is inexact for p >= 2^26.5 (ROADMAP, correctness)"
    items.append(Item(f"P{n}-GF({p})-deg{degree}", 1, (p, n, degree, pts), expected, defect))
    return items


def _run_gf(item):
    p, n, degree, pts = item.data
    J = impose_points(LinearSys.complete(projective_space(GF(p), n), degree), pts, [1] * len(pts))
    return J.nsections(), J.sections()


def nonvanishing(sections, pts, p):
    """Number of (section, point) pairs where the section does not vanish,
    evaluated in int64 with a reduction after every multiply (exact while
    p < 2^31)."""
    if not sections:
        return 0
    mons = sorted({e for s in sections for e in s.terms})
    E = np.array(mons, dtype=np.int64)
    C = np.array([[s.terms.get(e, 0) % p for e in mons] for s in sections], dtype=np.int64)
    X = np.array(pts, dtype=np.int64) % p
    bad = 0
    for start in range(0, len(pts), 256):
        block = X[start:start + 256]
        vals = np.ones((len(block), len(mons)), dtype=np.int64)
        for i in range(E.shape[1]):
            top = int(E[:, i].max())
            tbl = np.ones((len(block), top + 1), dtype=np.int64)
            for d in range(1, top + 1):
                tbl[:, d] = tbl[:, d - 1] * block[:, i] % p
            vals = vals * tbl[:, E[:, i]] % p
        for row in C:
            bad += int(np.count_nonzero((vals * row % p).sum(axis=1) % p))
    return bad


def _nonvanishing_item(item, out):
    p, _, _, pts = item.data
    return nonvanishing(out[1], pts, p)


def _check_gf(item, out):
    p, _, _, pts = item.data
    n, sections = out
    errors = []
    if n != item.expected:
        errors.append(f"{item.name}: nsections {n}, expected {item.expected}")
    bad = _nonvanishing_item(item, out)
    if bad:
        errors.append(f"{item.name}: {bad} of {len(sections) * len(pts)} section-at-point values are nonzero")
    return errors


# ---------------------------------------------------------------------------
# fq-search: the two finite-field searches

SEXTIC_PRIMES = (59, 61, 67, 71, 73, 79)


def _gen_fq_search(seed, size):
    trials, primes = (100, SEXTIC_PRIMES) if size == "full" else (2, SEXTIC_PRIMES[:1])
    items = [Item(f"z5-scan-{trials}", trials, (seed, trials), None)]
    items += [Item(f"sextic-pencil-{p}", 1, p, None) for p in primes]
    return items


def nodes30(count, hist):
    return count == 30 and hist.get("A1", 0) == 30


def _run_fq(item):
    if not item.name.startswith("z5-scan"):
        return sextic_pencil_scan(item.data)
    seed, trials = item.data
    records = []

    def target(count, hist):
        records.append((count, sorted(hist.items())))
        return nodes30(count, hist)

    res = invariant_family_scan("z5", 101, trials, target, rng=random.Random(seed))
    return res.trials, res.skipped, records


def _check_fq(item, out):
    if not item.name.startswith("z5-scan"):
        p = item.data
        K = GF(p, 2)
        trace = SEXTIC_PENCIL_TRACE.numerator * pow(SEXTIC_PENCIL_TRACE.denominator, -1, p) % p
        norm = SEXTIC_PENCIL_NORM.numerator * pow(SEXTIC_PENCIL_NORM.denominator, -1, p) % p
        if len(out) != 2:
            return [f"{item.name}: {len(out)} hits, expected 2"]
        e1, e2 = K.add(out[0], out[1]), K.mul(out[0], out[1])
        if e1 != K.from_int(trace) or e2 != K.from_int(norm):
            return [f"{item.name}: hits do not have the pinned trace and norm mod {p}"]
        return []
    _, trials = item.data
    ran, skipped, records = out
    errors = []
    if ran != trials or skipped + len(records) != trials:
        errors.append(f"{item.name}: {ran} trials run, {skipped} skipped, {len(records)} classified")
    for t, (count, hist) in enumerate(records):
        if sum(v for _, v in hist) != count:
            errors.append(f"{item.name}: record {t} histogram does not add up to {count}")
    return errors


def _fq_digest(items, outputs):
    _, skipped, records = outputs[0]
    return _digest([skipped, records])


def _gf_counts(items, outputs):
    bad = sum(_nonvanishing_item(it, out) for it, out in zip(items, outputs) if it.known_defect)
    return {"conditions.impose_points.large_p_nonvanishing": bad}


def _fq_counts(items, outputs):
    # classify runs on every singular point of every trial, even when the
    # point count already rules out the nodes30 target
    _, _, records = outputs[0]
    return {"singular.classify.wasted": sum(count for count, _ in records if count != 30)}


# ---------------------------------------------------------------------------


class Workload:
    """generate(seed, size) -> items; run_item(item) -> output;
    check(item, output) -> error strings; digest(items, outputs) -> str for
    the PINNED comparison; trace_counts(items, outputs) -> counts derived
    from the outputs of a traced batch."""

    def __init__(self, name, generate, run_item, check, digest=None, trace_counts=None):
        self.name = name
        self.generate = generate
        self.run_item = run_item
        self.check = check
        self.digest = digest
        self.trace_counts = trace_counts or (lambda items, outputs: {})

    def pinned(self, seed, size):
        if size != "full" or self.name not in PINNED:
            return None
        only, digest = PINNED[self.name]
        return digest if only is None or only == seed else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qq-rank", _gen_qq_rank, _run_count, _check_count),
        Workload("qq-special", _gen_qq_special, _run_special, _check_special, _special_digest),
        Workload("gf-points", _gen_gf_points, _run_gf, _check_gf, trace_counts=_gf_counts),
        Workload("fq-search", _gen_fq_search, _run_fq, _check_fq, _fq_digest, _fq_counts),
    )
}
