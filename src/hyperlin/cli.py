"""Command line driver: job files, named reproductions, scans and lifts.

    hyperlin run <job.json>       build a system and apply operations
    hyperlin repro <name>         re-run a named construction, verify its value
    hyperlin scan --family ...    random search in an invariant quintic family
    hyperlin lift ...             multi-prime pencil scan + rational lift

Every command accepts --seed (default 0) and --json.  Identical inputs with
identical seeds produce byte-identical reports: no timing or host information
is ever printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from fractions import Fraction

from . import gallery
from .ambient import Ambient, projective_space
from .blowup import (
    BlowupChainSpec,
    impose_chain,
    multiplicity_sequence,
    pencil_parameter_lift,
    quadrifolium,
    sextic_pencil_scan,
)
from .conditions import (
    SchemeSpec,
    image_system,
    impose_containment,
    impose_points,
    random_points,
)
from .fields import GF, CoefficientField, rationals
from .linsys import LinearSys
from .singular import classify, invariant_family_scan, singular_points


class JobError(ValueError):
    """Schema or content problem in a job file, with its location."""


def _fail(path, message):
    raise JobError(f"{path}: {message}")


@contextlib.contextmanager
def _located(path, errors=ValueError):
    try:
        yield
    except errors as exc:
        _fail(path, str(exc))


def _check_keys(obj, path, required=(), optional=()):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        _fail(path, f"unknown key(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        _fail(path, f"missing key(s): {', '.join(missing)}")


# ---------------------------------------------------------------------------
# job loading


def _load_field(data, path):
    _check_keys(data, path, required=("kind",), optional=("p", "k"))
    if data["kind"] != "gf":
        _check_keys(data, path, required=("kind",))  # p and k are GF's
    with _located(path, (ValueError, TypeError)):
        return CoefficientField.from_json(data)


def _load_ambient(data, field, path):
    _check_keys(data, path, required=("kind",), optional=("dim", "dims", "names"))
    kind = data["kind"]
    if kind in ("affine", "projective"):
        _check_keys(data, path, required=("kind", "dim"), optional=("names",))
        dims = [data["dim"]]
    elif kind == "product":
        _check_keys(data, path, required=("kind", "dims"), optional=("names",))
        dims = data["dims"]
    else:
        _fail(path, f"unknown ambient kind {kind!r}")
    with _located(path, (ValueError, TypeError)):
        return Ambient(kind, dims, field, names=data.get("names"))


def _parse_poly(ring, text, path, parse=None):
    if not isinstance(text, str):
        _fail(path, f"expected a polynomial string, got {text!r}")
    try:
        return (parse or ring.parse)(text)
    except (ValueError, TypeError) as exc:
        _fail(path, f"cannot parse {text!r}: {exc}")


def _parse_coord(field, value, path):
    if isinstance(value, bool) or isinstance(value, float):
        _fail(path, f"coordinates must be integers or strings, got {value!r}")
    try:
        if isinstance(value, int):
            return field.from_int(value)
        if isinstance(value, str):
            return field.parse(value)
    except (ValueError, TypeError) as exc:
        _fail(path, f"bad coordinate {value!r}: {exc}")
    _fail(path, f"bad coordinate {value!r}")


# the (required, optional) keys of each kind of starting system, in precedence order
_SYSTEM_KEYS = {
    "sections": (("sections",), ("degree",)),
    "matrix": (("matrix", "monomials"), ("degree",)),
    "degree": (("degree",), ()),
}


def _load_system(data, ambient, path):
    kind = next((k for k in _SYSTEM_KEYS if k in data), None) if isinstance(data, dict) else None
    if kind is None:
        _check_keys(data, path)  # not an object, or a key of no kind of system
        _fail(path, "one of 'degree', 'sections' or 'matrix' is required")
    _check_keys(data, path, *_SYSTEM_KEYS[kind])
    ring = ambient.ring
    field = ambient.field
    if kind == "sections":
        secs = [
            _parse_poly(ring, s, f"{path}.sections[{i}]")
            for i, s in enumerate(data["sections"])
        ]
        with _located(path):
            return LinearSys.from_sections(ambient, secs, degree=data.get("degree"))
    if kind == "matrix":
        mons = [
            _parse_poly(ring, m, f"{path}.monomials[{i}]", ring.parse_monomial)
            for i, m in enumerate(data["monomials"])
        ]
        rows = [
            [_parse_coord(field, v, f"{path}.matrix[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(data["matrix"])
        ]
        with _located(path):
            return LinearSys.from_matrix(ambient, rows, mons, degree=data.get("degree"))
    with _located(path):
        return LinearSys.complete(ambient, data["degree"])


def _load_scheme(data, ring, path):
    gens = [
        _parse_poly(ring, g, f"{path}.generators[{i}]")
        for i, g in enumerate(data.get("generators", []))
    ]
    saturated = data.get("saturated", False)
    if not isinstance(saturated, bool):
        _fail(f"{path}.saturated", "expected true or false")
    with _located(path):
        return SchemeSpec(gens, saturated=saturated)


# the (required, optional) keys of each operation, besides 'op'
_OPERATION_KEYS = {
    "impose-points": (("points", "multiplicities"), ()),
    "impose-chain": (("chains",), ()),
    "containment": ((), ("generators", "saturated")),
    "trace": ((), ("generators", "saturated")),
    "image-system": (("components", "target", "degree"), ("generators", "saturated")),
}


def _apply_operation(L, data, path):
    op = data.get("op") if isinstance(data, dict) else None
    if not isinstance(op, str) or op not in _OPERATION_KEYS:
        _check_keys(data, path, required=("op",), optional=data)  # not an object, or no 'op'
        _fail(path, f"unknown operation {op!r}")
    required, optional = _OPERATION_KEYS[op]
    _check_keys(data, path, ("op", *required), optional)
    ambient = L.ambient
    field = ambient.field
    if op == "impose-points":
        points = [
            [_parse_coord(field, v, f"{path}.points[{i}]") for v in pt]
            for i, pt in enumerate(data["points"])
        ]
        with _located(path):
            return impose_points(L, points, data["multiplicities"])
    if op == "impose-chain":
        specs = []
        for i, c in enumerate(data["chains"]):
            cpath = f"{path}.chains[{i}]"
            _check_keys(c, cpath, required=("point", "mults"), optional=("tangents",))
            with _located(cpath, (ValueError, TypeError)):
                specs.append(BlowupChainSpec.from_json(c, field))
        with _located(path):
            return impose_chain(L, specs)
    if op in ("containment", "trace"):
        scheme = _load_scheme(data, ambient.ring, path)
        with _located(path):
            if op == "containment":
                return impose_containment(L, scheme)
            return L.trace(scheme)
    if op == "image-system":
        if "saturated" in data and "generators" not in data:
            _fail(path, "'saturated' needs 'generators'")
        target = _load_ambient(data["target"], field, f"{path}.target")
        comps = [
            _parse_poly(ambient.ring, c, f"{path}.components[{i}]")
            for i, c in enumerate(data["components"])
        ]
        scheme = _load_scheme(data, ambient.ring, path) if "generators" in data else None
        with _located(path):
            return image_system(comps, target, data["degree"], scheme=scheme)


def _describe_ambient(ambient):
    base = repr(ambient.field)
    if ambient.kind == "affine":
        return f"A^{ambient.dims[0]} over {base}"
    if ambient.kind == "projective":
        return f"P^{ambient.dims[0]} over {base}"
    parts = " x ".join(f"P^{d}" for d in ambient.dims)
    return f"{parts} over {base}"


def run_job(data):
    """Execute a parsed job dict; returns the report payload."""
    _check_keys(
        data, "job", required=("field", "ambient", "system"),
        optional=("operations", "output"),
    )
    field = _load_field(data["field"], "job.field")
    ambient = _load_ambient(data["ambient"], field, "job.ambient")
    L = _load_system(data["system"], ambient, "job.system")
    ops = data.get("operations", [])
    if not isinstance(ops, list):
        _fail("job.operations", "expected a list")
    for i, opdata in enumerate(ops):
        L = _apply_operation(L, opdata, f"job.operations[{i}]")
    output = data.get("output", {})
    _check_keys(output, "job.output", optional=("sections",))
    show_sections = output.get("sections", False)
    degree = list(L.degree) if ambient.kind == "product" else L.degree[0]
    payload = {
        "ambient": _describe_ambient(L.ambient),
        "degree": degree,
        "nsections": L.nsections(),
    }
    if show_sections:
        payload["sections"] = [str(s) for s in L.sections()]
    return payload


def _render_job(payload):
    lines = [
        f"system: {payload['ambient']}, degree {payload['degree']}",
        f"nsections: {payload['nsections']}",
    ]
    if "sections" in payload:
        lines.append("sections:")
        lines.extend(f"  {s}" for s in payload["sections"])
    return lines


# ---------------------------------------------------------------------------
# named reproductions


def _repro_quadrifolium(seed):
    q = quadrifolium()
    got = str(q)
    ok = got == gallery.QUADRIFOLIUM_STRING
    lines = [f"curve: {got}", f"expected: {gallery.QUADRIFOLIUM_STRING}"]
    return ok, {"curve": got, "expected": gallery.QUADRIFOLIUM_STRING}, lines


def _repro_tacnode_cusp(seed):
    from .ambient import affine_space

    A2 = affine_space(rationals(), 2)
    J = LinearSys.complete(A2, 4)
    specs = [
        BlowupChainSpec((0, 0), [2, 2], [(1, 1)]),
        BlowupChainSpec((2, 3), [2, 1, 1], [(1, 1), (1, 0)]),
    ]
    L = impose_chain(J, specs)
    total = A2.ring.zero()
    for s in L.sections():
        total = total + s
    seq0 = multiplicity_sequence(total, (0, 0), [(1, 1)])
    seq1 = multiplicity_sequence(total, (2, 3), [(1, 1), (1, 0)])
    ok = L.nsections() == 4 and seq0 == [2, 2] and seq1 == [2, 1, 1]
    lines = [
        f"nsections: {L.nsections()} (expected 4)",
        f"multiplicities at (0, 0): {seq0} (expected [2, 2])",
        f"multiplicities at (2, 3): {seq1} (expected [2, 1, 1])",
    ]
    payload = {"nsections": L.nsections(), "tacnode": seq0, "cusp": seq1}
    return ok, payload, lines


def _repro_points_gf397(seed):
    rng = random.Random(seed)
    P3 = projective_space(GF(397), 3)
    L = LinearSys.complete(P3, 25)
    pts = random_points(P3, 3275, rng)
    J = impose_points(L, pts, [1] * len(pts))
    n = J.nsections()
    ok = n == 1
    lines = [f"degree 25 on P^3 over GF(397), 3275 random points", f"nsections: {n} (expected 1)"]
    return ok, {"nsections": n, "points": len(pts)}, lines


def _repro_plane_deg20(seed):
    from .ambient import affine_space

    rng = random.Random(seed)
    A2 = affine_space(rationals(), 2)
    L = LinearSys.complete(A2, 20)
    mults = [2] * 6 + [3] * 5 + [5] * 3 + [7] * 2 + [8, 9]
    pts = random_points(A2, len(mults), rng, lo=1, hi=40)
    J = impose_points(L, pts, mults)
    n = J.nsections()
    ok = n == 1
    lines = [
        f"degree 20 on A^2 over QQ, multiplicities {mults}",
        f"nsections: {n} (expected 1)",
    ]
    return ok, {"nsections": n, "multiplicities": mults}, lines


def _repro_trace_p6(seed):
    rng = random.Random(seed)
    field = GF(101)
    P6 = projective_space(field, 6)
    ring = P6.ring
    quadrics = []
    support = P6.monomial_basis(2)
    for _ in range(4):
        q = ring.zero()
        while q.is_zero():
            terms = {e: field.random(rng) for e in support}
            q = ring.zero()
            for e, c in terms.items():
                if not field.is_zero(c):
                    q = q + ring.monomial(e, c)
        quadrics.append(q)
    L = LinearSys.complete(P6, 2)
    T = L.trace(SchemeSpec(quadrics, saturated=True))
    n = T.nsections()
    ok = n == 24
    lines = [
        "quadrics on P^6 traced on a random intersection of 4 quadrics",
        f"nsections: {n} (expected 24)",
    ]
    return ok, {"nsections": n}, lines


def _singular_report(P3, F):
    pts = singular_points(F, P3)
    reports = classify(F, pts)
    hist = {}
    for r in reports:
        hist[r.classification] = hist.get(r.classification, 0) + 1
    return pts, reports, hist


def _repro_quintics(names):
    ok = True
    lines = []
    payload = {}
    for name in names:
        P3, F = getattr(gallery, name)()
        expected_count, expected_hist = gallery.EXPECTED_COUNTS[name]
        pts, reports, hist = _singular_report(P3, F)
        this_ok = len(pts) == expected_count and hist == expected_hist
        ok = ok and this_ok
        hist_str = ", ".join(f"{k}:{v}" for k, v in sorted(hist.items()))
        lines.append(f"{name} over {P3.field!r}:")
        lines.extend(f"  {r.line()}" for r in reports)
        lines.append(
            f"  total {len(pts)} ({hist_str}); expected {expected_count} "
            + ", ".join(f"{k}:{v}" for k, v in sorted(expected_hist.items()))
        )
        payload[name] = {"count": len(pts), "histogram": hist}
    return ok, payload, lines


def _repro_quintic_30_31(seed):
    return _repro_quintics(["nodal_quintic_30", "nodal_quintic_31"])


def _repro_quintic_cusps(seed):
    return _repro_quintics(["cuspidal_quintic_15", "cuspidal_quintic_18"])


def _repro_pencil_lift(seed):
    e1, e2, modulus, primes = pencil_parameter_lift()
    ok = e1 == gallery.SEXTIC_PENCIL_TRACE and e2 == gallery.SEXTIC_PENCIL_NORM
    lines = [
        f"primes: {', '.join(str(p) for p in primes)}",
        f"modulus: {modulus}",
        f"P(x) = x^2 - ({e1})*x + {e2}",
        f"expected P(x) = x^2 - ({gallery.SEXTIC_PENCIL_TRACE})*x + {gallery.SEXTIC_PENCIL_NORM}",
    ]
    payload = {
        "trace": str(e1),
        "norm": str(e2),
        "modulus": modulus,
        "primes": primes,
    }
    return ok, payload, lines


_REPROS = {
    "quadrifolium": _repro_quadrifolium,
    "tacnode-cusp": _repro_tacnode_cusp,
    "points-gf397": _repro_points_gf397,
    "plane-deg20": _repro_plane_deg20,
    "trace-p6": _repro_trace_p6,
    "quintic-30-31": _repro_quintic_30_31,
    "quintic-cusps": _repro_quintic_cusps,
    "sextic-pencil-lift": _repro_pencil_lift,
}


# ---------------------------------------------------------------------------
# scan / lift


def _run_scan(args):
    res = invariant_family_scan(
        args.family, args.q, args.trials, args.target,
        rng=random.Random(args.seed), stop_after=args.stop_after,
    )
    field = GF(args.q)
    lines = [
        f"scan {res.family} over GF({res.q}): trials={res.trials} "
        f"skipped={res.skipped} matches={len(res.matches)}"
    ]
    matches = []
    for m in res.matches:
        params = ",".join(field.to_str(v) for v in m.parameters)
        hist = ",".join(f"{k}:{v}" for k, v in sorted(m.histogram.items()))
        lines.append(
            f"match trial={m.trial} params=({params}) points={len(m.points)} hist={hist}"
        )
        lines.append(f"  {m.polynomial}")
        matches.append(
            {
                "trial": m.trial,
                "parameters": [field.to_str(v) for v in m.parameters],
                "count": len(m.points),
                "histogram": m.histogram,
                "polynomial": str(m.polynomial),
            }
        )
    payload = {
        "family": res.family,
        "q": res.q,
        "trials": res.trials,
        "skipped": res.skipped,
        "matches": matches,
    }
    return payload, lines


def _positive_int(data, key, least):
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        _fail(f"job.{key}", f"expected an integer >= {least}, got {value!r}")
    return value


def _run_lift(args):
    primes = None
    options = {}
    if args.job:
        data = _read_json(args.job)
        _check_keys(
            data, "job", required=("task",),
            optional=("start_prime", "target_modulus", "max_primes", "primes"),
        )
        if data["task"] != "sextic-pencil-lift":
            _fail("job.task", f"unknown lift task {data['task']!r}")
        primes = data.get("primes")
        for key, least in (("start_prime", 2), ("target_modulus", 1), ("max_primes", 1)):
            if key in data:
                options[key] = _positive_int(data, key, least)
    if args.primes:
        try:
            primes = [int(p) for p in args.primes.split(",") if p.strip()]
        except ValueError:
            raise JobError(f"--primes: cannot parse {args.primes!r}")
    e1, e2, modulus, used = pencil_parameter_lift(primes=primes, **options)
    lines = [
        f"primes: {', '.join(str(p) for p in used)}",
        f"modulus: {modulus}",
        f"P(x) = x^2 - ({e1})*x + {e2}",
    ]
    payload = {
        "trace": str(e1),
        "norm": str(e2),
        "modulus": modulus,
        "primes": used,
    }
    return payload, lines


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise JobError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise JobError(f"{path} is not valid JSON: {exc}")


# ---------------------------------------------------------------------------
# entry point


def _emit(payload, lines, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in lines:
            print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hyperlin",
        description="exact linear systems of hypersurfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a job file")
    run_p.add_argument("job", help="path to a job JSON file")

    repro_p = sub.add_parser("repro", help="re-run a named construction")
    repro_p.add_argument("name", choices=sorted(_REPROS))

    scan_p = sub.add_parser("scan", help="search an invariant quintic family")
    scan_p.add_argument("--family", required=True, choices=("z5", "z6"))
    scan_p.add_argument("--q", required=True, type=int)
    scan_p.add_argument("--trials", required=True, type=int)
    scan_p.add_argument(
        "--target", required=True, choices=("nodes30", "nodes31", "cusps15")
    )
    scan_p.add_argument("--stop-after", type=int, default=None)

    lift_p = sub.add_parser("lift", help="multi-prime pencil parameter lift")
    lift_p.add_argument("--primes", help="comma-separated primes to scan")
    lift_p.add_argument("--job", help="optional lift job JSON file")

    for p in (run_p, repro_p, scan_p, lift_p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", dest="as_json")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            payload = run_job(_read_json(args.job))
            _emit(payload, _render_job(payload), args.as_json)
            return 0
        if args.command == "repro":
            ok, payload, lines = _REPROS[args.name](args.seed)
            payload["name"] = args.name
            payload["ok"] = ok
            lines.append("result: " + ("PASS" if ok else "FAIL"))
            _emit(payload, lines, args.as_json)
            return 0 if ok else 1
        if args.command == "scan":
            payload, lines = _run_scan(args)
            _emit(payload, lines, args.as_json)
            return 0
        payload, lines = _run_lift(args)
        _emit(payload, lines, args.as_json)
        return 0
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
