"""The benchmark wraps library functions by name (perfbench/spans.py
`LAYERS`); a rename in the library must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from hyperlin import GF, LinearSys, affine_space, rationals

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves_to_a_callable():
    for module_name, attr, _ in _spans().LAYERS:
        target = importlib.import_module(f"hyperlin.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"


def test_conditions_binds_nullspace():
    # perfbench/selftest.py checks that tracing patches this binding
    conditions = importlib.import_module("hyperlin.conditions")
    linalg = importlib.import_module("hyperlin.linalg")
    assert conditions.nullspace is linalg.nullspace


def test_multiprime_nullspace_reaches_every_qq_special_layer():
    # a bypassed layer must fail here, not only in a traced benchmark run
    spans = _spans()
    linalg = importlib.import_module("hyperlin.linalg")
    reached = [name for name in spans.ASSIGNED["qq-special"] if name != "linsys.LinearSys.sections"]
    assert reached == ["linalg.clear_denominators", "linalg.rref_mod_p", "linalg.nullspace_rational",
                       "fields.crt_combine", "fields.rational_reconstruct"]
    # the third row is the sum of the first two; the basis needs several primes.
    # Fractions, as in qq-special's condition rows: integer rows are not cleared
    rows = [[Fraction(v) for v in row] for row in
            [[3 * 10**30 + 7, 10**30 + 1, 5], [2 * 10**30 + 11, 10**31 + 3, 7],
             [5 * 10**30 + 18, 11 * 10**30 + 4, 12]]]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        result = linalg.nullspace_rational(rows)
    finally:
        tracer.uninstall()
    assert result.rank == 2 and len(result.basis) == 1
    assert tracer.counts["linalg.nullspace_rational.primes"] == len(result.primes_used) > 1
    for name in reached:
        assert tracer.counts.get(f"{name}.calls"), name


def test_qq_rank_reaches_every_assigned_layer(monkeypatch):
    # one imposition forced onto the rank certificate, one on the generic
    # loop: together they must reach every layer qq-rank is assigned
    spans = _spans()
    conditions = importlib.import_module("hyperlin.conditions")
    linalg = importlib.import_module("hyperlin.linalg")
    assigned = spans.ASSIGNED["qq-rank"]
    assert assigned == ("conditions.point_condition_rows", "conditions.impose_points",
                        "linalg.clear_denominators", "linalg.rank_mod_p", "linalg.rref_mod_p",
                        "linalg.nullspace")
    L = LinearSys.complete(affine_space(rationals(), 2), 4)
    pts, mults = [(1, 2), (3, 5)], [2, 2]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_DEFER_MIN_ENTRIES", 0)
            certified = conditions.impose_points(L, pts, mults)
        generic = conditions.impose_points(L, pts, mults)
    finally:
        tracer.uninstall()
    assert certified._pending is not None and certified.nsections() == generic.nsections() == 9
    for name in assigned:
        assert tracer.counts.get(f"{name}.calls"), name


def test_fq_search_reaches_every_assigned_layer(monkeypatch):
    # the z5 scan and the pencil scan of the fq-search workload: the pencil
    # prefix (24 x 28) reaches linalg.nullspace through linalg.solve_nullspace,
    # and the GF(p) kernel through linalg.nullspace
    spans = _spans()
    blowup = importlib.import_module("hyperlin.blowup")
    conditions = importlib.import_module("hyperlin.conditions")
    singular = importlib.import_module("hyperlin.singular")
    assigned = spans.ASSIGNED["fq-search"]
    assert assigned == ("linalg.nullspace", "singular.singular_points", "singular.classify",
                        "singular.invariant_family_scan", "blowup.sextic_pencil_scan")
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        singular.invariant_family_scan("z5", 101, 2, lambda count, hist: False, rng=random.Random(0))
        before = dict(tracer.counts)
        assert len(blowup.sextic_pencil_scan(59)) == 2
    finally:
        tracer.uninstall()
    for name in assigned:
        assert tracer.counts.get(f"{name}.calls"), name
    for name in ("linalg.nullspace", "linalg.nullspace_mod_p"):
        assert tracer.counts.get(f"{name}.calls", 0) > before.get(f"{name}.calls", 0), name

    # every chain of one impose_chain call goes into a single elimination
    solved = []
    real_solve = conditions.solve_nullspace
    monkeypatch.setattr(conditions, "solve_nullspace", lambda *args: solved.append(args) or real_solve(*args))
    F = GF(101)
    L = LinearSys.complete(affine_space(F, 2), 8)
    specs = [blowup.BlowupChainSpec((1, 2), [3, 2], [(1, 4)]),
             blowup.BlowupChainSpec((5, 7), [2, 2, 1], [(1, 0), (3, 1)])]
    assert blowup.impose_chain(L, specs).nsections() == 45 - (6 + 3) - (3 + 3 + 1)
    assert len(solved) == 1
