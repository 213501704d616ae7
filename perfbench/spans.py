"""Span and count recorder for the benchmark's traced runs.

The recorder wraps public functions of the library from outside: each
wrapper replaces the function under every name that refers to it in the
`hyperlin` package and its modules (a module that did `from .linalg import
nullspace_rational` looks the name up in its own globals, so that binding is
patched too).  Spans are kept in memory and written out once, when the run
ends.  Nothing here runs unless a traced run installs it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "child_s")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.child_s = 0.0


class Tracer:
    """Records one span per wrapped call, with its parent span and run id.

    `run` labels the spans of one workload item; the benchmark sets it before
    each item.  `on_return` hooks receive (args, result) of a wrapped call and
    add to `counts`, so ratios such as failed reconstructions are counted
    where the work happens.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.run = None
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent, self.run)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.end - s.start
            self.spans.append(s)

    # -- patching ------------------------------------------------------------------

    def wrap(self, module_name, attr, on_return=None, extra=()):
        """Replace hyperlin.<module_name>.<attr> everywhere it is bound: in
        every loaded hyperlin module and in the `extra` modules.  attr may
        be "Class.method"."""
        mod = importlib.import_module(f"hyperlin.{module_name}")
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrapper(name, orig, on_return))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        wrapped = self._wrapper(name, orig, on_return)
        targets = [m for n, m in sys.modules.items() if n == "hyperlin" or n.startswith("hyperlin.")]
        for target in targets + list(extra):
            for key, value in list(vars(target).items()):
                if value is orig:
                    setattr(target, key, wrapped)
                    self._undo.append((target, key, orig))

    def _wrapper(self, name, fn, on_return):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.count(f"{name}.calls")
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def self_seconds(self):
        """Self time per span name: duration minus the time of wrapped children."""
        out = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - s.child_s
        return out

    def write(self, path, extra=None):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            header = {"counts": self.counts, **(extra or {})}
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                parent = ids.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps([i, s.name, s.start, s.end, parent, s.run]) + "\n")


# ---------------------------------------------------------------------------
# the layers the benchmark traces


def _primes(tracer, args, result):
    tracer.count("linalg.nullspace_rational.primes", len(result.primes_used))


def _reconstruct_failed(tracer, args, result):
    if result is None:
        tracer.count("fields.rational_reconstruct.failed")


def _ref_madds(tracer, args, result):
    # multiply-adds of a forward elimination of an m x n matrix of rank r,
    # computed from the shape, not measured
    m, n = len(args[0]), len(args[0][0])
    r = len(result[1])
    tracer.count("linalg.ref_mod_p.computed_madds", m * n * r - (m + n) * r * r / 2 + r ** 3 / 3)


def _skipped(tracer, args, result):
    tracer.count("singular.invariant_family_scan.skipped", result.skipped)


LAYERS = (
    ("conditions", "point_condition_rows", None),
    ("conditions", "impose_points", None),
    ("linalg", "clear_denominators", None),
    ("linalg", "rank_mod_p", None),
    ("linalg", "rref_mod_p", None),
    ("linalg", "nullspace", None),
    ("linalg", "nullspace_rational", _primes),
    ("linalg", "ref_mod_p", _ref_madds),
    ("linalg", "nullspace_mod_p", None),
    ("fields", "crt_combine", None),
    ("fields", "rational_reconstruct", _reconstruct_failed),
    ("singular", "singular_points", None),
    ("singular", "classify", None),
    ("singular", "invariant_family_scan", _skipped),
    ("blowup", "sextic_pencil_scan", None),
    ("linsys", "LinearSys.sections", None),
)

# layers that must record calls on a workload; a renamed or bypassed
# function then shows up as a missing layer instead of a silent zero
ASSIGNED = {
    "qq-rank": ("conditions.point_condition_rows", "conditions.impose_points",
                "linalg.clear_denominators", "linalg.rank_mod_p", "linalg.rref_mod_p",
                "linalg.nullspace"),
    "qq-special": ("linalg.clear_denominators", "linalg.rref_mod_p", "linalg.nullspace_rational",
                   "fields.crt_combine", "fields.rational_reconstruct", "linsys.LinearSys.sections"),
    "gf-points": ("conditions.impose_points", "linalg.ref_mod_p", "linalg.nullspace_mod_p"),
    "fq-search": ("linalg.nullspace", "singular.singular_points", "singular.classify",
                  "singular.invariant_family_scan", "blowup.sextic_pencil_scan"),
}


def install(tracer, extra=()):
    for module_name, attr, hook in LAYERS:
        tracer.wrap(module_name, attr, hook, extra)


def layer_metrics(tracer, extra_counts):
    """Per-layer metrics {name: (value, unit)} of one traced batch."""
    counts = {**tracer.counts, **extra_counts}
    self_s = tracer.self_seconds()
    out = {}
    for module_name, attr, _ in LAYERS:
        name = f"{module_name}.{attr}"
        out[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    def frac(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out["linalg.nullspace_rational.primes"] = (counts.get("linalg.nullspace_rational.primes", 0), "count")
    out["fields.rational_reconstruct.fail_frac"] = (
        frac("fields.rational_reconstruct.failed", "fields.rational_reconstruct.calls"), "ratio")
    out["linalg.ref_mod_p.computed_madds"] = (counts.get("linalg.ref_mod_p.computed_madds", 0), "count")
    out["singular.classify.wasted_frac"] = (frac("singular.classify.wasted", "singular.classify.calls"), "ratio")
    for name in ("singular.invariant_family_scan.skipped", "conditions.impose_points.large_p_nonvanishing"):
        out[name] = (counts.get(name, 0), "count")
    return out


def missing_layers(tracer, workload):
    return [name for name in ASSIGNED.get(workload, ()) if not tracer.counts.get(f"{name}.calls")]
