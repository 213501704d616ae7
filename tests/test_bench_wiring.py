"""The benchmark wraps library functions by name (perfbench/spans.py
`LAYERS`); a rename in the library must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

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
