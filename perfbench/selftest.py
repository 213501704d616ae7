"""Self-test of the benchmark at a small size; runs in a few seconds.

    python3 perfbench/selftest.py

It exercises each workload's generator (same seed, same inputs), its exact
output check (a correct answer passes, a corrupted one fails), the span
wiring of the traced run, the machine-speed probe, and run.py's result line, whose metrics must be
the ones BENCHMARK.json lists.  Exits 0 when every check holds.
"""

import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from hyperlin import conditions, linalg  # noqa: E402


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest: FAILED: {message}")


def corrupt(name, item, out):
    """A wrong answer of the same shape as `out`."""
    if name == "qq-rank":
        return out + 1
    if name in ("qq-special", "gf-points"):
        n, sections = out
        return n, [sections[0] + 1] + sections[1:]
    if item.name.startswith("z5-scan"):
        ran, skipped, records = out
        return ran, skipped + 1, records
    return [out[0], out[0]]


def check_workloads():
    for name, wl in workloads.WORKLOADS.items():
        items = wl.generate(1, "small")
        again = wl.generate(1, "small")
        expect([it.data for it in items] == [it.data for it in again], f"{name}: generator is not deterministic")
        for item in items:
            out = wl.run_item(item)
            errors = wl.check(item, out)
            expect(not errors, f"{name}: correct output rejected: {errors}")
            expect(wl.check(item, corrupt(name, item, out)), f"{name}: corrupted output of {item.name} accepted")
        print(f"selftest: {name}: {len(items)} item(s) generated, run and checked")


def check_tracing():
    orig = linalg.nullspace
    tracer = spans.Tracer()
    try:
        spans.install(tracer, extra=[workloads])
        expect(conditions.nullspace is not orig and linalg.nullspace is not orig, "nullspace not patched")
        expect(workloads.impose_points is conditions.impose_points, "the workloads module is not patched")
        wl = workloads.WORKLOADS["qq-rank"]
        item = wl.generate(0, "small")[0]
        with tracer.span("item"):
            wl.run_item(item)
    finally:
        tracer.uninstall()
    expect(conditions.nullspace is orig and linalg.nullspace is orig, "uninstall did not restore nullspace")
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    for name in ("item", "conditions.impose_points", "conditions.point_condition_rows", "linalg.nullspace"):
        expect(by_name.get(name), f"no span for {name}")
    expect(all(s.parent.name == "conditions.impose_points" for s in by_name["conditions.point_condition_rows"]),
           "point_condition_rows spans are not children of impose_points")
    self_s = tracer.self_seconds()
    total = sum(s.end - s.start for s in by_name["item"])
    expect(all(v >= 0 for v in self_s.values()) and abs(sum(self_s.values()) - total) < 1e-6,
           "self times do not add up to the item time")
    metrics = spans.layer_metrics(tracer, {})
    expect(metrics["conditions.point_condition_rows.calls"][0] == len(by_name["conditions.point_condition_rows"]),
           "calls metric does not match the spans")
    expect(spans.missing_layers(tracer, "qq-rank"), "missing-layer check does not fire")
    print(f"selftest: tracing: {len(tracer.spans)} spans, self times add up to the item time")


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def check_speed_probe():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        first = len(probe.samples)
        _, raw, ref = probe.timed(busy, 0.8)
    inside = probe.samples[first:]
    expect(len(inside) >= 5 and len(probe.spent) == len(probe.samples), f"{len(inside)} samples in 0.8 s")
    expected = (raw - sum(probe.spent[first:])) * speed.REF_S / statistics.fmean(inside)
    expect(abs(ref - expected) < 1e-9 and ref > 0, (raw, ref, expected))
    expect(signal.getsignal(signal.SIGALRM) is handler and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
           "the probe left its timer or handler installed")
    print(f"selftest: speed probe: {len(inside)} samples in {raw:.2f} s, speed factor {probe.speed_factor():.2f}")


def check_result_line():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "qq-rank", "--seed", "3",
               "--seconds", "0.5", "--trace", trace, "--size", "small"]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(res.stdout.strip().splitlines()[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], result)
        expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, result)
        expect(sorted(result["metrics"]) == sorted(m["name"] for m in bench[listed]),
               f"--trace {trace} metrics differ from the {listed} list")
        for metric in result["metrics"].values():
            expect(isinstance(metric["value"], (int, float)) and metric["unit"], metric)
    print("selftest: run.py prints the listed metrics with --trace 0 and --trace 1")


if __name__ == "__main__":
    check_workloads()
    check_tracing()
    check_speed_probe()
    check_result_line()
    print("selftest: ok")
