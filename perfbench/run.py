"""Benchmark of the hyperlin library: one workload per run, in this process.

Usage, from the root of a source checkout (the library is imported from
./src, nothing is installed):

    python3 perfbench/run.py --workload qq-rank --seed 0 --seconds 23 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table

The run cycles through the workload's batch of items in a closed loop with
one client until the next item would end after --seconds (at least one
whole batch), then checks every answer exactly.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (wall_s and setup_s, both
at the reference speed of speed.py, and peak_rss_mb); with --trace 1 they
are the per-layer ones from a traced batch, and the spans are written to
perfbench/traces/.  See perfbench/README.md.
"""

import sys
import time

import speed

if "--setup-probe" in sys.argv:
    # set-up is scaled by the machine speed sampled just before and after it
    SETUP_SPEED = speed.SpeedProbe()
    SETUP_SPEED.sample(speed.MIN_SAMPLES)
T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported


def _import_workloads():
    # the library's default of one sweep thread applies
    os.environ.pop("HYPERLIN_THREADS", None)
    if not (SRC / "hyperlin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hyperlin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "hyperlin_threads": 1,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default (at most nproc)"),
    }


# ---------------------------------------------------------------------------
# running and checking batches


class Raised:
    """Output of an item that raised; its check always fails."""

    def __init__(self, exc):
        self.error = f"{type(exc).__name__}: {exc}"


def run_item(wl, item, tracer=None):
    try:
        if tracer is None:
            return wl.run_item(item)
        tracer.run = item.name
        with tracer.span("item"):
            return wl.run_item(item)
    except Exception as exc:  # an item that raises is a failed operation
        return Raised(exc)


def run_timed(wl, items, seconds, probe=None):
    """Cycle through the batch, one item after another, until the next item
    would end after `seconds` (its last latency as the estimate), with at
    least one whole batch.  Returns per-item lists of latencies at the
    reference speed of `probe` (raw without one), of raw latencies and of
    outputs.

    Stopping per item rather than per batch keeps the measured time close to
    `seconds` for every batch length, so no run flips between 2 and 3
    batches on a small change in speed."""
    lat = [[] for _ in items]
    raw = [[] for _ in items]
    outs = [[] for _ in items]
    start = time.perf_counter()
    for n in itertools.count():
        i = n % len(items)
        if n >= len(items) and time.perf_counter() - start + raw[i][-1] > seconds:
            return lat, raw, outs
        if probe is None:
            t = time.perf_counter()
            out = run_item(wl, items[i])
            raw_s = ref_s = time.perf_counter() - t
        else:
            out, raw_s, ref_s = probe.timed(run_item, wl, items[i])
        outs[i].append(out)
        raw[i].append(raw_s)
        lat[i].append(ref_s)


def batch_seconds(lat):
    """Time of one batch: the sum over items of each item's median latency."""
    return sum(statistics.median(x) for x in lat)


def check_outputs(wl, items, outs, seed, size):
    """Returns (attempted, failed, messages, defects).  Items marked with a
    known defect are checked but kept out of attempted and failed."""
    attempted = failed = 0
    messages, defects = [], []
    for item, results in zip(items, outs):
        for out in results:
            errors = [f"{item.name}: {out.error}"] if isinstance(out, Raised) else wl.check(item, out)
            if item.known_defect:
                defects.extend(f"{e} [known defect: {item.known_defect}]" for e in errors)
                continue
            attempted += item.ops
            if errors:
                failed += item.ops
                messages.extend(errors)
    pinned = wl.pinned(seed, size)
    for b in range(min(len(r) for r in outs) if pinned else 0):
        batch = [r[b] for r in outs]
        if not any(isinstance(o, Raised) for o in batch) and wl.digest(items, batch) != pinned:
            messages.append(f"digest {wl.digest(items, batch)} differs from the pinned {pinned}")
            failed += sum(it.ops for it in items if it.known_defect is None)
    return attempted, min(failed, attempted), messages, list(dict.fromkeys(defects))


def setup_probe(workload, seed, size):
    """Time, in a fresh process, importing hyperlin and generating inputs:
    (raw seconds, seconds at the reference speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--size", size]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# traced run


def traced_metrics(wl, workload, items, seconds, seed, size):
    import spans

    lat, _, outs = run_timed(wl, items, seconds / 2)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, extra=[sys.modules["workloads"]])
        t = time.perf_counter()
        outputs = [run_item(wl, item, tracer) for item in items]
        traced_s = time.perf_counter() - t
    finally:
        tracer.uninstall()
    untraced_s = batch_seconds(lat)
    print(json.dumps({"untraced_batch_s": untraced_s, "traced_batch_s": traced_s}))
    metrics = spans.layer_metrics(tracer, wl.trace_counts(items, outputs))
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    calibrate(metrics)
    missing = spans.missing_layers(tracer, workload) if size == "full" else []
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    suffix = "" if size == "full" else f"-{size}"
    tracer.write(out_dir / f"{workload}-seed{seed}{suffix}.jsonl",
                 {"workload": workload, "seed": seed, "env": environment(),
                  "metrics": {k: v for k, (v, _) in metrics.items()}})
    for results, out in zip(outs, outputs):
        results.append(out)
    return metrics, missing, outs


def calibrate(metrics):
    """Rate of ref_mod_p against a plain float64 matmul of the points-gf397
    size (median of three).  The multiply-add count of ref_mod_p is computed
    from each call's shape and rank, not measured."""
    import numpy as np

    n = 3276
    a = np.random.default_rng(0).random((n, n))
    times = []
    for _ in range(3):
        t = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t)
    matmul_s = statistics.median(times)
    madds, ref_s = metrics["linalg.ref_mod_p.computed_madds"][0], metrics["linalg.ref_mod_p.self_s"][0]
    metrics["calibration.matmul_3276_s"] = (matmul_s, "s")
    ratio = (madds / ref_s) / (n ** 3 / matmul_s) if ref_s > 0 else 0.0
    metrics["linalg.ref_mod_p.rate_vs_matmul"] = (ratio, "ratio")


def run_all(args, names):
    """Every workload in its own fresh process, one table row each."""
    print(f"{'workload':<12}{'wall_s [s]':>12}{'setup_s [s]':>13}{'peak_rss_mb [MB]':>18}{'ops':>6}{'ops_failed':>12}")
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--size", args.size]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = res.stdout.strip().splitlines()
        notes = [line for line in lines if line.startswith(("FAILED", "KNOWN DEFECT"))]
        if res.returncode != 0 or not lines:
            print(f"{name:<12} exited with {res.returncode}: {res.stderr.strip()[-300:]}")
            results[name] = None
            continue
        r = results[name] = json.loads(lines[-1])
        m = {k: v["value"] for k, v in r["metrics"].items()}
        print(f"{name:<12}{m['wall_s']:>12.3f}{m['setup_s']:>13.3f}{m['peak_rss_mb']:>18.1f}"
              f"{r['attempted']:>6}{r['failed']:>12}")
        for line in notes:
            print(f"  {line}")
    print(json.dumps(results))
    return 0 if all(results.values()) else 1


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all (untraced)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=23)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads = _import_workloads()
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    items = wl.generate(args.seed, args.size)
    if args.setup_probe:
        raw = time.perf_counter() - T0
        SETUP_SPEED.sample(speed.MIN_SAMPLES)
        print(json.dumps([raw, SETUP_SPEED.at_reference(raw)]))
        return 0

    print(json.dumps({"env": environment()}))
    if args.trace:
        metrics, missing, outs = traced_metrics(wl, args.workload, items, args.seconds, args.seed, args.size)
    else:
        setups = [setup_probe(args.workload, args.seed, args.size) for _ in range(SETUP_PROBES)]
        with speed.SpeedProbe() as probe:
            lat, raw, outs = run_timed(wl, items, args.seconds, probe)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (batch_seconds(lat), "s"),
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        missing = []
        print(json.dumps({"samples_per_item": [len(x) for x in lat], "item_median_s": [statistics.median(x) for x in lat],
                          "raw_wall_s": batch_seconds(raw), "raw_setup_s": statistics.median(r for r, _ in setups),
                          "setup_s_each": [s for _, s in setups], "speed_factor": probe.speed_factor()}))

    t = time.perf_counter()
    attempted, failed, messages, defects = check_outputs(wl, items, outs, args.seed, args.size)
    print(json.dumps({"check_s": time.perf_counter() - t}))
    for line in messages:
        print(f"FAILED {line}")
    for line in defects:
        print(f"KNOWN DEFECT (not counted) {line}")
    if missing:
        print(f"perfbench: no calls recorded for {', '.join(missing)} on {args.workload}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
