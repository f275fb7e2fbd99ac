"""lpfourier benchmark: one seeded workload per run, timed outside-in.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lp-envelope --seed 1 --seconds 35 --trace 0

Workloads are defined in ``workloads.py``; metric names, units and bounds in
``BENCHMARK.json`` at the checkout root.  A run:

1. sets up (import of ``src/lpfourier``, input construction, one warm-up
   call) and times it;
2. repeats whole passes of the workload until ``--seconds`` have elapsed
   (at least one pass) and reports the samples completed per second of
   timed passes;
3. checks the outputs outside the timed section: the first pass against
   independent routes, every later pass for bit-identity with the first;
4. with ``--trace 0`` repeats the set-up in fresh processes and reports the
   median as ``setup_s``; with ``--trace 1`` alternates untraced and traced
   passes and reports per-layer metrics, writing the spans of the first
   traced pass to ``.perfbench/``.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7  # set-ups per run: this process plus fresh ones


def _peak_rss_mb():
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0  # ru_maxrss is in KiB on Linux


def _import_program():
    if not (SRC / "lpfourier" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lpfourier sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import lpfourier

    if Path(lpfourier.__file__).resolve().parent != (SRC / "lpfourier").resolve():
        raise SystemExit(f"perfbench: imported lpfourier from {lpfourier.__file__}, not {SRC}")
    import workloads

    return workloads


def set_up(name, seed):
    """Import, build the inputs and make one warm-up call; returns (workload, seconds)."""
    t0 = perf_counter()
    workloads = _import_program()
    wl = workloads.WORKLOADS[name](seed)
    wl.warm_up()
    return wl, perf_counter() - t0


def _fresh_setup_s(name, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Passes:
    """Wall time, sample count and output fingerprint of each timed pass."""

    def __init__(self, wl):
        self.wl = wl
        self.first = None
        self.fingerprint = None
        self.walls = []
        self.samples = []
        self.mismatched = []

    def run(self, **kwargs):
        t0 = perf_counter()
        out = self.wl.run_pass(**kwargs)
        wall = perf_counter() - t0
        fp = repr(out)
        if self.first is None:
            self.first, self.fingerprint = out, fp
        self.walls.append(wall)
        self.samples.append(self.wl.count(out))
        self.mismatched.append(fp != self.fingerprint)
        return wall

    def failed(self, first_failures):
        """Failed samples over all passes: the first pass's failures, repeated by
        identical passes; every sample of a pass whose outputs differ."""
        return sum(n if bad else len(first_failures) for n, bad in zip(self.samples, self.mismatched))


def measure(wl, seconds):
    passes = Passes(wl)
    start = perf_counter()
    while not passes.walls or perf_counter() - start < seconds:
        passes.run()
    # samples over the whole timed window, not a median of pass rates: on a
    # 2-vCPU VM, passes fall into a fast and a slow mode some 1.7x apart
    # (the other vCPU idle or busy), and a median jumps between the modes
    # where the total moves with the share of time spent in each
    rate = sum(passes.samples) / sum(passes.walls)
    return passes, {"samples_per_s": rate, "peak_rss_mb": _peak_rss_mb()}


def measure_traced(wl, seconds):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones.

    The pool's workers would record spans in their own memory, so traced
    passes run serially; a workload with a pool also runs untraced serial
    passes to time the pool against (``convex_probe.pool_efficiency``).
    """
    import tracer

    pooled = getattr(wl, "workers", 1) > 1
    passes = Passes(wl)
    untraced, serial, traced, tracers = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(passes.run())
        if pooled:
            serial.append(passes.run(workers=1))
        t = tracer.Tracer()
        with t.install():
            traced.append(passes.run(workers=1))
        tracers.append(t)
    base = serial if pooled else untraced
    per_pass = [t.layer_metrics() for t in tracers]
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = statistics.median_low(m[name] for m in per_pass)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(base)
    metrics["convex_probe.pool_efficiency"] = (
        statistics.median(serial) / (wl.workers * statistics.median(untraced)) if pooled else 1.0
    )
    counters = [t.counters() for t in tracers]
    notes = [
        "untraced / serial / traced pass walls (s): "
        + " / ".join(" ".join(f"{w:.3f}" for w in ws) for ws in (untraced, serial, traced))
    ]
    repeatable = all(c == counters[0] for c in counters)
    if not repeatable:
        notes.append("counters differ between traced passes of identical inputs")
    missing = tracers[0].missing()
    if missing:
        notes.append("missing metrics (wrap target not found): " + ", ".join(missing))
    _write_trace(wl, tracers[0], counters[0], metrics, missing)
    return passes, metrics, notes, repeatable


def _write_trace(wl, t, counters, metrics, missing):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{wl.seed}.json"
    doc = {
        "workload": wl.name,
        "seed": wl.seed,
        "inputs": wl.describe(),
        "counters": counters,
        "metrics": metrics,
        "missing": missing,
        "span_fields": ["name", "start_ns", "end_ns", "parent"],
        "spans": t.spans,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    print(f"spans: {len(t.spans)} written to {path.relative_to(ROOT)}")


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        passes, metrics, notes, repeatable = measure_traced(wl, args.seconds)
        declared = bench["per_layer"]
    else:
        passes, metrics = measure(wl, args.seconds)
        notes, repeatable = ["pass walls (s): " + " ".join(f"{w:.3f}" for w in passes.walls)], True
        declared = bench["end_to_end"]

    first_failures = wl.failures(passes.first)
    attempted = sum(passes.samples)
    failed = passes.failed(first_failures)
    if any(passes.mismatched):
        notes.append(f"{sum(passes.mismatched)} passes differ from the first")

    if not args.trace:
        setups = [setup_s] + [_fresh_setup_s(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = statistics.median(setups)
        metrics["success_frac"] = 1.0 - failed / attempted

    out = {}
    for m in declared:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        else:
            notes.append(f"metric {m['name']} not measured")
    correct = not first_failures and not any(passes.mismatched) and repeatable

    print(f"workload {wl.name} seed {args.seed}: {len(passes.walls)} passes, {attempted} samples, correct={correct}")
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for note in notes:
        print(f"  note: {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
