"""Outside-in span tracer for the lpfourier layers.

Nothing inside the package is changed: ``Tracer.install`` replaces, for the
duration of a ``with`` block, every public function of the six layer modules
at each place it is looked up (a module attribute), and restores the
originals on exit.  A function imported by name into another module
(``fourier.integrate_oscillatory``, ``convex_probe.integrate_oscillatory``,
``oscquad.panel_sums_from_values``, ...) is wrapped at that module too, under
the name of the module that defines it.

Each call records a span ``[name, start_ns, end_ns, parent]`` in memory.
Counts are taken at the same boundaries:

* ``panel_sums_from_values`` is the reduction every panel kernel reaches, so
  panels, node evaluations and computed bytes are counted there and
  attributed to the innermost open ``integrate_oscillatory`` call (one call
  of the reduction is one refinement round; the first one is the seed).
* ``integrate_oscillatory`` also wraps the integrand ``f`` and any
  ``panel_sums`` callable it is handed, as kernel-layer spans, so kernel time
  is not booked as adaptive-loop bookkeeping.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the traced code is single-threaded.
"""

import contextlib
import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("lpgeom", "_kernels", "oscquad", "fourier", "decay", "convex_probe")
KERNEL_PREFIX = "_kernels."
_PKG = "lpfourier"

# Functions whose absence turns named per-layer metrics into missing metrics.
REQUIRED_SPANS = {
    "lpgeom.phi": ("lpgeom.phi.calls", "lpgeom.phi.self_s"),
    "fourier.lp_initial_breaks": (
        "fourier.lp_initial_breaks.calls",
        "fourier.lp_initial_breaks.self_s",
        "fourier.seed_panels",
    ),
    "fourier.chi_hat_lp": ("fourier.chi_hat_lp.ms_p50", "fourier.chi_hat_lp.ms_p99"),
    "decay.scaled_sample": ("decay.scaled_sample.ms_p50", "decay.scaled_sample.ms_p99"),
    "_kernels.panel_sums_from_values": (
        "kernels.panels",
        "kernels.node_evals",
        "kernels.bytes_computed",
        "kernels.ns_per_panel",
    ),
    "oscquad.integrate_oscillatory": (
        "oscquad.integrate_oscillatory.calls",
        "oscquad.integrate_oscillatory.self_s",
        "oscquad.panels_evaluated",
        "oscquad.panels_kept",
        "oscquad.panel_yield",
        "oscquad.seed_share",
        "oscquad.budget_errors",
        "oscquad.rounds_mean",
    ),
    "decay.envelope_scan": ("decay.envelope_scan.self_s",),
    "convex_probe.chi_hat_body": ("convex_probe.chi_hat_body.self_s",),
    "convex_probe.chi_hat_body_parts": ("convex_probe.chi_hat_body_parts.self_s",),
    "convex_probe.body_curvature_min": ("convex_probe.body_curvature_min.s",),
}

# Histogram buckets of refinement rounds per integrate_oscillatory call.
ROUND_BUCKETS = ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 8), (9, 12), (13, 16), (17, None))


def bucket_name(lo, hi):
    if hi is None:
        return f"oscquad.rounds_hist.{lo}-up"
    return f"oscquad.rounds_hist.{lo}" if lo == hi else f"oscquad.rounds_hist.{lo}-{hi}"


def _layer_name(fn):
    module = fn.__module__ or ""
    if not module.startswith(_PKG + "."):
        return None
    short = module[len(_PKG) + 1:]
    return f"{short}.{fn.__name__}" if short in LAYERS else None


class Tracer:
    """Spans and counts of one traced pass; install with ``with tracer.install():``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._frames = []  # open integrate_oscillatory calls: [rounds, evaluated, seed]
        self.counts = Counter()
        self.rounds = Counter()
        self.wrapped = set()
        self._patched = []

    # -- recording -------------------------------------------------------
    def _span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _count_reduction(self, args, kwargs):
        v = args[0] if args else kwargs["v"]
        half = args[1] if len(args) > 1 else kwargs["half"]
        n = int(v.shape[0])
        c = self.counts
        c["kernels.panels"] += n
        c["kernels.node_evals"] += int(v.size)
        # read: node values and half-widths; write: one value and one error per panel
        c["kernels.bytes_computed"] += int(v.nbytes) + int(half.nbytes) + 16 * n
        if self._frames:
            frame = self._frames[-1]
            if frame[0] == 0:
                frame[2] = n
            frame[0] += 1
            frame[1] += n

    def _count_breaks(self, out):
        self.counts["fourier.seed_panels"] += len(out) - 1

    def _wrap_integrator(self, fn, name):
        span = self._span(name, fn)
        budget_error = getattr(importlib.import_module(_PKG + ".oscquad"), "QuadratureBudgetError", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if args and callable(args[0]):
                args = (self._span(KERNEL_PREFIX + "integrand", args[0]),) + args[1:]
            elif callable(kwargs.get("f")):
                kwargs["f"] = self._span(KERNEL_PREFIX + "integrand", kwargs["f"])
            if callable(kwargs.get("panel_sums")):
                kwargs["panel_sums"] = self._span(KERNEL_PREFIX + "panel_sums", kwargs["panel_sums"])
            frame = [0, 0, 0]
            self._frames.append(frame)
            try:
                out = span(*args, **kwargs)
            except Exception as exc:
                if budget_error is not None and isinstance(exc, budget_error):
                    self.counts["oscquad.budget_errors"] += 1
                raise
            finally:
                self._frames.pop()
                self.rounds[frame[0]] += 1
                self.counts["oscquad.panels_evaluated"] += frame[1]
                self.counts["oscquad.seed_panels"] += frame[2]
            self.counts["oscquad.panels_kept"] += int(out.panels_used)
            return out

        return traced

    def _wrapper_for(self, name, fn):
        if name == "oscquad.integrate_oscillatory":
            return self._wrap_integrator(fn, name)
        if name == "_kernels.panel_sums_from_values":
            return self._span(name, fn, before=self._count_reduction)
        if name == "fourier.lp_initial_breaks":
            return self._span(name, fn, after=self._count_breaks)
        return self._span(name, fn)

    # -- installing ------------------------------------------------------
    @contextlib.contextmanager
    def install(self):
        self._patch()
        try:
            yield self
        finally:
            self._unpatch()

    def _patch(self):
        cache = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{_PKG}.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                name = _layer_name(obj)
                if name is None:
                    continue
                if id(obj) not in cache:
                    cache[id(obj)] = self._wrapper_for(name, obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, cache[id(obj)])
                self.wrapped.add(name)

    def _unpatch(self):
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    # -- reading ---------------------------------------------------------
    def self_times_ns(self):
        spans = self.spans
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(int)
        for i, (name, start, end, _) in enumerate(spans):
            out[name] += end - start - covered[i]
        return out

    def durations_ns(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def missing(self):
        """Named per-layer metrics whose source function was not found."""
        out = []
        for name, metrics in REQUIRED_SPANS.items():
            if name not in self.wrapped:
                out.extend(metrics)
        return out

    def counters(self):
        """Deterministic counts of this pass: identical for identical inputs."""
        out = {k: int(v) for k, v in self.counts.items()}
        out["lpgeom.phi.calls"] = self.calls("lpgeom.phi")
        out["fourier.lp_initial_breaks.calls"] = self.calls("fourier.lp_initial_breaks")
        out["oscquad.integrate_oscillatory.calls"] = self.calls("oscquad.integrate_oscillatory")
        out["oscquad.rounds"] = {str(k): int(v) for k, v in sorted(self.rounds.items())}
        return out

    def layer_metrics(self):
        """Per-layer metrics of this pass, in the units BENCHMARK.json names."""
        c = self.counters()
        selfs = self.self_times_ns()
        kernel_ns = sum(v for k, v in selfs.items() if k.startswith(KERNEL_PREFIX))
        panels = c.get("kernels.panels", 0)
        evaluated = c.get("oscquad.panels_evaluated", 0)
        kept = c.get("oscquad.panels_kept", 0)
        quads = sum(self.rounds.values())
        m = {
            "lpgeom.phi.calls": c["lpgeom.phi.calls"],
            "lpgeom.phi.self_s": selfs.get("lpgeom.phi", 0) / 1e9,
            "fourier.lp_initial_breaks.calls": c["fourier.lp_initial_breaks.calls"],
            "fourier.lp_initial_breaks.self_s": selfs.get("fourier.lp_initial_breaks", 0) / 1e9,
            "fourier.seed_panels": c.get("fourier.seed_panels", 0),
            "fourier.chi_hat_lp.ms_p50": percentile(self.durations_ns("fourier.chi_hat_lp"), 50) / 1e6,
            "fourier.chi_hat_lp.ms_p99": percentile(self.durations_ns("fourier.chi_hat_lp"), 99) / 1e6,
            "decay.scaled_sample.ms_p50": percentile(self.durations_ns("decay.scaled_sample"), 50) / 1e6,
            "decay.scaled_sample.ms_p99": percentile(self.durations_ns("decay.scaled_sample"), 99) / 1e6,
            "kernels.panels": panels,
            "kernels.node_evals": c.get("kernels.node_evals", 0),
            "kernels.bytes_computed": c.get("kernels.bytes_computed", 0),
            "kernels.self_s": kernel_ns / 1e9,
            "kernels.ns_per_panel": kernel_ns / panels if panels else 0.0,
            "oscquad.integrate_oscillatory.calls": c["oscquad.integrate_oscillatory.calls"],
            "oscquad.integrate_oscillatory.self_s": selfs.get("oscquad.integrate_oscillatory", 0) / 1e9,
            "oscquad.panels_evaluated": evaluated,
            "oscquad.panels_kept": kept,
            "oscquad.panel_yield": kept / evaluated if evaluated else 0.0,
            "oscquad.seed_share": c.get("oscquad.seed_panels", 0) / kept if kept else 0.0,
            "oscquad.budget_errors": c.get("oscquad.budget_errors", 0),
            "oscquad.rounds_mean": sum(k * v for k, v in self.rounds.items()) / quads if quads else 0.0,
            "decay.envelope_scan.self_s": selfs.get("decay.envelope_scan", 0) / 1e9,
            "convex_probe.chi_hat_body.self_s": selfs.get("convex_probe.chi_hat_body", 0) / 1e9,
            "convex_probe.chi_hat_body_parts.self_s": selfs.get("convex_probe.chi_hat_body_parts", 0) / 1e9,
            "convex_probe.body_curvature_min.s": sum(self.durations_ns("convex_probe.body_curvature_min")) / 1e9,
        }
        for lo, hi in ROUND_BUCKETS:
            m[bucket_name(lo, hi)] = sum(
                v for k, v in self.rounds.items() if k >= lo and (hi is None or k <= hi)
            )
        for name in self.missing():
            m.pop(name, None)
        return m


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return float(ordered[int(rank) - 1])
