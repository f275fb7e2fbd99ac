"""Decay-envelope measurements for the l^p ball transform.

The object of interest is the scaled magnitude r^{3/2} |chi_hat(omega)|.
For 1 < p <= 2 it stays below ENVELOPE_UPPER_COEFF / sqrt(p-1); along the
witness sequence r_n = 2 pi n / psi(x*, theta*) in the flat-point
direction theta* it converges to the stationary-phase asymptote

    v_of_p(p) = 1 / (sqrt(pi) * sin(theta*)^{3/2} * sqrt((p-1) m(p))),

whose (p-1)^{-1/2} blow-up is the quantity the blow-up fit extracts.
Between the r_n the scaled value oscillates along theta* with period
2 pi / psi(x*, theta*); its peaks, at r_n + 3 pi / (4 psi(x*, theta*)),
approach the peak asymptote sqrt(2) v_of_p.  Envelope scans sample both
the r_n and these peaks (``witness_r_values``).
"""

import math
import multiprocessing.util
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fourier, lpgeom
from .lpgeom import as_p
from .oscquad import QuadConfig, QuadratureBudgetError

# coefficient of the (p-1)^{-1/2} upper envelope bound
ENVELOPE_UPPER_COEFF = 12.0 * 2.0**0.25
# coefficient attached to the witness-sequence lower bound; reported in
# summaries but never asserted (the measured asymptote is v_of_p)
SEQUENCE_LOWER_COEFF = 2.0**1.75 * math.sqrt(math.pi)

R_MIN_ALLOWED = 5.0
_MAX_FAILED_FRACTION = 0.01
# the most samples of a scan per task (``_scan``): one adaptive loop, and one
# pool task, each.  Larger batches amortise more per-call cost but hold more
# panels at once (peak memory); README § Backends has the measured table
BATCH_SAMPLES = 128
# (pid, workers, pool): the process pool _ordered_map keeps between scans
_POOL = None


@dataclass(frozen=True)
class EnvelopeSample:
    """One scan sample; a failed one has method 'budget-error' and the engine's ``reason``.

    ``reason`` is the QuadratureBudgetError's reason ('seed-budget',
    'stalled', 'min-width', 'budget' or 'unseedable'), None for a sample
    that succeeded; it stays out of the repr.
    """

    p: float
    r: float
    theta: float
    scaled_value: float  # r^{3/2} |chi_hat|
    err_estimate: float
    method: str
    reason: Optional[str] = field(default=None, repr=False)


@dataclass(frozen=True)
class SequenceSpec:
    p: float
    theta_star: float
    base_phase: float  # psi(x*; theta*)
    r_values: tuple


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_abs_residual: float


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    bound: float
    c_est: float
    slack_ratio: float


def v_of_p(p):
    """Stationary-phase asymptote of the scaled witness-sequence values."""
    p = as_p(p)
    if not (1.0 < p < 2.0):
        raise ValueError("asymptote is defined for 1 < p < 2")
    prof = lpgeom.geom_profile(p)
    st = math.sin(prof.theta_star)
    return 1.0 / (math.sqrt(math.pi) * st**1.5 * math.sqrt(prof.min_abs_phi2))


def default_r_grid(r_min=5.0, r_max=2000.0, per_decade=60):
    """Log-spaced radial grid, per_decade points per decade."""
    if not (R_MIN_ALLOWED <= r_min < r_max < math.inf):
        raise ValueError(f"need {R_MIN_ALLOWED} <= r_min < r_max < inf")
    n = max(2, int(math.ceil(per_decade * math.log10(r_max / r_min))) + 1)
    return np.geomspace(r_min, r_max, n)


def default_theta_grid(p, n=48):
    """Uniform angles on [pi/4, pi/2] plus theta*(p) and pi/2 exactly."""
    p = as_p(p)
    grid = np.linspace(0.25 * math.pi, 0.5 * math.pi, n)
    return np.unique(np.concatenate([grid, [lpgeom.theta_star(p), 0.5 * math.pi]]))


def scaled_samples(p, points, cfg=None):
    """Envelope samples r^{3/2}|chi_hat| at the polar frequencies (r, theta) of points.

    The transforms run as one batch (``fourier.chi_hat_lp_batch``); a
    sample whose integral fails is recorded with method 'budget-error' and
    the failure's reason.
    """
    cfg = cfg or QuadConfig()
    omegas = [fourier.Frequency.from_polar(r, theta) for r, theta in points]
    out = []
    for (r, theta), res in zip(points, fourier.chi_hat_lp_batch(p, omegas, cfg)):
        if isinstance(res, QuadratureBudgetError):
            out.append(EnvelopeSample(p, r, theta, float("nan"), float("inf"), "budget-error", res.reason))
            continue
        s = r**1.5
        out.append(
            EnvelopeSample(p, r, theta, s * abs(res.value), s * res.err_estimate, res.method)
        )
    return out


def scaled_sample(p, r, theta, cfg=None):
    """One envelope sample r^{3/2}|chi_hat| at polar frequency (r, theta).

    Kept for the benchmark tracer's ``REQUIRED_SPANS``, which names it.
    """
    return scaled_samples(p, [(r, theta)], cfg)[0]


def _sample_batch_worker(task):
    p, points, cfg = task
    return scaled_samples(p, points, cfg)


def _pool(workers):
    """The process's pool of `workers` processes, built on first use.

    A cached pool of another size, or one built in another process (a
    forked child inherits the reference, not the pool's manager thread),
    is dropped first.
    """
    global _POOL
    if _POOL is not None:
        pid, size, pool = _POOL
        if pid == os.getpid() and size == workers:
            return pool
        _drop_pool()
    pool = ProcessPoolExecutor(max_workers=workers)
    _POOL = (os.getpid(), workers, pool)
    # a process started by multiprocessing ends without the interpreter's
    # exit hooks, which join the workers, but runs these finalizers before
    # it joins its children; the pool's own queues close at priority 10
    multiprocessing.util.Finalize(None, _drop_pool, exitpriority=100)
    return pool


def _drop_pool():
    """Forget the cached pool, and shut it down if this process built it."""
    global _POOL
    if _POOL is not None:
        pid, _, pool = _POOL
        _POOL = None
        if pid == os.getpid():
            pool.shutdown()


def _ordered_map(fn, tasks, workers):
    """[fn(t) for t in tasks], on a process pool when workers > 1.

    The pool lives for the whole process: the first call with workers > 1
    builds it, later calls with the same count reuse it, and a call with
    another count shuts it down and builds a new one.  A BrokenProcessPool
    (a worker died) drops the pool and is re-raised; the next call builds
    a fresh one.  At interpreter exit concurrent.futures joins the workers;
    a process started by multiprocessing shuts the pool down before it
    joins its children.
    The pool uses the platform's default start method, so fn, the tasks
    and their results (failures included) must pickle.  Each task goes to
    the pool on its own: scans hand over batches of up to BATCH_SAMPLES
    samples, at least one per worker, so dispatch is paid once per batch.
    The map keeps task order, so the downstream fold is deterministic.
    Raises ValueError when workers < 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if workers == 1:
        return [fn(t) for t in tasks]
    try:
        return list(_pool(workers).map(fn, tasks))
    except BrokenProcessPool:
        _drop_pool()
        raise


def _scan(worker, subject, points, cfg, workers):
    """The samples worker((subject, batch, cfg)) returns for points, in point order.

    The driver of every scan: the points are dealt round-robin into tasks
    of _ordered_map, as few as keep each one within BATCH_SAMPLES samples,
    rounded up to a multiple of the worker count (and no more than the n
    points).  So every worker gets the same number of tasks, and each task
    spans the whole grid, its cheap and its costly samples alike.  The
    outputs are put back in point order.  A sample does not depend on its
    batch, so the samples are the same for any worker count and batch size.
    """
    n = len(points)
    # workers < 1 gets no task, and _ordered_map rejects it
    count = min(n, workers * -(-n // (workers * BATCH_SAMPLES))) if workers > 0 else 0
    tasks = [(subject, points[j::count], cfg) for j in range(count)]
    out = [None] * n
    for j, batch in enumerate(_ordered_map(worker, tasks, workers)):
        out[j::count] = batch
    return out


def _polar_points(r_grid, theta_grid):
    """The (r, theta) points of the polar grid as floats, r-major.

    Raises ValueError unless r_grid is nonempty and finite with
    min >= R_MIN_ALLOWED, and theta_grid finite.
    """
    r_grid = np.asarray(r_grid, dtype=np.float64)
    if r_grid.size == 0 or not (R_MIN_ALLOWED <= r_grid.min() and r_grid.max() < math.inf):
        raise ValueError(f"r_grid must be nonempty and finite with min >= {R_MIN_ALLOWED}")
    if not np.all(np.isfinite(theta_grid)):
        raise ValueError("theta_grid must be finite")
    return [(float(r), float(t)) for r in r_grid for t in theta_grid]


def _base_phase(prof):
    """Phase psi(x*; theta*) = cos(theta*) x* + sin(theta*) phi_p(x*) at the flat point."""
    return math.cos(prof.theta_star) * prof.x_star + math.sin(prof.theta_star) * lpgeom.phi(
        prof.p, prof.x_star
    )


def witness_r_values(p, r_min, r_max):
    """Witness radii inside [r_min, r_max]: the aligned r_n plus the offset
    r_n + 3 pi/(4 base_phase), where the scaled value along theta* peaks
    near sqrt(2) v_of_p (the aligned r_n sit near v_of_p itself)."""
    p = as_p(p)
    if not (1.0 < p < 2.0):
        return np.empty(0)
    base = _base_phase(lpgeom.geom_profile(p))
    n_lo = max(1, int(math.ceil(r_min * base / (2.0 * math.pi))))
    n_hi = int(math.floor(r_max * base / (2.0 * math.pi)))
    if n_hi < n_lo:
        return np.empty(0)
    ns = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    aligned = 2.0 * math.pi * ns / base
    offset = aligned + 3.0 * math.pi / (4.0 * base)
    rs = np.concatenate([aligned, offset])
    return np.sort(rs[(rs >= r_min) & (rs <= r_max)])


def envelope_scan(p, r_grid=None, theta_grid=None, cfg=None, workers=1):
    """Scan the scaled transform over a polar grid plus the witness radii.

    The samples run through the scan driver ``_scan``.  Returns
    (c_est, samples) where c_est is the max of scaled_value over all
    successful samples, folded in deterministic grid order.  Failed
    samples are recorded with method 'budget-error' and excluded from the
    max; more than 1% of failures aborts the scan with a
    QuadratureBudgetError carrying the reason of the first failed sample
    in point order.
    """
    p = as_p(p)
    if not (1.0 < p <= 2.0):
        raise ValueError("envelope scans need p in (1, 2]")
    cfg = cfg or QuadConfig()
    r_grid = default_r_grid() if r_grid is None else np.asarray(r_grid, dtype=np.float64)
    if theta_grid is None:
        theta_grid = default_theta_grid(p)
    else:
        theta_grid = np.asarray(theta_grid, dtype=np.float64)
        # the flat-point direction must be sampled: it carries the witnesses
        ts = lpgeom.theta_star(p)
        if not np.any(np.abs(theta_grid - ts) < 1e-12):
            theta_grid = np.sort(np.append(theta_grid, ts))

    points = _polar_points(r_grid, theta_grid)
    t_star = lpgeom.theta_star(p)
    witness = witness_r_values(p, np.min(r_grid), np.max(r_grid))
    points += [(float(rw), t_star) for rw in witness]

    samples = _scan(_sample_batch_worker, p, points, cfg, workers)
    failures = [s for s in samples if s.method == "budget-error"]
    if len(failures) > _MAX_FAILED_FRACTION * len(samples):
        raise QuadratureBudgetError(
            f"scan aborted: {len(failures)}/{len(samples)} samples failed",
            float("nan"), float("inf"), 0, failures[0].reason,
        )
    c_est = 0.0
    for s in samples:
        if s.method != "budget-error" and s.scaled_value > c_est:
            c_est = s.scaled_value
    return c_est, samples


def stationary_sequence(p, n_min, n_max):
    """Witness radii r_n = 2 pi n / psi(x*; theta*) for n_min <= n <= n_max."""
    p = as_p(p)
    if not (1.0 < p < 2.0):
        raise ValueError("witness sequence needs 1 < p < 2 (degenerate at the endpoints)")
    if not (1 <= n_min <= n_max):
        raise ValueError("need 1 <= n_min <= n_max")
    prof = lpgeom.geom_profile(p)
    base = _base_phase(prof)
    rs = tuple(2.0 * math.pi * n / base for n in range(n_min, n_max + 1))
    return SequenceSpec(p=p, theta_star=prof.theta_star, base_phase=base, r_values=rs)


def sequence_values(p, spec, cfg=None):
    """Samples along the witness sequence: list of (n, EnvelopeSample).

    The samples run through the scan driver ``_scan`` on one worker.
    Raises QuadratureBudgetError naming the first sample, in order, that
    misses its tolerance, with that sample's reason.
    """
    p = as_p(p)
    cfg = cfg or QuadConfig()
    points = [(r, spec.theta_star) for r in spec.r_values]
    out = []
    for s in _scan(_sample_batch_worker, p, points, cfg, 1):
        n = round(s.r * spec.base_phase / (2.0 * math.pi))
        if s.method == "budget-error":
            raise QuadratureBudgetError(
                f"witness sample n={n} (r={s.r!r}) failed",
                s.scaled_value, s.err_estimate, 0, s.reason,
            )
        out.append((n, s))
    return out


def upper_bound_check(p, c_est):
    """Compare a measured envelope against ENVELOPE_UPPER_COEFF/sqrt(p-1)."""
    p = as_p(p)
    if p == 1.0:
        raise ValueError("bound undefined at p = 1 (divides by sqrt(p-1))")
    bound = ENVELOPE_UPPER_COEFF / math.sqrt(p - 1.0)
    c_est = float(c_est)
    slack = bound / c_est if c_est > 0.0 else float("inf")
    return BoundCheck(passed=(c_est <= bound), bound=bound, c_est=c_est, slack_ratio=slack)


def fit_power_law(u, v):
    """Least-squares slope/intercept of log(v) against log(u)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.size != v.size or u.size < 2:
        raise ValueError("need at least two matching points")
    if np.any(u <= 0.0) or np.any(v <= 0.0):
        raise ValueError("power-law fit needs positive data")
    if np.unique(u).size < 2:
        raise ValueError("power-law fit needs at least two distinct u values")
    lx, ly = np.log(u), np.log(v)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return FitResult(float(slope), float(intercept), float(np.max(np.abs(resid))))


def blowup_fit(p_grid, n_ref, cfg=None):
    """Fit the blow-up exponent of the witness values against p - 1.

    Evaluates the scaled transform at witness index n_ref for each p and
    fits log(value) ~ slope * log(p-1); the expected slope is -1/2.
    """
    p_grid = [as_p(p) for p in p_grid]
    if len(p_grid) < 4:
        raise ValueError("need at least 4 exponents for the fit")
    if any(not (1.0 < p <= 1.5) for p in p_grid):
        raise ValueError("fit grid must lie in (1, 1.5]")
    cfg = cfg or QuadConfig()
    vals = []
    for p in p_grid:
        spec = stationary_sequence(p, n_ref, n_ref)
        ((_, s),) = sequence_values(p, spec, cfg)
        vals.append(s.scaled_value)
    return fit_power_law([p - 1.0 for p in p_grid], vals)


def fit_asymptote_reference(p_grid):
    """The same fit applied to v_of_p itself (quadrature-free reference)."""
    p_grid = [as_p(p) for p in p_grid]
    return fit_power_law([p - 1.0 for p in p_grid], [v_of_p(p) for p in p_grid])


def positive_int(text):
    """int(text), which must be at least 1; ValueError otherwise."""
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def default_workers():
    """Worker count from LPFOURIER_WORKERS, defaulting to 1.

    Raises ValueError naming the variable when it is set to anything but
    a positive integer.
    """
    text = os.environ.get("LPFOURIER_WORKERS", "1")
    try:
        return positive_int(text)
    except ValueError:
        raise ValueError(f"LPFOURIER_WORKERS must be a positive integer, got {text!r}") from None
