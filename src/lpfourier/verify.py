"""Named acceptance suites: one callable per criterion, pinned tolerances.

``CRITERIA`` is the one table of criteria: id -> (name, check, time
budget).  A check returns (passed, detail); ``run_criterion`` times it,
applies the budget and builds the CriterionResult, and run_suite prints
one pass/fail line per criterion.  All randomness is seeded, so a suite
is a deterministic measurement.  The integrands written here (the van der
Corput and quadratic phases) use libm's sin, not the half-angle kernels of
``_kernels``, so they stay independent checks of them.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import convex_probe, decay, fourier, lpgeom
from .oscquad import fresnel_symmetric, integrate_oscillatory, uniform_breaks
from .oscquad import vdc_bound_first, vdc_bound_second

SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
DISK_ENVELOPE = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    seconds: float


def criterion_oracle_triangle(workers=1):
    """50 random (p, omega): reduction vs brute force 1e-6, x- vs y-slicing 1e-8."""
    rng = np.random.default_rng(20240811)
    worst_brute = 0.0
    worst_pair = 0.0
    for _ in range(50):
        p = rng.uniform(1.0, 2.0)
        r = rng.uniform(2.0, 30.0)
        th = rng.uniform(0.06, 0.5 * math.pi - 0.06)
        omega = (r * math.cos(th), r * math.sin(th))
        v_main = fourier.chi_hat_lp(p, omega).value
        v_brute = fourier.chi_hat_bruteforce(p, omega)
        v_swap = fourier.chi_hat_lp_via_y(p, omega).value
        worst_brute = max(worst_brute, abs(v_main - v_brute))
        worst_pair = max(worst_pair, abs(v_main - v_swap))
    ok = worst_brute <= 1e-6 and worst_pair <= 1e-8
    return ok, (
        f"max |reduction - brute| = {worst_brute:.2e} (tol 1e-6), "
        f"max |x-slice - y-slice| = {worst_pair:.2e} (tol 1e-8)"
    )


def criterion_closed_forms(workers=1):
    """Diamond value at (pi, 2pi) to 1e-9; disk values vs the J1 route to 1e-8."""
    target = -4.0 / (3.0 * math.pi**3)
    got = fourier.chi_hat_lp(1.0, (math.pi, 2.0 * math.pi)).value
    err_l1 = abs(got - target)
    worst_disk = 0.0
    for r in (1.0, 10.0, 50.0, 100.0):
        v = fourier.chi_hat_lp(2.0, (0.0, r)).value
        worst_disk = max(worst_disk, abs(v - fourier.chi_hat_disk_oracle(r)))
    ok = err_l1 <= 1e-9 and worst_disk <= 1e-8
    return ok, (
        f"diamond error {err_l1:.2e} (tol 1e-9), disk vs J1 route {worst_disk:.2e} (tol 1e-8)"
    )


def criterion_geometry(workers=1):
    """m endpoints exact, m decreasing, flat-point identity, curvature minimum."""
    checks = []
    checks.append(("m(1) == 4", lpgeom.m_of_p(1.0) == 4.0))
    checks.append(("m(2) == 1", lpgeom.m_of_p(2.0) == 1.0))
    grid = np.linspace(1.0, 2.0, 100)
    m_vals = np.array([lpgeom.m_of_p(p) for p in grid])
    checks.append(("m strictly decreasing", bool(np.all(np.diff(m_vals) < 0.0))))
    worst_flat = 0.0
    worst_curv = 0.0
    for p in (1.1, 1.5, 1.9):
        xs = lpgeom.x_star(p)
        target = (p - 1.0) * lpgeom.m_of_p(p)
        worst_flat = max(worst_flat, abs(abs(lpgeom.phi_d2(p, xs)) - target) / target)
        k_min, _ = convex_probe.body_curvature_min(convex_probe.lp_ball_body(p))
        ref = lpgeom.min_curvature(p)
        worst_curv = max(worst_curv, abs(k_min - ref) / ref)
    checks.append(("flat-point identity 1e-10", worst_flat <= 1e-10))
    checks.append(("curvature minimum 1e-6", worst_curv <= 1e-6))
    failed = [name for name, ok in checks if not ok]
    return not failed, (
        f"flat-point rel err {worst_flat:.2e}, curvature-min rel err {worst_curv:.2e}"
        + (f"; FAILED: {failed}" if failed else "")
    )


def random_monotone_phase(rng):
    """psi with psi' = lam*(1 + q(x)^2) >= lam, q a random cubic; exact polys."""
    lam = 10.0 ** rng.uniform(-1.0, 0.7)
    q = np.polynomial.Polynomial(rng.uniform(-3.0, 3.0, size=4))
    psi = ((q**2).integ() + np.polynomial.Polynomial([0.0, 1.0])) * lam
    return psi, lam


def random_convex_phase(rng):
    """psi with psi'' = lam*(1 + s(x)^2) >= lam and a stationary point inside."""
    lam = 10.0 ** rng.uniform(-1.0, 0.7)
    s = np.polynomial.Polynomial(rng.uniform(-2.0, 2.0, size=4))
    d2 = (s**2 + 1.0) * lam
    d1 = d2.integ()
    x0 = rng.uniform(0.2, 0.8)
    d1 = d1 - d1(x0)  # stationary point at x0
    return d1.integ(), lam


def _osc_integral_of_poly_phase(psi, r, a, b):
    d1 = psi.deriv()
    grid = np.linspace(a, b, 513)
    rate = r * float(np.max(np.abs(d1(grid))))
    return integrate_oscillatory(lambda x: np.sin(r * psi(x)), uniform_breaks(a, b, rate))


def criterion_van_der_corput(workers=1):
    """100 randomized phases per bound; zero violations allowed."""
    rng = np.random.default_rng(7071067)
    violations = 0
    worst_ratio = 0.0
    for _ in range(100):
        psi, lam = random_monotone_phase(rng)
        r = 10.0 ** rng.uniform(0.0, 4.0)
        a = rng.uniform(0.0, 0.3)
        b = rng.uniform(0.7, 1.0)
        res = _osc_integral_of_poly_phase(psi, r, a, b)
        bound = vdc_bound_first(r, lam)
        if abs(res.value) > bound + res.err_estimate + 1e-12:
            violations += 1
        worst_ratio = max(worst_ratio, abs(res.value) / bound)
    worst_ratio2 = 0.0
    for _ in range(100):
        psi, lam = random_convex_phase(rng)
        r = 10.0 ** rng.uniform(0.0, 4.0)
        res = _osc_integral_of_poly_phase(psi, r, 0.0, 1.0)
        bound = vdc_bound_second(r, lam)
        if abs(res.value) > bound + res.err_estimate + 1e-12:
            violations += 1
        worst_ratio2 = max(worst_ratio2, abs(res.value) / bound)
    ok = violations == 0
    return ok, (
        f"{violations} violations; tightest first-bound ratio {worst_ratio:.3f}, "
        f"second-bound ratio {worst_ratio2:.3f}"
    )


def criterion_stationary_fresnel(workers=1):
    """Fresnel remainder <= 2/m on [10, 100]; quadratic-phase ratio in [0.95, 1.05]."""
    worst_c = 0.0
    ok = True
    for m in np.linspace(10.0, 100.0, 46):
        diff = abs(fresnel_symmetric(float(m)) - SQRT_PI_OVER_2)
        worst_c = max(worst_c, m * diff)
        if diff > 2.0 / m:
            ok = False
    r = 1e5
    res = integrate_oscillatory(lambda x: np.sin(r * (x - 0.5) ** 2), uniform_breaks(0.0, 1.0, r))
    ratio = abs(res.value) * math.sqrt(2.0 * r) / math.sqrt(math.pi)
    ok = ok and (0.95 <= ratio <= 1.05)
    return ok, f"fitted Fresnel constant {worst_c:.3f} (<= 2), quadratic-phase ratio {ratio:.4f}"


_UPPER_BOUND_PS = (1.1, 1.3, 1.5, 2.0)


def criterion_upper_bound(workers=1):
    """Default-grid envelope scans stay below the (p-1)^{-1/2} bound, samplewise."""
    details = []
    ok = True
    for p in _UPPER_BOUND_PS:
        c_est, samples = decay.envelope_scan(p, workers=workers)
        check = decay.upper_bound_check(p, c_est)
        # the true value may be as large as scaled_value + err_estimate
        highs = [s.scaled_value + s.err_estimate for s in samples if s.method != "budget-error"]
        violations = sum(1 for v in highs if v > check.bound)
        failed = len(samples) - len(highs)
        ok = ok and check.passed and violations == 0 and failed == 0
        details.append(
            f"p={p}: C_est={c_est:.4f} bound={check.bound:.3f} "
            f"slack={check.bound / max(highs, default=math.nan):.2f} viol={violations}"
        )
    return ok, "; ".join(details)


def criterion_sequence_convergence(workers=1):
    """Witness values approach the asymptote; disk envelope hits sqrt(2/pi)."""
    p = 1.5
    v_ref = decay.v_of_p(p)
    ns = (25, 50, 100, 200)
    devs = []
    for n in ns:
        spec = decay.stationary_sequence(p, n, n)
        ((_, s),) = decay.sequence_values(p, spec)
        devs.append(abs(s.scaled_value - v_ref))
    close = devs[-1] <= 0.05 * v_ref
    # deviation decreases beyond some N within the window: monotone from the peak
    peak = int(np.argmax(devs))
    tail_monotone = peak <= 1 and all(devs[i] > devs[i + 1] for i in range(peak, len(devs) - 1))
    c_disk, _ = decay.envelope_scan(2.0, workers=workers)
    disk_ok = abs(c_disk - DISK_ENVELOPE) <= 0.02 * DISK_ENVELOPE
    ok = close and tail_monotone and disk_ok
    return ok, (
        f"devs {['%.2e' % d for d in devs]} (final tol {0.05 * v_ref:.2e}), "
        f"disk C_est {c_disk:.4f} vs {DISK_ENVELOPE:.4f}"
    )


def criterion_blowup_exponent(workers=1):
    """Log-log slope of witness values against p-1 lands in [-0.56, -0.44]."""
    fit = decay.blowup_fit((1.05, 1.1, 1.2, 1.3, 1.4), 200)
    ref = decay.fit_asymptote_reference((1.05, 1.1, 1.2, 1.3, 1.4))
    ok = -0.56 <= fit.slope <= -0.44
    return ok, f"slope {fit.slope:.4f} (asymptote reference {ref.slope:.4f})"


def criterion_l1_sharpness(workers=1):
    """Near-diagonal diamond frequencies realise the 1/(pi |omega|) floor."""
    eps = 1e-2
    ok = True
    details = []
    for n in (10, 100, 1000):
        alpha = 2.0 * math.pi * n + 0.5 * math.pi
        beta = alpha + eps
        omega = (alpha, beta)
        closed = fourier.chi_hat_l1_closed(omega)
        quad = fourier.chi_hat_lp(1.0, omega).value
        floor = 1.0 / (math.pi * math.hypot(alpha, beta))
        ok = ok and abs(closed) >= floor and abs(closed - quad) <= 1e-8
        details.append(f"n={n}: |chi|={abs(closed):.3e} floor={floor:.3e}")
    return ok, "; ".join(details)


def criterion_conjecture_probe(workers=1):
    """Disk and (2,1)-ellipse obey the curvature bound; ellipse = scaled disk."""
    disk = convex_probe.conjecture_scan(convex_probe.disk_body(), workers=workers)
    ellipse_body = convex_probe.ellipse_body(2.0, 1.0)
    ellipse = convex_probe.conjecture_scan(ellipse_body, workers=workers)
    rng = np.random.default_rng(31415926)
    worst = 0.0
    for _ in range(20):
        r = rng.uniform(1.0, 30.0)
        th = rng.uniform(0.0, 0.5 * math.pi)
        alpha, beta = r * math.cos(th), r * math.sin(th)
        rho = math.hypot(2.0 * alpha, 1.0 * beta)
        ref = 2.0 * (fourier.bessel_j1_oracle(rho) / rho if rho > 0 else 0.5)
        got = convex_probe.chi_hat_body(ellipse_body, (alpha, beta)).value
        worst = max(worst, abs(got - ref))
    ok = disk.upper_ok and ellipse.upper_ok and worst <= 1e-6
    return ok, (
        f"disk C_est={disk.c_est:.4f}/{disk.bound:.2f}, "
        f"ellipse C_est={ellipse.c_est:.4f}/{ellipse.bound:.2f}, "
        f"scaling identity err {worst:.2e}"
    )


def criterion_determinism(workers=1):
    """Envelope CSVs are byte-identical across worker counts 1, 4, 8.

    Byte-identity holds for one numpy build at one SIMD level on one
    machine, across worker counts and batch sizes: numpy's dispatched
    kernels (``np.tan`` among them) may round differently at another level
    (the JSON outputs' ``machine`` block names both).
    """
    import tempfile
    from pathlib import Path

    from . import cli

    ok = True
    details = []
    with tempfile.TemporaryDirectory() as tmp:
        for p in _UPPER_BOUND_PS:
            blobs = []
            for w in (1, 4, 8):
                path = Path(tmp) / f"env_p{p}_w{w}.csv"
                code = cli.main(
                    [
                        "envelope", "--p", str(p),
                        "--out", str(path), "--summary", str(Path(tmp) / "s.json"),
                        "--no-timestamp", "--workers", str(w),
                    ]
                )
                if code != 0:
                    ok = False
                blobs.append(path.read_bytes())
            identical = blobs[0] == blobs[1] == blobs[2]
            ok = ok and identical
            details.append(f"p={p}: {'identical' if identical else 'MISMATCH'}")
    return ok, "; ".join(details)


class Criterion(NamedTuple):
    name: str
    check: Callable  # check(workers) -> (passed, detail)
    budget_s: Optional[float]  # wall time beyond which the criterion fails


CRITERIA = {
    "c1": Criterion("oracle-triangle", criterion_oracle_triangle, 120.0),
    "c2": Criterion("closed-forms", criterion_closed_forms, None),
    "c3": Criterion("geometry", criterion_geometry, None),
    "c4": Criterion("van-der-corput", criterion_van_der_corput, 60.0),
    "c5": Criterion("stationary-fresnel", criterion_stationary_fresnel, None),
    "c6": Criterion("upper-bound", criterion_upper_bound, 600.0),
    "c7": Criterion("sequence-convergence", criterion_sequence_convergence, None),
    "c8": Criterion("blowup-exponent", criterion_blowup_exponent, 900.0),
    "c9": Criterion("l1-sharpness", criterion_l1_sharpness, None),
    "c10": Criterion("conjecture-probe", criterion_conjecture_probe, None),
    "c11": Criterion("determinism", criterion_determinism, None),
}

# "all", one suite per criterion under its name, and "quick"
SUITES = {
    "all": list(CRITERIA),
    **{c.name: [cid] for cid, c in CRITERIA.items()},
    "quick": ["c2", "c3", "c5", "c9"],
}


def run_criterion(cid, workers=1):
    """Run criterion cid, timed; it fails when it overruns its budget."""
    name, check, budget_s = CRITERIA[cid]
    t0 = time.time()
    passed, detail = check(workers=workers)
    elapsed = time.time() - t0
    if budget_s is not None and elapsed > budget_s:
        passed = False
        detail += f"; RUNTIME {elapsed:.0f}s exceeded budget {budget_s:.0f}s"
    return CriterionResult(cid, name, bool(passed), detail, elapsed)


def run_suite(suite="all", workers=1):
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}")
    results = []
    for cid in SUITES[suite]:
        res = run_criterion(cid, workers=workers)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        line = f"{status}  {res.cid:<4} {res.name:<22} {res.seconds:7.1f}s  {res.detail}"
        print(line, flush=True)
    total = sum(r.seconds for r in results)
    npass = sum(1 for r in results if r.passed)
    print(f"{npass}/{len(results)} criteria passed in {total:.1f}s")
    return results
