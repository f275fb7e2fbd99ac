"""Calibrate the package's quadrature error estimates against mpmath.

At a fixed, seeded set of points the package's transforms are compared
with an independent 25-digit reference.  Each point reports the actual
error |value - reference|, the package's ``err_estimate`` and their ratio;
the estimate is an upper bound where the ratio is at most 1.

Paths covered: ``fourier.chi_hat_lp`` (x-slicing reduction),
``fourier.psi_split_integrals`` (both polar-split integrals), both paths
of ``convex_probe.chi_hat_body`` (the scaling route through
``chi_hat_lp`` on the (2,1) ellipse, vertical slicing on the benchmark's
quartic poly body) and ``convex_probe.chi_hat_body_parts`` on two
superellipses.  Vertical slicing is the x-slicing reduction of
``chi_hat_lp`` with phi_p replaced by the body's graph u on [0, w], on a
uniform seed and without the lp phase floor; the superellipse points keep
it checked on a graph with a slope blow-up.  Besides the seeded points, four fixed ``chi_hat_lp``
samples of the default envelope scan are kept as regression points: the
estimate once failed there.

References:

* lp paths: composite Gauss-Legendre in mpmath (12 nodes per panel) on a
  partition that never holds more than one wavelength per coarse panel,
  graded geometrically toward x = 1 (the Hoelder endpoint of phi_p) and
  toward x = 0 (the x^p cusp: phi_p'' ~ x^(p-2) for p < 2).  It is
  evaluated twice, with every panel bisected the second time (about two
  panels per wavelength); the two must agree to ``SELF_CHECK_TOL`` and
  the finer one is the reference.
* ellipse: the closed form a b J1(rho)/rho with rho = |(a alpha, b beta)|,
  evaluated with ``mpmath.besselj``.
* superellipse |x/a|^q + |y/b|^q <= 1: the lp reference through the
  scaling identity chi_hat(alpha, beta) = a b chi_hat_{B_q}(a alpha, b beta).
* poly body |y| <= u(x) on [-w, w]: (2 / (pi beta)) int_0^w sin(beta u)
  cos(alpha x) dx, the vertical-slice form, by the same composite rule on
  breaks at equal steps of 2 pi in alpha x + beta (u(0) - u(x)), again
  self-checked by bisecting every panel.  The polynomial graph is smooth,
  so no end grading is needed.  The package integrates the same formula
  (in its sinc form below beta = 2/pi); the reference differs in its
  partition and its 25-digit arithmetic.

Every reference is computed at the exact double frequency the package
receives; on the scaling route that is the rounded pair (a alpha, b beta)
handed to ``chi_hat_lp``.  Requires mpmath (the dev extra).

Usage: python tools/calibrate.py
prints one JSON list of {point, actual, estimate, ratio, ...} records and
exits 1 when any estimate falls below its actual error.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lpfourier import convex_probe, decay, fourier, lpgeom  # noqa: E402

DPS = 25
SEED = 20221
SELF_CHECK_TOL = 1e-15
# stop grading where the end panel's whole contribution is below this
_GRADE_FLOOR = 1e-22

# (kind, p, r_lo, r_hi, angle): the radius is drawn from [r_lo, r_hi] (a
# witness radius of p when angle is "witness"), a "generic" angle from
# (0.1, pi/2 - 0.1); the ellipse "witness" angle is its flat-point normal.
# Ellipse and poly points run chi_hat_body (its scaling and its slicing
# route), superellipse points chi_hat_body_parts.
# A "grid" point is a sample of the default envelope scan: r from
# decay.default_r_grid() inside [r_lo, r_hi], theta from
# decay.default_theta_grid(p) within _STEEP of pi/2, where the x^p cusp of
# phi_p at x = 0 carries the most weight.
# For a superellipse p is its exponent q, and its axes are
# _SUPERELLIPSE_AXES[q]; only the unit-axes one (B_q itself) takes the
# lp witness direction.  New specs go last: each draws from the shared stream.
_SPECS = (
    ("chi_hat_lp", 1.05, 200.0, 400.0, "witness"),
    ("chi_hat_lp", 1.1, 1500.0, 2000.0, "witness"),
    ("chi_hat_lp", 1.5, 20.0, 80.0, "generic"),
    ("chi_hat_lp", 1.5, 300.0, 600.0, "witness"),
    ("chi_hat_lp", 1.9, 800.0, 1200.0, "generic"),
    ("chi_hat_lp", 2.0, 100.0, 300.0, "generic"),
    ("psi_split", 1.5, 100.0, 300.0, "witness"),
    ("psi_split", 1.1, 300.0, 600.0, "generic"),
    ("ellipse", None, 10.0, 50.0, "generic"),
    ("ellipse", None, 100.0, 400.0, "witness"),
    ("ellipse", None, 1500.0, 2000.0, "generic"),
    ("superellipse", 1.3, 10.0, 60.0, "generic"),
    ("superellipse", 1.3, 200.0, 600.0, "generic"),
    ("superellipse", 1.1, 10.0, 60.0, "generic"),
    ("superellipse", 1.1, 200.0, 600.0, "witness"),
    ("chi_hat_lp", 1.05, 5.0, 100.0, "grid"),
    ("chi_hat_lp", 1.1, 5.0, 100.0, "grid"),
    ("psi_split", 1.05, 5.0, 100.0, "grid"),
    ("psi_split", 1.1, 5.0, 100.0, "grid"),
    ("poly", None, 10.0, 60.0, "generic"),
    ("poly", None, 200.0, 500.0, "generic"),
    ("chi_hat_lp", 1.05, 4000.0, 6000.0, "generic"),
    ("chi_hat_lp", 1.9, 4000.0, 6000.0, "generic"),
    ("psi_split", 1.5, 4000.0, 6000.0, "witness"),
    ("chi_hat_lp", 1.5, 20000.0, 25000.0, "witness"),
    ("psi_split", 1.5, 40000.0, 50000.0, "witness"),
)
_STEEP = 0.25
# default envelope-scan samples where the estimate once fell below the
# actual error, before the seed was graded toward x = 0 (actual/estimate
# 74.8, 1.19, 1.53 and 6.64); kept outside the seeded stream as
# (label, kind, p, r, theta)
_REGRESSION_POINTS = (
    ("chi_hat_lp-p1.1-r17.6157-regression", "chi_hat_lp", 1.1, 17.615696182700127, 1.3702691361402288),
    ("chi_hat_lp-p1.1-r98.11-regression", "chi_hat_lp", 1.1, 98.10997944880322, 1.3535585369190066),
    ("chi_hat_lp-p1.3-r12.0272-regression", "chi_hat_lp", 1.3, 12.02717156829891, 1.153031346264339),
    ("chi_hat_lp-p1.3-r133.138-regression", "chi_hat_lp", 1.3, 133.13806137219808, 1.0861889493794497),
)
_ELLIPSE_AXES = (2.0, 1.0)
_SUPERELLIPSE_AXES = {1.3: (1.5, 1.0), 1.1: (1.0, 1.0)}
# (coeffs, half_width) of the poly body in the body-conjecture benchmark
_POLY_BODY = ((1.0, 0.0, -0.5, 0.0, -0.5), 1.0)


def _spec_label(spec):
    kind, p, r_lo, r_hi, angle = spec
    where = f"r{r_lo:g}-{r_hi:g}-{angle}"
    return f"{kind}-{where}" if p is None else f"{kind}-p{p:g}-{where}"


def _draw(values, rng):
    return float(values[rng.integers(values.size)])


def calibration_points():
    """[(label, kind, p, r, theta)]: one per spec, drawn from one seeded
    stream, then the fixed regression points."""
    rng = np.random.default_rng(SEED)
    points = []
    for spec in _SPECS:
        kind, p, r_lo, r_hi, angle = spec
        generic_r = float(rng.uniform(r_lo, r_hi))
        generic_theta = float(rng.uniform(0.1, 0.5 * math.pi - 0.1))
        if angle == "generic":
            r, theta = generic_r, generic_theta
        elif angle == "grid":
            radii = decay.default_r_grid()
            angles = decay.default_theta_grid(p)
            r = _draw(radii[(radii >= r_lo) & (radii <= r_hi)], rng)
            theta = _draw(angles[angles >= 0.5 * math.pi - _STEEP], rng)
        elif kind == "ellipse":
            r, theta = generic_r, 0.5 * math.pi
        else:
            r, theta = _draw(decay.witness_r_values(p, r_lo, r_hi), rng), lpgeom.theta_star(p)
        points.append((_spec_label(spec), kind, p, r, theta))
    return points + list(_REGRESSION_POINTS)


@functools.lru_cache(maxsize=1)
def _gl12():
    # 12-point Gauss-Legendre on [-1, 1] at the working precision
    return GaussLegendre(mp.mp).calc_nodes(3, mp.mp.prec)


def _phi_mp(p, x):
    return (1 - x**p) ** (1 / p)


def reference_breaks(p, alpha, beta):
    """Coarse reference partition of [0, 1] for phases built from alpha*x and beta*phi_p.

    Breaks sit at equal steps of 2 pi in V(x) = alpha x + beta (1 - phi_p(x)),
    which bounds the phase change of both factors, so no panel holds more
    than one wavelength even where phi_p' blows up near x = 1.  The union
    with x = 2^-k and x = 1 - 2^-k keeps every panel at least its own width
    away from either endpoint singularity, down to end panels whose whole
    contribution is below _GRADE_FLOOR.
    """
    alpha, beta = abs(alpha), abs(beta)
    wavelengths = _wavelength_breaks(
        lambda x: alpha * x + beta * (1.0 - (1.0 - x**p) ** (1.0 / p)), alpha + beta, 1.0
    )
    # end panels [0, e] and [1 - e, 1] differ from a smooth integrand by at
    # most beta e^(p+1) and beta e^(1+1/p) respectively
    scale = max(beta, 1.0)
    k0 = math.ceil(math.log2(scale / _GRADE_FLOOR) / (p + 1.0))
    k1 = math.ceil(math.log2(scale / _GRADE_FLOOR) / (1.0 + 1.0 / p))
    grade0 = 2.0 ** -np.arange(1.0, k0 + 1)
    grade1 = 1.0 - 2.0 ** -np.arange(1.0, k1 + 1)
    return np.unique(np.concatenate([[0.0, 1.0], wavelengths, grade0, grade1]))


def _wavelength_breaks(v_of, v_end, end):
    """Points of (0, end) where the increasing V, with V(0) = 0 and
    V(end) = v_end, crosses the multiples of 2 pi."""
    n = int(math.ceil(v_end / (2.0 * math.pi)))
    targets = 2.0 * math.pi * np.arange(1, n)
    lo, hi = np.zeros(n - 1), np.full(n - 1, end)
    for _ in range(60):  # bisection of the monotone V
        mid = 0.5 * (lo + hi)
        below = v_of(mid) < targets
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _composite(f, breaks):
    """Composite sums over breaks of each integrand in the tuple f(x) returns."""
    totals = None
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = (mp.mpf(a) + mp.mpf(b)) / 2
        half = (mp.mpf(b) - mp.mpf(a)) / 2
        nodes = [(w, f(mid + half * t)) for t, w in _gl12()]
        if totals is None:
            totals = [mp.mpf(0)] * len(nodes[0][1])
        for k in range(len(totals)):
            totals[k] += half * mp.fsum(w * values[k] for w, values in nodes)
    return totals


def reference_integrals(f, breaks):
    """[(fine, |coarse - fine|)] of the integral of each integrand in the tuple
    f(x) returns over [breaks[0], breaks[-1]], on breaks and on breaks bisected.

    The integrands share their nodes, so work common to them (phi_p) is
    done once per node."""
    coarse = _composite(f, breaks)
    fine = _composite(f, np.unique(np.concatenate([breaks, 0.5 * (breaks[:-1] + breaks[1:])])))
    return [(hi, abs(lo - hi)) for lo, hi in zip(coarse, fine)]


def reference_integral(f, breaks):
    """(fine, |coarse - fine|) of the integral of f, as reference_integrals."""
    return reference_integrals(lambda x: (f(x),), breaks)[0]


def _lp_reference(p, alpha, beta):
    """(reference, self-check difference) of chi_hat_lp at the mpf frequency (alpha, beta)."""
    alpha, beta = sorted((abs(alpha), abs(beta)))
    pm = mp.mpf(p)
    integral, diff = reference_integral(
        lambda x: mp.cos(alpha * x) * mp.sin(beta * _phi_mp(pm, x)),
        reference_breaks(p, float(alpha), float(beta)),
    )
    scale = 2 / (mp.pi * beta)
    return scale * integral, scale * diff


def _chi_hat_lp_refs(p, r, theta):
    alpha, beta = sorted((abs(r * math.cos(theta)), abs(r * math.sin(theta))))
    res = fourier.chi_hat_lp(p, (alpha, beta))
    return [("", res, *_lp_reference(p, mp.mpf(alpha), mp.mpf(beta)))]


def _psi_split_refs(p, r, theta):
    ct, st = math.cos(theta), math.sin(theta)
    results = fourier.psi_split_integrals(p, r, theta)
    breaks = reference_breaks(p, r * ct, r * st)
    pm, rm, cm, sm = (mp.mpf(v) for v in (p, r, ct, st))

    def psi_pair(x):
        # one phi_p per node for psi and psi~
        phi = sm * _phi_mp(pm, x)
        return tuple(mp.sin(rm * (s * cm * x + phi)) for s in (1, -1))

    refs = reference_integrals(psi_pair, breaks)
    return [(name, res, *ref) for name, res, ref in zip(("-psi", "-psi~"), results, refs)]


def _ellipse_refs(p, r, theta):
    a, b = _ELLIPSE_AXES
    omega = fourier.Frequency.from_polar(r, theta)
    res = convex_probe.chi_hat_body(convex_probe.ellipse_body(a, b), omega)
    rho = mp.hypot(a * omega.alpha, b * omega.beta)
    return [("", res, a * b * mp.besselj(1, rho) / rho, mp.mpf(0))]


def _superellipse_refs(q, r, theta):
    a, b = _SUPERELLIPSE_AXES[q]
    omega = fourier.Frequency.from_polar(r, theta)
    value, err = convex_probe.chi_hat_body_parts(convex_probe.superellipse_body(a, b, q), omega)
    ref, diff = _lp_reference(q, a * mp.mpf(omega.alpha), b * mp.mpf(omega.beta))
    return [("", fourier.TransformResult(value, err, "reduction-x"), a * b * ref, a * b * diff)]


def _poly_refs(p, r, theta):
    coeffs, w = _POLY_BODY
    omega = fourier.Frequency.from_polar(r, theta)
    body = convex_probe.poly_body(coeffs, w)
    res = convex_probe.chi_hat_body(body, omega)
    alpha, beta = abs(omega.alpha), abs(omega.beta)
    breaks = np.concatenate([
        [0.0],
        _wavelength_breaks(
            lambda x: alpha * x + beta * (body.upper(0.0) - body.upper(x)),
            alpha * w + beta * body.upper(0.0), w,
        ),
        [w],
    ])
    am, bm = mp.mpf(alpha), mp.mpf(beta)
    cm = [mp.mpf(c) for c in reversed(coeffs)]
    integral, diff = reference_integral(
        lambda x: mp.sin(bm * mp.polyval(cm, x)) * mp.cos(am * x), breaks
    )
    scale = 2 / (mp.pi * bm)
    return [("", res, scale * integral, scale * diff)]


_REFS = {
    "chi_hat_lp": _chi_hat_lp_refs,
    "psi_split": _psi_split_refs,
    "ellipse": _ellipse_refs,
    "superellipse": _superellipse_refs,
    "poly": _poly_refs,
}


def calibrate_point(label, kind, p, r, theta):
    """One record per compared value at a calibration point.

    Raises ArithmeticError when the reference fails its self-check.
    """
    with mp.workdps(DPS):
        refs = _REFS[kind](p, r, theta)
    records = []
    for suffix, res, ref, self_diff in refs:
        name = label + suffix
        if not self_diff <= SELF_CHECK_TOL:
            raise ArithmeticError(f"{name}: reference self-check off by {float(self_diff):.3e}")
        actual = float(abs(mp.mpf(res.value) - ref))
        estimate = res.err_estimate
        records.append({
            "point": name, "p": p, "r": r, "theta": theta,
            "value": res.value, "reference": float(ref), "self_check": float(self_diff),
            "actual": actual, "estimate": estimate,
            "ratio": actual / estimate if estimate > 0.0 else math.inf,
        })
    return records


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    records = []
    for point in calibration_points():
        records.extend(calibrate_point(*point))
    json.dump(records, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0 if all(rec["ratio"] <= 1.0 for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main())
