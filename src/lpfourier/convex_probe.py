"""Decay scans for convex plane bodies symmetric in both axes.

Generalises the l^p pipeline: a body is the region |y| <= u(x) over
[-w, w] for an even, concave upper graph u that vanishes at +-w.  Such a
body is symmetric in both axes, its transform is real and even, and the
vertical slicing of B_p carries over with phi_p replaced by u:

    chi_hat(alpha, beta) = (2/(pi beta)) int_0^w sin(beta u) cos(alpha x) dx,

integrated by the same path as the l^p reduction (``fourier``), in its
sinc form (2/pi) int_0^w u sinc(beta u) cos(alpha x) dx below
beta = 2/pi.  A superellipse (ellipse, disk and l^p ball included) is a
linear image of an l^q ball and is transformed through the l^q reduction
instead.  The measured envelope sup r^{3/2}|chi_hat| is
compared against the curvature bound C / sqrt(nu), nu = min boundary
curvature.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional, Tuple

import numpy as np

from . import fourier, lpgeom
from .decay import ENVELOPE_UPPER_COEFF, R_MIN_ALLOWED, _polar_points, _scan
from .fourier import TransformResult
from .oscquad import QuadConfig, QuadratureBudgetError, _raised

# phases built from body graphs inherit the slope blow-up at the endpoints;
# steeper rates are left to adaptive bisection
_SLOPE_CAP = 1e3
# the slope sample stays this fraction of the width away from each endpoint
_ENDPOINT_INSET = 1e-6
# points per pass of the curvature-minimum scan
CURVATURE_GRID = 2000
# relative spread of constant sampled curvature (a disk's is about 1e-15)
_CONSTANT_CURVATURE_RTOL = 1e-12


@dataclass(frozen=True)
class ConvexBody:
    """The convex body |y| <= upper(x), |x| <= half_width.

    upper is the even, concave graph u on [-w, w], positive inside and
    zero at +-w (checked by sampling); upper_d1 and upper_d2 are its
    derivatives.  Given an array, upper returns a new float array, which
    the slice integrand may overwrite.  The body is symmetric in both
    axes, so its transform is real and even, one integral over [0, w]:

        chi_hat(alpha, beta) = (2/(pi beta)) int_0^w sin(beta u) cos(alpha x) dx.

    superellipse is (a, b, q) when the body is the superellipse
    |x/a|^q + |y/b|^q <= 1, the linear image diag(a, b) B_q of an l^q
    ball; ``chi_hat_body`` then transforms it through the l^q reduction.
    It is None for every other body.

    A scan with workers > 1 sends the body to worker processes, so its
    callables must pickle.  The constructors below use module-level
    functions, functools.partial objects of them and numpy Polynomials,
    which do; a body built from lambdas or closures runs with workers=1
    only.

    _slope_scale, the bulk graph slope that sizes the seed partition, is
    computed on first use and cached on the instance; the cached value
    travels with a pickled body, so a pool chunk computes it at most once.
    """

    half_width: float
    upper: Callable
    upper_d1: Callable
    upper_d2: Callable
    label: str = ""
    superellipse: Optional[Tuple[float, float, float]] = None

    @cached_property
    def _slope_scale(self):
        # seed panels from the bulk slope, not the endpoint blow-up: the edge
        # boundary layers carry little mass and adaptive bisection resolves them
        w = self.half_width
        margin = 2.0 * w * _ENDPOINT_INSET
        xs = np.linspace(margin - w, w - margin, 513)
        s = float(np.percentile(np.abs(self.upper_d1(xs)), 90))
        return min(max(s, 1.0), _SLOPE_CAP)


def validate_body(body):
    """Check by sampling that upper is positive inside, zero at +-w, concave and even."""
    w = body.half_width
    xs = np.linspace(-w, w, 512)[1:-1]
    up = body.upper(xs)
    if np.any(up <= 0.0):
        raise ValueError(f"body {body.label!r}: upper graph not positive inside")
    for xe in (-w, w):
        if abs(float(body.upper(xe))) > 1e-9 * max(1.0, float(np.max(up))):
            raise ValueError(f"body {body.label!r}: upper graph does not vanish at x = {xe}")
    if np.any(body.upper_d2(xs) > 1e-9):
        raise ValueError(f"body {body.label!r}: upper graph is not concave")
    if not np.array_equal(up, body.upper(-xs)):
        raise ValueError(f"body {body.label!r}: upper graph is not even")
    return body


def _symmetric_body(half_width, graphs, label, superellipse=None):
    return validate_body(ConvexBody(half_width, *graphs, label=label, superellipse=superellipse))


def _superellipse_u(a, b, q, x):
    t = np.clip(np.abs(np.asarray(x, dtype=np.float64) / a), 0.0, 1.0)
    return b * lpgeom.phi(q, t)


def _superellipse_du(a, b, q, x):
    t = np.asarray(x, dtype=np.float64) / a
    # the closed forms are endpoint-singular; clamp into the open interval
    tc = np.clip(np.abs(t), 1e-12, 1.0 - 1e-15)
    return (b / a) * np.sign(t) * lpgeom.phi_d1(q, tc)


def _superellipse_ddu(a, b, q, x):
    t = np.clip(np.abs(np.asarray(x, dtype=np.float64) / a), 1e-12, 1.0 - 1e-15)
    return (b / (a * a)) * lpgeom.phi_d2(q, t)


def superellipse_body(a, b, exponent):
    """|x/a|^q + |y/b|^q <= 1 with 1 < q <= 2: upper graph b*phi_q(|x|/a)."""
    a = float(a)
    b = float(b)
    q = float(exponent)
    if not (a > 0.0 and b > 0.0):
        raise ValueError("semiaxes must be positive")
    if not (1.0 < q <= 2.0):
        raise ValueError("exponent must lie in (1, 2]")
    graphs = [partial(g, a, b, q) for g in (_superellipse_u, _superellipse_du, _superellipse_ddu)]
    return _symmetric_body(a, graphs, f"superellipse({a:g},{b:g},q={q:g})", (a, b, q))


def ellipse_body(a, b):
    """Ellipse with semiaxes (a, b): the superellipse with q = 2."""
    body = superellipse_body(a, b, 2.0)
    a, b, _ = body.superellipse
    return dataclasses.replace(body, label=f"ellipse({a:g},{b:g})")


def disk_body():
    return ellipse_body(1.0, 1.0)


def lp_ball_body(p):
    """The l^p unit ball as a ConvexBody."""
    return superellipse_body(1.0, 1.0, p)


def poly_body(coeffs, half_width):
    """Body with an even polynomial upper graph on [-w, w].

    coeffs are ascending-power coefficients, every odd-power one zero;
    the polynomial must be positive inside, vanish at +-w, and be concave
    there.
    """
    poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=np.float64))
    if np.any(poly.coef[1::2] != 0.0):
        raise ValueError("polynomial upper graph must be even: odd-power coefficients must be 0")
    d1 = poly.deriv()
    d2 = d1.deriv()
    w = float(half_width)
    if w <= 0.0:
        raise ValueError("half_width must be positive")
    for xe in (-w, w):
        if abs(poly(xe)) > 1e-9:
            raise ValueError(f"polynomial upper graph must vanish at x = {xe}")
    return _symmetric_body(w, (poly, d1, d2), f"poly(deg={poly.degree()},w={w:g})")


# body kind -> (constructor, its parameter names in call order)
_BODY_KINDS = {
    "lp": (lp_ball_body, ("p",)),
    "ellipse": (ellipse_body, ("a", "b")),
    "superellipse": (superellipse_body, ("a", "b", "exponent")),
    "custom-poly-coeffs": (poly_body, ("coeffs", "half_width")),
}


def body_from_spec(spec):
    """Build a body from a JSON-style dict: {label, kind, params}.

    A malformed spec raises ValueError naming what is wrong.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError(
            f"body spec must be a JSON object {{label, kind, params}}, not {type(spec).__name__}"
        )
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _BODY_KINDS:
        raise ValueError(f"unknown body kind {kind!r}")
    build, names = _BODY_KINDS[kind]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"body params must be a JSON object, not {type(params).__name__}")
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"body kind {kind!r} is missing parameter(s) {', '.join(missing)}")
    try:
        body = build(*(params[name] for name in names))
    except TypeError as exc:
        raise ValueError(f"body kind {kind!r}: bad parameter type: {exc}") from None
    label = spec.get("label")
    if label:
        body = dataclasses.replace(body, label=str(label))
    return body


def body_curvature_min(body):
    """Minimum boundary curvature on a dense grid of the upper arc.

    The arc y = -u(x) mirrors it, so it has the same minimum.  One local
    refinement pass around the coarse argmin.  Returns (nu, (x, y)) with
    the realising point on the upper arc.  Where the curvature is constant
    (a disk) every point is a minimum, and the top point (0, u(0)) is
    returned rather than wherever rounding puts the argmin.
    """
    w = body.half_width
    inset = 2.0 * w * 1e-7

    def curvature(xs):
        k = np.abs(body.upper_d2(xs)) / (1.0 + body.upper_d1(xs) ** 2) ** 1.5
        if not np.all(np.isfinite(k)):
            bad = xs[~np.isfinite(k)][0]
            raise ArithmeticError(f"non-finite curvature sample at x = {bad}")
        return k

    n = CURVATURE_GRID
    xs = np.linspace(inset - w, w - inset, n)
    k = curvature(xs)
    if np.max(k) - np.min(k) <= _CONSTANT_CURVATURE_RTOL * np.min(k):
        return float(curvature(np.zeros(1))[0]), (0.0, float(body.upper(0.0)))
    i = int(np.argmin(k))
    xs2 = np.linspace(xs[max(0, i - 1)], xs[min(n - 1, i + 1)], n)
    k2 = curvature(xs2)
    j = int(np.argmin(k2))
    x = float(xs2[j])
    return float(k2[j]), (x, float(body.upper(x)))


def chi_hat_body_parts(body, omega, cfg=None):
    """(value, err_estimate) of the real transform by vertical slicing.

    The vertical slice |y| <= u(x) integrates exactly to
    e^{-i alpha x} 2 sin(beta u)/beta; the odd part in x cancels, and the
    even rest folds onto [0, w]:

        chi_hat(alpha, beta) = (2/(pi beta)) int_0^w sin(beta u) cos(alpha x) dx,

    the l^p reduction with phi_p replaced by u, integrated by the same
    path (``fourier._slice_transforms``, in its sinc form below
    beta = 2/pi).  This slices any body, a superellipse too, which
    ``chi_hat_body`` sends through the l^q reduction instead.  Kept for
    tools/calibrate.py and for the benchmark tracer's ``REQUIRED_SPANS``.
    """
    res = _raised(_body_slices(body, fourier._components([omega]), cfg or QuadConfig())[0])
    return res.value, res.err_estimate


def _body_slices(body, ab, cfg):
    # chi_hat_body_parts at each row (alpha, beta) of ab as a TransformResult,
    # in one engine batch per slice form; a failed entry is its
    # QuadratureBudgetError.  The transform is even in alpha and beta, so it
    # runs at |alpha|, |beta|
    w = body.half_width

    def seeds(alphas, betas, sinc):
        # uniform on [0, w] at the phase rate alpha + beta * (bulk slope), each
        # row bitwise uniform_breaks (np.linspace: k * (w / n), then w); a rate
        # whose seed would need more than max_panels panels fails before any
        # panel is evaluated
        with np.errstate(over="ignore"):
            rates = alphas + betas * body._slope_scale
        out, ok, panels = fourier._seed_counts(alphas, betas, rates, w, cfg)
        sizes = panels + 1
        ranks = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        breaks = ranks * np.repeat(w / panels, sizes)
        breaks[np.cumsum(sizes) - 1] = w
        return out, ok, breaks, panels

    def graph(x, out):
        # a body's graph returns a new array; the chunk buffer goes unused
        return body.upper(x)

    alphas, betas = np.abs(ab).T
    # no phase floor: its derivation counts the roundings of phi_p, and
    # fourier._phase_floor says why the kernel's cos term needs none here
    return fourier._slice_transforms(graph, seeds, alphas, betas, cfg, 0.0)


def chi_hat_body_batch(body, omegas, cfg=None):
    """``chi_hat_body`` at each of omegas, integrated in one adaptive batch.

    Returns one entry per frequency: its TransformResult, bitwise the one
    ``chi_hat_body`` returns, or the QuadratureBudgetError that ended it.
    """
    cfg = cfg or QuadConfig()
    ab = fourier._components(omegas)
    if body.superellipse is not None:
        a, b, q = body.superellipse
        # an overflowing product is the non-finite frequency chi_hat_lp_batch rejects
        with np.errstate(over="ignore"):
            scaled_ab = ab * (a, b)
        scaled = fourier.chi_hat_lp_batch(q, scaled_ab, cfg)
        return [
            res if isinstance(res, QuadratureBudgetError)
            else TransformResult(a * b * res.value, a * b * res.err_estimate, res.method)
            for res in scaled
        ]
    return _body_slices(body, ab, cfg)


def chi_hat_body(body, omega, cfg=None):
    """Transform of a body at omega.

    A superellipse diag(a, b) B_q goes through the l^q reduction by the
    scaling identity chi_hat(alpha, beta) = a b chi_hat_{B_q}(a alpha, b beta),
    which scales the value and the error estimate by a b; every other
    body is sliced vertically (``chi_hat_body_parts``).  This is the batch
    of one of ``chi_hat_body_batch``.
    """
    return _raised(chi_hat_body_batch(body, [omega], cfg)[0])


@dataclass(frozen=True)
class ConjectureReport:
    label: str
    nu: float
    c_est: float
    bound: float
    upper_ok: bool
    witness_max: float
    notes: str


def default_body_theta_grid(n=48):
    """Probe bodies lack the octant symmetry of B_p: angles cover [0, pi/2]."""
    return np.linspace(0.0, 0.5 * math.pi, n)


def _witness_direction(body, x_min):
    # normal direction at the flattest upper-arc point, folded into [0, pi/2]
    # (bodies are symmetric in both axes, so chi_hat is even in alpha and beta)
    slope = float(body.upper_d1(x_min))
    theta = math.atan2(1.0, -slope)
    if theta > 0.5 * math.pi:
        theta = math.pi - theta
    return theta


def _body_scaled_batch(task):
    # (r^{3/2} |chi_hat|, r^{3/2} err_estimate) per (r, theta), or the
    # QuadratureBudgetError of a failed sample
    body, points, cfg = task
    omegas = [fourier.Frequency.from_polar(r, theta) for r, theta in points]
    out = []
    for (r, _), res in zip(points, chi_hat_body_batch(body, omegas, cfg)):
        if not isinstance(res, QuadratureBudgetError):
            s = r**1.5
            res = (s * abs(res.value), s * res.err_estimate)
        out.append(res)
    return out


def conjecture_scan(body, r_grid=None, theta_grid=None, cfg=None, workers=1):
    """Measure sup r^{3/2}|chi_hat| and compare with the curvature bound.

    The scan inserts the normal direction at the flattest boundary point
    (the analogue of the l^p witness direction); witness_max is the
    largest sample along it.  The samples run through the scan driver
    ``decay._scan``, as envelope scans do.  upper_ok holds when
    every sample plus its scaled error estimate stays within the bound.  A
    bound violation is reported, never swallowed: upper_ok=False marks a
    counterexample candidate.  Raises the QuadratureBudgetError of the
    first sample, in point order, that fails.
    """
    cfg = cfg or QuadConfig()
    nu, (x_min, y_min) = body_curvature_min(body)
    # grid minima of genuinely flat boundaries land at rounding scale, not 0
    if nu <= 1e-9:
        raise ValueError(
            f"minimum curvature {nu:.3e} is numerically flat: the bound is undefined"
        )
    if r_grid is None:
        r_grid = np.geomspace(R_MIN_ALLOWED, 500.0, 81)
    r_grid = np.asarray(r_grid, dtype=np.float64)
    theta_grid = (
        default_body_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=np.float64)
    )
    theta_w = _witness_direction(body, x_min)
    theta_grid = np.unique(np.concatenate([theta_grid, [theta_w]]))

    points = _polar_points(r_grid, theta_grid)
    # the first failure in point order raises, whatever the batches
    samples = [_raised(s) for s in _scan(_body_scaled_batch, body, points, cfg, workers)]
    c_est = max(v for v, _ in samples)
    witness_max = max(v for (v, _), (_, t) in zip(samples, points) if t == theta_w)
    bound = ENVELOPE_UPPER_COEFF / math.sqrt(nu)
    # the true value may be as large as the sample plus its error estimate
    ok = max(v + e for v, e in samples) <= bound
    notes = (
        f"nu at ({x_min:.6g}, {y_min:.6g}); {len(points)} samples, "
        f"r in [{np.min(r_grid):g}, {np.max(r_grid):g}], {len(theta_grid)} angles, "
        f"witness direction {theta_w:.6g}"
    )
    if not ok:
        notes += "; BOUND VIOLATED: counterexample candidate"
    return ConjectureReport(
        label=body.label, nu=nu, c_est=float(c_est), bound=bound,
        upper_ok=ok, witness_max=float(witness_max), notes=notes,
    )
