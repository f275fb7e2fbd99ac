"""Decay scans for convex plane bodies given by upper/lower graphs.

Generalises the l^p pipeline: a body is the region between a concave
upper graph and a convex lower graph over [x0, x1] (meeting at the
endpoints), the transform is computed by the same vertical slicing,

    2 pi chi_hat = int e^{-i alpha x} (e^{-i beta lower} - e^{-i beta upper}) / (i beta) dx,

and the measured envelope sup r^{3/2}|chi_hat| is compared against the
curvature bound C / sqrt(nu), nu = min boundary curvature.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from . import fourier, lpgeom
from .decay import ENVELOPE_UPPER_COEFF, R_MIN_ALLOWED, _ordered_map
from .fourier import TransformResult, _sin_over, as_frequency
from .oscquad import QuadConfig, integrate_oscillatory

# phases built from body graphs inherit the slope blow-up at the endpoints;
# steeper rates are left to adaptive bisection
_SLOPE_CAP = 1e3
# the slope sample stays this fraction of the width away from each endpoint
_ENDPOINT_INSET = 1e-6


@dataclass(frozen=True)
class ConvexBody:
    """A convex body between two graphs over [x0, x1].

    upper must be concave and lower convex (checked by sampling), equal
    at the endpoints so the boundary closes.  centrally_symmetric marks
    bodies with lower(x) = -upper(-x); for those the transform is real
    and the imaginary-part integrals are skipped.  transposed, when
    present, is the same body with the axes swapped; it enables the
    y-slicing route.

    A scan with workers > 1 sends the body to worker processes, so its
    callables must pickle.  The constructors below use module-level
    functions, functools.partial objects of them and numpy Polynomials,
    which do; a body built from lambdas or closures runs with workers=1
    only.

    _slope_scale, the bulk graph slope that sizes the seed partition, is
    computed on first use and cached on the instance; the cached value
    travels with a pickled body, so a pool chunk computes it at most once.
    """

    x0: float
    x1: float
    upper: Callable
    upper_d1: Callable
    upper_d2: Callable
    lower: Callable
    lower_d1: Callable
    lower_d2: Callable
    label: str = ""
    centrally_symmetric: bool = False
    transposed: Optional["ConvexBody"] = field(default=None, repr=False)

    @cached_property
    def _slope_scale(self):
        # seed panels from the bulk slope, not the endpoint blow-up: the edge
        # boundary layers carry little mass and adaptive bisection resolves them
        margin = (self.x1 - self.x0) * _ENDPOINT_INSET
        xs = np.linspace(self.x0 + margin, self.x1 - margin, 513)
        s = max(
            float(np.percentile(np.abs(self.upper_d1(xs)), 90)),
            float(np.percentile(np.abs(self.lower_d1(xs)), 90)),
        )
        return min(max(s, 1.0), _SLOPE_CAP)


def validate_body(body, samples=512):
    """Check ordering, closure and convexity of the two graphs by sampling."""
    xs = np.linspace(body.x0, body.x1, samples)[1:-1]
    up, lo = body.upper(xs), body.lower(xs)
    if np.any(lo >= up):
        raise ValueError(f"body {body.label!r}: lower graph not strictly below upper")
    span = max(1.0, float(np.max(up) - np.min(lo)))
    for xe in (body.x0, body.x1):
        if abs(float(body.upper(xe)) - float(body.lower(xe))) > 1e-9 * span:
            raise ValueError(f"body {body.label!r}: graphs do not meet at x = {xe}")
    if np.any(body.upper_d2(xs) > 1e-9) or np.any(body.lower_d2(xs) < -1e-9):
        raise ValueError(f"body {body.label!r}: second-derivative signs violate convexity")
    return body


def _mirror(g, x):
    return g(-np.asarray(x, dtype=np.float64))


def _neg_mirror(g, x):
    return -g(-np.asarray(x, dtype=np.float64))


def _symmetric_body(half_width, graphs, label, transposed=None):
    # centrally symmetric body from one concave graph: lower(x) = -upper(-x)
    u, du, ddu = graphs
    body = ConvexBody(
        x0=-half_width, x1=half_width,
        upper=u, upper_d1=du, upper_d2=ddu,
        lower=partial(_neg_mirror, u),
        lower_d1=partial(_mirror, du),
        lower_d2=partial(_neg_mirror, ddu),
        label=label, centrally_symmetric=True, transposed=transposed,
    )
    return validate_body(body)


def _ellipse_u(a, b, x):
    t = np.clip(np.asarray(x, dtype=np.float64) / a, -1.0, 1.0)
    return b * np.sqrt(np.maximum(0.0, 1.0 - t * t))


def _ellipse_du(a, b, x):
    t = np.asarray(x, dtype=np.float64) / a
    return -b * t / (a * np.sqrt(1.0 - t * t))


def _ellipse_ddu(a, b, x):
    t = np.asarray(x, dtype=np.float64) / a
    return -b / (a * a * (1.0 - t * t) ** 1.5)


def ellipse_body(a, b):
    """Ellipse with semiaxes (a, b): upper graph b*sqrt(1 - (x/a)^2)."""
    a = float(a)
    b = float(b)
    if not (a > 0.0 and b > 0.0):
        raise ValueError("semiaxes must be positive")

    def build(a, b, transposed=None):
        graphs = [partial(g, a, b) for g in (_ellipse_u, _ellipse_du, _ellipse_ddu)]
        return _symmetric_body(a, graphs, f"ellipse({a:g},{b:g})", transposed)

    return build(a, b, build(b, a))


def disk_body():
    return ellipse_body(1.0, 1.0)


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

    def build(a, b, transposed=None):
        graphs = [
            partial(g, a, b, q) for g in (_superellipse_u, _superellipse_du, _superellipse_ddu)
        ]
        return _symmetric_body(a, graphs, f"superellipse({a:g},{b:g},q={q:g})", transposed)

    return build(a, b, build(b, a))


def lp_ball_body(p):
    """The l^p unit ball as a ConvexBody (its own transpose)."""
    return superellipse_body(1.0, 1.0, p)


def poly_body(coeffs, half_width):
    """Centrally symmetric body with polynomial upper graph on [-w, w].

    coeffs are ascending-power coefficients; the polynomial must be
    positive inside, vanish at +-w, and be concave there.
    """
    poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=np.float64))
    d1 = poly.deriv()
    d2 = d1.deriv()
    w = float(half_width)
    if w <= 0.0:
        raise ValueError("half_width must be positive")
    for xe in (-w, w):
        if abs(poly(xe)) > 1e-9:
            raise ValueError(f"polynomial upper graph must vanish at x = {xe}")
    return _symmetric_body(w, (poly, d1, d2), f"poly(deg={poly.degree()},w={w:g})")


def body_from_spec(spec):
    """Build a body from a JSON-style dict: {label, kind, params}."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    kind = spec.get("kind")
    params = spec.get("params", {})
    if kind == "lp":
        body = lp_ball_body(params["p"])
    elif kind == "ellipse":
        body = ellipse_body(params["a"], params["b"])
    elif kind == "superellipse":
        body = superellipse_body(params["a"], params["b"], params["exponent"])
    elif kind == "custom-poly-coeffs":
        body = poly_body(params["coeffs"], params["half_width"])
    else:
        raise ValueError(f"unknown body kind {kind!r}")
    label = spec.get("label")
    if label:
        body = dataclasses.replace(body, label=str(label))
    return body


def body_curvature_min(body, grid_n=2000):
    """Minimum boundary curvature over both arcs on a dense grid.

    One local refinement pass around the coarse argmin.  Returns
    (nu, (x, y)) with the realising boundary point.
    """
    if grid_n < 1000:
        raise ValueError("grid_n must be at least 1000")
    inset = (body.x1 - body.x0) * 1e-7

    def arc_curvature(xs, d1, d2):
        k = np.abs(d2(xs)) / (1.0 + d1(xs) ** 2) ** 1.5
        if not np.all(np.isfinite(k)):
            bad = xs[~np.isfinite(k)][0]
            raise ArithmeticError(f"non-finite curvature sample at x = {bad}")
        return k

    best = (math.inf, 0.0, "upper")
    for name, d1, d2 in (
        ("upper", body.upper_d1, body.upper_d2),
        ("lower", body.lower_d1, body.lower_d2),
    ):
        xs = np.linspace(body.x0 + inset, body.x1 - inset, grid_n)
        k = arc_curvature(xs, d1, d2)
        i = int(np.argmin(k))
        xs2 = np.linspace(xs[max(0, i - 1)], xs[min(grid_n - 1, i + 1)], grid_n)
        k2 = arc_curvature(xs2, d1, d2)
        j = int(np.argmin(k2))
        if k2[j] < best[0]:
            best = (float(k2[j]), float(xs2[j]), name)
    nu, x, arc = best
    y = float(body.upper(x) if arc == "upper" else body.lower(x))
    return nu, (x, y)


def chi_hat_body_parts(body, omega, cfg=None):
    """(real, imaginary, err) of the transform by vertical slicing.

    The vertical slice between the graphs integrates exactly to

        e^{-i alpha x} (e^{-i beta l} - e^{-i beta u})/(i beta)
            = (u - l) sinc(beta (u-l)/2) e^{-i(alpha x + beta (u+l)/2)},

    a product form stable for every beta (the naive difference of sines
    cancels catastrophically once |beta|*(u-l) falls near machine
    epsilon) and covering beta = 0 and omega = 0 without special cases.
    For centrally symmetric bodies the imaginary part vanishes and is
    returned as exact 0 without integration.
    """
    cfg = cfg or QuadConfig()
    omega = as_frequency(omega)
    alpha, beta = omega.alpha, omega.beta
    two_pi = 2.0 * math.pi
    rate = abs(alpha) + abs(beta) * body._slope_scale

    def envelope_and_phase(x):
        u = body.upper(x)
        lo = body.lower(x)
        amp = (u - lo) * _sin_over(0.5 * beta * (u - lo))
        return amp, alpha * x + 0.5 * beta * (u + lo)

    def f_re(x):
        amp, phase = envelope_and_phase(x)
        return amp * np.cos(phase)

    re = integrate_oscillatory(f_re, body.x0, body.x1, rate, cfg)
    if body.centrally_symmetric:
        return re.value / two_pi, 0.0, re.err_estimate / two_pi

    def f_im(x):
        amp, phase = envelope_and_phase(x)
        return amp * np.sin(phase)

    im = integrate_oscillatory(f_im, body.x0, body.x1, rate, cfg)
    return re.value / two_pi, -im.value / two_pi, (re.err_estimate + im.err_estimate) / two_pi


def chi_hat_body(body, omega, cfg=None):
    """Transform of a body at omega; picks the slicing with less oscillation.

    For bodies that carry a transpose, y-slicing is x-slicing of the
    transposed body at the swapped frequency.
    """
    cfg = cfg or QuadConfig()
    omega = as_frequency(omega)
    method = "reduction-x"
    target, freq = body, omega
    if body.transposed is not None and omega.r > 0.0:
        cost_x = abs(omega.alpha) + abs(omega.beta) * body._slope_scale
        cost_y = abs(omega.beta) + abs(omega.alpha) * body.transposed._slope_scale
        if cost_y < cost_x:
            target = body.transposed
            freq = fourier.Frequency.from_cartesian(omega.beta, omega.alpha)
            method = "reduction-y"
    re, im, err = chi_hat_body_parts(target, freq, cfg)
    if body.centrally_symmetric and abs(im) > 1e-8:
        raise ArithmeticError(f"imaginary part {im:.3e} for a centrally symmetric body")
    if omega.r == 0.0:
        method = "zero-frequency"
    return TransformResult(re, err, method)


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
    """General bodies lack the octant symmetry: angles cover [0, pi/2]."""
    return np.linspace(0.0, 0.5 * math.pi, n)


def _witness_direction(body, x_min, y_min):
    # normal direction at the flattest boundary point, folded into [0, pi/2]
    # (scan bodies are symmetric in both axes; chi_hat(-w) = chi_hat(w))
    if y_min >= 0.0:
        slope = float(body.upper_d1(x_min))
    else:
        # mirror a lower-arc point to the upper arc of the symmetric body
        slope = float(body.lower_d1(x_min))
    theta = math.atan2(1.0, -slope)
    if theta > 0.5 * math.pi:
        theta = math.pi - theta
    return theta


def _body_scaled_sample(task):
    body, r, theta, cfg = task
    res = chi_hat_body(body, fourier.Frequency.from_polar(r, theta), cfg)
    return r**1.5 * abs(res.value)


def conjecture_scan(body, r_grid=None, theta_grid=None, cfg=None, workers=1, grid_n=2000):
    """Measure sup r^{3/2}|chi_hat| and compare with the curvature bound.

    The scan inserts the normal direction at the flattest boundary point
    (the analogue of the l^p witness direction); witness_max is the
    largest sample along it.  A bound violation is reported, never
    swallowed: upper_ok=False marks a counterexample candidate.
    """
    cfg = cfg or QuadConfig()
    nu, (x_min, y_min) = body_curvature_min(body, grid_n)
    # grid minima of genuinely flat boundaries land at rounding scale, not 0
    if nu <= 1e-9:
        raise ValueError(
            f"minimum curvature {nu:.3e} is numerically flat: the bound is undefined"
        )
    if r_grid is None:
        r_grid = np.geomspace(R_MIN_ALLOWED, 500.0, 81)
    r_grid = np.asarray(r_grid, dtype=np.float64)
    if r_grid.size == 0 or np.min(r_grid) < R_MIN_ALLOWED:
        raise ValueError(f"r_grid must be nonempty with min >= {R_MIN_ALLOWED}")
    theta_grid = (
        default_body_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=np.float64)
    )
    theta_w = _witness_direction(body, x_min, y_min)
    theta_grid = np.unique(np.concatenate([theta_grid, [theta_w]]))

    tasks = []
    thetas = []
    for r in r_grid:
        for t in theta_grid:
            tasks.append((body, float(r), float(t), cfg))
            thetas.append(float(t))
    values = _ordered_map(_body_scaled_sample, tasks, workers)
    c_est = max(values)
    witness_max = max(v for v, t in zip(values, thetas) if t == theta_w)
    bound = ENVELOPE_UPPER_COEFF / math.sqrt(nu)
    ok = c_est <= bound
    notes = (
        f"nu at ({x_min:.6g}, {y_min:.6g}); {len(tasks)} samples, "
        f"r in [{r_grid[0]:g}, {r_grid[-1]:g}], {len(theta_grid)} angles, "
        f"witness direction {theta_w:.6g}"
    )
    if not ok:
        notes += "; BOUND VIOLATED: counterexample candidate"
    return ConjectureReport(
        label=body.label, nu=nu, c_est=float(c_est), bound=bound,
        upper_ok=ok, witness_max=float(witness_max), notes=notes,
    )
