"""Boundary geometry of the planar l^p unit ball for 1 <= p <= 2.

The first-quadrant boundary arc is the graph y = phi_p(x) with

    phi_p(x)   = (1 - x^p)^(1/p)
    phi_p'(x)  = -x^(p-1) (1 - x^p)^(1/p - 1)
    phi_p''(x) = -(p-1) x^(p-2) (1 - x^p)^(1/p - 2)

|phi_p''| has a unique interior minimum at the flat point

    x* = ((2-p)/(p+1))^(1/p),   |phi_p''(x*)| = (p-1) m(p),
    m(p) = (2-p)^(1-2/p) (2p-1)^(1/p-2) (p+1)^(1+1/p),  m(2) = lim = 1.

The normal direction at the flat point is theta* = arctan(-1/phi_p'(x*)),
and the boundary curvature kappa = |phi''| / (1 + phi'^2)^(3/2) attains
its minimum (p-1) 2^(1/p - 1/2) on the diagonal.

All operations are pure; scalars in, scalars out (array x is accepted
where noted and returns an array).
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import _phi_array


@dataclass(frozen=True)
class PExponent:
    """Validated ball exponent, 1 <= p <= 2."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not np.isfinite(p) or not (1.0 <= p <= 2.0):
            raise ValueError(f"exponent must be a finite number in [1, 2], got {self.p!r}")
        object.__setattr__(self, "p", p)


def as_p(p):
    """Coerce a float or PExponent to a validated float exponent."""
    if isinstance(p, PExponent):
        return p.p
    return PExponent(float(p)).p


@dataclass(frozen=True)
class GeomProfile:
    """Flat point x*, its normal direction theta*, min |phi_p''| and min curvature."""

    p: float
    x_star: float
    theta_star: float
    min_abs_phi2: float
    min_curvature: float


def _check_open_unit(x):
    x = np.asarray(x, dtype=np.float64)
    # written so that NaN fails it too
    if not np.all((0.0 < x) & (x < 1.0)):
        raise ValueError("x must lie strictly inside (0, 1)")
    return x


def _check_finite(value, what, x):
    if not np.all(np.isfinite(value)):
        bad = np.asarray(x)[~np.isfinite(np.asarray(value))] if np.ndim(value) else x
        raise OverflowError(f"{what} overflowed at x = {bad}")
    return value


def _scalar_like(x_in, value):
    return float(value) if np.ndim(x_in) == 0 else value


def phi(p, x):
    """phi_p(x) = (1 - x^p)^(1/p) on [0, 1]; exact 1 at 0 and 0 at 1."""
    p = as_p(p)
    xa = np.asarray(x, dtype=np.float64)
    # written so that NaN fails it too
    if not np.all((0.0 <= xa) & (xa <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    return _scalar_like(x, _phi_array(xa, p))


def phi_d1(p, x):
    """phi_p'(x) = -x^(p-1) (1 - x^p)^(1/p - 1), x in (0, 1)."""
    p = as_p(p)
    xa = _check_open_unit(x)
    # overflow policy: report via _check_finite, never saturate silently
    with np.errstate(over="ignore"):
        one_m = -np.expm1(p * np.log(xa))
        out = -(xa ** (p - 1.0)) * one_m ** (1.0 / p - 1.0)
    return _scalar_like(x, _check_finite(out, "phi_d1", xa))


def phi_d2(p, x):
    """phi_p''(x) = -(p-1) x^(p-2) (1 - x^p)^(1/p - 2), x in (0, 1)."""
    p = as_p(p)
    xa = _check_open_unit(x)
    with np.errstate(over="ignore"):
        one_m = -np.expm1(p * np.log(xa))
        out = -(p - 1.0) * xa ** (p - 2.0) * one_m ** (1.0 / p - 2.0)
    return _scalar_like(x, _check_finite(out, "phi_d2", xa))


def x_star(p):
    """Flat point x* = ((2-p)/(p+1))^(1/p); equals 0 at p = 2."""
    p = as_p(p)
    if p == 2.0:
        return 0.0
    return ((2.0 - p) / (p + 1.0)) ** (1.0 / p)


def m_of_p(p):
    """m(p) = (2-p)^(1-2/p) (2p-1)^(1/p-2) (p+1)^(1+1/p); m(2) = 1 (limit).

    Evaluated in log space so the 0^0 form at p -> 2- stays finite all
    the way to the p = 2 branch.
    """
    p = as_p(p)
    if p == 1.0:
        return 4.0
    if p == 2.0:
        return 1.0
    log_m = (
        (1.0 - 2.0 / p) * np.log(2.0 - p)
        + (1.0 / p - 2.0) * np.log(2.0 * p - 1.0)
        + (1.0 + 1.0 / p) * np.log(p + 1.0)
    )
    return float(np.exp(log_m))


def theta_star(p):
    """Normal direction at the flat point: arctan(((2p-1)/(2-p))^(1-1/p)).

    Lies in [pi/4, pi/2) for p in (1, 2); returns exactly pi/2 at p = 2
    (limit convention, the flat point degenerates to the domain edge).
    """
    p = as_p(p)
    if p == 1.0:
        raise ValueError("theta_star requires p > 1 (flat faces at p = 1)")
    if p == 2.0:
        return np.pi / 2.0
    ratio = ((2.0 * p - 1.0) / (2.0 - p)) ** (1.0 - 1.0 / p)
    return float(np.arctan(ratio))


def min_curvature(p):
    """min over the boundary of kappa: (p-1) 2^(1/p - 1/2); 0 at p = 1."""
    p = as_p(p)
    return (p - 1.0) * 2.0 ** (1.0 / p - 0.5)


def geom_profile(p):
    """All flat-point quantities for p in (1, 2], mutually consistent."""
    p = as_p(p)
    if p == 1.0:
        raise ValueError("geom_profile requires p > 1 (no interior flat point at p = 1)")
    return GeomProfile(
        p=p,
        x_star=x_star(p),
        theta_star=theta_star(p),
        min_abs_phi2=(p - 1.0) * m_of_p(p),
        min_curvature=min_curvature(p),
    )
