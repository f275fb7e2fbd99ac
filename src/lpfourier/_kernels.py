"""Hot per-panel quadrature kernels and phi_p at the quadrature nodes.

The kernels are numpy: each builds the (n, 15) Kronrod node array of its
panels and evaluates the integrand in place, in a fixed operation order,
so results are bit-reproducible.  numba is an optional dependency; when
it is importable, ``@njit`` twins of the two lp kernels are selected at
import time unless the environment variable ``LPFOURIER_PURE_NUMPY=1``
forces numpy.  The twins agree with numpy up to floating-point rounding.

A kernel maps arrays of panel endpoints to per-panel (value, error)
pairs: the 15-point Kronrod value and the rescaled Gauss/Kronrod
discrepancy.  The rescaling (error = resasc * min(1, (200 d / resasc)^1.5),
floored at 50 eps * resabs) keeps the estimate honest on panels where the
integrand is merely Hoelder continuous, where the raw discrepancy d of an
embedded pair can undershoot the true error.
"""

import math
import os

import numpy as np

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
# Nodes ascending; Gauss weights are zero on the Kronrod-only nodes so
# both sums run over the same abscissae.
_XGK_HALF = [
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
]
_WGK_HALF = [
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
]
_WG_HALF = [
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
]

KRONROD_NODES = np.array([-x for x in _XGK_HALF[:-1]] + list(reversed(_XGK_HALF)))
KRONROD_WEIGHTS = np.array(_WGK_HALF[:-1] + list(reversed(_WGK_HALF)))
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1:14:2] = _WG_HALF[:-1] + list(reversed(_WG_HALF))

_EPS50 = 50.0 * np.finfo(np.float64).eps


def _phi_array(x, p):
    """(1 - x^p)^(1/p) elementwise on the domain [0, 1]; exact 1 at 0 and 0 at 1.

    Unchecked: outside [0, 1] the value is meaningless (NaN for x < 0, and
    for x > 1 when p > 1), which the quadrature engine reports as a
    NonFiniteIntegrandError.  Validated evaluation is ``lpgeom.phi``.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    # 1 - x^p via expm1 to keep accuracy near x = 1; log(0) = -inf gives phi(0) = 1
    with np.errstate(divide="ignore"):
        np.log(x, out=out)
    out *= p
    np.expm1(out, out=out)
    # 0 - v rather than -v: phi(1) is +0.0, also at p = 1 where the power is the identity
    np.subtract(0.0, out, out=out)
    out **= 1.0 / p
    return out


def scaled_errors(k15, g7, resabs, resasc):
    """QUADPACK-style panel error from the embedded-pair discrepancy."""
    err = np.abs(k15 - g7)
    mask = (resasc > 0.0) & (err > 0.0)
    ratio = np.minimum(1.0, (200.0 * err[mask] / resasc[mask]) ** 1.5)
    err[mask] = resasc[mask] * ratio
    return np.maximum(err, _EPS50 * resabs)


def panel_sums_from_values(v, half):
    """(value, error) per panel from integrand values at the 15 nodes."""
    k15 = (v @ KRONROD_WEIGHTS) * half
    g7 = (v @ GAUSS_WEIGHTS) * half
    resabs = (np.abs(v) @ KRONROD_WEIGHTS) * half
    width = 2.0 * half
    mean = np.where(width > 0.0, k15 / width, 0.0)
    resasc = (np.abs(v - mean[:, None]) @ KRONROD_WEIGHTS) * half
    return k15, scaled_errors(k15, g7, resabs, resasc)


def _panel_nodes(lefts, rights):
    """Kronrod abscissae of each panel as an (n, 15) array, with the half-widths."""
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    x = np.multiply(half[:, None], KRONROD_NODES)
    x += mid[:, None]
    return x, half


def lp_cos_sin_panel_sums_numpy(lefts, rights, p, alpha, beta):
    """Panel sums of cos(alpha*x) * sin(beta * phi_p(x))."""
    x, half = _panel_nodes(lefts, rights)
    s = _phi_array(x, p)
    s *= beta
    np.sin(s, out=s)
    x *= alpha
    np.cos(x, out=x)
    x *= s
    return panel_sums_from_values(x, half)


def lp_phase_sin_panel_sums_numpy(lefts, rights, p, r, cos_t, sin_t, sign):
    """Panel sums of sin(r * (sign*cos_t*x + sin_t*phi_p(x)))."""
    x, half = _panel_nodes(lefts, rights)
    s = _phi_array(x, p)
    s *= sin_t
    x *= sign * cos_t
    x += s
    x *= r
    np.sin(x, out=x)
    return panel_sums_from_values(x, half)


NUMBA_AVAILABLE = False
_FORCE_NUMPY = os.environ.get("LPFOURIER_PURE_NUMPY", "") == "1"

try:
    from numba import njit

    NUMBA_AVAILABLE = True

    @njit(cache=True)
    def _phi_scalar(x, p):
        if x <= 0.0:
            return 1.0
        if x >= 1.0:
            return 0.0
        return (-math.expm1(p * math.log(x))) ** (1.0 / p)

    @njit(cache=True)
    def _panel_reduce(values, half, k15, err, i):
        sk = 0.0
        sg = 0.0
        sa = 0.0
        for j in range(15):
            v = values[j]
            sk += KRONROD_WEIGHTS[j] * v
            sg += GAUSS_WEIGHTS[j] * v
            sa += KRONROD_WEIGHTS[j] * abs(v)
        mean = 0.5 * sk
        sc = 0.0
        for j in range(15):
            sc += KRONROD_WEIGHTS[j] * abs(values[j] - mean)
        k = sk * half
        d = abs(k - sg * half)
        resabs = sa * half
        resasc = sc * half
        if resasc > 0.0 and d > 0.0:
            scale = (200.0 * d / resasc) ** 1.5
            if scale > 1.0:
                scale = 1.0
            d = resasc * scale
        floor = _EPS50 * resabs
        k15[i] = k
        err[i] = d if d > floor else floor

    @njit(cache=True)
    def lp_cos_sin_panel_sums_numba(lefts, rights, p, alpha, beta):
        n = lefts.shape[0]
        k15 = np.empty(n)
        err = np.empty(n)
        values = np.empty(15)
        for i in range(n):
            half = 0.5 * (rights[i] - lefts[i])
            mid = 0.5 * (rights[i] + lefts[i])
            for j in range(15):
                x = mid + half * KRONROD_NODES[j]
                values[j] = math.cos(alpha * x) * math.sin(beta * _phi_scalar(x, p))
            _panel_reduce(values, half, k15, err, i)
        return k15, err

    @njit(cache=True)
    def lp_phase_sin_panel_sums_numba(lefts, rights, p, r, cos_t, sin_t, sign):
        n = lefts.shape[0]
        k15 = np.empty(n)
        err = np.empty(n)
        values = np.empty(15)
        for i in range(n):
            half = 0.5 * (rights[i] - lefts[i])
            mid = 0.5 * (rights[i] + lefts[i])
            for j in range(15):
                x = mid + half * KRONROD_NODES[j]
                values[j] = math.sin(r * (sign * cos_t * x + sin_t * _phi_scalar(x, p)))
            _panel_reduce(values, half, k15, err, i)
        return k15, err

except ImportError:
    pass

if NUMBA_AVAILABLE and not _FORCE_NUMPY:
    BACKEND = "numba"
    lp_cos_sin_panel_sums = lp_cos_sin_panel_sums_numba
    lp_phase_sin_panel_sums = lp_phase_sin_panel_sums_numba
else:
    BACKEND = "numpy"
    lp_cos_sin_panel_sums = lp_cos_sin_panel_sums_numpy
    lp_phase_sin_panel_sums = lp_phase_sin_panel_sums_numpy


def backend_name():
    return BACKEND
