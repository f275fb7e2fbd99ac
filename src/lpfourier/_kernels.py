"""G7/K15 panel rule, its reduction, and the lp integrands with phi_p at the nodes.

The quadrature engine builds the (n, 15) Kronrod node array of its panels
with ``_panel_nodes``, evaluates an integrand on it and reduces the values
with ``panel_sums_from_values``.  The two lp integrands here compute into
that node array in place, in a fixed operation order, so results are
bit-reproducible.

The reduction maps node values to per-panel (value, error) pairs: the
15-point Kronrod value and the rescaled Gauss/Kronrod discrepancy.  The
rescaling (error = resasc * min(1, (200 d / resasc)^1.5), floored at
50 eps * resabs) keeps the estimate honest on panels where the integrand
is merely Hoelder continuous, where the raw discrepancy d of an embedded
pair can undershoot the true error.
"""

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


def lp_cos_sin_values(x, p, alpha, beta):
    """cos(alpha*x) * sin(beta * phi_p(x)), computed into the buffer x and returned."""
    s = _phi_array(x, p)
    s *= beta
    np.sin(s, out=s)
    x *= alpha
    np.cos(x, out=x)
    x *= s
    return x


def lp_phase_sin_values(x, p, r, cos_t, sin_t, sign):
    """sin(r * (sign*cos_t*x + sin_t*phi_p(x))), computed into the buffer x and returned."""
    s = _phi_array(x, p)
    s *= sin_t
    x *= sign * cos_t
    x += s
    x *= r
    np.sin(x, out=x)
    return x
