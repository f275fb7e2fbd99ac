"""G15/K31 panel rule, its reduction, the slice integrands and phi_p at the nodes.

The quadrature engine builds the (n, 31) Kronrod node array of its panels
with ``_panel_nodes``, evaluates an integrand on it and reduces the values
with ``panel_sums_from_values``.  The two integrands here, the vertical
slice cos(alpha x) sin(beta u(x)) of any body and the polar split of the
l^p ball, compute into that node array in place, in a fixed operation
order, so results are bit-reproducible.  Their frequency arguments may
be scalars or (n, 1) columns, one entry per panel row, which broadcast
against the nodes.

Every step is row-independent: a panel's (value, error) is a function of
that panel's row alone, whatever rows share its array.  The weighted row
sums therefore go through ``np.einsum``, which sums each row on its own;
BLAS matrix-vector products (``v @ w``) block rows together, so a row's
bits would depend on its position in the array.

The reduction maps node values to per-panel (value, error) pairs: the
31-point Kronrod value and the rescaled Gauss/Kronrod discrepancy.  The
rescaling (error = resasc * min(1, (200 d / resasc)^1.5), floored at
50 eps * resabs) keeps the estimate honest on panels where the integrand
is merely Hoelder continuous, where the raw discrepancy d of an embedded
pair can undershoot the true error.  Rule and rescaling are QUADPACK's
``qk31`` (Piessens et al., 1983); ``tools/derive_constants.py``
rederives the table at 60 digits.
"""

import numpy as np

# 31-point Kronrod rule with embedded 15-point Gauss rule on [-1, 1]: the
# nodes x >= 0, descending to the shared node 0, with their weights.  The
# Gauss nodes are every other one from the second; Gauss weights are zero
# on the Kronrod-only nodes, so both sums run over the same abscissae.
_XGK_HALF = [
    0.9980022986933971, 0.9879925180204854, 0.9677390756791391, 0.937273392400706,
    0.8972645323440819, 0.8482065834104272, 0.790418501442466, 0.7244177313601701,
    0.650996741297417, 0.5709721726085388, 0.4850818636402397, 0.3941513470775634,
    0.29918000715316884, 0.20119409399743451, 0.1011420669187175, 0.0,
]
_WGK_HALF = [
    0.005377479872923349, 0.015007947329316122, 0.02546084732671532, 0.03534636079137585,
    0.04458975132476488, 0.05348152469092809, 0.06200956780067064, 0.06985412131872826,
    0.07684968075772038, 0.08308050282313302, 0.08856444305621176, 0.09312659817082532,
    0.09664272698362368, 0.09917359872179196, 0.10076984552387559, 0.10133000701479154,
]
_WG_HALF = [
    0.03075324199611727, 0.07036604748810812, 0.10715922046717194, 0.13957067792615432,
    0.16626920581699392, 0.1861610000155622, 0.19843148532711158, 0.2025782419255613,
]

KRONROD_NODES = np.array([-x for x in _XGK_HALF[:-1]] + list(reversed(_XGK_HALF)))
KRONROD_WEIGHTS = np.array(_WGK_HALF[:-1] + list(reversed(_WGK_HALF)))
GAUSS_WEIGHTS = np.zeros(KRONROD_NODES.size)
GAUSS_WEIGHTS[1::2] = _WG_HALF[:-1] + list(reversed(_WG_HALF))

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


def scaled_errors(kronrod, gauss, resabs, resasc):
    """QUADPACK-style panel error from the embedded-pair discrepancy."""
    err = np.abs(kronrod - gauss)
    mask = (resasc > 0.0) & (err > 0.0)
    ratio = np.minimum(1.0, (200.0 * err[mask] / resasc[mask]) ** 1.5)
    err[mask] = resasc[mask] * ratio
    return np.maximum(err, _EPS50 * resabs)


def _row_sums(v, w):
    # v @ w, row by row: the result of a row does not depend on the other rows
    return np.einsum("ij,j->i", v, w)


def panel_sums_from_values(v, half):
    """(value, error) per panel from integrand values at the 31 nodes."""
    kronrod = _row_sums(v, KRONROD_WEIGHTS) * half
    gauss = _row_sums(v, GAUSS_WEIGHTS) * half
    dev = np.abs(v)
    resabs = _row_sums(dev, KRONROD_WEIGHTS) * half
    width = 2.0 * half
    # a panel whose width underflows to 0 has mean 0; dividing only the others
    # keeps its 0 / 0 from warning
    mean = np.divide(kronrod, width, out=np.zeros_like(kronrod), where=width > 0.0)
    np.subtract(v, mean[:, None], out=dev)
    np.abs(dev, out=dev)
    resasc = _row_sums(dev, KRONROD_WEIGHTS) * half
    return kronrod, scaled_errors(kronrod, gauss, resabs, resasc)


def _panel_nodes(lefts, rights):
    """Kronrod abscissae of each panel as an (n, 31) array, with the half-widths."""
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    x = np.multiply(half[:, None], KRONROD_NODES)
    x += mid[:, None]
    return x, half


def cos_sin_values(x, s, alpha, beta):
    """cos(alpha*x) * sin(beta*s), computed into the buffers x and s and returning x.

    s holds a graph at the nodes, u(x), in an array of its own (phi_p(x)
    for the l^p ball).  alpha and beta are scalars or (n, 1) columns, one
    entry per row of x.
    """
    s *= beta
    np.sin(s, out=s)
    x *= alpha
    np.cos(x, out=x)
    x *= s
    return x


def lp_phase_sin_values(x, p, r, cos_t, sin_t, sign):
    """sin(r * (sign*cos_t*x + sin_t*phi_p(x))), computed into the buffer x and returned.

    Every argument but p may be a scalar or an (n, 1) column, as in
    ``cos_sin_values``.
    """
    s = _phi_array(x, p)
    s *= sin_t
    x *= sign * cos_t
    x += s
    x *= r
    np.sin(x, out=x)
    return x
