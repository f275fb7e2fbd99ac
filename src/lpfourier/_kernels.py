"""G15/K31 panel rule, its reduction, the slice integrands and phi_p at the nodes.

The quadrature engine builds the (n, 31) Kronrod node array of its panels
with ``_panel_nodes``, evaluates an integrand on it and reduces the values
with ``panel_sums_from_values``.  The node array, phi_p at the nodes and
the reduction's deviations go into (CHUNK_PANELS, 31) buffers borrowed
from a free list (``_borrowed``): the nodes for the length of an engine
call, phi_p and the deviations, which are never live together, in turn
for the length of the integrand's and the reduction's call.  No chunk
allocates them.  The integrands here, the vertical
slice cos(alpha x) sin(beta u(x)) of any body (with its sinc form for
small beta) and the polar split of the l^p ball, compute into that node
array in place, in a fixed operation order, so results are
bit-reproducible.  Their frequency arguments may be scalars or (n, 1)
columns, one entry per panel row, which broadcast against the nodes.

Every trig factor comes from one ``np.tan`` of the half angle: with
t = tan(A/2), sin A = t/(1 + t^2) * 2 and cos A = 2/(1 + t^2) - 1.  The
1/2 is folded into the frequency, which is exact, so the half angle is
exactly half the phase the product alpha * x rounds to.  The speed of
this rests on numpy's SIMD dispatch: float64 ``tan`` runs vectorised
where the CPU has AVX-512 (``np.show_runtime()`` lists AVX512_ICL or
X86_V4), at about 2 ns a value against 10-20 ns for the scalar libm
``sin`` and ``cos``; without it ``tan`` is libm too and costs about what
they did.  numpy validates float64 ``tan`` to 1 ulp.  The rational map
adds a few roundings: relative ones on sin, and at most 3 eps absolute
on cos, where 1 + cos A is formed before the 1 is taken off (see
``fourier._phase_floor``).  The oracles that check these kernels
(``fourier.bessel_j1_oracle``, ``chi_hat_disk_oracle``,
``bruteforce_parts``, ``oscquad.fresnel_symmetric``, ``verify`` and
``tools/calibrate.py``) keep libm and mpmath, so they stay independent.

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

import contextlib

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


# (rows, 31) float64 buffers that engine calls, reductions and integrands
# borrow for the length of a call (``_borrowed``), so that no chunk allocates
_FREE = []


@contextlib.contextmanager
def _borrowed(rows):
    """A (rows, 31) float64 buffer off the free list, handed back on exit.

    Buffers of another row count met on the list are dropped; an empty list
    allocates.  A borrower owns its buffer until it exits, and must not
    touch it after; so a nested borrower (an integrand that calls the
    engine) gets a buffer of its own, and one that follows (the reduction
    after the integrand) gets the same one back.
    """
    while _FREE and _FREE[-1].shape[0] != rows:
        _FREE.pop()
    buf = _FREE.pop() if _FREE else np.empty((rows, KRONROD_NODES.size))
    try:
        yield buf
    finally:
        _FREE.append(buf)


def _phi_array(x, p, out=None):
    """(1 - x^p)^(1/p) elementwise on the domain [0, 1]; exact 1 at 0 and 0 at 1.

    Computed into ``out``, an array of x's shape, when given, else into a
    new array.  Unchecked: outside [0, 1] the value is meaningless (NaN for
    x < 0, and for x > 1 when p > 1), which the quadrature engine reports
    as a NonFiniteIntegrandError.  Validated evaluation is ``lpgeom.phi``.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
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


def panel_sums_from_values(v, half, dev=None):
    """(value, error) per panel from integrand values at the 31 nodes.

    ``dev``, an array of v's shape, holds the deviations when given; else
    they go into a new array.
    """
    kronrod = _row_sums(v, KRONROD_WEIGHTS) * half
    gauss = _row_sums(v, GAUSS_WEIGHTS) * half
    dev = np.abs(v, out=dev)
    resabs = _row_sums(dev, KRONROD_WEIGHTS) * half
    width = 2.0 * half
    # a panel whose width underflows to 0 has mean 0; dividing only the others
    # keeps its 0 / 0 from warning
    mean = np.divide(kronrod, width, out=np.zeros_like(kronrod), where=width > 0.0)
    np.subtract(v, mean[:, None], out=dev)
    np.abs(dev, out=dev)
    resasc = _row_sums(dev, KRONROD_WEIGHTS) * half
    return kronrod, scaled_errors(kronrod, gauss, resabs, resasc)


def _panel_nodes(lefts, rights, out=None):
    """Kronrod abscissae of each panel as an (n, 31) array, with the half-widths.

    The abscissae go into ``out``, an (n, 31) array, when given.
    """
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    x = np.multiply(half[:, None], KRONROD_NODES, out=out)
    x += mid[:, None]
    return x, half


def _half_tan(x, rate):
    """tan(rate * x / 2) into the buffer x: the 1/2 goes into the rate, exactly."""
    x *= 0.5 * rate
    return np.tan(x, out=x)


def _cos_from_half_tan(t):
    """cos A = 2/(1 + t^2) - 1 from t = tan(A/2), computed into the buffer t."""
    t *= t
    t += 1.0
    np.divide(2.0, t, out=t)
    t -= 1.0
    return t


def cos_sin_values(x, s, alpha, beta):
    """cos(alpha*x) * sin(beta*s), computed into the buffers x and s and returning x.

    s holds a graph at the nodes, u(x), in an array of its own (phi_p(x)
    for the l^p ball).  alpha and beta are scalars or (n, 1) columns, one
    entry per row of x.  With t = tan(beta s / 2), the value is
    cos(alpha x) * t / (1 + t^2) * 2.
    """
    t = _half_tan(s, beta)
    c = _cos_from_half_tan(_half_tan(x, alpha))
    c *= t
    t *= t
    t += 1.0
    c /= t
    c *= 2.0
    return c


def cos_sinc_values(x, s, alpha, beta):
    """s * sinc(beta*s) * cos(alpha*x), sinc(z) = sin(z)/z and sinc(0) = 1, returning x.

    The slice integrand's sinc form, with the arguments of
    ``cos_sin_values``.  With h = beta s / 2 and t = tan(h), the sinc is
    (t / h) / (1 + t^2); h = 0 gives 1.  Computes into x and s and one
    array of its own.
    """
    c = _cos_from_half_tan(_half_tan(x, alpha))
    c *= s
    s *= 0.5 * beta
    t = np.tan(s)
    # t = 0 exactly where h = 0: tan of a nonzero double is nonzero
    np.divide(t, s, out=s, where=t != 0.0)
    np.copyto(s, 1.0, where=t == 0.0)
    t *= t
    t += 1.0
    s /= t
    c *= s
    return c


def lp_phase_sin_values(x, p, r, cos_t, sin_t, sign, s=None):
    """sin(r * (sign*cos_t*x + sin_t*phi_p(x))), computed into the buffer x and returned.

    Every argument but p and s may be a scalar or an (n, 1) column, as in
    ``cos_sin_values``.  phi_p goes into the buffer s, an array of x's
    shape, or a new one; with t = tan(r psi / 2) in x and s reused for
    1 + t^2, the value is t / (1 + t^2) * 2.
    """
    s = _phi_array(x, p, s)
    s *= sin_t
    x *= sign * cos_t
    x += s
    t = _half_tan(x, r)
    np.multiply(t, t, out=s)
    s += 1.0
    t /= s
    t *= 2.0
    return t
