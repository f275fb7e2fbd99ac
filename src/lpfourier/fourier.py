"""Fourier transform of the l^p-ball indicator via 1-D reductions.

Normalization: chi_hat(alpha, beta) = (1/2pi) iint exp(-i(x alpha + y beta))
over the ball.  The transform is real and even in both arguments, and
symmetric under swapping alpha and beta, so frequencies reduce to the
canonical octant 0 <= alpha <= beta.  For beta > 0 the transform equals

    (2 / (pi beta)) * int_0^1 cos(alpha x) sin(beta phi_p(x)) dx

(x-slicing); swapping roles gives the y-slicing form, and in polar form
(alpha, beta) = r (cos t, sin t) the product splits into the two phases

    psi(x)  =  cos(t) x + sin(t) phi_p(x)
    psi~(x) = -cos(t) x + sin(t) phi_p(x)

giving chi_hat = (1/(pi r sin t)) int_0^1 [sin(r psi) + sin(r psi~)] dx.

Three independent cross-checks live here as well: the p = 1 closed form,
a Bessel J1 evaluated from its own integral representation for the disk,
and a brute-force 2-D tensor quadrature that never touches the adaptive
engine.
"""

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _kernels
from .lpgeom import as_p
from .oscquad import (
    QuadConfig,
    QuadratureBudgetError,
    QuadResult,
    _raised,
    integrate_batch,
    integrate_oscillatory,
    seed_fits_budget,
    uniform_breaks,
    uniform_panel_counts,
)

_BRUTEFORCE_MAX_FREQ = 50.0
# brute-force oracle: composite 8-point Gauss-Legendre on this many uniform
# panels of [-1, 1] in each direction (plus the edge refinement in x)
_BRUTEFORCE_PANELS = 250
# c of the phase-roundoff floor c (1 + rate) eps; see _with_phase_floor
_PHASE_ROUNDOFF_C = 8.0
# ratio of the end grading of the lp seed (lp_initial_breaks): graded panels
# are [a, 8 a] toward x = 0 and [t/8, t], t = 1 - x, toward x = 1.  On them
# the QUADPACK estimate of phi_p's end models x^p and t^(1/p), 1 < p < 2,
# stays at its floor 50 eps resabs (K31 error below 3e-21 of resabs); at
# ratio 16 the tail's leaves it.  README § Numerical notes has the table,
# with phase on the panel too (tools/derive_constants.py, grading_ratio_table)
GRADING_RATIO = 8


@dataclass(frozen=True)
class Frequency:
    """A frequency-plane point carried in Cartesian and polar form."""

    alpha: float
    beta: float
    r: float
    theta: float

    @classmethod
    def from_cartesian(cls, alpha, beta):
        alpha = float(alpha)
        beta = float(beta)
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise ValueError("frequency components must be finite")
        r = math.hypot(alpha, beta)
        theta = math.atan2(beta, alpha) if r > 0.0 else 0.0
        return cls(alpha, beta, r, theta)

    @classmethod
    def from_polar(cls, r, theta):
        r = float(r)
        theta = float(theta)
        if not (np.isfinite(r) and np.isfinite(theta)) or r < 0.0:
            raise ValueError("need finite r >= 0 and finite theta")
        return cls(r * math.cos(theta), r * math.sin(theta), r, theta)


def as_frequency(omega):
    """Coerce a Frequency or an (alpha, beta) pair."""
    if isinstance(omega, Frequency):
        return omega
    alpha, beta = omega
    return Frequency.from_cartesian(alpha, beta)


def reduce_symmetry(omega):
    """Canonical representative with 0 <= alpha <= beta.

    Value-preserving: the transform is even in each argument and
    symmetric under swapping them.
    """
    (a,), (b,) = _octant([omega])
    return Frequency.from_cartesian(a, b)


def _octant(omegas):
    """(alphas, betas) of the canonical 0 <= alpha <= beta of each of omegas, as arrays."""
    ab = np.abs(_components(omegas))
    return ab.min(axis=1), ab.max(axis=1)


def _components(omegas):
    """The (alpha, beta) of each of omegas, Frequency objects or pairs, as an (n, 2) array.

    Raises ValueError for a non-finite component, as ``Frequency`` does.
    """
    if not isinstance(omegas, np.ndarray):
        omegas = [(w.alpha, w.beta) if isinstance(w, Frequency) else tuple(w) for w in omegas]
    ab = np.asarray(omegas, dtype=np.float64).reshape(-1, 2)
    if not np.all(np.isfinite(ab)):
        raise ValueError("frequency components must be finite")
    return ab


@dataclass(frozen=True)
class TransformResult:
    value: float
    err_estimate: float
    method: str  # reduction-x | reduction-y | zero-frequency


def lp_initial_breaks(p, alpha, beta, cfg):
    """Panel boundaries for int_0^1 cos(alpha x) sin(beta phi_p(x)) dx.

    The seed steps the phase bound V(x) = alpha x + beta (1 - phi_p(x)),
    which grows from 0 to alpha + beta and bounds the phase change of
    both factors (and of the polar-split phases): its interior breaks are
    the points with V(x_k) = k V(1)/n, k = 1..n-1, for the panel count
    n = ceil((alpha + beta) / 6 pi) of ``uniform_breaks(0, 1, alpha + beta,
    cfg)`` (``lp_v_points``).  Every seed panel therefore spans at most
    ``oscquad.WAVELENGTHS_PER_PANEL`` = 3 wavelengths of the integrand's
    fastest phase, also near x = 1, where |phi_p'| > 1 and equal steps in
    x would under-resolve.  When V is linear (p = 1 or beta = 0) the
    breaks are uniform, k/n.  The seed is then graded geometrically toward
    both ends of [0, 1], where phi_p is not smooth, starting from the
    first and last V-breaks.

    Toward x = 1 (slope blow-up of phi_p): cut the last panel [a, 1] at
    1 - (1 - a)/8, and again on the rest, until the remaining phase
    variation beta*phi(a) + alpha*(1-a) over [a, 1] drops below pi/2 and
    the crude tail bound beta*phi(a)*(1-a) is below 0.1 abs_tol.

    Toward x = 0, where phi_p = 1 - x^p/p + ... has an x^p cusp for
    1 < p < 2 (phi_1 is linear and phi_2 smooth there), sin(beta phi_p) on
    [0, e] differs from a smooth function by at most beta e^(p+1): grade
    the first panel, of width h, by h 8^-k down to h 8^-K for the smallest
    K with beta (h 8^-K)^(p+1) <= 0.1 abs_tol (``_head_counts``).

    The ratio 8 of both gradings is ``GRADING_RATIO``.

    Both stages keep the endpoint singularities of phi out of the error
    estimator's blind spot: each end panel contributes less than the
    tolerance outright, so no adaptive round has to find it.

    Raises QuadratureBudgetError naming |omega| = hypot(alpha, beta) when
    n would exceed ``cfg.max_panels`` (an overflowing rate included): the
    V-steps alone would not fit the budget, so the seed fails before any
    point is built.  This is the batch of one of ``lp_initial_breaks_batch``,
    kept for the benchmark tracer's ``REQUIRED_SPANS``, which names it.
    """
    return _raised(lp_initial_breaks_batch(p, [alpha], [beta], cfg)[0])


# Newton steps of the V-point solve: from the start in _v_roots, 3 steps
# leave up to 5e-10 relative in x at p near 2, 4 reach roundoff
_V_NEWTON_STEPS = 4


def _v_roots(p, a, b, t):
    """x in (0, d] with a x + b (1 - phi_p(x)) = t, elementwise; d = 2^(-1/p).

    Needs 1 < p, a, b >= 0 with a + b > 0, and 0 < t <= a d + b (1 - d).
    On [0, d] the left side V is convex and increasing, with slope
    a + b (x / phi_p)^(p-1) <= a + b.  The start is the larger of two lower
    bounds of the root: the chord point d t / V(d), and x with
    1/x = a/t + 1/x_b, where x_b <= d solves b (1 - phi_p(x_b)) = t or is
    d (1 - phi_p is convex and 0 at 0, so V(x) <= t there).  From a lower
    bound the first Newton step lands above the root and the later ones
    fall onto it; each step is capped at d.  The count is fixed, so a
    point depends on its own inputs only.
    """
    d = 2.0 ** (-1.0 / p)
    one_minus_d = 1.0 - d
    with np.errstate(divide="ignore", over="ignore"):
        s = np.minimum(t / b, one_minus_d)
        # the inverse of 1 - phi_p is phi_p(1 - s) = (1 - (1 - s)^p)^(1/p)
        x_b = (-np.expm1(p * np.log1p(-s))) ** (1.0 / p)
    x = np.maximum(1.0 / (a / t + 1.0 / x_b), d * t / (a * d + b * one_minus_d))
    for _ in range(_V_NEWTON_STEPS):
        u = x**p
        g = -np.expm1(np.log1p(-u) / p)  # 1 - phi_p(x), accurate near 0
        slope = a + b * u * (1.0 - g) / (x * (1.0 - u))
        x = np.minimum(x - (a * x + b * g - t) / slope, d)
    return x


def lp_v_points(p, alpha, beta, k, n):
    """x_k in (0, 1) with V(x_k) = k V(1)/n, elementwise, for V(x) = alpha x + beta (1 - phi_p(x)).

    Every argument but p is an array of one entry per point, with
    0 < k < n, alpha, beta >= 0 and alpha + beta > 0; a point depends on
    its own entries only.  Linear V (p = 1 or beta = 0) gives the uniform
    k (1/n).  Otherwise the points at or below the diagonal
    x = d = 2^(-1/p), where |phi_p'| <= 1, solve for x (``_v_roots``); the
    ones above it solve for y = phi_p(x) <= d, where
    V(1) - V(x) = beta y + alpha (1 - phi_p(y)) has the same form with the
    roles swapped, and map back with x = phi_p(y), as phi_p is its own
    inverse.  Either way Newton steps on a slope that stays bounded, where
    steps in x would crawl along the blow-up of phi_p' at x = 1.
    """
    x = k * (1.0 / n)
    if p == 1.0:
        return x
    step = (alpha + beta) / n
    t = k * step
    d = 2.0 ** (-1.0 / p)
    below = (beta > 0.0) & (t <= alpha * d + beta * (1.0 - d))
    above = (beta > 0.0) & ~below
    x[below] = _v_roots(p, alpha[below], beta[below], t[below])
    # alpha = 0 makes the swapped V linear in y, and its start the exact root
    y = _v_roots(p, beta[above], alpha[above], (n[above] - k[above]) * step[above])
    x[above] = _kernels._phi_array(y, p)
    return x


def lp_initial_breaks_batch(p, alphas, betas, cfg):
    """``lp_initial_breaks`` for each pair (alphas[i], betas[i]), built together.

    Returns one entry per pair: its breaks, bitwise those of
    ``lp_initial_breaks`` whatever the batch, or the QuadratureBudgetError
    of a rate it cannot seed within ``cfg.max_panels``.  The V-points of
    all pairs are one ``lp_v_points`` call, and the tail and head rules run
    over the batch as array operations: the tail candidates
    a <- 1 - (1 - a)/8 run from the last V-point until 1 - a <= 1e-13, at
    most 15 steps as 1 - a falls by 8 from below 1.
    """
    p = as_p(p)
    alphas = np.abs(np.asarray(alphas, dtype=np.float64))
    betas = np.abs(np.asarray(betas, dtype=np.float64))
    with np.errstate(over="ignore"):
        rates = alphas + betas
    # a rate whose V-steps alone would need more than max_panels panels fails
    # here, before its V-points are built
    out, ok, n = _seed_counts(alphas, betas, rates, 1.0, cfg)
    if ok.size == 0:
        return out
    alphas, betas = alphas[ok], betas[ok]
    # V-points k = 1..n-1 of all pairs in one array
    counts = n - 1
    firsts = np.cumsum(counts) - counts
    k = np.arange(1, counts.sum() + 1, dtype=np.float64) - np.repeat(firsts, counts)
    interior = lp_v_points(
        p, np.repeat(alphas, counts), np.repeat(betas, counts), k, np.repeat(n, counts)
    )
    # tail candidates, one row per pair; columns past a row's last candidate
    # are computed but never used.  The rounded map a -> 1 - (1 - a)/8 keeps
    # the order of the rows, so the row of the smallest start needs the most
    # steps
    start = np.zeros(counts.size)  # the last V-point, or 0 without one
    start[counts > 0] = interior[(firsts + counts - 1)[counts > 0]]
    cols = [start]
    while 1.0 - cols[-1].min() > 1e-13:
        cols.append(1.0 - (1.0 - cols[-1]) / GRADING_RATIO)
    tail = np.stack(cols, axis=1)
    # test every candidate but a row's last at once; the first one meeting
    # both conditions ends the grading, otherwise all candidates are kept
    a = tail[:, :-1]
    rest = 1.0 - a
    tail_phase = betas[:, None] * _kernels._phi_array(a, p)
    live = rest > 1e-13
    done = live & (tail_phase + alphas[:, None] * rest <= 0.5 * math.pi)
    done &= tail_phase * rest <= 0.1 * cfg.abs_tol
    n_extra = np.where(done.any(axis=1), np.argmax(done, axis=1), np.sum(live, axis=1))
    # first-panel widths: the first V-point, else the first tail cut, else 1
    h = np.where(n_extra > 0, 1.0 - 1.0 / GRADING_RATIO, 1.0)
    h[counts > 0] = interior[firsts[counts > 0]]
    n_head = _head_counts(p, betas, h, cfg)
    zero, one = np.zeros(1), np.ones(1)
    rows = zip(ok.tolist(), firsts.tolist(), counts.tolist(), n_extra.tolist(), tail)
    for (i, first, count, n_tail, cands), h0, k in zip(rows, h.tolist(), n_head.tolist()):
        head = h0 * float(GRADING_RATIO) ** -np.arange(k, 0.0, -1.0)
        inner = interior[first : first + count]
        out[i] = np.concatenate([zero, head, inner, cands[1 : n_tail + 1], one])
    return out


def _head_counts(p, betas, h, cfg):
    """Per pair, the smallest K >= 0 with beta (h 8^-K)^(p+1) <= 0.1 abs_tol, or 0 unless 1 < p < 2.

    The rule runs over the batch, one array step per k; beta = 0 gives 0.
    """
    counts = np.zeros(betas.size, dtype=np.int64)
    live = (betas > 0.0) & (1.0 < p < 2.0)
    k = 0
    while live.any():
        live &= betas * (h * GRADING_RATIO**-k) ** (p + 1.0) > 0.1 * cfg.abs_tol
        counts += live
        k += 1
    return counts


def _with_phase_floor(res, rate, c=_PHASE_ROUNDOFF_C):
    """``res`` with c (1 + rate) eps added to its estimate, c = 8 for the lp integrands.

    The engine's floor 50 eps resabs covers errors relative to the
    integrand's values.  The lp integrands are trig functions of a phase
    of size up to rate, the largest phase rate over [0, 1] (alpha + beta
    for cos(alpha x) sin(beta phi_p), r (|cos t| + |sin t|) for sin(r psi)),
    and float evaluation perturbs that phase in absolute terms.  Count each
    basic operation at 0.5 eps relative and each libm call at 1 ulp (eps):
    phi_p through log, the factor p, expm1 (condition number at most 1 on
    1 - x^p) and the 1/p-th power is off by 3.5 eps relative; with the
    rounded sin t (1 eps), the products, the sum and the factor r (0.5
    each), the phase is off by at most 6 rate eps.  The rounded node is
    within 1.5 eps of the exact one, which moves the phase by
    1.5 eps |phase'|, and int_0^1 |phase'| <= rate as phi_p falls
    monotonically from 1 to 0: 7.5 rate eps in all.

    The kernels take the trig factors from t = tan(A/2) (``_kernels``).
    The half angle is the rounded phase times 1/2, exactly, so the count
    above stands.  tan at 1 ulp returns t (1 + d) with |d| <= eps, which is
    tan of the half angle moved by d sin(A)/2 to first order: a phase error
    of at most eps, whatever the rate.  The rational map then rounds
    t^2, 1 + t^2 and the quotient.  On sin A = t/(1 + t^2) * 2 those are
    relative errors, inside the engine's floor.  On
    cos A = 2/(1 + t^2) - 1 they make w = 2/(1 + t^2) off by at most
    1.5 eps relative, that is 3 eps absolute as w <= 2; the final - 1 is
    exact where w >= 1/2 (Sterbenz), which holds around the zeros of cos,
    and elsewhere rounds by 0.5 eps relative.  The cos factor multiplies
    |sin(beta phi_p)| <= 1, or phi_p sinc <= 1 in the sinc form.  Each
    node value is therefore off by at most 7.5 rate eps + 4 eps beyond the
    relative part, within 8 (1 + rate) eps, so c stays 8.  The rule's
    weights, positive and summing to the length 1 of [0, 1], carry that
    bound to the integral.  The floor is added after the engine returns,
    so it never changes the refinement.

    Body slices add no floor (``convex_probe``): their graph's roundings
    are not counted here.  Their cos term of 4 eps |sin(beta u)| is within
    the engine's 50 eps resabs node by node wherever |cos(alpha x)| >= 0.08;
    it exceeds it only within about 0.08 rad of a zero of cos(alpha x).
    There it is no larger than the rounding of a phase of size 8, which
    that path already leaves to the engine's floor, and
    ``tools/calibrate.py`` checks the result on a poly body and two
    superellipses.
    """
    floor = c * (1.0 + rate) * math.ulp(1.0)
    return QuadResult(res.value, res.err_estimate + floor, res.panels_used)


def _seed_counts(alphas, betas, rates, length, cfg):
    """(out, ok, n) for a batch of seeds of [0, length] at the phase rates ``rates``.

    ``out`` has one entry per pair: the QuadratureBudgetError naming
    |omega| = hypot(alpha, beta) of a rate whose uniform panel count would
    exceed ``cfg.max_panels`` (an overflowing rate included), None for the
    others; ``ok`` holds the indices of the others and ``n`` their counts
    ``uniform_panel_counts(0, length, rates[ok], cfg)``.
    """
    seedable = seed_fits_budget(length, rates, cfg)
    out = [None] * rates.size
    for i in np.flatnonzero(~seedable):
        out[i] = QuadratureBudgetError(
            f"the seed partition for |omega| = {math.hypot(alphas[i], betas[i]):.3e} "
            f"exceeds max_panels = {cfg.max_panels}",
            0.0, math.inf, 0,
        )
    ok = np.flatnonzero(seedable)
    return out, ok, uniform_panel_counts(0.0, length, rates[ok], cfg)


def _slice_transforms(u, seeds, alphas, betas, cfg, roundoff_c=_PHASE_ROUNDOFF_C):
    """TransformResult of (2/(pi beta)) int_0^w cos(alpha x) sin(beta u(x)) dx per pair.

    The transform of the body |y| <= u(|x|), |x| <= w, by vertical slices,
    for alpha, beta >= 0; B_p is u = phi_p, w = 1.  Below beta = 2/pi, zero
    included, the slice is integrated in its sinc form
    (2/pi) int_0^w u sinc(beta u) cos(alpha x) dx: the factor 2/(pi beta)
    of the sine form would magnify the integral's error there, and overflow
    for subnormal beta.

    ``alphas`` and ``betas`` are float arrays.  ``u`` evaluates the graph
    at the nodes into a new array, and ``seeds(alphas, betas, sinc)``
    returns, for the arrays of the pairs of a form, the seed partition of
    [0, w] of each pair, or the QuadratureBudgetError of a pair it cannot
    seed.  Each form is one ``integrate_batch`` call, whose estimates gain
    the phase floor ``roundoff_c`` (1 + alpha + beta) eps before the scale
    2/pi or 2/(pi beta).  A failed pair is its QuadratureBudgetError.
    """
    out = [None] * betas.size
    # the scalar arithmetic below runs on Python floats
    alpha_list, beta_list = alphas.tolist(), betas.tolist()
    for sinc in (True, False):
        group = np.flatnonzero((betas < 2.0 / math.pi) == sinc)
        if group.size == 0:
            continue
        for i, seed in zip(group.tolist(), seeds(alphas[group], betas[group], sinc)):
            out[i] = seed
        ok = [i for i in group.tolist() if not isinstance(out[i], QuadratureBudgetError)]
        # one row per integral, picked per panel row by the engine's owner index
        a = alphas[ok][:, None]
        b = betas[ok][:, None]

        kernel = _kernels.cos_sinc_values if sinc else _kernels.cos_sin_values

        def f(x, owner):
            return kernel(x, u(x), a[owner], b[owner])

        for i, res in zip(ok, integrate_batch(f, [out[i] for i in ok], cfg)):
            if not isinstance(res, QuadratureBudgetError):
                alpha, beta = alpha_list[i], beta_list[i]
                res = _with_phase_floor(res, alpha + beta, roundoff_c)
                scale = 2.0 / math.pi if sinc else 2.0 / (math.pi * beta)
                method = "zero-frequency" if alpha == 0.0 and beta == 0.0 else "reduction-x"
                res = TransformResult(scale * res.value, scale * res.err_estimate, method)
            out[i] = res
    return out


def _lp_slices(p, cfg):
    """(u, seeds) of B_p: phi_p and ``lp_initial_breaks_batch``.

    The sinc form (beta < 2/pi) seeds at beta = 1: with under a radian of
    phase, the seed's tail rule phi(a)(1 - a) <= 0.1 abs_tol bounds the
    tail (|sinc| <= 1), and the head grading covers the x^p cusp at x = 0.
    """

    def seeds(alphas, betas, sinc):
        return lp_initial_breaks_batch(p, alphas, np.ones(betas.size) if sinc else betas, cfg)

    return partial(_kernels._phi_array, p=p), seeds


def chi_hat_lp_batch(p, omegas, cfg=None):
    """``chi_hat_lp`` at each of omegas, integrated in one adaptive batch.

    Returns one entry per frequency: its TransformResult, bitwise the one
    ``chi_hat_lp`` returns, or the QuadratureBudgetError that ended it; a
    failure does not touch the other entries.
    """
    p = as_p(p)
    cfg = cfg or QuadConfig()
    return _slice_transforms(*_lp_slices(p, cfg), *_octant(omegas), cfg)


def chi_hat_lp(p, omega, cfg=None):
    """chi_hat of the l^p ball at omega, by the 1-D x-slicing reduction.

    The result records the evaluation path and the propagated quadrature
    error estimate; small beta takes the sinc form (``_slice_transforms``).
    This is the batch of one of ``chi_hat_lp_batch``.
    """
    return _raised(chi_hat_lp_batch(p, [omega], cfg)[0])


def chi_hat_lp_via_y(p, omega, cfg=None):
    """Same transform through the y-slicing form (2/(pi alpha)) int cos(beta y) sin(alpha phi).

    The cross-check route.  Below alpha = 2/pi, alpha = 0 included, it
    takes the sinc form, as ``chi_hat_lp`` does.
    """
    p = as_p(p)
    cfg = cfg or QuadConfig()
    alphas, betas = _octant([omega])
    (part,) = _slice_transforms(*_lp_slices(p, cfg), betas, alphas, cfg)  # swapped
    return replace(_raised(part), method="reduction-y")


def psi_split_integrals(p, r, theta, cfg=None):
    """The two polar-split integrals (int sin(r psi), int sin(r psi~)).

    Both run in one ``integrate_batch`` call on one seed, the graded
    partition of the reduction path, with the sign of cos t in psi and
    psi~ as a per-row column; each result is bitwise the one the integral
    gets alone.  The two pieces are what the stationary-phase analysis
    bounds separately.  Each estimate carries the phase-roundoff floor at
    rate r (|cos t| + |sin t|).  Raises ValueError unless r > 0 and theta
    are finite.
    """
    p = as_p(p)
    cfg = cfg or QuadConfig()
    r = float(r)
    theta = float(theta)
    if not (0.0 < r < math.inf and math.isfinite(theta)):
        raise ValueError("need finite r > 0 and theta")
    ct, st = math.cos(theta), math.sin(theta)
    breaks = _raised(lp_initial_breaks_batch(p, [abs(r * ct)], [abs(r * st)], cfg)[0])
    signs = np.array([[1.0], [-1.0]])

    def f(x, owner):
        return _kernels.lp_phase_sin_values(x, p, r, ct, st, signs[owner])

    rate = r * (abs(ct) + abs(st))
    return tuple(
        _with_phase_floor(_raised(res), rate) for res in integrate_batch(f, [breaks, breaks], cfg)
    )


def _sin_over(x):
    # sin(x)/x by libm, 1 at 0: the closed form stays off the kernels it checks
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def chi_hat_l1_closed(omega):
    """Closed form for the diamond: -2(cos b - cos a)/(pi (b^2 - a^2)).

    Evaluated in the cancellation-free product form
    (1/pi) * sinc((a+b)/2) * sinc((b-a)/2), which also carries the
    removable a = b diagonal (limit sin(b)/(pi b)) and the zero-frequency
    value area/(2 pi) = 1/pi.
    """
    omega = reduce_symmetry(omega)
    s = 0.5 * (omega.alpha + omega.beta)
    d = 0.5 * (omega.beta - omega.alpha)
    return float(_sin_over(s) * _sin_over(d) / math.pi)


def _composite_gl_nodes(breaks):
    # built per call: leggauss loads numpy.linalg, which an import should not
    xg, wg = leggauss(8)
    l, r = breaks[:-1], breaks[1:]
    half = 0.5 * (r - l)[:, None]
    mid = 0.5 * (r + l)[:, None]
    return (mid + half * xg[None, :]).ravel(), (half * wg[None, :]).ravel()


def bruteforce_parts(p, omega):
    """Direct 2-D tensor quadrature of (1/2pi) iint e^{-i(x a + y b)} over the ball.

    Independent of the adaptive engine: composite Gauss-Legendre in both
    directions on a fixed, symmetric partition of [-1, 1] with geometric
    refinement toward the slope singularities at x = +-1.  Returns
    (real part, imaginary part); no symmetry reduction is applied, so the
    imaginary part is an honest numerical zero.  The trig factors are
    libm's sin and cos, not the package's half-angle kernels.

    Certified for |omega| <= 50 only.
    """
    p = as_p(p)
    omega = as_frequency(omega)
    if omega.r > _BRUTEFORCE_MAX_FREQ:
        raise ValueError(f"brute-force oracle is limited to |omega| <= {_BRUTEFORCE_MAX_FREQ}")
    alpha, beta = omega.alpha, omega.beta

    base = np.linspace(-1.0, 1.0, _BRUTEFORCE_PANELS + 1)
    w0 = base[1] - base[0]
    edge = w0 * 0.5 ** np.arange(1.0, 46.0)
    breaks = np.unique(np.concatenate([base, -1.0 + edge, 1.0 - edge]))
    x, wx = _composite_gl_nodes(breaks)
    ph = _kernels._phi_array(np.abs(x), p)

    t_breaks = np.linspace(-1.0, 1.0, _BRUTEFORCE_PANELS + 1)
    t, wt = _composite_gl_nodes(t_breaks)
    # vertical slice y = t*phi(x): weight picks up the slice half-height
    phase = alpha * x[:, None] + beta * np.outer(ph, t)
    re_slices = (np.cos(phase) @ wt) * ph
    im_slices = (np.sin(phase) @ wt) * ph
    re = float((re_slices @ wx) / (2.0 * math.pi))
    im = float(-(im_slices @ wx) / (2.0 * math.pi))
    return re, im


def chi_hat_bruteforce(p, omega):
    """Real part of the brute-force transform; checks the imaginary part is ~0."""
    re, im = bruteforce_parts(p, omega)
    if abs(im) > 1e-8:
        raise ArithmeticError(f"brute-force imaginary part {im:.3e} not negligible")
    return re


_J1_CFG = QuadConfig(abs_tol=1e-12, rel_tol=1e-12)


def bessel_j1_oracle(r):
    """J1(r) from the integral representation (1/pi) int_0^pi cos(t - r sin t) dt.

    Deliberately not a closed-form or library evaluation: an independent
    route for the disk cross-check, run at its own tight tolerances.  Its
    integrand keeps libm's sin and cos, not the half-angle kernels it
    checks.
    """
    r = float(r)
    breaks = uniform_breaks(0.0, math.pi, 1.0 + abs(r), _J1_CFG)
    res = integrate_oscillatory(lambda t: np.cos(t - r * np.sin(t)), breaks, _J1_CFG)
    return res.value / math.pi


def chi_hat_disk_oracle(r):
    """Disk transform J1(r)/r = (1/pi) int_0^pi cos(r cos t) sin(t)^2 dt (Poisson).

    The integral carries no division by r, so small r keeps its accuracy;
    like ``bessel_j1_oracle``, an independent route at tight tolerances,
    on libm's sin and cos.
    """
    r = float(r)
    breaks = uniform_breaks(0.0, math.pi, abs(r), _J1_CFG)
    res = integrate_oscillatory(lambda t: np.cos(r * np.cos(t)) * np.sin(t) ** 2, breaks, _J1_CFG)
    return res.value / math.pi
