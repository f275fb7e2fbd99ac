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
# c of the phase-roundoff floor c (1 + rate) eps; see _phase_floor
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
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError("frequency components must be finite")
        r = math.hypot(alpha, beta)
        theta = math.atan2(beta, alpha) if r > 0.0 else 0.0
        return cls(alpha, beta, r, theta)

    @classmethod
    def from_polar(cls, r, theta):
        r = float(r)
        theta = float(theta)
        if not (math.isfinite(r) and math.isfinite(theta)) or r < 0.0:
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


# V-points per lp_v_points call of a seed batch (_lp_seeds); the points are
# elementwise, so the slicing changes no bit
_V_SLICE = 2048
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
    of a rate it cannot seed within ``cfg.max_panels``.  The rows are views
    of the one array ``_lp_seeds`` lays them out in.
    """
    out, ok, breaks, panels = _lp_seeds(p, alphas, betas, cfg)
    for i, row in zip(ok.tolist(), np.split(breaks, np.cumsum(panels + 1)[:-1])):
        out[i] = row
    return out


def _lp_seeds(p, alphas, betas, cfg):
    """(out, ok, breaks, panels): the seeds of ``lp_initial_breaks_batch``, laid end to end.

    ``out`` and ``ok`` are ``_seed_counts``': the failure of each pair that
    cannot be seeded and None for the others, whose indices ``ok`` holds.
    ``breaks`` holds their seeds in order, each 0, its head cuts, its
    V-points, its tail cuts and 1, and ``panels`` the panel count of each,
    as ``oscquad.integrate_batch`` takes them.  Every stage runs over the
    batch as array operations: the V-points of all pairs go through
    ``lp_v_points`` ``_V_SLICE`` at a time, the tail candidates
    a <- 1 - (1 - a)/8 run from the last V-point until 1 - a <= 1e-13, at
    most 15 steps as 1 - a falls by 8 from below 1, and the rows are laid
    out by index arrays.
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
        return out, ok, np.empty(0), np.zeros(0, dtype=np.intp)
    alphas, betas = alphas[ok], betas[ok]
    # V-points k = 1..n-1 of all pairs in one array, solved _V_SLICE points at
    # a time so that the solve's temporaries do not grow with the batch
    counts = n - 1
    firsts = np.cumsum(counts) - counts
    pair = np.repeat(np.arange(ok.size), counts)
    interior = np.empty(pair.size)
    for s in range(0, pair.size, _V_SLICE):
        i = pair[s : s + _V_SLICE]
        k = np.arange(s + 1, s + 1 + i.size, dtype=np.float64) - firsts[i]
        interior[s : s + i.size] = lp_v_points(p, alphas[i], betas[i], k, n[i])
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
    n_tail = np.where(done.any(axis=1), np.argmax(done, axis=1), np.sum(live, axis=1))
    # first-panel widths: the first V-point, else the first tail cut, else 1
    h = np.where(n_tail > 0, 1.0 - 1.0 / GRADING_RATIO, 1.0)
    h[counts > 0] = interior[firsts[counts > 0]]
    n_head = _head_counts(p, betas, h, cfg)
    # each row: 0, h 8^-k for k = n_head..1, the V-points, tail cuts 1..n_tail, 1
    sizes = n_head + counts + n_tail + 2
    ends = np.cumsum(sizes)
    starts = ends - sizes
    breaks = np.empty(ends[-1])
    breaks[starts] = 0.0
    head = _spans(starts + 1, n_head)
    powers = (np.repeat(starts + 1 + n_head, n_head) - head).astype(np.float64)
    breaks[head] = np.repeat(h, n_head) * float(GRADING_RATIO) ** -powers
    breaks[_spans(starts + 1 + n_head, counts)] = interior
    cuts = _spans(starts + 1 + n_head + counts, n_tail)
    rows = np.repeat(np.arange(ok.size), n_tail)
    breaks[cuts] = tail[rows, cuts - np.repeat(starts + n_head + counts, n_tail)]
    breaks[ends - 1] = 1.0
    return out, ok, breaks, sizes - 1


def _spans(starts, sizes):
    """starts[i] + j for j < sizes[i], for every i in turn, as one index array."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


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


def _phase_floor(rate, c=_PHASE_ROUNDOFF_C):
    """c (1 + rate) eps, the floor added to an lp integral's estimate; c = 8 for the lp integrands.

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
    return c * (1.0 + rate) * math.ulp(1.0)


def _seed_counts(alphas, betas, rates, length, cfg):
    """(out, ok, n) for a batch of seeds of [0, length] at the phase rates ``rates``.

    ``out`` has one entry per pair: the 'unseedable' QuadratureBudgetError
    naming |omega| = hypot(alpha, beta) of a rate whose uniform panel count
    would exceed ``cfg.max_panels`` (an overflowing rate included), None for
    the others; ``ok`` holds the indices of the others and ``n`` their
    counts ``uniform_panel_counts(0, length, rates[ok], cfg)``.
    """
    seedable = seed_fits_budget(length, rates, cfg)
    out = [None] * rates.size
    for i in np.flatnonzero(~seedable):
        out[i] = QuadratureBudgetError(
            f"the seed partition for |omega| = {math.hypot(alphas[i], betas[i]):.3e} "
            f"exceeds max_panels = {cfg.max_panels}",
            0.0, math.inf, 0, "unseedable",
        )
    ok = np.flatnonzero(seedable)
    return out, ok, uniform_panel_counts(0.0, length, rates[ok], cfg)


def _slice_transforms(graph, seeds, alphas, betas, cfg, roundoff_c=_PHASE_ROUNDOFF_C):
    """TransformResult of (2/(pi beta)) int_0^w cos(alpha x) sin(beta u(x)) dx per pair.

    The transform of the body |y| <= u(|x|), |x| <= w, by vertical slices,
    for alpha, beta >= 0; B_p is u = phi_p, w = 1.  Below beta = 2/pi, zero
    included, the slice is integrated in its sinc form
    (2/pi) int_0^w u sinc(beta u) cos(alpha x) dx: the factor 2/(pi beta)
    of the sine form would magnify the integral's error there, and overflow
    for subnormal beta.

    ``alphas`` and ``betas`` are float arrays.  ``graph(x)`` returns u at
    the nodes as a new array, and ``seeds(alphas, betas, sinc)`` returns,
    for the arrays of the pairs of a form, the
    ``(out, ok, breaks, panels)`` of ``_lp_seeds``: the QuadratureBudgetError of each pair it cannot seed,
    and the seeds of the others laid end to end.  Each form is one
    ``integrate_batch`` call, whose estimates gain the phase floor
    ``roundoff_c`` (1 + alpha + beta) eps before the scale 2/pi or
    2/(pi beta).  A failed pair is its QuadratureBudgetError.
    """
    out = [None] * betas.size
    # the scalar arithmetic below runs on Python floats
    alpha_list, beta_list = alphas.tolist(), betas.tolist()
    for sinc in (True, False):
        group = np.flatnonzero((betas < 2.0 / math.pi) == sinc)
        if group.size == 0:
            continue
        failed, ok, breaks, panels = seeds(alphas[group], betas[group], sinc)
        for i, seed_error in zip(group.tolist(), failed):
            out[i] = seed_error
        rows = group[ok]
        # one row per integral, picked per panel row by the engine's owner index
        a = alphas[rows][:, None]
        b = betas[rows][:, None]
        kernel = _kernels.cos_sinc_values if sinc else _kernels.cos_sin_values

        def f(x, owner):
            return kernel(x, graph(x), a[owner], b[owner])

        results = integrate_batch(f, breaks, panels, cfg)
        for i, res in zip(rows.tolist(), results):
            if not isinstance(res, QuadratureBudgetError):
                alpha, beta = alpha_list[i], beta_list[i]
                err = res.err_estimate + _phase_floor(alpha + beta, roundoff_c)
                scale = 2.0 / math.pi if sinc else 2.0 / (math.pi * beta)
                method = "zero-frequency" if alpha == 0.0 and beta == 0.0 else "reduction-x"
                res = TransformResult(scale * res.value, scale * err, method)
            out[i] = res
    return out


def _lp_slices(p, cfg):
    """(graph, seeds) of B_p: phi_p and ``_lp_seeds``.

    The sinc form (beta < 2/pi) seeds at beta = 1: with under a radian of
    phase, the seed's tail rule phi(a)(1 - a) <= 0.1 abs_tol bounds the
    tail (|sinc| <= 1), and the head grading covers the x^p cusp at x = 0.
    """

    def seeds(alphas, betas, sinc):
        return _lp_seeds(p, alphas, np.ones(betas.size) if sinc else betas, cfg)

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


# the steepest-descent route of psi_split_integrals (_contour_pairs) takes a
# row whose rate r (cos t + sin t) is at least CONTOUR_RATE and whose
# stationary point is CONTOUR_SEPARATION path widths from every branch point
# of phi_p (_contour_rows); README § Numerical notes has the tables behind
# both.  Below the rate the real-axis engine is cheap and measured; near a
# branch point the separate paths straddle it
CONTOUR_RATE = 5.0e3
CONTOUR_SEPARATION = 3.0
# Newton steps of every path node, from the local expansion: at separation 3
# the worst node of the measured grid reached roundoff after 5
_CONTOUR_NEWTON_STEPS = 6

# Tables of the route; tools/derive_constants.py derives them at 60 digits
# (hermite_rule, tanh_sinh_rule).  (v, weight) of the Gauss-Hermite rules for
# int e^(-v^2) f(v) dv, v > 0; the rules are symmetric in v
_GH40_HALF = [
    (0.1745372145975824, 0.3386432774255892), (0.5238747138322772, 0.2657282518773771),
    (0.8740066123570881, 0.16337873271327147), (1.225480109046289, 0.07847460586540439),
    (1.5788698949316138, 0.02931256553617237), (1.9347914722822959, 0.008460888008258132),
    (2.293917141875083, 0.0018714968295979529), (2.6569959984428957, 0.0003138535945413315),
    (3.0248798839012845, 3.9369339810924925e-05), (3.3985582658596285, 3.6315761506930235e-06),
    (3.7792067534352234, 2.4111441636705236e-07), (4.1682570668325, 1.121236083227581e-08),
    (4.567502072844395, 3.525620791365412e-10), (4.9792609785452555, 7.1565280526903186e-12),
    (5.406654247970128, 8.805707645216133e-14), (5.8540950560304, 6.008358789490816e-16),
    (6.328255351220082, 1.9891810121165023e-18), (6.840237305249356, 2.5675933654116698e-21),
    (7.411582531485469, 8.54405696377551e-25), (8.09876113925085, 2.591043713847081e-29),
]
_GH30_HALF = [
    (0.20112857654887148, 0.38639488954181384), (0.6039210586255523, 0.28013093083921264),
    (1.0083382710467235, 0.1467358475408901), (1.4155278001981886, 0.05514417687023425),
    (1.826741143603688, 0.014703829704826683), (2.243391467761504, 0.0027379224730676587),
    (2.667132124535617, 0.0003483101243186855), (3.0999705295864417, 2.9387252289229877e-05),
    (3.54444387315535, 1.5790948873247103e-06), (4.003908603861229, 5.108522450775946e-08),
    (4.4830553570925185, 9.178580424378528e-10), (4.988918968589944, 8.106186297463044e-12),
    (5.533147151567496, 2.878607080548706e-14), (6.138279220123935, 2.8103336027509036e-17),
    (6.863345293529892, 2.9082547001312263e-21),
]
# tanh-sinh rule of step 1/9 on u = 1 - e^(-tau) over tau in (0, 40):
# int_0^40 e^(-tau) f dtau ~ sum_k w_k f(tau_k), k = -30..30; the weights are
# even in k, and listed for k >= 0
_TS_TAUS = [
    7.970641821063928e-20, 8.228572972781068e-18, 5.224163368872759e-16, 2.1470805279391434e-14,
    5.980859893299618e-13, 1.1765745673510315e-11, 1.695921654475582e-10, 1.8511573843846215e-09,
    1.5760159098610627e-08, 1.0746134691171407e-07, 6.009265659413041e-07, 2.8151817101211487e-06,
    1.1261467179287053e-05, 3.9131368280354775e-05, 0.00011994286710686646, 0.0003288052829588543,
    0.0008162036355997306, 0.001855134769107782, 0.0038992446131083853, 0.007646346980332783,
    0.01409943179238906, 0.024616533897145864, 0.04094146696593442, 0.06520888692282395,
    0.09991902009365984, 0.1478797025844314, 0.2121165557519608, 0.2957566070975475,
    0.4018963655007443, 0.5334712299209435, 0.6931471805599453, 0.8832557663002497,
    1.1057882104215404, 1.3624547273692533, 1.6548036180170036, 1.9843849897952721,
    2.3529387726657114, 2.762586791624181, 3.216012759933762, 3.7166199703384684,
    4.268662213649687, 4.877348001485, 5.548921422355341, 6.2907253577393085,
    7.111254754762348, 8.02020922565498, 9.028555006834232, 10.148605720420383,
    11.394129274354677, 12.780485155380234, 14.32479339678651, 16.04613467134029,
    17.965780665088644, 20.107454778920253, 22.49762456296717, 25.16582835402158,
    28.145034753206996, 31.471884429551213, 35.17996758754208, 38.92265055696691,
    39.98141211361552,
]
_TS_WEIGHTS_HALF = [
    0.08726646259971647, 0.085173791168894, 0.07920716684701284, 0.07021805647167607,
    0.05938347146789167, 0.04794124756322757, 0.036961794789639624, 0.027210461040917112,
    0.019109930889226474, 0.01277902191748826, 0.00811205767533301, 0.004867377342657129,
    0.002745057026270673, 0.0014450193041136827, 0.0007041143832392568, 0.00031452065124653206,
    0.000127375144733108, 4.6188392046950506e-05, 1.4788917430706496e-05, 4.116697802078384e-06,
    9.791916620014663e-07, 1.9523074050689315e-07, 3.193776946421707e-08, 4.18595976970909e-09,
    4.280489915121578e-10, 3.315477581994153e-11, 1.8819662006443334e-12, 7.545435708077273e-14,
    2.050659959324484e-15, 3.6081527188004003e-17, 3.904552625362294e-19,
]


def _symmetric_rule(half):
    v, w = np.array(half).T
    return np.concatenate([-v[::-1], v]), np.concatenate([w[::-1], w])


# the stationary path's nodes: the 40-point rule's, then the 30-point rule's
# it is checked against; each rule's weights are zero on the other's nodes
_GH_NODES = np.concatenate([_symmetric_rule(_GH40_HALF)[0], _symmetric_rule(_GH30_HALF)[0]])
_GH_FINE = np.concatenate([_symmetric_rule(_GH40_HALF)[1], np.zeros(2 * len(_GH30_HALF))])
_GH_COARSE = np.concatenate([np.zeros(2 * len(_GH40_HALF)), _symmetric_rule(_GH30_HALF)[1]])
_TS_TAU = np.array(_TS_TAUS)
_TS_WEIGHTS = np.array(_TS_WEIGHTS_HALF[:0:-1] + _TS_WEIGHTS_HALF)
# the rule of step 2/9: every other node, k even, at twice the weight
_TS_COARSE = np.zeros(_TS_TAU.size)
_TS_COARSE[::2] = 2.0 * _TS_WEIGHTS[::2]


def _log1p(w):
    """log(1 + w) for complex w, accurate for small |w|: numpy's complex log1p is log(1 + w)."""
    u, v = w.real, w.imag
    out = np.empty_like(w)
    out.real = 0.5 * np.log1p(u * (2.0 + u) + v * v)
    out.imag = np.arctan2(v, 1.0 + u)
    return out


def _stationary_points(p, cos_t, sin_t):
    """(x, phi_p(x), x^p, phi_p(x)^p, |psi''(x)|) at the stationary point of psi = cos_t x + sin_t phi_p(x).

    Elementwise over arrays with cos_t, sin_t > 0, for 1 < p < 2: with
    q = (cos_t / sin_t)^(1/(p-1)), x^p = q^p / (1 + q^p) and
    phi_p(x)^p = 1 / (1 + q^p), and
    |psi''| = sin_t (p - 1) x^(p-2) phi_p(x)^(1-2p).  Taken from
    log q, so an angle near 0 or pi/2 gives x or phi_p(x) = 0, or a NaN
    curvature, which no separation test passes.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pq = p / (p - 1.0) * np.log(cos_t / sin_t)
        xp = 1.0 / (1.0 + np.exp(-pq))
        yp = 1.0 / (1.0 + np.exp(pq))
        x = xp ** (1.0 / p)
        y = yp ** (1.0 / p)
        curv = sin_t * (p - 1.0) * (xp / (x * x)) * (y / (yp * yp))
    return x, y, xp, yp, curv


def _contour_rows(p, r, theta, cos_t, sin_t):
    """Which rows (arrays r, theta and their rounded cos and sin) take the steepest-descent route.

    A row does when 1 < p < 2, 0 < theta < pi/2, its rate
    r (cos_t + sin_t) is at least CONTOUR_RATE, and its stationary point x
    lies CONTOUR_SEPARATION path widths sqrt(2 / (r |psi''(x)|)) from each
    branch point: x and 1 - x from the ends of [0, 1] in x, and phi_p(x)
    from w = 0 in the variable w = phi_p of the x = 1 path, where the width
    grows by cot t (at least the x width, so never below it).  A width
    that underflows to 0 (an infinite curvature) fails.
    """
    if not 1.0 < p < 2.0:
        return np.zeros(r.shape, dtype=bool)
    ok = (0.0 < theta) & (theta < 0.5 * math.pi) & (r * (cos_t + sin_t) >= CONTOUR_RATE)
    r, c, s = r[ok], cos_t[ok], sin_t[ok]
    x, y, _, _, curv = _stationary_points(p, c, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = CONTOUR_SEPARATION * np.sqrt(2.0 / (r * curv))
    ok[ok] = (gap > 0.0) & (x >= gap) & (1.0 - x >= gap) & (y >= gap * np.maximum(1.0, c / s))
    return ok


def _stationary_phi(z, d, p, x, y, xp, yp):
    """(phi_p(x + z) - y, phi_p'(x + z)) at complex z near 0, for y = phi_p(x) with x^p = xp, y^p = yp.

    The caller passes d = (x + z)^p - x^p, accurate to roundoff relative
    to itself: xp expm1(p log1p(z/x)) at a stationary point, and h^p at
    the end x = 0 (x = 0, y = 1, xp = 0, yp = 1, z = h).  Then
    phi_p(x + z) = y (1 - d / yp)^(1/p), so the difference carries no
    cancellation against x or y.
    """
    e = y * np.expm1(_log1p(-d / yp) / p)
    return e, -(xp + d) * (y + e) / ((x + z) * (yp - d))


def _contour_pairs(p, r, cos_t, sin_t):
    """(I, err): I+- = int_0^1 exp(i r psi+-(x)) dx per row, psi+- = +-cos_t x + sin_t phi_p(x), as an (n, 2) array.

    The rows are arrays r, cos_t, sin_t at one p, each row one that
    ``_contour_rows`` passes; a row's values depend on its own entries
    only.  Each integral is a sum of steepest-descent paths (Huybrechs and
    Vandewalle, SIAM J. Numer. Anal. 44, 2006), on which exp(i r psi) decays
    without oscillating:

    - from x = 0, h(t) with psi(h) = psi(0) + i t: the piece is
      exp(i r psi(0)) int_0^inf e^(-r t) h'(t) dt;
    - from x = 1, in the variable w = phi_p(x), in which the end looks like
      x = 0: chi(w) = psi(phi_p(w)) = sin_t w +- cos_t phi_p(w) and the
      amplitude -phi_p'(w), with the sign that leaves the path toward 1;
    - for psi+ only, through its stationary point x (``_stationary_points``),
      z(u) with psi(x + z) = psi(x) + i u^2: exp(i r psi(x)) int e^(-r u^2) z'(u) du.

    With t = tau / r, the endpoint pieces take the tanh-sinh rule of the
    ``_TS_*`` table on tau in (0, 40) (e^-40 = 4e-18 is the rest), and the
    stationary piece takes 40-point Gauss-Hermite in v = sqrt(r) u.  Every
    node of every path and row solves its equation by the same
    ``_CONTOUR_NEWTON_STEPS`` vectorised Newton steps, started from the
    first term of the local expansion, i t / psi'(0) or u sqrt(2 i / psi''(x));
    h' = i / psi'(h) and z' = 2 i u / psi'(x + z) come from the last one.

    The estimate, calibrated and not proved, sums over the pieces:

    - |Q_h - Q_2h| of the tanh-sinh rule against its every other node, and
      the 40-point Hermite rule against the 30-point one;
    - the Newton residual: a node's phase off by |psi(h) - psi(a) - i t|
      moves its term by r times that, summed with the rule's weights;
    - 8 (1 + r |psi(a)|) eps |piece|, with the constant of ``_phase_floor``,
      for the rounding of the base phase r psi(a), a = 0, 1 or x: psi(x)
      rounds phi_p(x), two products and a sum, the factor r rounds once
      more, and exp(i r psi(a)) is off by 1 ulp.  This term dominates.
    """
    sqrt_r = np.sqrt(r)
    # endpoint paths, per row: psi+ and psi- from 0, then from 1 in w; each
    # solves a h + b (phi_p(h) - 1) = i t
    a = np.stack([cos_t, -cos_t, sin_t, sin_t], axis=1)[:, :, None]
    b = np.stack([sin_t, sin_t, cos_t, -cos_t], axis=1)[:, :, None]
    target = 1j * (_TS_TAU / r[:, None])[:, None, :]
    h = target / a
    x, y, xp, yp, curv = _stationary_points(p, cos_t, sin_t)
    x, y, xp, yp = (v[:, None] for v in (x, y, xp, yp))
    c, s = cos_t[:, None], sin_t[:, None]
    # stationary path of psi+: psi(x + z) - psi(x) = i u^2
    u = _GH_NODES / sqrt_r[:, None]
    goal = 1j * u * u
    z = u * (np.sqrt(2.0 / curv) * complex(math.sqrt(0.5), -math.sqrt(0.5)))[:, None]
    for step in range(_CONTOUR_NEWTON_STEPS + 1):
        e, dphi = _stationary_phi(h, np.exp(p * np.log(h)), p, 0.0, 1.0, 0.0, 1.0)
        f = a * h + b * e - target
        slope = a + b * dphi
        g, dphi_s = _stationary_phi(z, xp * np.expm1(p * _log1p(z / x)), p, x, y, xp, yp)
        fs = c * z + s * g - goal
        slope_s = c + s * dphi_s
        if step == _CONTOUR_NEWTON_STEPS:
            break
        h = h - f / slope
        z = z - fs / slope_s
    ends = 1j / slope
    ends[:, 2:] *= -dphi[:, 2:]
    mass = np.abs(ends) * _TS_WEIGHTS
    pieces = np.einsum("ijk,k->ij", ends, _TS_WEIGHTS) / r[:, None]
    quad = np.abs(np.einsum("ijk,k->ij", ends, _TS_COARSE) / r[:, None] - pieces)
    newton = np.einsum("ijk,ijk->ij", mass, np.abs(f))
    stat = 2j * u / slope_s
    fine = np.einsum("ij,j->i", stat, _GH_FINE) / sqrt_r
    coarse = np.einsum("ij,j->i", stat, _GH_COARSE) / sqrt_r
    stat_newton = np.einsum("ij,j->i", np.abs(stat) * np.abs(fs), _GH_FINE) * sqrt_r
    # base phases r psi(a): psi(0) = sin_t, psi(1) = +-cos_t, psi+(x) = c x + s y
    phases = r[:, None] * np.stack([sin_t, sin_t, cos_t, -cos_t, cos_t * x[:, 0] + sin_t * y[:, 0]], axis=1)
    turn = np.exp(1j * phases)
    floor = _phase_floor(np.abs(phases))
    err = quad + newton + floor[:, :4] * np.abs(pieces)
    stat_err = np.abs(fine - coarse) + stat_newton + floor[:, 4] * np.abs(fine)
    values = np.stack([
        turn[:, 0] * pieces[:, 0] + turn[:, 2] * pieces[:, 2] + turn[:, 4] * fine,
        turn[:, 1] * pieces[:, 1] + turn[:, 3] * pieces[:, 3],
    ], axis=1)
    errs = np.stack([err[:, 0] + err[:, 2] + stat_err, err[:, 1] + err[:, 3]], axis=1)
    return values, errs


def psi_split_integrals(p, r, theta, cfg=None):
    """The two polar-split integrals (int sin(r psi), int sin(r psi~)).

    Above ``CONTOUR_RATE``, with the stationary point of psi clear of the
    branch points of phi_p (``_contour_rows``), both are the imaginary parts
    of ``_contour_pairs``, at a cost that does not grow with r; such results
    carry zero panels, rounds and panels evaluated, which marks the route.
    Every other (p, r, theta) runs on the real axis (``_psi_split_engine``).
    The two pieces are what the stationary-phase analysis bounds
    separately.  Raises ValueError unless r > 0 and theta are finite.
    """
    p = as_p(p)
    cfg = cfg or QuadConfig()
    r = float(r)
    theta = float(theta)
    if not (0.0 < r < math.inf and math.isfinite(theta)):
        raise ValueError("need finite r > 0 and theta")
    ct, st = math.cos(theta), math.sin(theta)
    row = [np.array([v]) for v in (r, theta, ct, st)]
    if not _contour_rows(p, *row)[0]:
        return _psi_split_engine(p, r, ct, st, cfg)
    values, errs = _contour_pairs(p, row[0], row[2], row[3])
    return tuple(QuadResult(v.imag, e, 0, 0, 0, 0) for v, e in zip(values[0].tolist(), errs[0].tolist()))


def _psi_split_engine(p, r, ct, st, cfg):
    """``psi_split_integrals`` on the real axis, for cos t = ct and sin t = st.

    Both integrals run in one ``integrate_batch`` call on one seed, the
    graded partition of the reduction path, with the sign of cos t in psi
    and psi~ as a per-row column; each result is bitwise the one the
    integral gets alone.  Each estimate carries the phase-roundoff floor at
    rate r (|cos t| + |sin t|).
    """
    breaks = _raised(lp_initial_breaks_batch(p, [abs(r * ct)], [abs(r * st)], cfg)[0])
    signs = np.array([[1.0], [-1.0]])

    def f(x, owner):
        return _kernels.lp_phase_sin_values(x, p, r, ct, st, signs[owner])

    results = integrate_batch(f, np.concatenate([breaks, breaks]), [breaks.size - 1] * 2, cfg)
    floor = _phase_floor(r * (abs(ct) + abs(st)))
    return tuple(replace(res, err_estimate=res.err_estimate + floor) for res in map(_raised, results))


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
    # built per call: leggauss runs an eigenvalue solve, which an import should
    # not pay for (numpy.linalg itself is loaded by a bare import numpy, 2.4.6)
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
