"""Adaptive panel quadrature for oscillatory integrands on an interval.

The engine uses an embedded 31-point Kronrod / 15-point Gauss pair per
panel (QUADPACK's ``qk31``).  It integrates over the seed partition its
caller hands it and only refines it: panels whose error estimate
exceeds their share of the tolerance are bisected until the summed
estimate meets the target.
``uniform_breaks`` builds the uniform seed from the largest phase rate
r*max|psi'|, at ``PANELS_PER_WAVELENGTH`` panels per 2*pi of phase; the
l^p reduction grades that seed toward the endpoint singularities of
phi_p (``fourier.lp_initial_breaks``).

The seed density is the constant 1 panel per wavelength.  A panel
spanning a full wavelength sees a phase half-width of pi, so its G15
value carries a Gauss error of about pi^30/30! ~ 3e-18 relative, and the
K31 value less; denser seeds spend nodes the rule does not need and only
feed the pessimism of the QUADPACK estimate.  The adaptive loop still
refines wherever the estimate asks.
``tools/calibrate.py`` checks at this density that every reported
estimate bounds the error against a 25-digit mpmath reference.

Everything is deterministic: panels are kept sorted and summed in
interval order, so repeated runs give bit-identical results.

Also provides evaluators for the two van der Corput bounds, the leading
stationary-phase magnitude and the symmetric Fresnel sine integral.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import _panel_nodes, panel_sums_from_values

_MIN_PANEL_WIDTH = 1e-14
_STAGNANT_ROUNDS = 3
PANELS_PER_WAVELENGTH = 1


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for one oscillatory integration."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_panels: int = 2**20

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    panels_used: int


class QuadratureBudgetError(RuntimeError):
    """Tolerance not met within the panel budget (or at the roundoff floor)."""

    def __init__(self, message, partial_value, err_estimate, panels_used):
        super().__init__(message)
        self.partial_value = partial_value
        self.err_estimate = err_estimate
        self.panels_used = panels_used


class NonFiniteIntegrandError(RuntimeError):
    """Integrand returned a non-finite value."""

    def __init__(self, abscissa):
        super().__init__(f"integrand is not finite near x = {abscissa!r}")
        self.abscissa = abscissa


def uniform_breaks(a, b, rate, cfg=None):
    """ceil(rate * PANELS_PER_WAVELENGTH / 2 pi) equal panels on [a, b], within [1, max_panels].

    The count ignores b - a, so the density per wavelength holds on unit
    intervals only (density / (2 w) on [-w, w]).  Sizing it by
    rate * (b - a) nearly doubles the time of a body-conjecture scan of
    the quartic poly body; that belongs with a performance change.
    """
    a = float(a)
    b = float(b)
    if not (a < b):
        raise ValueError("need a < b")
    if not (0.0 <= rate < math.inf):
        raise ValueError("rate must be finite and >= 0")
    cfg = cfg or QuadConfig()
    n0 = int(math.ceil(rate * PANELS_PER_WAVELENGTH / (2.0 * math.pi)))
    # no more panels than doubles in [a, b], so that the breaks stay distinct
    n = int(min(n0, cfg.max_panels, (b - a) / math.ulp(max(abs(a), abs(b)))))
    return np.linspace(a, b, max(1, n) + 1)


def _panel_sums(f, lefts, rights):
    x, half = _panel_nodes(lefts, rights)
    v = np.asarray(f(x), dtype=np.float64)
    sums, err = panel_sums_from_values(v, half)
    if not (np.all(np.isfinite(sums)) and np.all(np.isfinite(err))):
        raise NonFiniteIntegrandError(_locate_nonfinite(f, lefts, rights, sums, err))
    return sums, err


def _locate_nonfinite(f, lefts, rights, sums, err):
    bad = ~(np.isfinite(sums) & np.isfinite(err))
    i = int(np.argmax(bad))
    x, _ = _panel_nodes(lefts[i : i + 1], rights[i : i + 1])
    # f may overwrite its argument: evaluate a copy, read the abscissa from x
    v = np.asarray(f(x.copy()), dtype=np.float64)
    return float(x.flat[np.argmax(~np.isfinite(v))])


def integrate_oscillatory(f: Callable, breaks, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate f over [breaks[0], breaks[-1]] to the configured tolerance.

    ``f`` maps an (n, 31) array of Kronrod abscissae, one row per panel,
    to the integrand values at those abscissae, elementwise.  The array is
    fresh in every call and owned by the engine: ``f`` may overwrite it
    and return it as the values.  ``breaks`` is the seed partition, a
    strictly increasing array of panel boundaries (``uniform_breaks``
    builds a uniform one); the engine only refines it.

    Raises QuadratureBudgetError carrying the partial value when the
    panel budget is exhausted or the estimate stalls at the roundoff
    floor, and NonFiniteIntegrandError with the offending abscissa when
    the integrand misbehaves.
    """
    cfg = cfg or QuadConfig()
    if f is None:
        raise ValueError("an integrand f is required")
    breaks = np.asarray(breaks, dtype=np.float64)
    # increasing breaks are all finite when their span is
    ok = breaks.ndim == 1 and breaks.size >= 2 and np.all(np.diff(breaks) > 0.0)
    if not (ok and math.isfinite(breaks[-1] - breaks[0])):
        raise ValueError("breaks must be finite and strictly increasing with >= 2 entries")
    if breaks.size - 1 > cfg.max_panels:
        raise QuadratureBudgetError(
            "initial partition exceeds max_panels", 0.0, np.inf, breaks.size - 1
        )

    lefts = breaks[:-1]
    rights = breaks[1:]
    sums, err = _panel_sums(f, lefts, rights)

    prev_err = math.inf
    stagnant = 0
    while True:
        total = float(np.sum(sums))
        total_err = float(np.sum(err))
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if total_err <= tol:
            return QuadResult(total, total_err, len(lefts))

        # no useful progress: the estimate sits at the roundoff floor
        stagnant = stagnant + 1 if total_err > 0.98 * prev_err else 0
        if stagnant >= _STAGNANT_ROUNDS:
            raise QuadratureBudgetError(
                f"error estimate stalled at {total_err:.3e} (tol {tol:.3e}); "
                "the requested tolerance sits below the attainable floor",
                total,
                total_err,
                len(lefts),
            )
        prev_err = total_err

        n = len(lefts)
        bad = (err > tol / (2.0 * n)) & ((rights - lefts) > _MIN_PANEL_WIDTH)
        if not bad.any():
            raise QuadratureBudgetError(
                "offending panels reached minimal width without meeting the tolerance",
                total,
                total_err,
                n,
            )
        if n + int(bad.sum()) > cfg.max_panels:
            raise QuadratureBudgetError(
                f"panel budget {cfg.max_panels} exhausted (err {total_err:.3e} > tol {tol:.3e})",
                total,
                total_err,
                n,
            )

        bl, br = lefts[bad], rights[bad]
        mids = 0.5 * (bl + br)
        new_l = np.concatenate([bl, mids])
        new_r = np.concatenate([mids, br])
        nk, ne = _panel_sums(f, new_l, new_r)

        lefts = np.concatenate([lefts[~bad], new_l])
        rights = np.concatenate([rights[~bad], new_r])
        sums = np.concatenate([sums[~bad], nk])
        err = np.concatenate([err[~bad], ne])
        order = np.argsort(lefts, kind="stable")
        lefts, rights, sums, err = lefts[order], rights[order], sums[order], err[order]


def vdc_bound_first(r, lam):
    """First-derivative van der Corput bound 2/(r*lambda)."""
    if not (r > 0.0 and lam > 0.0):
        raise ValueError("r and lambda must be positive")
    return 2.0 / (r * lam)


def vdc_bound_second(r, lam):
    """Second-derivative van der Corput bound 6/sqrt(r*lambda)."""
    if not (r > 0.0 and lam > 0.0):
        raise ValueError("r and lambda must be positive")
    return 6.0 / math.sqrt(r * lam)


def stationary_phase_magnitude(r, lam):
    """Leading magnitude sqrt(pi)/sqrt(r*lambda) of int sin(r*psi).

    Valid when psi and psi' vanish at the stationary point and
    lambda = |psi''| there is also the minimum of |psi''|.
    """
    if not (r > 0.0 and lam > 0.0):
        raise ValueError("r and lambda must be positive")
    return math.sqrt(math.pi) / math.sqrt(r * lam)


_FRESNEL_SPLIT = 4.0
_FRESNEL_CFG = QuadConfig(abs_tol=1e-10, rel_tol=1e-10)


def _fresnel_sine_to(t):
    # int_0^t sin(x^2) dx = sum_k (-1)^k t^(4k+3) / ((2k+1)! (4k+3)), t <= split
    total = 0.0
    power = t**3
    t4 = t**4
    fact = 1.0
    k = 0
    while True:
        term = power / (fact * (4 * k + 3))
        total += -term if (k & 1) else term
        if term < 1e-17 * max(1.0, abs(total)):
            return total
        k += 1
        power *= t4
        fact *= (2 * k) * (2 * k + 1)


def fresnel_symmetric(m):
    """int_{-m}^{m} sin(x^2) dx; tends to sqrt(pi/2) with an O(1/m) tail.

    Series evaluation up to the split point, graded oscillatory
    quadrature beyond it (the naive series cancels catastrophically for
    large m).
    """
    m = float(m)
    if m < 0.0:
        raise ValueError("m must be >= 0")
    if m == 0.0:
        return 0.0
    if m <= _FRESNEL_SPLIT:
        return 2.0 * _fresnel_sine_to(m)
    head = _fresnel_sine_to(_FRESNEL_SPLIT)
    breaks = uniform_breaks(_FRESNEL_SPLIT, m, 2.0 * m, _FRESNEL_CFG)
    tail = integrate_oscillatory(lambda x: np.sin(x * x), breaks, _FRESNEL_CFG)
    return 2.0 * (head + tail.value)
