"""Adaptive panel quadrature for oscillatory integrands on an interval.

The engine uses an embedded 31-point Kronrod / 15-point Gauss pair per
panel (QUADPACK's ``qk31``).  It integrates over the seed partition its
caller hands it and only refines it: panels whose error estimate
exceeds their share of the tolerance are bisected until the summed
estimate meets the target.
``uniform_breaks`` builds the uniform seed from the largest phase rate
r*max|psi'| and the interval's length, at ``WAVELENGTHS_PER_PANEL``
wavelengths (2*pi of phase each) per panel; the l^p reduction places its
seed at equal steps of a phase bound instead and grades it toward the
endpoint singularities of phi_p (``fourier.lp_initial_breaks``).

The seed density is the constant 3 wavelengths per panel, the widest at
which the QUADPACK estimate of a sinusoid panel stays at its floor
50 eps resabs.  On one panel of sin(omega x + c), largest over 12
phases c and relative to the integral of |f| over the panel
(``tools/derive_constants.py`` derives it at 60 digits):

    wavelengths per panel   2        2.5      3        3.5      4
    G15 error               5.5e-18  3.7e-15  7.2e-13  5.6e-11  2.3e-9
    K31 error               5.5e-40  2.2e-35  1.2e-31  1.6e-28  8.2e-26
    reported estimate       1.1e-14  1.1e-14  1.1e-14  1.2e-12  3.1e-10

Up to 3 the estimate is the floor, so a denser seed spends nodes the
rule does not need; beyond it the estimate leaves the floor and tight
tolerances (1e-12 and below) would bisect every panel.  The adaptive
loop still refines wherever the estimate asks.  ``tools/calibrate.py``
checks at this density that every reported estimate bounds the error
against a 25-digit mpmath reference.

``integrate_batch`` runs one adaptive loop for a batch of integrals,
each with its own seed partition, tolerance test, stagnation count and
panel budget, and its own result or failure.  Each round builds, evaluates
and reduces the panels of all its integrals together, in chunks of at
most ``CHUNK_PANELS`` rows; ``integrate_oscillatory`` is the batch of one.

Everything is deterministic: panels are kept sorted and summed in
interval order, and every panel's (value, error) depends on that panel
alone, so repeated runs give bit-identical results, and an integral's
result does not depend on which integrals share its batch or chunk.

Also provides evaluators for the two van der Corput bounds and, by one
engine call, the symmetric Fresnel sine integral.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import _panel_nodes, panel_sums_from_values

_MIN_PANEL_WIDTH = 1e-14
_STAGNANT_ROUNDS = 3
WAVELENGTHS_PER_PANEL = 3
# rows per integrand call: 1024 panels of 31 float64 nodes are 254 KB, so the
# node array and the integrand's temporaries stay in a core's L2 cache
CHUNK_PANELS = 1024


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for one oscillatory integration."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_panels: int = 2**20

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
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
    """ceil(rate (b - a) / 6 pi) equal panels on [a, b], within [1, max_panels].

    ``rate`` bounds the phase derivative on [a, b], so each panel spans
    at most WAVELENGTHS_PER_PANEL = 3 wavelengths of phase, on an
    interval of any length.
    """
    a = float(a)
    b = float(b)
    (n,) = uniform_panel_counts(a, b, [rate], cfg)
    return np.linspace(a, b, n + 1)


def uniform_panel_counts(a, b, rates, cfg=None):
    """The panel count of ``uniform_breaks(a, b, rate, cfg)`` for each of rates, as an int array."""
    if not (a < b):
        raise ValueError("need a < b")
    rates = np.asarray(rates, dtype=np.float64)
    if not np.all((0.0 <= rates) & (rates < math.inf)):
        raise ValueError("rate must be finite and >= 0")
    cfg = cfg or QuadConfig()
    # no more panels than doubles in [a, b], so that the breaks stay distinct
    cap = min(cfg.max_panels, (b - a) / math.ulp(max(abs(a), abs(b))))
    n = np.minimum(np.ceil(_panel_spans(b - a, rates)), cap)
    return np.maximum(1, n.astype(np.int64))


def _panel_spans(length, rate):
    # the phase rate length over the interval, in panels of
    # WAVELENGTHS_PER_PANEL wavelengths (2 pi each)
    return rate * length / (2.0 * math.pi * WAVELENGTHS_PER_PANEL)


def seed_fits_budget(length, rate, cfg):
    """Whether the uniform count ceil(rate length / 6 pi) fits ``cfg.max_panels``.

    Elementwise for an array of rates; False for an infinite rate.  A rate
    that fails it cannot be seeded at WAVELENGTHS_PER_PANEL within the
    budget, so the seed builders fail it before building any breaks.
    """
    return _panel_spans(length, rate) <= cfg.max_panels


def _panel_sums(f, lefts, rights, owner):
    x, half = _panel_nodes(lefts, rights)
    v = np.asarray(f(x, owner), dtype=np.float64)
    sums, err = panel_sums_from_values(v, half)
    if not (np.all(np.isfinite(sums)) and np.all(np.isfinite(err))):
        raise NonFiniteIntegrandError(_locate_nonfinite(f, lefts, rights, owner, sums, err))
    return sums, err


def _locate_nonfinite(f, lefts, rights, owner, sums, err):
    bad = ~(np.isfinite(sums) & np.isfinite(err))
    i = int(np.argmax(bad))
    x, _ = _panel_nodes(lefts[i : i + 1], rights[i : i + 1])
    # f may overwrite its argument: evaluate a copy, read the abscissa from x
    v = np.asarray(f(x.copy(), owner[i : i + 1]), dtype=np.float64)
    return float(x.flat[np.argmax(~np.isfinite(v))])


class _Integral:
    """Adaptive state of one integral of a batch: its sorted panels and their sums."""

    __slots__ = ("index", "lefts", "rights", "sums", "err", "prev_err", "stagnant", "bad")

    def __init__(self, index, breaks):
        self.index = index
        self.lefts = breaks[:-1]
        self.rights = breaks[1:]
        self.prev_err = math.inf
        self.stagnant = 0

    def settle(self, cfg):
        """The QuadResult or QuadratureBudgetError that ends this integral, or
        None after marking the panels to bisect in ``self.bad``."""
        # np.sum's pairwise reduction, called without its dispatch layer
        total = float(np.add.reduce(self.sums))
        total_err = float(np.add.reduce(self.err))
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        n = len(self.lefts)
        if total_err <= tol:
            return QuadResult(total, total_err, n)

        # no useful progress: the estimate sits at the roundoff floor
        self.stagnant = self.stagnant + 1 if total_err > 0.98 * self.prev_err else 0
        if self.stagnant >= _STAGNANT_ROUNDS:
            return QuadratureBudgetError(
                f"error estimate stalled at {total_err:.3e} (tol {tol:.3e}); "
                "the requested tolerance sits below the attainable floor",
                total,
                total_err,
                n,
            )
        self.prev_err = total_err

        bad = (self.err > tol / (2.0 * n)) & ((self.rights - self.lefts) > _MIN_PANEL_WIDTH)
        if not bad.any():
            return QuadratureBudgetError(
                "offending panels reached minimal width without meeting the tolerance",
                total,
                total_err,
                n,
            )
        if n + int(bad.sum()) > cfg.max_panels:
            return QuadratureBudgetError(
                f"panel budget {cfg.max_panels} exhausted (err {total_err:.3e} > tol {tol:.3e})",
                total,
                total_err,
                n,
            )
        self.bad = bad
        return None

    def halves(self):
        """The two halves of each marked panel: (lefts, rights), left halves first."""
        bl, br = self.lefts[self.bad], self.rights[self.bad]
        mids = 0.5 * (bl + br)
        return np.concatenate([bl, mids]), np.concatenate([mids, br])

    def merge(self, new_l, new_r, nk, ne):
        """Replace the marked panels by their halves, keeping interval order."""
        keep = ~self.bad
        lefts = np.concatenate([self.lefts[keep], new_l])
        order = np.argsort(lefts, kind="stable")
        self.lefts = lefts[order]
        self.rights = np.concatenate([self.rights[keep], new_r])[order]
        self.sums = np.concatenate([self.sums[keep], nk])[order]
        self.err = np.concatenate([self.err[keep], ne])[order]


def _evaluate(f, owners, lefts, rights):
    """Panel sums of every integral's panels, in chunks of at most CHUNK_PANELS rows.

    ``owners`` holds the batch index of each integral, ``lefts`` and
    ``rights`` its panels; returns the (sums, err) pair of each integral.
    """
    counts = [len(l) for l in lefts]
    all_l = np.concatenate(lefts)
    all_r = np.concatenate(rights)
    owner = np.repeat(np.asarray(owners, dtype=np.intp), counts)
    sums = np.empty(all_l.size)
    err = np.empty(all_l.size)
    for s in range(0, all_l.size, CHUNK_PANELS):
        e = s + CHUNK_PANELS
        sums[s:e], err[s:e] = _panel_sums(f, all_l[s:e], all_r[s:e], owner[s:e])
    ends = np.cumsum(counts).tolist()
    return [(sums[e - c : e], err[e - c : e]) for c, e in zip(counts, ends)]


def integrate_batch(f: Callable, breaks_list, cfg: Optional[QuadConfig] = None) -> list:
    """Integrate a batch of integrals in one adaptive loop.

    Integral i runs over [breaks_list[i][0], breaks_list[i][-1]] on its own
    seed partition ``breaks_list[i]``, a strictly increasing array of panel
    boundaries, which the loop only refines.  Each integral keeps its own
    tolerance test, stagnation count and ``max_panels`` budget.

    ``f(x, owner)`` maps an (n, 31) array of Kronrod abscissae, one row per
    panel, and the (n,) array ``owner`` of the index i of each row's
    integral, to the integrand values at those abscissae, elementwise.  The
    array x is fresh in every call and owned by the engine: ``f`` may
    overwrite it and return it as the values.  Rows of all integrals share
    the calls, at most ``CHUNK_PANELS`` rows each.

    Returns one entry per integral: its QuadResult, or the
    QuadratureBudgetError (with the partial value) that ended it when its
    budget ran out or its estimate stalled at the roundoff floor; the other
    integrals go on.  A result does not depend on which integrals share the
    batch.  Raises ValueError for a malformed partition and
    NonFiniteIntegrandError with the offending abscissa when the integrand
    misbehaves.
    """
    cfg = cfg or QuadConfig()
    if f is None:
        raise ValueError("an integrand f is required")
    seeds = [np.asarray(b, dtype=np.float64) for b in breaks_list]
    ok = all(b.ndim == 1 and b.size >= 2 for b in seeds)
    if ok and seeds:
        # breaks increase when every panel of every seed has right > left,
        # and increasing breaks are all finite when their spans are
        rights = np.concatenate([b[1:] for b in seeds])
        ok = np.all(rights > np.concatenate([b[:-1] for b in seeds]))
        ok = ok and np.all(np.isfinite([b[-1] - b[0] for b in seeds]))
    if not ok:
        raise ValueError("breaks must be finite and strictly increasing with >= 2 entries")
    out = [None] * len(seeds)
    live = []
    for i, b in enumerate(seeds):
        if b.size - 1 > cfg.max_panels:
            out[i] = QuadratureBudgetError(
                "initial partition exceeds max_panels", 0.0, np.inf, b.size - 1
            )
        else:
            live.append(_Integral(i, b))
    if not live:
        return out
    seed_sums = _evaluate(
        f, [q.index for q in live], [q.lefts for q in live], [q.rights for q in live]
    )
    for q, (sums, err) in zip(live, seed_sums):
        q.sums, q.err = sums, err
    while live:
        refining = []
        for q in live:
            done = q.settle(cfg)
            if done is None:
                refining.append(q)
            else:
                out[q.index] = done
        if not refining:
            break
        halves = [q.halves() for q in refining]
        sums = _evaluate(
            f, [q.index for q in refining], [h[0] for h in halves], [h[1] for h in halves]
        )
        for q, (new_l, new_r), (nk, ne) in zip(refining, halves, sums):
            q.merge(new_l, new_r, nk, ne)
        live = refining
    return out


def integrate_oscillatory(f: Callable, breaks, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate f over [breaks[0], breaks[-1]] to the configured tolerance.

    ``f`` maps an (n, 31) array of Kronrod abscissae, one row per panel, to
    the integrand values at those abscissae, elementwise; it may overwrite
    the array and return it.  ``breaks`` is the seed partition, a strictly
    increasing array of panel boundaries (``uniform_breaks`` builds a
    uniform one); the engine only refines it.  This is the batch of one of
    ``integrate_batch``.

    Raises QuadratureBudgetError carrying the partial value when the
    panel budget is exhausted or the estimate stalls at the roundoff
    floor, and NonFiniteIntegrandError with the offending abscissa when
    the integrand misbehaves.
    """
    if f is None:
        raise ValueError("an integrand f is required")
    return _raised(integrate_batch(lambda x, owner: f(x), [breaks], cfg)[0])


def _raised(entry):
    """A batch entry, raised when it is the QuadratureBudgetError of a failed integral."""
    if isinstance(entry, QuadratureBudgetError):
        raise entry
    return entry


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


_FRESNEL_CFG = QuadConfig(abs_tol=1e-10, rel_tol=1e-10)


def fresnel_symmetric(m):
    """int_{-m}^{m} sin(x^2) dx; tends to sqrt(pi/2) with an O(1/m) tail.

    Twice the engine's integral over [0, m], seeded at the largest phase
    rate 2m.  The integrand is libm's sin, so that this check of the
    engine does not share the half-angle trig of the lp kernels.
    """
    m = float(m)
    if not (m >= 0.0 and math.isfinite(m)):
        raise ValueError("m must be finite and >= 0")
    if m == 0.0:
        return 0.0
    breaks = uniform_breaks(0.0, m, 2.0 * m, _FRESNEL_CFG)
    return 2.0 * integrate_oscillatory(lambda x: np.sin(x * x), breaks, _FRESNEL_CFG).value
