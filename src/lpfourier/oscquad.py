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
panel budget, and its own result or failure.  The panels of all
integrals live in flat arrays, and each round settles, bisects and
merges them as whole-batch array steps; it evaluates and reduces the new
panels together, in chunks of at most ``CHUNK_PANELS`` rows, whose
Kronrod abscissae all go into the one node array of the call.
``integrate_oscillatory`` is the batch of one.

Everything is deterministic: panels are kept sorted and summed in
interval order, and every panel's (value, error) depends on that panel
alone, so repeated runs give bit-identical results, and an integral's
result does not depend on which integrals share its batch or chunk.

Also provides evaluators for the two van der Corput bounds and, by one
engine call, the symmetric Fresnel sine integral.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._kernels import KRONROD_NODES, _panel_nodes, panel_sums_from_values

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
    """An integral's value and estimate, with what it cost.

    ``rounds`` counts the evaluation rounds (the seed's is the first),
    ``panels_evaluated`` the panels evaluated over all of them and
    ``seed_panels`` those of the seed.  The counters depend on the
    integrand, the seed and the tolerance only, not on the batch or the
    chunking; they stay out of the repr.  Zero panels (and all counters
    zero) marks a result of ``fourier.psi_split_integrals`` computed on
    steepest-descent contours, not by this engine.
    """

    value: float
    err_estimate: float
    panels_used: int
    rounds: int = field(repr=False)
    panels_evaluated: int = field(repr=False)
    seed_panels: int = field(repr=False)


class QuadratureBudgetError(RuntimeError):
    """Tolerance not met within the panel budget (or at the roundoff floor).

    ``reason`` types the failure: 'seed-budget' when the seed partition
    alone exceeds max_panels, 'stalled' when the estimate stopped falling
    (the tolerance sits below the roundoff floor), 'min-width' when the
    offending panels reached the minimal width, 'budget' when bisecting
    them would exceed max_panels, and 'unseedable' when a seed builder
    cannot fit the phase rate within max_panels.  The counters are
    QuadResult's, 0 where nothing was evaluated.
    """

    def __init__(
        self, message, partial_value, err_estimate, panels_used, reason,
        rounds=0, panels_evaluated=0, seed_panels=0,
    ):
        super().__init__(message)
        self.partial_value = partial_value
        self.err_estimate = err_estimate
        self.panels_used = panels_used
        self.reason = reason
        self.rounds = rounds
        self.panels_evaluated = panels_evaluated
        self.seed_panels = seed_panels

    def __reduce__(self):
        # rebuilt from all its fields, so that it crosses a process pool
        return type(self), (
            self.args[0], self.partial_value, self.err_estimate, self.panels_used, self.reason,
            self.rounds, self.panels_evaluated, self.seed_panels,
        )


class NonFiniteIntegrandError(RuntimeError):
    """Integrand returned a non-finite value."""

    def __init__(self, abscissa):
        super().__init__(f"integrand is not finite near x = {abscissa!r}")
        self.abscissa = abscissa

    def __reduce__(self):
        return type(self), (self.abscissa,)


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


def _panel_sums(f, lefts, rights, owner, nodes):
    n = lefts.size
    x, half = _panel_nodes(lefts, rights, nodes[:n])
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


def _evaluate(f, owner, panels, nodes):
    """Fill rows 2 and 3 of panels with the sums and errors of the panels in rows 0 and 1.

    The panels go through f in chunks of the row count of ``nodes``, the
    engine call's node array, into which every chunk writes its Kronrod
    abscissae.
    """
    rows = nodes.shape[0]
    for s in range(0, owner.size, rows):
        e = s + rows
        panels[2:, s:e] = _panel_sums(f, panels[0, s:e], panels[1, s:e], owner[s:e], nodes)


def _totals(values, counts):
    """Per integral, np.add.reduce of each row of values over its panels, as a (2, m) array.

    ``values`` holds the panels' sums and errors in its two C-ordered rows,
    grouped by integral, counts[i] > 0 panels for integral i.  Each total is
    numpy's pairwise sum over the integral's panels in interval order: a
    row of a (2, count) slice reduces on its own, bitwise the 1-D reduce.
    (np.add.reduceat does not sum pairwise, and neither does a row whose
    elements are not adjacent in memory.)
    """
    out = np.empty((2, counts.size))
    end = 0
    for j, c in enumerate(counts.tolist()):
        start, end = end, end + c
        out[:, j] = np.add.reduce(values[:, start:end], axis=1)
    return out


def _flat_panels(breaks, counts):
    """(panels, owner) of the integrals whose seeds lie end to end in breaks.

    Rows 0 and 1 of the (4, n) array panels hold the lefts and rights of
    every panel, rows 2 and 3 are left for the sums and errors; owner holds
    each panel's integral.  Raises ValueError unless breaks holds
    counts[i] >= 1 panels of integral i, finite and strictly increasing.
    """
    ends = np.cumsum(counts + 1)
    ok = breaks.ndim == 1 and counts.ndim == 1 and np.all(counts >= 1)
    if ok and breaks.size == (ends[-1] if counts.size else 0):
        last = np.zeros(breaks.size, dtype=bool)
        last[ends - 1] = True
        panels = np.empty((4, breaks.size - counts.size))
        # an integral's first break follows the previous one's last
        panels[0] = breaks[~last]
        panels[1] = breaks[~np.roll(last, 1)]
        # breaks increase when every panel has right > left, and increasing
        # breaks are all finite when their spans are
        spans = breaks[ends - 1] - breaks[ends - 1 - counts]
        if np.all(panels[1] > panels[0]) and np.all(np.isfinite(spans)):
            return panels, np.repeat(np.arange(counts.size), counts)
    raise ValueError("breaks must be finite and strictly increasing with >= 2 entries")


def integrate_batch(f: Callable, breaks, counts, cfg: Optional[QuadConfig] = None) -> list:
    """Integrate a batch of integrals in one adaptive loop.

    ``breaks`` holds the seed partitions of the integrals laid end to end:
    integral i runs on counts[i] >= 1 panels, its counts[i] + 1 strictly
    increasing boundaries following those of integral i - 1, which the
    loop only refines.  Each integral keeps its own tolerance test,
    stagnation count and ``max_panels`` budget.

    The state of all integrals is flat: one array of panel lefts, rights,
    sums and errors and one of owning integrals, grouped by integral in
    interval order.  Every round settles all integrals at once (totals,
    tolerance, stagnation, width and budget tests), bisects the marked
    panels of the rest and merges the halves back in by one sort on
    (integral, left).

    ``f(x, owner)`` maps an (n, 31) array of Kronrod abscissae, one row per
    panel, and the (n,) array ``owner`` of the index i of each row's
    integral, to the integrand values at those abscissae, elementwise.
    Rows of all integrals share the calls, at most ``CHUNK_PANELS`` rows
    each.  x is a view of the one (CHUNK_PANELS, 31) node array the call
    allocates, at ``CHUNK_PANELS`` as it stands at the call, and every
    chunk writes into it: ``f`` may overwrite x and return it as the
    values, but must not keep it past its return.  A nested call (an
    integrand that calls the engine) allocates a node array of its own.

    Returns one entry per integral: its QuadResult, or the
    QuadratureBudgetError (with the partial value and a typed ``reason``)
    that ended it; the other integrals go on.  A result does not depend on
    which integrals share the batch.  Raises ValueError for a malformed
    partition and NonFiniteIntegrandError with the offending abscissa when
    the integrand misbehaves.
    """
    cfg = cfg or QuadConfig()
    if f is None:
        raise ValueError("an integrand f is required")
    counts = np.asarray(counts, dtype=np.intp)
    panels, owner = _flat_panels(np.asarray(breaks, dtype=np.float64), counts)
    out = [None] * counts.size
    over = counts > cfg.max_panels
    for i in np.flatnonzero(over).tolist():
        out[i] = QuadratureBudgetError(
            "initial partition exceeds max_panels", 0.0, np.inf, int(counts[i]), "seed-budget"
        )
    if over.any():
        live = ~over[owner]
        panels, owner = np.compress(live, panels, axis=1), owner[live]
    if owner.size:
        nodes = np.empty((CHUNK_PANELS, KRONROD_NODES.size))
        _refine(f, panels, owner, counts, cfg, out, nodes)
    return out


def _refine(f, panels, owner, seeds, cfg, out, nodes):
    # integrate_batch's adaptive loop on the (4, n) panels of _flat_panels
    # and their owners, which seeds[i] panels seed; fills out[i] for every owner
    m = seeds.size
    prev_err = np.full(m, math.inf)
    stagnant = np.zeros(m, dtype=np.intp)
    rounds = np.zeros(m, dtype=np.intp)
    evaluated = np.zeros(m, dtype=np.intp)
    _evaluate(f, owner, panels, nodes)
    new_owner = owner
    while True:
        lefts, rights, _, err = panels
        n = np.bincount(owner, minlength=m)
        ids = np.flatnonzero(n)
        n = n[ids]
        rounds[ids] += 1
        evaluated += np.bincount(new_owner, minlength=m)
        total, total_err = _totals(panels[2:], n)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        done = total_err <= tol
        # no useful progress: the estimate sits at the roundoff floor
        stag = np.where(total_err > 0.98 * prev_err[ids], stagnant[ids] + 1, 0)
        stagnant[ids] = stag
        prev_err[ids] = total_err
        stalled = ~done & (stag >= _STAGNANT_ROUNDS)
        bad = err > np.repeat(tol / (2.0 * n), n)
        bad &= (rights - lefts) > _MIN_PANEL_WIDTH
        n_bad = np.bincount(owner[bad], minlength=m)[ids]
        narrow = ~(done | stalled) & (n_bad == 0)
        spent = ~(done | stalled | narrow) & (n + n_bad > cfg.max_panels)
        refine = ~(done | stalled | narrow | spent)
        # the entries of the integrals that ended, built from Python numbers
        ended = np.flatnonzero(~refine)
        who = ids[ended]
        columns = (
            who, total[ended], total_err[ended], n[ended], rounds[who], evaluated[who], seeds[who],
            tol[ended], done[ended], stalled[ended], narrow[ended],
        )
        for i, value, err_est, used, *counters, t, ok, stall, thin in zip(*(c.tolist() for c in columns)):
            if ok:
                out[i] = QuadResult(value, err_est, used, *counters)
                continue
            if stall:
                reason, message = "stalled", (
                    f"error estimate stalled at {err_est:.3e} (tol {t:.3e}); "
                    "the requested tolerance sits below the attainable floor"
                )
            elif thin:
                reason = "min-width"
                message = "offending panels reached minimal width without meeting the tolerance"
            else:
                reason = "budget"
                message = f"panel budget {cfg.max_panels} exhausted (err {err_est:.3e} > tol {t:.3e})"
            out[i] = QuadratureBudgetError(message, value, err_est, used, reason, *counters)
        if not refine.any():
            return
        live = np.repeat(refine, n)
        split = bad & live
        keep = ~bad & live
        # the halves of each marked panel, per integral left halves first
        bl, br, bo = lefts[split], rights[split], owner[split]
        mids = 0.5 * (bl + br)
        order = np.argsort(np.concatenate([bo, bo]), kind="stable")
        new_owner = np.concatenate([bo, bo])[order]
        new = np.empty((4, order.size))
        new[0] = np.concatenate([bl, mids])[order]
        new[1] = np.concatenate([mids, br])[order]
        _evaluate(f, new_owner, new, nodes)
        # back into interval order; the stable sort puts a tie in the order
        # kept panel, left half, right half.  compress and take keep the rows
        # C-ordered (panels[:, order] would not), as _totals needs
        owner = np.concatenate([owner[keep], new_owner])
        panels = np.concatenate([np.compress(keep, panels, axis=1), new], axis=1)
        order = np.lexsort((panels[0], owner))
        owner, panels = owner[order], np.take(panels, order, axis=1)


def integrate_oscillatory(f: Callable, breaks, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate f over [breaks[0], breaks[-1]] to the configured tolerance.

    ``f`` maps an (n, 31) array of Kronrod abscissae, one row per panel, to
    the integrand values at those abscissae, elementwise; it may overwrite
    the array and return it, but must not keep it.  ``breaks`` is the seed
    partition, a strictly increasing array of panel boundaries
    (``uniform_breaks`` builds a uniform one); the engine only refines it.
    This is the batch of one of ``integrate_batch``.

    Raises QuadratureBudgetError carrying the partial value when the
    panel budget is exhausted or the estimate stalls at the roundoff
    floor, and NonFiniteIntegrandError with the offending abscissa when
    the integrand misbehaves.
    """
    if f is None:
        raise ValueError("an integrand f is required")
    breaks = np.asarray(breaks, dtype=np.float64)
    counts = [breaks.size - 1] if breaks.ndim == 1 else []
    return _raised(integrate_batch(lambda x, owner: f(x), breaks, counts, cfg)[0])


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
