import math
import pickle
import warnings

import numpy as np
import pytest

from lpfourier import _kernels, fourier, oscquad
from lpfourier.oscquad import (
    NonFiniteIntegrandError,
    QuadConfig,
    QuadratureBudgetError,
    fresnel_symmetric,
    integrate_batch,
    integrate_oscillatory,
    uniform_breaks,
    vdc_bound_first,
    vdc_bound_second,
)

SQRT_PI_OVER_2 = 1.2533141373155003
# frozen fresnel_symmetric(m) fixtures (arbitrary-precision)
FRESNEL_FIXTURES = {
    0.5: 0.082962048537094963,
    1.0: 0.6205366034467622,
    2.0: 1.6095529786875122,
    4.0: 1.4942676892962293,
    10.0: 1.1673417998592467,
    30.0: 1.2510874382004862,
    100.0: 1.2628358437338675,
}


def test_sin_closed_form():
    res = integrate_oscillatory(lambda x: np.sin(10.0 * x), uniform_breaks(0.0, 1.0, 10.0))
    assert res.value == pytest.approx(0.18390715290764525, abs=1e-12)
    assert res.err_estimate <= 1e-10
    assert res.panels_used >= 1


def test_zero_integrand():
    res = integrate_oscillatory(lambda x: np.zeros_like(x), uniform_breaks(0.0, 1.0, 0.0))
    assert res.value == 0.0
    assert res.err_estimate == 0.0


def test_l1_reduction_consistency():
    # int_0^1 cos(pi x) sin(2pi (1-x)) dx equals chi_hat * pi * beta / 2
    alpha, beta = math.pi, 2 * math.pi
    res = integrate_oscillatory(
        lambda x: np.cos(alpha * x) * np.sin(beta * (1.0 - x)),
        uniform_breaks(0.0, 1.0, alpha + beta),
    )
    chi = -4.0 / (3.0 * math.pi**3)
    assert res.value == pytest.approx(chi * math.pi * beta / 2.0, abs=1e-12)


def test_randomized_antiderivative_oracle():
    rng = np.random.default_rng(123)
    cfg = QuadConfig()
    for _ in range(100):
        a_c, b_c, c_c = rng.uniform(-2.0, 2.0, 3)
        w1, w2 = rng.uniform(1.0, 500.0, 2)
        phase = rng.uniform(0.0, 2 * math.pi)
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 4))

        def antideriv(x):
            return a_c * np.sin(w1 * x + phase) + b_c * np.cos(w2 * x) + poly(x) + c_c * x

        dpoly = poly.deriv()

        def integrand(x):
            return a_c * w1 * np.cos(w1 * x + phase) - b_c * w2 * np.sin(w2 * x) + dpoly(x) + c_c

        lo = rng.uniform(0.0, 0.4)
        hi = rng.uniform(0.6, 1.0)
        res = integrate_oscillatory(integrand, uniform_breaks(lo, hi, w1 + w2, cfg), cfg)
        exact = antideriv(hi) - antideriv(lo)
        assert abs(res.value - exact) <= max(cfg.abs_tol, cfg.rel_tol * abs(exact))
        assert res.err_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))


def test_determinism():
    f = lambda x: np.sin(137.0 * x * x)
    r1 = integrate_oscillatory(f, uniform_breaks(0.0, 1.0, 274.0))
    r2 = integrate_oscillatory(f, uniform_breaks(0.0, 1.0, 274.0))
    assert r1 == r2


def test_budget_error_carries_partials():
    cfg = QuadConfig(max_panels=4)
    with pytest.raises(QuadratureBudgetError) as exc:
        integrate_oscillatory(lambda x: np.sin(300.0 * x), uniform_breaks(0.0, 1.0, 300.0, cfg), cfg)
    assert math.isfinite(exc.value.partial_value)
    assert exc.value.err_estimate > 0
    assert exc.value.panels_used >= 1


def test_nonfinite_integrand_reports_abscissa():
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteIntegrandError) as exc:
            integrate_oscillatory(lambda x: np.sqrt(x - 0.5), uniform_breaks(0.0, 1.0, 4.0))
    assert exc.value.abscissa < 0.5


def test_nonfinite_abscissa_with_integrand_overwriting_its_argument():
    # the integrand may compute into the node array it is handed; the
    # reported abscissa must still be a node, not an overwritten value
    def f(x):
        x -= 0.5
        np.sqrt(x, out=x)
        return x

    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteIntegrandError) as exc:
            integrate_oscillatory(f, uniform_breaks(0.0, 1.0, 4.0))
    assert 0.0 <= exc.value.abscissa < 0.5


def test_invalid_interval_and_hint():
    with pytest.raises(ValueError):
        uniform_breaks(1.0, 0.0, 1.0)
    for rate in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            uniform_breaks(0.0, 1.0, rate)
    with pytest.raises(ValueError):
        integrate_oscillatory(None, uniform_breaks(0.0, 1.0, 1.0))
    # one panel per three wavelengths of phase: rate (b - a) / 6 pi panels
    assert np.array_equal(uniform_breaks(-1.0, 1.0, 12.0 * math.pi), np.linspace(-1.0, 1.0, 5))
    assert np.array_equal(uniform_breaks(-4.0, 4.0, 12.0 * math.pi), np.linspace(-4.0, 4.0, 17))
    assert uniform_breaks(0.0, 1.0, 1e300, QuadConfig(max_panels=8)).size == 9


def test_initial_breaks_validation():
    f = lambda x: np.ones_like(x)
    for bad in ([0.0, 0.7, 0.4, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, np.nan, 1.0], [0.0, np.inf],
                [1.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            integrate_oscillatory(f, bad)
    res = integrate_oscillatory(f, [0.0, 0.25, 1.0])
    assert res.value == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(QuadratureBudgetError):
        integrate_oscillatory(f, [0.0, 0.25, 0.5, 1.0], QuadConfig(max_panels=2))


def test_quadconfig_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            QuadConfig(abs_tol=bad)
        with pytest.raises(ValueError, match="finite"):
            QuadConfig(rel_tol=bad)
    with pytest.raises(ValueError):
        QuadConfig(max_panels=0)


def _stationary_phase_magnitude(r, lam):
    """Leading magnitude sqrt(pi)/sqrt(r*lambda) of int sin(r*psi).

    Valid when psi and psi' vanish at the stationary point and
    lambda = |psi''| there is also the minimum of |psi''|.
    """
    if not (r > 0.0 and lam > 0.0):
        raise ValueError("r and lambda must be positive")
    return math.sqrt(math.pi) / math.sqrt(r * lam)


def test_vdc_bound_values():
    assert vdc_bound_first(10.0, 1.0) == pytest.approx(0.2)
    assert vdc_bound_first(1.0, 2.0) == pytest.approx(1.0)
    assert vdc_bound_second(36.0, 1.0) == pytest.approx(1.0)
    assert vdc_bound_second(100.0, 4.0) == pytest.approx(0.3)
    for f in (vdc_bound_first, vdc_bound_second, _stationary_phase_magnitude):
        with pytest.raises(ValueError):
            f(-1.0, 1.0)
        with pytest.raises(ValueError):
            f(1.0, 0.0)


def test_first_bound_on_linear_phase():
    res = integrate_oscillatory(lambda x: np.sin(10.0 * x), uniform_breaks(0.0, 1.0, 10.0))
    assert abs(res.value) <= vdc_bound_first(10.0, 1.0)


def test_vdc_first_bound_randomized():
    # psi' = lam (1 + q^2) monotone with |psi'| >= lam, exact polynomial phases
    rng = np.random.default_rng(99)
    for _ in range(25):
        lam = 10.0 ** rng.uniform(-1.0, 0.7)
        q = np.polynomial.Polynomial(rng.uniform(-3.0, 3.0, 4))
        psi = ((q**2).integ() + np.polynomial.Polynomial([0.0, 1.0])) * lam
        r = 10.0 ** rng.uniform(0.0, 4.0)
        a, b = rng.uniform(0.0, 0.3), rng.uniform(0.7, 1.0)
        hint = r * float(np.max(np.abs(psi.deriv()(np.linspace(a, b, 257)))))
        res = integrate_oscillatory(lambda x: np.sin(r * psi(x)), uniform_breaks(a, b, hint))
        assert abs(res.value) <= vdc_bound_first(r, lam) + res.err_estimate + 1e-12


def test_vdc_second_bound_randomized():
    # psi'' = lam (1 + s^2) >= lam with a stationary point inside (0, 1)
    rng = np.random.default_rng(100)
    for _ in range(25):
        lam = 10.0 ** rng.uniform(-1.0, 0.7)
        s = np.polynomial.Polynomial(rng.uniform(-2.0, 2.0, 4))
        d1 = ((s**2 + 1.0) * lam).integ()
        d1 = d1 - d1(rng.uniform(0.2, 0.8))
        psi = d1.integ()
        r = 10.0 ** rng.uniform(0.0, 4.0)
        hint = r * float(np.max(np.abs(d1(np.linspace(0, 1, 257)))))
        res = integrate_oscillatory(lambda x: np.sin(r * psi(x)), uniform_breaks(0.0, 1.0, hint))
        assert abs(res.value) <= vdc_bound_second(r, lam) + res.err_estimate + 1e-12


def test_stationary_phase_magnitude_values():
    assert _stationary_phase_magnitude(math.pi, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert _stationary_phase_magnitude(100.0, 0.25) == pytest.approx(
        0.35449077018110317, abs=1e-14
    )


def test_stationary_phase_quadratic_agreement():
    # psi = (x - 1/2)^2, lambda = psi'' = 2
    for r, tol in ((1e4, 0.02), (1e5, 0.05)):
        res = integrate_oscillatory(lambda x: np.sin(r * (x - 0.5) ** 2), uniform_breaks(0.0, 1.0, r))
        assert abs(res.value) == pytest.approx(
            _stationary_phase_magnitude(r, 2.0), rel=tol
        )


def _ratio_envelope(psi, lam, r, n=5):
    # max deviation of |I| sqrt(r lam)/sqrt(pi) from 1 over a small r-window,
    # tracking the oscillation envelope rather than one phase sample
    devs = []
    for j in range(n):
        rj = r * (1.0 + 0.02 * j)
        res = integrate_oscillatory(lambda x: np.sin(rj * psi(x)), uniform_breaks(0.0, 1.0, rj * 2.0))
        devs.append(abs(abs(res.value) * math.sqrt(rj * lam) / math.sqrt(math.pi) - 1.0))
    return max(devs)


def test_stationary_phase_convergence_sweep():
    # phases with psi(x0) = psi'(x0) = 0 and |psi''| minimal at x0
    cases = [
        (lambda x: (x - 0.5) ** 2, 2.0),
        (lambda x: 0.8 * ((x - 0.4) ** 2 / 2.0 + 1.5 * (x - 0.4) ** 4), 0.8),
    ]
    for psi, lam in cases:
        envs = [_ratio_envelope(psi, lam, r) for r in (1e4, 10**4.5, 1e5)]
        assert envs[-1] <= 0.05
        assert envs[0] > envs[1] > envs[2]


def test_fresnel_fixtures():
    for m, ref in FRESNEL_FIXTURES.items():
        assert fresnel_symmetric(m) == pytest.approx(ref, abs=1e-12)


def test_fresnel_edges():
    assert fresnel_symmetric(0.0) == 0.0
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            fresnel_symmetric(bad)
    # an interval one ulp wide still gets a partition of distinct breaks
    m = float(np.nextafter(4.0, 5.0))
    assert uniform_breaks(4.0, m, 2.0 * m).tolist() == [4.0, m]


def test_fresnel_zero_width_panel_is_quiet():
    # the one panel on [0, 5e-324] has a half-width that underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fresnel_symmetric(5e-324) == 0.0


def test_fresnel_tail_bound():
    for m in np.linspace(10.0, 100.0, 19):
        assert abs(fresnel_symmetric(float(m)) - SQRT_PI_OVER_2) <= 2.0 / m


def _batch_cases():
    # (f(x), breaks) pairs: smooth, oscillatory, and one that needs refinement
    return [
        (lambda x: np.sin(10.0 * x), uniform_breaks(0.0, 1.0, 10.0)),
        (lambda x: np.sin(137.0 * x * x), uniform_breaks(0.0, 1.0, 274.0)),
        (lambda x: np.sqrt(np.abs(x - 0.3)), uniform_breaks(0.0, 1.0, 1.0)),
        (lambda x: np.cos(3000.0 * x), uniform_breaks(-1.0, 2.0, 3000.0)),
    ]


def _batched(cases):
    # the batch integrand and the seeds laid end to end with their panel counts
    fs = [f for f, _ in cases]

    def f(x, owner):
        out = np.empty_like(x)
        for i in np.unique(owner):
            rows = owner == i
            out[rows] = fs[i](x[rows])
        return out

    breaks = [b for _, b in cases]
    return f, (np.concatenate(breaks) if breaks else np.empty(0), [b.size - 1 for b in breaks])


def test_batch_entries_match_single_integrals_bitwise():
    cases = _batch_cases()
    alone = [integrate_oscillatory(f, b) for f, b in cases]
    f, seeds = _batched(cases)
    assert integrate_batch(f, *seeds) == alone
    # the same integral at another position, and in batches of one
    f, seeds = _batched(cases[::-1])
    assert integrate_batch(f, *seeds) == alone[::-1]
    for case, want in zip(cases, alone):
        f, seeds = _batched([case])
        assert integrate_batch(f, *seeds) == [want]
    assert integrate_batch(f, *_batched([])[1]) == []


def test_batch_results_do_not_depend_on_chunking(monkeypatch):
    f, seeds = _batched(_batch_cases())
    want = integrate_batch(f, *seeds)
    for chunk in (1, 7, 100):
        monkeypatch.setattr(oscquad, "CHUNK_PANELS", chunk)
        assert integrate_batch(f, *seeds) == want, chunk


def test_budget_failure_stays_with_its_integral():
    cfg = QuadConfig(max_panels=14)
    cases = _batch_cases()
    alone = []
    for f, b in cases:
        try:
            alone.append(integrate_oscillatory(f, b, cfg))
        except QuadratureBudgetError as exc:
            alone.append(exc)
    # sqrt|x - 0.3| (20 panels unbudgeted) exhausts the budget refining; the
    # 15-panel sin(137 x^2) and 478-panel cos(3000 x) seeds exceed it
    failed = [isinstance(r, QuadratureBudgetError) for r in alone]
    assert failed == [False, True, True, True]
    assert "panel budget 14 exhausted" in str(alone[2])
    assert [str(alone[i]) for i in (1, 3)] == ["initial partition exceeds max_panels"] * 2
    f, seeds = _batched(cases)
    for g, a, fail in zip(integrate_batch(f, *seeds, cfg), alone, failed):
        if not fail:
            assert g == a
            continue
        assert isinstance(g, QuadratureBudgetError)
        assert (str(g), g.partial_value, g.err_estimate, g.panels_used) == (
            str(a), a.partial_value, a.err_estimate, a.panels_used
        )


def _reference_sums(f, lefts, rights):
    x, half = _kernels._panel_nodes(lefts, rights)
    return _kernels.panel_sums_from_values(np.asarray(f(x), dtype=np.float64), half)


def _reference_loop(f, breaks, cfg):
    # the adaptive loop the flat engine replaced, one integral at a time, as
    # (value, err_estimate, panels_used, reason); reason None for a result
    lefts, rights = breaks[:-1], breaks[1:]
    if lefts.size > cfg.max_panels:
        return 0.0, math.inf, lefts.size, "seed-budget"
    sums, err = _reference_sums(f, lefts, rights)
    prev_err, stagnant = math.inf, 0
    while True:
        total, total_err = float(np.add.reduce(sums)), float(np.add.reduce(err))
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        n = lefts.size
        if total_err <= tol:
            return total, total_err, n, None
        stagnant = stagnant + 1 if total_err > 0.98 * prev_err else 0
        if stagnant >= 3:
            return total, total_err, n, "stalled"
        prev_err = total_err
        bad = (err > tol / (2.0 * n)) & ((rights - lefts) > 1e-14)
        if not bad.any():
            return total, total_err, n, "min-width"
        if n + int(bad.sum()) > cfg.max_panels:
            return total, total_err, n, "budget"
        bl, br = lefts[bad], rights[bad]
        mids = 0.5 * (bl + br)
        new_l, new_r = np.concatenate([bl, mids]), np.concatenate([mids, br])
        new_sums, new_err = _reference_sums(f, new_l, new_r)
        keep = ~bad
        merged = np.concatenate([lefts[keep], new_l])
        order = np.argsort(merged, kind="stable")
        lefts = merged[order]
        rights = np.concatenate([rights[keep], new_r])[order]
        sums = np.concatenate([sums[keep], new_sums])[order]
        err = np.concatenate([err[keep], new_err])[order]


def _entry(res):
    reason = getattr(res, "reason", None)
    value = res.partial_value if reason else res.value
    return value, res.err_estimate, res.panels_used, reason


def _reason_cases():
    # (f, breaks, cfg) that end with each engine failure reason
    floor = QuadConfig(abs_tol=1e-300, rel_tol=1e-300)
    tight = QuadConfig(max_panels=4)
    return {
        "seed-budget": (lambda x: np.ones_like(x), np.array([0.0, 0.25, 0.5, 1.0]), QuadConfig(max_panels=2)),
        "budget": (lambda x: np.sin(300.0 * x), uniform_breaks(0.0, 1.0, 300.0, tight), tight),
        # below the roundoff floor the estimate stops falling
        "stalled": (lambda x: np.sin(10.0 * x), uniform_breaks(0.0, 1.0, 10.0), floor),
        # a jump on a panel already narrower than the minimal width
        "min-width": (lambda x: np.where(x > 2.5e-15, 1.0, -1.0), np.array([0.0, 5e-15]), floor),
    }


def test_flat_engine_matches_the_per_integral_loop():
    # bitwise against the loop kept here as the reference, alone and in one
    # batch per config, refinement and every failure reason included
    configs = [QuadConfig(), QuadConfig(max_panels=14), QuadConfig(abs_tol=1e-13, rel_tol=1e-13)]
    for cfg in configs:
        cases = _batch_cases()
        f, seeds = _batched(cases)
        got = integrate_batch(f, *seeds, cfg)
        assert [_entry(g) for g in got] == [_reference_loop(g, b, cfg) for g, b in cases]
    for reason, (g, breaks, cfg) in _reason_cases().items():
        assert _reference_loop(g, breaks, cfg)[3] == reason
        (got,) = integrate_batch(lambda x, owner: g(x), breaks, [breaks.size - 1], cfg)
        assert _entry(got) == _reference_loop(g, breaks, cfg)


def test_each_failure_carries_its_reason():
    for reason, (f, breaks, cfg) in _reason_cases().items():
        with pytest.raises(QuadratureBudgetError) as exc:
            integrate_oscillatory(f, breaks, cfg)
        assert exc.value.reason == reason
    # the seed builders fail a rate they cannot seed before the engine runs
    (seed,), ok, _, _ = fourier._lp_seeds(1.5, [1e308], [1e308], QuadConfig())
    (lp,) = fourier.chi_hat_lp_batch(1.5, [(1e308, 1e308)])
    assert ok.size == 0
    assert seed.reason == lp.reason == "unseedable"


def _counters(entry):
    return entry.rounds, entry.panels_evaluated, entry.seed_panels


def test_counters_do_not_depend_on_batch_or_chunking(monkeypatch):
    cases = _batch_cases()
    for cfg in (QuadConfig(), QuadConfig(max_panels=14)):
        alone = []
        for g, b in cases:
            try:
                alone.append(integrate_oscillatory(g, b, cfg))
            except QuadratureBudgetError as exc:
                alone.append(exc)
        want = [_counters(a) for a in alone]
        f, seeds = _batched(cases)
        for chunk in (oscquad.CHUNK_PANELS, 1, 7, 100):
            monkeypatch.setattr(oscquad, "CHUNK_PANELS", chunk)
            assert [_counters(e) for e in integrate_batch(f, *seeds, cfg)] == want, (cfg, chunk)
        for a, (_, b) in zip(alone, cases):
            if isinstance(a, QuadratureBudgetError) and a.reason == "seed-budget":
                assert _counters(a) == (0, 0, 0)
                continue
            # every bisection evaluates two halves and adds one panel
            assert a.seed_panels == b.size - 1 and a.rounds >= 1
            assert a.panels_evaluated == 2 * a.panels_used - a.seed_panels
    # sqrt|x - 0.3| refines: more than one round
    assert integrate_oscillatory(*cases[2]).rounds > 1


def test_totals_are_the_one_dimensional_reduce():
    rng = np.random.default_rng(3)
    counts = np.array(list(range(1, 300)) + [1000, 5000, 7777, 8192, 8193, 20000])
    values = rng.standard_normal((2, counts.sum()))
    got = oscquad._totals(values, counts)
    for j, end in enumerate(np.cumsum(counts).tolist()):
        for row in (0, 1):
            assert got[row, j] == np.add.reduce(values[row, end - counts[j] : end]), (counts[j], row)


def test_engine_call_reuses_one_node_buffer(monkeypatch):
    # every chunk of every round of one call computes into the same buffer
    monkeypatch.setattr(oscquad, "CHUNK_PANELS", 7)
    pointers = []

    def f(x, owner):
        pointers.append(x.__array_interface__["data"][0])
        return np.sqrt(np.abs(x - 0.3))

    breaks = uniform_breaks(0.0, 1.0, 300.0)
    (res, _) = integrate_batch(f, np.concatenate([breaks, breaks]), [breaks.size - 1] * 2)
    assert res.rounds > 1 and len(pointers) > res.rounds
    assert len(set(pointers)) == 1


def test_integrand_may_call_the_engine():
    # a nested call borrows buffers of its own: the outer nodes survive it
    inner_breaks = uniform_breaks(0.0, 2.0, 40.0)

    def inner(y):
        return np.cos(20.0 * y)

    outside = integrate_oscillatory(inner, inner_breaks)
    nested = []

    def f(x):
        nested.append(integrate_oscillatory(inner, inner_breaks))
        return np.sin(5.0 * x) * nested[-1].value

    breaks = uniform_breaks(0.0, 1.0, 5.0)
    got = integrate_oscillatory(f, breaks)
    assert nested and all(r == outside for r in nested)
    assert got == integrate_oscillatory(lambda x: np.sin(5.0 * x) * outside.value, breaks)


def test_failures_survive_pickling():
    # a scan's failures cross the process pool
    exc = QuadratureBudgetError("panel budget 4 exhausted", 1.5, 2.0, 3, "budget", 4, 5, 6)
    back = pickle.loads(pickle.dumps(exc))
    fields = ("partial_value", "err_estimate", "panels_used", "reason", "rounds", "panels_evaluated", "seed_panels")
    assert str(back) == str(exc)
    assert [getattr(back, k) for k in fields] == [getattr(exc, k) for k in fields]
    back = pickle.loads(pickle.dumps(NonFiniteIntegrandError(0.25)))
    assert (str(back), back.abscissa) == (str(NonFiniteIntegrandError(0.25)), 0.25)
