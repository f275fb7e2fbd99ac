import math
import warnings

import numpy as np
import pytest

from lpfourier import oscquad
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
    fs = [f for f, _ in cases]

    def f(x, owner):
        out = np.empty_like(x)
        for i in np.unique(owner):
            rows = owner == i
            out[rows] = fs[i](x[rows])
        return out

    return f, [b for _, b in cases]


def test_batch_entries_match_single_integrals_bitwise():
    cases = _batch_cases()
    alone = [integrate_oscillatory(f, b) for f, b in cases]
    f, breaks = _batched(cases)
    assert integrate_batch(f, breaks) == alone
    # the same integral at another position, and in batches of one
    f, breaks = _batched(cases[::-1])
    assert integrate_batch(f, breaks) == alone[::-1]
    for case, want in zip(cases, alone):
        f, breaks = _batched([case])
        assert integrate_batch(f, breaks) == [want]
    assert integrate_batch(f, []) == []


def test_batch_results_do_not_depend_on_chunking(monkeypatch):
    f, breaks = _batched(_batch_cases())
    want = integrate_batch(f, breaks)
    for chunk in (1, 7, 100):
        monkeypatch.setattr(oscquad, "CHUNK_PANELS", chunk)
        assert integrate_batch(f, breaks) == want, chunk


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
    f, breaks = _batched(cases)
    for g, a, fail in zip(integrate_batch(f, breaks, cfg), alone, failed):
        if not fail:
            assert g == a
            continue
        assert isinstance(g, QuadratureBudgetError)
        assert (str(g), g.partial_value, g.err_estimate, g.panels_used) == (
            str(a), a.partial_value, a.err_estimate, a.panels_used
        )
