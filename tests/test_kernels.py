import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lpfourier import _kernels, fourier, lpgeom
from lpfourier.oscquad import WAVELENGTHS_PER_PANEL

# QUADPACK's qk31 outermost Kronrod node xgk(1)
QUADPACK_XGK1 = 0.998002298693397060285172840152271

EDGE_X = np.array([0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0])


def _random_panels(rng, n=64):
    breaks = np.sort(rng.uniform(0.0, 1.0, n + 1))
    breaks[0], breaks[-1] = 0.0, 1.0
    return breaks[:-1], breaks[1:]


def _phi_masked(x, p):
    # reference: the boolean-mask formula the in-place _phi_array replaces
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    lo = x <= 0.0
    hi = x >= 1.0
    mid = ~(lo | hi)
    out[lo] = 1.0
    out[hi] = 0.0
    out[mid] = (-np.expm1(p * np.log(x[mid]))) ** (1.0 / p)
    return out


def _masked_panel_sums(lefts, rights, integrand):
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    x = mid[:, None] + half[:, None] * _kernels.KRONROD_NODES[None, :]
    return _kernels.panel_sums_from_values(integrand(x), half)


def _integrand_panel_sums(lefts, rights, integrand, *args):
    x, half = _kernels._panel_nodes(lefts, rights)
    return _kernels.panel_sums_from_values(integrand(x, *args), half)


def _lp_cos_sin(x, p, alpha, beta):
    # the x-slice integrand of the l^p ball: the graph phi_p at the nodes
    return _kernels.cos_sin_values(x, _kernels._phi_array(x, p), alpha, beta)


def _lp_cos_sinc(x, p, alpha, beta):
    # the sinc form of the same slice integrand
    return _kernels.cos_sinc_values(x, _kernels._phi_array(x, p), alpha, beta)


def _same_bits(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_phi_array_edges():
    x = EDGE_X
    v = _kernels._phi_array(x, 1.5)
    assert v[0] == 1.0
    assert v[-1] == 0.0
    assert np.all(np.isfinite(v))
    assert np.all((0.0 <= v) & (v <= 1.0))


def test_phi_matches_masked_formula_bitwise():
    rng = np.random.default_rng(2718)
    x = np.concatenate([EDGE_X, rng.uniform(0.0, 1.0, 2000), 1.0 - 10.0 ** -rng.uniform(1, 16, 200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in [1.0, 2.0, *rng.uniform(1.0, 2.0, 8)]:
            want = _phi_masked(x, p)
            assert _same_bits(_kernels._phi_array(x, p), want), p
            assert _same_bits(lpgeom.phi(p, x), want), p
            for xi, wi in zip(EDGE_X, want):
                v = lpgeom.phi(p, float(xi))
                assert isinstance(v, float) and _same_bits(v, wi), (p, xi)


def _cos_half_angle(alpha, x):
    # reference: cos A = 2/(1 + t^2) - 1 with t = tan(A/2), the 1/2 in the rate
    t = np.tan(0.5 * alpha * x)
    return 2.0 / (1.0 + t * t) - 1.0


def _sin_half_angle(rate, s, factor=1.0):
    # reference: factor * sin A = factor * t/(1 + t^2) * 2 with t = tan(A/2),
    # the 1/2 in the rate, evaluated left to right
    t = np.tan(0.5 * rate * s)
    return factor * t / (1.0 + t * t) * 2.0


def _sinc_half_angle(beta, u):
    # reference: sinc(beta u) = (t/h)/(1 + t^2) with h = beta u / 2, t = tan(h); 1 at h = 0
    h = 0.5 * beta * u
    t = np.tan(h)
    ratio = np.ones_like(h)
    ratio[h != 0.0] = t[h != 0.0] / h[h != 0.0]
    return ratio / (1.0 + t * t)


def test_lp_kernels_match_masked_formulas_bitwise():
    # the kernels against the half-angle formulas written out of place, on
    # the masked phi_p
    rng = np.random.default_rng(1618)
    # panels at both ends: nodes of order 1e-300, and nodes that round onto 1
    edge_panels = (np.array([0.0, 1e-300, 0.5, 1.0 - 4e-16]), np.array([1e-300, 0.5, 1.0 - 4e-16, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(20):
            lefts, rights = edge_panels if trial == 0 else _random_panels(rng, 200)
            p = [1.0, 2.0][trial] if trial < 2 else rng.uniform(1.0, 2.0)
            alpha, beta = rng.uniform(0.0, 200.0, 2)
            got = _integrand_panel_sums(lefts, rights, _lp_cos_sin, p, alpha, beta)
            want = _masked_panel_sums(
                lefts, rights, lambda x: _sin_half_angle(beta, _phi_masked(x, p), _cos_half_angle(alpha, x))
            )
            assert all(_same_bits(g, w) for g, w in zip(got, want)), (p, alpha, beta)
            small = [0.0, 1e-310, 0.3][trial % 3] if trial < 3 else rng.uniform(0.0, 2.0 / math.pi)
            got = _integrand_panel_sums(lefts, rights, _lp_cos_sinc, p, alpha, small)
            want = _masked_panel_sums(lefts, rights, lambda x: (
                _cos_half_angle(alpha, x) * _phi_masked(x, p) * _sinc_half_angle(small, _phi_masked(x, p))
            ))
            assert all(_same_bits(g, w) for g, w in zip(got, want)), (p, alpha, small)
            r = rng.uniform(1.0, 1e4)
            ct, st = np.cos(rng.uniform(0.3, 1.5)), np.sin(rng.uniform(0.3, 1.5))
            for sign in (1.0, -1.0):
                got = _integrand_panel_sums(
                    lefts, rights, _kernels.lp_phase_sin_values, p, r, ct, st, sign
                )
                want = _masked_panel_sums(
                    lefts, rights, lambda x: _sin_half_angle(r, sign * ct * x + st * _phi_masked(x, p))
                )
                assert all(_same_bits(g, w) for g, w in zip(got, want)), (p, r, sign)


def test_trig_kernels_match_libm():
    # the half-angle kernels against np.cos * np.sin and np.sin to 4 eps
    # absolute on 1.24e6 nodes at phases up to 2e5; a quarter of the rows put
    # alpha x at odd multiples of pi, where tan(alpha x / 2) peaks near 1e16
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(314159)
    n = 40_000
    x = rng.uniform(0.0, 1.0, (n, 31))
    s = rng.uniform(0.0, 1.0, (n, 31))
    alpha = rng.uniform(0.0, 2e5, (n, 1))
    beta = rng.uniform(0.0, 2e5, (n, 1))
    odd = 2.0 * rng.integers(0, 30_000, (n // 4, 1)) + 1.0
    alpha[: n // 4] = odd * math.pi / x[: n // 4, :1]
    assert np.max(np.abs(np.tan(0.5 * alpha * x))) > 1e15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.cos_sin_values(x.copy(), s.copy(), alpha, beta)
        assert np.max(np.abs(got - np.cos(alpha * x) * np.sin(beta * s))) <= 4.0 * eps
        ct, st = math.cos(0.9), math.sin(0.9)
        phi = _kernels._phi_array(x, 1.5)
        for sign in (1.0, -1.0):
            got = _kernels.lp_phase_sin_values(x.copy(), 1.5, alpha, ct, st, sign)
            want = np.sin(alpha * (sign * ct * x + st * phi))
            assert np.max(np.abs(got - want)) <= 4.0 * eps, sign
        # the sinc form, zero and subnormal beta included
        small = rng.uniform(0.0, 2.0 / math.pi, (n, 1))
        small[:10], small[10:20] = 0.0, 1e-310
        z = small * s
        sinc = np.ones_like(z)
        sinc[z != 0.0] = np.sin(z[z != 0.0]) / z[z != 0.0]
        got = _kernels.cos_sinc_values(x.copy(), s.copy(), alpha, small)
        assert np.max(np.abs(got - s * sinc * np.cos(alpha * x))) <= 4.0 * eps


def test_gauss_weights_embedding():
    # both rules integrate constants exactly: weights sum to 2
    assert _kernels.KRONROD_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-14)
    assert _kernels.GAUSS_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.count_nonzero(_kernels.GAUSS_WEIGHTS) == 15
    # G15 sits on the odd indices 1..29, 0 (index 15) a shared node
    assert np.flatnonzero(_kernels.GAUSS_WEIGHTS).tolist() == list(range(1, 30, 2))
    x, w = np.polynomial.legendre.leggauss(15)
    assert np.allclose(_kernels.KRONROD_NODES[1::2], x, rtol=0.0, atol=2e-16)
    assert np.allclose(_kernels.GAUSS_WEIGHTS[1::2], w, rtol=0.0, atol=1e-15)


def test_kronrod_31_exact_to_degree_46():
    x = _kernels.KRONROD_NODES
    assert x.size == 31 and np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and x[15] == 0.0
    assert x[-1] == QUADPACK_XGK1
    for k in range(47):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert _kernels.KRONROD_WEIGHTS @ x**k == pytest.approx(exact, rel=0.0, abs=1e-15), k


def test_kronrod_table_is_the_rounded_derivation():
    mp = pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    import derive_constants

    with mp.workdps(60):
        nodes, wk, wg = derive_constants.kronrod_rule()
        assert derive_constants.kronrod_exactness_defect(nodes, wk, 46) < mp.mpf(10) ** -50
        assert abs(nodes[-1] - mp.mpf(derive_constants.QUADPACK_XGK1)) < mp.mpf(10) ** -32
    assert np.array_equal(_kernels.KRONROD_NODES, [float(v) for v in nodes])
    assert np.array_equal(_kernels.KRONROD_WEIGHTS, [float(v) for v in wk])
    assert np.array_equal(_kernels.GAUSS_WEIGHTS, [float(v) for v in wg])


def test_error_estimates_positive():
    rng = np.random.default_rng(2)
    lefts, rights = _random_panels(rng, 16)
    _, err = _integrand_panel_sums(lefts, rights, _lp_cos_sin, 1.5, 3.0, 4.0)
    assert np.all(err >= 0.0)


def _one_panel(f, lo, hi):
    # K31 value, reported error and resabs of f on the panel [lo, hi]
    x, half = _kernels._panel_nodes(np.array([lo]), np.array([hi]))
    v = f(x)
    (value,), (err,) = _kernels.panel_sums_from_values(v, half)
    resabs = float(half[0] * (np.abs(v[0]) @ _kernels.KRONROD_WEIGHTS))
    return value, err, resabs


def _sine_panel(wavelengths, c):
    # _one_panel on [-1, 1] of sin(omega x + c), omega = pi wavelengths, and
    # the closed form 2 sin(c) sin(omega) / omega
    omega = math.pi * wavelengths
    value, err, resabs = _one_panel(lambda x: np.sin(omega * x + c), -1.0, 1.0)
    return value, err, resabs, 2.0 * math.sin(c) * math.sin(omega) / omega


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_seed_density_keeps_the_estimate_at_its_floor(c):
    # the phase stays within 3.5 pi + 2 of 0, so its roundoff stays far below
    # the floor 50 eps resabs; tools/derive_constants.py prints the table
    value, err, resabs, exact = _sine_panel(WAVELENGTHS_PER_PANEL, c)
    assert err == pytest.approx(_kernels._EPS50 * resabs, rel=1e-12, abs=0.0)
    assert abs(value - exact) <= err
    # half a wavelength more and the G15/K31 discrepancy lifts it off the floor
    _, err, resabs, _ = _sine_panel(WAVELENGTHS_PER_PANEL + 0.5, c)
    assert err > 10.0 * _kernels._EPS50 * resabs


def test_grading_ratio_keeps_the_estimate_at_its_floor():
    # phi_p's end models on a panel of the lp seed's end grading, [a, 8 a]
    # toward x = 0 and [t/8, t] in t = 1 - x toward x = 1, scaled to [1/8, 1];
    # tools/derive_constants.py prints the table (grading_ratio_table)
    p = 1.5
    head = lambda x: x**p  # noqa: E731
    tail = lambda t: t ** (1.0 / p)  # noqa: E731
    for g, e in ((head, p), (tail, 1.0 / p)):
        value, err, resabs = _one_panel(g, 1.0 / fourier.GRADING_RATIO, 1.0)
        assert err == pytest.approx(_kernels._EPS50 * resabs, rel=1e-12, abs=0.0)
        exact = (1.0 - fourier.GRADING_RATIO ** -(e + 1.0)) / (e + 1.0)
        assert abs(value - exact) <= err
    # at twice the ratio the tail's estimate leaves the floor
    _, err, resabs = _one_panel(tail, 1.0 / (2 * fourier.GRADING_RATIO), 1.0)
    assert err > 10.0 * _kernels._EPS50 * resabs
