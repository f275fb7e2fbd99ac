import math

import numpy as np
import pytest

from lpfourier import lpgeom
from lpfourier.convex_probe import body_curvature_min, lp_ball_body
from lpfourier.lpgeom import PExponent

# frozen arbitrary-precision fixtures (30-digit evaluation, >= 12 significant digits)
PHI_15_05 = 0.74763296333919285
PHI_D1_AT_XSTAR_15 = -0.62996052494743658
X_STAR_15 = 0.3419951893353394
M_15 = 2.3025196866502416
THETA_STAR_15 = 1.0086378424376747
MIN_CURV_15 = 0.56123102415468649
MIN_ABS_PHI2_15 = 1.1512598433251208


def test_pexponent_validation():
    assert PExponent(1).p == 1.0
    assert lpgeom.as_p(PExponent(2.0)) == 2.0
    for bad in (0.5, 2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PExponent(bad)


def test_phi_closed_values():
    assert lpgeom.phi(2.0, 0.6) == pytest.approx(0.8, abs=1e-15)
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(lpgeom.phi(1.0, xs), 1.0 - xs, atol=1e-15)
    assert lpgeom.phi(1.5, 0.5) == pytest.approx(PHI_15_05, abs=1e-14)
    assert lpgeom.phi(1.7, 0.0) == 1.0
    assert lpgeom.phi(1.7, 1.0) == 0.0


def test_phi_domain():
    # NaN fails the checks too, as a ValueError rather than a nan value or
    # an OverflowError
    for x in (-0.01, 1.01, math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError):
            lpgeom.phi(1.5, x)
    for f in (lpgeom.phi_d1, lpgeom.phi_d2):
        for x in (0.0, 1.0, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError):
                f(1.5, x)


def test_phi_d1_circle_slope():
    xs = np.linspace(0.05, 0.95, 19)
    assert np.allclose(lpgeom.phi_d1(2.0, xs), -xs / np.sqrt(1 - xs**2), rtol=1e-14)


def test_phi_d1_at_xstar():
    assert lpgeom.phi_d1(1.5, lpgeom.x_star(1.5)) == pytest.approx(
        PHI_D1_AT_XSTAR_15, abs=1e-14
    )


def test_phi_d2_negative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rng.uniform(1.0 + 1e-6, 2.0)
        x = rng.uniform(1e-3, 1 - 1e-3)
        assert lpgeom.phi_d2(p, x) < 0.0


def test_derivatives_match_finite_differences():
    # each closed form against central differences of the one below it
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(200):
        p = rng.uniform(1.05, 2.0)
        x = rng.uniform(0.05, 0.95)
        d1_fd = (lpgeom.phi(p, x + h) - lpgeom.phi(p, x - h)) / (2 * h)
        d2_fd = (lpgeom.phi_d1(p, x + h) - lpgeom.phi_d1(p, x - h)) / (2 * h)
        assert d1_fd == pytest.approx(lpgeom.phi_d1(p, x), rel=1e-6)
        assert d2_fd == pytest.approx(lpgeom.phi_d2(p, x), rel=1e-6)


def test_phi_d2_overflow_reported():
    # x^(p-2) overflows for a subnormal x
    with pytest.raises(OverflowError):
        lpgeom.phi_d2(1.01, 1e-320)


def test_x_star():
    assert lpgeom.x_star(1.0) == pytest.approx(0.5, abs=1e-15)
    assert lpgeom.x_star(2.0) == 0.0
    assert lpgeom.x_star(1.5) == pytest.approx(X_STAR_15, abs=1e-15)


def test_m_of_p():
    assert lpgeom.m_of_p(1.0) == 4.0
    assert lpgeom.m_of_p(2.0) == 1.0
    assert lpgeom.m_of_p(1.5) == pytest.approx(M_15, abs=1e-13)
    # guarded evaluation just below the p = 2 branch
    assert lpgeom.m_of_p(2.0 - 1e-9) == pytest.approx(1.0, abs=1e-7)


def test_m_of_p_decreasing():
    grid = np.linspace(1.0, 2.0, 100)
    vals = np.array([lpgeom.m_of_p(p) for p in grid])
    assert np.all(np.diff(vals) < 0)
    assert 1.0 <= vals.min() and vals.max() <= 4.0


def test_theta_star():
    assert lpgeom.theta_star(2.0) == math.pi / 2
    assert lpgeom.theta_star(1.5) == pytest.approx(THETA_STAR_15, abs=1e-14)
    with pytest.raises(ValueError):
        lpgeom.theta_star(1.0)
    # trend toward pi/4 as p -> 1+
    grid = np.linspace(1.01, 1.99, 25)
    ts = np.array([lpgeom.theta_star(p) for p in grid])
    assert np.all(np.diff(ts) > 0)
    assert np.all((math.pi / 4 < ts) & (ts < math.pi / 2))


def test_slope_ratio_at_flat_point():
    # -1/phi'(x*) >= 1 on (1, 2), within 1e-3 of 1 at p = 1.001
    for p in np.linspace(1.001, 1.999, 40):
        ratio = -1.0 / lpgeom.phi_d1(p, lpgeom.x_star(p))
        assert ratio >= 1.0 - 1e-12
    ratio = -1.0 / lpgeom.phi_d1(1.001, lpgeom.x_star(1.001))
    assert abs(ratio - 1.0) <= 1e-3


def test_min_abs_phi2_identity():
    for p in (1.1, 1.5, 1.9):
        xs = lpgeom.x_star(p)
        target = (p - 1.0) * lpgeom.m_of_p(p)
        assert abs(lpgeom.phi_d2(p, xs)) == pytest.approx(target, rel=1e-10)
        # x* is the minimiser of |phi''| over a sampled grid
        grid = np.linspace(1e-3, 1 - 1e-3, 2001)
        assert np.all(np.abs(lpgeom.phi_d2(p, grid)) >= target * (1 - 1e-10))


def test_curvature_circle():
    # the disk's curvature is 1 everywhere; the scanner reports the top point
    nu, (x, y) = body_curvature_min(lp_ball_body(2.0))
    assert nu == pytest.approx(lpgeom.min_curvature(2.0), rel=1e-12)
    assert (x, y) == (0.0, 1.0)


def test_curvature_against_circumradius_oracle():
    # independent route: circumcircle of three nearby boundary points
    # (arc-length |gamma''|), Richardson-extrapolated, at the scanner's argmin
    def circum(p, x, h):
        xs = np.array([x - h, x, x + h])
        ys = np.array([lpgeom.phi(p, float(t)) for t in xs])
        a = math.hypot(xs[1] - xs[2], ys[1] - ys[2])
        b = math.hypot(xs[0] - xs[2], ys[0] - ys[2])
        c = math.hypot(xs[0] - xs[1], ys[0] - ys[1])
        s = 0.5 * (a + b + c)
        area = math.sqrt(max(0.0, s * (s - a) * (s - b) * (s - c)))
        return 4.0 * area / (a * b * c)

    h = 1e-3
    nu, (x, _) = body_curvature_min(lp_ball_body(1.5))
    oracle = (4.0 * circum(1.5, abs(x), h / 2) - circum(1.5, abs(x), h)) / 3.0
    assert nu == pytest.approx(oracle, abs=1e-8)


def test_min_curvature():
    assert lpgeom.min_curvature(2.0) == 1.0
    assert lpgeom.min_curvature(1.0) == 0.0
    assert lpgeom.min_curvature(1.5) == pytest.approx(MIN_CURV_15, abs=1e-14)


def test_curvature_grid_minimum_and_argmin():
    # the closed-form minimum and its place on the diagonal, against the scanner
    for p in (1.2, 1.5, 1.9):
        nu, (x, _) = body_curvature_min(lp_ball_body(p))
        assert nu == pytest.approx(lpgeom.min_curvature(p), rel=1e-6)
        assert abs(abs(x) - 2.0 ** (-1.0 / p)) <= 1e-4


def test_geom_profile():
    prof = lpgeom.geom_profile(1.5)
    assert prof.min_abs_phi2 == pytest.approx(MIN_ABS_PHI2_15, abs=1e-13)
    assert prof.theta_star == pytest.approx(THETA_STAR_15, abs=1e-14)
    # internal consistency: theta* = arctan(-1/phi'(x*))
    assert prof.theta_star == pytest.approx(
        math.atan(-1.0 / lpgeom.phi_d1(1.5, prof.x_star)), abs=1e-14
    )
    # the polar phase cos(t) x + sin(t) phi(x) is stationary at x* in direction theta*
    ct, st = math.cos(prof.theta_star), math.sin(prof.theta_star)
    assert abs(ct + st * lpgeom.phi_d1(1.5, prof.x_star)) <= 1e-10
    prof2 = lpgeom.geom_profile(2.0)
    assert prof2.x_star == 0.0
    assert prof2.theta_star == math.pi / 2
    with pytest.raises(ValueError):
        lpgeom.geom_profile(1.0)
