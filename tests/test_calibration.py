"""Every reported err_estimate bounds the actual error at the default config.

The reference and the seeded points live in tools/calibrate.py (run it to
print the records as JSON); see its docstring for how the reference is
built and self-checked.
"""

import functools
import math
import sys
from pathlib import Path

import pytest

mp = pytest.importorskip("mpmath")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import calibrate  # noqa: E402

POINTS = {point[0]: point for point in calibrate.calibration_points()}


@functools.lru_cache(maxsize=None)
def _records(label):
    return calibrate.calibrate_point(*POINTS[label])


@pytest.mark.parametrize("label", list(POINTS))
def test_estimate_bounds_actual_error(label):
    for rec in _records(label):
        assert rec["actual"] <= rec["estimate"], rec


def test_reference_matches_disk_closed_form():
    # at p = 2 the quadrature reference must reproduce J1(r)/r
    (label,) = [name for name in POINTS if name.startswith("chi_hat_lp-p2-")]
    (rec,) = _records(label)
    alpha, beta = rec["r"] * math.cos(rec["theta"]), rec["r"] * math.sin(rec["theta"])
    with mp.workdps(calibrate.DPS):
        rho = mp.hypot(alpha, beta)
        closed = mp.besselj(1, rho) / rho
    assert abs(rec["reference"] - float(closed)) <= calibrate.SELF_CHECK_TOL


def test_points_cover_paths_and_range():
    kinds = {point[1] for point in POINTS.values()}
    assert kinds == {"chi_hat_lp", "psi_split", "ellipse", "superellipse", "poly"}
    # chi_hat_body runs ellipse points through chi_hat_lp (scaling route) and
    # poly points through chi_hat_body_parts (vertical slicing)
    probe = calibrate.convex_probe
    assert probe.ellipse_body(*calibrate._ELLIPSE_AXES).superellipse is not None
    assert probe.poly_body(*calibrate._POLY_BODY).superellipse is None
    lp_ps = {point[2] for point in POINTS.values() if point[1] == "chi_hat_lp"}
    assert lp_ps == {1.05, 1.1, 1.3, 1.5, 1.9, 2.0}
    assert max(point[3] for point in POINTS.values()) > 2e4
    assert min(point[3] for point in POINTS.values()) < 15.0
    # "grid" points are samples of the default envelope scan near theta = pi/2
    grid = [point for label, point in POINTS.items() if label.endswith("-grid")]
    assert {(kind, p) for _, kind, p, _, _ in grid} == {
        (kind, p) for kind in ("chi_hat_lp", "psi_split") for p in (1.05, 1.1)
    }
    for _, _, p, r, theta in grid:
        assert r in calibrate.decay.default_r_grid() and r <= 100.0
        assert theta in calibrate.decay.default_theta_grid(p) and theta >= 0.5 * math.pi - calibrate._STEEP
    for point in calibrate._REGRESSION_POINTS:
        assert POINTS[point[0]] == point
