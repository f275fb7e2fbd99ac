import dataclasses
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from lpfourier import convex_probe, fourier, lpgeom
from lpfourier.convex_probe import (
    ConvexBody,
    body_curvature_min,
    body_from_spec,
    chi_hat_body,
    conjecture_scan,
    disk_body,
    ellipse_body,
    lp_ball_body,
    poly_body,
    superellipse_body,
)
from lpfourier.oscquad import (
    QuadConfig,
    QuadratureBudgetError,
    integrate_oscillatory,
    uniform_breaks,
)


def _disk_chi(r):
    return fourier.chi_hat_disk_oracle(r)


def test_disk_curvature():
    nu, _ = body_curvature_min(disk_body())
    assert nu == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("body", [disk_body(), ellipse_body(2.0, 2.0)], ids=lambda b: b.label)
def test_constant_curvature_witness_ignores_rounding(body):
    # the curvature is constant, so rounding alone picks the grid argmin;
    # the reported point and direction must not follow a few-ulp perturbation
    def perturbed(seed):
        rng = np.random.default_rng(seed)

        def upper_d2(x):
            v = body.upper_d2(x)
            return v * (1.0 + np.finfo(float).eps * rng.integers(-4, 5, size=np.shape(v)))

        return dataclasses.replace(body, upper_d2=upper_d2)

    results = []
    for b in (perturbed(1), perturbed(2)):
        nu, (x, y) = body_curvature_min(b)
        assert nu == pytest.approx(1.0 / body.half_width, rel=1e-12)
        results.append((x, y, convex_probe._witness_direction(b, x)))
    assert results[0] == results[1]
    assert results[0][2] == 0.5 * math.pi


def test_ellipse_curvature_min():
    nu, (x, y) = body_curvature_min(ellipse_body(2.0, 1.0))
    assert nu == pytest.approx(0.25, rel=1e-9)  # b / a^2 at (0, +-1)
    assert abs(x) <= 1e-4
    assert abs(abs(y) - 1.0) <= 1e-6


def test_lp_body_curvature_matches_lpgeom():
    nu, (x, _) = body_curvature_min(lp_ball_body(1.5))
    assert nu == pytest.approx(lpgeom.min_curvature(1.5), rel=1e-6)
    assert abs(abs(x) - 2.0 ** (-1.0 / 1.5)) <= 1e-4


def test_body_validation_errors():
    with pytest.raises(ValueError):
        ellipse_body(-1.0, 1.0)
    with pytest.raises(ValueError):
        superellipse_body(1.0, 1.0, 2.5)
    with pytest.raises(ValueError):
        superellipse_body(1.0, 1.0, 1.0)
    # (1 - x^2)^2 is convex near the endpoints: concavity check must fire
    with pytest.raises(ValueError):
        poly_body([1.0, 0.0, -2.0, 0.0, 1.0], 1.0)
    # does not vanish at the endpoints
    with pytest.raises(ValueError):
        poly_body([1.0, 0.0, -0.5], 1.0)
    # (1 - x^2)(1 + 0.3 x) is concave but not even
    odd = [1.0, 0.3, -1.0, -0.3]
    with pytest.raises(ValueError, match="even"):
        poly_body(odd, 1.0)
    poly = np.polynomial.Polynomial(odd)
    tilted = ConvexBody(1.0, poly, poly.deriv(), poly.deriv(2), label="tilted")
    with pytest.raises(ValueError, match="not even"):
        convex_probe.validate_body(tilted)


def test_poly_body_roundtrip():
    body = poly_body([1.0, 0.0, -1.0], 1.0)  # parabola 1 - x^2
    nu, (x, _) = body_curvature_min(body)
    # kappa = 2 / (1 + 4 x^2)^(3/2), minimal at the endpoints
    assert nu == pytest.approx(2.0 / (1.0 + 4.0) ** 1.5, rel=1e-3)
    assert abs(x) == pytest.approx(1.0, abs=1e-3)


def test_body_from_spec_kinds():
    disk = body_from_spec({"label": "unit-disk", "kind": "ellipse", "params": {"a": 1, "b": 1}})
    assert disk.label == "unit-disk"
    assert disk.superellipse == (1.0, 1.0, 2.0)
    lp = body_from_spec({"kind": "lp", "params": {"p": 1.5}})
    assert lp.superellipse == (1.0, 1.0, 1.5)
    se = body_from_spec(
        {"kind": "superellipse", "params": {"a": 2.0, "b": 1.0, "exponent": 1.5}}
    )
    assert se.half_width == 2.0
    poly = body_from_spec(
        {"kind": "custom-poly-coeffs", "params": {"coeffs": [1, 0, -1], "half_width": 1.0}}
    )
    assert poly.half_width == 1.0
    assert poly.superellipse is None
    with pytest.raises(ValueError):
        body_from_spec({"kind": "blob", "params": {}})


SPECS = (
    {"kind": "lp", "params": {"p": 1.5}},
    {"kind": "ellipse", "params": {"a": 2.0, "b": 1.0}},
    {"kind": "superellipse", "params": {"a": 1.5, "b": 1.0, "exponent": 1.4}},
    {
        "kind": "custom-poly-coeffs",
        "params": {"coeffs": [1.0, 0.0, -0.5, 0.0, -0.5], "half_width": 1.0},
    },
)


@pytest.mark.parametrize("spec", SPECS, ids=[s["kind"] for s in SPECS])
def test_body_pickle_roundtrip_bit_identical(spec):
    body = body_from_spec(spec)
    copy = pickle.loads(pickle.dumps(body))
    for omega in ((10.0, 0.0), (0.0, 10.0), (3.0, 4.0), (-7.0, 2.5)):
        a, b = chi_hat_body(body, omega), chi_hat_body(copy, omega)
        assert (a.value, a.err_estimate, a.method) == (b.value, b.err_estimate, b.method)


def test_disk_transform_matches_bessel_route():
    body = disk_body()
    for omega in ((0.0, 10.0), (10.0, 0.0), (3.0, 4.0), (0.0, 0.0)):
        r = math.hypot(*omega)
        got = chi_hat_body(body, omega).value
        assert got == pytest.approx(_disk_chi(r), abs=1e-8)


def test_slicing_choice_methods():
    for body in (ellipse_body(2.0, 1.0), poly_body([1.0, 0.0, -1.0], 1.0)):
        assert chi_hat_body(body, (10.0, 0.0)).method == "reduction-x"
        assert chi_hat_body(body, (0.0, 0.0)).method == "zero-frequency"


@pytest.mark.parametrize(
    "body",
    [ellipse_body(2.0, 1.0), disk_body(), superellipse_body(1.5, 1.0, 1.3), lp_ball_body(1.5)],
    ids=lambda body: body.label,
)
def test_superellipse_bodies_take_scaling_route_bitwise(body):
    # chi_hat(alpha, beta) = a b chi_hat_{B_q}(a alpha, b beta), bit for bit
    a, b, q = body.superellipse
    for alpha, beta in ((3.0, 4.0), (0.0, 10.0), (-7.0, 2.5), (250.0, -40.0), (0.0, 0.0)):
        got = chi_hat_body(body, (alpha, beta))
        ref = fourier.chi_hat_lp(q, (a * alpha, b * beta))
        assert got == fourier.TransformResult(a * b * ref.value, a * b * ref.err_estimate, ref.method)


def test_wide_poly_body_finishes_on_its_seed(monkeypatch):
    # the slicing seed on [0, w] is sized by the rate times the width w, so
    # a body with w = 4 gets the same density per wavelength as one with
    # w = 1 and needs no adaptive round
    seen = []
    batch = fourier.integrate_batch

    def recording(f, breaks, counts, cfg=None):
        results = batch(f, breaks, counts, cfg)
        seen.extend((n, res.panels_used) for n, res in zip(counts, results))
        return results

    monkeypatch.setattr(fourier, "integrate_batch", recording)
    body = poly_body([4.0, 0.0, -0.25], 4.0)
    for r in (50.0, 200.0, 800.0):
        seen.clear()
        chi_hat_body(body, fourier.Frequency.from_polar(r, 0.7))
        ((seed_panels, panels_used),) = seen
        assert panels_used == seed_panels, r


def _full_interval_slices(body, omega, cfg):
    # reference: the vertical slicing over the whole of [-w, w],
    # (1/2 pi) int_{-w}^{w} 2u sinc(beta u) cos(alpha x) dx, at every beta in
    # its sinc form, on the uniform seed of the bulk slope over 2w
    alpha, beta = omega
    w = body.half_width
    breaks = uniform_breaks(-w, w, abs(alpha) + abs(beta) * body._slope_scale, cfg)

    def f(x):
        u = body.upper(x)
        return 2.0 * u * np.sinc(beta * u / math.pi) * np.cos(alpha * x)

    res = integrate_oscillatory(f, breaks, cfg)
    return res.value / (2.0 * math.pi), res.err_estimate / (2.0 * math.pi)


_FOLD_BODIES = (
    poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0),
    poly_body([4.0, 0.0, -0.25], 4.0),
    superellipse_body(1.5, 1.0, 1.3),
)


@pytest.mark.parametrize("body", _FOLD_BODIES, ids=lambda body: body.label)
def test_folded_slices_match_full_interval_sinc_form(body):
    # the slices on [0, w] against the full-interval form, within both
    # estimates; a superellipse is sliced through chi_hat_body_parts, as
    # chi_hat_body_batch sends it through the l^q reduction
    cfg = QuadConfig()
    rng = np.random.default_rng(1414)
    omegas = [(0.0, 0.0), (3.0, 0.2), (0.0, 0.5), (0.0, 40.0), (-25.0, 0.0), (7.0, -0.6)]
    omegas += [tuple(v) for v in rng.uniform(-150.0, 150.0, (8, 2))]
    if body.superellipse is None:
        results = convex_probe.chi_hat_body_batch(body, omegas)
        got = [(res.value, res.err_estimate) for res in results]
    else:
        got = [convex_probe.chi_hat_body_parts(body, omega) for omega in omegas]
    for omega, (value, err) in zip(omegas, got):
        ref, ref_err = _full_interval_slices(body, omega, cfg)
        assert abs(value - ref) <= err + ref_err, omega


def test_overflowing_body_rate_is_budget_error():
    # alpha + beta * slope overflows: the seed fails naming |omega|, as the
    # lp seed does, instead of a ValueError about the rate
    body = poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0)
    with pytest.raises(QuadratureBudgetError, match=r"\|omega\| = 1\.000e\+308"):
        chi_hat_body(body, (0.0, 1e308))
    # a finite rate past the budget fails before any panel is evaluated
    out = convex_probe.chi_hat_body_batch(body, [(3.0, 4.0), (1e10, 0.0)])
    assert out[0] == chi_hat_body(body, (3.0, 4.0))
    assert isinstance(out[1], QuadratureBudgetError)
    assert "|omega| = 1.000e+10 exceeds max_panels" in str(out[1])


def test_ellipse_scaling_identity():
    # chi_hat of the (a,b)-ellipse is a*b*J1(rho)/rho at rho = |(a alpha, b beta)|
    a, b = 2.0, 1.0
    body = ellipse_body(a, b)
    rng = np.random.default_rng(2718)
    for _ in range(6):
        r = rng.uniform(1.0, 30.0)
        th = rng.uniform(0.0, math.pi / 2)
        alpha, beta = r * math.cos(th), r * math.sin(th)
        rho = math.hypot(a * alpha, b * beta)
        ref = a * b * _disk_chi(rho)
        assert chi_hat_body(body, (alpha, beta)).value == pytest.approx(ref, abs=1e-6)


def test_ellipse_zero_frequency_area():
    assert chi_hat_body(ellipse_body(2.0, 1.0), (0.0, 0.0)).value == pytest.approx(
        1.0, abs=1e-9
    )


def test_lp_body_matches_reduction():
    # the generic vertical slicing of B_p against the lp reduction
    body = lp_ball_body(1.5)
    for omega in ((3.0, 4.0), (0.0, 12.0), (9.0, 2.0)):
        got, err = convex_probe.chi_hat_body_parts(body, omega)
        ref = fourier.chi_hat_lp(1.5, omega)
        assert abs(got - ref.value) <= err + ref.err_estimate, omega


def test_conjecture_scan_disk_small():
    r_grid = np.geomspace(5.0, 60.0, 21)
    th_grid = np.linspace(0.0, math.pi / 2, 13)
    report = conjecture_scan(disk_body(), r_grid, th_grid)
    assert report.nu == pytest.approx(1.0, abs=1e-9)
    assert report.upper_ok
    assert report.c_est <= report.bound
    assert 0.0 < report.witness_max <= report.c_est
    assert "counterexample" not in report.notes


def test_conjecture_scan_notes_span_unsorted_grid():
    report = conjecture_scan(ellipse_body(2.0, 1.0), [40.0, 5.0, 20.0], [0.3, 1.0])
    assert "r in [5, 40]" in report.notes


def test_conjecture_verdict_counts_error_estimate(monkeypatch):
    r_grid = np.geomspace(5.0, 30.0, 6)
    th_grid = np.linspace(0.0, math.pi / 2, 4)
    body = disk_body()
    clean = conjecture_scan(body, r_grid, th_grid)
    assert clean.upper_ok
    exact_chi_hat_body_batch = convex_probe.chi_hat_body_batch

    def chi_hat_wide_at_last_radius(body, omegas, cfg=None):
        # the samples at the last radius carry an estimate that alone reaches the bound
        out = exact_chi_hat_body_batch(body, omegas, cfg)
        for i, omega in enumerate(omegas):
            if omega.r == r_grid[-1]:
                out[i] = dataclasses.replace(out[i], err_estimate=clean.bound / omega.r**1.5)
        return out

    monkeypatch.setattr(convex_probe, "chi_hat_body_batch", chi_hat_wide_at_last_radius)
    report = conjecture_scan(body, r_grid, th_grid)
    assert not report.upper_ok
    assert "counterexample" in report.notes
    assert (report.c_est, report.witness_max) == (clean.c_est, clean.witness_max)


def test_conjecture_scan_rejects_flat_bodies():
    flat = poly_body([1.0, 0.0, 0.0, 0.0, -1.0], 1.0)  # 1 - x^4: kappa(0) = 0
    with pytest.raises(ValueError):
        conjecture_scan(flat)


def test_conjecture_scan_worker_determinism():
    r_grid = np.geomspace(5.0, 30.0, 8)
    th_grid = np.linspace(0.0, math.pi / 2, 5)
    bodies = (disk_body(), superellipse_body(1.5, 1.0, 1.4), poly_body([1.0, 0.0, -1.0], 1.0))
    for body in bodies:
        rep1 = conjecture_scan(body, r_grid, th_grid, workers=1)
        rep2 = conjecture_scan(body, r_grid, th_grid, workers=2)
        assert rep1 == rep2


def test_conjecture_tasks_run_under_spawn():
    # scan tasks carry their body, so workers need no state inherited by fork
    body = poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0)
    cfg = QuadConfig()
    points = [(r, t) for r in (5.0, 11.0, 23.0) for t in (0.0, 0.7, math.pi / 2)]
    tasks = [(body, points[i : i + 3], cfg) for i in range(0, len(points), 3)]
    serial = [convex_probe._body_scaled_batch(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        pooled = list(pool.map(convex_probe._body_scaled_batch, tasks))
    assert pooled == serial


def test_slope_sample_once_per_orientation():
    # _slope_scale's 513-point slope sample is a per-body constant
    calls = 0
    body = poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0)

    def counted(x):
        nonlocal calls
        calls += np.size(x) == 513
        return body.upper_d1(x)

    counted_body = dataclasses.replace(body, upper_d1=counted)
    conjecture_scan(counted_body, np.geomspace(5.0, 40.0, 4), np.linspace(0.0, math.pi / 2, 5))
    assert calls == 1


@pytest.mark.parametrize(
    "body", [poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0), superellipse_body(1.5, 1.0, 1.3)],
    ids=lambda body: body.label,
)
def test_body_batch_entries_match_chi_hat_body_bitwise(body):
    omegas = [(3.0, 4.0), (0.0, 0.0), (-70.0, 20.0), (0.0, 150.0), (0.3, 0.0)]
    alone = [chi_hat_body(body, omega) for omega in omegas]
    assert convex_probe.chi_hat_body_batch(body, omegas) == alone
    assert convex_probe.chi_hat_body_batch(body, omegas[::-1]) == alone[::-1]


def test_batched_body_seeds_are_uniform_breaks(monkeypatch):
    # one batch seeds both slice forms; each seed is bitwise the uniform
    # partition at the rate |alpha| + |beta| * slope, and the rates that do
    # not fit the budget, an overflowing one included, fail on their own
    body = poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0)
    cfg = QuadConfig()
    omegas = [(3.0, 4.0), (0.0, 0.0), (-70.0, 20.0), (0.0, 1e308), (0.3, -0.1), (1e10, 0.0), (0.0, 150.0)]
    seeds = []
    batch = fourier.integrate_batch

    def spy(f, breaks, counts, cfg=None):
        # the engine takes the seeds laid end to end, counts[i] panels each
        ends = np.cumsum(np.asarray(counts) + 1)
        seeds.extend(breaks[e - n - 1 : e] for n, e in zip(counts, ends))
        return batch(f, breaks, counts, cfg)

    monkeypatch.setattr(fourier, "integrate_batch", spy)
    out = convex_probe.chi_hat_body_batch(body, omegas, cfg)
    assert [isinstance(res, QuadratureBudgetError) for res in out] == [False] * 3 + [True, False, True, False]
    # the engine sees the sinc form's seeds first, then the sine form's
    ok = [omega for omega, res in zip(omegas, out) if not isinstance(res, QuadratureBudgetError)]
    ok.sort(key=lambda omega: abs(omega[1]) >= 2.0 / math.pi)
    assert len(seeds) == len(ok)
    for (alpha, beta), got in zip(ok, seeds):
        want = uniform_breaks(0.0, body.half_width, abs(alpha) + abs(beta) * body._slope_scale, cfg)
        assert got.tobytes() == want.tobytes(), (alpha, beta)


def test_batches_reject_non_finite_frequencies():
    body = poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0)
    for bad in ((math.nan, 1.0), (3.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            fourier.chi_hat_lp_batch(1.5, [(3.0, 4.0), bad])
        for b in (body, ellipse_body(2.0, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                convex_probe.chi_hat_body_batch(b, [bad, (3.0, 4.0)])


def test_pooled_conjecture_scan_raises_the_serial_failure():
    # a failed sample's QuadratureBudgetError crosses the pool, and the scan
    # raises the first one in point order, as the serial scan does
    body = poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0)
    cfg = QuadConfig(max_panels=20)
    raised = []
    for workers in (1, 2):
        with pytest.raises(QuadratureBudgetError) as exc:
            conjecture_scan(body, [5.0, 400.0, 1000.0], [0.3, 1.0], cfg, workers=workers)
        raised.append((str(exc.value), exc.value.reason))
    assert raised[0] == raised[1]
    assert raised[0] == (
        "the seed partition for |omega| = 4.000e+02 exceeds max_panels = 20", "unseedable"
    )
