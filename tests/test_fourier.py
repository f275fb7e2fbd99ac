import math
import warnings

import numpy as np
import pytest

from lpfourier import _kernels, fourier, lpgeom
from lpfourier.fourier import Frequency, as_frequency, reduce_symmetry
from lpfourier.oscquad import WAVELENGTHS_PER_PANEL, QuadConfig, QuadratureBudgetError

CHI_L1_PI_2PI = -0.043002045910932652  # -4/(3 pi^3)
AREA_15 = 2.7378536239189029  # 4 Gamma(1+1/p)^2 / Gamma(1+2/p) at p = 1.5
# the phase, V or r psi, that one seed panel spans at most
PANEL_PHASE = 2.0 * math.pi * WAVELENGTHS_PER_PANEL
J1_FIXTURES = {
    1.0: 0.44005058574493352,
    10.0: 0.043472746168861437,
    50.0: -0.097511828125175138,
    100.0: -0.077145352014112158,
}


# the V-point reference is bisection in float64.  Its x and the Newton x
# each carry the rounding of V: x V' >= V on the convex V with V(0) = 0,
# so a relative error in V moves x by no more, relative, below the
# diagonal, and by a few absolute ulps near x = 1; this bound has room
_V_POINT_RTOL = 1e-13
_V_POINT_ATOL = 64.0 * np.finfo(np.float64).eps


def _v_of(p, alpha, beta, x):
    # V(x) = alpha x + beta (1 - phi_p(x)), with 1 - phi_p by expm1 and log1p
    return alpha * x - beta * np.expm1(np.log1p(-(x**p)) / p)


def _lp_v_points_reference(p, alpha, beta, n):
    # the n - 1 points of one pair with V(x_k) = k V(1)/n, by bisection of
    # the increasing V on [0, 1] until the brackets stop moving
    targets = np.arange(1.0, n) * ((alpha + beta) / n)
    lo, hi = np.zeros(n - 1), np.ones(n - 1)
    while True:
        mid = 0.5 * (lo + hi)
        below = _v_of(p, alpha, beta, mid) < targets
        new_lo, new_hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            return 0.5 * (lo + hi)
        lo, hi = new_lo, new_hi


def _tail_loop(p, alpha, beta, start, cfg):
    # the scalar tail-grading loop from the last V-point (0 without one),
    # cutting 1 - a by GRADING_RATIO per step
    extra = []
    a = start
    tail_target = 0.1 * cfg.abs_tol
    while (1.0 - a) > 1e-13:
        tail_phase = beta * lpgeom.phi(p, a)
        if tail_phase + alpha * (1.0 - a) <= 0.5 * math.pi and tail_phase * (1.0 - a) <= tail_target:
            break
        a = 1.0 - (1.0 - a) / fourier.GRADING_RATIO
        extra.append(a)
    return np.array(extra)


def _head_breaks(h, k):
    # the head grading h R^-j, j = k..1, for R = GRADING_RATIO
    return h * float(fourier.GRADING_RATIO) ** -np.arange(k, 0.0, -1.0)


def _head_done(p, beta, h, k, abs_tol):
    # the head-grading stop rule at k cuts by GRADING_RATIO of the first
    # panel, for scalars or elementwise for arrays
    return beta * (h * fourier.GRADING_RATIO**-k) ** (p + 1.0) <= 0.1 * abs_tol


def _head_count_loop(p, beta, h, abs_tol):
    # scalar reference for the head counts: try k = 0, 1, 2, ... until the
    # rule holds
    k = 0
    while not _head_done(p, beta, h, k, abs_tol):
        k += 1
    return k


def _head_counts_reference(p, betas, h, abs_tol):
    # the same k loop in float64 array arithmetic, as the seed evaluates the
    # rule: each row's count is the first k at which it holds
    betas, h = np.asarray(betas, dtype=np.float64), np.asarray(h, dtype=np.float64)
    counts = np.full(betas.size, -1)
    k = 0
    while np.any(counts < 0):
        counts[(counts < 0) & _head_done(p, betas, h, k, abs_tol)] = k
        k += 1
    return counts


def check_lp_seed(p, alpha, beta, cfg, got):
    """Check one lp seed against per-pair references; returns (head, V-points, tail).

    The V-points match the bisection reference within the fixed tolerance
    (bitwise k/n when V is linear); head and tail are bitwise the k loop of
    the head rule and the candidate loop of the tail, started from the
    seed's own first and last V-points.
    """
    rate = alpha + beta
    n = max(1, math.ceil(rate / PANEL_PHASE))
    assert n <= cfg.max_panels, (p, alpha, beta, cfg)
    assert got.dtype == np.float64 and got[0] == 0.0 and got[-1] == 1.0
    assert np.all(np.diff(got) > 0.0)
    if n > 1:
        if p == 1.0 or beta == 0.0:
            want = np.arange(1.0, n) * (1.0 / n)
        else:
            want = _lp_v_points_reference(p, alpha, beta, n)
        # head points are h 8^-k <= h/8, so they sit below 3/4 of the first V-point
        k = int(np.sum((got > 0.0) & (got < 0.75 * want[0])))
        v_points = got[1 + k : k + n]
        if p == 1.0 or beta == 0.0:
            assert np.array_equal(v_points, want), (p, alpha, beta, cfg)
        else:
            np.testing.assert_allclose(v_points, want, rtol=_V_POINT_RTOL, atol=_V_POINT_ATOL)
        start = v_points[-1]
    else:
        v_points, start = got[1:1], 0.0
    tail = _tail_loop(p, alpha, beta, start, cfg)
    assert np.array_equal(got[len(got) - 1 - tail.size : -1], tail), (p, alpha, beta, cfg)
    h = v_points[0] if v_points.size else (tail[0] if tail.size else 1.0)
    head = got[1 : len(got) - 1 - tail.size - v_points.size]
    k = 0
    if 1.0 < p < 2.0 and beta > 0.0:
        k = _head_counts_reference(p, [beta], [h], cfg.abs_tol)[0]
    assert np.array_equal(head, _head_breaks(h, k)), (p, alpha, beta, cfg)
    return head, v_points, tail


def test_lp_initial_breaks_match_references():
    rng = np.random.default_rng(20221)
    cases = [(1.0, 0.0, 0.1), (2.0, 0.0, 0.1), (1.0, 3.0, 5.0), (1.5, 1e5, 1e5), (2.0, 0.0, 1e5),
             (1.5, 3.0, 0.0), (2.0, 40.0, 0.0), (1.5, 0.0, 4e4), (2.0, 4e3, 4e4), (1.3, 0.0, 0.0)]
    for _ in range(1000):
        p = float(rng.choice([1.0, 2.0, rng.uniform(1.0, 2.0)], p=[0.1, 0.1, 0.8]))
        rate = 10.0 ** rng.uniform(-1.0, 5.0)
        share = 0.0 if rng.random() < 0.15 else rng.uniform(0.0, 0.5)
        cases.append((p, share * rate, (1.0 - share) * rate))
    # abs_tol 1e-14 grades some tails, (2, 0, 1e5) among them, down to the
    # 1e-13 floor
    floor_hits = 0
    graded_heads = 0
    for cfg in (QuadConfig(), QuadConfig(abs_tol=1e-14)):
        for p, alpha, beta in cases:
            got = fourier.lp_initial_breaks(p, alpha, beta, cfg)
            head, _, _ = check_lp_seed(p, alpha, beta, cfg, got)
            floor_hits += bool(1.0 - got[-2] <= 1e-13)
            graded_heads += bool(head.size)
            if not (1.0 < p < 2.0 and beta > 0.0):
                # p = 1 (linear phi), p = 2 (smooth at 0) and beta = 0: no head points
                assert head.size == 0, (p, alpha, beta, cfg)
    assert floor_hits > 0
    assert graded_heads > 500


def test_lp_v_points_hold_the_panel_density_near_x_1():
    # uniform steps in x would put up to (rate / PANEL_PHASE) |phi_p'|
    # panel spans of phase into a panel near x = 1; the V-points hold every
    # seed panel to PANEL_PHASE of V, so the panels crowd toward x = 1
    seed = fourier.lp_initial_breaks(1.5, 0.0, 4e4, QuadConfig())
    n = math.ceil(4e4 / PANEL_PHASE)
    _, v_points, _ = check_lp_seed(1.5, 0.0, 4e4, QuadConfig(), seed)
    assert v_points.size == n - 1
    assert np.sum(v_points > 0.9) > 0.2 * n
    # V linear: uniform points, bitwise k/n, also at p = 2 with beta = 0
    for p, alpha, beta in ((1.0, 300.0, 500.0), (2.0, 800.0, 0.0)):
        n = math.ceil((alpha + beta) / PANEL_PHASE)
        seed = fourier.lp_initial_breaks(p, alpha, beta, QuadConfig())
        _, v_points, _ = check_lp_seed(p, alpha, beta, QuadConfig(), seed)
        assert np.array_equal(v_points, np.arange(1.0, n) * (1.0 / n))


def test_unseedable_pair_fails_before_its_v_points(monkeypatch):
    # a rate whose V-steps alone exceed max_panels fails with |omega| named,
    # and lp_v_points never sees its points; the other pairs stay bitwise
    cfg = QuadConfig()
    limit = PANEL_PHASE * cfg.max_panels
    pairs = [(3.0, 40.0), (0.0, 1e9), (1e4, 2e4), (0.5 * limit, 0.6 * limit)]
    want = {i: fourier.lp_initial_breaks(1.5, *pairs[i], cfg) for i in (0, 2)}
    seen = []
    v_points = fourier.lp_v_points

    def spy(p, alpha, beta, k, n):
        seen.append(alpha + beta)
        return v_points(p, alpha, beta, k, n)

    monkeypatch.setattr(fourier, "lp_v_points", spy)
    alphas, betas = zip(*pairs)
    failed, ok, breaks, panels = fourier._lp_seeds(1.5, alphas, betas, cfg)
    assert set(np.concatenate(seen).tolist()) == {43.0, 3e4}
    assert ok.tolist() == [0, 2]
    for i, row in zip(ok.tolist(), np.split(breaks, np.cumsum(panels + 1)[:-1])):
        assert failed[i] is None
        assert row.tobytes() == want[i].tobytes()
    for i in (1, 3):
        assert isinstance(failed[i], QuadratureBudgetError)
        assert f"|omega| = {math.hypot(*pairs[i]):.3e} exceeds max_panels" in str(failed[i])
        with pytest.raises(QuadratureBudgetError, match="omega"):
            fourier.lp_initial_breaks(1.5, *pairs[i], cfg)


def test_head_counts_match_the_k_loop():
    # 60 batches of 50 random rows and 50 rows with beta on the stop rule's
    # boundary at some k, where rounding decides; each batch has one p and
    # one abs_tol, as a seed batch has
    rng = np.random.default_rng(8)
    for _ in range(60):
        p = float(rng.uniform(1.0, 2.0))
        cfg = QuadConfig(abs_tol=float(10.0 ** rng.uniform(-16.0, -4.0)))
        h = 2.0 ** -rng.uniform(0.0, 20.0, 100)
        betas = 10.0 ** rng.uniform(-3.0, 8.0, 100)
        k = rng.integers(0, 40, 50)
        betas[50:] = 0.1 * cfg.abs_tol / (h[50:] * float(fourier.GRADING_RATIO) ** -k) ** (p + 1.0)
        got = fourier._head_counts(p, betas, h, cfg)
        for i in range(100):
            assert fourier._head_counts(p, betas[i : i + 1], h[i : i + 1], cfg)[0] == got[i]
        assert np.array_equal(got, _head_counts_reference(p, betas, h, cfg.abs_tol))
        # numpy's array power and libm's pow can differ by an ulp, which
        # moves a count by one on the boundary only
        for beta, h0, k0 in zip(betas[:50].tolist(), h[:50].tolist(), got[:50].tolist()):
            assert k0 == _head_count_loop(p, beta, h0, cfg.abs_tol), (p, beta, h0, cfg)
    for p, beta in ((1.0, 1e5), (2.0, 1e5), (1.5, 0.0)):
        assert fourier._head_counts(p, np.array([beta]), np.array([0.5]), QuadConfig())[0] == 0


def test_frequency_polar_consistency():
    om = Frequency.from_cartesian(-3.0, 2.0)
    assert om.r == pytest.approx(math.hypot(3, 2), rel=1e-15)
    assert om.r * math.cos(om.theta) == pytest.approx(om.alpha, rel=1e-12)
    assert om.r * math.sin(om.theta) == pytest.approx(om.beta, rel=1e-12)
    om2 = Frequency.from_polar(5.0, 1.0)
    assert math.hypot(om2.alpha, om2.beta) == pytest.approx(5.0, rel=1e-14)
    with pytest.raises(ValueError):
        Frequency.from_cartesian(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Frequency.from_polar(-1.0, 0.0)


def test_reduce_symmetry():
    for raw, expect in [((-3.0, 2.0), (2.0, 3.0)), ((0.0, -5.0), (0.0, 5.0)), ((1.0, 1.0), (1.0, 1.0))]:
        red = reduce_symmetry(raw)
        assert (red.alpha, red.beta) == expect
        assert 0.0 <= red.alpha <= red.beta
    red = reduce_symmetry((4.0, -3.0))
    assert (red.alpha, red.beta) == (3.0, 4.0)
    assert math.pi / 4 <= red.theta <= math.pi / 2
    assert as_frequency(red) is red


def test_zero_frequency_area():
    assert fourier.chi_hat_lp(2.0, (0.0, 0.0)).value == pytest.approx(0.5, abs=5e-10)
    assert fourier.chi_hat_lp(1.0, (0.0, 0.0)).value == pytest.approx(1 / math.pi, abs=5e-10)
    assert fourier.chi_hat_lp(2.0, (0.0, 0.0)).method == "zero-frequency"
    # the area is 2 pi chi_hat(0)
    for p, area in ((1.5, AREA_15), (2.0, math.pi), (1.0, 2.0)):
        assert 2.0 * math.pi * fourier.chi_hat_lp(p, (0.0, 0.0)).value == pytest.approx(area, abs=5e-10)


@pytest.mark.parametrize("p", [1.05, 1.1, 1.5, 1.9])
def test_ball_area_gamma_closed_form_within_estimate(p):
    exact = 4.0 * math.gamma(1.0 + 1.0 / p) ** 2 / math.gamma(1.0 + 2.0 / p)
    res = fourier.chi_hat_lp(p, (0.0, 0.0))
    assert abs(2.0 * math.pi * res.value - exact) <= 2.0 * math.pi * res.err_estimate


def test_chi_hat_l1_closed_fixture():
    assert fourier.chi_hat_l1_closed((math.pi, 2 * math.pi)) == pytest.approx(
        CHI_L1_PI_2PI, abs=1e-15
    )
    res = fourier.chi_hat_lp(1.0, (math.pi, 2 * math.pi))
    assert res.value == pytest.approx(CHI_L1_PI_2PI, abs=1e-12)
    assert res.method == "reduction-x"


def test_chi_hat_l1_diagonal_limit():
    # removable singularity at alpha = beta: limit sin(b)/(pi b)
    beta = 5.0
    assert fourier.chi_hat_l1_closed((beta, beta)) == pytest.approx(
        math.sin(beta) / (math.pi * beta), rel=1e-14
    )
    quad = fourier.chi_hat_lp(1.0, (beta, beta)).value
    assert quad == pytest.approx(math.sin(beta) / (math.pi * beta), abs=1e-11)
    # zero frequency degenerates to the area value
    assert fourier.chi_hat_l1_closed((0.0, 0.0)) == pytest.approx(1 / math.pi, rel=1e-15)


def _chi_hat_l1_bound(omega):
    # the coarse diamond bound (2/pi) / |omega|
    omega = as_frequency(omega)
    if omega.r == 0.0:
        raise ValueError("bound needs |omega| > 0")
    return 2.0 / (math.pi * omega.r)


def test_chi_hat_l1_bound():
    rng = np.random.default_rng(17)
    for _ in range(100):
        omega = tuple(rng.uniform(-60.0, 60.0, 2))
        if math.hypot(*omega) < 1e-6:
            continue
        assert abs(fourier.chi_hat_l1_closed(omega)) <= _chi_hat_l1_bound(omega)
    with pytest.raises(ValueError):
        _chi_hat_l1_bound((0.0, 0.0))


def test_chi_hat_l1_sharpness_pair():
    n, eps = 10, 1e-2
    alpha = 2 * math.pi * n + math.pi / 2
    beta = alpha + eps
    val = fourier.chi_hat_l1_closed((alpha, beta))
    assert abs(val) >= 1.0 / (math.pi * math.hypot(alpha, beta))


def test_chi_hat_rejects_bad_p():
    with pytest.raises(ValueError):
        fourier.chi_hat_lp(0.9, (1.0, 2.0))
    with pytest.raises(ValueError):
        fourier.chi_hat_lp(2.1, (1.0, 2.0))


def test_disk_bessel_oracle(monkeypatch):
    for r, ref in J1_FIXTURES.items():
        assert fourier.bessel_j1_oracle(r) == pytest.approx(ref, abs=1e-10)
    assert fourier.chi_hat_disk_oracle(10.0) == pytest.approx(
        0.0043472746168861437, abs=1e-12
    )
    # J1(r)/r -> 1/2 at r = 0, where the integrand is sin(t)^2; the K31 sum,
    # reduced row by row, lands on 1/2, inside the oracle's own estimate
    results = []
    integrate = fourier.integrate_oscillatory
    monkeypatch.setattr(
        fourier, "integrate_oscillatory", lambda *a: results.append(integrate(*a)) or results[-1]
    )
    assert fourier.chi_hat_disk_oracle(0.0) == 0.5
    (res,) = results
    assert abs(res.value / math.pi - 0.5) <= res.err_estimate / math.pi


def test_disk_reduction_matches_bessel():
    for r in (1.0, 10.0, 50.0, 100.0):
        got = fourier.chi_hat_lp(2.0, (0.0, r)).value
        assert got == pytest.approx(J1_FIXTURES[r] / r, abs=1e-10)
    # radial symmetry: an angled frequency of the same magnitude
    got = fourier.chi_hat_lp(2.0, (6.0, 8.0)).value
    assert got == pytest.approx(J1_FIXTURES[10.0] / 10.0, abs=1e-10)


def test_bruteforce_oracle():
    re, im = fourier.bruteforce_parts(2.0, (0.0, 0.0))
    assert re == pytest.approx(0.5, abs=1e-6)
    assert abs(im) <= 1e-8
    assert fourier.chi_hat_bruteforce(1.0, (math.pi, 2 * math.pi)) == pytest.approx(
        CHI_L1_PI_2PI, abs=1e-6
    )
    with pytest.raises(ValueError):
        fourier.chi_hat_bruteforce(1.5, (40.0, 40.0))


def test_reduction_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(8):
        p = rng.uniform(1.0, 2.0)
        r = rng.uniform(2.0, 30.0)
        th = rng.uniform(0.05, math.pi / 2 - 0.05)
        omega = (r * math.cos(th), r * math.sin(th))
        assert fourier.chi_hat_lp(p, omega).value == pytest.approx(
            fourier.chi_hat_bruteforce(p, omega), abs=1e-6
        )


def test_symmetry_against_unreduced_bruteforce():
    # sign flips and swaps leave the transform unchanged
    val = fourier.chi_hat_lp(1.5, (3.0, 4.0)).value
    for omega in ((-3.0, 4.0), (3.0, -4.0), (-4.0, -3.0), (4.0, 3.0)):
        re, im = fourier.bruteforce_parts(1.5, omega)
        assert re == pytest.approx(val, abs=1e-6)
        assert abs(im) <= 1e-8


def test_x_and_y_slicing_agree():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(1.0, 2.0)
        r = rng.uniform(2.0, 30.0)
        th = rng.uniform(0.05, math.pi / 2 - 0.05)
        omega = (r * math.cos(th), r * math.sin(th))
        v1 = fourier.chi_hat_lp(p, omega)
        v2 = fourier.chi_hat_lp_via_y(p, omega)
        assert v1.value == pytest.approx(v2.value, abs=1e-8)
        assert v2.method == "reduction-y"
    # alpha = 0 takes the y-slice's sinc form, like any alpha below 2/pi
    v1 = fourier.chi_hat_lp(1.5, (0.0, 3.0))
    v2 = fourier.chi_hat_lp_via_y(1.5, (0.0, 3.0))
    assert abs(v1.value - v2.value) <= v1.err_estimate + v2.err_estimate


def test_y_slicing_small_alpha_takes_sinc_form():
    # below alpha = 2/pi the y-slice is integrated in its sinc form: the sine
    # form's factor 2/(pi alpha) made the value -inf at a subnormal alpha
    for p in (1.5, 2.0):
        for alpha in (0.0, 1e-310, 1e-10, 1e-2, 0.6):
            x = fourier.chi_hat_lp(p, (alpha, 5.0))
            y = fourier.chi_hat_lp_via_y(p, (alpha, 5.0))
            assert abs(x.value - y.value) <= x.err_estimate + y.err_estimate, (p, alpha)
            assert y.err_estimate < 1e-13, (p, alpha)


def _chi_hat_polar(p, r, theta):
    # chi_hat via the split form (1/(pi r sin theta)) int [sin(r psi) + sin(r psi~)]
    st = math.sin(float(theta))
    res_psi, res_tilde = fourier.psi_split_integrals(p, r, theta)
    scale = 1.0 / (math.pi * r * st)
    return fourier.TransformResult(
        scale * (res_psi.value + res_tilde.value),
        scale * (res_psi.err_estimate + res_tilde.err_estimate),
        "reduction-x",
    )


def test_polar_split_consistency():
    # the polar split differs from the direct product form by a trig identity
    for (p, r, th) in ((1.5, 20.0, 1.0), (1.2, 7.0, math.pi / 2), (1.9, 100.0, 0.9)):
        direct = fourier.chi_hat_lp(p, Frequency.from_polar(r, th))
        split = _chi_hat_polar(p, r, th)
        assert split.value == pytest.approx(direct.value, abs=1e-9)
        res_psi, res_tilde = fourier.psi_split_integrals(p, r, th)
        recon = (res_psi.value + res_tilde.value) / (math.pi * r * math.sin(th))
        assert recon == pytest.approx(direct.value, abs=1e-9)


def test_psi_split_at_zero_and_negated_angles():
    # at theta = 0 the phases are psi = x and psi~ = -x, so the pair is
    # +-(1 - cos r)/r; negating theta maps psi to -psi~ and psi~ to -psi
    for r in (7.0, 5e4):
        res_psi, res_tilde = fourier.psi_split_integrals(1.5, r, 0.0)
        exact = (1.0 - math.cos(r)) / r
        assert abs(res_psi.value - exact) <= res_psi.err_estimate, r
        assert abs(res_tilde.value + exact) <= res_tilde.err_estimate, r
    for p, r, theta in ((1.5, 20.0, 1.0), (1.2, 7.0, math.pi / 2), (1.9, 3e3, 0.9), (1.3, 700.0, 2.5)):
        res_psi, res_tilde = fourier.psi_split_integrals(p, r, theta)
        neg_psi, neg_tilde = fourier.psi_split_integrals(p, r, -theta)
        for got, want in ((neg_psi, res_tilde), (neg_tilde, res_psi)):
            assert abs(got.value + want.value) <= got.err_estimate + want.err_estimate, (p, r, theta)


def test_psi_split_rejects_non_finite_input():
    # a NaN or infinite r or theta is bad input, not a budget failure
    bad = ((math.nan, 1.0), (math.inf, 1.0), (20.0, math.nan), (20.0, -math.inf), (0.0, 1.0))
    for r, theta in bad:
        with pytest.raises(ValueError, match="need finite r > 0 and theta"):
            fourier.psi_split_integrals(1.5, r, theta)


def test_psi_split_batch_matches_single_calls_bitwise():
    # the one batch over +- gives each integral the bits it gets alone, on the
    # seed of the reduction path, plus the phase floor
    for p, r, theta in ((1.5, 20.0, 1.0), (1.1, 3e3, 0.8), (2.0, 5e4, 1.3), (1.3, 700.0, 2.5)):
        ct, st = math.cos(theta), math.sin(theta)
        breaks = fourier.lp_initial_breaks(p, abs(r * ct), abs(r * st), QuadConfig())
        got = fourier.psi_split_integrals(p, r, theta)
        for sign, part in zip((1.0, -1.0), got):
            alone = fourier.integrate_oscillatory(
                lambda x: _kernels.lp_phase_sin_values(x, p, r, ct, st, sign), breaks
            )
            want_err = alone.err_estimate + fourier._phase_floor(r * (abs(ct) + abs(st)))
            assert (part.value.hex(), part.err_estimate.hex(), part.panels_used) == (
                alone.value.hex(), want_err.hex(), alone.panels_used
            ), (p, r, theta, sign)


def test_psi_tilde_correction_is_small():
    # along the witness direction, the psi~ integral is O(1/r)
    p = 1.5
    prof = lpgeom.geom_profile(p)
    for r in (100.0, 400.0, 1600.0):
        _, res_tilde = fourier.psi_split_integrals(p, r, prof.theta_star)
        assert abs(res_tilde.value) <= 4.0 / r + res_tilde.err_estimate


def test_transform_result_error_propagation():
    cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
    res = fourier.chi_hat_lp(1.5, (3.0, 4.0), cfg)
    assert res.err_estimate <= 2.0 / (math.pi * 4.0) * max(1e-8, 1e-8 * 1.0)
    assert res.err_estimate > 0.0


@pytest.mark.parametrize("p, r", [
    (1.1957414880075943, 26142.59353596105),
    (1.0706574114584273, 20001.25013247582),
])
def test_routes_agree_within_phase_floor_at_high_frequency(p, r):
    # two witness transforms of the high-frequency benchmark where the routes
    # differ by more than the engine's estimates, which miss the roundoff of
    # the phase: the floor c (1 + rate) eps covers it
    theta = lpgeom.theta_star(p)
    direct = fourier.chi_hat_lp(p, Frequency.from_polar(r, theta))
    res_psi, res_tilde = fourier.psi_split_integrals(p, r, theta)
    scale = 1.0 / (math.pi * r * math.sin(theta))
    split = scale * (res_psi.value + res_tilde.value)
    allowed = direct.err_estimate + scale * (res_psi.err_estimate + res_tilde.err_estimate)
    assert abs(direct.value - split) <= allowed


def test_high_frequency_integrals_finish_on_their_seed(monkeypatch):
    # at three wavelengths per panel every seed panel already meets its share
    # of the tolerance along theta*, far out: no adaptive round is needed
    p, r = 1.5, 1e5
    theta = lpgeom.theta_star(p)
    omega = Frequency.from_polar(r, theta)
    results = []
    batch = fourier.integrate_batch

    def spy(f, breaks, counts, cfg=None):
        out = batch(f, breaks, counts, cfg)
        results.extend(out)
        return out

    monkeypatch.setattr(fourier, "integrate_batch", spy)
    fourier.chi_hat_lp(p, omega)
    (res,) = results
    low, high = sorted((abs(omega.alpha), abs(omega.beta)))
    assert res.panels_used == fourier.lp_initial_breaks(p, low, high, QuadConfig()).size - 1
    seed = fourier.lp_initial_breaks(p, abs(omega.alpha), abs(omega.beta), QuadConfig())
    # psi_split_integrals takes the contours here; its real-axis route is the engine's
    ct, st = math.cos(theta), math.sin(theta)
    for part in fourier._psi_split_engine(p, r, ct, st, QuadConfig()):
        assert part.panels_used == seed.size - 1


def _bits(res):
    return res.value.hex(), res.err_estimate.hex(), res.method


def test_batch_entries_match_chi_hat_lp_bitwise():
    # sine and sinc forms, zero frequency and, at p = 2, two samples that take
    # an adaptive round, alone and at different positions among other samples
    omegas = [(3.0, 4.0), (0.0, 0.0), (0.3, 0.5), (-250.0, 1200.0), (0.0, 12.0), (1e-310, 5.0),
              (Frequency.from_polar(1700.0, 1.2).alpha, Frequency.from_polar(1700.0, 1.2).beta)]
    for p in (1.0, 1.1, 1.5, 2.0):
        alone = [_bits(fourier.chi_hat_lp(p, omega)) for omega in omegas]
        assert [_bits(r) for r in fourier.chi_hat_lp_batch(p, omegas)] == alone
        assert [_bits(r) for r in fourier.chi_hat_lp_batch(p, omegas[::-1])] == alone[::-1]
        for omega, want in zip(omegas, alone):
            (got,) = fourier.chi_hat_lp_batch(p, [omega])
            assert _bits(got) == want
            mixed = fourier.chi_hat_lp_batch(p, [(40.0, 41.0), omega, (7.0, 0.1)])
            assert _bits(mixed[1]) == want


def test_batch_failure_stays_with_its_sample():
    # an overflowing rate fails its own entry; the other entries are unchanged
    out = fourier.chi_hat_lp_batch(1.5, [(3.0, 4.0), (1e308, 1e308), (0.2, 0.4)])
    assert isinstance(out[1], fourier.QuadratureBudgetError)
    assert "|omega| = 1.414e+308" in str(out[1])
    assert _bits(out[0]) == _bits(fourier.chi_hat_lp(1.5, (3.0, 4.0)))
    assert _bits(out[2]) == _bits(fourier.chi_hat_lp(1.5, (0.2, 0.4)))
    failed, ok, breaks, panels = fourier._lp_seeds(1.5, [3.0, 1e308], [4.0, 1e308], QuadConfig())
    assert isinstance(failed[1], fourier.QuadratureBudgetError)
    assert ok.tolist() == [0] and panels.tolist() == [breaks.size - 1]
    assert np.array_equal(breaks, fourier.lp_initial_breaks(1.5, 3.0, 4.0, QuadConfig()))


def test_lp_seeds_do_not_depend_on_the_v_slice(monkeypatch):
    # the V-points are solved a slice at a time; each point is elementwise
    alphas = [0.0, 3.0, 1e4, 250.0, 7.0, 0.0]
    betas = [12.0, 4.0, 2e4, 1200.0, 0.1, 0.0]
    _, _, want, want_panels = fourier._lp_seeds(1.5, alphas, betas, QuadConfig())
    for size in (1, 3, 10**6):
        monkeypatch.setattr(fourier, "_V_SLICE", size)
        failed, ok, got, panels = fourier._lp_seeds(1.5, alphas, betas, QuadConfig())
        assert failed == [None] * 6 and ok.tolist() == list(range(6))
        assert got.tobytes() == want.tobytes() and panels.tolist() == want_panels.tolist(), size


def _contour_grid(rates=False):
    # the separation grid of README § Numerical notes: 4 p x 13 angles, at the
    # radii of the agreement test, or (rates=True) at the rate just below
    # the crossover
    for p in (1.02, 1.1, 1.5, 1.9):
        for theta in np.linspace(0.25 * math.pi, 0.5 * math.pi - 0.02, 13).tolist():
            ct, st = math.cos(theta), math.sin(theta)
            radii = (fourier.CONTOUR_RATE / (ct + st) * (1.0 - 1e-12),) if rates else (
                fourier.CONTOUR_RATE, 2e4, 1e5)
            for r in radii:
                yield p, float(r), theta, ct, st


def _takes_contours(p, r, theta, ct, st):
    return bool(fourier._contour_rows(p, *(np.array([v]) for v in (r, theta, ct, st)))[0])


def _quad_bits(res):
    return res.value.hex(), res.err_estimate.hex(), res.panels_used, res.rounds, res.panels_evaluated


def test_contour_route_agrees_with_the_engine_on_the_separation_grid():
    # every row on the contours agrees with the real-axis engine within the
    # two estimates; every other row is the engine's result, bit for bit
    contour = 0
    for p, r, theta, ct, st in _contour_grid():
        got = fourier.psi_split_integrals(p, r, theta)
        engine = fourier._psi_split_engine(p, r, ct, st, QuadConfig())
        if _takes_contours(p, r, theta, ct, st):
            contour += 1
            for part, ref in zip(got, engine):
                assert part.panels_used == part.rounds == part.panels_evaluated == 0
                assert abs(part.value - ref.value) <= part.err_estimate + ref.err_estimate, (p, r, theta)
        else:
            assert [_quad_bits(res) for res in got] == [_quad_bits(res) for res in engine], (p, r, theta)
    # the contour rows of README's separation table
    assert contour == 85


def test_rows_below_the_crossover_stay_on_the_engine_bitwise():
    for p, r, theta, ct, st in _contour_grid(rates=True):
        assert r * (ct + st) < fourier.CONTOUR_RATE
        got = fourier.psi_split_integrals(p, r, theta)
        engine = fourier._psi_split_engine(p, r, ct, st, QuadConfig())
        assert [_quad_bits(res) for res in got] == [_quad_bits(res) for res in engine], (p, r, theta)


def test_stationary_point_near_zero_stays_on_the_engine():
    # at theta = 1.551 the stationary point of psi sits within a path width
    # of the branch point x = 0 even at r = 1e5: the engine's bits, not contours
    p, r, theta = 1.5, 1e5, 1.551
    ct, st = math.cos(theta), math.sin(theta)
    assert not _takes_contours(p, r, theta, ct, st)
    got = fourier.psi_split_integrals(p, r, theta)
    engine = fourier._psi_split_engine(p, r, ct, st, QuadConfig())
    assert got[0].panels_used > 0
    assert [_quad_bits(res) for res in got] == [_quad_bits(res) for res in engine]


def test_contour_pairs_batch_matches_single_rows_bitwise():
    rows = [row for row in _contour_grid() if _takes_contours(*row)]
    p_rows = {}
    for p, r, theta, ct, st in rows:
        p_rows.setdefault(p, []).append((r, ct, st))
    for p, group in p_rows.items():
        r, ct, st = (np.array(v) for v in zip(*group))
        values, errs = fourier._contour_pairs(p, r, ct, st)
        for k in (0, len(group) // 2, len(group) - 1):
            one = fourier._contour_pairs(p, r[k : k + 1], ct[k : k + 1], st[k : k + 1])
            assert one[0][0].tobytes() == values[k].tobytes(), (p, k)
            assert one[1][0].tobytes() == errs[k].tobytes(), (p, k)
        flipped = fourier._contour_pairs(p, r[::-1], ct[::-1], st[::-1])
        assert flipped[0][::-1].tobytes() == values.tobytes()


def test_contour_pairs_rows_do_not_depend_on_a_large_batch():
    # past 256 KiB an operand array may be a temporary that numpy reuses in
    # place, through a complex product that rounds otherwise: every row of a
    # batch that large must still be its single-row bits
    r = np.repeat(np.geomspace(5e3, 1e8, 17), 41)
    theta = np.tile(np.linspace(0.0, 0.5 * math.pi, 41), 17)
    ct, st = np.cos(theta), np.sin(theta)
    ok = fourier._contour_rows(1.3, r, theta, ct, st)
    r, ct, st = r[ok], ct[ok], st[ok]
    # 4 endpoint paths of 61 complex nodes per row
    assert r.size * 4 * 61 * 16 > 256 * 1024
    values, errs = fourier._contour_pairs(1.3, r, ct, st)
    for k in range(r.size):
        one = fourier._contour_pairs(1.3, r[k : k + 1], ct[k : k + 1], st[k : k + 1])
        assert (one[0].tobytes(), one[1].tobytes()) == (values[k].tobytes(), errs[k].tobytes()), k


def test_contour_route_raises_no_runtime_warning():
    # tier-1 turns RuntimeWarnings into errors; assert it here on its own, over
    # angles that take the route on both sides of pi/4 and at large r, and
    # the row test on every angle
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for p in (1.01, 1.3, 1.7, 1.99):
            for r in (5e3, 1e6, 1e8):
                for theta in np.linspace(0.02, 0.5 * math.pi - 0.001, 25).tolist():
                    ct, st = math.cos(theta), math.sin(theta)
                    if _takes_contours(p, r, theta, ct, st):
                        checked += 1
                        for part in fourier.psi_split_integrals(p, r, theta):
                            assert math.isfinite(part.value) and math.isfinite(part.err_estimate)
    assert checked > 100


def test_contour_tables_are_the_rounded_derivation():
    mp = pytest.importorskip("mpmath")
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    import derive_constants

    with mp.workdps(60):
        for n, half in ((40, fourier._GH40_HALF), (30, fourier._GH30_HALF)):
            nodes, weights = derive_constants.hermite_rule(n)
            assert derive_constants.hermite_exactness_defect(nodes, weights, 2 * n - 1) < mp.mpf(10) ** -50
            assert half == [(float(v), float(w)) for v, w in zip(nodes, weights) if v > 0]
        taus, weights = derive_constants.tanh_sinh_rule()
    assert fourier._TS_TAUS == [float(t) for t in taus]
    assert fourier._TS_WEIGHTS_HALF == [float(w) for w in weights[derive_constants.TANH_SINH_HALF :]]
