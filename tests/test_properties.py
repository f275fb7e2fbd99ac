"""Property tests of chi_hat_lp, its seeds and chi_hat_body over generated inputs.

Runs are derandomized, so every run draws the same examples; example
counts are bounded to keep the file fast.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lpfourier import cli, convex_probe, fourier, lpgeom  # noqa: E402
from lpfourier.oscquad import QuadConfig, QuadratureBudgetError  # noqa: E402
from test_fourier import PANEL_PHASE, check_lp_seed  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

exponents = st.floats(1.0, 2.0)
frequencies = st.floats(-100.0, 100.0)


def _bits(res):
    return res.value.hex(), res.err_estimate.hex(), res.method


@PROPERTY
@given(exponents, frequencies, frequencies)
def test_even_and_swap_symmetric_bitwise(p, alpha, beta):
    ref = _bits(fourier.chi_hat_lp(p, (alpha, beta)))
    for omega in ((-alpha, beta), (alpha, -beta), (-alpha, -beta), (beta, alpha)):
        assert _bits(fourier.chi_hat_lp(p, omega)) == ref, omega


@PROPERTY
@given(
    exponents,
    frequencies,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
)
def test_nonfinite_component_is_rejected(p, finite, bad, bad_first):
    alpha, beta = (bad, finite) if bad_first else (finite, bad)
    with pytest.raises(ValueError):
        fourier.chi_hat_lp(p, (alpha, beta))
    # '=' keeps a value such as -inf from parsing as an option
    args = ["transform", f"--p={p!r}", f"--alpha={alpha!r}", f"--beta={beta!r}"]
    assert cli.main(args) == 2


@PROPERTY
@given(frequencies, frequencies)
def test_endpoint_exponents_match_closed_forms(alpha, beta):
    # c2's tolerances: 1e-9 against the diamond, 1e-8 against the J1 route
    omega = (alpha, beta)
    assert abs(fourier.chi_hat_lp(1.0, omega).value - fourier.chi_hat_l1_closed(omega)) <= 1e-9
    disk = fourier.chi_hat_disk_oracle(math.hypot(alpha, beta))
    assert abs(fourier.chi_hat_lp(2.0, omega).value - disk) <= 1e-8


@PROPERTY
@given(exponents)
def test_zero_frequency_is_area_over_two_pi_within_estimate(p):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        area = float(4 * mp.gamma(1 + 1 / mp.mpf(p)) ** 2 / mp.gamma(1 + 2 / mp.mpf(p)))
    res = fourier.chi_hat_lp(p, (0.0, 0.0))
    assert res.method == "zero-frequency"
    assert abs(res.value - area / (2.0 * math.pi)) <= res.err_estimate


@settings(PROPERTY, max_examples=10)
@given(exponents, st.floats(2e7, 1e300), st.floats(-1.0, 1.0))
def test_huge_frequency_exceeds_panel_budget(p, beta, share):
    # from a rate of 6 pi 2^20 ~ 1.98e7 the V-steps alone exceed the
    # 2^20-panel budget, and the seed fails before its points are built
    with pytest.raises(QuadratureBudgetError):
        fourier.chi_hat_lp(p, (share * beta, beta))


def _seed_inputs():
    # (cfg, pairs): alpha = 0, beta below 2/pi and, with a small budget,
    # rates on both sides of 64 PANEL_PHASE ~ 1206 and a huge rate
    small = st.floats(0.0, 2.0 / math.pi)
    wide = st.floats(0.0, 1e4)
    default = st.tuples(st.one_of(st.just(0.0), wide), st.one_of(small, wide))
    near = st.floats(0.0, 1e3)
    budgeted = st.tuples(st.one_of(st.just(0.0), near), st.one_of(small, near, st.just(1e300)))
    return st.one_of(
        st.tuples(st.just(QuadConfig()), st.lists(default, min_size=1, max_size=6)),
        st.tuples(
            st.just(QuadConfig(abs_tol=1e-14, max_panels=64)),
            st.lists(budgeted, min_size=1, max_size=6),
        ),
    )


@PROPERTY
@given(exponents, _seed_inputs())
def test_batched_seeds_are_the_single_seeds_bitwise(p, inputs):
    cfg, pairs = inputs
    alphas, betas = zip(*pairs)
    failed, ok, breaks, panels = fourier._lp_seeds(p, alphas, betas, cfg)
    rows = dict(zip(ok.tolist(), np.split(breaks, np.cumsum(panels + 1)[:-1])))
    for i, (alpha, beta) in enumerate(pairs):
        # a rate whose V-steps exceed the budget fails on both routes alike
        unseedable = (alpha + beta) / PANEL_PHASE > cfg.max_panels
        assert isinstance(failed[i], QuadratureBudgetError) == unseedable, (alpha, beta)
        assert (i not in rows) == unseedable, (alpha, beta)
        if unseedable:
            with pytest.raises(QuadratureBudgetError) as exc:
                fourier.lp_initial_breaks(p, alpha, beta, cfg)
            assert str(exc.value) == str(failed[i])
            continue
        got = rows[i]
        want = fourier.lp_initial_breaks(p, alpha, beta, cfg)
        assert got.tobytes() == want.tobytes(), (alpha, beta)
        check_lp_seed(p, alpha, beta, cfg, got)


_EPS = 2.0**-52


@PROPERTY
@given(
    exponents,
    st.one_of(st.floats(0.0, 1e5), st.integers(1, 8000).map(lambda m: PANEL_PHASE * m)),
    st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
)
def test_lp_seed_panels_span_at_most_the_panel_phase_of_v(p, rate, share):
    # V(x) = alpha x + beta (1 - phi_p(x)) bounds the phase change of the lp
    # integrands; rates PANEL_PHASE m leave no slack between the V-steps and
    # PANEL_PHASE.
    # Up to rounding: a double x pins V(x) only to within x V'(x) eps, with
    # V' = alpha + beta (x / phi_p)^(p-1) (the phi_p term is 0 at x = 1)
    alpha = share * rate
    beta = rate - alpha
    x = fourier.lp_initial_breaks(p, alpha, beta, QuadConfig())
    phi = lpgeom.phi(p, x)
    spans = alpha * np.diff(x) + beta * (phi[:-1] - phi[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        pinned = np.where(x < 1.0, x * (x / phi) ** (p - 1.0), 0.0)
    slack = 16.0 * _EPS * (rate + beta * (pinned[:-1] + pinned[1:]))
    assert np.all(spans <= PANEL_PHASE + slack), np.max(spans - PANEL_PHASE - slack)


# the quartic poly body of the benchmark, and its area int 2u = 44/15
QUARTIC = [1.0, 0.0, -0.5, 0.0, -0.5]
semiaxes = st.floats(0.25, 4.0)
body_frequencies = st.floats(-60.0, 60.0)


@PROPERTY
@given(
    st.one_of(
        st.builds(convex_probe.superellipse_body, semiaxes, semiaxes, st.floats(1.05, 2.0)),
        st.just(convex_probe.poly_body(QUARTIC, 1.0)),
    ),
    body_frequencies,
    body_frequencies,
)
def test_body_transform_is_even_in_alpha_and_beta(body, alpha, beta):
    # bit for bit: the lp route reduces signs away, and the slicing route
    # takes |alpha| and |beta| before it builds its seed and integrand
    omegas = [(alpha, beta), (-alpha, beta), (alpha, -beta), (-alpha, -beta)]
    ref, *flips = convex_probe.chi_hat_body_batch(body, omegas)
    for res in flips:
        assert res == ref


@PROPERTY
@given(semiaxes, semiaxes, st.floats(1.05, 2.0), body_frequencies, body_frequencies)
def test_superellipse_body_is_scaled_lp_transform(a, b, q, alpha, beta):
    body = convex_probe.superellipse_body(a, b, q)
    (got,) = convex_probe.chi_hat_body_batch(body, [(alpha, beta)])
    ref = fourier.chi_hat_lp(q, (a * alpha, b * beta))
    assert abs(got.value - a * b * ref.value) <= got.err_estimate + a * b * ref.err_estimate


@settings(PROPERTY, max_examples=10)
@given(st.floats(0.25, 4.0))
def test_quartic_body_zero_frequency_is_area_over_two_pi(w):
    # u(x) = 1 - (x/w)^2/2 - (x/w)^4/2 on [-w, w]
    mp = pytest.importorskip("mpmath")
    body = convex_probe.poly_body([1.0, 0.0, -0.5 / w**2, 0.0, -0.5 / w**4], w)
    with mp.workdps(30):
        t = mp.mpf(w)
        area = float(mp.quad(lambda x: 2 * (1 - (x / t) ** 2 / 2 - (x / t) ** 4 / 2), [-t, t]))
    (res,) = convex_probe.chi_hat_body_batch(body, [(0.0, 0.0)])
    assert res.method == "zero-frequency"
    assert abs(res.value - area / (2.0 * math.pi)) <= res.err_estimate
