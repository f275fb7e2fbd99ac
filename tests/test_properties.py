"""Property tests of chi_hat_lp over generated exponents and frequencies.

Runs are derandomized, so every run draws the same examples; example
counts are bounded to keep the file fast.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lpfourier import cli, fourier  # noqa: E402
from lpfourier.oscquad import QuadratureBudgetError  # noqa: E402

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
@given(exponents, st.floats(1e7, 1e300), st.floats(-1.0, 1.0))
def test_huge_frequency_exceeds_panel_budget(p, beta, share):
    # from |omega| ~ 1e7 the uniform seed alone fills the 2^20-panel budget
    with pytest.raises(QuadratureBudgetError):
        fourier.chi_hat_lp(p, (share * beta, beta))
