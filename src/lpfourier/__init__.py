"""Fourier decay envelopes of planar l^p-ball indicators.

Computes the 2-D Fourier transform of the indicator of the l^p unit
ball through 1-D oscillatory-integral reductions, measures the scaled
decay envelope sup r^{3/2}|chi_hat|, its blow-up as p -> 1, and probes
the curvature-based envelope bound for convex bodies symmetric in
both axes.
"""

__version__ = "0.1.0"

from .convex_probe import (
    ConjectureReport,
    ConvexBody,
    body_curvature_min,
    body_from_spec,
    chi_hat_body,
    chi_hat_body_batch,
    conjecture_scan,
    disk_body,
    ellipse_body,
    lp_ball_body,
    poly_body,
    superellipse_body,
)
from .decay import (
    ENVELOPE_UPPER_COEFF,
    SEQUENCE_LOWER_COEFF,
    EnvelopeSample,
    FitResult,
    SequenceSpec,
    blowup_fit,
    envelope_scan,
    sequence_values,
    stationary_sequence,
    upper_bound_check,
    v_of_p,
)
from .fourier import (
    Frequency,
    TransformResult,
    bessel_j1_oracle,
    chi_hat_bruteforce,
    chi_hat_disk_oracle,
    chi_hat_l1_closed,
    chi_hat_lp,
    chi_hat_lp_batch,
    chi_hat_lp_via_y,
    psi_split_integrals,
    reduce_symmetry,
)
from .lpgeom import (
    GeomProfile,
    PExponent,
    geom_profile,
    m_of_p,
    min_curvature,
    phi,
    phi_d1,
    phi_d2,
    theta_star,
    x_star,
)
from .oscquad import (
    NonFiniteIntegrandError,
    QuadConfig,
    QuadratureBudgetError,
    QuadResult,
    fresnel_symmetric,
    integrate_batch,
    integrate_oscillatory,
    vdc_bound_first,
    vdc_bound_second,
)
