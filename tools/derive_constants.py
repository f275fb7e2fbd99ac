"""Regenerate the frozen arbitrary-precision test fixtures and the K31 table.

Every [derived] constant asserted in the test suite is computed here at
30 significant digits with mpmath and printed to 17 digits for freezing.
The 31-point Kronrod rule of ``lpfourier._kernels`` (and its embedded
15-point Gauss rule) is derived at 60 digits: see ``kronrod_rule``.
So is the table behind the seed density ``oscquad.WAVELENGTHS_PER_PANEL``:
the G15 and K31 errors and the QUADPACK estimate on one panel of a
sinusoid, per wavelengths per panel (``panel_density_table``), and the one
behind the end-grading ratio ``fourier.GRADING_RATIO``: the K31 error and
the estimate on a graded end panel of the lp seed (``grading_ratio_table``).
The tables of ``fourier``'s steepest-descent route are derived at 60 digits
too: the Gauss-Hermite rules of its stationary path (``hermite_rule``) and
the tanh-sinh rule of its endpoint paths (``tanh_sinh_rule``).
Not part of the package; requires the dev extra (mpmath).

Usage: python tools/derive_constants.py
"""

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 30

# QUADPACK's qk31 outermost Kronrod node xgk(1), the check on kronrod_rule
QUADPACK_XGK1 = "0.998002298693397060285172840152271"


def phi(p, x):
    return (1 - x**p) ** (mp.mpf(1) / p)


def phi_d1(p, x):
    return -(x ** (p - 1)) * (1 - x**p) ** (mp.mpf(1) / p - 1)


def x_star(p):
    return ((2 - p) / (p + 1)) ** (mp.mpf(1) / p)


def m_of_p(p):
    return (2 - p) ** (1 - 2 / p) * (2 * p - 1) ** (1 / p - 2) * (p + 1) ** (1 + 1 / p)


def theta_star(p):
    return mp.atan(-1 / phi_d1(p, x_star(p)))


def base_phase(p):
    xs, th = x_star(p), theta_star(p)
    return mp.cos(th) * xs + mp.sin(th) * phi(p, xs)


def v_of_p(p):
    th = theta_star(p)
    return 1 / (mp.sqrt(mp.pi) * mp.sin(th) ** mp.mpf(1.5) * mp.sqrt((p - 1) * m_of_p(p)))


def fresnel_symmetric(m):
    # int_{-m}^m sin(x^2) dx in terms of the normalised Fresnel S
    return 2 * mp.sqrt(mp.pi / 2) * mp.fresnels(m * mp.sqrt(2 / mp.pi))


def _legendre_monomials(n):
    """Ascending monomial coefficients of P_0 .. P_n, as exact rationals."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(1, n):
        # (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}
        x_pk = [Fraction(0)] + polys[k]
        prev = polys[k - 1] + [Fraction(0), Fraction(0)]
        polys.append([((2 * k + 1) * a - k * b) / (k + 1) for a, b in zip(x_pk, prev)])
    return polys[: n + 1]


def _moment(coeffs, power):
    """int_{-1}^{1} x^power * sum_k coeffs[k] x^k dx, exactly."""
    return sum(c * Fraction(2, k + power + 1) for k, c in enumerate(coeffs) if (k + power) % 2 == 0)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _real_roots(ascending, dps):
    # the roots are real and simple; polyroots iterates to the working precision
    return [mp.re(z) for z in mp.polyroots(list(reversed(ascending)), maxsteps=400, extraprec=4 * dps)]


def kronrod_rule(n=15, dps=60):
    """(nodes, kronrod_weights, gauss_weights) of the (2n+1)-point Kronrod
    extension of n-point Gauss-Legendre on [-1, 1], nodes ascending.

    The n + 1 new nodes are the roots of the Stieltjes polynomial
    E_{n+1} = P_{n+1} + sum_{j < n+1} c_j P_j, fixed by
    int E_{n+1} P_n x^m dx = 0 for m = 0 .. n; by parity only the c_j with
    j = n + 1 (mod 2) and the odd m are live, a square system.  The
    Kronrod weights solve the moment system sum_i w_i P_k(x_i) = 2 [k = 0],
    k = 0 .. 2n, in the Legendre basis; the rule is then exact to degree
    3n + 1.  Gauss weights are 2 / ((1 - x^2) P_n'(x)^2), zero on the new
    nodes.
    """
    with mp.workdps(dps):
        polys = _legendre_monomials(n + 1)
        to_mpf = lambda q: mp.mpf(q.numerator) / q.denominator  # noqa: E731
        free = list(range((n + 1) % 2, n + 1, 2))
        odd = range(1, n + 1, 2)
        system = mp.matrix([[to_mpf(_moment(_poly_mul(polys[j], polys[n]), m)) for j in free] for m in odd])
        rhs = mp.matrix([-to_mpf(_moment(_poly_mul(polys[n + 1], polys[n]), m)) for m in odd])
        c = dict(zip(free, mp.lu_solve(system, rhs)))
        c[n + 1] = mp.mpf(1)
        stieltjes = [mp.fsum(v * to_mpf(polys[j][k]) for j, v in c.items() if k < len(polys[j])) for k in range(n + 2)]
        new = _real_roots(stieltjes, dps)
        gauss = _real_roots([to_mpf(q) for q in polys[n]], dps)
        nodes = sorted(new + gauss)
        moments = mp.matrix([[mp.legendre(k, x) for x in nodes] for k in range(2 * n + 1)])
        kronrod = list(mp.lu_solve(moments, mp.matrix([2] + [0] * (2 * n))))

        # P_n'(x) = n (x P_n(x) - P_{n-1}(x)) / (x^2 - 1)
        dp = {x: n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1) for x in gauss}
        gauss_weights = {x: 2 / ((1 - x * x) * d * d) for x, d in dp.items()}
        return nodes, kronrod, [gauss_weights.get(x, mp.mpf(0)) for x in nodes]


def hermite_rule(n, dps=60):
    """(nodes, weights) of the n-point Gauss-Hermite rule for int e^(-v^2) f(v) dv, nodes ascending.

    The nodes are the roots of the physicists' Hermite polynomial H_n
    (H_(k+1) = 2 v H_k - 2 k H_(k-1), in exact integers), the weights
    2^(n-1) n! sqrt(pi) / (n^2 H_(n-1)(v)^2).
    """
    with mp.workdps(dps):
        polys = [[1], [0, 2]]
        for k in range(1, n):
            two_v_hk = [0] + [2 * a for a in polys[k]]
            prev = polys[k - 1] + [0, 0]
            polys.append([a - 2 * k * b for a, b in zip(two_v_hk, prev)])
        nodes = sorted(_real_roots([mp.mpf(a) for a in polys[n]], dps))
        scale = 2 ** (n - 1) * mp.factorial(n) * mp.sqrt(mp.pi) / n**2
        weights = [scale / mp.polyval(list(reversed(polys[n - 1])), v) ** 2 for v in nodes]
        return nodes, weights


def hermite_exactness_defect(nodes, weights, degree):
    """max over even k <= degree of |sum_i w_i v_i^k / Gamma((k + 1)/2) - 1|: the moments of e^(-v^2), relative."""
    return max(
        abs(mp.fsum(w * v**k for w, v in zip(weights, nodes)) / mp.gamma(mp.mpf(k + 1) / 2) - 1)
        for k in range(0, degree + 1, 2)
    )


# tanh-sinh rule of fourier's endpoint paths: step h = 1/9, nodes k h for
# |k| <= 30, on u = 1 - e^(-tau) over tau in (0, 40)
TANH_SINH_STEPS_PER_UNIT = 9
TANH_SINH_HALF = 30
TANH_SINH_TAU_MAX = 40


def tanh_sinh_rule(dps=60):
    """(taus, weights): int_0^40 e^(-tau) f(tau) dtau ~ sum_k weights[k] f(taus[k]), k = -30..30.

    The substitution u = 1 - e^(-tau) turns the integral into int f du over
    (0, U), U = 1 - e^(-40), which the tanh-sinh rule of step h = 1/9 takes
    at u_k = (U/2)(1 + tanh((pi/2) sinh(k h))), with weights
    (U/2) h (pi/2) cosh(k h) / cosh^2((pi/2) sinh(k h)); taus[k] =
    -log(1 - u_k), ascending.  Every other node (k even) with doubled
    weights is the rule of step 2 h that the route's estimate compares
    against.
    """
    with mp.workdps(dps):
        h = mp.mpf(1) / TANH_SINH_STEPS_PER_UNIT
        half_u = -mp.expm1(-TANH_SINH_TAU_MAX) / 2
        taus, weights = [], []
        for k in range(-TANH_SINH_HALF, TANH_SINH_HALF + 1):
            y = mp.pi / 2 * mp.sinh(k * h)
            u = half_u * (1 + mp.tanh(y))
            taus.append(-mp.log1p(-u))
            weights.append(half_u * h * mp.pi / 2 * mp.cosh(k * h) / mp.cosh(y) ** 2)
        return taus, weights


def kronrod_exactness_defect(nodes, weights, degree):
    """max over k <= degree of |sum_i w_i x_i^k - int_{-1}^{1} x^k dx|."""
    return max(
        abs(mp.fsum(w * x**k for w, x in zip(weights, nodes)) - (mp.mpf(2) / (k + 1) if k % 2 == 0 else 0))
        for k in range(degree + 1)
    )


# 50 eps of float64: the floor of the QUADPACK estimate, 50 eps resabs
_EPS50 = 50 * mp.mpf(2) ** -52


def _abs_sine_integral(u):
    """int_0^u |sin t| dt for any real u: 2 per half period, odd in u."""
    k = mp.floor(u / mp.pi)
    return 2 * k + 1 - mp.cos(u - k * mp.pi)


def panel_density_table(wavelengths=(2, 2.5, 3, 3.5, 4), phases=12, dps=60):
    """[(w, G15 error, K31 error, estimate)] on the panel [-1, 1] of sin(omega x + c).

    omega = pi w puts w wavelengths on the panel.  Each entry is the
    largest over the phases c = 2 pi j / phases, relative to int |f| over
    the panel: the errors of the two rules against the closed form
    2 sin(c) sin(omega) / omega, and QUADPACK's estimate
    resasc min(1, (200 |K31 - G15| / resasc)^1.5), floored at 50 eps
    resabs with the eps of float64, as ``_kernels`` computes it.  Where
    the estimate sits at that floor the rule is already as accurate as
    float64 can report, so a denser seed only spends nodes.
    """
    with mp.workdps(dps):
        nodes, wk, wg = kronrod_rule(dps=dps)
        rows = []
        for w in wavelengths:
            omega = mp.pi * mp.mpf(w)
            worst = [mp.mpf(0)] * 3
            for j in range(phases):
                c = 2 * mp.pi * j / phases
                k31, g15, estimate, _ = _panel_estimate(lambda x: mp.sin(omega * x + c), -1, 1, nodes, wk, wg)
                exact = 2 * mp.sin(c) * mp.sin(omega) / omega
                mass = (_abs_sine_integral(c + omega) - _abs_sine_integral(c - omega)) / omega
                errors = (abs(g15 - exact), abs(k31 - exact), estimate)
                worst = [max(old, e / mass) for old, e in zip(worst, errors)]
            rows.append((w, *worst))
        return rows


def _panel_estimate(f, lo, hi, nodes, wk, wg):
    """(K31, G15, QUADPACK estimate, resabs) of f on the panel [lo, hi], as ``_kernels`` computes them."""
    half = (hi - lo) / 2
    v = [f(lo + half * (1 + x)) for x in nodes]
    k31 = half * mp.fsum(a * b for a, b in zip(wk, v))
    g15 = half * mp.fsum(a * b for a, b in zip(wg, v))
    resabs = half * mp.fsum(a * abs(b) for a, b in zip(wk, v))
    mean = k31 / (2 * half)
    resasc = half * mp.fsum(a * abs(b - mean) for a, b in zip(wk, v))
    estimate = max(resasc * min(1, (200 * abs(k31 - g15) / resasc) ** 1.5), _EPS50 * resabs)
    return k31, g15, estimate, resabs


def grading_ratio_table(ratios=(2, 4, 8, 16), exponents=("1.01", "1.1", "1.5", "1.9", "1.99"),
                        wavelengths=(0, 0.25, 0.5, 1, 2, 3), phases=8, dps=60):
    """[(ratio, model, p, w, K31 error, estimate)] on the graded panel [1/ratio, 1].

    The end grading of ``fourier.lp_initial_breaks`` cuts panels [a, ratio a]
    toward x = 0 and, in t = 1 - x, [t / ratio, t] toward x = 1.  Scaled to
    [1/ratio, 1], phi_p there is modelled by g = x^p (head: phi_p is
    1 - x^p/p + ... at 0) and by g = t^(1/p) (tail: phi_p(1 - t) is
    (p t)^(1/p) + ... at t = 0), for 1 < p < 2.  With w = 0 the integrand is
    g itself, the small-phase limit; with w > 0 it is sin(omega g + c), with
    omega (g(1) - g(1/ratio)) = 2 pi w, so that w wavelengths of phase lie
    on the panel, and each entry is the largest over the phases
    c = 2 pi j / phases.  Errors and estimates are relative to resabs, the
    integral of |f| by the Kronrod rule; the estimate is QUADPACK's, floored
    at 50 eps resabs as ``_kernels`` computes it, and the reference is
    mpmath's quadrature.  Where the estimate sits at that floor, the panel
    adds nothing to the integral's estimate beyond the floor every panel
    carries.
    """
    with mp.workdps(dps):
        nodes, wk, wg = kronrod_rule(dps=dps)
        models = {"head x^p": lambda p: (lambda x: x**p), "tail t^(1/p)": lambda p: (lambda x: x ** (1 / p))}
        rows = []
        for ratio in ratios:
            lo = mp.mpf(1) / ratio
            for model, make in models.items():
                for text in exponents:
                    p = mp.mpf(text)
                    g = make(p)
                    for w in wavelengths:
                        omega = 2 * mp.pi * mp.mpf(w) / (g(1) - g(lo))
                        worst = [mp.mpf(0)] * 2
                        for j in range(phases if w else 1):
                            c = 2 * mp.pi * j / phases
                            f = (lambda x, c=c: mp.sin(omega * g(x) + c)) if w else g
                            k31, _, estimate, resabs = _panel_estimate(f, lo, mp.mpf(1), nodes, wk, wg)
                            exact = mp.quad(f, [lo, 1])
                            worst = [max(old, e / resabs) for old, e in zip(worst, (abs(k31 - exact), estimate))]
                        rows.append((ratio, model, text, w, *worst))
        return rows


def show(label, value):
    print(f"{label:<28} = {mp.nstr(value, 17)}")


if __name__ == "__main__":
    p15 = mp.mpf("1.5")
    show("phi(1.5, 0.5)", phi(p15, mp.mpf("0.5")))
    show("phi_d1(1.5, x*)", phi_d1(p15, x_star(p15)))
    show("x_star(1.5)", x_star(p15))
    show("m(1.5)", m_of_p(p15))
    show("theta_star(1.5)", theta_star(p15))
    show("(p-1) m(p) at 1.5", (p15 - 1) * m_of_p(p15))
    show("min_curvature(1.5)", (p15 - 1) * 2 ** (1 / p15 - mp.mpf("0.5")))
    show("base_phase(1.5)", base_phase(p15))
    show("v_of_p(1.5)", v_of_p(p15))
    show("v limit 2^(3/4)/(2 sqrt(pi))", 2 ** mp.mpf("0.75") / (2 * mp.sqrt(mp.pi)))
    show("area(B_1.5)", 4 * mp.gamma(1 + 1 / p15) ** 2 / mp.gamma(1 + 2 / p15))
    show("chi_l1(pi, 2pi) = -4/(3pi^3)", -4 / (3 * mp.pi**3))
    show("sqrt(pi/2)", mp.sqrt(mp.pi / 2))
    show("sqrt(2/pi)", mp.sqrt(2 / mp.pi))
    show("int_0^1 sin(10x) dx", (1 - mp.cos(10)) / 10)
    for r in (1, 10, 50, 100):
        show(f"J1({r})", mp.besselj(1, r))
    for m in ("0.5", "1", "2", "4", "10", "30", "100"):
        show(f"fresnel_symmetric({m})", fresnel_symmetric(mp.mpf(m)))
    with mp.workdps(60):
        nodes, wk, wg = kronrod_rule()
        show("K31 defect to degree 46", kronrod_exactness_defect(nodes, wk, 46))
        show("K31 defect to degree 48", kronrod_exactness_defect(nodes, wk, 48))
        show("K31 xgk(1) - QUADPACK", nodes[-1] - mp.mpf(QUADPACK_XGK1))
        # the half tables of _kernels: x >= 0, descending
        half = range(len(nodes) - 1, len(nodes) // 2 - 1, -1)
        print("_XGK_HALF =", [float(nodes[i]) for i in half])
        print("_WGK_HALF =", [float(wk[i]) for i in half])
        print("_WG_HALF =", [float(wg[i]) for i in half if wg[i] != 0])
        # fourier's steepest-descent tables: the Hermite halves v > 0, ascending
        for n in (40, 30):
            v, w = hermite_rule(n)
            show(f"Hermite {n} defect to degree {2 * n - 1}", hermite_exactness_defect(v, w, 2 * n - 1))
            print(f"_GH{n}_HALF =", [(float(a), float(b)) for a, b in zip(v, w) if a > 0])
        taus, weights = tanh_sinh_rule()
        print("_TS_TAUS =", [float(t) for t in taus])
        print("_TS_WEIGHTS_HALF =", [float(w) for w in weights[TANH_SINH_HALF:]])
    print("one panel of sin(omega x + c), largest over 12 phases, relative to int |f|:")
    print(f"{'wavelengths per panel':<22}{'G15 error':>12}{'K31 error':>12}{'estimate':>12}")
    for w, g15, k31, estimate in panel_density_table():
        print(f"{w:<22g}" + "".join(f"{mp.nstr(v, 3):>12}" for v in (g15, k31, estimate)))
    print("graded end panel [1/ratio, 1], largest over p in 1.01 .. 1.99, relative to resabs:")
    print(f"{'ratio':<7}{'model':<14}{'wavelengths':>12}{'K31 error':>12}{'estimate':>12}")
    worst = {}
    for ratio, model, _, w, k31, estimate in grading_ratio_table():
        old = worst.get((ratio, model, w), (0, 0))
        worst[(ratio, model, w)] = (max(old[0], k31), max(old[1], estimate))
    for (ratio, model, w), values in worst.items():
        print(f"{ratio:<7}{model:<14}{w:>12g}" + "".join(f"{mp.nstr(v, 3):>12}" for v in values))
