"""The three benchmark workloads: seeded inputs, one timed pass, untimed checks.

Every workload runs at the default ``QuadConfig`` (abs 1e-10, rel 1e-9) in a
closed loop from one process: the next call starts when the previous one has
returned.  ``Workload(seed)`` builds the inputs (the set-up the user pays
once), ``run_pass`` is the timed unit and returns the program's outputs, and
``failures`` checks those outputs against independent routes and returns the
indices of failed samples (budget errors included).

Only public names of ``lpfourier`` are used.
"""

import math
import os
import random

import numpy as np

from lpfourier import convex_probe, decay, fourier
from lpfourier.oscquad import QuadratureBudgetError

BRUTEFORCE_MAX_R = 50.0


def _shifted_log_grid(rng, lo, hi, n):
    """n log-spaced points on [lo, hi]; the interior shifts by a seeded part of a step.

    The endpoints stay fixed, so the witness radii a scan adds (which depend
    on the grid's ends) and hence the sample count do not depend on the seed.
    """
    logs = np.linspace(math.log(lo), math.log(hi), n)
    logs[1:-1] += (rng.uniform(0.1, 0.9) - 0.5) * (logs[1] - logs[0])
    grid = np.exp(logs)
    grid[0], grid[-1] = lo, hi  # exp(log(lo)) may round below lo
    return grid


class LpEnvelope:
    """decay.envelope_scan at p in {1.1, 1.5, 2.0}, r on [5, 2000], theta on (pi/4, pi/2)."""

    name = "lp-envelope"
    P_VALUES = (1.1, 1.5, 2.0)
    N_R = 12
    N_THETA = 6

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.grids = []
        for p in self.P_VALUES:
            r_grid = _shifted_log_grid(rng, decay.R_MIN_ALLOWED, 2000.0, self.N_R)
            # strictly inside (pi/4, pi/2): the scan adds theta*(p) itself
            step = 0.25 * math.pi / self.N_THETA
            theta_grid = 0.25 * math.pi + (np.arange(self.N_THETA) + rng.uniform(0.1, 0.9)) * step
            self.grids.append((p, r_grid, theta_grid))

    def describe(self):
        return {"grids": [(p, list(r), list(t)) for p, r, t in self.grids]}

    def warm_up(self):
        fourier.chi_hat_lp(1.5, (30.0, 40.0))

    def run_pass(self, workers=1):
        return [(p, *decay.envelope_scan(p, r, t, workers=1)) for p, r, t in self.grids]

    @staticmethod
    def flat(outputs):
        return [s for _, _, samples in outputs for s in samples]

    def count(self, outputs):
        return len(self.flat(outputs))

    def failures(self, outputs):
        samples = self.flat(outputs)
        bad = {i for i, s in enumerate(samples) if s.method == "budget-error" or not math.isfinite(s.scaled_value)}
        ok = [i for i in range(len(samples)) if i not in bad]
        offset = 0
        for p, c_est, group in outputs:
            bound = decay.upper_bound_check(p, c_est).bound
            bad.update(offset + k for k, s in enumerate(group) if s.scaled_value > bound)
            offset += len(group)

        for i, kind, tol in self.oracle_picks(samples, ok):
            s = samples[i]
            value = s.scaled_value / s.r**1.5
            omega = fourier.Frequency.from_polar(s.r, s.theta)
            if kind == "bruteforce":
                ref = fourier.chi_hat_bruteforce(s.p, omega)
            elif kind == "via-y":
                ref = fourier.chi_hat_lp_via_y(s.p, omega).value
            else:
                ref = fourier.chi_hat_disk_oracle(s.r)
            if not abs(value - abs(ref)) <= tol:
                bad.add(i)
        return bad

    def oracle_picks(self, samples, ok):
        """Seeded subset of successful samples, each with its oracle and tolerance."""
        rng = random.Random(f"{self.name}:check:{self.seed}")

        def pick(pred, k):
            cands = [i for i in ok if pred(samples[i])]
            return rng.sample(cands, min(k, len(cands)))

        picks = []
        for p in self.P_VALUES:
            picks += [(i, "bruteforce", 1e-6) for i in pick(lambda s, p=p: s.p == p and s.r <= BRUTEFORCE_MAX_R, 1)]
            # y-slicing needs alpha > 0, i.e. theta < pi/2
            picks += [(i, "via-y", 1e-8) for i in pick(lambda s, p=p: s.p == p and s.theta < 0.5 * math.pi - 1e-9, 2)]
        picks += [(i, "disk", 1e-8) for i in pick(lambda s: s.p == 2.0, 3)]
        return picks


def _diagonal_gain(p):
    """cos theta* + sin theta*: phase rate per unit radius along theta*(p)."""
    theta = decay.stationary_sequence(p, 1, 1).theta_star
    return math.cos(theta) + math.sin(theta)


class HighfreqWitness:
    """Witness transforms at |omega| in [2e4, 1e5] along theta*(p), both routes."""

    name = "highfreq-witness"
    N_TRANSFORMS = 7
    R_LO, R_HI = 2.0e4, 1.0e5

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = []
        targets = np.geomspace(self.R_LO, self.R_HI, self.N_TRANSFORMS)
        for i, target in enumerate(targets):
            # one p per seventh of (1, 2), jittered by the seed; the radius is
            # set so that the phase rate r (cos theta* + sin theta*), which
            # sizes the panel partition, is the same for every seed: the work
            # and the memory of a pass then hardly depend on the seed
            rate = target * _diagonal_gain(1.0 + (i + 0.5) / self.N_TRANSFORMS)
            p = 1.0 + (i + rng.uniform(0.35, 0.65)) / self.N_TRANSFORMS
            base = decay.stationary_sequence(p, 1, 1).base_phase
            n = max(1, round(rate / _diagonal_gain(p) * base / (2.0 * math.pi)))
            spec = decay.stationary_sequence(p, n, n)
            self.inputs.append((p, spec.r_values[0], spec.theta_star))

    def describe(self):
        return {"transforms (p, r, theta)": self.inputs}

    def warm_up(self):
        fourier.chi_hat_lp(1.5, (30.0, 40.0))

    def run_pass(self, workers=1):
        out = []
        for p, r, theta in self.inputs:
            try:
                x = fourier.chi_hat_lp(p, fourier.Frequency.from_polar(r, theta))
                polar = fourier.psi_split_integrals(p, r, theta)
            except QuadratureBudgetError:
                out.append(None)
                continue
            out.append((x, polar))
        return out

    def count(self, outputs):
        return len(outputs)

    def failures(self, outputs):
        bad = set()
        for i, ((p, r, theta), res) in enumerate(zip(self.inputs, outputs)):
            if res is None:
                bad.add(i)
                continue
            x, (psi, psi_tilde) = res
            scale = 1.0 / (math.pi * r * math.sin(theta))
            polar = scale * (psi.value + psi_tilde.value)
            allowed = x.err_estimate + scale * (psi.err_estimate + psi_tilde.err_estimate)
            agree = abs(x.value - polar) <= allowed
            scaled = r**1.5 * abs(x.value)
            near_asymptote = abs(scaled - decay.v_of_p(p)) <= 0.05 * decay.v_of_p(p)
            if not (agree and near_asymptote):
                bad.add(i)
        return bad


class BodyConjecture:
    """convex_probe.conjecture_scan on an ellipse, a seeded superellipse and a poly body."""

    name = "body-conjecture"
    N_R = 20
    N_THETA = 14
    ELLIPSE = (2.0, 1.0)

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.workers = min(2, os.cpu_count() or 1)
        self.r_grid = _shifted_log_grid(rng, decay.R_MIN_ALLOWED, 500.0, self.N_R)
        # ends at pi/2, within 1e-6 rad of the ellipse's witness direction
        # (which the scan inserts), so the oracle's maximum over this grid is
        # the scan's maximum to well within the check's tolerance
        self.theta_grid = np.linspace(0.0, 0.5 * math.pi, self.N_THETA)
        self.exponent = rng.uniform(1.4, 1.6)
        self.bodies = [
            convex_probe.ellipse_body(*self.ELLIPSE),
            convex_probe.superellipse_body(1.5, 1.0, self.exponent),
            convex_probe.poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0),
        ]

    def describe(self):
        return {
            "bodies": [b.label for b in self.bodies],
            "r_grid": list(self.r_grid),
            "theta_grid": list(self.theta_grid),
            "workers": self.workers,
        }

    def warm_up(self):
        convex_probe.chi_hat_body(self.bodies[0], (3.0, 4.0))

    def run_pass(self, workers=None):
        workers = self.workers if workers is None else workers
        out = []
        for body in self.bodies:
            try:
                out.append(convex_probe.conjecture_scan(body, self.r_grid, self.theta_grid, workers=workers))
            except QuadratureBudgetError:
                out.append(None)
        return out

    def samples_per_scan(self):
        """Sample count of one scan: its grid plus the inserted witness direction."""
        return len(self.r_grid) * (len(self.theta_grid) + 1)

    def count(self, outputs):
        return len(outputs) * self.samples_per_scan()

    def _ellipse_scaled(self, r, theta):
        a, b = self.ELLIPSE
        rho = math.hypot(a * r * math.cos(theta), b * r * math.sin(theta))
        return r**1.5 * abs(a * b * fourier.bessel_j1_oracle(rho) / rho)

    def failures(self, outputs):
        bad = set()
        offset = 0
        for body, rep in zip(self.bodies, outputs):
            n = self.samples_per_scan()
            if rep is None:
                bad.update(range(offset, offset + n))
                offset += n
                continue
            if not (rep.upper_ok and rep.c_est <= rep.bound):
                bad.add(offset)
            if body.label.startswith("ellipse"):
                bad.update(offset + k for k in self._check_ellipse(body, rep))
            offset += n
        return bad

    def _check_ellipse(self, body, rep):
        """Indices (within the scan) of ellipse results off the J1 closed form."""
        bad = set()
        grid = [(r, t) for r in self.r_grid for t in self.theta_grid]
        ref = [self._ellipse_scaled(r, t) for r, t in grid]
        k = int(np.argmax(ref))
        if not abs(rep.c_est - ref[k]) <= 1e-6 * grid[k][0] ** 1.5:
            bad.add(k)
        row = [i for i, (_, t) in enumerate(grid) if t == self.theta_grid[-1]]
        j = max(row, key=lambda i: ref[i])
        if not abs(rep.witness_max - ref[j]) <= 1e-6 * grid[j][0] ** 1.5:
            bad.add(j)
        rng = random.Random(f"{self.name}:check:{self.seed}")
        for i in rng.sample(range(len(grid)), 4):
            r, t = grid[i]
            got = convex_probe.chi_hat_body(body, fourier.Frequency.from_polar(r, t)).value
            if not abs(r**1.5 * abs(got) - ref[i]) <= 1e-6 * r**1.5:
                bad.add(i)
        return bad


WORKLOADS = {w.name: w for w in (LpEnvelope, HighfreqWitness, BodyConjecture)}
