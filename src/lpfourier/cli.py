"""Command-line interface.

Subcommands: transform, envelope, sequence, fit, conjecture, verify.
Output files start with a '#'-prefixed header block embedding the tool
version and the run configuration: the parsed arguments minus the
execution details in _EXECUTION_KEYS (output paths, the timestamp switch
and the worker count).  Identical configs must produce byte-identical
files regardless of those, on one numpy build at one SIMD level: JSON
outputs record both, with Python's version, in a ``machine`` block.
Floats are serialised with the shortest round-trip representation.

Exit codes: 0 success, 1 assertion/bound failure, 2 usage error,
3 quadrature budget failure, 4 conjecture counterexample candidate.
"""

import argparse
import json
import math
import platform
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, convex_probe, decay, fourier, lpgeom
from .oscquad import QuadConfig, QuadratureBudgetError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_COUNTEREXAMPLE = 4


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


_EXECUTION_KEYS = ("func", "out", "summary", "no_timestamp", "workers")


def _config(args):
    return {k: v for k, v in vars(args).items() if k not in _EXECUTION_KEYS}


def _timestamp():
    return datetime.now(timezone.utc).isoformat()


def _emit(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _write_table(path, args, columns, rows):
    out = [f"# lpfourier {__version__}", f"# config: {json.dumps(_config(args), sort_keys=True)}"]
    if not args.no_timestamp:
        out.append(f"# timestamp: {_timestamp()}")
    out.append(",".join(columns))
    out.extend(",".join(_fmt(v) for v in row) for row in rows)
    _emit(path, "\n".join(out) + "\n")


def _machine():
    """Python, the numpy version and numpy's active SIMD targets: what the bytes depend on.

    The targets are the dispatched ones the CPU runs (``__cpu_features__``
    drops those that ``NPY_DISABLE_CPU_FEATURES`` switches off, which
    ``__cpu_dispatch__`` still lists).
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    }


def _write_json(path, args, payload):
    payload = dict(payload, tool_version=__version__, config=_config(args), machine=_machine())
    if not args.no_timestamp:
        payload["timestamp"] = _timestamp()
    _emit(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _quad_config(args):
    return QuadConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def cmd_transform(args):
    cfg = _quad_config(args)
    res = fourier.chi_hat_lp(args.p, (args.alpha, args.beta), cfg)
    print(f"value={res.value!r} err_estimate={res.err_estimate!r} method={res.method}")
    return EXIT_OK


def cmd_envelope(args):
    cfg = _quad_config(args)
    r_grid = decay.default_r_grid(args.r_min, args.r_max, args.per_decade)
    theta_grid = decay.default_theta_grid(args.p, args.theta_points)
    c_est, samples = decay.envelope_scan(args.p, r_grid, theta_grid, cfg, workers=args.workers)
    rows = [
        (s.p, s.r, s.theta, s.scaled_value, s.err_estimate, s.method) for s in samples
    ]
    _write_table(
        args.out, args, ("p", "r", "theta", "scaled_value", "err_estimate", "method"), rows
    )
    check = decay.upper_bound_check(args.p, c_est)
    ok_samples = [s for s in samples if s.method != "budget-error"]
    best = max(ok_samples, key=lambda s: s.scaled_value)
    # the true value may be as large as scaled_value + err_estimate
    upper_ok = max(s.scaled_value + s.err_estimate for s in ok_samples) <= check.bound
    summary = {
        "c_est": c_est,
        "upper_bound": check.bound,
        "upper_ok": upper_ok,
        "slack_ratio": check.slack_ratio,
        "argmax_r": best.r,
        "argmax_theta": best.theta,
        "n_samples": len(samples),
        "n_failed": sum(1 for s in samples if s.method == "budget-error"),
        "sequence_lower_coeff": decay.SEQUENCE_LOWER_COEFF,
    }
    if args.p < 2.0:
        summary["v_of_p"] = decay.v_of_p(args.p)
        # the peaks between the aligned witnesses approach sqrt(2) v_of_p
        summary["peak_asymptote"] = math.sqrt(2.0) * summary["v_of_p"]
        summary["theta_star"] = lpgeom.theta_star(args.p)
    _write_json(args.summary, args, summary)
    return EXIT_OK if upper_ok else EXIT_FAILURE


def cmd_sequence(args):
    cfg = _quad_config(args)
    spec = decay.stationary_sequence(args.p, args.n_min, args.n_max)
    v_ref = decay.v_of_p(args.p)
    rows = [
        (n, s.r, s.scaled_value, v_ref, s.err_estimate)
        for n, s in decay.sequence_values(args.p, spec, cfg)
    ]
    _write_table(args.out, args, ("n", "r_n", "scaled_value", "v_of_p", "err_estimate"), rows)
    return EXIT_OK


def cmd_fit(args):
    fit = decay.blowup_fit(args.p_list, args.n_ref, _quad_config(args))
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "max_abs_residual": fit.max_abs_residual,
    }
    _write_json(args.out, args, payload)
    return EXIT_OK


def cmd_conjecture(args):
    body = convex_probe.body_from_spec(args.body)
    cfg = _quad_config(args)
    r_grid = np.geomspace(args.r_min, args.r_max, args.r_points)
    theta_grid = convex_probe.default_body_theta_grid(args.theta_points)
    report = convex_probe.conjecture_scan(body, r_grid, theta_grid, cfg, workers=args.workers)
    payload = {
        "label": report.label,
        "nu": report.nu,
        "c_est": report.c_est,
        "bound": report.bound,
        "upper_ok": report.upper_ok,
        "witness_max": report.witness_max,
        "notes": report.notes,
    }
    _write_json(args.out, args, payload)
    return EXIT_OK if report.upper_ok else EXIT_COUNTEREXAMPLE


def cmd_verify(args):
    from . import verify

    results = verify.run_suite(args.suite, workers=args.workers)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


def _finite_float(text):
    """float(text), which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text):
    """Comma-separated floats, e.g. '1.05,1.1,1.2'."""
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _json_file(path):
    """The JSON document stored at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_tol_args(sp):
    sp.add_argument("--abs-tol", type=float, default=1e-10)
    sp.add_argument("--rel-tol", type=float, default=1e-9)


def _add_workers_arg(sp):
    # default None: LPFOURIER_WORKERS is read in main, where a bad value exits 2
    sp.add_argument("--workers", type=decay.positive_int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lpfourier",
        description="Fourier decay envelopes of l^p-ball indicators",
    )
    parser.add_argument("--version", action="version", version=f"lpfourier {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("transform", help="one transform value chi_hat(alpha, beta)")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    _add_tol_args(sp)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("envelope", help="scan r^{3/2}|chi_hat| over a polar grid")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--r-min", type=_finite_float, default=5.0)
    sp.add_argument("--r-max", type=_finite_float, default=2000.0)
    sp.add_argument("--per-decade", type=decay.positive_int, default=60)
    sp.add_argument("--theta-points", type=decay.positive_int, default=48)
    sp.add_argument("--out", required=True, help="CSV path ('-' for stdout)")
    sp.add_argument("--summary", default=None, help="summary JSON path (default stdout)")
    sp.add_argument("--no-timestamp", action="store_true")
    _add_workers_arg(sp)
    _add_tol_args(sp)
    sp.set_defaults(func=cmd_envelope)

    sp = sub.add_parser("sequence", help="scaled values along the witness sequence")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n-min", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--out", required=True, help="CSV path ('-' for stdout)")
    sp.add_argument("--no-timestamp", action="store_true")
    _add_tol_args(sp)
    sp.set_defaults(func=cmd_sequence)

    sp = sub.add_parser("fit", help="blow-up exponent fit over a p grid")
    sp.add_argument(
        "--p-list", type=_float_list, required=True, help="comma-separated exponents in (1, 1.5]"
    )
    sp.add_argument("--n-ref", type=int, default=200)
    sp.add_argument("--out", default=None)
    sp.add_argument("--no-timestamp", action="store_true")
    _add_tol_args(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("conjecture", help="curvature-bound probe for a body JSON")
    sp.add_argument("--body-file", dest="body", type=_json_file, required=True)
    sp.add_argument("--r-min", type=_finite_float, default=5.0)
    sp.add_argument("--r-max", type=_finite_float, default=500.0)
    sp.add_argument("--r-points", type=decay.positive_int, default=81)
    sp.add_argument("--theta-points", type=decay.positive_int, default=48)
    sp.add_argument("--out", default=None)
    sp.add_argument("--no-timestamp", action="store_true")
    _add_workers_arg(sp)
    _add_tol_args(sp)
    sp.set_defaults(func=cmd_conjecture)

    sp = sub.add_parser("verify", help="run a named acceptance suite")
    sp.add_argument("suite", nargs="?", default="all")
    _add_workers_arg(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 1) is None:
            args.workers = decay.default_workers()
        return args.func(args)
    except QuadratureBudgetError as exc:
        print(f"quadrature budget failure: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
