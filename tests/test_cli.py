import json
import math
import warnings

import pytest

from lpfourier import cli, fourier

BRUTE_15_34 = -0.06419374168744058  # brute-force 2-D value at p=1.5, omega=(3,4)


def run_cli(args):
    return cli.main(args)


def test_transform_l1_fixture(capsys):
    assert run_cli(["transform", "--p", "1", "--alpha", "3.14159265358979", "--beta", "6.28318530717959"]) == 0
    out = capsys.readouterr().out
    value = float(out.split("value=")[1].split()[0])
    assert value == pytest.approx(-4.0 / (3.0 * math.pi**3), abs=1e-9)
    assert "method=reduction-x" in out


def test_transform_zero_frequency(capsys):
    assert run_cli(["transform", "--p", "2", "--alpha", "0", "--beta", "0"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("value=")[1].split()[0]) == pytest.approx(0.5, abs=1e-9)
    assert "method=zero-frequency" in out


def test_transform_matches_bruteforce_fixture(capsys):
    assert run_cli(["transform", "--p", "1.5", "--alpha", "3", "--beta", "4"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("value=")[1].split()[0]) == pytest.approx(BRUTE_15_34, abs=1e-9)


def test_transform_rejects_bad_p(capsys):
    assert run_cli(["transform", "--p", "2.5", "--alpha", "1", "--beta", "1"]) == 2


def test_transform_budget_failure_exit_code(capsys):
    # a tolerance below the attainable floor must fail loudly with code 3
    code = run_cli(
        ["transform", "--p", "1.5", "--alpha", "900", "--beta", "1200", "--abs-tol", "1e-16", "--rel-tol", "1e-16"]
    )
    assert code == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1", "1.5", "2"])
@pytest.mark.parametrize("freq", ["1e298", "1e300", "1e308"])
def test_transform_huge_frequency_exit_code(capsys, p, freq):
    # the seed partition outgrows the panel budget: exit 3, not an overflow
    # traceback, nor a usage error where alpha + beta overflows (1e308)
    assert run_cli(["transform", "--p", p, "--alpha", freq, "--beta", freq]) == 3
    err = capsys.readouterr().err
    assert "exceeds max_panels" in err
    if freq == "1e308":
        assert "|omega| = 1.414e+308" in err


def test_envelope_csv_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "env.csv"
    out_json = tmp_path / "env.json"
    code = run_cli(
        [
            "envelope", "--p", "1.5", "--r-min", "5", "--r-max", "40",
            "--per-decade", "8", "--theta-points", "6",
            "--out", str(out_csv), "--summary", str(out_json), "--no-timestamp",
        ]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "# lpfourier 0.1.0"
    assert lines[1].startswith("# config: {")
    assert lines[2] == "p,r,theta,scaled_value,err_estimate,method"
    assert not any(line.startswith("# timestamp") for line in lines)
    first = lines[3].split(",")
    assert len(first) == 6
    assert first[-1] == "reduction-x"
    # floats round-trip through repr
    assert float(first[1]) == 5.0
    summary = json.loads(out_json.read_text())
    assert summary["upper_ok"] is True
    assert summary["n_failed"] == 0
    assert summary["c_est"] <= summary["upper_bound"]
    assert "v_of_p" in summary and "timestamp" not in summary
    assert isinstance(summary["c_est"], float)


def test_envelope_reproducible_bytes(tmp_path):
    args = [
        "envelope", "--p", "1.3", "--r-min", "5", "--r-max", "25",
        "--per-decade", "6", "--theta-points", "5", "--no-timestamp",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sa, sb = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a), "--summary", str(sa)]) == 0
    assert run_cli(args + ["--out", str(b), "--summary", str(sb), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert sa.read_bytes() == sb.read_bytes()


def test_envelope_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    # empty r-range
    assert run_cli(["envelope", "--p", "1.5", "--r-min", "50", "--r-max", "10", "--out", out]) == 2
    # p = 1 has no finite envelope bound
    assert run_cli(["envelope", "--p", "1.0", "--out", out]) == 2


def test_sequence_csv(tmp_path):
    out = tmp_path / "seq.csv"
    code = run_cli(
        ["sequence", "--p", "1.5", "--n-min", "2", "--n-max", "5", "--out", str(out), "--no-timestamp"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "n,r_n,scaled_value,v_of_p,err_estimate"
    rows = [line.split(",") for line in lines[3:]]
    assert [r[0] for r in rows] == ["2", "3", "4", "5"]
    assert float(rows[0][3]) == pytest.approx(0.67561732204588437, abs=1e-12)


def test_sequence_budget_failure_exit_code(capsys):
    # a witness sample that misses its tolerance fails the command with code 3
    # instead of writing nan/inf rows
    code = run_cli(
        ["sequence", "--p", "1.5", "--n-min", "3", "--n-max", "4", "--out", "-",
         "--abs-tol", "1e-300", "--rel-tol", "1e-300"]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert "nan" not in captured.out


def test_envelope_budget_failure_exit_code(capsys):
    # a scan that loses more than 1% of its samples to the budget exits with code 3
    code = run_cli(
        ["envelope", "--p", "1.5", "--r-min", "5", "--r-max", "6", "--per-decade", "2",
         "--theta-points", "2", "--out", "-", "--abs-tol", "1e-300", "--rel-tol", "1e-300"]
    )
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_envelope_verdict_counts_error_estimate(tmp_path, monkeypatch, capsys):
    # one sample whose estimate reaches past the bound fails the verdict,
    # while c_est and the argmax keep their bare-value definitions
    args = ["envelope", "--p", "1.5", "--r-min", "5", "--r-max", "6", "--per-decade", "2",
            "--theta-points", "2", "--out", str(tmp_path / "env.csv"), "--no-timestamp"]
    assert run_cli(args + ["--summary", str(tmp_path / "plain.json")]) == 0
    plain = json.loads((tmp_path / "plain.json").read_text())
    chi_hat_lp_batch = fourier.chi_hat_lp_batch
    calls = []

    def widened(p, omegas, cfg=None):
        out = chi_hat_lp_batch(p, omegas, cfg)
        for i, res in enumerate(out):
            calls.append(omegas[i])
            if len(calls) == 2:
                out[i] = fourier.TransformResult(res.value, 1e3, res.method)
        return out

    monkeypatch.setattr(fourier, "chi_hat_lp_batch", widened)
    assert run_cli(args + ["--summary", str(tmp_path / "wide.json")]) == 1
    wide = json.loads((tmp_path / "wide.json").read_text())
    assert plain["upper_ok"] and not wide["upper_ok"]
    for key in ("c_est", "upper_bound", "slack_ratio", "argmax_r", "argmax_theta"):
        assert wide[key] == plain[key], key


def test_sequence_usage_errors(tmp_path):
    out = str(tmp_path / "seq.csv")
    assert run_cli(["sequence", "--p", "2.0", "--n-min", "1", "--n-max", "3", "--out", out]) == 2
    assert run_cli(["sequence", "--p", "1.5", "--n-min", "5", "--n-max", "3", "--out", out]) == 2


def test_fit_json(tmp_path):
    out = tmp_path / "fit.json"
    code = run_cli(
        [
            "fit", "--p-list", "1.05,1.1,1.2,1.3,1.4", "--n-ref", "50",
            "--out", str(out), "--no-timestamp",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert -0.7 < payload["slope"] < -0.3
    assert payload["config"]["n_ref"] == 50
    assert payload["config"]["p_list"] == [1.05, 1.1, 1.2, 1.3, 1.4]


def test_fit_usage_error():
    assert run_cli(["fit", "--p-list", "1.1,1.2"]) == 2


DISK_SPEC = {"label": "disk", "kind": "ellipse", "params": {"a": 1, "b": 1}}


def test_conjecture_json(tmp_path):
    body = tmp_path / "body.json"
    body.write_text(json.dumps(DISK_SPEC))
    out = tmp_path / "report.json"
    code = run_cli(
        [
            "conjecture", "--body-file", str(body),
            "--r-min", "5", "--r-max", "30", "--r-points", "10", "--theta-points", "7",
            "--out", str(out), "--no-timestamp",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["upper_ok"] is True
    assert payload["nu"] == pytest.approx(1.0, abs=1e-8)
    assert payload["witness_max"] <= payload["c_est"] <= payload["bound"]
    assert payload["config"]["body"] == DISK_SPEC


def test_conjecture_reproducible_bytes(tmp_path):
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"kind": "ellipse", "params": {"a": 2, "b": 1}}))
    args = [
        "conjecture", "--body-file", str(body), "--r-min", "5", "--r-max", "30",
        "--r-points", "6", "--theta-points", "5", "--no-timestamp",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_conjecture_huge_radii_exit_code(tmp_path, capsys):
    # alpha + beta * slope overflows at the top radius, and every seed at
    # these radii outgrows the panel budget: exit 3 naming |omega|, not a
    # usage error about the rate
    body = tmp_path / "body.json"
    params = {"coeffs": [1, 0, -0.5, 0, -0.5], "half_width": 1}
    body.write_text(json.dumps({"kind": "custom-poly-coeffs", "params": params}))
    out = tmp_path / "r.json"
    args = ["conjecture", "--body-file", str(body), "--r-min", "1e307", "--r-max", "1e308"]
    assert run_cli(args + ["--r-points", "2", "--theta-points", "3", "--out", str(out)]) == 3
    assert "exceeds max_panels" in capsys.readouterr().err
    assert not out.exists()


def test_conjecture_counterexample_exit_code(tmp_path, monkeypatch):
    from lpfourier import convex_probe

    body = tmp_path / "body.json"
    body.write_text(json.dumps({"kind": "ellipse", "params": {"a": 1, "b": 1}}))

    fake = convex_probe.ConjectureReport(
        label="fake", nu=1.0, c_est=99.0, bound=14.27, upper_ok=False,
        witness_max=99.0, notes="BOUND VIOLATED: counterexample candidate",
    )
    monkeypatch.setattr(cli.convex_probe, "conjecture_scan", lambda *a, **k: fake)
    code = run_cli(["conjecture", "--body-file", str(body), "--out", str(tmp_path / "r.json")])
    assert code == 4


BAD_BODY_SPECS = {
    "not-an-object": ([1, 2], "JSON object"),
    "missing-param": ({"kind": "ellipse", "params": {}}, "a, b"),
    "null-param": ({"kind": "ellipse", "params": {"a": None, "b": 1}}, "bad parameter type"),
    "odd-poly": (
        {"kind": "custom-poly-coeffs", "params": {"coeffs": [1.0, 0.3, -1.0, -0.3], "half_width": 1.0}},
        "even",
    ),
}


@pytest.mark.parametrize("name", list(BAD_BODY_SPECS))
def test_conjecture_bad_body_spec_is_usage_error(tmp_path, capsys, name):
    spec, message = BAD_BODY_SPECS[name]
    body = tmp_path / "body.json"
    body.write_text(json.dumps(spec))
    assert run_cli(["conjecture", "--body-file", str(body), "--out", str(tmp_path / "r.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_verify_unknown_suite():
    assert run_cli(["verify", "no-such-suite"]) == 2


def test_verify_propagates_criterion_key_error(monkeypatch):
    # a KeyError inside a criterion is a fault, not an unknown suite name
    from lpfourier import verify

    def broken(workers=1):
        raise KeyError("inside c2")

    monkeypatch.setitem(verify.CRITERIA, "c2", verify.CRITERIA["c2"]._replace(check=broken))
    with pytest.raises(KeyError, match="inside c2"):
        run_cli(["verify", "closed-forms"])


def test_verify_quick_suite(capsys):
    assert run_cli(["verify", "quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 4
    assert "FAIL" not in out


def test_workers_flag_must_be_positive(tmp_path, capsys):
    for bad in ("0", "-2", "abc"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["envelope", "--p", "1.5", "--out", str(tmp_path / "e.csv"), "--workers", bad])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_count_flags_must_be_positive(tmp_path, capsys):
    body = tmp_path / "body.json"
    body.write_text(json.dumps(DISK_SPEC))
    envelope = ["envelope", "--p", "1.5", "--r-min", "5", "--r-max", "6", "--out", "-"]
    conjecture = ["conjecture", "--body-file", str(body), "--out", "-"]
    cases = [
        (envelope, "--per-decade"),
        (envelope, "--theta-points"),
        (conjecture, "--theta-points"),
        (conjecture, "--r-points"),
    ]
    for base, flag in cases:
        with pytest.raises(SystemExit) as exc:
            run_cli(base + [flag, "0"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["inf", "1e400", "nan"])
def test_non_finite_radius_is_usage_error(tmp_path, capsys, bad):
    # rejected as the flag is parsed, before any grid: exit 2, one error line, no warning
    body = tmp_path / "body.json"
    body.write_text(json.dumps(DISK_SPEC))
    envelope = ["envelope", "--p", "1.5", "--out", "-"]
    conjecture = ["conjecture", "--body-file", str(body), "--out", "-"]
    for base in (envelope, conjecture):
        for flag in ("--r-min", "--r-max"):
            with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as exc:
                warnings.simplefilter("always")
                run_cli(base + [flag, bad])
            assert exc.value.code == 2
            assert not caught
            captured = capsys.readouterr()
            assert f"error: argument {flag}: expected a finite number" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""


def test_bad_workers_env_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LPFOURIER_WORKERS", "abc")
    args = [
        "envelope", "--p", "1.5", "--r-min", "5", "--r-max", "6", "--per-decade", "2",
        "--theta-points", "2", "--out", str(tmp_path / "e.csv"), "--no-timestamp",
    ]
    assert run_cli(args) == 2
    assert "LPFOURIER_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()
    # an explicit flag overrides the variable
    assert run_cli(args + ["--workers", "1", "--summary", str(tmp_path / "s.json")]) == 0
