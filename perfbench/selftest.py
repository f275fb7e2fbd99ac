"""Self-tests of the benchmark's own checks, seeding and tracer.

    python3 perfbench/selftest.py

* Each workload's checker passes the program's real outputs, and one
  corrupted value (a result perturbed past its tolerance) and one budget
  error (NaN or a missing result) each land in the failed samples.
* Another seed changes the generated inputs but not the sample count.
* A tracer whose wrap target is missing reports the metric as missing.
* The traced ROADMAP default scan, ``decay.envelope_scan(1.5)``, reproduces
  the reference counts below exactly, twice (about 40 s).
"""

import dataclasses
import math
import sys

import run
import tracer

REFERENCE_COUNTS = {
    "samples": 8321,
    "oscquad.panels_evaluated": 5454910,
    "oscquad.panels_kept": 5435986,
    "fourier.seed_panels": 5417062,
    "lpgeom.phi.calls": 167345,
    "oscquad.rounds": {"1": 1626, "2": 1450, "3": 1429, "4": 1713, "5": 1599, "6": 504},
    "oscquad.budget_errors": 0,
}


def _pass(workloads, name, seed):
    wl = workloads.WORKLOADS[name](seed)
    return wl, wl.run_pass()


def test_lp_envelope_checker(workloads):
    wl, out = _pass(workloads, "lp-envelope", 1)
    assert wl.failures(out) == set(), "clean outputs must pass"
    samples = wl.flat(out)
    picks = wl.oracle_picks(samples, list(range(len(samples))))
    i, _, tol = picks[0]
    j = next(k for k in range(len(samples)) if k not in {q[0] for q in picks})

    def corrupt(index, **changes):
        flat = list(samples)
        flat[index] = dataclasses.replace(flat[index], **changes)
        groups, start = [], 0
        for p, c_est, group in out:
            groups.append((p, c_est, flat[start:start + len(group)]))
            start += len(group)
        return groups

    s = samples[i]
    assert wl.failures(corrupt(i, scaled_value=s.scaled_value + 10 * tol * s.r**1.5)) == {i}
    assert wl.failures(corrupt(j, scaled_value=math.nan, err_estimate=math.inf, method="budget-error")) == {j}


def test_highfreq_checker(workloads):
    wl, out = _pass(workloads, "highfreq-witness", 1)
    assert wl.failures(out) == set(), "clean outputs must pass"
    x, polar = out[2]
    perturbed = list(out)
    perturbed[2] = (dataclasses.replace(x, value=x.value * (1 + 1e-3)), polar)
    assert wl.failures(perturbed) == {2}
    missing = list(out)
    missing[4] = None
    assert wl.failures(missing) == {4}


def test_body_checker(workloads):
    wl, out = _pass(workloads, "body-conjecture", 1)
    assert wl.failures(out) == set(), "clean outputs must pass"
    assert wl.bodies[0].label.startswith("ellipse")
    perturbed = [dataclasses.replace(out[0], c_est=out[0].c_est + 0.1)] + out[1:]
    assert len(wl.failures(perturbed)) == 1
    missing = out[:2] + [None]
    n = wl.samples_per_scan()
    assert wl.failures(missing) == set(range(wl.count(out) - n, wl.count(out)))
    assert wl.count(missing) == wl.count(out)


def test_seed_changes_inputs_not_count(workloads):
    for name, cls in workloads.WORKLOADS.items():
        a, b = cls(1), cls(2)
        assert a.describe() != b.describe(), f"{name}: seed did not change inputs"
        assert a.count(a.run_pass()) == b.count(b.run_pass()), f"{name}: sample count depends on the seed"


def test_missing_wrap_target(workloads):
    t = tracer.Tracer()
    with t.install():
        pass
    t.wrapped.discard("lpgeom.phi")
    assert "lpgeom.phi.calls" in t.missing()
    assert "lpgeom.phi.calls" not in t.layer_metrics()


def test_reference_counts(workloads):
    from lpfourier import decay

    seen = []
    for _ in range(2):
        t = tracer.Tracer()
        with t.install():
            _, samples = decay.envelope_scan(1.5)
        c = t.counters()
        got = {"samples": len(samples), "oscquad.budget_errors": c.get("oscquad.budget_errors", 0)}
        got.update({k: c[k] for k in REFERENCE_COUNTS if k in c})
        assert got == REFERENCE_COUNTS, f"reference counts differ: {got}"
        seen.append(c)
    assert seen[0] == seen[1], "counters of two traced runs differ"


def main():
    workloads = run._import_program()
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn(workloads)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
