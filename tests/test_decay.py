import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_all_start_methods, get_context

import numpy as np
import pytest

from lpfourier import convex_probe, decay, fourier, lpgeom
from lpfourier.oscquad import QuadConfig, QuadratureBudgetError

V_15 = 0.67561732204588437
BASE_PHASE_15 = 0.9114406848947249
V_LIMIT = 0.47442499832879435  # 2^(3/4) / (2 sqrt(pi)) as p -> 1+


def test_v_of_p_fixture():
    assert decay.v_of_p(1.5) == pytest.approx(V_15, abs=1e-13)
    for bad in (1.0, 2.0):
        with pytest.raises(ValueError):
            decay.v_of_p(bad)


def test_v_of_p_scaling_limit():
    assert decay.v_of_p(1.001) * math.sqrt(0.001) == pytest.approx(V_LIMIT, rel=2e-3)


def test_envelope_upper_coeff():
    assert decay.ENVELOPE_UPPER_COEFF == pytest.approx(14.270485, abs=1e-5)
    assert decay.SEQUENCE_LOWER_COEFF == pytest.approx(5.961800, abs=1e-5)


def test_stationary_sequence_spec():
    spec = decay.stationary_sequence(1.5, 1, 8)
    assert spec.base_phase == pytest.approx(BASE_PHASE_15, abs=1e-14)
    assert spec.theta_star == pytest.approx(lpgeom.theta_star(1.5), abs=1e-15)
    rs = np.asarray(spec.r_values)
    assert np.all(np.diff(rs) > 0)
    # r_{2n} = 2 r_n exactly (both are rounded from exact doubles)
    assert spec.r_values[3] == 2.0 * spec.r_values[1]
    assert spec.r_values[7] == 2.0 * spec.r_values[3]
    # phase alignment: r_n * base_phase sits on 2 pi Z
    for n, r in zip(range(1, 9), spec.r_values):
        assert abs(math.sin(r * spec.base_phase)) <= 1e-9
    # the scan's witness radii use the same base phase: the aligned ones are the r_n
    witness = decay.witness_r_values(1.5, 0.5 * spec.r_values[0], 1.01 * spec.r_values[-1])
    assert set(spec.r_values) <= set(witness.tolist())
    for bad_p in (1.0, 2.0):
        with pytest.raises(ValueError):
            decay.stationary_sequence(bad_p, 1, 4)
    with pytest.raises(ValueError):
        decay.stationary_sequence(1.5, 0, 4)


def test_sequence_values_converge():
    spec = decay.stationary_sequence(1.5, 200, 200)
    (n, sample), = decay.sequence_values(1.5, spec)
    scaled = sample.scaled_value
    assert n == 200
    assert scaled == pytest.approx(V_15, rel=0.05)


def test_sequence_values_match_single_samples(monkeypatch):
    spec = decay.stationary_sequence(1.5, 1, 40)
    want = [decay.scaled_sample(1.5, r, spec.theta_star) for r in spec.r_values]
    for size in (7, decay.BATCH_SAMPLES):
        monkeypatch.setattr(decay, "BATCH_SAMPLES", size)
        got = decay.sequence_values(1.5, spec)
        assert [n for n, _ in got] == list(range(1, 41))
        assert [s for _, s in got] == want, size


def test_sequence_values_name_the_first_failure(monkeypatch):
    # with 24 panels the samples from n = 22 on miss their tolerance: their
    # seeds hold 25 panels and more
    cfg = QuadConfig(max_panels=24)
    spec = decay.stationary_sequence(1.5, 1, 40)
    n, r = next(
        (n, r)
        for n, r in enumerate(spec.r_values, 1)
        if decay.scaled_sample(1.5, r, spec.theta_star, cfg).method == "budget-error"
    )
    assert n == 22
    for size in (8, decay.BATCH_SAMPLES):
        monkeypatch.setattr(decay, "BATCH_SAMPLES", size)
        with pytest.raises(QuadratureBudgetError, match=re.escape(f"witness sample n={n} (r={r!r}) failed")):
            decay.sequence_values(1.5, spec, cfg)


def test_sequence_failure_keeps_the_engine_reason():
    # the n = 22 seed holds more panels than the budget: the engine reports
    # 'seed-budget', and the sample and the raised error carry it
    cfg = QuadConfig(max_panels=24)
    spec = decay.stationary_sequence(1.5, 22, 22)
    (sample,) = decay.scaled_samples(1.5, [(spec.r_values[0], spec.theta_star)], cfg)
    assert (sample.method, sample.reason) == ("budget-error", "seed-budget")
    with pytest.raises(QuadratureBudgetError) as caught:
        decay.sequence_values(1.5, spec, cfg)
    assert caught.value.reason == "seed-budget"


def test_sequence_scaling_band():
    # scaled * sqrt(p-1) stays within [0.3, 1.0] near p = 1
    for p in (1.05, 1.1, 1.2, 1.3):
        spec = decay.stationary_sequence(p, 200, 200)
        (_, sample), = decay.sequence_values(p, spec)
        scaled = sample.scaled_value
        assert 0.3 <= scaled * math.sqrt(p - 1.0) <= 1.0


def test_sequence_deviation_tail_monotone():
    # |scaled(n) - V| decreases beyond the early-n peak on the doubling set
    for p in (1.2, 1.5):
        v_ref = decay.v_of_p(p)
        devs = []
        for n in (25, 50, 100, 200):
            spec = decay.stationary_sequence(p, n, n)
            (_, sample), = decay.sequence_values(p, spec)
            scaled = sample.scaled_value
            devs.append(abs(scaled - v_ref))
        peak = int(np.argmax(devs))
        assert peak <= 1
        assert all(devs[i] > devs[i + 1] for i in range(peak, len(devs) - 1))


def test_upper_bound_check():
    check = decay.upper_bound_check(2.0, 0.798)
    assert check.passed
    assert check.bound == pytest.approx(14.270485, abs=1e-4)
    assert check.slack_ratio == pytest.approx(check.bound / 0.798, rel=1e-12)
    assert not decay.upper_bound_check(1.1, 1000.0).passed
    with pytest.raises(ValueError):
        decay.upper_bound_check(1.0, 1.0)


def test_fit_power_law():
    u = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = decay.fit_power_law(u, 3.0 * u**-0.5)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.max_abs_residual <= 1e-12
    const = decay.fit_power_law(u, np.full(5, 2.7))
    assert const.slope == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        decay.fit_power_law([1.0], [1.0])
    with pytest.raises(ValueError):
        decay.fit_power_law([1.0, -2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
    # one distinct abscissa leaves the slope undetermined
    with pytest.raises(ValueError, match="distinct"):
        decay.fit_power_law([0.1, 0.1, 0.1, 0.1], [1.0, 2.0, 3.0, 4.0])


def test_blowup_fit_validation():
    with pytest.raises(ValueError):
        decay.blowup_fit((1.1, 1.2, 1.3), 50)
    with pytest.raises(ValueError):
        decay.blowup_fit((1.1, 1.2, 1.3, 1.7), 50)


def test_blowup_fit_matches_asymptote_fit():
    grid = (1.05, 1.1, 1.2, 1.3, 1.4)
    fit = decay.blowup_fit(grid, 200)
    ref = decay.fit_asymptote_reference(grid)
    assert ref.slope == pytest.approx(-0.4999, abs=2e-3)
    assert abs(fit.slope - ref.slope) <= 0.03


def test_default_grids():
    r = decay.default_r_grid(5.0, 2000.0, 60)
    assert r[0] == pytest.approx(5.0) and r[-1] == pytest.approx(2000.0)
    assert len(r) == int(np.ceil(60 * np.log10(400.0))) + 1
    th = decay.default_theta_grid(1.5)
    assert th[0] == pytest.approx(math.pi / 4)
    assert th[-1] == math.pi / 2
    assert np.any(np.abs(th - lpgeom.theta_star(1.5)) < 1e-15)
    for r_min, r_max in ((1.0, 2000.0), (5.0, math.inf), (5.0, math.nan)):
        with pytest.raises(ValueError):
            decay.default_r_grid(r_min, r_max)


def test_envelope_scan_small():
    r_grid = np.geomspace(5.0, 40.0, 12)
    theta_grid = np.linspace(math.pi / 4, math.pi / 2, 7)
    c_est, samples = decay.envelope_scan(1.5, r_grid, theta_grid)
    assert c_est > 0
    assert all(s.scaled_value <= decay.upper_bound_check(1.5, 1.0).bound for s in samples)
    # theta* inserted even though the custom grid lacks it
    assert any(abs(s.theta - lpgeom.theta_star(1.5)) < 1e-12 for s in samples)
    # witnesses included: the scan max dominates the aligned sequence values
    spec = decay.stationary_sequence(1.5, 1, 5)
    for r in spec.r_values:
        if r_grid[0] <= r <= r_grid[-1]:
            s = decay.scaled_sample(1.5, r, spec.theta_star)
            assert c_est >= s.scaled_value - 1e-12


def test_envelope_scan_grid_inclusion():
    r_small = np.geomspace(5.0, 30.0, 8)
    r_big = np.geomspace(5.0, 30.0, 15)
    th = np.linspace(math.pi / 4, math.pi / 2, 5)
    c_small, _ = decay.envelope_scan(1.4, r_small, th)
    c_big, _ = decay.envelope_scan(1.4, np.union1d(r_small, r_big), th)
    assert c_big >= c_small


def test_envelope_scan_witnesses_span_unsorted_grid():
    # the witness range is the grid's extent, not its first and last entries
    th = [1.0, 1.3]
    _, unsorted = decay.envelope_scan(1.5, [40.0, 5.0, 20.0], th)
    _, ordered = decay.envelope_scan(1.5, [5.0, 20.0, 40.0], th)
    assert len(unsorted) == 19
    assert set(unsorted) == set(ordered)


def test_envelope_scan_validation():
    with pytest.raises(ValueError):
        decay.envelope_scan(1.0)
    with pytest.raises(ValueError):
        decay.envelope_scan(1.5, r_grid=np.array([1.0, 10.0]))


def test_envelope_scan_worker_determinism():
    r_grid = np.geomspace(5.0, 50.0, 10)
    th = np.linspace(math.pi / 4, math.pi / 2, 5)
    c1, s1 = decay.envelope_scan(1.3, r_grid, th, workers=1)
    c2, s2 = decay.envelope_scan(1.3, r_grid, th, workers=2)
    assert c1 == c2
    assert s1 == s2


def test_envelope_scan_aborts_on_mass_failure():
    cfg = QuadConfig(max_panels=2)
    r_grid = np.geomspace(500.0, 2000.0, 4)
    th = np.linspace(math.pi / 4, math.pi / 2, 3)
    with pytest.raises(QuadratureBudgetError) as caught:
        decay.envelope_scan(1.5, r_grid, th, cfg)
    # the reason is the first failed sample's, in point order
    points = decay._polar_points(r_grid, np.sort(np.append(th, lpgeom.theta_star(1.5))))
    first = next(s for s in decay.scaled_samples(1.5, points, cfg) if s.method == "budget-error")
    assert caught.value.reason == first.reason


def test_off_angle_decay():
    # diamond: scaled values obey (2/pi) sqrt(r) outright
    for r in (10.0, 100.0, 1000.0):
        for th in (math.pi / 4, 1.0, math.pi / 2):
            om = fourier.Frequency.from_polar(r, th)
            scaled = r**1.5 * abs(fourier.chi_hat_l1_closed(om))
            assert scaled <= (2.0 / math.pi) * math.sqrt(r) * (1 + 1e-12)
    quad = r**1.5 * abs(fourier.chi_hat_lp(1.0, om).value)
    assert quad <= (2.0 / math.pi) * math.sqrt(r) * (1 + 1e-9)
    # away from the witness direction the scaled transform decays: at
    # theta = pi/2 the stationary point degenerates to the endpoint
    s = decay.scaled_sample(1.5, 1000.0, math.pi / 2)
    assert s.scaled_value < 0.2 * V_15


def test_witness_r_values_offsets():
    rs = decay.witness_r_values(1.5, 5.0, 100.0)
    spec = decay.stationary_sequence(1.5, 1, 14)
    aligned = [r for r in spec.r_values if 5.0 <= r <= 100.0]
    for r in aligned:
        assert np.any(np.abs(rs - r) < 1e-12)
        # the companion at three eighths of a period sits at the peak of the oscillation
        assert np.any(np.abs(rs - (r + 3.0 * math.pi / (4 * spec.base_phase))) < 1e-12)
    assert decay.witness_r_values(2.0, 5.0, 100.0).size == 0


def test_witness_offset_reads_the_peak():
    # the offset companion of r_n reads near the peak asymptote sqrt(2) v_of_p
    # (the companion at r_n + pi/(4 base) read 0.0044 v_of_p at n = 116)
    p = 1.5
    spec = decay.stationary_sequence(p, 100, 116)
    for n in (100, 116):
        r_n = spec.r_values[n - 100]
        r = r_n + 3.0 * math.pi / (4.0 * spec.base_phase)
        assert r in decay.witness_r_values(p, r_n, r + 1.0).tolist()
        s = decay.scaled_sample(p, r, spec.theta_star)
        assert s.scaled_value >= 1.3 * decay.v_of_p(p), n


def test_default_workers_rejects_bad_values(monkeypatch):
    monkeypatch.delenv("LPFOURIER_WORKERS", raising=False)
    assert decay.default_workers() == 1
    monkeypatch.setenv("LPFOURIER_WORKERS", "3")
    assert decay.default_workers() == 3
    for text in ("abc", "-3", "0", "1.5", ""):
        monkeypatch.setenv("LPFOURIER_WORKERS", text)
        with pytest.raises(ValueError, match="LPFOURIER_WORKERS"):
            decay.default_workers()


def test_scans_reject_nonpositive_workers():
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            decay._ordered_map(abs, [1.0], workers)
        with pytest.raises(ValueError, match="workers"):
            decay.envelope_scan(1.5, [5.0], [1.0], workers=workers)


@pytest.mark.parametrize("scan", ["envelope", "conjecture"])
@pytest.mark.parametrize("r_grid", [[], [4.0, 10.0], [10.0, math.inf], [math.nan, 10.0]])
def test_scans_share_the_r_grid_check(scan, r_grid):
    with pytest.raises(ValueError, match="r_grid must be nonempty and finite with min >= 5"):
        if scan == "envelope":
            decay.envelope_scan(1.5, r_grid, [1.0])
        else:
            convex_probe.conjecture_scan(convex_probe.disk_body(), r_grid, [1.0])


@pytest.mark.parametrize("scan", ["envelope", "conjecture"])
def test_scans_reject_non_finite_angles(scan):
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="theta_grid must be finite"):
            if scan == "envelope":
                decay.envelope_scan(1.5, [10.0], [1.0, theta])
            else:
                convex_probe.conjecture_scan(convex_probe.disk_body(), [10.0], [1.0, theta])


def test_envelope_samples_do_not_depend_on_batching(monkeypatch):
    r_grid = np.geomspace(5.0, 300.0, 7)
    th = [0.9, 1.2, math.pi / 2]
    _, want = decay.envelope_scan(1.3, r_grid, th)
    for size in (1, 5, 1000):
        monkeypatch.setattr(decay, "BATCH_SAMPLES", size)
        _, got = decay.envelope_scan(1.3, r_grid, th)
        assert got == want, size
    # a sample alone is the sample in its batch
    for s in want[::5]:
        assert decay.scaled_sample(1.3, s.r, s.theta) == s


def test_budget_error_marks_only_its_sample():
    # the seeds of r <= 100 at this angle hold at most 22 panels; r = 900
    # takes 65 V-steps and 77 panels with its gradings, which the engine
    # rejects, and r = 5000 needs 357 V-steps, which the seed rejects: the
    # larger radii fail, alone
    cfg = QuadConfig(max_panels=70)
    points = [(r, 1.1) for r in (20.0, 900.0, 60.0, 5000.0, 100.0)]
    batch = decay.scaled_samples(1.5, points, cfg)
    assert [s.method for s in batch] == ["reduction-x", "budget-error"] * 2 + ["reduction-x"]
    for (r, t), s in zip(points, batch):
        alone = decay.scaled_sample(1.5, r, t, cfg)
        if s.method == "budget-error":
            assert alone.method == "budget-error" and math.isnan(s.scaled_value)
            assert s.reason == alone.reason == ("seed-budget" if r == 900.0 else "unseedable")
        else:
            assert alone == s and s.reason is None


def _worker_pid(_):
    return os.getpid()


def _worker_exit(_):
    os._exit(1)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _run_python(code):
    """Run code in a fresh interpreter; it must exit 0 with empty stderr,
    and its last stdout line is returned parsed as JSON."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    return json.loads(done.stdout.splitlines()[-1])


def test_pool_outlives_its_scan():
    first = set(decay._ordered_map(_worker_pid, range(16), 2))
    second = set(decay._ordered_map(_worker_pid, range(16), 2))
    # a pool per call would serve the second call from new processes
    assert len(first | second) <= 2
    assert os.getpid() not in first
    assert all(_alive(pid) for pid in first | second)


def test_other_worker_count_replaces_the_pool():
    old = set(decay._ordered_map(_worker_pid, range(16), 2))
    new = set(decay._ordered_map(_worker_pid, range(16), 3))
    assert not old & new
    # the old pool was shut down and its workers joined
    assert not any(_alive(pid) for pid in old)
    decay._ordered_map(_worker_pid, range(4), 2)


def test_broken_pool_is_raised_then_replaced():
    with pytest.raises(BrokenProcessPool):
        decay._ordered_map(_worker_exit, [0], 2)
    r_grid = np.geomspace(5.0, 50.0, 4)
    th = [0.9, math.pi / 2]
    assert decay.envelope_scan(1.3, r_grid, th, workers=2) == decay.envelope_scan(1.3, r_grid, th)


def test_pooled_scan_exits_clean():
    # the process exits without an explicit shutdown: concurrent.futures
    # joins the cached pool's workers at interpreter exit
    code = (
        "import json, math, multiprocessing\n"
        "from lpfourier import convex_probe\n"
        "rep = convex_probe.conjecture_scan(convex_probe.disk_body(), [5.0, 9.0, 17.0], "
        "[0.0, 0.8, math.pi / 2], workers=2)\n"
        "pids = [c.pid for c in multiprocessing.active_children()]\n"
        "print(json.dumps({'c_est': rep.c_est, 'pids': pids}))\n"
    )
    out = _run_python(code)
    assert out["c_est"] > 0.0 and out["pids"]
    assert not any(_alive(pid) for pid in out["pids"])


@pytest.mark.skipif("fork" not in get_all_start_methods(), reason="needs the fork start method")
def test_forked_child_builds_its_own_pool():
    # the child inherits the parent's cached pool but not its manager
    # thread, so it must start its own, and shut that down when it ends:
    # a multiprocessing child skips the interpreter's exit hooks
    code = (
        "import json, multiprocessing, os\n"
        "from lpfourier import decay\n"
        "def pid(_):\n"
        "    return os.getpid()\n"
        "def child(queue):\n"
        "    queue.put(sorted(set(decay._ordered_map(pid, range(8), 2))))\n"
        "if __name__ == '__main__':\n"
        "    mine = set(decay._ordered_map(pid, range(8), 2))\n"
        "    ctx = multiprocessing.get_context('fork')\n"
        "    queue = ctx.Queue()\n"
        "    proc = ctx.Process(target=child, args=(queue,))\n"
        "    proc.start()\n"
        "    theirs = queue.get(timeout=60)\n"
        "    proc.join(60)\n"
        "    print(json.dumps({'mine': sorted(mine), 'theirs': theirs, 'exit': proc.exitcode}))\n"
    )
    out = _run_python(code)
    assert out["exit"] == 0
    assert out["theirs"] and not set(out["mine"]) & set(out["theirs"])
    assert not any(_alive(pid) for pid in out["mine"] + out["theirs"])


def test_envelope_tasks_run_under_spawn():
    # scan tasks carry their inputs, so workers need no state inherited by fork
    cfg = QuadConfig()
    points = [(r, t) for r in (5.0, 40.0, 300.0) for t in (0.9, lpgeom.theta_star(1.5), math.pi / 2)]
    tasks = [(1.5, points[i : i + 3], cfg) for i in range(0, len(points), 3)]
    serial = [decay._sample_batch_worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        pooled = list(pool.map(decay._sample_batch_worker, tasks))
    assert pooled == serial


@pytest.mark.parametrize("workers", [1, 2])
def test_scans_do_not_depend_on_the_split(monkeypatch, workers):
    # an envelope scan and a poly-body conjecture scan are byte for byte the
    # same whatever the batch size and the worker count
    r_grid = np.geomspace(5.0, 300.0, 5)
    th = [0.9, 1.2, math.pi / 2]
    body = convex_probe.poly_body([1.0, 0.0, -0.5, 0.0, -0.5], 1.0)
    want = None
    for size in (1, 7, 32, decay.BATCH_SAMPLES, 10**6):
        monkeypatch.setattr(decay, "BATCH_SAMPLES", size)
        got = repr((
            decay.envelope_scan(1.3, r_grid, th, workers=workers),
            convex_probe.conjecture_scan(body, r_grid, th, workers=workers),
        ))
        want = want or got
        assert got == want, size


def test_scan_tasks_hold_at_most_batch_samples(monkeypatch):
    # the points are dealt round-robin: every task within BATCH_SAMPLES, the
    # same task count for every worker, and the outputs back in point order
    seen = []

    def serial_map(fn, tasks, workers):
        seen.append(tasks)
        return [fn(t) for t in tasks]

    monkeypatch.setattr(decay, "_ordered_map", serial_map)
    points = [(float(i), 0.0) for i in range(301)]
    for size in (1, 7, 64, 1000):
        monkeypatch.setattr(decay, "BATCH_SAMPLES", size)
        for workers in (1, 2, 3):
            for n in (1, 2, 5, 301):
                seen.clear()
                assert decay._scan(lambda task: task[1], None, points[:n], None, workers) == points[:n]
                (tasks,) = seen
                assert max(len(t[1]) for t in tasks) <= size
                assert len(tasks) % workers == 0 or len(tasks) == n
