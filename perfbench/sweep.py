"""Run the benchmark over several seeds and collect a result set.

    python3 perfbench/sweep.py --out results.json --seeds 1-10 [--workloads a,b] [--trace 0|1]
    python3 perfbench/sweep.py --out change.json --parent ../parent --parent-out parent.json

Each run is ``perfbench/run.py`` in a fresh process at the ``run_seconds``
of ``BENCHMARK.json`` (or ``--seconds``); its metric lines are echoed, so
``--seeds 1`` prints every metric of every workload.  A result set is
rewritten after every run; it holds a machine block and one record per run.
Summarise it, or compare two of them, with ``perfbench/compare.py``.

With ``--parent`` (the root of a checkout of the parent commit, holding its
own ``perfbench/run.py``), every seed runs on both trees back to back, the
parent first on odd seeds and the change first on even ones, so that the
pairs ``compare.py`` forms by seed see the same state of the machine.
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _lscpu():
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _git_commit(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=root)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def machine_info(root):
    """nproc, CPU model, cache sizes and versions, read-only from lscpu and the interpreter."""
    cpu = _lscpu()
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name"),
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(root),
    }


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(root, workload, seed, trace, seconds):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=600)
    lines = done.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "exit": done.returncode}
    if done.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = done.stderr[-2000:]
    status = "ok" if "result" in record and record["result"]["correct"] else "FAILED"
    print(f"{root.name} {workload} seed {seed}: {status}")
    print("\n".join(lines[:-1]), flush=True)
    return record


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--parent", type=Path, help="root of the parent checkout, run interleaved with this one")
    ap.add_argument("--parent-out", help="result set of the parent runs (required with --parent)")
    args = ap.parse_args(argv)
    if (args.parent is None) != (args.parent_out is None):
        ap.error("--parent and --parent-out go together")

    sets = [(ROOT, args.out)]
    if args.parent is not None:
        sets.append((args.parent.resolve(), args.parent_out))
    docs = {out: {"machine": machine_info(root), "seconds": args.seconds, "runs": []} for root, out in sets}
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            for root, out in (sets if seed % 2 == 0 else sets[::-1]):
                docs[out]["runs"].append(_run(root, workload, seed, args.trace, args.seconds))
                with open(out, "w") as fh:
                    json.dump(docs[out], fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
