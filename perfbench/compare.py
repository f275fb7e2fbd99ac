"""Summarise one result set, or compare two, against the benchmark's bounds.

    python3 perfbench/compare.py results.json             # spread per metric
    python3 perfbench/compare.py parent.json change.json  # verdict per metric

Result sets come from ``perfbench/sweep.py``.  For every workload and
end-to-end metric the comparison prints each side's median and quartiles,
the pair wins of the change (runs paired by seed; ties count for neither;
the pairs ran back to back only if the sets come from one
``sweep.py --parent`` call) and a verdict:

* ``better``: the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's interquartile range, or every run of the change
  reads better than every run of the parent;
* ``worse``: the change's median is worse than the parent's by more than the
  bound (a share of the parent's median);
* ``unresolved``: neither of those, and the parent's own spread
  (IQR / median) exceeds the bound, so ``flat`` cannot be told apart;
* ``flat``: otherwise.

Per-layer counts (unit ``count``) of traced runs with the same workload and
seed must be identical; each one that differs is flagged.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path):
    with open(path) as fh:
        doc = json.load(fh)
    runs = defaultdict(dict)  # (workload, trace) -> seed -> result
    for rec in doc["runs"]:
        if "result" in rec:
            runs[(rec["workload"], rec["trace"])][rec["seed"]] = rec["result"]
    return doc, runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(by_seed, metric):
    return {seed: r["metrics"][metric]["value"] for seed, r in by_seed.items() if metric in r["metrics"]}


def verdict(base, new, better, bound, pairs):
    """One of better / unresolved / worse / flat, per the rules in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nmed = statistics.median(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if min(sign * n for n in new) > max(sign * b for b in base):
        return "better", wins
    if pairs and wins >= 0.9 * len(pairs) and sign * (nmed - bmed) > (bq3 - bq1):
        return "better", wins
    if sign * (bmed - nmed) > bound * abs(bmed):
        return "worse", wins
    if (bq3 - bq1) / abs(bmed) > bound:
        return "unresolved", wins
    return "flat", wins


def summarise(doc, runs, bench):
    print(f"machine: {json.dumps(doc.get('machine', {}))}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for (workload, trace), by_seed in sorted(runs.items()):
            vals = list(_values(by_seed, name).values())
            if trace or not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "over a third of bound")
            print(f"{workload:<17} {name:<18} n={len(vals):<3} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} (bound {bound}) {flag}")
    for (workload, trace), by_seed in sorted(runs.items()):
        bad = [s for s, r in by_seed.items() if not r["correct"] or r["failed"]]
        print(f"{workload:<17} trace={trace} runs={len(by_seed)} incorrect-or-failed seeds: {bad or 'none'}")


def compare(base_runs, new_runs, bench):
    worst = 0
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for key in sorted(set(base_runs) & set(new_runs)):
            workload, trace = key
            if trace:
                continue
            b, n = _values(base_runs[key], name), _values(new_runs[key], name)
            if not b or not n:
                print(f"{workload:<17} {name:<18} missing on one side")
                continue
            pairs = [(b[s], n[s]) for s in sorted(set(b) & set(n))]
            result, wins = verdict(list(b.values()), list(n.values()), metric["better"], bound, pairs)
            bq = quartiles(list(b.values()))
            nq = quartiles(list(n.values()))
            print(f"{workload:<17} {name:<18} parent {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                  f"change {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] wins {wins}/{len(pairs)} -> {result}")
            worst = max(worst, result == "worse")
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        if not trace:
            continue
        for seed in sorted(set(base_runs[key]) & set(new_runs[key])):
            bm, nm = base_runs[key][seed]["metrics"], new_runs[key][seed]["metrics"]
            for name in counts:
                bv, nv = bm.get(name, {}).get("value"), nm.get(name, {}).get("value")
                if bv != nv:
                    print(f"{workload:<17} seed {seed} counter {name} differs: {bv} -> {nv}")
    return worst


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    base_doc, base = _load(argv[0])
    if len(argv) == 1:
        summarise(base_doc, base, bench)
        return 0
    _, new = _load(argv[1])
    return 1 if compare(base, new, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
