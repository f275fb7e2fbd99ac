"""The benchmark harness in ``perfbench/`` still runs on the package.

The tracer turns a missing layer function into missing per-layer metrics,
and the workloads call package functions by attribute; either loss breaks
the benchmark's result line rather than a test, so both are checked here.
So is what ``perfbench/run.py`` checks of a run's passes, whose failure
fails the run: no failed sample, and repeats with the first pass's repr.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE_MODULES = ("decay", "fourier", "convex_probe", "oscquad")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_required_span():
    tracer = _load("tracer").Tracer()
    with tracer.install():
        assert tracer.missing() == []


def _dotted(node):
    """'a.b.c' for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_workload_attributes_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            path = _dotted(node)
            if path and path.split(".")[0] in PACKAGE_MODULES:
                used.add(path)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lpfourier."):
            module = node.module.split(".", 1)[1]
            used.update(f"{module}.{alias.name}" for alias in node.names)
    assert any(path.startswith("decay.") for path in used)
    unresolved = []
    for path in sorted(used):
        head, *attrs = path.split(".")
        obj = importlib.import_module(f"lpfourier.{head}")
        for attr in attrs:
            if not hasattr(obj, attr):
                unresolved.append(path)
                break
            obj = getattr(obj, attr)
    assert unresolved == []


@pytest.mark.parametrize("name, count", [("lp-envelope", 1309), ("highfreq-witness", 7), ("body-conjecture", 900)])
def test_workload_passes_are_correct_and_repeatable(name, count):
    # the untimed checks of a benchmark run at seed 1: the first pass against
    # independent routes, the second for the same repr
    wl = _load("workloads").WORKLOADS[name](1)
    first, second = wl.run_pass(), wl.run_pass()
    assert wl.failures(first) == set()
    assert repr(second) == repr(first)
    assert wl.count(first) == count
