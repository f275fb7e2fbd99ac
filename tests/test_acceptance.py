"""Acceptance gate: every criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion, or `lpfourier verify all` for the same table.
LPFOURIER_WORKERS controls sample-level parallelism.
"""

import pytest

from lpfourier import decay, verify

WORKERS = decay.default_workers()


@pytest.mark.parametrize(
    "cid", verify.CRITERIA, ids=[f"{cid}-{c.name}" for cid, c in verify.CRITERIA.items()]
)
def test_acceptance_criterion(cid):
    result = verify.run_criterion(cid, workers=WORKERS)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {cid:<4} {result.name:<22} {result.seconds:7.1f}s  {result.detail}")
    assert result.passed, f"{cid} {result.name}: {result.detail}"
