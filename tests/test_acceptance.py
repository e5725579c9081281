"""The acceptance gate: every criterion runs at its stated tolerance.

Each test executes one tier, prints its pass/fail line, and asserts both the
exact result and the tier's wall-clock budget.
"""

import pytest

from fsz_lab import acceptance
from fsz_lab.acceptance import acceptance_tiers, run_acceptance

TIERS = acceptance_tiers(None)


@pytest.mark.parametrize("key,name,limit,fn", TIERS, ids=[t[0] for t in TIERS])
def test_acceptance_tier(key, name, limit, fn):
    import time

    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    print(f"{key} {name}: {status} ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")
    assert passed, f"{key} {name}: {detail}"
    assert elapsed < limit, f"{key} exceeded its {limit:.0f}s budget ({elapsed:.1f}s)"


def test_runner_quick_subset():
    results = run_acceptance(quick=True, only=["AC1", "AC5"], out=lambda _: None)
    assert [r.key for r in results] == ["AC1", "AC5"]
    assert all(r.passed for r in results)


def test_quick_runs_the_tiers_limited_to_30s():
    results = run_acceptance(quick=True, out=lambda _: None)
    assert [r.key for r in results] == ["AC1", "AC2", "AC5", "AC9"]
    assert all(r.passed for r in results)


def test_runner_fails_a_tier_over_its_limit(monkeypatch):
    monkeypatch.setattr(acceptance, "acceptance_tiers",
                        lambda threads: [("AC0", "instant", 0, lambda: (True, "ok"))])
    lines = []
    (result,) = run_acceptance(out=lines.append)
    assert not result.passed
    assert lines == [result.line()] and "FAIL" in lines[0] and "overran" in lines[0]
