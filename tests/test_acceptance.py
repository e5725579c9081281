"""The acceptance gate: every criterion runs at its stated tolerance.

Each test runs one tier through ``run_acceptance``, the runner behind
``fsz-lab verify``, which prints its pass/fail line and fails a tier whose
result is wrong or whose wall-clock time exceeds its limit.
"""

import pytest

from fsz_lab import acceptance
from fsz_lab.acceptance import acceptance_tiers, run_acceptance

KEYS = [key for key, _, _, _ in acceptance_tiers(None)]


@pytest.mark.parametrize("key", KEYS)
def test_acceptance_tier(key):
    (result,) = run_acceptance(only=[key], out=print)
    assert result.key == key
    assert result.passed, result.line()


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
