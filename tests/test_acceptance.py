"""The acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v``
or ``secclasses selftest``."""

import re
from types import SimpleNamespace

import pytest

from secclasses import acceptance
from secclasses.acceptance import CRITERIA


@pytest.mark.parametrize("name,criterion,budget", CRITERIA,
                         ids=[name for name, _, _ in CRITERIA])
def test_criterion(name, criterion, budget):
    ok, detail = acceptance.run(criterion, budget)
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_growth_table_fails_when_a_family_a_member_is_dropped(monkeypatch):
    # the criterion is not vacuous: one family-A member fewer at q=12 fails it
    real = acceptance.spherical_rigid_classes

    def short_by_one(q):
        entries = real(q)
        if q == 12:
            drop = next(i for i, e in enumerate(entries) if e.family == "A")
            entries = entries[:drop] + entries[drop + 1:]
        return entries

    monkeypatch.setattr(acceptance, "spherical_rigid_classes", short_by_one)
    ok, detail = acceptance.criterion_growth_table()
    assert not ok
    assert "|A(12)|" in detail


TIMING = re.compile(r"\d(\.\d+)?\s*(s|ms|sec|seconds)\b")


def test_passing_details_carry_no_timing():
    # selftest stdout is reproducible byte for byte
    for name, ok, detail in acceptance.run_all():
        if ok:
            assert not TIMING.search(detail), f"{name}: {detail}"


def _slow_clock(monkeypatch):
    """Make every read of the clock 1000 s later than the one before."""
    clock = iter(range(0, 10 ** 6, 1000))
    monkeypatch.setattr(acceptance, "time",
                        SimpleNamespace(perf_counter=lambda: next(clock)))


def test_budget_failure_names_the_elapsed_time(monkeypatch):
    # the runtime budget is still enforced once timings left the details
    _slow_clock(monkeypatch)
    _, criterion, budget = next(row for row in CRITERIA
                                if row[0] == "6-projective-frame-certificate")
    ok, detail = acceptance.run(criterion, budget)
    assert not ok
    assert detail == "runtime budget exceeded: 1000.0s >= 120s"
    assert TIMING.search(detail)


def test_run_keeps_a_failure_and_times_only_budgeted_criteria(monkeypatch):
    _slow_clock(monkeypatch)
    assert acceptance.run(lambda: (False, "broken"), 30) == (False, "broken")
    assert acceptance.run(lambda: (True, "fine"), None) == (True, "fine")
    assert [budget for _, _, budget in CRITERIA] == [
        30, 120, None, 60, None, 120, None, None, None, None]
