"""Acceptance gate: every validation check at full size, stated budgets.

Each criterion runs through the same code path as `ppcell validate` and
prints one PASS/FAIL line with the measured worst case. Budgets are wall
clock for the full-size run. No check is skipped or downgraded here; a
criterion that misses its tolerance fails this suite.
"""

import pytest

from ppcell.validation import run_check

# (check label, wall-clock budget in seconds)
CRITERIA = [
    ("branch-constant-table", 1.0),
    ("mgf-approx-tightness", 5.0),
    ("coverage-overlap", 5.0),
    ("rate-closed-forms", 10.0),
    ("mc-rate-full-load", 120.0),
    ("mc-density-invariance", 120.0),
    ("mc-idle-mode-curves", 300.0),
    ("property-suite", 120.0),
]


@pytest.mark.parametrize(("label", "budget_s"), CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(label, budget_s):
    result = run_check(label, seed=0, jobs=4, quick=False)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{verdict} {label}: {result.message} [{result.elapsed_s:.2f}s]")
    assert result.elapsed_s <= budget_s, (
        f"{label} took {result.elapsed_s:.2f}s, budget {budget_s:.0f}s"
    )
    assert result.passed, f"{label}: {result.message}"


# the two checks that fail by design, with the measured worst case each must
# keep reporting; a kernel or solver change that moves these numbers is drift
RED_BY_DESIGN = [
    ("branch-constant-table", "solver vs table worst |diff|=1.265e-03 at beta=5;"),
    ("mgf-approx-tightness", "max relative MGF error 9.584e-02 at beta=2.5, x=1.2241 (gate 0.02)"),
]


@pytest.mark.parametrize(("label", "measured"), RED_BY_DESIGN, ids=[c[0] for c in RED_BY_DESIGN])
def test_red_checks_report_pinned_values(label, measured):
    result = run_check(label, seed=0, jobs=1, quick=True)
    assert not result.passed, f"{label} passed; its pinned failure no longer reproduces"
    assert measured in result.message, result.message
