"""Vectorized validation checks against the scalar scans they replaced.

Each reference walks its grid one point at a time and keeps the first
strict maximum; the array check must print the same message byte for byte.
The property suite's path-loss KS value is pinned as well.
"""

import math

import numpy as np

from ppcell.analytics import pcov
from ppcell.mgf import NetworkParams, mgf, solve_c
from ppcell.validation import _BETA_GRID, check_coverage_overlap, check_mgf_tightness, run_check


def test_mgf_tightness_matches_scalar_scan():
    worst, worst_at = 0.0, (0.0, 0.0)
    for beta in _BETA_GRID:
        p = NetworkParams(lambda_bs=1.0 / math.pi, beta=beta)
        c = solve_c(beta)
        for x in np.concatenate((np.linspace(0.0, 20.0, 401), [c.c_exact])):
            x = float(x)
            me = mgf(x, 1.0, p)
            ma = mgf(x, 1.0, p, "two_piece")
            rel = abs(ma - me) / me
            if rel > worst:
                worst, worst_at = rel, (beta, x)
    want = f"max relative MGF error {worst:.3e} at beta={worst_at[0]:g}, x={worst_at[1]:.4f} (gate 0.02)"
    passed, msg = check_mgf_tightness()
    assert not passed
    assert msg.startswith(want + ";"), msg


def test_coverage_overlap_matches_scalar_scan():
    worst, worst_at = 0.0, (0.0, 0.0)
    for beta in _BETA_GRID:
        for gdb in np.linspace(-10.0, 30.0, 41):
            g = 10.0 ** (float(gdb) / 10.0)
            diff = abs(pcov(g, beta, "two_piece") - pcov(g, beta))
            if diff > worst:
                worst, worst_at = diff, (beta, float(gdb))
    want = f"max |pcov_approx - pcov_exact| = {worst:.4f} at beta={worst_at[0]:g}, gamma={worst_at[1]:g} dB (gate 0.02)"
    assert check_coverage_overlap() == (True, want)


def test_property_suite_ks_value():
    # the KS loop reads only lane 0 of the two seeded lanes; lane 1 draws nothing
    result = run_check("property-suite", seed=0, quick=True)
    assert result.passed
    assert "path-loss KS 0.0057 over 20000 samples" in result.message
