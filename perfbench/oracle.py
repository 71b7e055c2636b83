"""Independent routes the benchmark checks program output against.

Nothing here calls ppcell. Kummer-form cells are computed through scipy's
regularized incomplete gamma, and a sample of them with mpmath; rates by
fixed composite Gauss-Legendre quadrature over brackets built from
scipy.special, so a defect in the program's kernels or integrators cannot
hide by agreeing with itself. Every function takes one beta and an array of
arguments, so a figure set with fresh grids is checked in milliseconds.
mpmath and scipy.stats, which ppcell does not load, are imported on first
use, after the timed ops, so they do not count towards the workload's peak
RSS.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

# cell-area gamma shape of the paper's load model
LOAD_SHAPE = 3.5
# the rate integral is taken in log space up to w = exp(LOG_W_MAX); the
# neglected tail is below 4e-11 for every beta in (2, 5] and p_active >= 0.05
LOG_W_MAX = 69.0
# Gauss-Legendre nodes and weights on [-1, 1], and panels below and above
# the branch point
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
GL_PANELS_LOW, GL_PANELS_HIGH = 2, 48
# working precision of the mpmath reference
MP_DIGITS = 25


def load_model(ratio):
    """(p_active, p_selection) of the gamma cell-area load model."""
    p_active = 1.0 - (1.0 + np.asarray(ratio, dtype=float) / LOAD_SHAPE) ** (-LOAD_SHAPE)
    return p_active, np.minimum(p_active / ratio, 1.0)


def kummer(beta: float, x) -> np.ndarray:
    """1F1(-d, 1-d, -x) with d = 2/beta, as exp(-x) + x^d Gamma(1-d) P(1-d, x)."""
    d = 2.0 / beta
    x = np.asarray(x, dtype=float)
    return np.exp(-x) + x**d * gamma_fn(1.0 - d) * gammainc(1.0 - d, x)


def kummer_mp(beta: float, x: float) -> float:
    """The same Kummer function by mpmath at MP_DIGITS digits."""
    import mpmath

    mpmath.mp.dps = MP_DIGITS
    d = mpmath.mpf(2.0 / beta)
    return float(mpmath.hyp1f1(-d, 1 - d, -mpmath.mpf(x)))


def _taylor2(beta: float, x):
    # first two terms of sum_k 2 (-x)^k / (k! (k beta - 2))
    return -2.0 * x / (beta - 2.0) + x * x / (2.0 * beta - 2.0)


def _upper(beta: float, x):
    d = 2.0 / beta
    return 1.0 - x**d * gamma_fn(1.0 - d)


def branch_point(beta: float) -> float:
    """Crossing of the two bracket pieces on [1, 1.5]."""
    return brentq(lambda c: _taylor2(beta, c) - _upper(beta, c), 1.0, 1.5, xtol=1e-15)


def bracket_approx(beta: float, x) -> np.ndarray:
    """Two-piece exponent bracket: two-term series below the branch point."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= branch_point(beta), _taylor2(beta, x), _upper(beta, x))


def pcov_exact(beta: float, gamma, p_active) -> np.ndarray:
    return 1.0 / (1.0 + (kummer(beta, gamma) - 1.0) * p_active)


def pcov_approx(beta: float, gamma, p_active) -> np.ndarray:
    return 1.0 / (1.0 - bracket_approx(beta, gamma) * p_active)


def mgf_exact(beta: float, x, lambda_bs: float) -> np.ndarray:
    """Exact MGF at l0 = kappa = p_tx = 1."""
    return np.exp(math.pi * lambda_bs * (1.0 - kummer(beta, x)))


def mgf_approx(beta: float, x, lambda_bs: float) -> np.ndarray:
    return np.exp(math.pi * lambda_bs * bracket_approx(beta, x))


def _gauss_legendre(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return ((edges[:-1, None] + half) + half * GL_NODES).ravel(), (half * GL_WEIGHTS).ravel()


def rate(beta: float, p_active, exact: bool) -> np.ndarray:
    """Peak rate int_0^inf Pcov(w)/(1+w) dw for the exact or two-piece bracket.

    The integral is split at the branch point, where the two-piece bracket
    has a kink, and taken in log space above it.
    """
    p = np.atleast_1d(np.asarray(p_active, dtype=float))[:, None]
    c = branch_point(beta)
    low_w, low_q = _gauss_legendre(0.0, c, GL_PANELS_LOW)
    v, high_q = _gauss_legendre(math.log(c), LOG_W_MAX, GL_PANELS_HIGH)
    high_w = np.exp(v)
    if exact:
        low_b, high_b = 1.0 - kummer(beta, low_w), 1.0 - kummer(beta, high_w)
    else:
        low_b, high_b = bracket_approx(beta, low_w), bracket_approx(beta, high_w)
    low = (low_q / ((1.0 - p * low_b) * (1.0 + low_w))).sum(axis=1)
    high = (high_q / ((1.0 - p * high_b) * (1.0 + 1.0 / high_w))).sum(axis=1)
    return low + high


def z_gate(comparisons: int, false_alarm: float) -> float:
    """Two-sided |z| threshold with the given family-wise false-alarm rate."""
    from scipy.stats import norm

    return float(norm.isf(false_alarm / (2.0 * comparisons)))


def rel_close(value, ref, tol: float) -> np.ndarray:
    """Elementwise: value is finite and within tol of ref, relative to ref."""
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    return np.isfinite(value) & (np.abs(value - ref) <= tol * np.abs(ref))
