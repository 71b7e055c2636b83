"""Scalar special-function kernels.

The analytics evaluate the Kummer function through the array bracket in
ppcell.mgf (scipy.special's incomplete gamma). The scalar Kummer, incomplete
gamma and raw-series routines here are kept as the independent reference
the tests hold that bracket against; gamma_fn and gauss_2f1 also serve the
closed-form rate.

Scalar float64 routines only. The interference MGF needs the Kummer
confluent hypergeometric function 1F1(-d, 1-d, -x) with d = 2/beta in (0,1),
the lower incomplete gamma function on the same parameter strip, the Gauss
hypergeometric 2F1 on z in (-1, 0], and the complete gamma function.

Evaluation strategy follows the usual series/continued-fraction splits; the
Kummer function is computed through an incomplete-gamma identity because its
raw alternating series loses roughly x/ln(10) digits to cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DEFAULT_POLICY",
    "FnEvalPolicy",
    "NonConvergenceError",
    "gamma_fn",
    "gauss_2f1",
    "kummer_1f1_neg",
    "kummer_1f1_neg_series",
    "lower_inc_gamma",
]

# continued fractions divide by these; pure underflow guards, never results
_FPMIN = 1e-300


class NonConvergenceError(ArithmeticError):
    """A series or continued fraction failed to reach tolerance."""


@dataclass(frozen=True)
class FnEvalPolicy:
    """Evaluation knobs shared by the series/continued-fraction routines.

    series_cutoff: largest argument magnitude the raw alternating Kummer
        series is trusted at (cancellation grows like exp(x) beyond it).
    abs_tol: stopping tolerance for series terms, relative to the running sum.
    max_terms: hard truncation bound; exceeding it raises NonConvergenceError.
    """

    series_cutoff: float = 30.0
    abs_tol: float = 1e-12
    max_terms: int = 400

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_terms < 50:
            raise ValueError(f"max_terms must be at least 50, got {self.max_terms}")
        if not self.series_cutoff > 0.0:
            raise ValueError(f"series_cutoff must be positive, got {self.series_cutoff}")


DEFAULT_POLICY = FnEvalPolicy()


def gamma_fn(a: float) -> float:
    """Complete gamma function for a > 0."""
    if not a > 0.0:
        raise ValueError(f"gamma_fn requires a > 0 (pole or reflection needed otherwise), got a={a}")
    return math.gamma(a)


def _lower_gamma_series(a: float, x: float, policy: FnEvalPolicy) -> float:
    # power series of gamma(a, x) around 0; good for x < a + 1
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(policy.max_terms):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * policy.abs_tol:
            return total * math.exp(-x + a * math.log(x))
    raise NonConvergenceError(
        f"lower incomplete gamma series: no convergence in {policy.max_terms} terms (a={a}, x={x})"
    )


def _upper_gamma_cf(a: float, x: float, policy: FnEvalPolicy) -> float:
    # modified Lentz continued fraction for Gamma(a) - gamma(a, x); good for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, policy.max_terms + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < policy.abs_tol:
            return h * math.exp(-x + a * math.log(x))
    raise NonConvergenceError(
        f"upper incomplete gamma continued fraction: no convergence in {policy.max_terms} iterations (a={a}, x={x})"
    )


def lower_inc_gamma(a: float, x: float, policy: FnEvalPolicy = DEFAULT_POLICY) -> float:
    """Lower incomplete gamma function gamma(a, x) = int_0^x t^(a-1) e^(-t) dt.

    Restricted to a in (0, 1), the only strip the MGF kernel uses.
    Monotone nondecreasing in x, tending to gamma_fn(a) as x grows.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"lower_inc_gamma requires a in (0, 1), got a={a}")
    if x < 0.0:
        raise ValueError(f"lower_inc_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x, policy)
    return gamma_fn(a) - _upper_gamma_cf(a, x, policy)


def kummer_1f1_neg(delta: float, x: float, policy: FnEvalPolicy = DEFAULT_POLICY) -> float:
    """1F1(-delta, 1-delta, -x) for delta in (0, 1) and x >= 0.

    Uses the cancellation-free identity

        1F1(-delta, 1-delta, -x) = exp(-x) + x^delta * gamma(1-delta, x),

    valid on the whole half-line. The value lies in [1, inf) and grows like
    x^delta * Gamma(1-delta) for large x.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"kummer_1f1_neg requires delta in (0, 1), got delta={delta}")
    if x < 0.0:
        raise ValueError(f"kummer_1f1_neg requires x >= 0, got x={x}")
    if x == 0.0:
        return 1.0
    return math.exp(-x) + x**delta * lower_inc_gamma(1.0 - delta, x, policy)


def kummer_1f1_neg_series(delta: float, x: float, policy: FnEvalPolicy = DEFAULT_POLICY) -> float:
    """Raw alternating series for 1F1(-delta, 1-delta, -x).

    Secondary evaluation path kept for cross-checking kummer_1f1_neg; the
    two must agree to 1e-10 wherever this one converges. Terms alternate
    with peak magnitude ~ exp(x), so the sum is refused beyond
    policy.series_cutoff where float64 cancellation exceeds the tolerance.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"kummer_1f1_neg_series requires delta in (0, 1), got delta={delta}")
    if x < 0.0:
        raise ValueError(f"kummer_1f1_neg_series requires x >= 0, got x={x}")
    if x > policy.series_cutoff:
        raise NonConvergenceError(
            f"raw Kummer series unreliable for x={x} > series_cutoff={policy.series_cutoff} "
            "(alternating-term cancellation); use kummer_1f1_neg"
        )
    term = 1.0
    total = 1.0
    small_streak = 0
    for k in range(policy.max_terms):
        # ratio of consecutive series terms: ((k-delta) / (k+1-delta)) * (-x) / (k+1)
        term *= (k - delta) / (k + 1.0 - delta) * -x / (k + 1.0)
        total += term
        # alternating terms grow before they decay; demand two small ones in a row
        if abs(term) < abs(total) * policy.abs_tol:
            small_streak += 1
            if small_streak == 2:
                return total
        else:
            small_streak = 0
    raise NonConvergenceError(
        f"raw Kummer series: no convergence in {policy.max_terms} terms (delta={delta}, x={x})"
    )


def gauss_2f1(a: float, b: float, c: float, z: float, policy: FnEvalPolicy = DEFAULT_POLICY) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) by direct series, z in (-1, 0].

    The rate closed form only evaluates this at z = -1/c with c > 1.2, where
    the series converges geometrically. |z| >= 1 is rejected.
    """
    if c <= 0.0 and c == math.floor(c):
        raise ValueError(f"gauss_2f1: c must not be a nonpositive integer, got c={c}")
    if abs(z) >= 1.0:
        raise NonConvergenceError(f"gauss_2f1 series diverges or converges too slowly for |z| >= 1, got z={z}")
    if z > 0.0:
        raise ValueError(f"gauss_2f1 is restricted to z in (-1, 0], got z={z}")
    if z == 0.0:
        return 1.0
    term = 1.0
    total = 1.0
    small_streak = 0
    for k in range(policy.max_terms):
        term *= (a + k) * (b + k) / (c + k) * z / (k + 1.0)
        total += term
        if abs(term) < abs(total) * policy.abs_tol:
            small_streak += 1
            if small_streak == 2:
                return total
        else:
            small_streak = 0
    raise NonConvergenceError(
        f"gauss_2f1: no convergence in {policy.max_terms} terms (a={a}, b={b}, c={c}, z={z})"
    )
