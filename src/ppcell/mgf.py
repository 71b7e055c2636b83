"""Interference MGF of a nearest-BS Poisson downlink.

Conditioned on the serving-link path loss l0, the Laplace transform of the
aggregate other-cell interference has the form

    M(s; l0) = exp( pi * lambda_bs * (l0/kappa)^(2/beta) * B(x) ),   x = s*p_tx/l0,

where the bracket B depends only on the dimensionless argument x and on
beta. This module evaluates B exactly (Kummer function), as a two-piece
closed-form approximation joined at the intersection constant c, as an
n-term truncated series, with Rayleigh fading marks on the interferers,
and with idle-mode thinning of the interferer density. The exact and
two-piece forms go through one array function, bracket(), which coverage,
rate and every MGF of those two kinds share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc

from .specfun import (
    DEFAULT_POLICY,
    FnEvalPolicy,
    NonConvergenceError,
    gamma_fn,
)

__all__ = [
    "IntersectionConstant",
    "MgfMode",
    "MgfQuery",
    "NetworkParams",
    "bracket",
    "exponent_prefactor",
    "mgf_approx",
    "mgf_exact",
    "mgf_fixed_mark",
    "mgf_rayleigh_marked",
    "mgf_taylor_full",
    "mgf_thinned",
    "solve_c",
    "taylor_bracket",
]

# fitted form of the intersection constant: c ~= slope*ln(beta - shift) + offset
_FIT_SLOPE = 0.06662
_FIT_SHIFT = 1.528
_FIT_OFFSET = 1.227

# the two bracket branches always cross inside this interval for beta in (2, 5]
_C_BRACKET = (1.0, 1.5)

# outer fading integral is truncated where the exponential-mark tail drops below 1e-10
_MARK_TAIL = 1e-10

_EPS = 2.0**-52


@dataclass(frozen=True)
class NetworkParams:
    """Physical scenario constants, all in linear units.

    beta is restricted to the open-left interval (2, 5]: the closed-form
    brackets contain 1/(beta-2) and Gamma(1-2/beta) factors that blow up at
    beta = 2.
    """

    lambda_bs: float
    beta: float
    kappa: float = 1.0
    p_tx: float = 1.0
    lambda_ue: float = 0.0
    sigma_n2: float = 0.0

    def __post_init__(self) -> None:
        if not self.lambda_bs > 0.0:
            raise ValueError(f"lambda_bs must be positive, got {self.lambda_bs}")
        if not 2.0 < self.beta <= 5.0:
            raise ValueError(f"beta must lie in (2, 5], got {self.beta}")
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.p_tx > 0.0:
            raise ValueError(f"p_tx must be positive, got {self.p_tx}")
        if self.lambda_ue < 0.0:
            raise ValueError(f"lambda_ue must be nonnegative, got {self.lambda_ue}")
        if self.sigma_n2 < 0.0:
            raise ValueError(f"sigma_n2 must be nonnegative, got {self.sigma_n2}")

    @property
    def delta(self) -> float:
        """Dimensionless path-loss ratio 2/beta, in (0.4, 1)."""
        return 2.0 / self.beta


class MgfMode(Enum):
    EXACT = "Exact"
    APPROX_TWO_TERM = "ApproxTwoTerm"
    APPROX_TAYLOR = "ApproxTaylor"
    RAYLEIGH_MARKED = "RayleighMarked"
    THINNED = "Thinned"


@dataclass(frozen=True)
class MgfQuery:
    """One MGF evaluation point.

    s is the transform argument (>= 0; coverage only ever queries the
    half-line), l0 the conditioning serving-link path loss. n_terms rides
    along for APPROX_TAYLOR queries and p_active for THINNED ones. In the
    EXACT, APPROX_TWO_TERM and THINNED modes s may also be an array of
    arguments; the MGF then comes back as an array of the same shape.
    """

    s: float | np.ndarray
    l0: float
    mode: MgfMode = MgfMode.EXACT
    n_terms: int | None = None
    p_active: float | None = None

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.s) < 0.0):
            raise ValueError(f"s must be nonnegative, got {self.s}")
        if not self.l0 > 0.0:
            raise ValueError(f"l0 must be positive, got {self.l0}")
        if self.n_terms is not None:
            if self.mode is not MgfMode.APPROX_TAYLOR:
                raise ValueError("n_terms only applies to APPROX_TAYLOR queries")
            if self.n_terms < 2:
                raise ValueError(f"n_terms must be at least 2, got {self.n_terms}")
        if self.p_active is not None:
            if self.mode is not MgfMode.THINNED:
                raise ValueError("p_active only applies to THINNED queries")
            if not 0.0 < self.p_active <= 1.0:
                raise ValueError(f"p_active must lie in (0, 1], got {self.p_active}")

    def scaled_arg(self, p: NetworkParams) -> float | np.ndarray:
        """Dimensionless bracket argument x = s * p_tx / l0."""
        return self.s * p.p_tx / self.l0


@dataclass(frozen=True)
class IntersectionConstant:
    """Branch point of the two-piece bracket approximation.

    c_exact is the solved crossing of the two branches; c_fit the published
    fitted formula. The fit tracks the root to a few 1e-4 over most of the
    beta range but drifts to ~1.3e-3 near beta = 5, so no closeness
    invariant is enforced here; the validation suite measures it.
    """

    beta: float
    c_exact: float
    c_fit: float


def _check_beta(beta: float) -> None:
    if not 2.0 < beta <= 5.0:
        raise ValueError(f"beta must lie in (2, 5], got {beta}")


def exponent_prefactor(p: NetworkParams, l0: float) -> float:
    """Scale factor pi * lambda_bs * (l0/kappa)^(2/beta) of the MGF exponent."""
    return math.pi * p.lambda_bs * (l0 / p.kappa) ** p.delta


def taylor_bracket(beta: float, x: float | np.ndarray, n_terms: int) -> float | np.ndarray:
    """First n_terms of the small-argument series of the exponent bracket.

    B_n(x) = sum_{k=1}^{n} 2 (-x)^k / (k! (k beta - 2)), elementwise on arrays.
    """
    total = 0.0
    term = 2.0
    for k in range(1, n_terms + 1):
        term *= -x / k
        total += term / (k * beta - 2.0)
    return total


def upper_bracket(beta: float, x: float | np.ndarray) -> float | np.ndarray:
    """Large-argument closed form of the bracket: 1 - x^(2/beta) Gamma(1-2/beta)."""
    d = 2.0 / beta
    return 1.0 - x**d * gamma_fn(1.0 - d)


def bracket(beta: float, x, kind: str = "exact", c_value: float | None = None) -> float | np.ndarray:
    """Exponent bracket B(x) for every argument x >= 0 of an array (or a scalar).

    kind "exact": B = 1 - 1F1(-d, 1-d, -x) with d = 2/beta, evaluated through
    the cancellation-free identity

        1F1(-d, 1-d, -x) = exp(-x) + x^d Gamma(1-d) P(1-d, x),

    P the regularized lower incomplete gamma function (DLMF §8, §13).
    kind "two_piece": the two-term series up to the branch point c_value
    (the solved root for beta when None), the closed form 1 - x^d Gamma(1-d)
    beyond it. Fully loaded coverage is 1/(1 - B(gamma)).
    """
    _check_beta(beta)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"bracket arguments must be nonnegative, got {x}")
    d = 2.0 / beta
    if kind == "exact":
        return 1.0 - (np.exp(-x) + x**d * gammainc(1.0 - d, x) * gamma_fn(1.0 - d))
    if kind == "two_piece":
        if c_value is None:
            c_value = solve_c(beta).c_exact
        # each branch only sees arguments on its own side, so the series
        # never squares a huge argument; [()] turns a 0-d result into a scalar
        lower = taylor_bracket(beta, np.minimum(x, c_value), 2)
        return np.where(x <= c_value, lower, upper_bracket(beta, np.maximum(x, c_value)))[()]
    raise ValueError(f"bracket kind must be 'exact' or 'two_piece', got {kind!r}")


def _bracket_gap(beta: float, c: float) -> float:
    # lower-minus-upper branch residual; its root is the intersection constant
    return taylor_bracket(beta, c, 2) - upper_bracket(beta, c)


# bounded: a long-lived process that sweeps fresh betas would otherwise grow
# the cache without limit
@lru_cache(maxsize=256)
def solve_c(beta: float) -> IntersectionConstant:
    """Solve for the branch point where the two bracket pieces cross.

    Brent's method on [1.0, 1.5] to 1e-12; the residual provably changes
    sign there for every beta in (2, 5]. Also evaluates the fitted formula
    for comparison (the solved root is what downstream code uses).
    """
    _check_beta(beta)
    lo, hi = _C_BRACKET
    g_lo = _bracket_gap(beta, lo)
    g_hi = _bracket_gap(beta, hi)
    if g_lo * g_hi >= 0.0:
        raise ValueError(
            f"no sign change of the branch residual on [{lo}, {hi}] for beta={beta}; "
            "beta is outside the supported range"
        )
    c_exact = brentq(lambda c: _bracket_gap(beta, c), lo, hi, xtol=1e-12, rtol=8.9e-16)
    c_fit = _FIT_SLOPE * math.log(beta - _FIT_SHIFT) + _FIT_OFFSET
    return IntersectionConstant(beta=beta, c_exact=float(c_exact), c_fit=c_fit)


def _require_mode(q: MgfQuery, mode: MgfMode, op: str) -> None:
    if q.mode is not mode:
        raise ValueError(f"{op} requires a query with mode={mode.value}, got {q.mode.value}")


def mgf_exact(q: MgfQuery, p: NetworkParams) -> float | np.ndarray:
    """Exact interference MGF, exponent bracket 1 - 1F1(-2/beta, 1-2/beta, -x)."""
    _require_mode(q, MgfMode.EXACT, "mgf_exact")
    return np.exp(exponent_prefactor(p, q.l0) * bracket(p.beta, q.scaled_arg(p), "exact"))


def mgf_approx(
    q: MgfQuery,
    p: NetworkParams,
    c: IntersectionConstant | None = None,
) -> float | np.ndarray:
    """Two-piece closed-form MGF approximation joined at the branch point."""
    _require_mode(q, MgfMode.APPROX_TWO_TERM, "mgf_approx")
    if c is None:
        c = solve_c(p.beta)
    b = bracket(p.beta, q.scaled_arg(p), "two_piece", c.c_exact)
    return np.exp(exponent_prefactor(p, q.l0) * b)


def mgf_taylor_full(
    q: MgfQuery,
    p: NetworkParams,
    n_terms: int,
    c: IntersectionConstant | None = None,
    policy: FnEvalPolicy = DEFAULT_POLICY,
) -> float:
    """n-term truncated-series MGF (the two-piece lower branch generalized).

    With n_terms=2 this reproduces mgf_approx below the branch point term
    for term. The truncation is refused when it has visibly not converged
    beyond the branch point, and when float64 cancellation noise in the
    alternating sum exceeds the policy tolerance.
    """
    _require_mode(q, MgfMode.APPROX_TAYLOR, "mgf_taylor_full")
    if n_terms < 2:
        raise ValueError(f"n_terms must be at least 2, got {n_terms}")
    if q.n_terms is not None and q.n_terms != n_terms:
        raise ValueError(f"query carries n_terms={q.n_terms} but {n_terms} was requested")
    if c is None:
        c = solve_c(p.beta)
    x = q.scaled_arg(p)

    # peak term magnitude ~ 2 e^x / (sqrt(2 pi x) (x beta - 2)); float64 keeps
    # ~16 digits of it, so the alternating sum drowns once the peak is large.
    # Only relevant when the truncation actually reaches the peak (n_terms > x).
    if x > 1.0 and n_terms > x:
        peak = 2.0 * math.exp(x) / (math.sqrt(2.0 * math.pi * x) * (x * p.beta - 2.0))
        if peak * _EPS > policy.abs_tol:
            raise NonConvergenceError(
                f"truncated series loses too many digits to cancellation at x={x:.4g} "
                f"(noise ~{peak * _EPS:.1e} > {policy.abs_tol:g})"
            )

    series = taylor_bracket(p.beta, x, n_terms)
    if x > c.c_exact:
        # alternating series: the magnitude of the last retained term bounds
        # the truncation error once terms decay
        last = 2.0 * x**n_terms / (math.factorial(n_terms) * (n_terms * p.beta - 2.0))
        if last > policy.abs_tol * max(1.0, abs(series)):
            raise NonConvergenceError(
                f"series branch forced beyond the branch point c={c.c_exact:.6f} with "
                f"unconverged truncation (x={x:.4g}, last-term bound {last:.2e})"
            )
    return np.exp(exponent_prefactor(p, q.l0) * series)


def mgf_thinned(
    q: MgfQuery,
    p: NetworkParams,
    p_active: float | None = None,
    c: IntersectionConstant | None = None,
    base_mode: MgfMode = MgfMode.APPROX_TWO_TERM,
) -> float | np.ndarray:
    """Idle-mode-thinned MGF: interferer density scaled by p_active.

    Thinning only rescales the exponent prefactor (lambda_bs -> lambda_bs *
    p_active); the bracket is untouched. base_mode picks the bracket flavor
    (EXACT or APPROX_TWO_TERM).
    """
    _require_mode(q, MgfMode.THINNED, "mgf_thinned")
    if p_active is None:
        p_active = q.p_active
    if p_active is None:
        raise ValueError("p_active must be given either on the query or as an argument")
    if q.p_active is not None and q.p_active != p_active:
        raise ValueError(f"query carries p_active={q.p_active} but {p_active} was requested")
    if not 0.0 < p_active <= 1.0:
        raise ValueError(f"p_active must lie in (0, 1], got {p_active}")
    if base_mode is MgfMode.EXACT:
        b = bracket(p.beta, q.scaled_arg(p), "exact")
    elif base_mode is MgfMode.APPROX_TWO_TERM:
        if c is None:
            c = solve_c(p.beta)
        b = bracket(p.beta, q.scaled_arg(p), "two_piece", c.c_exact)
    else:
        raise ValueError(f"base_mode must be EXACT or APPROX_TWO_TERM, got {base_mode.value}")
    return np.exp(p_active * exponent_prefactor(p, q.l0) * b)


def _marked_inner(y: float, delta: float) -> float:
    """Radial integral at a fixed fading mark: int_0^1 (e^(-y t) - 1) t^(-delta-1) dt.

    The integrable endpoint singularity is peeled off analytically:
    (e^(-yt) - 1 + yt) t^(-delta-1) vanishes like t^(1-delta) at 0, and the
    remaining -y t^(-delta) piece integrates to -y/(1-delta).
    """
    if y == 0.0:
        return 0.0

    def regular_part(t: float) -> float:
        return (math.exp(-y * t) - 1.0 + y * t) * t ** (-delta - 1.0)

    val, _ = quad(regular_part, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    return val - y / (1.0 - delta)


def mgf_rayleigh_marked(q: MgfQuery, p: NetworkParams) -> float:
    """MGF with independent unit-mean exponential fading marks on interferers.

    Two-level adaptive quadrature: the outer integral averages over the
    exponential mark u (truncated where its tail falls below 1e-10), the
    inner one runs over the substituted radial variable t = l0/y on (0, 1].
    """
    _require_mode(q, MgfMode.RAYLEIGH_MARKED, "mgf_rayleigh_marked")
    x = q.scaled_arg(p)
    if x == 0.0:
        return 1.0
    d = p.delta
    u_max = -math.log(_MARK_TAIL)

    def outer_integrand(u: float) -> float:
        return math.exp(-u) * _marked_inner(x * u, d)

    val, err = quad(outer_integrand, 0.0, u_max, epsabs=1e-11, epsrel=1e-10, limit=200)
    if err > 1e-7:
        raise NonConvergenceError(
            f"fading-marked MGF quadrature achieved only {err:.2e} absolute error"
        )
    return math.exp(exponent_prefactor(p, q.l0) * d * val)


def mgf_fixed_mark(q: MgfQuery, p: NetworkParams, mark: float = 1.0) -> float:
    """MGF with every interferer mark pinned to a single value.

    The degenerate (zero-variance) case of the marked MGF; mark=1 must
    reproduce mgf_exact up to quadrature tolerance.
    """
    if not mark >= 0.0:
        raise ValueError(f"mark must be nonnegative, got {mark}")
    x = q.scaled_arg(p)
    if x == 0.0 or mark == 0.0:
        return 1.0
    d = p.delta
    return math.exp(exponent_prefactor(p, q.l0) * d * _marked_inner(x * mark, d))
