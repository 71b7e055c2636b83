"""Interference MGF of a nearest-BS Poisson downlink.

Conditioned on the serving-link path loss l0, the Laplace transform of the
aggregate other-cell interference has the form

    M(s; l0) = exp( p_active * pi * lambda_bs * (l0/kappa)^(2/beta) * B(x) ),   x = s*p_tx/l0,

where the bracket B depends only on the dimensionless argument x and on
beta, and p_active (1 = fully loaded) thins the interferers in idle mode.
One array function, bracket(), evaluates B for every kind: exact (Kummer
function), the two-piece closed-form approximation joined at the
intersection constant c, and Rayleigh fading marks on the interferers.
mgf() is the exponential above; coverage and rate use bracket() directly.
taylor_bracket() is the n-term small-argument series of B, the lower piece
of the two-piece kind. The Monte Carlo's SimConfig sits here beside
NetworkParams, so that a config is built without loading the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

__all__ = [
    "IntersectionConstant",
    "NetworkParams",
    "NonConvergenceError",
    "SimConfig",
    "bracket",
    "exponent_prefactor",
    "mgf",
    "solve_c",
    "taylor_bracket",
]

# fitted form of the intersection constant: c ~= slope*ln(beta - shift) + offset
_FIT_SLOPE = 0.06662
_FIT_SHIFT = 1.528
_FIT_OFFSET = 1.227

# the two bracket branches always cross inside this interval for beta in (2, 5]
_C_BRACKET = (1.0, 1.5)
# solve_c: steps allowed (bisection alone needs ~52 to narrow the bracket to
# an ulp; Newton takes at most 11 over beta in (2, 5]), and the step, in ulp
# of c, that ends the iteration
_C_MAX_STEPS = 60
_C_STEP_ULPS = 4.0
# Below t = 1 - 2/beta = _NEAR_TWO_T (beta < 2.22) the residual's terms
# -2c/(beta-2) and c^d Gamma(1-d) nearly cancel, so _bracket_gap takes their
# sum from the series of ln Gamma(1 + t) (see _lgamma1p_coefs).
_NEAR_TWO_T = 0.1
# the simulator's block hashing coerces every realization id to one 32-bit word
_MAX_REALIZATIONS = 2**32


class NonConvergenceError(ArithmeticError):
    """An iteration or quadrature failed to reach its tolerance."""


@dataclass(frozen=True)
class NetworkParams:
    """Physical scenario constants, all finite and in linear units.

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
        # the instance dict holds the fields, in order
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.lambda_bs > 0.0:
            raise ValueError(f"lambda_bs must be positive, got {self.lambda_bs}")
        _check_beta(self.beta)
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


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol knobs of ppcell.simulator.

    The fading model is fixed: Rayleigh (an Exp(1) power gain) on the
    serving link, plain path loss on every interferer.
    """

    n_bs_target: int = 500
    n_realizations: int = 10000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_bs_target < 50:
            raise ValueError(f"n_bs_target must be at least 50, got {self.n_bs_target}")
        if not 1 <= self.n_realizations <= _MAX_REALIZATIONS:
            raise ValueError(f"n_realizations must be in [1, 2**32], got {self.n_realizations}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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


def _check_p_active(p_active) -> None:
    # p_active may be an array; the first entry out of range is named
    for pa in np.ravel(p_active).tolist():
        if not 0.0 < pa <= 1.0:
            raise ValueError(f"p_active must lie in (0, 1], got {pa}")


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
    return 1.0 - x ** (2.0 / beta) * math.gamma((beta - 2.0) / beta)


def bracket(beta: float, x, kind: str = "exact") -> float | np.ndarray:
    """Exponent bracket B(x) for every argument x >= 0 of an array (or a scalar).

    kind "exact": B = 1 - 1F1(-d, 1-d, -x) with d = 2/beta, evaluated through
    the cancellation-free identity

        1F1(-d, 1-d, -x) = exp(-x) + x^d Gamma(1-d) P(1-d, x),

    P the regularized lower incomplete gamma function (DLMF §8, §13).
    kind "two_piece": the two-term series up to the branch point c, the
    solved root solve_c(beta).c_exact, the closed form 1 - x^d Gamma(1-d)
    beyond it. Fully loaded coverage is 1/(1 - B(gamma)).
    kind "rayleigh": interferers carry independent unit-mean exponential
    fading marks, B = -(2x/(beta-2)) 2F1(1, 1-d; 2-d; -x), the rho function
    of Andrews, Baccelli & Ganti (IEEE TCOM 2011) with the sign flipped.
    """
    _check_beta(beta)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"bracket arguments must be nonnegative, got {x}")
    d = 2.0 / beta
    # scipy.special is imported on first use: solve_c for beta >= 2.22 and
    # the Monte Carlo need only math and numpy, so they never load it
    if kind == "exact":
        from scipy.special import gammainc

        # 1 - d as (beta - 2)/beta: 1 - 2/beta would lose its relative precision next to 2
        a = (beta - 2.0) / beta
        return 1.0 - (np.exp(-x) + x**d * gammainc(a, x) * math.gamma(a))
    if kind == "two_piece":
        c = solve_c(beta).c_exact
        # each branch only sees arguments on its own side, so the series
        # never squares a huge argument; [()] turns a 0-d result into a scalar
        lower = taylor_bracket(beta, np.minimum(x, c), 2)
        return np.where(x <= c, lower, upper_bracket(beta, np.maximum(x, c)))[()]
    if kind == "rayleigh":
        from scipy.special import hyp2f1

        return -(2.0 * x / (beta - 2.0)) * hyp2f1(1.0, 1.0 - d, 2.0 - d, -x)
    raise ValueError(f"bracket kind must be 'exact', 'two_piece' or 'rayleigh', got {kind!r}")


@cache
def _lgamma1p_coefs() -> tuple[float, ...]:
    """Coefficients of ln Gamma(1 + t) / t, highest power first, built on first use.

    The series is -euler_gamma t + sum_{k>=2} (-1)^k zeta(k) t^k / k
    (DLMF §5.7); below t = _NEAR_TWO_T the first omitted term is below 1e-19
    of the sum.
    """
    from scipy.special import zeta

    return tuple(float((-1) ** k * zeta(k) / k) for k in range(19, 1, -1)) + (-float(np.euler_gamma),)


def _near_two_terms(beta: float, c: float) -> tuple[float, float]:
    """t = 1 - 2/beta and (c^-t Gamma(1+t) - 1)/t, free of cancellation for small t.

    With it, -2c/(beta-2) + c^(1-t) Gamma(t) = c (1 + that quotient).
    """
    t = (beta - 2.0) / beta
    # ln Gamma(1 + t) / t by Horner's rule
    lgamma1p_t = 0.0
    for coef in _lgamma1p_coefs():
        lgamma1p_t = lgamma1p_t * t + coef
    return t, math.expm1(t * (lgamma1p_t - math.log(c))) / t


def _bracket_gap(beta: float, c: float) -> float:
    # lower-minus-upper branch residual; its root is the intersection constant
    if beta - 2.0 < _NEAR_TWO_T * beta:
        _, q = _near_two_terms(beta, c)
        return c * c / (2.0 * beta - 2.0) - 1.0 + c * (1.0 + q)
    return taylor_bracket(beta, c, 2) - upper_bracket(beta, c)


def _bracket_gap_slope(beta: float, c: float) -> float:
    # d/dc of _bracket_gap
    if beta - 2.0 < _NEAR_TWO_T * beta:
        t, q = _near_two_terms(beta, c)
        return c / (beta - 1.0) + q * (1.0 - t)
    d = 2.0 / beta
    return -2.0 / (beta - 2.0) + c / (beta - 1.0) + d * c ** (d - 1.0) * math.gamma((beta - 2.0) / beta)


# bounded: a long-lived process that sweeps fresh betas would otherwise grow
# the cache without limit
@lru_cache(maxsize=256)
def solve_c(beta: float) -> IntersectionConstant:
    """Solve for the branch point where the two bracket pieces cross.

    Safeguarded Newton on [1.0, 1.5]: the residual provably changes sign
    there for every beta in (2, 5], each iterate shrinks that bracket, and
    a step that would leave it bisects instead. Iteration stops once a step
    moves c by at most a few ulp; of the last two iterates the one with the
    smaller residual is kept. Also evaluates the fitted formula for
    comparison (the solved root is what downstream code uses).
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
    c = 0.5 * (lo + hi)
    for _ in range(_C_MAX_STEPS):
        g = _bracket_gap(beta, c)
        if g == 0.0:
            break
        if (g < 0.0) == (g_lo < 0.0):
            lo = c
        else:
            hi = c
        step = c - g / _bracket_gap_slope(beta, c)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - c) <= _C_STEP_ULPS * math.ulp(c):
            if abs(_bracket_gap(beta, step)) < abs(g):
                c = step
            break
        c = step
    else:
        raise NonConvergenceError(f"branch-point iteration did not settle in {_C_MAX_STEPS} steps at beta={beta}")
    c_fit = _FIT_SLOPE * math.log(beta - _FIT_SHIFT) + _FIT_OFFSET
    return IntersectionConstant(beta=beta, c_exact=float(c), c_fit=c_fit)


def _scaled_arg(s, l0: float, p: NetworkParams):
    # dimensionless bracket argument x = s * p_tx / l0; the MGF is only ever
    # queried on the half-line s >= 0
    if np.any(np.asarray(s) < 0.0):
        raise ValueError(f"s must be nonnegative, got {s}")
    if not l0 > 0.0:
        raise ValueError(f"l0 must be positive, got {l0}")
    return s * p.p_tx / l0


def mgf(s, l0: float, p: NetworkParams, kind: str = "exact", p_active: float = 1.0) -> float | np.ndarray:
    """Interference MGF at transform argument s, given serving path loss l0.

    kind is the bracket kind ("exact", "two_piece" or "rayleigh"); p_active
    thins the interferer density and so only scales the exponent. s may be
    an array; the MGF then comes back as an array of its shape.
    """
    _check_p_active(p_active)
    x = _scaled_arg(s, l0, p)
    return np.exp(p_active * exponent_prefactor(p, l0) * bracket(p.beta, x, kind))
