"""Coverage probability and ergodic rate for the Poisson downlink.

Interference-limited coverage has the uniform shape

    Pcov(gamma) = 1 / (1 - B(gamma) * p_active),

where B is the MGF exponent bracket of ppcell.mgf (exact Kummer form or the
two-piece approximation) and p_active is the idle-mode thinning factor
(1 = fully loaded); pcov() is that formula, for a p_active array as well
as a scalar. With noise, t = pi*lambda*r^2,
Exp(1) for the serving distance r, turns coverage into

    int_0^inf exp(-a t - k*gamma * t^(beta/2)) dt,   a = 1 - p_active*B(gamma),

k = sigma_n2*kappa / (p_tx * (pi*lambda)^(beta/2)), as in Theorem 1 of
Andrews, Baccelli & Ganti (IEEE TCOM 2011). pcov_general() returns pcov()
at k = 0, where the integral is 1/a, and sums it on panels in log t otherwise.
Ergodic peak rate is int_0^inf Pcov(w)/(1+w) dw, evaluated by a
fixed Gauss-Legendre rule in log w (the authority) and, fully loaded, by a
closed form valid for every beta. rate_quadrature() takes a sequence of
betas and of p_active values in one call, so a curve CSV makes one
quadrature call per kind. Partial-load rates always come from the rule:
the published beta = 3, 4 partial-load forms do not match it (see the
erratum in the README).

Rates are in nats/s/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mgf import (
    NetworkParams,
    NonConvergenceError,
    _check_beta,
    _check_p_active,
    bracket,
    solve_c,
)

__all__ = [
    "LoadModel",
    "RateMethod",
    "RateResult",
    "load_model",
    "pathloss_cdf",
    "pcov",
    "pcov_general",
    "rate_actual",
    "rate_closed_general",
    "rate_quadrature",
]

# shape constant of the gamma approximation to Voronoi cell areas; fixed by
# the load model, not a tunable
_LOAD_SHAPE = 3.5

# reference density (BSs per m^2, a macro-cell figure) of the Monte Carlo
# checks and the CLI's default network; coverage and rate are density-free,
# so the value only fixes the simulation scale
_LAMBDA_REF = 1.27e-6
# the paper's UE/BS density ratios
_RATIO_GRID = (0.17, 4.34, 8.51, 11.11)

# rate integral: truncate where the provable tail bound drops below this
_TAIL_BUDGET = 1e-10
# and start at this w; the integrand is below 1, so the mass skipped is below it
_W_MIN = 1e-12
# reported absolute quadrature error beyond this is treated as failure
_QUAD_ERR_LIMIT = 1e-8

# rate rule: Gauss-Legendre nodes on [-1, 1], computed once; _rules, the one
# rule builder, places them on equal panels in v = log w no wider than
# _PANEL_WIDTH, all four rules of a rate in one pass. The coverage pole nearest
# the origin, at w ~ -(beta-2)/(2 p_active), sits at Im v = pi in v, so the
# panels converge geometrically even for beta near 2, where a few linear
# panels on [0, c] do not.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANEL_WIDTH = 4.0

# noisy coverage: the same nodes on equal panels at most 1 wide in v = log t
# over [_T_MIN, _T_EFOLDS / a]; the mass cut off is below _T_MIN + exp(-_T_EFOLDS)
_T_MIN = 1e-17
_T_EFOLDS = 50.0

# interference-free regime guard: coverage -> 1 makes the rate integral diverge
_MIN_P_ACTIVE = 1e-6


class RateMethod(Enum):
    CLOSED_FORM_GENERAL = "ClosedFormGeneral"
    QUADRATURE = "Quadrature"
    MONTE_CARLO = "MonteCarlo"


@dataclass(frozen=True)
class RateResult:
    """Ergodic rate value (nats/s/Hz) with provenance.

    stderr is the one error field: the standard error of a Monte Carlo
    estimate, or the achieved absolute error bound of a quadrature value
    (the coarse-vs-fine rule difference plus the truncated tail and head).
    Closed forms leave it 0. A value of inf marks the vanishing-load
    regime, where no interferer is active and the rate diverges.
    """

    value: float
    method: RateMethod
    stderr: float = 0.0

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")
        if self.value < 0.0:
            raise ValueError(f"rate must be nonnegative, got {self.value}")


@dataclass(frozen=True)
class LoadModel:
    """Idle-mode load probabilities for a UE/BS density ratio."""

    ratio: float
    p_inactive: float
    p_active: float
    p_selection: float


def _db_to_linear(db: float | np.ndarray) -> float | np.ndarray:
    return 10.0 ** (db / 10.0)


def pathloss_cdf(y, p: NetworkParams) -> float | np.ndarray:
    """Distribution function of the nearest-BS path loss; 0 for y <= 0."""
    y = np.maximum(np.asarray(y, dtype=float), 0.0)
    return 1.0 - np.exp(-math.pi * p.lambda_bs * (y / p.kappa) ** p.delta)


def pcov(gamma, beta: float, kind: str = "exact", p_active: float | np.ndarray = 1.0) -> float | np.ndarray:
    """Interference-limited coverage 1/(1 - p_active * B(gamma)) at every threshold.

    kind is the bracket kind ("exact" or "two_piece"); p_active thins the
    interferers (1 = fully loaded). Independent of density, transmit power
    and path-loss prefactor; those all cancel between signal and
    interference. gamma may be an array; bracket() rejects negative ones.
    p_active may be an array that broadcasts against gamma (a column of
    entries against a row of thresholds gives one curve per entry), each
    curve bit for bit the call with its entry alone; one bracket call
    serves them all.
    """
    _check_p_active(p_active)
    return 1.0 / (1.0 - bracket(beta, gamma, kind) * p_active)


def pcov_general(
    gamma, p: NetworkParams, p_active: float | np.ndarray = 1.0, kind: str = "exact"
) -> float | np.ndarray:
    """Coverage P(SINR > gamma) at every threshold, noise included.

    pcov() when p.sigma_n2 == 0, else the integral of the module docstring.
    Where k or the noise term leaves the float range, at a vanishing
    density, coverage above gamma = 0 takes its noise-limited limit 0.
    p_active may be an array that broadcasts against gamma, as in pcov();
    with noise, each entry's integral is summed on the panels its own call
    would use.
    """
    if p.sigma_n2 == 0.0:
        return pcov(gamma, p.beta, kind, p_active)
    _check_p_active(p_active)
    gamma = np.asarray(gamma, dtype=float)
    pa = np.asarray(p_active, dtype=float)
    scale = p.p_tx * (math.pi * p.lambda_bs) ** (p.beta / 2.0)
    k = p.sigma_n2 * p.kappa / scale if scale > 0.0 else math.inf
    # the SINR is positive, so every user is covered at gamma = 0
    if k == math.inf:  # a vanishing density: the noise-limited limit
        return np.where(gamma == 0.0, 1.0, np.zeros(pa.shape))[()]
    a = 1.0 - pa * bracket(p.beta, gamma, kind)
    # a noise term past the float range is inf, and exp(-inf) = 0 is the limit
    with np.errstate(over="ignore"):
        return np.where(gamma == 0.0, 1.0, _coverage_per_entry(pa, a, k * gamma, p.beta))[()]


def _check_error(what: str, worst: float) -> None:
    """Refuse a what ("coverage" or "rate") quadrature whose worst achieved error is past _QUAD_ERR_LIMIT."""
    if worst > _QUAD_ERR_LIMIT:
        raise NonConvergenceError(f"{what} quadrature achieved only {worst:.2e} absolute error (target {_QUAD_ERR_LIMIT:g})")


def _coverage_per_entry(pa: np.ndarray, a: np.ndarray, noise: np.ndarray, beta: float) -> np.ndarray:
    """_coverage_integral over the entries of a that each entry of p_active pa meets, one call per entry.

    One call over them all would size every entry's panels by the widest span.
    A scalar pa passes a through unmasked: a mask would turn a 0-d a into
    shape (1,), whose matrix product need not round as the 0-d one does.
    """
    if pa.ndim == 0:
        return _coverage_integral(a, noise, beta)
    owner = np.broadcast_to(np.arange(pa.size).reshape(pa.shape), a.shape)
    noise = np.broadcast_to(noise, a.shape)
    out = np.empty(a.shape)
    for i in range(pa.size):
        at = owner == i
        out[at] = _coverage_integral(a[at], noise[at], beta)
    return out


def _coverage_integral(a: np.ndarray, noise: np.ndarray, beta: float) -> np.ndarray:
    """int_0^inf exp(-a t - noise * t^(beta/2)) dt for each pair of entries (a > 0, noise >= 0).

    Summed in v = log t on n equal panels per entry, n set by the widest
    range [_T_MIN, _T_EFOLDS / a], and on 2n; the finer sum is the value.
    """
    lo = math.log(_T_MIN)
    span = np.log(_T_EFOLDS / a) - lo
    n = math.ceil(float(np.max(span)))
    nodes, weights = _rules((0.0, 0.0), (1.0, 1.0), (n, 2 * n))
    sums = []
    for s, w in zip(*(np.split(x, [n * _GL_NODES.size]) for x in (nodes, weights))):
        # the nodes of [0, 1] stretched over each entry's span; dt = t dv
        t = np.exp(lo + span[..., None] * s)
        sums.append(span * ((t * np.exp(-a[..., None] * t - noise[..., None] * t ** (beta / 2.0))) @ w))
    coarse, fine = sums
    _check_error("coverage", float(np.max(np.abs(fine - coarse))))
    return fine


def load_model(ratio: float) -> LoadModel:
    """Idle-mode probabilities from the gamma cell-area model at UE/BS density ratio.

    The densities enter only through their ratio lambda_ue/lambda_bs.
    p_inactive = (1 + ratio/3.5)^(-3.5); p_selection is the chance a UE owns
    a resource block, (1/ratio) * p_active, continued to 1 at ratio = 0.
    """
    if not ratio >= 0.0:
        raise ValueError(f"ratio must be nonnegative, got {ratio}")
    if ratio == 0.0:
        return LoadModel(ratio=0.0, p_inactive=1.0, p_active=0.0, p_selection=1.0)
    p_inactive = (1.0 + ratio / _LOAD_SHAPE) ** (-_LOAD_SHAPE)
    p_active = 1.0 - p_inactive
    p_selection = p_active / ratio
    return LoadModel(ratio=ratio, p_inactive=p_inactive, p_active=p_active, p_selection=min(p_selection, 1.0))


def _tail_mass(beta: float, p_active: float, w: float) -> float:
    # past the branch point (everywhere for the exact kind) the rate integrand is below
    # 1/(p_active Gamma(1-d) w^d (1+w)), so the mass beyond w >= c is below this
    d = 2.0 / beta
    return w ** (-d) / (p_active * math.gamma((beta - 2.0) / beta) * d)


def _w_max(beta: float, p_active: float) -> float:
    # the W at which _tail_mass meets the budget
    d = 2.0 / beta
    return (1.0 / (_TAIL_BUDGET * p_active * math.gamma((beta - 2.0) / beta) * d)) ** (1.0 / d)


def _upper_edge(beta: float, c: float, p_active: float) -> float:
    """The end W of the rate integral's upper piece [c, W]; W = c leaves the piece empty.

    Near beta = 2, Gamma(1-d) is so large that the tail beyond the branch point
    is already within the budget: the upper piece is then empty, its mass
    counted in the tail term of the error bound.
    """
    w_max = _w_max(beta, p_active)
    if w_max > c:
        return w_max
    if not _tail_mass(beta, p_active, c) <= _TAIL_BUDGET:
        raise ValueError(f"rate quadrature at beta={beta}: the tail bound beyond the branch point {c} "
                         f"exceeds {_TAIL_BUDGET:g}")
    return c


def _rules(lo, hi, n) -> tuple[np.ndarray, np.ndarray]:
    # nodes and weights of one Gauss-Legendre rule per entry, end to end: rule i puts n[i]
    # equal panels on [lo[i], hi[i]], panel j at midpoint lo + half*(2j+1), half = (hi - lo)/(2n)
    n = np.asarray(n)
    half = 0.5 * (np.asarray(hi, dtype=float) - lo) / n
    odd = 2.0 * (np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)) + 1.0
    halves = np.repeat(half, n)
    mids = np.repeat(lo, n) + halves * odd
    return (mids[:, None] + halves[:, None] * _GL_NODES).ravel(), (halves[:, None] * _GL_WEIGHTS).ravel()


def _rate_integral(betas: list[float], p_active: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Peak-rate integral int_0^W Pcov(w)/(1+w) dw for every beta and every entry of p_active.

    For each beta the integral runs in v = log w over two pieces split at
    the branch point (where the two-piece bracket has a kink): [w_min, c]
    and [c, W], with W sized for the smallest p_active so that one node set
    serves them all (near beta = 2 the second piece may be empty, see
    _upper_edge). Each piece is summed over n panels and over 2n; the
    finer sum is the value and the coarse-fine gap, plus the mass cut off
    below w_min and beyond W, the reported error bound. Every beta's four
    rules are laid out in one pass, the bracket, which does not depend on
    p_active, is evaluated on each beta's slice of the nodes, and one sum
    closes every panel set. Values and bounds come back with one row per
    beta; the error limit is checked beta by beta, in order.
    """
    pa_min = float(p_active.min())
    edges = []
    for beta in betas:
        c = solve_c(beta).c_exact
        edges.append((math.log(_W_MIN), math.log(c), math.log(_upper_edge(beta, c, pa_min))))
    edges = np.array(edges)
    lo, hi = np.repeat(edges[:, :2], 2), np.repeat(edges[:, 1:], 2)
    n = np.ceil((hi - lo) / _PANEL_WIDTH).astype(int)
    n[1::2] *= 2  # each piece: n panels, then 2n
    laid = n > 0  # an empty upper piece has no panels and sums to 0
    v, q = _rules(lo[laid], hi[laid], n[laid])
    w = np.exp(v)
    starts = (np.cumsum(n) - n) * _GL_NODES.size
    cuts = [*starts[::4].tolist(), w.size]
    b = np.concatenate([bracket(beta, w[i:j], kind) for beta, i, j in zip(betas, cuts, cuts[1:])])
    # Pcov(w)/(1+w) dw = Pcov(w)/(1+1/w) dv
    f = q / ((1.0 - p_active[:, None] * b) * (1.0 + 1.0 / w))
    # (p_active, beta, rule) -> one (beta, p_active) array per rule
    sums = np.zeros((p_active.size, n.size))
    sums[:, laid] = np.add.reduceat(f, starts[laid], axis=1)
    low_coarse, low, high_coarse, high = sums.reshape(p_active.size, -1, 4).T
    err = np.abs(low - low_coarse) + np.abs(high - high_coarse) + _TAIL_BUDGET + _W_MIN
    for row in err:
        _check_error("rate", float(row.max()))
    return low + high, err


def rate_quadrature(beta, p_active=1.0, kind: str = "exact") -> RateResult | list:
    """Ergodic peak rate by the fixed log-space quadrature. Authority for all closed forms.

    kind is the coverage kind integrated, "exact" or "two_piece" as in
    pcov(); the tail cutoff is proven for those two brackets only.
    p_active may also be a sequence; the result is then a list with one
    RateResult per entry (none for an empty one), all from a single bracket
    evaluation. beta may also be a sequence; the result is then a list
    with one entry per beta, each bit for bit what the call with that beta
    alone returns, all from one pass over every beta's nodes. stderr
    carries the achieved absolute error bound.
    """
    betas = np.asarray(beta, dtype=float)
    for b in betas.ravel().tolist():
        _check_beta(b)
    if kind not in ("exact", "two_piece"):
        raise ValueError(f"rate kind must be 'exact' or 'two_piece', got {kind!r}")
    pa = np.asarray(p_active, dtype=float)
    if not np.all(pa >= _MIN_P_ACTIVE):
        raise ValueError(
            f"p_active={np.min(pa)} below {_MIN_P_ACTIVE}: coverage tends to 1 and the "
            "rate integral diverges (no-interference regime)"
        )
    if not np.all(pa <= 1.0):
        raise ValueError(f"p_active must lie in [{_MIN_P_ACTIVE}, 1], got {np.max(pa)}")
    if not (betas.size and pa.size):
        return [[] for _ in range(betas.size)] if betas.ndim else []
    values, errs = _rate_integral(betas.ravel().tolist(), pa.ravel(), kind)
    per_beta = [
        [RateResult(value=v, method=RateMethod.QUADRATURE, stderr=e) for v, e in zip(*rows)]
        for rows in zip(values.tolist(), errs.tolist())
    ]
    if not pa.ndim:
        per_beta = [row[0] for row in per_beta]
    return per_beta if betas.ndim else per_beta[0]


def rate_closed_general(beta: float) -> RateResult:
    """Fully loaded peak rate in closed form, for every beta in (2, 5].

    The two-piece coverage integrated exactly, the integral of Andrews,
    Baccelli & Ganti (IEEE TCOM 2011). Below the branch point c,
    1 - B(w) = (k - w)(w + b)/A with A = 2 beta - 2, R = A/(beta - 2),
    k = R + sqrt(R^2 + A) and b = A/k, so the lower piece is

        A/((k+1)(k+b)) [-log1p(-c/k) + log1p(c/b) + (k+b) D],
        D = int_0^c dw/((w+1)(w+b)) = c/(b(1+c)) log1p(z)/z,  z = c(1-b)/(b(1+c)),

    a sum of positive terms: b is never a difference, and the divided
    difference log1p(z)/z stays finite where b = 1 (beta ~ 4.3508), the
    removable singularity of the partial fractions. Beyond c the coverage
    is 1/(Gamma(1-d) w^d), d = 2/beta, whose integral is a 2F1.
    """
    from scipy.special import hyp2f1

    _check_beta(beta)
    cv = solve_c(beta).c_exact
    big_a = 2.0 * beta - 2.0
    ratio = big_a / (beta - 2.0)
    k = ratio + math.sqrt(ratio * ratio + big_a)
    b = big_a / k
    z = cv * (1.0 - b) / (b * (1.0 + cv))
    gap = cv / (b * (1.0 + cv)) * (math.log1p(z) / z if z else 1.0)
    lower = big_a / ((k + 1.0) * (k + b)) * (-math.log1p(-cv / k) + math.log1p(cv / b) + (k + b) * gap)
    # 1 - d as (beta - 2)/beta: 1 - 2/beta would lose its relative precision next to 2
    d = 2.0 / beta
    tail = beta * cv ** (-d) / (2.0 * math.gamma((beta - 2.0) / beta)) * hyp2f1(1.0, d, 1.0 + d, -1.0 / cv)
    return RateResult(value=float(lower + tail), method=RateMethod.CLOSED_FORM_GENERAL)


def rate_actual(beta: float, ratio: float) -> RateResult:
    """Per-UE rate at UE/BS density ratio: peak rate times the resource-selection probability.

    The vanishing-load limit would multiply a divergent peak rate by a
    selection probability of 1; that regime returns value inf.
    """
    _check_beta(beta)
    lm = load_model(ratio)
    if lm.p_active < _MIN_P_ACTIVE:
        return RateResult(value=math.inf, method=RateMethod.QUADRATURE)
    peak = rate_quadrature(beta, lm.p_active, "two_piece")
    return RateResult(
        value=peak.value * lm.p_selection, method=peak.method, stderr=peak.stderr * lm.p_selection
    )
