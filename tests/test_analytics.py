"""Coverage, rate, load-model, and path-loss layers against frozen references.

The closed forms are checked against values computed independently at
50-digit precision; the quadrature rate is additionally cross-checked
against the closed forms it is supposed to integrate. Coverage has two
independent routes kept here: scipy's adaptive quad over the serving
path-loss density (noise-free) and over the serving distance (noisy).
"""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ppcell import analytics
from ppcell.analytics import (
    RateMethod,
    RateResult,
    load_model,
    pathloss_cdf,
    pcov,
    pcov_general,
    rate_actual,
    rate_closed_general,
    rate_quadrature,
)
from ppcell.mgf import (
    NetworkParams,
    NonConvergenceError,
    bracket,
    exponent_prefactor,
    solve_c,
    taylor_bracket,
    upper_bracket,
)
from ppcell.simulator import SirSampleSet, estimate_rates

PA_RATIO_1 = 0.585051349019134  # active probability at lambda_ue = lambda_bs


def pathloss_pdf(y, p: NetworkParams) -> float | np.ndarray:
    """Density of the nearest-BS path loss at every y > 0 of an array (or a scalar)."""
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0.0):
        raise ValueError(f"path loss must be positive, got {y}")
    d = p.delta
    scale = math.pi * p.lambda_bs * (y / p.kappa) ** d
    return (2.0 * math.pi * p.lambda_bs / p.beta) * (1.0 / p.kappa) ** d * y ** (d - 1.0) * np.exp(-scale)


def density_pcov(gamma: float, p: NetworkParams, p_active: float = 1.0) -> float:
    """Reference noise-free coverage: the interference MGF averaged over pathloss_pdf by quad.

    The density, power and prefactor of p enter explicitly and must cancel.
    """
    if gamma == 0.0:
        return 1.0
    # the interference MGF at s = gamma*l0/p_tx has bracket argument gamma at every l0
    b = float(bracket(p.beta, gamma, "exact"))
    # the integrand decays like exp(-pi lambda (l0/kappa)^d * (1 - p_active*b)); cut at 40 e-folds
    l0_max = p.kappa * (40.0 / (math.pi * p.lambda_bs * (1.0 - b * p_active))) ** (1.0 / p.delta)

    def integrand(l0: float) -> float:
        return math.exp(p_active * exponent_prefactor(p, l0) * b) * float(pathloss_pdf(l0, p))

    val, err = quad(integrand, 0.0, l0_max, epsabs=1e-10, epsrel=1e-10, limit=200)
    assert err <= 1e-8
    return val


def radial_pcov(gamma: float, p: NetworkParams, p_active: float = 1.0, kind: str = "exact") -> float:
    """Reference coverage, noise included: quad over the serving distance r.

    The nearest station lies at r with density 2 pi lambda r exp(-pi lambda r^2).
    The range is split at multiples of the mean-distance scale and of the
    distance where the noise term reaches 1, so each piece is smooth.
    """
    a = 1.0 - p_active * float(bracket(p.beta, gamma, kind))
    lam = p.lambda_bs
    noise = gamma * p.sigma_n2 * p.kappa / p.p_tx

    def integrand(r: float) -> float:
        return 2.0 * math.pi * lam * r * math.exp(-math.pi * lam * r * r * a - noise * r**p.beta)

    scales = [1.0 / math.sqrt(math.pi * lam * a)] + ([noise ** (-1.0 / p.beta)] if noise > 0.0 else [])
    edges = sorted({0.0, *(s * f for s in scales for f in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0))})
    pieces = [quad(integrand, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0] for lo, hi in zip(edges, edges[1:])]
    return math.fsum(pieces) + quad(integrand, edges[-1], math.inf, epsabs=1e-16, limit=200)[0]


class TestCoverageClosedForms:
    def test_exact_reference_values(self):
        assert math.isclose(pcov(1.0, 4.0), 0.537193186192758, rel_tol=1e-12)
        assert math.isclose(pcov(10.0, 4.0), 0.178412348154982, rel_tol=1e-12)
        assert math.isclose(pcov(1.0, 3.0), 0.358369891642279, rel_tol=1e-12)
        assert math.isclose(pcov(100.0, 5.0), 0.106426365952723, rel_tol=1e-12)

    def test_approx_reference_values(self):
        # at gamma=1 < c the approximation is the rational two-term form 6/11
        assert math.isclose(pcov(1.0, 4.0, "two_piece"), 6.0 / 11.0, rel_tol=1e-14)
        assert math.isclose(pcov(10.0, 4.0, "two_piece"), 0.178412411615277, rel_tol=1e-12)

    def test_zero_threshold(self):
        assert pcov(0.0, 4.0) == 1.0
        assert pcov(0.0, 4.0, "two_piece") == 1.0

    def test_partial_load_reference_values(self):
        assert math.isclose(pcov(1.0, 4.0, "exact", PA_RATIO_1), 0.664876841666406, rel_tol=1e-12)
        assert math.isclose(pcov(1.0, 4.0, "two_piece", PA_RATIO_1), 0.672249568988246, rel_tol=1e-12)

    def test_partial_load_brackets_full_load(self):
        # thinning interferers can only improve coverage
        full = pcov(1.0, 4.0, p_active=1.0)
        thin = pcov(1.0, 4.0, p_active=0.3)
        assert thin > full
        assert full == pcov(1.0, 4.0)

    def test_domains(self):
        with pytest.raises(ValueError):
            pcov(-0.1, 4.0)
        with pytest.raises(ValueError):
            pcov(1.0, 2.0)
        with pytest.raises(ValueError):
            pcov(1.0, 4.0, p_active=0.0)
        with pytest.raises(ValueError):
            pcov(1.0, 4.0, "Exact")
        with pytest.raises(ValueError):
            pcov_general(-0.1, NetworkParams(lambda_bs=1.0, beta=4.0))


class TestCoverageIntegralRoute:
    """pcov against the path-loss density integral, which sees density and power."""

    def test_matches_closed_form(self):
        p = NetworkParams(lambda_bs=1.0, beta=4.0)
        assert math.isclose(density_pcov(1.0, p), pcov(1.0, 4.0), rel_tol=1e-10)

    def test_closed_form_matches_integral_route(self):
        # pcov against quadrature over the serving path-loss density, across
        # beta, threshold, load and a density and power the closed form never sees
        for beta in (2.5, 3.0, 4.0, 5.0):
            p = NetworkParams(lambda_bs=3.7e-6, beta=beta, kappa=2.0, p_tx=5.0)
            for gamma in (0.05, 1.0, 10.0, 200.0):
                for pa in (1.0, 0.4, 0.02):
                    want = density_pcov(gamma, p, p_active=pa)
                    assert math.isclose(pcov(gamma, beta, p_active=pa), want, rel_tol=1e-9), (beta, gamma, pa)
                    assert pcov_general(gamma, p, pa) == pcov(gamma, beta, p_active=pa)

    def test_density_invariance(self):
        # the integral route carries lambda_bs explicitly; it must cancel
        pa = NetworkParams(lambda_bs=1.0, beta=3.5)
        pb = NetworkParams(lambda_bs=42.0, beta=3.5)
        assert math.isclose(density_pcov(2.0, pa), density_pcov(2.0, pb), rel_tol=1e-10)
        assert math.isclose(density_pcov(2.0, pb), pcov(2.0, 3.5), rel_tol=1e-10)

    def test_partial_load_route(self):
        p = NetworkParams(lambda_bs=1.0, beta=4.0)
        want = density_pcov(1.0, p, p_active=PA_RATIO_1)
        assert math.isclose(pcov_general(1.0, p, p_active=PA_RATIO_1), want, rel_tol=1e-10)

    def test_noise_lowers_coverage(self):
        quiet = NetworkParams(lambda_bs=1.0, beta=4.0)
        noisy = NetworkParams(lambda_bs=1.0, beta=4.0, sigma_n2=0.2)
        assert pcov_general(1.0, noisy) < pcov_general(1.0, quiet)

    def test_zero_threshold(self):
        for sigma_n2 in (0.0, 1e-9):
            p = NetworkParams(lambda_bs=1.27e-6, beta=4.0, sigma_n2=sigma_n2)
            assert pcov_general(0.0, p) == 1.0

    @pytest.mark.parametrize(
        ("beta", "lambda_bs"), [(5.0, 1e-131), (4.0, 1e-170), (5.0, 1e-300), (5.0, 1e-125), (4.0, 1e-156)]
    )
    def test_vanishing_density_is_noise_limited(self, beta, lambda_bs):
        # the first three underflow (pi lambda)^(beta/2), the last two
        # overflow the noise term k gamma t^(beta/2): both give the limit
        # coverage 0 above gamma = 0, with no error and no warning
        p = NetworkParams(lambda_bs=lambda_bs, beta=beta, sigma_n2=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pcov_general(np.array([0.0, 1e-3, 1.0, 1e3]), p)
        assert got.tolist() == [1.0, 0.0, 0.0, 0.0]


class TestNoisyCoverage:
    """pcov_general with noise: a panel rule in log t, held to quad over the distance."""

    # the noise case the CLI once printed wrong: lambda 1.27e-6, beta 4, gamma 1
    P_NOISY = NetworkParams(lambda_bs=1.27e-6, beta=4.0, sigma_n2=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        beta=st.floats(2.0, 5.0, exclude_min=True),
        p_active=st.floats(1e-3, 1.0),
        gamma=st.floats(0.0, 1e3),
    )
    def test_rule_without_noise_is_pcov(self, beta, p_active, gamma):
        for kind in ("exact", "two_piece"):
            a = 1.0 - p_active * bracket(beta, gamma, kind)
            got = analytics._coverage_integral(np.asarray(a), np.asarray(0.0), beta)
            assert abs(got - pcov(gamma, beta, kind, p_active)) <= 1e-14, kind

    def test_matches_radial_quadrature(self):
        for sigma_n2 in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8):
            for beta in (2.5, 4.0, 5.0):
                p = NetworkParams(lambda_bs=1.27e-6, beta=beta, kappa=2.0, p_tx=3.0, sigma_n2=sigma_n2)
                for pa in (1.0, 0.1):
                    gammas = np.array([0.01, 1.0, 100.0])
                    got = pcov_general(gammas, p, pa)
                    for g, v in zip(gammas.tolist(), got.tolist()):
                        want = radial_pcov(g, p, pa)
                        assert abs(v - want) <= 1e-12, (sigma_n2, beta, pa, g, v, want)

    def test_regression_value(self):
        # a quad over the path-loss density read 5.4e-15 here, with no error raised
        assert math.isclose(pcov_general(1.0, self.P_NOISY), 0.098414, abs_tol=5e-7)
        assert math.isclose(pcov_general(1.0, self.P_NOISY), radial_pcov(1.0, self.P_NOISY), abs_tol=1e-12)

    def test_array_matches_pointwise(self):
        grid = np.array([0.0, 0.1, 1.0, 10.0, 1e3])
        for kind in ("exact", "two_piece"):
            curve = pcov_general(grid, self.P_NOISY, 0.3, kind)
            for g, c in zip(grid.tolist(), curve.tolist()):
                assert math.isclose(c, pcov_general(g, self.P_NOISY, 0.3, kind), rel_tol=1e-13), (kind, g)
            assert np.all(np.diff(curve) < 0.0)
            assert np.all(curve <= pcov(grid, 4.0, kind, 0.3))

    def test_density_enters_only_through_k(self):
        # scaling lambda by s and sigma_n2 by s^(beta/2) leaves k unchanged
        s = 7.0
        p = NetworkParams(lambda_bs=1.27e-6 * s, beta=4.0, sigma_n2=1e-9 * s**2)
        assert math.isclose(pcov_general(1.0, p), pcov_general(1.0, self.P_NOISY), rel_tol=1e-12)

    def test_domains(self):
        with pytest.raises(ValueError):
            pcov_general(-0.1, self.P_NOISY)
        with pytest.raises(ValueError):
            pcov_general(1.0, self.P_NOISY, p_active=0.0)
        with pytest.raises(ValueError):
            pcov_general(1.0, self.P_NOISY, kind="Exact")

    def test_unmet_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(analytics, "_QUAD_ERR_LIMIT", 1e-300)
        with pytest.raises(NonConvergenceError, match="coverage quadrature"):
            pcov_general(np.array([0.5, 1.0, 2.0]), self.P_NOISY)


class TestCoverageCurve:
    def test_array_matches_pointwise(self):
        # a curve is one pcov call on the threshold array; each entry must be
        # the scalar call's value bit for bit
        grid = [0.0, 0.1, 1.0, 10.0]
        exact = pcov(np.array(grid), 4.0, "exact", 0.7)
        approx = pcov(np.array(grid), 4.0, "two_piece", 0.7)
        for g, e, a in zip(grid, exact.tolist(), approx.tolist()):
            assert e == pcov(g, 4.0, "exact", 0.7) and a == pcov(g, 4.0, "two_piece", 0.7), g


class TestPActiveAxis:
    """A column of p_active entries against a row of thresholds: one curve per entry, bit for bit its own call."""

    # no threshold near 0, where a = 1 - p_active*B is 1 for every entry: above it, the
    # entries' spans in log t differ, and so do the noisy rule's panel counts
    GAMMAS = np.array([0.1, 0.5, 1.0, 4.0, 10.0, 100.0, 1e3])
    P_ACTIVE = np.array([1e-3, 0.07, 0.3, 0.585, 0.9, 1.0])

    @staticmethod
    def hexes(values) -> list[str]:
        return [v.hex() for v in np.asarray(values).tolist()]

    @pytest.mark.parametrize("sigma_n2", [0.0, 1e-9])
    @pytest.mark.parametrize("kind", ["exact", "two_piece"])
    def test_pcov_general_rows_are_the_per_entry_calls(self, sigma_n2, kind):
        for beta in (2.05, 3.0, 4.0, 4.3508, 5.0):
            p = NetworkParams(lambda_bs=1.27e-6, beta=beta, sigma_n2=sigma_n2)
            got = pcov_general(self.GAMMAS, p, self.P_ACTIVE[:, None], kind)
            assert got.shape == (self.P_ACTIVE.size, self.GAMMAS.size)
            for row, pa in zip(got, self.P_ACTIVE.tolist()):
                assert self.hexes(row) == self.hexes(pcov_general(self.GAMMAS, p, pa, kind)), (beta, pa)

    @pytest.mark.parametrize("kind", ["exact", "two_piece"])
    def test_pcov_rows_are_the_per_entry_calls(self, kind):
        for beta in (2.05, 3.0, 4.0, 5.0):
            got = pcov(self.GAMMAS, beta, kind, self.P_ACTIVE[:, None])
            for row, pa in zip(got, self.P_ACTIVE.tolist()):
                assert self.hexes(row) == self.hexes(pcov(self.GAMMAS, beta, kind, pa)), (beta, pa)

    def test_vanishing_density_keeps_the_shape(self):
        p = NetworkParams(lambda_bs=1e-300, beta=5.0, sigma_n2=1e-9)
        got = pcov_general(self.GAMMAS, p, self.P_ACTIVE[:, None])
        assert got.shape == (self.P_ACTIVE.size, self.GAMMAS.size)
        assert np.all(got == pcov_general(self.GAMMAS, p))

    def test_first_entry_out_of_range_is_named(self):
        for sigma_n2 in (0.0, 1e-9):
            p = NetworkParams(lambda_bs=1.27e-6, beta=4.0, sigma_n2=sigma_n2)
            with pytest.raises(ValueError, match=re.escape("p_active must lie in (0, 1], got 0.0")):
                pcov_general(self.GAMMAS, p, np.array([[0.5], [0.0], [1.5]]))


class TestRateQuadrature:
    def test_fully_loaded_exact_references(self):
        for beta, want in ((3.0, 0.829489013005295), (4.0, 1.39142060867317), (5.0, 1.91684777490024)):
            r = rate_quadrature(beta)
            assert r.method is RateMethod.QUADRATURE
            # the achieved error bound rides in the shared error field
            assert 0.0 < r.stderr <= 1e-8
            assert math.isclose(r.value, want, abs_tol=5e-9), beta

    def test_fully_loaded_approx_references(self):
        for beta, want in ((3.0, 0.832652864762999), (4.0, 1.39696054040662), (5.0, 1.9233692112552)):
            r = rate_quadrature(beta, kind="two_piece")
            assert math.isclose(r.value, want, abs_tol=5e-9), beta

    def test_rate_grows_with_beta(self):
        # steeper path loss isolates cells and raises the ergodic rate
        vals = [rate_quadrature(b).value for b in (2.5, 3.0, 3.5, 4.0, 4.5, 5.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_thinning_raises_peak_rate(self):
        full = rate_quadrature(4.0, 1.0).value
        thin = rate_quadrature(4.0, 0.3).value
        assert thin > full

    def test_p_active_domain(self):
        with pytest.raises(ValueError):
            rate_quadrature(4.0, 5e-7)
        with pytest.raises(ValueError):
            rate_quadrature(4.0, 1.1)

    def test_kind_domain(self):
        # the tail cutoff is proven for the exact and two-piece brackets only
        with pytest.raises(ValueError, match="'rayleigh'"):
            rate_quadrature(4.0, 1.0, "rayleigh")


def adaptive_rate(beta, p_active, kind):
    """Reference peak rate: scipy's adaptive quad over scalar brackets.

    Integrates up to the same tail cutoff W the rule uses for one p_active,
    linearly on [0, c] and in log w on [c, W]. The brackets are held to
    mpmath in test_mgf; here the integration rule is under test.
    """
    d = 2.0 / beta
    c = solve_c(beta).c_exact

    def scalar_bracket(w):
        if kind == "exact":
            return float(bracket(beta, w, "exact"))
        return taylor_bracket(beta, w, 2) if w <= c else upper_bracket(beta, w)

    def integrand(w):
        return 1.0 / ((1.0 - p_active * scalar_bracket(w)) * (1.0 + w))

    # near beta = 2 the tail budget is met before c and the upper piece is empty
    w_max = max(c, (1.0 / (1e-10 * p_active * math.gamma(1.0 - d) * d)) ** (1.0 / d))
    low, _ = quad(integrand, 0.0, c, epsabs=1e-14, epsrel=1e-13, limit=400)
    high, _ = quad(
        lambda v: integrand(math.exp(v)) * math.exp(v),
        math.log(c), math.log(w_max), epsabs=1e-13, epsrel=1e-13, limit=800,
    )
    return low + high


def rate_bits(results) -> list[tuple[str, str]]:
    """(value, stderr) as float.hex pairs of a RateResult or a list of them."""
    if isinstance(results, RateResult):
        return [(results.value.hex(), results.stderr.hex())]
    return [bits for r in results for bits in rate_bits(r)]


# root of 2 beta^2 - 11 beta + 10, where the closed form's partial fractions have a removable singularity
SINGULAR_BETA = (11.0 + math.sqrt(41.0)) / 4.0


def mpmath_closed_rate(beta: float) -> float:
    """int_0^inf Pcov(w)/(1+w) dw of the fully loaded two-piece coverage by mpmath quad at 50 digits.

    The branch point is solve_c's float, so this is the integral
    rate_closed_general evaluates. Below it the coverage is 1/(1 - B_2(w))
    from the two-term series as written; the pole of the integrand at
    w ~ -(beta-2)/2 makes the lower piece steep near 0 as beta -> 2, so its
    range is split at decades of that scale. Beyond it the coverage is
    1/(Gamma(1-d) w^d), integrated in t = w^(-d), where the integrand
    1/(d (1 + t^(1/d))) is bounded.
    """
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        c = mpmath.mpf(solve_c(beta).c_exact)
        d = 2 / b

        def lower(w):
            return 1 / ((1 + 2 * w / (b - 2) - w * w / (2 * b - 2)) * (1 + w))

        def upper(t):
            return 1 / (d * mpmath.gamma(1 - d) * (1 + t ** (1 / d)))

        scale = (b - 2) / 200
        edges = [mpmath.mpf(0)]
        while scale < c:
            edges.append(scale)
            scale *= 10
        edges.append(c)
        return float(mpmath.quad(lower, edges) + mpmath.quad(upper, [0, c ** (-d)]))


class TestRateRule:
    BETAS = (2.01, 2.05, 2.1, 2.5, 3.0, 4.0, 4.3508, 5.0)
    P_ACTIVE = (1.0, 0.5, 0.05, 1e-3, 1e-6)

    def test_matches_adaptive_quadrature(self):
        # includes beta=2.05, where the pole of the coverage at
        # w ~ -(beta-2)/2 defeats a few linear panels on [0, c]
        for beta in self.BETAS:
            for kind in ("exact", "two_piece"):
                for pa in self.P_ACTIVE:
                    got = rate_quadrature(beta, pa, kind)
                    want = adaptive_rate(beta, pa, kind)
                    assert abs(got.value - want) <= 1e-10, (beta, kind, pa)
                    assert 0.0 < got.stderr <= 1e-8, (beta, kind, pa)

    def test_vector_p_active_one_result_each(self):
        # one node set sized for the smallest p_active serves every entry;
        # each value stays within the error bounds of its scalar twin
        for kind in ("exact", "two_piece"):
            results = rate_quadrature(3.0, list(self.P_ACTIVE), kind)
            assert len(results) == len(self.P_ACTIVE)
            for pa, r in zip(self.P_ACTIVE, results):
                single = rate_quadrature(3.0, pa, kind)
                assert r.method is RateMethod.QUADRATURE
                assert abs(r.value - single.value) <= r.stderr + single.stderr, (kind, pa)
        with pytest.raises(ValueError):
            rate_quadrature(3.0, np.array([0.5, 0.0]))

    @settings(max_examples=40, deadline=None)
    @given(
        extra=st.lists(st.floats(2.0, 5.0, exclude_min=True), max_size=4),
        near_singular=st.floats(-0.02, 0.02),
        p_active=st.one_of(st.floats(1e-6, 1.0), st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=6)),
    )
    # the float after 2: its upper piece is empty, and the batch lays out no panels for it
    @example(extra=[2.0000000000000004], near_singular=0.0, p_active=1e-05)
    def test_beta_axis_is_bitwise_the_scalar_calls(self, extra, near_singular, p_active):
        # beta 4 takes numpy's sqrt path for x ** 0.5; 4.3508 is next to SINGULAR_BETA
        betas = [3.0, 4.0, 5.0, 4.3508 + near_singular, *extra]
        for kind in ("exact", "two_piece"):
            try:
                want = [rate_bits(rate_quadrature(beta, p_active, kind)) for beta in betas]
            except (ValueError, ArithmeticError) as exc:
                # the batch refuses as the first refusing beta does
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    rate_quadrature(betas, p_active, kind)
                continue
            got = rate_quadrature(betas, p_active, kind)
            assert [rate_bits(results) for results in got] == want, kind

    # (beta, p_active, kind) -> int_{w_min}^c Pcov(w)/(1+w) dw by mpmath quad at 40 digits
    # over the hyp1f1 bracket (exact) or the two-term series (two_piece)
    NEAR_TWO = {
        (2.0000000000000004, 1e-5, "exact"): 5.3008848445103807e-10,
        (2.0000000000000004, 1e-5, "two_piece"): 5.3008848445103807e-10,
        (2.0000000000000004, 1.0, "exact"): 5.9990202833682663e-15,
        (2.0000000000000004, 1.0, "two_piece"): 5.9990202833682663e-15,
        (2.000000000001, 1.0, "exact"): 1.3307139303041909e-11,
        (2.000000000001, 1.0, "two_piece"): 1.3307139303041917e-11,
    }

    def test_empty_upper_piece_near_two(self):
        # the tail bound is met before the branch point, so the integral is its lower
        # piece alone: no warning, no panels above c, the tail within the budget
        for (beta, pa, kind), want in self.NEAR_TWO.items():
            c = solve_c(beta).c_exact
            assert analytics._w_max(beta, pa) <= c
            assert analytics._tail_mass(beta, pa, c) <= analytics._TAIL_BUDGET
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = rate_quadrature(beta, pa, kind)
                [batched] = rate_quadrature([beta], [pa], kind)
            assert abs(got.value - want) <= 1e-12 * want, (beta, pa, kind)
            assert 0.0 < got.stderr <= 1e-8
            assert rate_bits(batched) == rate_bits(got)

    def test_unbounded_empty_upper_piece_is_refused(self, monkeypatch):
        # were the tail past c not shown within the budget, the scalar and the batch refuse alike
        monkeypatch.setattr(analytics, "_tail_mass", lambda beta, p_active, w: 1.0)
        for betas in (2.0000000000000004, [3.0, 2.0000000000000004]):
            with pytest.raises(ValueError, match=re.escape("beta=2.0000000000000004")):
                rate_quadrature(betas, 1e-5)
        assert rate_quadrature(3.0).value > 0.0  # an upper piece with panels needs no bound at c

    def test_empty_beta_axis(self):
        assert rate_quadrature([]) == []
        assert rate_quadrature(np.array([]), [0.2, 0.9], "two_piece") == []

    def test_first_failing_beta_is_reported(self, monkeypatch):
        # wide panels make the achieved error differ by beta: at this limit 2.5 and 3
        # pass and 4.5, 4 and 3.5 fail, each with its own figure; the batch must
        # stop where the loop of scalar calls stops, not report the worst beta
        monkeypatch.setattr(analytics, "_PANEL_WIDTH", 8.0)
        monkeypatch.setattr(analytics, "_QUAD_ERR_LIMIT", 5e-10)
        betas = [2.5, 3.0, 4.5, 4.0, 3.5]
        messages = []
        for beta in betas:
            try:
                rate_quadrature(beta)
            except NonConvergenceError as exc:
                messages.append(str(exc))
        assert len(set(messages)) == 3
        with pytest.raises(NonConvergenceError) as info:
            rate_quadrature(betas)
        assert str(info.value) == messages[0]

    def test_error_limit_still_enforced(self, monkeypatch):
        # the reported bound never drops below the tail budget, so a limit
        # beneath it must trip
        monkeypatch.setattr(analytics, "_QUAD_ERR_LIMIT", 1e-11)
        with pytest.raises(NonConvergenceError):
            rate_quadrature(4.0)
        with pytest.raises(NonConvergenceError):
            rate_quadrature(4.0, [0.2, 0.9], "two_piece")


class TestRateClosedGeneral:
    def test_matches_quadrature(self):
        for k in range(20):
            beta = 2.625 + 0.125 * k
            closed = rate_closed_general(beta)
            ref = rate_quadrature(beta, 1.0, "two_piece")
            assert closed.method is RateMethod.CLOSED_FORM_GENERAL
            assert math.isclose(closed.value, ref.value, abs_tol=1e-8), beta

    def test_singular_root_served_by_closed_form(self):
        # the partial fractions' removable singularity at the root of 2 beta^2 - 11 beta + 10
        # and the edges of the window that once sent it to the quadrature
        for beta in (SINGULAR_BETA, *(SINGULAR_BETA + step for step in (-0.021, -0.019, 0.019, 0.021))):
            got = rate_closed_general(beta)
            assert got.method is RateMethod.CLOSED_FORM_GENERAL, beta
            assert math.isclose(got.value, rate_quadrature(beta, 1.0, "two_piece").value, abs_tol=1e-8), beta
        inside = rate_closed_general(SINGULAR_BETA + 0.019)
        outside = rate_closed_general(SINGULAR_BETA + 0.021)
        assert abs(inside.value - outside.value) < 5e-3

    def test_near_two_served_by_closed_form(self):
        # b = A/k is never a difference, so nothing cancels as beta -> 2
        for beta in (2.0000000000000004, 2.000000000001, 2.0 + 0.99e-5):
            got = rate_closed_general(beta)
            assert got.method is RateMethod.CLOSED_FORM_GENERAL, beta
            assert math.isclose(got.value, rate_quadrature(beta, 1.0, "two_piece").value, abs_tol=1e-8), beta
        inside = rate_closed_general(2.0 + 0.99e-5)
        outside = rate_closed_general(2.0 + 1.01e-5)
        assert outside.method is RateMethod.CLOSED_FORM_GENERAL
        assert abs(inside.value - outside.value) < 2e-6

    # next to 2, the 20 betas of the rate-closed-forms check, the singular root and its
    # neighbours up to the edges of the old fallback window, and 5
    MPMATH_BETAS = (
        2.0000000000000004, 2.0 + 1e-12, 2.0 + 1e-9, 2.0 + 1e-6, 2.0 + 0.99e-5, 2.0 + 1.01e-5, 2.0 + 1e-3,
        *(2.625 + 0.125 * k for k in range(20)),
        SINGULAR_BETA, *(SINGULAR_BETA + s * h for h in (1e-8, 1e-3, 0.019, 0.021) for s in (-1.0, 1.0)),
        5.0,
    )

    def test_matches_mpmath_reference(self):
        for beta in self.MPMATH_BETAS:
            want = mpmath_closed_rate(beta)
            got = rate_closed_general(beta).value
            assert abs(got - want) <= 1e-14 * want, (beta, got, want)

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(2.0, 5.0, exclude_min=True))
    @example(beta=2.0000000000000004)
    @example(beta=SINGULAR_BETA)
    def test_every_beta_is_closed_form_within_quadrature(self, beta):
        got = rate_closed_general(beta)
        assert got.method is RateMethod.CLOSED_FORM_GENERAL
        assert abs(got.value - rate_quadrature(beta, 1.0, "two_piece").value) <= 1e-8

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            rate_closed_general(2.0)


class TestRatePeakPartialLoad:
    def test_monotone_in_activity(self):
        vals = [r.value for r in rate_quadrature(3.0, [0.9, 0.5, 0.2], "two_piece")]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestBitwisePins:
    """Rate and noisy-coverage values pinned bit for bit, as float.hex literals.

    The comparisons with scipy's quad above allow tolerances, so a change of
    the last bits of a node, weight or sum would pass them unseen; these
    pins catch it. They hold for this rule and for the numpy and scipy
    builds whose exp, log and gammainc produced them.
    """

    GAMMAS = (0.1, 1.0, 10.0)
    VECTOR = (1e-3, 0.3, 1.0)
    # (kind, beta) -> (value, stderr) at p_active 1, then one pair per VECTOR entry
    RATE_PINS = {
        ("exact", 2.05): [
            ("0x1.86161088f9634p-4", "0x1.bc33ee7dc7563p-34"),
            ("0x1.b62a81e42301cp+1", "0x1.bc35a3fdc7563p-34"),
            ("0x1.d2b4a6fc688dap-3", "0x1.bc33e7fdc7563p-34"),
            ("0x1.8616108fd6d8ep-4", "0x1.bc33ec7dc7563p-34"),
        ],
        ("exact", 3.0): [
            ("0x1.a8b2c8ada16adp-1", "0x1.bc3513fdc7563p-34"),
            ("0x1.1cca859a86e55p+3", "0x1.bc3723fdc7563p-34"),
            ("0x1.9a17d05b0820ap+0", "0x1.bc5e63fdc7563p-34"),
            ("0x1.a8b2c8ae7d198p-1", "0x1.bc3fc3fdc7563p-34"),
        ],
        ("exact", 4.35): [
            ("0x1.93e063dd30b79p+0", "0x1.bc5ae3fdc7563p-34"),
            ("0x1.beb608df7e6bap+3", "0x1.bc3803fdc7563p-34"),
            ("0x1.75afc1205cfdbp+1", "0x1.bc5163fdc7563p-34"),
            ("0x1.93e063dd9e8eep+0", "0x1.bc5183fdc7563p-34"),
        ],
        ("exact", 5.0): [
            ("0x1.eab6892830854p+0", "0x1.bc7983fdc7563p-34"),
            ("0x1.04ad471cf782bp+4", "0x1.bc3503fdc7563p-34"),
            ("0x1.c1e678f4b814bp+1", "0x1.bce6a3fdc7563p-34"),
            ("0x1.eab689289e5c6p+0", "0x1.bcab83fdc7563p-34"),
        ],
        ("two_piece", 2.05): [
            ("0x1.862f38faa4c36p-4", "0x1.bc33ebfdc7563p-34"),
            ("0x1.b62be7195de43p+1", "0x1.bc3403fdc7563p-34"),
            ("0x1.d2d8ed9861338p-3", "0x1.bc33f5fdc7563p-34"),
            ("0x1.862f390182390p-4", "0x1.bc33edfdc7563p-34"),
        ],
        ("two_piece", 3.0): [
            ("0x1.aa5179ed49ba4p-1", "0x1.bc3453fdc7563p-34"),
            ("0x1.1ccac919342b2p+3", "0x1.bc3503fdc7563p-34"),
            ("0x1.9af44496bff77p+0", "0x1.bc34c3fdc7563p-34"),
            ("0x1.aa5179ee25690p-1", "0x1.bc3443fdc7563p-34"),
        ],
        ("two_piece", 4.35): [
            ("0x1.95699225638d3p+0", "0x1.bc3443fdc7563p-34"),
            ("0x1.beb6378b6c1b6p+3", "0x1.bc3603fdc7563p-34"),
            ("0x1.76334a3d901d4p+1", "0x1.bc3423fdc7563p-34"),
            ("0x1.95699225d1648p+0", "0x1.bc3403fdc7563p-34"),
        ],
        ("two_piece", 5.0): [
            ("0x1.ec61ecb40e98bp+0", "0x1.bc34c3fdc7563p-34"),
            ("0x1.04ad5b6e77da8p+4", "0x1.bc3723fdc7563p-34"),
            ("0x1.c2655d2905f20p+1", "0x1.bc34e3fdc7563p-34"),
            ("0x1.ec61ecb47c701p+0", "0x1.bc34c3fdc7563p-34"),
        ],
    }
    # the closed form at 4.35, next to the singular root; it leaves stderr 0
    CLOSED_4_35 = ("0x1.95699225d29a0p+0", "0x0.0p+0")
    # (kind, beta, p_active) -> coverage at GAMMAS, lambda_bs 1e-5, sigma_n2 1e-9
    NOISY_PINS = {
        ("exact", 3.0, 1.0): ["0x1.ab4b6e4a02343p-1", "0x1.6e60c7e89f8d4p-2", "0x1.48d6f632e70e1p-4"],
        ("exact", 3.0, 0.3): ["0x1.e305281d22c3ap-1", "0x1.4bc7669257ac2p-1", "0x1.ca92b6a2582bcp-3"],
        ("exact", 4.0, 1.0): ["0x1.9ae26b3a3e90cp-1", "0x1.94de0bd64a2eap-2", "0x1.07c631f08cb0bp-3"],
        ("exact", 4.0, 0.3): ["0x1.b082bccb4cdddp-1", "0x1.f5f506b4a3e11p-2", "0x1.8764ea96b127fp-3"],
        ("two_piece", 3.0, 1.0): ["0x1.ab4fb3b5e6e4ap-1", "0x1.73bfba6d0758ep-2", "0x1.48d6fabb70d9fp-4"],
        ("two_piece", 3.0, 0.3): ["0x1.e306cb3e3c3ccp-1", "0x1.4e66a19c26e0ap-1", "0x1.ca92bbe84469cp-3"],
        ("two_piece", 4.0, 1.0): ["0x1.9ae4ee148c0b0p-1", "0x1.98a8d34c39fe3p-2", "0x1.07c6359ca4ff3p-3"],
        ("two_piece", 4.0, 0.3): ["0x1.b08390cc42469p-1", "0x1.f799654a716d8p-2", "0x1.8764ecbf42d6ap-3"],
    }

    @staticmethod
    def hexes(results) -> list[tuple[str, str]]:
        return [(r.value.hex(), r.stderr.hex()) for r in results]

    @pytest.mark.parametrize("case", list(RATE_PINS), ids=lambda case: f"{case[0]}-{case[1]}")
    def test_rate_quadrature(self, case):
        kind, beta = case
        got = self.hexes([rate_quadrature(beta, 1.0, kind), *rate_quadrature(beta, list(self.VECTOR), kind)])
        assert got == self.RATE_PINS[case]

    def test_rate_closed_general_at_4_35(self):
        r = rate_closed_general(4.35)
        assert r.method is RateMethod.CLOSED_FORM_GENERAL
        assert self.hexes([r]) == [self.CLOSED_4_35]

    @pytest.mark.parametrize("case", list(NOISY_PINS), ids=lambda case: "-".join(map(str, case)))
    def test_noisy_pcov_general(self, case):
        kind, beta, p_active = case
        p = NetworkParams(lambda_bs=1e-5, beta=beta, sigma_n2=1e-9)
        got = pcov_general(np.array(self.GAMMAS), p, p_active, kind)
        assert [v.hex() for v in got.tolist()] == self.NOISY_PINS[case]


class TestRateActual:
    def test_value_is_peak_times_selection(self):
        lam = 2.3e-6
        r = rate_actual(4.0, lam, lam)
        lm = load_model(lam, lam)
        peak = rate_quadrature(4.0, lm.p_active, "two_piece")
        assert math.isclose(r.value, peak.value * lm.p_selection, rel_tol=1e-15)
        assert r.method is peak.method

    def test_general_beta_uses_quadrature(self):
        # beta = 3 and 4 take the same route as any other beta
        for beta in (3.0, 4.0, 4.5):
            r = rate_actual(beta, 1.0, 1.0)
            assert r.method is RateMethod.QUADRATURE, beta

    def test_vanishing_load_sentinel(self):
        r = rate_actual(4.0, 1e-12, 1.0)
        assert r.no_interference
        assert math.isinf(r.value)

    def test_actual_rate_decreases_with_crowding(self):
        vals = [rate_actual(4.0, ratio, 1.0).value for ratio in (1.0, 4.0, 8.0, 12.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestRateResult:
    def test_field_domains(self):
        with pytest.raises(ValueError):
            RateResult(value=1.0, method=RateMethod.QUADRATURE, stderr=-0.1)
        with pytest.raises(ValueError):
            RateResult(value=-1.0, method=RateMethod.QUADRATURE)

    def test_values_are_plain_floats(self):
        samples = SirSampleSet(
            sir_values=np.linspace(0.5, 5.0, 100), n_users_in_cell=np.full(100, 2), n_active_bs=np.full(100, 50)
        )
        results = [
            rate_closed_general(3.0),
            rate_closed_general(SINGULAR_BETA),
            rate_quadrature(3.0),
            *rate_quadrature(3.0, [0.5, 1.0]),
            rate_actual(4.0, 1.0, 1.0),
            rate_actual(4.0, 1e-12, 1.0),
            *estimate_rates(samples),
        ]
        assert [type(r.value) for r in results] == [float] * len(results)
        assert results[0].method is RateMethod.CLOSED_FORM_GENERAL
        assert results[1].method is RateMethod.CLOSED_FORM_GENERAL

    def test_method_labels(self):
        assert RateMethod.CLOSED_FORM_GENERAL.value == "ClosedFormGeneral"
        assert RateMethod.QUADRATURE.value == "Quadrature"
        assert RateMethod.MONTE_CARLO.value == "MonteCarlo"


class TestLoadModel:
    # (ratio, p_inactive, p_active, p_selection), computed at 50 digits from
    # the gamma-cell occupancy model with shape 3.5
    TABLE = (
        (0.17, 0.847045872078, 0.152954127922, 0.899730164246),
        (1.0, 0.414948650981, 0.585051349019, 0.585051349019),
        (4.0, 0.0694262540785, 0.930573745921, 0.23264343648),
        (4.34, 0.0594472728123, 0.940552727188, 0.216717218246),
        (8.51, 0.0133609589389, 0.986639041061, 0.115938782733),
        (11.11, 0.00672918393529, 0.993270816065, 0.0894033137772),
    )

    def test_reference_values(self):
        for ratio, p_in, p_act, p_sel in self.TABLE:
            lm = load_model(ratio, 1.0)
            assert math.isclose(lm.p_inactive, p_in, rel_tol=1e-11), ratio
            assert math.isclose(lm.p_active, p_act, rel_tol=1e-11), ratio
            assert math.isclose(lm.p_selection, p_sel, rel_tol=1e-11), ratio

    def test_probabilities_sum(self):
        for ratio in (0.01, 0.5, 2.0, 20.0):
            lm = load_model(ratio, 1.0)
            assert math.isclose(lm.p_inactive + lm.p_active, 1.0, rel_tol=1e-15)
            assert math.isclose(lm.p_selection, lm.p_active / lm.ratio, rel_tol=1e-15)

    def test_no_users_limit(self):
        lm = load_model(0.0, 1.0)
        assert lm.p_inactive == 1.0
        assert lm.p_active == 0.0
        assert lm.p_selection == 1.0

    def test_scale_invariance(self):
        a = load_model(3.0, 1.0)
        b = load_model(3.0e-6, 1.0e-6)
        assert math.isclose(a.p_active, b.p_active, rel_tol=1e-15)

    def test_domains(self):
        with pytest.raises(ValueError):
            load_model(1.0, 0.0)
        with pytest.raises(ValueError):
            load_model(-1.0, 1.0)


class TestPathLoss:
    P = NetworkParams(lambda_bs=1.27e-6, beta=4.0)

    def test_cdf_reference_values(self):
        assert math.isclose(pathloss_cdf(1e10, self.P), 0.328997399867, rel_tol=1e-11)
        assert math.isclose(pathloss_cdf(1e11, self.P), 0.716825711295, rel_tol=1e-11)

    def test_pdf_integrates_to_cdf(self):
        val, _ = quad(lambda y: pathloss_pdf(y, self.P), 0.0, 1e10, limit=200)
        assert math.isclose(val, pathloss_cdf(1e10, self.P), rel_tol=1e-9)

    def test_cdf_bounds(self):
        assert pathloss_cdf(0.0, self.P) == 0.0
        assert pathloss_cdf(-5.0, self.P) == 0.0
        assert pathloss_cdf(1e30, self.P) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_domain(self):
        with pytest.raises(ValueError):
            pathloss_pdf(0.0, self.P)

    def test_record_validation(self):
        # the law's parameters arrive in NetworkParams, which refuses the
        # values the density cannot take
        with pytest.raises(ValueError):
            pathloss_pdf(1.0, NetworkParams(lambda_bs=0.0, beta=4.0))
        with pytest.raises(ValueError):
            pathloss_cdf(1.0, NetworkParams(lambda_bs=1.0, beta=2.0))
        with pytest.raises(ValueError):
            pathloss_pdf(1.0, NetworkParams(lambda_bs=1.0, beta=4.0, kappa=0.0))

    def test_array_matches_pointwise(self):
        ys = np.array([-1.0, 0.0, 1e9, 1e10, 3e11, 1e30])
        cdf = pathloss_cdf(ys, self.P)
        for y, c in zip(ys.tolist(), cdf.tolist()):
            assert c == pathloss_cdf(y, self.P), y
        pdf = pathloss_pdf(ys[2:], self.P)
        for y, f in zip(ys[2:].tolist(), pdf.tolist()):
            assert f == pathloss_pdf(y, self.P), y
        with pytest.raises(ValueError):
            pathloss_pdf(np.array([1.0, 0.0]), self.P)
