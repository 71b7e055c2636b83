"""Interference-MGF layer: branch constant, brackets, the MGF and its series.

Reference values are frozen from a 50-digit independent evaluation of the
defining integrals (root of the bracket-matching equation, Kummer-form MGF,
double-quadrature marked MGF). A nested adaptive quadrature over fading
mark and radius is the second route for the "rayleigh" bracket kind.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from ppcell import mgf as mgf_module
from ppcell.mgf import (
    IntersectionConstant,
    NetworkParams,
    NonConvergenceError,
    _NEAR_TWO_T,
    _bracket_gap,
    _bracket_gap_slope,
    _lgamma1p_coefs,
    bracket,
    exponent_prefactor,
    mgf,
    solve_c,
    taylor_bracket,
    upper_bracket,
)

# unit exponent prefactor: pi * lambda * (l0/kappa)^delta = 1 at l0 = 1
UNIT = {b: NetworkParams(lambda_bs=1.0 / math.pi, beta=b) for b in (3.0, 4.0, 5.0)}


def marked_inner(y, delta):
    """Radial integral at a fixed fading mark: int_0^1 (e^(-y t) - 1) t^(-delta-1) dt.

    The integrable endpoint singularity is peeled off analytically:
    (e^(-yt) - 1 + yt) t^(-delta-1) vanishes like t^(1-delta) at 0, and the
    remaining -y t^(-delta) piece integrates to -y/(1-delta).
    """
    if y == 0.0:
        return 0.0

    def regular_part(t):
        return (math.exp(-y * t) - 1.0 + y * t) * t ** (-delta - 1.0)

    val, _ = quad(regular_part, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    return val - y / (1.0 - delta)


def quad_rayleigh_bracket(beta, x):
    """Rayleigh-marked bracket by two nested adaptive quadratures.

    The outer integral averages the fixed-mark bracket delta * marked_inner
    over the unit-mean exponential mark u, truncated where its tail falls
    below 1e-10.
    """
    d = 2.0 / beta
    val, err = quad(
        lambda u: math.exp(-u) * marked_inner(x * u, d),
        0.0, -math.log(1e-10), epsabs=1e-11, epsrel=1e-10, limit=200,
    )
    assert err <= 1e-7
    return d * val


class TestNetworkParams:
    def test_beta_domain_open_left_closed_right(self):
        NetworkParams(lambda_bs=1.0, beta=5.0)
        NetworkParams(lambda_bs=1.0, beta=2.0001)
        with pytest.raises(ValueError):
            NetworkParams(lambda_bs=1.0, beta=2.0)
        with pytest.raises(ValueError):
            NetworkParams(lambda_bs=1.0, beta=5.0001)

    def test_beta_message_is_the_shared_check(self):
        with pytest.raises(ValueError, match=r"^beta must lie in \(2, 5\], got 2\.0$"):
            NetworkParams(lambda_bs=1.0, beta=2.0)

    def test_other_field_domains(self):
        with pytest.raises(ValueError):
            NetworkParams(lambda_bs=0.0, beta=4.0)
        with pytest.raises(ValueError):
            NetworkParams(lambda_bs=1.0, beta=4.0, kappa=0.0)
        with pytest.raises(ValueError):
            NetworkParams(lambda_bs=1.0, beta=4.0, p_tx=0.0)
        with pytest.raises(ValueError):
            NetworkParams(lambda_bs=1.0, beta=4.0, sigma_n2=-0.1)
        with pytest.raises(ValueError):
            NetworkParams(lambda_bs=1.0, beta=4.0, lambda_ue=-1.0)

    @pytest.mark.parametrize("field", ["lambda_bs", "beta", "kappa", "p_tx", "lambda_ue", "sigma_n2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_refused_by_name(self, field, value):
        # NaN passes a sign check such as lambda_ue < 0; every field is checked first for finiteness
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
            NetworkParams(**{"lambda_bs": 1.0, "beta": 4.0, field: value})

    def test_delta(self):
        assert NetworkParams(lambda_bs=1.0, beta=4.0).delta == 0.5
        assert math.isclose(NetworkParams(lambda_bs=1.0, beta=3.0).delta, 2.0 / 3.0)


class TestMgfQuery:
    """Domain checks on the query arguments s, l0, kind and p_active."""

    def test_field_domains(self):
        with pytest.raises(ValueError):
            mgf(-0.1, 1.0, UNIT[4.0])
        with pytest.raises(ValueError):
            mgf(1.0, 0.0, UNIT[4.0])
        with pytest.raises(ValueError):
            mgf(np.array([1.0, -1.0]), 1.0, UNIT[4.0])

    def test_mode_specific_fields(self):
        for pa in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                mgf(1.0, 1.0, UNIT[4.0], p_active=pa)

    def test_mode_mismatch_rejected_by_ops(self):
        with pytest.raises(ValueError):
            mgf(1.0, 1.0, UNIT[4.0], "taylor")
        with pytest.raises(ValueError):
            mgf(1.0, 1.0, UNIT[4.0], "Exact")


class TestSolveC:
    # root of (two-term series piece) = (tail piece), solved to 1e-12
    EXACT = {
        2.5: 1.22411697197,
        3.0: 1.25262249578,
        3.5: 1.27276101036,
        4.0: 1.28776169106,
        4.5: 1.29937512416,
        5.0: 1.30863535774,
    }
    FIT = {3.0: 1.25275675899, 4.0: 1.28729293469, 5.0: 1.30992396568}

    def test_exact_roots(self):
        for beta, want in self.EXACT.items():
            assert math.isclose(solve_c(beta).c_exact, want, abs_tol=2e-11), beta

    def test_fit_values(self):
        for beta, want in self.FIT.items():
            assert math.isclose(solve_c(beta).c_fit, want, abs_tol=1e-10), beta

    def test_root_actually_joins_the_branches(self):
        for beta in self.EXACT:
            c = solve_c(beta).c_exact
            gap = taylor_bracket(beta, c, 2) - upper_bracket(beta, c)
            assert abs(gap) < 1e-11, beta

    def test_returns_record(self):
        ic = solve_c(4.0)
        assert isinstance(ic, IntersectionConstant)
        assert ic.beta == 4.0
        # exact root and log fit genuinely differ (up to ~1.3e-3 at beta=5)
        assert ic.c_exact != ic.c_fit

    def test_beta_domain(self):
        with pytest.raises(ValueError, match=r"^beta must lie in \(2, 5\], got 2\.0$"):
            solve_c(2.0)
        with pytest.raises(ValueError, match=r"^beta must lie in \(2, 5\], got 5\.5$"):
            solve_c(5.5)

    def test_sign_change_refusal(self, monkeypatch):
        # the branches cross near 1.29 at beta=4.25, so [1.0, 1.1] holds no root
        monkeypatch.setattr(mgf_module, "_C_BRACKET", (1.0, 1.1))
        solve_c.cache_clear()
        try:
            with pytest.raises(ValueError, match=r"no sign change of the branch residual on \[1\.0, 1\.1\] for beta=4\.25"):
                solve_c(4.25)
        finally:
            solve_c.cache_clear()

    def test_unsettled_iteration_raises(self, monkeypatch):
        monkeypatch.setattr(mgf_module, "_C_MAX_STEPS", 2)
        solve_c.cache_clear()
        try:
            with pytest.raises(NonConvergenceError, match="did not settle in 2 steps at beta=4.25"):
                solve_c(4.25)
        finally:
            solve_c.cache_clear()


def brentq_c(beta: float) -> float:
    """Second route for c: Brent's method on the same residual, to 1e-15."""
    return brentq(lambda c: _bracket_gap(beta, c), 1.0, 1.5, xtol=1e-15, rtol=8.9e-16)


def gap_ulp(beta: float, c: float) -> float:
    """One ulp of the largest term of _bracket_gap: the rounding floor of the residual."""
    d = 2.0 / beta
    return math.ulp(max(2.0 * c / (beta - 2.0), c * c / (2.0 * beta - 2.0), 1.0, c**d * math.gamma(1.0 - d)))


class TestSolveCAgainstBrentq:
    # 2,000 evenly spaced betas in (2, 5], from 2.0015 up
    BETAS = [float(b) for b in np.linspace(2.0, 5.0, 2001)[1:]]
    # so close to 2 that the residual's -2c/(beta-2) term is ~1e5 and its
    # rounding, over a slope of ~0.44, moves the root by more than 1e-12
    NEAR_TWO = (2.00001, 2.0001, 2.0005, 2.001)

    def test_matches_brentq(self):
        worst = max(abs(solve_c(b).c_exact - brentq_c(b)) / brentq_c(b) for b in self.BETAS)
        assert worst <= 1e-12

    def test_residual_no_larger_than_brentq(self):
        for b in self.BETAS + list(self.NEAR_TWO):
            c, ref = solve_c(b).c_exact, brentq_c(b)
            assert abs(_bracket_gap(b, c)) <= abs(_bracket_gap(b, ref)) + 4.0 * gap_ulp(b, c), b

    def test_near_two_agrees_to_the_conditioning(self):
        # there both routes find a zero of a residual that is rounding noise
        # over an interval of width ~ulp(largest term)/slope around the root
        for b in self.NEAR_TWO:
            c, ref = solve_c(b).c_exact, brentq_c(b)
            assert abs(c - ref) <= 4.0 * gap_ulp(b, c) / abs(_bracket_gap_slope(b, c)), b

    def test_slope_is_the_derivative(self):
        for b in (2.3, 3.0, 4.1, 5.0):
            for c in (1.0, 1.25, 1.5):
                h = 1e-6
                fd = (_bracket_gap(b, c + h) - _bracket_gap(b, c - h)) / (2.0 * h)
                assert math.isclose(_bracket_gap_slope(b, c), fd, rel_tol=1e-7), (b, c)


def mpmath_c(beta: float) -> float:
    """The branch point for beta as given, by mpmath at 50 digits."""
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        d = 2 / b

        def gap(c):
            return -2 * c / (b - 2) + c**2 / (2 * b - 2) - 1 + c**d * mpmath.gamma(1 - d)

        return float(mpmath.findroot(gap, mpmath.mpf("1.2")))


class TestSolveCNearTwo:
    """Near beta = 2 the residual's two large terms cancel; the series form keeps c exact."""

    @pytest.mark.parametrize("eps", [1e-7, 1e-8])
    def test_regression_points(self, eps):
        # 2 + 1e-7 used to return 1.12496 and 2 + 1e-8 to refuse with "no sign change"
        beta = 2.0 + eps
        NetworkParams(lambda_bs=1.0, beta=beta)
        assert math.isclose(solve_c(beta).c_exact, mpmath_c(beta), rel_tol=1e-12)

    def test_sweep_against_mpmath(self):
        for k in range(1, 10):
            for m in (1.0, 3.0):
                beta = 2.0 + m * 10.0**-k
                assert math.isclose(solve_c(beta).c_exact, mpmath_c(beta), rel_tol=1e-12), beta

    def test_both_sides_of_the_switch(self):
        switch = 2.0 / (1.0 - _NEAR_TWO_T)
        for beta in (switch - 1e-9, switch + 1e-9, np.nextafter(2.0, 3.0)):
            assert math.isclose(solve_c(float(beta)).c_exact, mpmath_c(float(beta)), rel_tol=1e-12), beta

    # roots on the series branch from when the series table was built at import
    PINNED = {2.05: "0x1.2f9663e2f2314p+0", 2.1: "0x1.30e5263d4c6ccp+0", 2.2: "0x1.3352229896b46p+0"}

    @pytest.mark.parametrize("beta", sorted(PINNED))
    def test_pinned_roots(self, beta):
        assert solve_c(beta).c_exact == float.fromhex(self.PINNED[beta])

    def test_series_table(self):
        # (-1)^k zeta(k)/k for k = 19 down to 2, then -euler_gamma: bitwise
        # scipy's values, and each within an ulp of a 30-digit evaluation
        from scipy.special import zeta

        coefs = _lgamma1p_coefs()
        assert coefs == tuple(float((-1) ** k * zeta(k) / k) for k in range(19, 1, -1)) + (-float(np.euler_gamma),)
        with mpmath.workdps(30):
            exact = [(-1) ** k * mpmath.zeta(k) / k for k in range(19, 1, -1)] + [-mpmath.euler]
        for got, want in zip(coefs, exact, strict=True):
            assert abs(got - float(want)) <= math.ulp(got), got


class TestBrackets:
    def test_prefactor(self):
        p = NetworkParams(lambda_bs=2.0, beta=4.0, kappa=3.0)
        want = math.pi * 2.0 * (5.0 / 3.0) ** 0.5
        assert math.isclose(exponent_prefactor(p, 5.0), want, rel_tol=1e-15)

    def test_two_piece_selects_branch(self):
        beta = 4.0
        c = solve_c(beta).c_exact
        assert bracket(beta, c - 0.01, "two_piece") == taylor_bracket(beta, c - 0.01, 2)
        assert bracket(beta, c + 0.01, "two_piece") == upper_bracket(beta, c + 0.01)

    def test_taylor_two_terms_closed_form(self):
        # n=2: -2x/(beta-2) + x^2/(2 beta - 2)
        beta, x = 4.0, 0.7
        want = -2.0 * x / (beta - 2.0) + x * x / (2.0 * beta - 2.0)
        assert math.isclose(taylor_bracket(beta, x, 2), want, rel_tol=1e-15)

    def test_exact_kind_against_mpmath_and_scalar_kernel(self):
        # 1 - B(x) is the Kummer function 1F1(-d, 1-d, -x); mpmath at 30
        # digits is the oracle, and where it converges (x <= 1) the 60-term
        # alternating series taylor_bracket is the in-repo scalar reference
        mpmath.mp.dps = 30
        xs = np.concatenate(([0.0], np.logspace(-8.0, 6.0, 57)))
        for delta in np.linspace(0.4, 0.995, 12):
            beta = 2.0 / delta
            d = 2.0 / beta
            kummer = 1.0 - bracket(beta, xs, "exact")
            for x, got in zip(xs.tolist(), kummer.tolist()):
                want = float(mpmath.hyp1f1(-mpmath.mpf(d), 1 - mpmath.mpf(d), -mpmath.mpf(x)))
                assert math.isclose(got, want, rel_tol=1e-12), (delta, x)
                if x <= 1.0:
                    assert math.isclose(got, 1.0 - taylor_bracket(beta, x, 60), rel_tol=1e-12), (delta, x)

    def test_rayleigh_kind_against_mpmath(self):
        # -B(x) is rho(x) = d x/(1-d) 2F1(1, 1-d; 2-d; -x), evaluated by
        # mpmath as the integral (d x/(1-d)) int_0^1 du / (1 + x u^(1/(1-d)))
        # after t = u^(1/(1-d)) removes the t^(-d) endpoint singularity
        mpmath.mp.dps = 30
        xs = np.concatenate(([0.0], np.logspace(-6.0, 6.0, 25)))
        for beta in (2.05, 3.0, 5.0):
            d = mpmath.mpf(2) / beta
            k = 1 / (1 - d)
            got = bracket(beta, xs, "rayleigh")
            for x, b in zip(xs.tolist(), got.tolist()):
                knee = mpmath.mpf(x) ** (-1 / k) if x > 0 else mpmath.mpf(1)
                pts = sorted({0, 1, *(min(knee * f, 1) for f in (0.5, 0.9, 1.0, 1.1))})
                integral = mpmath.quad(lambda u: 1 / (1 + x * u**k), pts)
                want = float(-d * x * k * integral)
                assert math.isclose(b, want, rel_tol=1e-14), (beta, x)

    def test_rayleigh_kind_against_nested_quadrature(self):
        for beta in (2.5, 3.0, 4.0, 5.0):
            for x in (1e-3, 0.1, 1.0, 2.0, 10.0, 50.0):
                want = quad_rayleigh_bracket(beta, x)
                assert math.isclose(bracket(beta, x, "rayleigh"), want, rel_tol=1e-7), (beta, x)

    def test_two_piece_kind_elementwise(self):
        beta = 3.0
        c = solve_c(beta).c_exact
        xs = np.array([0.0, 0.5, c, c + 1e-9, 3.0, 1e200])
        got = bracket(beta, xs, "two_piece")
        for x, b in zip(xs.tolist(), got.tolist()):
            want = taylor_bracket(beta, x, 2) if x <= c else upper_bracket(beta, x)
            assert math.isclose(b, want, rel_tol=1e-15), x

    def test_shape_and_domain(self):
        assert bracket(4.0, np.zeros((2, 3))).shape == (2, 3)
        assert np.ndim(bracket(4.0, 1.0, "two_piece")) == 0
        with pytest.raises(ValueError):
            bracket(4.0, [1.0, -1e-3])
        with pytest.raises(ValueError):
            bracket(4.0, 1.0, "taylor")
        with pytest.raises(ValueError):
            bracket(2.0, 1.0)


class TestMgfValues:
    def test_exact_reference_values(self):
        assert math.isclose(mgf(1.0, 1.0, UNIT[4.0]), 0.422516108283754, rel_tol=1e-12)
        assert math.isclose(mgf(10.0, 1.0, UNIT[4.0]), 0.0100017699158664, rel_tol=1e-12)
        assert math.isclose(mgf(2.0, 1.0, UNIT[3.0]), 0.037638594128474, rel_tol=1e-12)
        assert math.isclose(mgf(0.5, 1.0, UNIT[5.0]), 0.737108415655833, rel_tol=1e-12)

    def test_approx_reference_values(self):
        assert math.isclose(mgf(1.0, 1.0, UNIT[4.0], "two_piece"), 0.434598208507078, rel_tol=1e-12)
        assert math.isclose(mgf(10.0, 1.0, UNIT[4.0], "two_piece"), 0.0100017898560618, rel_tol=1e-12)

    def test_s_zero_is_one(self):
        for p in UNIT.values():
            for kind in ("exact", "two_piece", "rayleigh"):
                assert mgf(0.0, 1.0, p, kind) == 1.0

    def test_decreasing_in_s(self):
        vals = [mgf(x, 1.0, UNIT[4.0]) for x in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_array_query_matches_pointwise(self):
        p = UNIT[4.0]
        xs = [0.0, 0.5, 1.0, 10.0]
        for kind in ("exact", "two_piece", "rayleigh"):
            got = mgf(np.array(xs), 1.0, p, kind, p_active=0.6)
            for x, m in zip(xs, got):
                assert math.isclose(m, mgf(x, 1.0, p, kind, p_active=0.6), rel_tol=1e-15), (kind, x)

    def test_density_scaling(self):
        # log MGF is linear in lambda_bs
        p1 = NetworkParams(lambda_bs=1.0 / math.pi, beta=4.0)
        p3 = NetworkParams(lambda_bs=3.0 / math.pi, beta=4.0)
        assert math.isclose(mgf(1.0, 1.0, p3), mgf(1.0, 1.0, p1) ** 3, rel_tol=1e-13)

    def test_argument_scaling(self):
        # the bracket sees x = s * p_tx / l0 and the prefactor (l0/kappa)^d
        p = NetworkParams(lambda_bs=0.7, beta=3.5, kappa=2.0, p_tx=4.0)
        s, l0 = 0.3, 5.0
        for kind in ("exact", "two_piece", "rayleigh"):
            want = math.exp(math.pi * 0.7 * (l0 / 2.0) ** (2.0 / 3.5) * bracket(3.5, s * 4.0 / l0, kind))
            assert math.isclose(mgf(s, l0, p, kind), want, rel_tol=1e-14), kind


class TestMgfTaylorFull:
    """The truncated-series MGF exp(B_n(x)), at unit exponent prefactor."""

    def test_n2_equals_two_piece_lower_branch_bitwise(self):
        for beta in (3.0, 4.0, 5.0):
            p = UNIT[beta]
            c = solve_c(beta)
            for x in (0.0, 0.3, 0.9, c.c_exact * 0.999):
                assert np.exp(taylor_bracket(beta, x, 2)) == mgf(x, 1.0, p, "two_piece"), (beta, x)

    def test_converges_to_exact_with_many_terms(self):
        # below the branch point the series converges to the Kummer value
        p = UNIT[4.0]
        assert math.isclose(np.exp(taylor_bracket(4.0, 1.0, 30)), mgf(1.0, 1.0, p), rel_tol=1e-10)


class TestMgfThinned:
    def test_full_activity_equals_base(self):
        p = UNIT[4.0]
        for kind in ("exact", "two_piece", "rayleigh"):
            assert mgf(1.0, 1.0, p, kind, p_active=1.0) == mgf(1.0, 1.0, p, kind)

    def test_exponent_scales_with_p_active(self):
        # log M = p_active * prefactor * B: the exponent, not the MGF, scales
        p = NetworkParams(lambda_bs=0.4, beta=4.0, kappa=1.5)
        l0 = 2.0
        for kind in ("exact", "two_piece", "rayleigh"):
            exponent = exponent_prefactor(p, l0) * bracket(4.0, 1.0 / l0, kind)
            base = mgf(1.0, l0, p, kind)
            for pa in (0.1, 0.5, 0.9):
                got = mgf(1.0, l0, p, kind, p_active=pa)
                assert math.isclose(math.log(got), pa * exponent, rel_tol=1e-14), (kind, pa)
                assert math.isclose(got, base**pa, rel_tol=1e-13), (kind, pa)

    def test_thinning_raises_the_mgf(self):
        # fewer interferers -> less interference -> larger E[exp(-sI)]
        p = UNIT[4.0]
        assert mgf(1.0, 1.0, p, p_active=0.3) > mgf(1.0, 1.0, p)


class TestMarkedMgf:
    def test_reference_values(self):
        assert math.isclose(mgf(1.0, 1.0, UNIT[4.0], "rayleigh"), 0.455938127765996, rel_tol=1e-13)
        assert math.isclose(mgf(10.0, 1.0, UNIT[4.0], "rayleigh"), 0.0183383634406966, rel_tol=1e-13)
        assert math.isclose(mgf(1.0, 1.0, UNIT[3.0], "rayleigh"), 0.18800293651201, rel_tol=1e-13)

    def test_fixed_unit_mark_recovers_exact(self):
        # the test-side quadrature route with every mark pinned to 1 must
        # reproduce the unmarked exact bracket
        for beta in (3.0, 4.0, 5.0):
            for x in (0.5, 1.0, 10.0):
                got = (2.0 / beta) * marked_inner(x, 2.0 / beta)
                assert math.isclose(got, bracket(beta, x, "exact"), rel_tol=1e-10), (beta, x)

    def test_s_zero_is_one(self):
        assert mgf(0.0, 1.0, UNIT[4.0], "rayleigh") == 1.0
        assert bracket(4.0, 0.0, "rayleigh") == 0.0

    def test_exponential_marks_soften_interference(self):
        # unit-mean marks spread interference; the MGF of the marked field
        # exceeds the unmarked one at moderate s
        p = UNIT[3.0]
        assert mgf(1.0, 1.0, p, "rayleigh") > mgf(1.0, 1.0, p)

    def test_mark_domain(self):
        # a negative mark would make a negative bracket argument
        with pytest.raises(ValueError):
            bracket(4.0, -0.5, "rayleigh")
        with pytest.raises(ValueError):
            mgf(-0.5, 1.0, UNIT[4.0], "rayleigh")
