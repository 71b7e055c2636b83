"""Special-function values the library serves, against frozen references.

Reference constants were produced with a 50-digit arbitrary-precision
evaluation of the defining series/integrals and frozen here. The library
evaluates these functions through scipy.special and math: the Kummer
function as 1 - bracket(..., "exact"), the lower incomplete gamma function
as gammainc * gamma, the Gauss 2F1 as hyp2f1, and Gamma(1-d) as math.gamma.
The raw alternating series of the bracket (taylor_bracket) is the second
route for the Kummer values.
"""

import math

import numpy as np
import pytest
from scipy.special import gamma, gammainc, hyp2f1

from ppcell.mgf import bracket, taylor_bracket, upper_bracket


def lower_inc_gamma(a, x):
    """gamma(a, x) the way the exact bracket evaluates it."""
    return gammainc(a, x) * gamma(a)


def kummer(delta, x):
    """1F1(-delta, 1-delta, -x) through the bracket the library serves."""
    return float(1.0 - bracket(2.0 / delta, x, "exact"))


class TestGammaFn:
    def test_integer_and_half_integer(self):
        assert math.gamma(1.0) == 1.0
        assert math.gamma(5.0) == 24.0
        assert math.isclose(math.gamma(0.5), math.sqrt(math.pi), rel_tol=1e-15)
        # Gamma(1 - 2/4) = sqrt(pi) is the beta=4 factor of the upper branch
        assert math.isclose(1.0 - upper_bracket(4.0, 1.0), math.sqrt(math.pi), rel_tol=1e-15)

    def test_one_third(self):
        assert math.isclose(math.gamma(1.0 / 3.0), 2.6789385347077476, rel_tol=1e-14)
        assert math.isclose(1.0 - upper_bracket(3.0, 1.0), 2.6789385347077476, rel_tol=1e-14)

    def test_rejects_nonpositive(self):
        # Gamma(1 - 2/beta) has its pole at beta = 2 and needs reflection
        # below it; every bracket kind refuses those betas before evaluating
        for kind in ("exact", "two_piece", "rayleigh"):
            with pytest.raises(ValueError):
                bracket(2.0, 1.0, kind)
            with pytest.raises(ValueError):
                bracket(1.5, 1.0, kind)


class TestLowerIncGamma:
    def test_reference_values(self):
        assert math.isclose(lower_inc_gamma(0.5, 1.0), 1.4936482656248541, rel_tol=1e-13)
        assert math.isclose(lower_inc_gamma(1.0 / 3.0, 2.0), 2.6108021202662885, rel_tol=1e-13)

    def test_saturates_to_complete_gamma(self):
        # x far beyond a: essentially Gamma(0.6)
        assert math.isclose(lower_inc_gamma(0.6, 25.0), 1.4891922488090430, rel_tol=1e-13)
        assert math.isclose(lower_inc_gamma(0.6, 25.0), math.gamma(0.6), rel_tol=1e-10)

    def test_zero_argument(self):
        assert lower_inc_gamma(0.7, 0.0) == 0.0

    def test_monotone_in_x(self):
        vals = lower_inc_gamma(0.5, np.array([0.1, 0.5, 1.0, 2.0, 5.0, 20.0]))
        assert np.all(np.diff(vals) > 0.0)

    def test_domain_rejections(self):
        # the bracket evaluates gamma(1 - 2/beta, x): a in (0, 0.6] and x >= 0
        # only; other betas and negative arguments are refused
        with pytest.raises(ValueError):
            bracket(2.0, 1.0)  # a = 0
        with pytest.raises(ValueError):
            bracket(5.0001, 1.0)  # a beyond 0.6
        with pytest.raises(ValueError):
            bracket(4.0, -0.1)

    def test_series_vs_continued_fraction_seam(self):
        # a classic series/continued-fraction switch sits at x = a + 1; check
        # both sides of it against reference values
        a = 0.4
        assert math.isclose(lower_inc_gamma(a, 1.399999), 2.0630856663701946, rel_tol=1e-12)
        assert math.isclose(lower_inc_gamma(a, 1.400001), 2.0630860694034663, rel_tol=1e-12)


class TestKummer:
    def test_reference_values(self):
        assert math.isclose(kummer(0.5, 1.0), 1.8615277067962964, rel_tol=1e-13)
        assert math.isclose(kummer(0.5, 100.0), 17.724538509055160, rel_tol=1e-13)

    def test_x_zero_is_one(self):
        assert kummer(0.5, 0.0) == 1.0

    def test_large_x_asymptote(self):
        # for large x the function approaches x^delta * Gamma(1-delta)
        d = 0.4
        x = 5e3
        assert math.isclose(kummer(d, x), x**d * math.gamma(1.0 - d), rel_tol=1e-4)

    def test_series_route_agrees_with_identity_route(self):
        # the raw alternating series loses ~e^x * eps to cancellation, so
        # the comparison tolerance must widen with x
        for d in (0.4, 0.5, 2.0 / 3.0):
            for x, rel in ((0.01, 1e-13), (0.5, 1e-13), (1.3, 1e-12), (7.0, 1e-10), (25.0, 1e-6)):
                series = 1.0 - taylor_bracket(2.0 / d, x, 150)
                assert math.isclose(kummer(d, x), series, rel_tol=rel), (d, x)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            kummer(1.0, 1.0)  # beta = 2
        with pytest.raises(ValueError):
            kummer(0.5, -1.0)
        with pytest.raises(ValueError):
            bracket(math.inf, 1.0)  # delta = 0


class TestGauss2F1:
    def test_reference_values(self):
        assert math.isclose(hyp2f1(1.0, 0.5, 1.5, -1.0 / 1.2873), 0.8196619505400284, rel_tol=1e-12)
        assert math.isclose(
            hyp2f1(1.0, 2.0 / 3.0, 5.0 / 3.0, -1.0 / 1.2528), 0.7827198049071846, rel_tol=1e-12
        )

    def test_z_zero_is_one(self):
        assert hyp2f1(1.0, 0.5, 1.5, 0.0) == 1.0

    def test_positive_z_rejected(self):
        # the Rayleigh bracket evaluates 2F1(1, 1-d; 2-d; z) at z = -x, so a
        # positive z would be a negative argument, which it refuses
        with pytest.raises(ValueError):
            bracket(4.0, -0.3, "rayleigh")

    def test_nonpositive_integer_c_rejected(self):
        # c = 2 - 2/beta is 0 at beta = 1 and -2 at beta = 0.5; the beta
        # domain keeps c in (1, 1.6] for the Rayleigh bracket and the rate
        # closed form's c = 1 + 2/beta in [1.4, 2)
        with pytest.raises(ValueError):
            bracket(1.0, 0.5, "rayleigh")
        with pytest.raises(ValueError):
            bracket(0.5, 0.5, "rayleigh")

    def test_euler_reflection_cross_check(self):
        # 2F1(1, b; b+1; z) = b * sum z^k/(b+k): compare against direct sum
        b, z = 0.5, -0.6
        direct = b * sum(z**k / (b + k) for k in range(200))
        assert math.isclose(hyp2f1(1.0, b, b + 1.0, z), direct, rel_tol=1e-12)
