"""Interference-MGF layer: branch constant, brackets, and the five modes.

Reference values are frozen from a 50-digit independent evaluation of the
defining integrals (root of the bracket-matching equation, Kummer-form MGF,
double-quadrature marked MGF).
"""

import math

import mpmath
import numpy as np
import pytest

from ppcell.mgf import (
    IntersectionConstant,
    MgfMode,
    MgfQuery,
    NetworkParams,
    bracket,
    exponent_prefactor,
    mgf_approx,
    mgf_exact,
    mgf_fixed_mark,
    mgf_rayleigh_marked,
    mgf_taylor_full,
    mgf_thinned,
    solve_c,
    taylor_bracket,
    upper_bracket,
)
from ppcell.specfun import NonConvergenceError, kummer_1f1_neg

# unit exponent prefactor: pi * lambda * (l0/kappa)^delta = 1 at l0 = 1
UNIT = {b: NetworkParams(lambda_bs=1.0 / math.pi, beta=b) for b in (3.0, 4.0, 5.0)}


def q_exact(x):
    return MgfQuery(s=x, l0=1.0)


def q_approx(x):
    return MgfQuery(s=x, l0=1.0, mode=MgfMode.APPROX_TWO_TERM)


class TestNetworkParams:
    def test_beta_domain_open_left_closed_right(self):
        NetworkParams(lambda_bs=1.0, beta=5.0)
        NetworkParams(lambda_bs=1.0, beta=2.0001)
        with pytest.raises(ValueError):
            NetworkParams(lambda_bs=1.0, beta=2.0)
        with pytest.raises(ValueError):
            NetworkParams(lambda_bs=1.0, beta=5.0001)

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

    def test_delta(self):
        assert NetworkParams(lambda_bs=1.0, beta=4.0).delta == 0.5
        assert math.isclose(NetworkParams(lambda_bs=1.0, beta=3.0).delta, 2.0 / 3.0)


class TestMgfQuery:
    def test_field_domains(self):
        with pytest.raises(ValueError):
            MgfQuery(s=-0.1, l0=1.0)
        with pytest.raises(ValueError):
            MgfQuery(s=1.0, l0=0.0)

    def test_mode_specific_fields(self):
        with pytest.raises(ValueError):
            MgfQuery(s=1.0, l0=1.0, n_terms=4)  # n_terms without ApproxTaylor
        with pytest.raises(ValueError):
            MgfQuery(s=1.0, l0=1.0, p_active=0.5)  # p_active without Thinned
        with pytest.raises(ValueError):
            MgfQuery(s=1.0, l0=1.0, mode=MgfMode.THINNED, p_active=0.0)

    def test_mode_mismatch_rejected_by_ops(self):
        with pytest.raises(ValueError):
            mgf_exact(q_approx(1.0), UNIT[4.0])
        with pytest.raises(ValueError):
            mgf_approx(q_exact(1.0), UNIT[4.0])


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
        with pytest.raises(ValueError):
            solve_c(2.0)
        with pytest.raises(ValueError):
            solve_c(5.5)


class TestBrackets:
    def test_prefactor(self):
        p = NetworkParams(lambda_bs=2.0, beta=4.0, kappa=3.0)
        want = math.pi * 2.0 * (5.0 / 3.0) ** 0.5
        assert math.isclose(exponent_prefactor(p, 5.0), want, rel_tol=1e-15)

    def test_two_piece_selects_branch(self):
        beta = 4.0
        c = solve_c(beta).c_exact
        assert bracket(beta, c - 0.01, "two_piece", c) == taylor_bracket(beta, c - 0.01, 2)
        assert bracket(beta, c + 0.01, "two_piece", c) == upper_bracket(beta, c + 0.01)

    def test_taylor_two_terms_closed_form(self):
        # n=2: -2x/(beta-2) + x^2/(2 beta - 2)
        beta, x = 4.0, 0.7
        want = -2.0 * x / (beta - 2.0) + x * x / (2.0 * beta - 2.0)
        assert math.isclose(taylor_bracket(beta, x, 2), want, rel_tol=1e-15)

    def test_exact_kind_against_mpmath_and_scalar_kernel(self):
        # 1 - B(x) is the Kummer function 1F1(-d, 1-d, -x); mpmath at 30
        # digits is the oracle, the scalar series/continued-fraction kernel
        # the in-repo reference
        mpmath.mp.dps = 30
        xs = np.concatenate(([0.0], np.logspace(-8.0, 6.0, 57)))
        for delta in np.linspace(0.4, 0.995, 12):
            beta = 2.0 / delta
            d = 2.0 / beta
            kummer = 1.0 - bracket(beta, xs, "exact")
            for x, got in zip(xs.tolist(), kummer.tolist()):
                want = float(mpmath.hyp1f1(-mpmath.mpf(d), 1 - mpmath.mpf(d), -mpmath.mpf(x)))
                assert math.isclose(got, want, rel_tol=1e-12), (delta, x)
                assert math.isclose(got, kummer_1f1_neg(d, x), rel_tol=1e-12), (delta, x)

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
        assert math.isclose(mgf_exact(q_exact(1.0), UNIT[4.0]), 0.422516108283754, rel_tol=1e-12)
        assert math.isclose(mgf_exact(q_exact(10.0), UNIT[4.0]), 0.0100017699158664, rel_tol=1e-12)
        assert math.isclose(mgf_exact(q_exact(2.0), UNIT[3.0]), 0.037638594128474, rel_tol=1e-12)
        assert math.isclose(mgf_exact(q_exact(0.5), UNIT[5.0]), 0.737108415655833, rel_tol=1e-12)

    def test_approx_reference_values(self):
        assert math.isclose(mgf_approx(q_approx(1.0), UNIT[4.0]), 0.434598208507078, rel_tol=1e-12)
        assert math.isclose(mgf_approx(q_approx(10.0), UNIT[4.0]), 0.0100017898560618, rel_tol=1e-12)

    def test_s_zero_is_one(self):
        for p in UNIT.values():
            assert mgf_exact(q_exact(0.0), p) == 1.0
            assert mgf_approx(q_approx(0.0), p) == 1.0

    def test_decreasing_in_s(self):
        vals = [mgf_exact(q_exact(x), UNIT[4.0]) for x in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_array_query_matches_pointwise(self):
        p = UNIT[4.0]
        xs = [0.0, 0.5, 1.0, 10.0]
        exact = mgf_exact(MgfQuery(s=np.array(xs), l0=1.0), p)
        approx = mgf_approx(MgfQuery(s=np.array(xs), l0=1.0, mode=MgfMode.APPROX_TWO_TERM), p)
        for x, e, a in zip(xs, exact, approx):
            assert math.isclose(e, mgf_exact(q_exact(x), p), rel_tol=1e-15)
            assert math.isclose(a, mgf_approx(q_approx(x), p), rel_tol=1e-15)
        with pytest.raises(ValueError):
            MgfQuery(s=np.array([1.0, -1.0]), l0=1.0)

    def test_density_scaling(self):
        # log MGF is linear in lambda_bs
        p1 = NetworkParams(lambda_bs=1.0 / math.pi, beta=4.0)
        p3 = NetworkParams(lambda_bs=3.0 / math.pi, beta=4.0)
        m1 = mgf_exact(q_exact(1.0), p1)
        m3 = mgf_exact(q_exact(1.0), p3)
        assert math.isclose(m3, m1**3, rel_tol=1e-13)


class TestMgfTaylorFull:
    def test_n2_equals_two_piece_lower_branch_bitwise(self):
        for beta in (3.0, 4.0, 5.0):
            p = UNIT[beta]
            c = solve_c(beta)
            for x in (0.0, 0.3, 0.9, c.c_exact * 0.999):
                q = MgfQuery(s=x, l0=1.0, mode=MgfMode.APPROX_TAYLOR)
                qa = q_approx(x)
                if x <= c.c_exact:
                    assert mgf_taylor_full(q, p, 2) == mgf_approx(qa, p), (beta, x)

    def test_converges_to_exact_with_many_terms(self):
        # below the branch point the series converges to the Kummer value
        p = UNIT[4.0]
        q = MgfQuery(s=1.0, l0=1.0, mode=MgfMode.APPROX_TAYLOR)
        want = mgf_exact(q_exact(1.0), p)
        assert math.isclose(mgf_taylor_full(q, p, 30), want, rel_tol=1e-10)

    def test_refuses_unconverged_truncation_beyond_branch_point(self):
        p = UNIT[4.0]
        q = MgfQuery(s=3.0, l0=1.0, mode=MgfMode.APPROX_TAYLOR)
        with pytest.raises(NonConvergenceError):
            mgf_taylor_full(q, p, 2)

    def test_refuses_cancellation_noise_at_large_x(self):
        p = UNIT[4.0]
        q = MgfQuery(s=25.0, l0=1.0, mode=MgfMode.APPROX_TAYLOR)
        with pytest.raises(NonConvergenceError):
            mgf_taylor_full(q, p, 60)

    def test_n_terms_consistency_with_query(self):
        p = UNIT[4.0]
        q = MgfQuery(s=0.5, l0=1.0, mode=MgfMode.APPROX_TAYLOR, n_terms=4)
        with pytest.raises(ValueError):
            mgf_taylor_full(q, p, 6)


class TestMgfThinned:
    def test_full_activity_equals_base(self):
        p = UNIT[4.0]
        qt = MgfQuery(s=1.0, l0=1.0, mode=MgfMode.THINNED, p_active=1.0)
        assert mgf_thinned(qt, p, base_mode=MgfMode.EXACT) == mgf_exact(q_exact(1.0), p)
        assert mgf_thinned(qt, p) == mgf_approx(q_approx(1.0), p)

    def test_exponent_scales_with_p_active(self):
        p = UNIT[4.0]
        base = mgf_exact(q_exact(1.0), p)
        for pa in (0.1, 0.5, 0.9):
            qt = MgfQuery(s=1.0, l0=1.0, mode=MgfMode.THINNED, p_active=pa)
            got = mgf_thinned(qt, p, base_mode=MgfMode.EXACT)
            assert math.isclose(got, base**pa, rel_tol=1e-13), pa

    def test_p_active_consistency_check(self):
        p = UNIT[4.0]
        qt = MgfQuery(s=1.0, l0=1.0, mode=MgfMode.THINNED, p_active=0.5)
        with pytest.raises(ValueError):
            mgf_thinned(qt, p, p_active=0.7)
        with pytest.raises(ValueError):
            mgf_thinned(MgfQuery(s=1.0, l0=1.0, mode=MgfMode.THINNED), p)

    def test_thinning_raises_the_mgf(self):
        # fewer interferers -> less interference -> larger E[exp(-sI)]
        p = UNIT[4.0]
        qt = MgfQuery(s=1.0, l0=1.0, mode=MgfMode.THINNED, p_active=0.3)
        assert mgf_thinned(qt, p, base_mode=MgfMode.EXACT) > mgf_exact(q_exact(1.0), p)


class TestMarkedMgf:
    def q(self, x):
        return MgfQuery(s=x, l0=1.0, mode=MgfMode.RAYLEIGH_MARKED)

    def test_reference_values(self):
        # two stacked adaptive quadratures; a few 1e-9 of relative noise
        assert math.isclose(
            mgf_rayleigh_marked(self.q(1.0), UNIT[4.0]), 0.455938127765996, rel_tol=1e-8
        )
        assert math.isclose(
            mgf_rayleigh_marked(self.q(10.0), UNIT[4.0]), 0.0183383634406966, rel_tol=1e-8
        )
        assert math.isclose(
            mgf_rayleigh_marked(self.q(1.0), UNIT[3.0]), 0.18800293651201, rel_tol=1e-8
        )

    def test_fixed_unit_mark_recovers_exact(self):
        for beta in (3.0, 4.0, 5.0):
            p = UNIT[beta]
            for x in (0.5, 1.0, 10.0):
                got = mgf_fixed_mark(self.q(x), p, mark=1.0)
                want = mgf_exact(q_exact(x), p)
                assert math.isclose(got, want, rel_tol=1e-10), (beta, x)

    def test_s_zero_is_one(self):
        assert mgf_rayleigh_marked(self.q(0.0), UNIT[4.0]) == 1.0
        assert mgf_fixed_mark(self.q(5.0), UNIT[4.0], mark=0.0) == 1.0

    def test_exponential_marks_soften_interference(self):
        # unit-mean marks spread interference; the MGF of the marked field
        # exceeds the unmarked one at moderate s
        p = UNIT[3.0]
        assert mgf_rayleigh_marked(self.q(1.0), p) > mgf_exact(q_exact(1.0), p)

    def test_mark_domain(self):
        with pytest.raises(ValueError):
            mgf_fixed_mark(self.q(1.0), UNIT[4.0], mark=-0.5)
