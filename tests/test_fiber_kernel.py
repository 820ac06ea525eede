import itertools
import math

import numpy as np
import pytest

from octads import fiber_kernel
from octads.fiber_kernel import (
    SERIES_TOL,
    SeriesConvergenceError,
    _s5_rule,
    fiber_eigenvalue,
    fiber_heat_kernel,
    fiber_mode_multiplicity,
    fiber_mode_profile,
)
from octads.special_fn import jacobi_end_value, jacobi_norm_sq, jacobi_sequence


def _mp_series(t, eta, u, continued, dps):
    """The fiber series and the sum of |term_m| in dps digits; m(m+6) t is formed in mpmath
    from the float t, since in floats its rounding moves a small-t sum by tens of percent."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        x = mp.cosh(u) if continued else mp.cos(u)
        total = scale = mp.mpf(0)
        for m in range(400):
            norm = (mp.mpf(64) / (2 * m + 6) * mp.gamma(m + mp.mpf(3.5)) ** 2
                    / (mp.gamma(m + 6) * mp.factorial(m)))
            term = (mp.exp(-m * (m + 6) * mp.mpf(t)) / norm
                    * mp.jacobi(m, 2.5, 2.5, mp.cos(eta)) * mp.jacobi(m, 2.5, 2.5, x))
            total += term
            scale += abs(term)
            if m > 10 and abs(term) < mp.mpf(10) ** (10 - dps) * scale:
                break
        return +total, +scale


class TestSpectralCoeff:
    def test_m0_normalized(self):
        # the series coefficient 1/N_m at m = 0
        assert 1.0 / jacobi_norm_sq(0) == pytest.approx(16.0 / (5.0 * math.pi), rel=1e-13, abs=0)

    def test_eigenvalue(self):
        assert fiber_eigenvalue(2) == 16
        assert fiber_eigenvalue(0) == 0

    def test_mode_multiplicities(self):
        assert [fiber_mode_multiplicity(m) for m in range(6)] == [1, 8, 35, 112, 294, 672]

    def test_multiplicity_equals_point_mass_weight(self):
        # dimension of the degree-m eigenspace = P_m(1)^2 / N_m relative to m=0
        w0 = jacobi_end_value(0) ** 2 / jacobi_norm_sq(0)
        for m in range(20):
            wm = jacobi_end_value(m) ** 2 / jacobi_norm_sq(m)
            assert wm / w0 == pytest.approx(fiber_mode_multiplicity(m), rel=1e-11, abs=0)


class TestFiberHeatKernel:
    def test_large_time_limit(self):
        v = fiber_heat_kernel(50.0, 0.8, 2.0)
        assert v.value == pytest.approx(16.0 / (5.0 * math.pi), rel=1e-12, abs=0)

    def test_symmetry(self):
        a = fiber_heat_kernel(0.4, 0.5, 1.2).value
        b = fiber_heat_kernel(0.4, 1.2, 0.5).value
        assert a == pytest.approx(b, rel=1e-12, abs=0)

    def test_continuation_agrees_at_zero(self):
        a = fiber_heat_kernel(1.0, 0.3, 0.0, continued=False).value
        b = fiber_heat_kernel(1.0, 0.3, 0.0, continued=True).value
        assert a == pytest.approx(b, rel=1e-13, abs=0)

    def test_heat_equation_residual(self):
        # d/dt s = (d^2/deta^2 + 6 cot eta d/deta) s at an interior point
        t, eta, u = 0.7, 1.1, 2.1

        def s(tt, ee):
            return fiber_heat_kernel(tt, ee, u).value

        h_t = 1e-3 * t

        def ddt(h):
            return (s(t + h, eta) - s(t - h, eta)) / (2.0 * h)

        c, f = ddt(h_t), ddt(h_t / 2.0)
        time_deriv = f + (f - c) / 3.0

        h = 1e-3

        def lap(hh):
            return ((s(t, eta + hh) - 2.0 * s(t, eta) + s(t, eta - hh)) / hh ** 2
                    + 6.0 / math.tan(eta) * (s(t, eta + hh) - s(t, eta - hh)) / (2.0 * hh))

        c, f = lap(h), lap(h / 2.0)
        spatial = f + (f - c) / 3.0
        assert abs(time_deriv - spatial) <= 1e-4 * abs(time_deriv) + 1e-8

    def test_convergence_error_on_tiny_cap(self, monkeypatch):
        monkeypatch.setattr(fiber_kernel, "SERIES_M_CAP", 5)
        with pytest.raises(SeriesConvergenceError, match="degree cap 5"):
            fiber_heat_kernel(0.001, 0.5, 1.0)

    @pytest.mark.parametrize("u", [12.0, 20.0])
    def test_overflow_is_a_convergence_error_under_raise(self, u):
        # the recurrence overflowed before P_m(x_max) was checked: a bare FloatingPointError
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(SeriesConvergenceError, match="overflowed"):
                fiber_heat_kernel(0.1, 1.0, u, continued=True)

    @pytest.mark.parametrize("continued", [False, True], ids=["angle", "continued"])
    def test_against_mpmath_oracle(self, continued):
        # the series summed in 50 digits; a float sum can do no better than rounding
        # against the sum of |term_m|, which at (0.1, pi, u = 2) continued is 4e9 times the value
        for t, eta, u in itertools.product((0.1, 0.5, 2.0), (0.0, 0.8, 2.0, math.pi),
                                           (0.0, 0.5, 2.0)):
            total, scale = _mp_series(t, eta, u, continued, dps=50)
            value = fiber_heat_kernel(t, eta, u, continued=continued).value
            assert abs(value - total) <= 1e-14 * scale, (t, eta, u)

    @pytest.mark.parametrize("t, eta, u, continued", [
        (0.05, 3.0, 0.0, False),  # returned -9.7e-14; the true value is 3.2e-14
        (0.01, 3.0, 0.0, False),  # returned 9.3e-11 for 8.2e-90
        (0.05, 3.0, 1.0, True),  # returned 2.8e4 times the true 1.8e-15
    ])
    def test_value_within_its_rounding_floor_raises(self, t, eta, u, continued):
        with pytest.raises(SeriesConvergenceError, match="tail and rounding bound"):
            fiber_heat_kernel(t, eta, u, continued=continued)

    @pytest.mark.parametrize("t, eta, u, continued", [
        (0.05, 2.0, 0.0, False), (0.1, 3.0, 2.0, True), (0.1, math.pi, 2.0, True)])
    def test_tail_bound_covers_the_error(self, t, eta, u, continued):
        # the last term alone (3e-28 at (0.05, 2, 0)) did not cover these errors
        total, _ = _mp_series(t, eta, u, continued, dps=60)
        v = fiber_heat_kernel(t, eta, u, continued=continued)
        assert abs(v.value - float(total)) <= v.tail_bound

    def test_rows_stop_on_their_own(self):
        # the continued series at u = 8 runs to a higher degree than at u = 0; each row of
        # one call must give the bits of its own call, as the density's per-node rows do
        x = np.cosh([0.0, 8.0])
        for eta in (0.0, 1.0, math.pi):
            both, m_both, coeffs = fiber_kernel._series_matrix(
                fiber_kernel._fiber_coeff(0.5, x), 2, eta)
            for row, xi in zip(both, x):
                alone, m_alone, _ = fiber_kernel._series_matrix(
                    fiber_kernel._fiber_coeff(0.5, [xi]), 1, eta)
                assert row == alone[0]
                assert m_alone <= m_both
            assert coeffs[-1, 0] == 0.0 and coeffs[-1, 1] != 0.0

    def test_diagnostics(self):
        v = fiber_heat_kernel(0.5, 0.3, 1.0)
        assert v.m_used >= 2
        assert v.tail_bound <= SERIES_TOL * max(abs(v.value), 1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fiber_heat_kernel(-1.0, 0.3, 0.2)
        with pytest.raises(ValueError):
            fiber_heat_kernel(1.0, 4.0, 0.2)
        with pytest.raises(ValueError):
            fiber_heat_kernel(1.0, 0.3, 4.0)  # angle branch needs u <= pi
        fiber_heat_kernel(1.0, 0.3, 4.0, continued=True)


class TestModeProfile:
    def test_pole_value(self):
        for m in (0, 1, 5, 12):
            assert fiber_mode_profile(m, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_degree_zero_constant(self):
        for eta in (0.1, 1.0, 2.7):
            assert fiber_mode_profile(0, eta) == pytest.approx(1.0, abs=1e-13)

    def test_degree_one_is_cosine(self):
        for eta in (0.2, 0.7, 2.0, 3.0):
            assert fiber_mode_profile(1, eta) == pytest.approx(math.cos(eta), abs=1e-13)

    def test_matches_polynomial_ratio(self):
        # the normalized integral profile equals P_m(cos eta)/P_m(1)
        etas = np.linspace(0.0, math.pi, 41)
        for m in range(16):
            pm = jacobi_sequence(m, np.cos(etas))[m]
            p1 = jacobi_end_value(m)
            for eta, val in zip(etas, pm):
                assert abs(fiber_mode_profile(m, float(eta)) - val / p1) <= 1e-10

    def test_imaginary_residue_small(self):
        # raw quadrature before discarding the imaginary part
        for m in range(31):
            x, w = _s5_rule(m)
            for eta in (0.3, 1.4, 2.9):
                val = np.sum(w * (np.cos(eta) + 1j * np.sin(eta) * x) ** m)
                assert abs(val.imag) <= 1e-12 * max(1.0, abs(val.real))

    @pytest.mark.parametrize("m", [0, 15, 64, 128, 256])
    @pytest.mark.parametrize("eta", [0.3, 1.5, 3.0])
    def test_s5_rule_is_exact_to_its_degree(self, m, eta):
        # the smallest rule of degree m, m // 2 + 3 nodes, against the Jacobi recurrence
        x, w = _s5_rule(m)
        profile = np.sum(w * (math.cos(eta) + 1j * math.sin(eta) * x) ** m)
        p = jacobi_sequence(m, [math.cos(eta), 1.0])[m]
        assert abs(profile - p[0] / p[1]) <= 1e-13
