import math
import re

import numpy as np
import pytest

from octads.special_fn import (
    gauss_legendre,
    hyp2f1_terminating,
    jacobi_end_value,
    jacobi_norm_sq,
    jacobi_poly,
    jacobi_sequence,
)

# Frozen from the defining integral of the square norm at m = 1, computed with
# scipy.integrate.quad; equals 11025*pi/23040 exactly.
NORM_SQ_M1 = 1.5033011721279284


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_poly(0, 0.3) == 1.0

    def test_degree_one_is_linear(self):
        for x in (-2.0, 0.0, 0.3, 1.0, 7.5):
            assert jacobi_poly(1, x) == pytest.approx(3.5 * x, abs=1e-14)

    def test_degree_two_at_one(self):
        # endpoint value (alpha+1)(alpha+2)/2 at alpha = 5/2
        assert jacobi_poly(2, 1.0) == pytest.approx(7.875, abs=1e-12)
        assert jacobi_end_value(2) == pytest.approx(7.875, abs=1e-12)

    def test_rodrigues_formula_oracle(self):
        # symbolic recurrence coefficients must match m-fold differentiation of
        # the weight, coefficient by coefficient
        sp = pytest.importorskip("sympy")
        x = sp.symbols("x")
        a = sp.Rational(5, 2)
        polys = [sp.Integer(1), (a + 1) + (2 * a + 2) * (x - 1) / 2]
        for n in range(2, 6):
            an = 2 * n * (n + 2 * a) * (2 * n + 2 * a - 2)
            bn = (2 * n + 2 * a - 1) * (2 * n + 2 * a) * (2 * n + 2 * a - 2) * x
            cn = 2 * (n + a - 1) * (n + a - 1) * (2 * n + 2 * a)
            polys.append(sp.expand((bn * polys[n - 1] - cn * polys[n - 2]) / an))
        for m in range(6):
            rodrigues = sp.simplify(
                (-1) ** m / (2 ** m * sp.factorial(m) * (1 - x ** 2) ** a)
                * sp.diff((1 - x ** 2) ** (m + a), x, m)
            )
            assert sp.expand(rodrigues - polys[m]) == 0, m

    @pytest.mark.parametrize("m", [-1, -2, -7, 2.5, True, np.True_, 2j, "2", None, np.array([2])])
    def test_negative_degree_is_refused(self, m):
        # jacobi_poly raised a bare IndexError or TypeError and jacobi_end_value "math domain
        # error"; 2.5 and True gave values: jacobi_norm_sq(2.5) 1.796, jacobi_norm_sq(True)
        # 1.503, hyp2f1_terminating(True, 1.2) 6.069
        for f, args in ((jacobi_poly, (0.3,)), (jacobi_end_value, ()), (jacobi_norm_sq, ()),
                        (hyp2f1_terminating, (1.2,))):
            with pytest.raises(ValueError, match=re.escape("degree must be an integer in [0, ")):
                f(m, *args)

    def test_numpy_integer_degrees_pass(self):
        assert jacobi_poly(np.int64(4), 0.3) == jacobi_poly(4, 0.3)
        assert jacobi_end_value(np.int64(4)) == jacobi_end_value(4)
        assert jacobi_norm_sq(np.uint8(4)) == jacobi_norm_sq(4)
        assert hyp2f1_terminating(np.int32(4), 1.2) == hyp2f1_terminating(4, 1.2)
        # uint8 arithmetic wrapped: 18.95 became 0.9745, with overflow warnings
        assert hyp2f1_terminating(np.uint8(254), 1.0001) == hyp2f1_terminating(254, 1.0001)

    def test_sequence_matches_single(self):
        xs = np.array([-1.2, 0.1, 0.9, 3.7])
        seq = jacobi_sequence(12, xs)
        for m in (0, 1, 5, 12):
            assert np.allclose(seq[m], jacobi_poly(m, xs), rtol=1e-14)

    def test_against_scipy_reference(self):
        eval_jacobi = pytest.importorskip("scipy.special").eval_jacobi
        for m in (1, 3, 7, 20, 40, 60):
            for x in (-1.0, -0.3, 0.0, 0.7, 1.0, 2.0, math.cosh(5), math.cosh(10)):
                ref = float(eval_jacobi(m, 2.5, 2.5, x))
                # abs covers x = 0, a zero of the odd degrees, where scipy gives 2.3e-16 at m = 7
                assert jacobi_poly(m, x) == pytest.approx(ref, rel=1e-12, abs=1e-15)


class TestNormSq:
    def test_wallis_value_m0(self):
        assert jacobi_norm_sq(0) == pytest.approx(5.0 * math.pi / 16.0, rel=1e-14, abs=0)

    def test_m1_frozen_value(self):
        assert jacobi_norm_sq(1) == pytest.approx(NORM_SQ_M1, rel=1e-13, abs=0)
        assert NORM_SQ_M1 == pytest.approx(11025.0 * math.pi / 23040.0, rel=1e-15, abs=0)

    def test_m1_quadrature_oracle(self):
        quad = pytest.importorskip("scipy.integrate").quad
        val, err = quad(lambda e: (3.5 * math.cos(e)) ** 2 * math.sin(e) ** 6, 0.0, math.pi,
                        epsabs=1e-13, epsrel=1e-13)
        assert val == pytest.approx(NORM_SQ_M1, abs=1e-11)

    def test_positive(self):
        assert all(jacobi_norm_sq(m) > 0 for m in range(60))

GL_SIZES = [16, 17, 96, 97, 192, 547, 2188]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", GL_SIZES)
    def test_structure(self, n):
        x, w = gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
        assert np.array_equal(x, -x[::-1])
        if n % 2:
            assert x[n // 2] == 0.0
        assert np.all(w > 0) and np.array_equal(w, w[::-1])
        assert abs(w.sum() - 2.0) <= 1e-14

    @pytest.mark.parametrize("n", GL_SIZES)
    def test_exact_on_even_powers(self, n):
        x, w = gauss_legendre(n)
        for j in range(min(2 * n - 1, 80) // 2 + 1):
            assert float(np.dot(w, x ** (2 * j))) == pytest.approx(2.0 / (2 * j + 1),
                                                                   rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [n for n in GL_SIZES if n <= 192])
    def test_nodes_match_eigenvalue_solver(self, n):
        x, _ = gauss_legendre(n)
        assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 1e-15

    def test_endpoint_weights_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        n = 2188
        x, w = gauss_legendre(n)
        with mp.workdps(40):
            # Newton on P_n in 40 digits from the double node, then the weight
            # 2 / ((1 - x^2) P_n'(x)^2) at the refined node
            for i in (0, n - 1):
                z = mp.mpf(x[i])
                for _ in range(3):
                    p, q = z, mp.mpf(1)
                    for k in range(2, n + 1):
                        p, q = ((2 * k - 1) * z * p - (k - 1) * q) / k, p
                    dp = n * (z * p - q) / (z * z - 1)
                    z -= p / dp
                exact = 2 / ((1 - z * z) * dp * dp)
                assert abs(w[i] / exact - 1) <= 1e-10

    def test_small_rules_and_bad_size(self):
        x, w = gauss_legendre(1)
        assert x.tolist() == [0.0] and w.tolist() == [2.0]
        x, w = gauss_legendre(2)
        assert x[1] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15, abs=0)
        assert w.tolist() == pytest.approx([1.0, 1.0], rel=1e-15, abs=0)
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestTerminatingHypergeometric:
    def test_head_term_only(self):
        assert hyp2f1_terminating(0, 1.0) == 1.0

    def test_m0_equals_cosh3(self):
        assert hyp2f1_terminating(0, math.cosh(1.0)) == pytest.approx(math.cosh(3.0),
                                                                      rel=1e-13, abs=0)

    def test_m2_inside_interval(self):
        # equals the degree-5 Chebyshev value at 1/2
        assert hyp2f1_terminating(2, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(-1, 1.0)
