import itertools
import math
import re

import numpy as np
import pytest

from octads.acceptance import hyperbolic_suite, richardson
from octads.hyperbolic_kernel import (
    MAX_DIMENSION,
    SMALL_S_SWITCH,
    TIME_FLOOR,
    composed_distance,
    hyperbolic_heat_kernel,
    hyperbolic_heat_kernel_composed,
    _DF_SERIES,
    _FAR,
    _SERIES_LENGTH,
    _log_kernel,
    _log_lowering_factor,
    _series_factor,
    _taylor_mode_factor,
)

# both sides of SMALL_S_SWITCH
_S_GRID = np.array([0.05, 0.2, 0.7, 1.24, 1.26, 1.9, 3.3, 8.0])


def _lowering_factor(k, t, s):
    """P_k, as exp of the log form that the kernel is built from."""
    return np.exp(_log_lowering_factor(k, t, s))


class TestLoweringOperator:
    """P_k, the factor that k applications of -(1/sinh s) d/ds put in front
    of the Gaussian exp(-s^2/4t), against closed forms and sympy's derivative."""

    def test_single_application(self):
        # P_1 = s csch(s) / 2t
        for t in (0.05, 0.5, 2.0):
            ref = _S_GRID / np.sinh(_S_GRID) / (2.0 * t)
            assert _lowering_factor(1, t, _S_GRID) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_double_application_canonical_terms(self):
        # P_2 = (-1/2t + s coth(s)/2t + s^2/4t^2) csch(s)^2
        s = _S_GRID
        for t in (0.05, 0.5, 2.0):
            ref = ((s / np.tanh(s) - 1.0) / (2.0 * t) + s * s / (4.0 * t * t)) / np.sinh(s) ** 2
            assert _lowering_factor(2, t, s) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [2, 4, 7, 9])
    def test_against_symbolic_differentiation(self, k):
        sp = pytest.importorskip("sympy")
        mp = pytest.importorskip("mpmath")
        x, t = sp.symbols("x t", positive=True)
        # -(1/sinh s) d/ds is -d/dx in x = cosh s, where the expression at k = 9 is 200 times
        # smaller: this test took 63 s at k = 9 in s, and 1.5 s in x
        expr = sp.exp(-sp.acosh(x) ** 2 / (4 * t))
        for _ in range(k):
            expr = -sp.diff(expr, x)
        reference = sp.lambdify((t, x), expr * sp.exp(sp.acosh(x) ** 2 / (4 * t)), "mpmath")
        # the symbolic expression cancels catastrophically at small s, so it is
        # evaluated at 60 digits; the points lie on both sides of SMALL_S_SWITCH
        for tv, sv in [(0.5, 0.7), (1.0, 1.9), (2.0, 3.3), (0.7, 0.2), (0.05, 1.24), (3.0, 1.26)]:
            with mp.workdps(60):
                ref = float(reference(mp.mpf(tv), mp.cosh(mp.mpf(sv))))
            mine = _lowering_factor(k, tv, np.array([sv]))[0]
            assert mine == pytest.approx(ref, rel=1e-12, abs=0), (k, tv, sv)


class TestTaylorBranch:
    """The float evaluator: a series in w = cosh s - 1 below the switch and
    Taylor mode about x0 = cosh s above it."""

    def test_against_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        ss = [1e-6, 0.2, 1.2, SMALL_S_SWITCH - 1e-4, SMALL_S_SWITCH, 1.3, 3.0, 8.0, 20.0]
        for t in (0.05, 0.5, 2.34, 6.0):

            def q(x):
                return mp.exp(-mp.acosh(x) ** 2 / (4 * mp.mpf(t)))

            for k in range(1, 8):
                mine = _lowering_factor(k, t, np.array(ss))
                for s, value in zip(ss, mine):
                    # P_k = (-1)^k q^(k) / q at x = cosh s
                    with mp.workdps(60):
                        x = mp.cosh(mp.mpf(s))
                        ref = float(mp.re((-1) ** k * mp.diff(q, x, k) / q(x)))
                    assert abs(value - ref) <= 1e-12 * abs(ref), (k, t, s)

    def test_exact_value_at_zero(self):
        # series heads: P_1(1) = 1/(2t), P_2(1) = 1/(6t) + 1/(4t^2)
        for t in (0.05, 0.5, 2.0):
            heads = _lowering_factor(1, t, np.zeros(1)), _lowering_factor(2, t, np.zeros(1))
            assert heads[0][0] == pytest.approx(1.0 / (2.0 * t), rel=1e-15, abs=0)
            assert heads[1][0] == pytest.approx(1.0 / (6.0 * t) + 1.0 / (4.0 * t * t),
                                                rel=1e-15, abs=0)
            assert hyperbolic_heat_kernel(3, t, 0.0) == pytest.approx(
                math.exp(-t) / (4.0 * math.pi * t) ** 1.5, rel=1e-15, abs=0)

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_switchover_consistency(self, k):
        # both branches agree in a window below the switch, where Taylor mode
        # about cosh s loses at most two digits
        s = np.array([0.8, 1.0, 1.1, SMALL_S_SWITCH - 1e-9])
        for t in (0.5, 2.0):
            series = _series_factor(k, t, 2.0 * np.sinh(0.5 * s) ** 2)
            taylor_mode = np.exp(_taylor_mode_factor(k, t, s))
            assert np.all(np.abs(series - taylor_mode) <= 1e-11 * np.abs(series)), (k, t)

    @pytest.mark.parametrize("k", range(MAX_DIMENSION // 2 + 1))
    def test_series_sum_is_polyval(self, k):
        # the in-place Horner loop makes polyval's operations in its order, and keeps its bits
        polyval = pytest.importorskip("numpy.polynomial.polynomial").polyval
        p = np.zeros(_SERIES_LENGTH + k)  # the coefficients, as _series_factor forms them
        p[0] = 1.0
        for _ in range(k):
            n = p.size - 1
            p = np.convolve(p[:n], _DF_SERIES[:n])[:n] / (4.0 * 0.7) - np.arange(1, n + 1) * p[1:]
        s = np.concatenate([np.linspace(0.0, SMALL_S_SWITCH, 257), [0.05, 1e-8]])
        w = 2.0 * np.sinh(0.5 * s) ** 2
        assert _same_bits(_series_factor(k, 0.7, w), polyval(w, p))

    def test_no_overflow_at_large_distance(self):
        # sinh(s)**7 alone overflows beyond s = 102.9, and sinh(s) beyond 710.5
        s = np.array([103.0, 150.0, 700.0, 800.0])
        with np.errstate(over="raise", invalid="raise"):
            for n in (9, 15):
                for t in (0.5, 3.0, 50.0):
                    q = hyperbolic_heat_kernel(n, t, s)
                    assert np.all(np.isfinite(q) & (q >= 0)), (n, t)

    def test_closed_forms_on_both_sides_of_the_cap(self):
        # P_1 = s csch(s) / 2t and P_2 = (s^2/4t^2 + (s coth s - 1)/2t) csch(s)^2, on both
        # sides of s = 100, where a cap on sinh s used to hold sinh^k s in double range
        for t in (0.5, 3.0):
            for s in (50.0, 100.0, 100.0 + 1e-9, 101.0, 150.0, 300.0):
                csch = 2.0 * math.exp(-s) / -math.expm1(-2.0 * s)
                p1 = s * csch / (2.0 * t)
                p2 = (s * s / (4.0 * t * t) + (s / math.tanh(s) - 1.0) / (2.0 * t)) * csch ** 2
                got = [math.exp(_taylor_mode_factor(k, t, np.array([s]))[0]) for k in (1, 2)]
                assert got == pytest.approx([p1, p2], rel=1e-12, abs=0), (t, s)


class TestLogForm:
    """The kernel's log, which the measure integrals use where the kernel itself underflows."""

    @pytest.mark.parametrize("n", [9, 15, 19])
    def test_against_symbolic_differentiation(self, n):
        sp = pytest.importorskip("sympy")
        mp = pytest.importorskip("mpmath")
        k = (n - 1) // 2
        x, t = sp.symbols("x t", positive=True)
        # in x = cosh s, as in TestLoweringOperator
        expr = sp.exp(-sp.acosh(x) ** 2 / (4 * t))
        for _ in range(k):
            expr = -sp.diff(expr, x)
        reference = sp.lambdify((t, x), sp.log(expr), "mpmath")
        # the kernel underflows to 0 at most of these points
        ss = np.array([0.05, 0.7, 5.0, 30.0, 80.0, 200.0])
        for tv in (0.5, 3.0, 10.0):
            mine = _log_kernel(n, tv, ss)
            for sv, value in zip(ss, mine):
                with mp.workdps(60):
                    ref = float(-k * k * mp.mpf(tv) - k * mp.log(2 * mp.pi)
                                - mp.log(4 * mp.pi * mp.mpf(tv)) / 2
                                + reference(mp.mpf(tv), mp.cosh(mp.mpf(sv))))
                assert abs(value - ref) <= 1e-15 * abs(ref), (n, tv, sv)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSlicing:
    """No value may depend on the block a node is evaluated in."""

    @pytest.mark.parametrize("k", range(8))
    def test_block_matches_single_nodes(self, k):
        # from below the switch through s = 100 and _FAR to inf
        s = np.geomspace(0.5, 2.0 * _FAR, 997)
        s = np.concatenate([s, [SMALL_S_SWITCH, 100.0, 100.0 + 1e-9, _FAR, math.inf]])
        s = np.random.default_rng(19).permutation(s)
        with np.errstate(over="raise", invalid="raise"):
            for t in (0.05, 2.34):
                block = _taylor_mode_factor(k, t, s)
                single = np.array([_taylor_mode_factor(k, t, s[i:i + 1])[0] for i in range(s.size)])
                assert _same_bits(block, single), (k, t)

    @pytest.mark.parametrize("n", [9, 15])
    def test_composed_block_matches_its_rows(self, n):
        # a density block: each row has nodes on both sides of the switch
        rs = np.linspace(0.0, 45.0, 64)
        u = np.linspace(0.0, 25.0, 192)
        with np.errstate(over="raise", invalid="raise"):
            block = hyperbolic_heat_kernel_composed(n, 1.2, rs[:, None], u[None, :])
            rows = np.array([hyperbolic_heat_kernel_composed(n, 1.2, r, u) for r in rs])
        assert _same_bits(block, rows)


class TestKernelValues:
    def test_euclidean_line_at_origin(self):
        assert hyperbolic_heat_kernel(1, 1.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), abs=1e-15
        )

    def test_on_diagonal_finite(self):
        for n in (9, 15):
            v = hyperbolic_heat_kernel(n, 1.0, 0.0)
            assert np.isfinite(v) and v > 0

    def test_positivity_grid(self):
        ss = np.linspace(0.0, 12.0, 60)
        for n in (1, 3, 9, 15):
            for t in (0.5, 1.0, 2.0):
                assert np.all(hyperbolic_heat_kernel(n, t, ss) > 0)

    def test_dimension_recursion_by_finite_differences(self):
        # kernel in n+2 dimensions = exp(-n t)/(2 pi) * -(1/sinh) d/ds of the n kernel
        for n in (1, 3, 5, 7, 9, 11, 13):
            for (t, s) in [(0.7, 0.9), (1.3, 2.2)]:
                def dds(h):
                    return (hyperbolic_heat_kernel(n, t, s + h)
                            - hyperbolic_heat_kernel(n, t, s - h)) / (2.0 * h)

                c, f = dds(1e-4), dds(5e-5)
                deriv = f + (f - c) / 3.0
                lifted = math.exp(-n * t) / (2.0 * math.pi) * (-deriv / math.sinh(s))
                target = hyperbolic_heat_kernel(n + 2, t, s)
                assert lifted == pytest.approx(target, rel=1e-7, abs=0.0), (n, t, s)

    @pytest.mark.parametrize("n", [3, 5, 9, 13, 15])
    def test_x_derivatives_by_dimension_shift(self, n):
        # with x = cosh s: d/dx q_n = -2 pi e^(nt) q_{n+2} and
        # d^2/dx^2 q_n = (2 pi)^2 e^((2n+2)t) q_{n+4}, against central differences in x
        for t, s in itertools.product((0.1, 1.0), (0.3, 1.0, 2.5)):
            x = math.cosh(s)

            def q(dx):
                return hyperbolic_heat_kernel(n, t, math.acosh(x + dx))

            h = 2e-3 * math.sinh(s)
            first = richardson(lambda h: (q(h) - q(-h)) / (2.0 * h), h)
            second = richardson(lambda h: (q(h) - 2.0 * q(0.0) + q(-h)) / h ** 2, h)
            shifted = [hyperbolic_heat_kernel(n + 2 * j, t, s) for j in (1, 2)]
            assert first == pytest.approx(-2.0 * math.pi * math.exp(n * t) * shifted[0],
                                          rel=3e-8, abs=0.0), (t, s)
            assert second == pytest.approx((2.0 * math.pi) ** 2 * math.exp((2 * n + 2) * t)
                                           * shifted[1], rel=3e-8, abs=0.0), (t, s)

    def test_infinite_distance_is_zero(self):
        with np.errstate(over="raise", invalid="raise"):
            for n in (1, 3, 9, 15):
                assert hyperbolic_heat_kernel(n, 0.5, math.inf) == 0.0
                assert hyperbolic_heat_kernel(n, 2.0, np.array([1e4, math.inf])).tolist() == [0, 0]

    @pytest.mark.parametrize("n", [1, 9, 15])
    @pytest.mark.parametrize("s, t", [(1e150, 1e-30), (1e200, 1e-30), (1e200, 1.0),
                                      (1e200, 1e10), (1e300, 1e-30), (1e300, 1.0),
                                      (1e300, 1e10)])
    def test_huge_distance_is_zero(self, n, s, t):
        # the Gaussian's exponent overflowed, in s * s or in / (4 t), and raised here
        with np.errstate(over="raise"):
            assert hyperbolic_heat_kernel(n, t, s) == 0.0
            assert hyperbolic_heat_kernel(n, t, np.array([0.5, s]))[1] == 0.0

    def test_huge_time_and_distance_are_zero(self):
        # a clamp at 1e150 alone gave NaN here, since s^2 overflows past it
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert hyperbolic_heat_kernel(15, 1e200, [1e200, math.inf]).tolist() == [0, 0]

    def test_normalization_past_the_old_far_clamp(self):
        # n = 15's nodes pass s = 1e4 from t = 690, where a clamp of s at 1e4 overflowed exp
        # and normalization_n15 read inf
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rows = hyperbolic_suite(t=(700.0, 1000.0))
        norm = [row for row in rows if row["check"].startswith("normalization")]
        assert len(norm) == 4 and all(row["status"] == "pass" for row in norm)

    def test_closed_form_row_past_the_reference_underflow(self):
        # the n = 3 reference is subnormal at s = 5 from t ~ 693 and 0 from t = 729, and the
        # row compared the kernel with it as a float: inf, fail
        rows = hyperbolic_suite(t=(694.0, 800.0))
        assert rows[-1]["check"] == "closed_form_n3"
        assert rows[-1]["status"] == "pass" and rows[-1]["value"] <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyperbolic_heat_kernel(8, 1.0, 0.5)
        with pytest.raises(ValueError):
            hyperbolic_heat_kernel(-3, 1.0, 0.5)
        with pytest.raises(ValueError):
            hyperbolic_heat_kernel(21, 1.0, 0.5)
        with pytest.raises(ValueError):
            hyperbolic_heat_kernel(15, -1.0, 0.5)
        with pytest.raises(ValueError):
            hyperbolic_heat_kernel(15, 1.0, -0.5)

    def test_dimension_must_be_an_integer(self):
        # 15.0 reached np.zeros as a series length, and True ran as dimension 1
        for n in (15.0, True, np.float64(9.0)):
            with pytest.raises(ValueError, match="dimension n must be an integer in "):
                hyperbolic_heat_kernel(n, 1.0, 0.5)
        s = np.array([0.0, 0.5, 2.0, 150.0])
        assert _same_bits(hyperbolic_heat_kernel(np.int64(15), 1.0, s),
                          hyperbolic_heat_kernel(15, 1.0, s))

    @pytest.mark.parametrize("s", [True, np.True_, 1j, "1", None, np.array([True, False])])
    def test_bool_distance_is_refused(self, s):
        # True ran as s = 1, and the bool array as s = 1 and 0; "1" returned the value at s = 1
        with pytest.raises(ValueError, match=re.escape("s must be a real number in [0, inf]")):
            hyperbolic_heat_kernel(15, 1.0, s)

    def test_time_floor(self):
        # below the floor, dimension 15 gave NaN from t = 1e-43 down, dimension 9 from 1e-70;
        # True ran as t = 1
        for n in (9, 15):
            for t in (1e-200, 0.5 * TIME_FLOOR, True, np.True_, 1j, "1", None, np.array([1.0])):
                with pytest.raises(ValueError, match=re.escape("t must be a real number in [1e-30, "
                                                               "1e+300]")):
                    hyperbolic_heat_kernel(n, t, np.array([0.0, 2.0]))
        s = np.array([0.0, 1e-3, 1.0, SMALL_S_SWITCH, 30.0, 1e4, math.inf])
        with np.errstate(over="raise", invalid="raise"):
            for n in range(1, MAX_DIMENSION + 1, 2):
                assert np.all(np.isfinite(hyperbolic_heat_kernel(n, TIME_FLOOR, s))), n


class TestComposedArgument:
    def test_u_zero_is_exact(self):
        for r in (0.0, 0.3, 2.0):
            assert composed_distance(r, 0.0) == r

    def test_negative_distance_refused(self):
        # at u = 0 the distance is r itself, and a negative r passed through
        # "1" as r returned 1.0, and 1j and None raised a bare TypeError
        for r, u in [(-1.0, 0.0), (-1.0, 0.5), (0.5, -1.0), (math.nan, 0.0),
                     (np.array([0.0, -1.0]), 0.0), ("1", 0.5), (1j, 0.5), (0.5, None),
                     (0.5, np.array([True]))]:
            with pytest.raises(ValueError, match=r"^[ru] must be a real number in \[0, inf\]"):
                composed_distance(r, u)
            with pytest.raises(ValueError, match=r"^[ru] must be a real number in \[0, inf\]"):
                hyperbolic_heat_kernel_composed(15, 1.0, r, u)

    def test_far_and_infinite_arguments(self):
        # sinh(0) cosh(inf) was 0 * inf ("invalid value"), and sinh(800) overflowed to an
        # infinite distance where cosh s = cosh(800) cosh(1) gives s = 800 + log cosh 1
        with np.errstate(over="raise", invalid="raise"):
            assert composed_distance(0.0, math.inf) == math.inf
            for r, u in [(800.0, 1.0), (1.0, 800.0)]:
                s = composed_distance(r, u)
                assert s == pytest.approx(800.0 + math.log(math.cosh(1.0)), rel=1e-15, abs=0)
                assert hyperbolic_heat_kernel_composed(15, 1.0, r, u) == 0.0
            assert hyperbolic_heat_kernel_composed(15, 1.0, 0.0, math.inf) == 0.0

    def test_distance_value(self):
        # cosh(s) = cosh(1)^2
        expected = math.acosh(math.cosh(1.0) ** 2)
        assert composed_distance(1.0, 1.0) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_composed_matches_direct(self):
        for (r, u) in [(0.0, 0.7), (1.0, 1.0), (2.0, 0.2), (0.5, 3.0)]:
            s = composed_distance(r, u)
            a = hyperbolic_heat_kernel_composed(15, 1.0, r, u)
            b = hyperbolic_heat_kernel(15, 1.0, s)
            assert a == pytest.approx(b, rel=1e-14, abs=0)

    def test_large_arguments_stable(self):
        v = hyperbolic_heat_kernel_composed(15, 2.0, 40.0, 25.0)
        assert v == 0.0 or (np.isfinite(v) and v >= 0.0)
