import functools
import itertools
import math
import re
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from octads import acceptance, fiber_kernel, subelliptic_kernel
from octads.acceptance import GRID_ETA, GRID_R, GRID_T
from octads.fiber_kernel import (SeriesConvergenceError, _fiber_coeff, _series_matrix,
                                 fiber_heat_kernel, fiber_mode_multiplicity)
from octads.hyperbolic_kernel import hyperbolic_heat_kernel, hyperbolic_heat_kernel_composed
from octads.mc_oracle import MC_TEST_FUNCTIONS
from octads.special_fn import gl_nodes
from octads.subelliptic_kernel import (
    MEASURE_CONSTANT,
    KernelPoint,
    KernelRangeError,
    MIN_TIME,
    QuadratureConvergenceError,
    REP2_CONSTANT,
    _LEVEL_NODES,
    _MEASURE_LEVELS,
    _rep1_grid,
    _rep2_direct,
    _rep2_grid,
    default_u_max,
    heat_kernel_rep1,
    heat_kernel_rep2,
    heat_residual,
    total_mass,
    weighted_integral,
)

PI = math.pi
_BELOW_MIN_TIME = re.escape("t must be a real number in [0.05, inf)")


class TestRepresentations:
    # kernel values here are 1e-15 to 1e-50, so every approx sets abs=0.0:
    # pytest's default abs=1e-12 would accept any value
    def test_cross_agreement_spot(self):
        # rep 1 raised at (0.1, 3, 0.8) while it stopped its series per u node
        for (t, r, eta) in [(1.0, 0.0, 0.0), (0.5, 0.5, 3.0), (2.0, 1.0, PI / 2.0),
                            (0.1, 3.0, 0.8)]:
            k1 = heat_kernel_rep1(t, r, eta)
            k2 = heat_kernel_rep2(t, r, eta)
            assert k1.value == pytest.approx(k2.value, rel=1e-6, abs=0.0)

    def test_rep2_paths_agree(self):
        for (t, r, eta) in [(1.0, 0.5, PI / 4.0), (0.5, 2.0, 2.9)]:
            a = _rep2_direct(t, r, eta)
            b = heat_kernel_rep2(t, r, eta)
            assert a.value == pytest.approx(b.value, rel=1e-8, abs=0.0)

    def test_positivity_on_grid(self):
        for t in (0.5, 1.0, 2.0):
            for r in (0.0, 0.5, 1.0, 2.0):
                for eta in (0.0, PI / 2.0, PI):
                    assert heat_kernel_rep1(t, r, eta).value > 0

    def test_eta_boundary_finite_and_consistent(self):
        t, r = 1.0, 0.5
        at_pi = heat_kernel_rep1(t, r, PI).value
        h = 0.02
        coarse = heat_kernel_rep1(t, r, PI - h).value
        fine = heat_kernel_rep1(t, r, PI - h / 2.0).value
        # the kernel is smooth and even about eta = pi, so h^2 extrapolation applies
        extrapolated = fine + (fine - coarse) / 3.0
        assert np.isfinite(at_pi)
        assert extrapolated == pytest.approx(at_pi, rel=1e-6, abs=0.0)

    def test_diagnostics_populated(self):
        k = heat_kernel_rep1(1.0, 0.5, 1.0)
        assert k.est_error >= 0.0
        assert k.m_used > 0
        assert k.u_max_used >= default_u_max(1.0, 0.5)

    def test_point_validation(self):
        # every route is checked by the point rule itself
        points = [(-1.0, 0.0, 0.0), (1.0, -0.5, 0.0), (1.0, 0.0, 5.0), (1.0, 0.0, -0.1)]
        for rep, point in itertools.product([heat_kernel_rep1, heat_kernel_rep2, _rep2_direct],
                                            points):
            with pytest.raises(ValueError):
                rep(*point)

    @pytest.mark.parametrize("call", [
        lambda: hyperbolic_heat_kernel(9, math.nan, 1.0),
        lambda: hyperbolic_heat_kernel(9, math.inf, 1.0),
        lambda: hyperbolic_heat_kernel(9, 1.0, np.array([0.5, math.nan])),
        lambda: KernelPoint(1.0, math.nan, 0.0),
        lambda: KernelPoint(1.0, math.inf, 0.0),
        lambda: KernelPoint(math.inf, 0.0, 0.0),
        lambda: fiber_heat_kernel(math.nan, 0.5, 0.5),
        lambda: fiber_heat_kernel(math.inf, 0.5, 0.5),
        lambda: fiber_heat_kernel(1.0, 0.5, math.nan, continued=True),
    ])
    def test_non_finite_inputs_raise(self, call):
        with pytest.raises(ValueError):
            call()

    def test_min_time_enforced(self):
        # below MIN_TIME rep 2 used to return an unchecked value (79.3 here)
        for rep in (heat_kernel_rep1, heat_kernel_rep2):
            with pytest.raises(ValueError, match=_BELOW_MIN_TIME):
                rep(0.02, 0.5, 0.3)
        with pytest.raises(ValueError, match=_BELOW_MIN_TIME):
            total_mass(0.02)
        assert heat_kernel_rep2(MIN_TIME, 0.5, 0.3).value > 0

    @pytest.mark.parametrize("t", [True, np.True_, 1j, "1", None, np.array([1.0])])
    def test_bool_time_is_refused(self, t):
        # True ran every route at t = 1, and the mass integral returned the mass at t = 1
        for call in (heat_kernel_rep1, heat_kernel_rep2, functools.partial(heat_residual, "rep1"),
                     lambda t, r, eta: weighted_integral(lambda r, eta: 1.0, t)):
            with pytest.raises(ValueError, match=_BELOW_MIN_TIME):
                call(t, 0.5, 0.3)

    @pytest.mark.parametrize("flag", [True, np.True_, 1j, "1", None, np.array([0.5])])
    @pytest.mark.parametrize("arg, name", [(1, "base distance r"), (2, "fiber angle eta")])
    def test_bool_distance_and_angle_are_refused(self, arg, name, flag):
        # True ran every route at 1: heat_kernel_rep1(1.0, 0.5, True) returned 2.548e-26
        point = [1.0, 0.5, 0.3]
        point[arg] = flag
        for call in (heat_kernel_rep1, heat_kernel_rep2, _rep2_direct,
                     functools.partial(heat_residual, "rep1")):
            with pytest.raises(ValueError, match=f"^{name.split()[-1]} must be a real number in "):
                call(*point)

    @pytest.mark.parametrize("growth", [True, np.True_, 1j, "1", None, np.array([0.5])])
    def test_bool_growth_is_refused(self, growth):
        # True was read as f_growth = 1
        with pytest.raises(ValueError, match=re.escape("f_growth must be a real number in [0, 1]")):
            weighted_integral(lambda r, eta: np.cosh(r), 1.0, f_growth=growth)

    @pytest.mark.parametrize("cast", [np.float32, np.int64, np.array], ids=["float32", "int64",
                                                                            "0-d"])
    def test_numpy_arguments_give_the_bits_of_floats(self, cast):
        # float32 arithmetic moved rep 1 by 1.1e-6 (t), rep 2 by 5.1e-6 (t) and 1.2e-7 (r), the
        # residual's p, and the hyperbolic kernel by 1.1e-6 (t); a 0-d t failed the level store
        calls = (lambda t, r, eta: heat_kernel_rep1(t, r, eta).value,
                 lambda t, r, eta: heat_kernel_rep2(t, r, eta).value,
                 functools.partial(heat_residual, "rep1"),
                 lambda t, r, eta: hyperbolic_heat_kernel(15, t, r),
                 lambda t, r, eta: weighted_integral(lambda r, eta: np.cosh(r / 2.0)
                                                     * np.cos(eta) ** 2, t, f_growth=r / 2.0))
        point = (2.0, 1.0, 0.0)  # exact in float32 and int64
        for call in calls:
            want = call(*point)
            for i in range(3):
                args = list(point)
                args[i] = cast(args[i])
                got = call(*args)
                assert type(got) is type(want) and np.array_equal(got, want), (call, i)
        assert {type(v) for v in heat_residual("rep1", *point)} == {float}

    def test_underflow_raises(self):
        # at t = 16 the kernel underflows to exactly 0.0 on every route
        for rep in (heat_kernel_rep1, heat_kernel_rep2, _rep2_direct):
            with pytest.raises(KernelRangeError, match="is 0.0") as info:
                rep(16.0, 0.0, 0.0)
            assert isinstance(info.value, ArithmeticError)
            assert info.value.result.value == 0.0

    @pytest.mark.parametrize("rep", [heat_kernel_rep1, heat_kernel_rep2])
    def test_subnormal_value_raises(self, rep):
        # rep 1 returned 6.126e-322 here, with an est_error 1.6% of it, under a 1e-280 floor
        with pytest.raises(KernelRangeError) as info:
            rep(14.8, 0.5, PI / 4.0)
        assert 0.0 < info.value.result.value < np.finfo(float).tiny

    def test_negative_value_raises(self):
        # rep 1 returned -6.729e-08 here, with an est_error of 5.5e-17; the kernel is positive
        with pytest.raises(KernelRangeError, match="is -6.7") as info:
            heat_kernel_rep1(0.05, 0.05, PI / 3.0)
        assert info.value.result.value < 0.0

    def test_nonconvergence_raises(self, monkeypatch):
        # a grid whose error shrinks only like 1/n_u: each doubling changes the value by
        # 1/(2 n_u) relative, at least 1e-3 here, far above POINT_TOL.  The point rule
        # refuses after its five node counts at the one cutoff default_u_max; it used to
        # retry all five at twice that cutoff
        real = subelliptic_kernel._rep1_grid
        calls = []

        def grid(t, r, eta, n_u, u_max):
            calls.append((n_u, u_max))
            value, m_used = real(t, r, eta, n_u, u_max)
            return value * (1.0 + 1.0 / n_u), m_used

        monkeypatch.setattr(subelliptic_kernel, "_rep1_grid", grid)
        monkeypatch.setattr(subelliptic_kernel, "POINT_N_U", 16)
        with pytest.raises(QuadratureConvergenceError):
            heat_kernel_rep1(1.0, 0.5, 1.0)
        assert calls == [(16 << k, default_u_max(1.0, 0.5)) for k in range(5)]

    @pytest.mark.parametrize("point, match", [
        # the tail bound exp(b u_max - rate t) overflowed: OverflowError; at
        # default_u_max = 11.79 the term of degree 98 exceeds double range
        ((0.05, 5.0, 2.0 * PI / 3.0), "degree"),
        ((0.05, 5.0, PI), "degree"),
        # the angular integral kept an imaginary part: AssertionError
        ((0.05, 0.0, 2.0 * PI / 3.0), "imaginary residue"),
    ])
    def test_direct_2d_failure_is_a_convergence_error(self, point, match):
        with pytest.raises(QuadratureConvergenceError, match=match):
            _rep2_direct(*point)

    @pytest.mark.parametrize("point", [(20.0, 240.0, 1.0), (100.0, 720.0, 1.0)])
    def test_direct_route_past_the_cosh_overflow_is_a_refusal(self, point):
        # REP2_CONSTANT / cosh^3 r raised a bare OverflowError past r = 236.5.  The direct
        # route forms its weight as one exp of a sum of logs and no cosh^3 r; the weight is
        # below the least double there, and the route refuses its value 0, as rep 2 does
        for route in (_rep2_direct, heat_kernel_rep2):
            with pytest.raises(KernelRangeError, match=r"is 0\.0 at \(t=") as info:
                route(*point)
            assert info.value.result.value == 0.0

    @pytest.mark.parametrize("r", [3e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("route, error", [
        (heat_kernel_rep1, SeriesConvergenceError), (heat_kernel_rep2, SeriesConvergenceError),
        (_rep2_direct, QuadratureConvergenceError),
        (functools.partial(heat_residual, "rep1"), SeriesConvergenceError),
        (functools.partial(heat_residual, "rep2"), SeriesConvergenceError),
    ], ids=["rep1", "rep2", "direct", "residual-rep1", "residual-rep2"])
    def test_huge_distance_raises_without_a_warning(self, route, error, r):
        # composed_distance's far branch, log g and the weight sums warned of overflow and
        # invalid values before the error: rep 1 from r = 3e307, rep 2 from 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=re.escape(f"(t=1.0, r={r}, eta=1.0)")):
                route(1.0, r, 1.0)

    @pytest.mark.parametrize("route, point, error, message", [
        (heat_kernel_rep2, (1.0, 300.0, 1.0), SeriesConvergenceError,
         r"representation 2 at \(t=1\.0, r=300\.0, eta=1\.0\): degree-3 polynomial overflowed "),
        (heat_kernel_rep1, (0.05, 1.0, PI), SeriesConvergenceError,
         rf"representation 1 at \(t=0\.05, r=1\.0, eta={PI}\): degree-\d+ polynomial overflowed "),
        (_rep2_direct, (0.05, 0.0, 2.0 * PI / 3.0), QuadratureConvergenceError,
         r"representation 2's direct 2-d route at \(t=0\.05, r=0\.0, eta=2\.09\d*\): "
         r"imaginary residue "),
        (functools.partial(heat_residual, "rep1"), (0.05, 0.0, 0.0), SeriesConvergenceError,
         r"representation 1's heat residual at \(t=0\.05, r=0\.0, eta=0\.0\): degree-90 "
         r"polynomial overflowed in the series coefficients$"),
    ], ids=["rep2", "rep1", "direct", "residual-rep1"])
    def test_point_errors_name_the_route_and_the_point(self, route, point, error, message):
        # the series and quadrature errors of a point route named neither, nor did the
        # residual's; the overflow spoke of "the requested t and u", though a point has no u
        with pytest.raises(error) as info:
            route(*point)
        assert re.match(message, str(info.value)), str(info.value)

    def test_direct_2d_builds_one_angular_rule(self, monkeypatch):
        # the angular rule doubled with the u rule, 64 to 1024 nodes; the series is a
        # polynomial of degree at most SERIES_M_CAP in x, which one rule integrates exactly
        calls = []
        for module in (fiber_kernel, subelliptic_kernel):
            def record(n, a, b, real=module.gl_nodes):
                calls.append((n, a, b))
                return real(n, a, b)
            monkeypatch.setattr(module, "gl_nodes", record)
        _rep2_direct(0.5, 2.0, 2.9)
        assert len([n for n, a, _ in calls if a == 0.0]) >= 2
        assert {n for n, a, b in calls if (a, b) == (-1.0, 1.0)} == {
            fiber_kernel.SERIES_M_CAP // 2 + 3}

    @pytest.mark.parametrize("evaluate", [
        # rep 1's P_m(cosh u) overflows at degree 90 at default_u_max
        lambda: heat_kernel_rep1(0.05, 1.0, PI),
        # rep 2's cosh((m+3) u) overflowed in exp and then in its matmul: a bare
        # FloatingPointError, and without raise a QuadratureConvergenceError at the degree cap.
        # Its mode factor, one exp per exponent, stays finite at every point's cutoff, and
        # overflows at degree 58 at twice it
        lambda: _rep2_grid(0.05, 1.0, PI, 96, 2.0 * default_u_max(0.05, 1.0)),
        # cosh u overflowed past u = 710, a bare FloatingPointError and without raise a
        # RuntimeWarning before the error
        lambda: heat_kernel_rep1(1.0, 705.0, 1.0),
        lambda: fiber_heat_kernel(1.0, 1.0, 711.0, continued=True),
    ], ids=["heat_kernel_rep1", "heat_kernel_rep2", "heat_kernel_rep1-cosh-u",
            "fiber_heat_kernel-cosh-u"])
    def test_overflow_is_a_series_error_under_raise(self, evaluate):
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(SeriesConvergenceError, match="polynomial overflowed "):
                evaluate()

    def test_mode_series_against_independent_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        from octads.fiber_kernel import (fiber_eigenvalue, fiber_mode_multiplicity,
                                         fiber_mode_profile)
        from octads.hyperbolic_kernel import hyperbolic_heat_kernel_composed

        t, r, eta = 0.8, 0.6, 1.1
        total = 0.0
        for m in range(12):
            rate = fiber_eigenvalue(m) + 33

            def integrand(u, b=m + 3):
                return math.cosh(b * u) * float(hyperbolic_heat_kernel_composed(9, t, r, u))

            j_m, err = quad(integrand, 0.0, default_u_max(t, r), limit=200)
            total += (fiber_mode_multiplicity(m) * math.exp(-rate * t)
                      * fiber_mode_profile(m, eta) * j_m)
        total *= REP2_CONSTANT / math.cosh(r) ** 3
        mine = heat_kernel_rep2(t, r, eta).value
        assert mine == pytest.approx(total, rel=1e-8, abs=0.0)


class TestGridEvaluators:
    """Points go through _rep1_grid/_rep2_grid."""

    N_U = 192

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    def test_log_form_matches_the_float_product(self, which):
        # the integrand as a product of floats, each factor formed apart: q15 sinh^6 u times
        # the continued fiber series, or q9 times w_m exp(-(m(m+6) + 33) t) cosh((m+3) u), then
        # REP2_CONSTANT / cosh^3 r; at each of criterion 01's points
        for t, r, eta in itertools.product(GRID_T, GRID_R, GRID_ETA):
            u_max = default_u_max(t, max(GRID_R))
            u, w = gl_nodes(self.N_U, 0.0, u_max)
            if which == "rep1":
                wq = hyperbolic_heat_kernel_composed(15, t, r, u) * (w * np.sinh(u) ** 6)
                factor, scale = _fiber_coeff(t, np.cosh(u)), 1.0
            else:
                wq = w * hyperbolic_heat_kernel_composed(9, t, r, u)
                def factor(m):
                    b, rate = m + 3, m * (m + 6) + 33
                    return (fiber_mode_multiplicity(m),
                            0.5 * (np.exp(b * u - rate * t) + np.exp(-b * u - rate * t)))
                scale = REP2_CONSTANT / math.cosh(r) ** 3
            product, _, _ = _series_matrix(factor, 1, eta, wq[None])
            value, _ = subelliptic_kernel._grid(which, t, r, eta, self.N_U, u_max)
            assert value == pytest.approx(product[0] * scale, rel=1e-14, abs=0.0), (t, r, eta)


class TestHeatResidual:
    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    def test_residual_small(self, which):
        res, scale, p, _ = heat_residual(which, 1.0, 0.5, PI / 2.0)
        assert res <= 1e-4 * scale + 1e-8 * p

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    @pytest.mark.parametrize("dr", [0.0, 1e-7, -1e-7, 1e-6, 3e-6])
    def test_residual_near_eta_pi_is_not_rounding(self, which, dr):
        # the mode sums at (0.1, 2, 3 pi/4) cancel to ~1e-7 of their terms; summed in doubles,
        # their rounding read 0.03 to 1.4 of the bound as r moved by up to 3e-6
        res, scale, p, _ = heat_residual(which, 0.1, 2.0 + dr, 3.0 * PI / 4.0)
        assert res <= 0.01 * (1e-4 * scale + 1e-8 * p)

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    def test_criterion_03_at_large_time(self, which):
        # a time step of 1e-3 t read 1.0e-2, 0.16, 1.23 and 4.7 of the bound at (t, 0.5, pi/4)
        rows = acceptance.heat_equation_residual(t=(3.0, 6.0, 10.0, 14.0), which=which)
        assert all(row["status"] == "pass" for row in rows)

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    def test_residual_value_is_the_kernel(self, which):
        # p is the value row of the residual's own u-integrals, on 2 POINT_N_U nodes out to
        # default_u_max + 1
        kernel = heat_kernel_rep1 if which == "rep1" else heat_kernel_rep2
        for t, r, eta in [(1.0, 0.5, 1.0), (0.5, 1.0, 2.0), (2.0, 2.0, PI / 4.0), (1.0, 0.0, PI)]:
            p = heat_residual(which, t, r, eta)[2]
            assert p == pytest.approx(kernel(t, r, eta).value, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_closed_domain(self, which, t):
        # the residual refused r < 0.2 and eta within 0.2 of either pole; the drift row
        # (coth r + tanh r) d/dr A_m has no coth, so the axis and the poles are exact rows
        points = list(itertools.product([0.0, 1e-8, 0.1, 0.5], [0.0, 0.1, PI / 2.0, PI - 0.1, PI]))
        points += [(0.05, 1.0), (0.1, 1.0), (1.0, 0.05), (1.0, PI - 0.05)]
        for r, eta in points:
            res, scale, p, floor = heat_residual(which, t, r, eta)
            assert res <= 1e-4 * scale + 1e-8 * p, (r, eta)
            assert floor <= 1e-4 * scale + 1e-8 * p

    @pytest.mark.parametrize("point", [(1.0, 0.5, -0.1), (1.0, 0.5, 4.0), (1.0, -1.0, 1.0),
                                       (1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
                                       (0.01, 0.5, 1.0)])
    def test_point_outside_the_domain_raises(self, point):
        # the point is checked as the kernel's is; the strips let r = inf and t = 0.01 through
        # to a SeriesConvergenceError, and r = nan to a ValueError of the hyperbolic factor
        for which in ("rep1", "rep2"):
            with pytest.raises(ValueError):
                heat_residual(which, *point)

    @pytest.mark.parametrize("which, r", [("rep2", 400.0), ("rep1", 800.0), ("rep2", 800.0)])
    def test_rows_past_double_range_raise(self, which, r):
        # cosh^2 r in rep 2's g_rr, and cosh r and sinh r in x and x_r, raised a bare
        # OverflowError; there every q_n is 0 in double
        with pytest.raises(SeriesConvergenceError, match=rf"\(t=1\.0, r={r}, eta=1\.0\)"):
            heat_residual(which, 1.0, r, 1.0)

    def test_unknown_representation_raises(self):
        # the residual's integrand would otherwise be representation 2's
        with pytest.raises(ValueError, match="unknown representation"):
            heat_residual("rep3", 1.0, 0.5, 1.0)

    def test_no_grid_call(self, monkeypatch):
        # the stencil made 13 grid calls per residual; the mode sums are formed in place
        def grid(*args, **kwargs):
            raise AssertionError("grid evaluator called")

        for name in ("_rep1_grid", "_rep2_grid", "_grid"):
            monkeypatch.setattr(subelliptic_kernel, name, grid)
        for which in ("rep1", "rep2"):
            heat_residual(which, 1.0, 0.5, PI / 2.0)

    def test_rounding_floor_refuses(self):
        # the mode sums at (0.1, 1, 2.94) cancel by ~2e15: the residual's
        # rounding floor is 9.9e3 times its bound, where the stencil read 1.3e4 of it as a fail
        res, scale, p, floor = heat_residual("rep1", 0.1, 1.0, 2.94)
        assert floor > 1e-4 * scale + 1e-8 * p
        with pytest.raises(SeriesConvergenceError, match=r"\(t=0\.1, r=1\.0, eta=2\.94\)"):
            acceptance.heat_equation_residual(t=(0.1,), r=(1.0,), eta=(2.94,), which="rep1")

    def test_wrong_rate_fails_criterion_03(self, monkeypatch):
        # a mutant rep 2 that relaxes like exp(-34 t): its residual is p itself, ~190 bounds
        monkeypatch.setattr(subelliptic_kernel, "REP2_RATE_SHIFT", 34)
        rows = acceptance.heat_equation_residual(which="rep2")
        assert all(row["residual"] > 100.0 * row["bound"] for row in rows)
        assert all(row["status"] == "fail" for row in rows)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("eta", [PI / 4.0, PI / 2.0])
    def test_frozen_evaluator_past_the_old_margin(self, r, eta):
        # a series summed to a frozen degree 8 past the probe overflowed P_m(cosh u_max)
        # at degrees 67-73 at r = 1, though the kernel itself evaluates; at r = 2 a series
        # stopped per u node overflowed at degree 67
        res, scale, p, _ = heat_residual("rep1", 0.1, r, eta)
        assert res <= 1e-4 * scale + 1e-8 * p


class TestMeasureIntegrals:
    def test_zero_function(self):
        val = weighted_integral(lambda r, eta: np.zeros_like(r), 1.0)
        assert val == 0.0

    def test_mass_constant_and_exact(self):
        masses = [total_mass(t) for t in (0.5, 1.0, 2.0)]
        for m in masses:
            assert abs(m / masses[0] - 1.0) <= 1e-5
        # measured invariant: the mass equals exactly 1/32 under the shipped
        # measure constant pi^7/90 (unit mass under constant 16 pi^7/45)
        assert masses[0] == pytest.approx(1.0 / 32.0, rel=1e-8, abs=0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_eigen_moment(self, t):
        mom = weighted_integral(lambda r, eta: np.cosh(r) * np.cos(eta), t, f_growth=1.0)
        mass = total_mass(t)
        assert mom / mass == pytest.approx(math.exp(8.0 * t), rel=1e-4, abs=0)

    def test_mass_where_the_radial_measure_overflows(self):
        # s reaches 59.7 here; sinh^14 s alone is inf beyond s = 51.4
        with np.errstate(over="raise", invalid="raise"):
            mass = total_mass(2.6)
        assert abs(32.0 * mass - 1.0) <= 1e-5

    def test_moment_where_the_radial_measure_overflows(self):
        t = 2.34  # s reaches 54.7, past the overflow of sinh^14 s at 51.4
        with np.errstate(over="raise", invalid="raise"):
            mom = weighted_integral(lambda r, eta: np.cosh(r) * np.cos(eta), t, f_growth=1.0)
            mass = total_mass(t)
        assert abs(mom / mass - math.exp(8.0 * t)) <= 1e-4 * math.exp(8.0 * t)

    def test_unknown_representation_raises(self):
        # any name but "rep1" used to integrate representation 2
        with pytest.raises(ValueError, match="unknown representation"):
            total_mass(1.0, which="rep3")

    def test_rep2_mass_matches(self):
        a = total_mass(1.0)
        b = total_mass(1.0, which="rep2")
        assert a == pytest.approx(b, rel=1e-7, abs=0)


class TestDensityCache:
    """weighted_integral builds levels 0 and 1 of a (t, which) in one pass and level 2 alone,
    each once, through the one store _level reads, and every integrand reads the same levels."""

    T = 0.5

    @staticmethod
    def cold(f, t, **kwargs):
        subelliptic_kernel._levels.clear()
        return weighted_integral(f, t, **kwargs)

    @staticmethod
    def count_calls(monkeypatch):
        """(layer, nodes) of every hyperbolic and fiber series call from now on."""
        calls = []
        for name, layer in (("_log_kernel", "hyperbolic"), ("_series_matrix", "fiber")):
            real = getattr(subelliptic_kernel, name)

            def traced(*args, real=real, layer=layer, **kwargs):
                out = real(*args, **kwargs)
                calls.append((layer, np.size(out if layer == "hyperbolic" else out[0])))
                return out

            monkeypatch.setattr(subelliptic_kernel, name, traced)
        return calls

    def test_history_independent(self):
        f = lambda r, eta: np.cosh(r / 2.0) * np.cos(eta) ** 2
        want = self.cold(f, self.T, f_growth=0.5)
        for before in (dict(t=self.T, f_growth=1.0), dict(t=0.7), dict(t=self.T, which="rep2")):
            self.cold(lambda r, eta: np.cosh(r), **before)
            assert weighted_integral(f, self.T, f_growth=0.5) == want

    def test_one_call_per_layer_and_build(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        with pytest.raises(QuadratureConvergenceError):  # reaches level 2
            self.cold(lambda r, eta: np.cosh(r) * np.cos(eta), 4.0, f_growth=1.0)
        # per build: the hyperbolic factor on the s nodes, then the fiber series on the (s, y)
        # nodes at the pole, of levels 0 and 1 together, then of level 2
        # at t = 4 the s cutoff 16 t + 10 sqrt(t) + 2 = 86 exceeds 40 sqrt(t) = 80
        n_s = [max(n, math.ceil(n * 86.0 / 80.0)) for n in (64, 96, 144)]
        n_y = (32, 48, 72)
        assert _LEVEL_NODES == (64, 32, 32)
        assert calls == [("hyperbolic", n_s[0] + n_s[1]),
                         ("fiber", n_s[0] * n_y[0] + n_s[1] * n_y[1]),
                         ("hyperbolic", n_s[2]), ("fiber", n_s[2] * n_y[2])]
        # every growth up to 1 reads the same levels
        cold = list(calls)
        for g in (0.0, 0.5, 1.0):
            try:
                weighted_integral(lambda r, eta: np.cosh(g * r), 4.0, f_growth=g)
            except QuadratureConvergenceError:
                pass
        assert calls == cold

    def test_joint_build_keeps_the_bits(self):
        for t, which in ((0.25, "rep1"), (2.34, "rep2")):
            joint = subelliptic_kernel._density_levels(t, which, (0, 1))
            for level in (0, 1):
                alone = subelliptic_kernel._density_levels(t, which, (level,))[0]
                for a, b in zip(joint[level], alone, strict=True):
                    assert a.shape == b.shape and np.array_equal(a, b), (t, which, level)

    def test_f_gets_a_column_and_a_row(self):
        shapes = []

        def f(r, eta):
            shapes.append((r.shape, eta.shape))
            return np.ones_like(r)

        self.cold(f, 1.2)
        # once per level: r on the (s, y) nodes, and the eta nodes
        n_s, n_y, n_eta = _LEVEL_NODES
        assert len(shapes) >= 2
        assert shapes == [((n_s * n_y * 9 ** level // 4 ** level, 1),
                           (1, n_eta * 3 ** level // 2 ** level))
                          for level in range(len(shapes))]

    @pytest.mark.parametrize("arg", [0, 1])
    def test_f_cannot_write_the_density(self, arg):
        f = lambda r, eta: np.cosh(r / 2.0) * np.cos(eta) ** 2
        want = self.cold(f, self.T, f_growth=0.5)

        def writer(*args):
            args[arg][...] = 0.0
            return f(*args)

        with pytest.raises(ValueError, match="read-only"):
            weighted_integral(writer, self.T, f_growth=0.5)
        assert weighted_integral(f, self.T, f_growth=0.5) == want
        levels = [subelliptic_kernel._level(self.T, "rep1", level)
                  for level in range(_MEASURE_LEVELS)]
        assert len(levels) == _MEASURE_LEVELS
        assert not any(a.flags.writeable for level in levels for a in level)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_integrand_raises_at_once(self, monkeypatch, bad):
        calls = self.count_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite on the level-0 nodes at t = 2.34"):
                self.cold(lambda r, eta: np.full_like(r, bad), 2.34)
        assert [layer for layer, _ in calls] == ["hyperbolic", "fiber"]

    @pytest.mark.parametrize("f", [lambda r, eta: np.exp(1j * eta), lambda r, eta: 1.0 + 0j],
                             ids=["row", "scalar"])
    def test_complex_integrand_raises(self, f):
        # the values were cast to their real part, with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="complex on the level-0 nodes at t = 1.2"):
                weighted_integral(f, 1.2)

    @pytest.mark.parametrize("shape", ["rows", "two_rows", "grid_and_axis"])
    def test_value_that_does_not_broadcast_raises(self, shape):
        # an (n_rows,) vector broadcasts as a row only if n_rows = n_eta, which it never is
        _, _, n_eta = _LEVEL_NODES
        n_rows = _LEVEL_NODES[0] * _LEVEL_NODES[1]
        shape = {"rows": (n_rows,), "two_rows": (2, n_eta),
                 "grid_and_axis": (n_rows, n_eta, 1)}[shape]
        with pytest.raises(ValueError, match=re.escape(f"of shape {shape} does not broadcast "
                                                       f"to {(n_rows, n_eta)}")):
            weighted_integral(lambda r, eta: np.ones(shape), 1.2)

    @pytest.mark.parametrize("growth", [-0.5, 1.5, math.nan, math.inf])
    def test_growth_outside_domain_raises(self, growth):
        with pytest.raises(ValueError, match="f_growth"):
            weighted_integral(lambda r, eta: np.ones_like(r), self.T, f_growth=growth)

    def test_cache_is_bounded(self, monkeypatch):
        built = []  # (t, which, level) and weakrefs to the arrays of every level built
        real = subelliptic_kernel._density_levels

        def recorded(t, which, levels):
            arrays = real(t, which, levels)
            built.extend(((t, which, level), [weakref.ref(a) for a in level_arrays])
                         for level, level_arrays in zip(levels, arrays, strict=True))
            return arrays

        def alive():
            return [key for key, refs in built if any(ref() is not None for ref in refs)]

        monkeypatch.setattr(subelliptic_kernel, "_density_levels", recorded)
        subelliptic_kernel._levels.clear()
        moment = lambda r, eta: np.cosh(r) * np.cos(eta)
        for t, which in ((0.5, "rep1"), (4.0, "rep1"), (0.5, "rep2"), (4.0, "rep2"),
                         (0.7, "rep1")):
            try:  # the moment at t = 4 reaches level 2 and raises
                weighted_integral(moment, t, which=which, f_growth=1.0)
            except QuadratureConvergenceError:
                pass
            assert len(alive()) <= _MEASURE_LEVELS, (t, which)
        assert len(built) == 2 + 3 + 2 + 3 + 2
        # a second cache held (4.0, "rep2")'s level 2 until another key's level 2 was built
        assert alive() == [(0.7, "rep1", 0), (0.7, "rep1", 1)]

    def test_a_new_key_drops_every_array_of_the_old(self, monkeypatch):
        built = []  # (t, levels) and weakrefs to the arrays of every build
        real = subelliptic_kernel._density_levels

        def recorded(t, which, levels):
            arrays = real(t, which, levels)
            built.append(((t, levels), [weakref.ref(a) for level in arrays for a in level]))
            return arrays

        monkeypatch.setattr(subelliptic_kernel, "_density_levels", recorded)
        subelliptic_kernel._levels.clear()
        ones = lambda r, eta: np.ones_like(r)
        weighted_integral(ones, 0.05)  # levels 0 and 1 disagree at t = 0.05: it reads level 2
        weighted_integral(ones, 1.0)
        assert [key for key, _ in built] == [(0.05, (0, 1)), (0.05, (2,)), (1.0, (0, 1))]
        assert all(ref() is None for key, refs in built[:2] for ref in refs)
        assert all(ref() is not None for ref in built[2][1])

    def test_old_levels_are_dropped_before_a_build(self, monkeypatch):
        # functools.lru_cache(maxsize=1) held a key's levels until the next key's were built
        refs, built = {}, []  # per level tuple, weakrefs to the arrays of its last build
        real = subelliptic_kernel._density_levels

        def recorded(t, which, levels):
            assert all(ref() is None for ref in refs.get(levels, ())), (t, which, levels)
            built.append(levels)
            arrays = real(t, which, levels)
            refs[levels] = [weakref.ref(a) for level in arrays for a in level]
            return arrays

        monkeypatch.setattr(subelliptic_kernel, "_density_levels", recorded)
        subelliptic_kernel._levels.clear()
        moment = lambda r, eta: np.cosh(r) * np.cos(eta)
        for t, which in ((4.0, "rep1"), (4.0, "rep2"), (0.5, "rep1"), (4.0, "rep1")):
            try:  # the moment at t = 4 reaches level 2 and raises
                weighted_integral(moment, t, which=which, f_growth=1.0)
            except QuadratureConvergenceError:
                pass
        assert built.count((0, 1)) == 4 and built.count((2,)) >= 3

    def test_clear_empties_the_store(self, monkeypatch):
        built = []
        real = subelliptic_kernel._density_levels

        def recorded(t, which, levels):
            arrays = real(t, which, levels)
            built.append([weakref.ref(a) for level in arrays for a in level])
            return arrays

        monkeypatch.setattr(subelliptic_kernel, "_density_levels", recorded)
        subelliptic_kernel._levels.clear()
        moment = lambda r, eta: np.cosh(r) * np.cos(eta)
        with pytest.raises(QuadratureConvergenceError):  # reaches level 2
            weighted_integral(moment, 4.0, f_growth=1.0)
        assert len(built) == 2 and all(ref() is not None for refs in built for ref in refs)
        subelliptic_kernel._levels.clear()
        assert all(ref() is None for refs in built for ref in refs)
        with pytest.raises(QuadratureConvergenceError):  # the same key is built again
            weighted_integral(moment, 4.0, f_growth=1.0)
        assert len(built) == 4

    def test_threads_share_the_cache(self):
        jobs = [(t, g) for t in (0.5, 0.7) for g in (0.0, 0.5, 1.0)] * 2
        f = lambda g: (lambda r, eta: np.cosh(g * r))
        want = {job: self.cold(f(job[1]), job[0], f_growth=job[1]) for job in set(jobs)}
        subelliptic_kernel._levels.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so that threads miss the same level at once
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(weighted_integral, f(g), t, f_growth=g) for t, g in jobs]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[job] for job in jobs]

    def test_nonconvergence_names_t_which_and_the_last_sums(self):
        moment = lambda r, eta: np.cosh(r) * np.cos(eta)
        for which in ("rep1", "rep2"):
            with pytest.raises(QuadratureConvergenceError) as info:
                weighted_integral(moment, 4.0, which=which, f_growth=1.0)
            match = re.fullmatch(f"the {which} integral at t = 4.0 did not converge: its last "
                                 f"two level sums are (\\S+), (\\S+)", str(info.value))
            assert match, str(info.value)
            last = [float(x) for x in match.groups()]
            assert all(math.isfinite(x) and x > 0.0 for x in last)
            assert abs(last[1] - last[0]) > 1e-6 * abs(last[1])


class TestLevelContractions:
    """Each contraction of a level's factors against the dense sum of f times the weight
    rows @ cols, formed in long double."""

    INTEGRANDS = {"scalar": lambda r, eta: 1.7, "column": lambda r, eta: np.cosh(r / 2.0),
                  "row": lambda r, eta: np.cos(eta),
                  "grid": lambda r, eta: np.cosh(r) * np.cos(eta)}

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    @pytest.mark.parametrize("t", [0.05, 0.25, 1.2, 2.34])
    @pytest.mark.parametrize("shape", sorted(INTEGRANDS))
    def test_contraction_matches_the_dense_sum(self, monkeypatch, t, which, shape):
        f = self.INTEGRANDS[shape]
        for level in (0, 1):
            arrays = subelliptic_kernel._level(t, which, level)
            r, etas, rows, cols = arrays[:4]
            terms = (np.broadcast_to(f(r, etas), (r.size, etas.size)).astype(np.longdouble)
                     * (rows.astype(np.longdouble) @ cols.astype(np.longdouble)))
            want, scale = MEASURE_CONSTANT * terms.sum(), MEASURE_CONSTANT * abs(terms).sum()
            # levels 0 and 1 are this one, so the integral returns its sum at the second level
            monkeypatch.setattr(subelliptic_kernel, "_level", lambda *args: arrays)
            got = weighted_integral(f, t, which=which, f_growth=1.0)
            monkeypatch.undo()
            # measured worst: 4.0e-16 (scalar), 2.0e-16 (column), 1.4e-16 (row) and
            # 9.8e-16 (grid) of the sum of |f| times |weight|
            assert abs(got - float(want)) <= 2e-15 * float(scale), (level, got, float(want))


class TestComposedDistanceRule:
    """The (s, y) rule of the measure integrals against closed forms and recorded values."""

    def test_rep1_mass_closed_form(self):
        # rep 1's mass has inner integral (16/3003) sinh^14 s, so the mass is
        # MEASURE_CONSTANT (16/3003) / Omega_14 times the normalization of q15
        y, w = gl_nodes(_LEVEL_NODES[1], 0.0, 1.0)
        assert abs(np.sum(w * y ** 6 * (1.0 - y * y) ** 3) - 16.0 / 3003.0) <= 1e-15
        omega_14 = 2.0 * PI ** 7.5 / math.gamma(7.5)
        assert MEASURE_CONSTANT * 16.0 / 3003.0 / omega_14 == pytest.approx(1.0 / 32.0,
                                                                           rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    @pytest.mark.parametrize("t", [0.05, 0.25, 0.5, 1.0, 2.0, 2.34])
    def test_mass_and_eigen_moment_exact(self, t, which):
        with np.errstate(over="raise", invalid="raise"):
            mass = total_mass(t, which=which)
            moment = weighted_integral(lambda r, eta: np.cosh(r) * np.cos(eta), t, which=which,
                                       f_growth=1.0)
        assert abs(32.0 * mass - 1.0) <= 1e-12
        assert abs(moment / mass - math.exp(8.0 * t)) <= 1e-8 * math.exp(8.0 * t)

    # The values of the 2-d (r, eta) density that this rule replaced, to 12 digits: the
    # integrals of the density_integrals benchmark and criterion 08's analytic means.
    RECORDED = {
        (0.25, "mass"): 0.03125, (0.25, "moment"): 0.230908003092,
        (0.25, "cos_eta"): 0.00780706624551, (0.25, "cosh_half_r"): 0.117777613037,
        (0.25, "sech_half_r"): 0.00919181683138,
        (1.2, "mass"): 0.03125, (1.2, "moment"): 461.399423924,
        (1.2, "cos_eta"): 1.01158329278e-05, (1.2, "cosh_half_r"): 113.092855744,
        (1.2, "sech_half_r"): 1.55608450417e-05, (1.2, "mass_rep2"): 0.03125,
        (2.34, "mass"): 0.03125, (2.34, "moment"): 4215438.13664,
        (2.34, "cos_eta"): 3.46203681998e-09, (2.34, "cosh_half_r"): 439419.219859,
        (2.34, "sech_half_r"): 7.0816962714e-09,
        (2.6, "mass"): 0.0312499999988,
    }
    RECORDED_MEANS = {
        (0.5, "cos_eta"): 0.0434703514267, (0.5, "cosh_half_r"): 22.6365356238,
        (0.5, "sech_half_r"): 0.0560442052608,
        (1.0, "cos_eta"): 0.00131269521128, (1.0, "cosh_half_r"): 848.903611099,
        (1.0, "sech_half_r"): 0.00192078668953,
    }

    @pytest.mark.parametrize("t, name", sorted(RECORDED))
    def test_recorded_integrals(self, t, name):
        integrands = {"mass": (lambda r, eta: np.ones_like(r), 0.0),
                      "moment": (lambda r, eta: np.cosh(r) * np.cos(eta), 1.0),
                      **{n: (f, g) for n, f, g in MC_TEST_FUNCTIONS}}
        f, growth = integrands[name.removesuffix("_rep2")]
        which = "rep2" if name.endswith("_rep2") else "rep1"
        value = weighted_integral(f, t, which=which, f_growth=growth)
        assert value == pytest.approx(self.RECORDED[t, name], rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("t, name", sorted(RECORDED_MEANS))
    def test_recorded_means(self, t, name):
        f, growth = {n: (f, g) for n, f, g in MC_TEST_FUNCTIONS}[name]
        mean = weighted_integral(f, t, f_growth=growth) / total_mass(t)
        assert mean == pytest.approx(self.RECORDED_MEANS[t, name], rel=1e-8, abs=0.0)


class TestLargeTime:
    """The density formed as one exp of a sum of logs: q15 alone underflowed past s = 51,
    before sinh^14 s was multiplied in, and the integrals raised or returned 0.0."""

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    @pytest.mark.parametrize("t", [2.6, 3.0, 4.0, 6.0, 10.0])
    def test_mass_exact(self, t, which):
        # rep 1 raised at t >= 3, and rep 2 at t >= 6
        with np.errstate(over="raise", invalid="raise"):
            mass = total_mass(t, which=which)
        assert abs(32.0 * mass - 1.0) <= 1e-12

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    @pytest.mark.parametrize("t", [2.6, 3.0])
    def test_eigen_moment(self, t, which):
        # rep 1's moment raised at both
        with np.errstate(over="raise", invalid="raise"):
            mass = total_mass(t, which=which)
            moment = weighted_integral(lambda r, eta: np.cosh(r) * np.cos(eta), t, which=which,
                                       f_growth=1.0)
        assert abs(moment / mass - math.exp(8.0 * t)) <= 1e-6 * math.exp(8.0 * t)

    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    @pytest.mark.parametrize("t", [15.0, 20.0, 30.0, 45.0, 100.0])
    def test_mass_is_exact_or_refused(self, t, which):
        # the mass was 0.0 at t = 15, 20 and 30 (rep 1) and 30 (rep 2), and at t = 45 and 100
        # np.sinh overflowed with a RuntimeWarning; `octads mass --t 15` died in a
        # ZeroDivisionError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                mass = total_mass(t, which=which)
            except (ValueError, SeriesConvergenceError, QuadratureConvergenceError):
                return
        assert abs(32.0 * mass - 1.0) <= 1e-12

    def test_refusal_past_the_range(self):
        # both refuse only past t = 40.3, where the s cutoff passes 709
        for t, which in itertools.product([45.0, 100.0], ["rep1", "rep2"]):
            with pytest.raises(ValueError, match="leaves double range"):
                total_mass(t, which=which)

    @pytest.mark.parametrize("t", [21.5, 25.0, 30.0, 40.0])
    def test_rep2_mass_up_to_the_range(self, t):
        # refused from t = 21.5 while e^(33 t) and e^(-33 t) were formed apart
        with np.errstate(over="raise", invalid="raise"):
            mass = total_mass(t, which="rep2")
        assert abs(32.0 * mass - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_zero_or_nonfinite_level_raises(self, monkeypatch, bad):
        # a level whose weight underflowed to 0 summed to a silent 0.0; every contraction of the
        # factors (scalar, column, row and grid) reads a spoiled level as one
        real = subelliptic_kernel._level

        def spoiled(*args):
            r, etas, rows, cols, radial, angular = real(*args)
            return (r, etas, *(np.full_like(a, bad) for a in (rows, cols, radial, angular)))

        monkeypatch.setattr(subelliptic_kernel, "_level", spoiled)
        for f in TestLevelContractions.INTEGRANDS.values():
            with pytest.raises(QuadratureConvergenceError, match="level-0 sum"):
                weighted_integral(f, 1.2, f_growth=1.0)
        if bad == 0.0:  # where f is 0 on every node, 0 is the exact value and no failure
            assert weighted_integral(lambda r, eta: np.zeros_like(r), 1.2) == 0.0

    def test_underflowed_level_raises(self, monkeypatch):
        # a kernel that underflows on every node builds levels with no nonzero mode, and each
        # contraction of them sums to 0, which the integral refuses
        monkeypatch.setattr(subelliptic_kernel, "_log_kernel",
                            lambda n, t, s: np.full(np.shape(s), -np.inf))
        subelliptic_kernel._levels.clear()
        try:
            for f in TestLevelContractions.INTEGRANDS.values():
                with pytest.raises(QuadratureConvergenceError, match="level-0 sum is 0.0"):
                    weighted_integral(f, 1.2, f_growth=1.0)
            for level in (0, 1):
                _, _, rows, cols, radial, angular = subelliptic_kernel._level(1.2, "rep1", level)
                assert rows.shape[1] == cols.shape[0] == 1
                assert not (rows.any() or radial.any() or angular.any())
        finally:
            subelliptic_kernel._levels.clear()
