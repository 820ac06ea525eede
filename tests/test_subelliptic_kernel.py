import math
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from octads import subelliptic_kernel
from octads.fiber_kernel import fiber_heat_kernel
from octads.hyperbolic_kernel import hyperbolic_heat_kernel
from octads.subelliptic_kernel import (
    KernelPoint,
    KernelRangeError,
    MEASURE_N_U,
    MIN_TIME,
    QuadratureConvergenceError,
    REP2_CONSTANT,
    _MEASURE_LEVELS,
    _density_level,
    _measure_u_max,
    _rep1_grid,
    _rep2_grid,
    apply_radial_sublaplacian,
    default_u_max,
    frozen_kernel,
    heat_kernel_rep1,
    heat_kernel_rep2,
    heat_residual,
    total_mass,
    weighted_integral,
)

PI = math.pi


class TestGenerator:
    def test_eigenfunction_cosh_cos(self):
        f = lambda r, eta: math.cosh(r) * math.cos(eta)
        for (r, eta) in [(0.5, 1.0), (1.3, 2.1), (2.0, 0.4)]:
            val = apply_radial_sublaplacian(f, r, eta)
            assert val == pytest.approx(8.0 * f(r, eta), rel=1e-6, abs=0)

    def test_constant(self):
        val = apply_radial_sublaplacian(lambda r, eta: 1.0, 1.0, 1.0)
        assert abs(val) <= 1e-9

    def test_fiber_eigenfunction(self):
        f = lambda r, eta: math.cos(eta)
        for (r, eta) in [(0.7, 0.9), (1.5, 2.2)]:
            val = apply_radial_sublaplacian(f, r, eta)
            assert val == pytest.approx(-7.0 * math.tanh(r) ** 2 * math.cos(eta), rel=1e-6, abs=0)

    def test_boundary_strips_rejected(self):
        with pytest.raises(ValueError):
            apply_radial_sublaplacian(lambda r, eta: 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            apply_radial_sublaplacian(lambda r, eta: 1.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            apply_radial_sublaplacian(lambda r, eta: 1.0, 1.0, PI - 0.05)


class TestRepresentations:
    # kernel values here are 1e-15 to 1e-50, so every approx sets abs=0.0:
    # pytest's default abs=1e-12 would accept any value
    def test_cross_agreement_spot(self):
        for (t, r, eta) in [(1.0, 0.0, 0.0), (0.5, 0.5, 3.0), (2.0, 1.0, PI / 2.0)]:
            k1 = heat_kernel_rep1(t, r, eta)
            k2 = heat_kernel_rep2(t, r, eta)
            assert k1.value == pytest.approx(k2.value, rel=1e-6, abs=0.0)

    def test_rep2_paths_agree(self):
        for (t, r, eta) in [(1.0, 0.5, PI / 4.0), (0.5, 2.0, 2.9)]:
            a = heat_kernel_rep2(t, r, eta, path="direct_2d")
            b = heat_kernel_rep2(t, r, eta, path="mode_series")
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
        with pytest.raises(ValueError):
            heat_kernel_rep1(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            heat_kernel_rep1(1.0, -0.5, 0.0)
        with pytest.raises(ValueError):
            heat_kernel_rep1(1.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            heat_kernel_rep2(1.0, 0.0, 0.0, path="nope")
        with pytest.raises(ValueError):
            KernelPoint(1.0, 0.0, -0.1)

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
            with pytest.raises(ValueError, match="below the supported minimum"):
                rep(0.02, 0.5, 0.3)
        with pytest.raises(ValueError, match="below the supported minimum"):
            total_mass(0.02)
        assert heat_kernel_rep2(MIN_TIME, 0.5, 0.3).value > 0

    def test_underflow_raises(self):
        # at t = 16 the kernel underflows to exactly 0.0 on every route
        for rep, kwargs in ((heat_kernel_rep1, {}), (heat_kernel_rep2, {}),
                            (heat_kernel_rep2, {"path": "direct_2d"})):
            with pytest.raises(KernelRangeError, match="is 0.0") as info:
                rep(16.0, 0.0, 0.0, **kwargs)
            assert isinstance(info.value, ArithmeticError)
            assert info.value.result.value == 0.0

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(subelliptic_kernel, "POINT_TOL", 1e-300)
        monkeypatch.setattr(subelliptic_kernel, "POINT_N_U", 16)
        with pytest.raises(QuadratureConvergenceError):
            heat_kernel_rep1(1.0, 0.5, 1.0)

    @pytest.mark.parametrize("point, match", [
        # the tail bound exp(b u_max - rate t) overflowed: OverflowError
        ((0.05, 2.0, PI), "degree"),
        ((0.07, 2.0, 2.0 * PI / 3.0), "degree"),
        # the angular integral kept an imaginary part: AssertionError
        ((0.05, 0.0, 2.0 * PI / 3.0), "imaginary residue"),
    ])
    def test_direct_2d_failure_is_a_convergence_error(self, point, match):
        with pytest.raises(QuadratureConvergenceError, match=match):
            heat_kernel_rep2(*point, path="direct_2d")

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
    """Points, frozen stencils and density grids all go through _rep1_grid/_rep2_grid."""

    T = 2.34
    N_U = 192

    @pytest.mark.parametrize("grid", [_rep1_grid, _rep2_grid])
    def test_blocked_rows_match_single_rows(self, grid):
        # r up to the r_max of the mass integral at T; rows span three node blocks
        r_max = 14.0 * self.T + 10.0 * math.sqrt(self.T) + 2.0
        per_block = subelliptic_kernel._BLOCK_NODES // self.N_U
        rs = np.linspace(0.0, r_max, 2 * per_block + 7)
        etas = np.array([0.0, 1.0, PI])
        u_max = _measure_u_max(self.T)
        values, _ = grid(self.T, rs, etas, self.N_U, u_max)
        assert np.all(values[rs < 40.0] > 0)
        # the last rows are subnormal (~1e-318), where 1e-13 relative is below one ulp
        floor = 1e-13 * np.finfo(float).tiny
        for r, row in zip(rs, values):
            alone, _ = grid(self.T, [r], etas, self.N_U, u_max)
            np.testing.assert_allclose(row, alone[0], rtol=1e-13, atol=floor)

    def test_rep2_rows_stop_on_their_own(self):
        # the measure weight sinh^7 cosh^7 is ~e^280 at r = 20, where the kernel
        # is ~1e-230 times its r = 0 value; a stopping rule that measured the
        # r = 20 terms against the whole grid would end that row at degree 4
        # instead of 10 (1.4e-4 off)
        t = 0.25
        u_max = _measure_u_max(t)
        both, _ = _rep2_grid(t, [0.0, 20.0], [0.5], self.N_U, u_max)
        alone, _ = _rep2_grid(t, [20.0], [0.5], self.N_U, u_max)
        assert alone[0, 0] > 0
        assert both[1, 0] == pytest.approx(alone[0, 0], rel=1e-13, abs=0.0)


class TestHeatResidual:
    @pytest.mark.parametrize("which", ["rep1", "rep2"])
    def test_residual_small(self, which):
        res, scale, p = heat_residual(which, 1.0, 0.5, PI / 2.0)
        assert res <= 1e-4 * scale + 1e-8 * p

    def test_residual_decreases_under_refinement(self):
        res_h, _, p = heat_residual("rep1", 1.0, 0.7, 1.2, h_r=4e-3, h_eta=4e-3, h_t_rel=4e-3)
        res_h2 = heat_residual("rep1", 1.0, 0.7, 1.2, h_r=2e-3, h_eta=2e-3, h_t_rel=2e-3)[0]
        # Richardson leaves 4th order; allow slack for roundoff-dominated
        # values, measured against the kernel (p is ~1e-26 here)
        assert res_h2 <= res_h * 0.5 or res_h2 <= 1e-8 * p

    def test_interior_enforced(self):
        with pytest.raises(ValueError):
            heat_residual("rep1", 1.0, 0.05, 1.0)

    def test_each_stencil_point_evaluated_once(self, monkeypatch):
        # the centre, 4 points in time and 8 in space; 24 grid calls before caching the
        # centre, and 14 while a degree probe froze the series
        calls = []
        real = subelliptic_kernel._rep2_grid

        def grid(*args, **kwargs):
            calls.append(args[:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(subelliptic_kernel, "_rep2_grid", grid)
        heat_residual("rep2", 1.0, 0.5, PI / 2.0)
        assert len(calls) == 13

    @pytest.mark.parametrize("eta", [PI / 4.0, PI / 2.0])
    def test_frozen_evaluator_past_the_old_margin(self, eta):
        # a series summed to a frozen degree 8 past the probe overflowed P_m(cosh u_max)
        # at degrees 67-73 here, though the kernel itself evaluates
        res, scale, p = heat_residual("rep1", 0.1, 1.0, eta)
        assert res <= 1e-4 * scale + 1e-8 * p

    def test_frozen_matches_adaptive(self):
        p = frozen_kernel("rep1", 1.0, 0.5, 1.0)
        adaptive = heat_kernel_rep1(1.0, 0.5, 1.0).value
        assert p(1.0, 0.5, 1.0) == pytest.approx(adaptive, rel=1e-9, abs=0.0)


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
        # r_max = 54.5 here; (sinh r cosh r)^7 alone is inf beyond r = 51.4
        with np.errstate(over="raise", invalid="raise"):
            mass = total_mass(2.6)
        assert abs(32.0 * mass - 1.0) <= 1e-5

    def test_moment_where_the_radial_measure_overflows(self):
        t = 2.34  # r_max = 54.7 for an integrand growing like exp(r)
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
    """weighted_integral evaluates each level of the density of a (t, which) once, through
    _density_level's cache, and reads prefixes of it."""

    T = 0.5

    @staticmethod
    def cold(f, t, **kwargs):
        _density_level.cache_clear()
        return weighted_integral(f, t, **kwargs)

    @staticmethod
    def count_rows(monkeypatch):
        """(n_u, rows) of every _rep1_grid call from now on."""
        calls = []
        real = subelliptic_kernel._rep1_grid

        def grid(*args, **kwargs):
            calls.append((args[3], len(args[1])))
            return real(*args, **kwargs)

        monkeypatch.setattr(subelliptic_kernel, "_rep1_grid", grid)
        return calls

    def test_history_independent(self):
        f = lambda r, eta: np.cosh(r / 2.0) * np.cos(eta) ** 2
        want = self.cold(f, self.T, f_growth=0.5)
        for before in (dict(t=self.T, f_growth=1.0), dict(t=0.7), dict(t=self.T, which="rep2")):
            self.cold(lambda r, eta: np.cosh(r), **before)
            assert weighted_integral(f, self.T, f_growth=0.5) == want

    def test_one_grid_call_per_level(self, monkeypatch):
        t = 1.2  # the mass needs 15 panels, growth 1 needs 17
        calls = self.count_rows(monkeypatch)
        self.cold(lambda r, eta: np.ones_like(r), t)
        # one call per level, each over the 17 panels of growth 1, with 20 * 2^L nodes each
        n_u = (MEASURE_N_U, MEASURE_N_U * 3 // 2, MEASURE_N_U * 9 // 4)
        assert len(calls) >= 2
        assert calls == [(n_u[level], 17 * (20 << level)) for level in range(len(calls))]
        # every growth up to 1 reads a prefix of those rows
        cold = list(calls)
        for g in (0.0, 0.5, 1.0):
            weighted_integral(lambda r, eta: np.cosh(g * r), t, f_growth=g)
        assert calls == cold

    def test_f_gets_a_column_and_a_row(self):
        shapes = []

        def f(r, eta):
            shapes.append((r.shape, eta.shape))
            return np.ones_like(r)

        self.cold(f, 1.2)
        # once per level: the 15 panels of growth 0 at 20 * 2^L nodes, and 96 * 2^L etas
        assert len(shapes) >= 2
        assert shapes == [((15 * (20 << level), 1), (1, 96 << level))
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_integrand_raises_at_once(self, monkeypatch, bad):
        calls = self.count_rows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite on the level-0 nodes at t = 2.34"):
                self.cold(lambda r, eta: np.full_like(r, bad), 2.34)
        assert len(calls) == 1

    @pytest.mark.parametrize("growth", [-0.5, 1.5, math.nan, math.inf])
    def test_growth_outside_domain_raises(self, growth):
        with pytest.raises(ValueError, match="f_growth"):
            weighted_integral(lambda r, eta: np.ones_like(r), self.T, f_growth=growth)

    def test_cache_is_bounded(self):
        _density_level.cache_clear()
        total_mass(0.5)
        first = weakref.ref(_density_level(0.5, "rep1", 0)[-1])  # the rows of level 0
        assert _density_level.cache_info().currsize <= _MEASURE_LEVELS
        for t, which in ((0.5, "rep2"), (0.7, "rep1")):
            total_mass(t, which=which)
            assert _density_level.cache_info().currsize <= _MEASURE_LEVELS
        assert first() is None

    def test_threads_share_the_cache(self):
        jobs = [(t, g) for t in (0.5, 0.7) for g in (0.0, 0.5, 1.0)] * 2
        f = lambda g: (lambda r, eta: np.cosh(g * r))
        want = {job: self.cold(f(job[1]), job[0], f_growth=job[1]) for job in set(jobs)}
        _density_level.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so that threads miss the same level at once
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(weighted_integral, f(g), t, f_growth=g) for t, g in jobs]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[job] for job in jobs]
