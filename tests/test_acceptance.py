"""Acceptance suite: one test per shipped criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
metrics; every tolerance is fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from octads.fiber_kernel import fiber_heat_kernel, fiber_mode_profile
from octads.hyperbolic_kernel import hyperbolic_heat_kernel
from octads.mc_oracle import MC_TEST_FUNCTIONS, SdeConfig, estimate_expectation, simulate_paths
from octads.octonion import GENERATOR_TRIPLES, CylCoord, Octonion, cyl_to_ads, oct_mul, pseudo_norm
from octads.special_fn import (
    gl_nodes,
    hyp2f1_terminating,
    jacobi_end_value,
    jacobi_norm_sq,
    jacobi_sequence,
)
from octads.subelliptic_kernel import (
    heat_kernel_rep1,
    heat_kernel_rep2,
    heat_residual,
    total_mass,
    weighted_integral,
)

GRID_T = (0.5, 1.0, 2.0)
GRID_R = (0.0, 0.5, 1.0, 2.0)
GRID_ETA = (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0)


def _verdict(num, ok, summary):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {summary}"
    print(line)
    assert ok, line


def test_criterion_01_cross_representation_agreement():
    start = time.time()
    worst = 0.0
    for t in GRID_T:
        for r in GRID_R:
            for eta in GRID_ETA:
                k1 = heat_kernel_rep1(t, r, eta)
                k2 = heat_kernel_rep2(t, r, eta)
                worst = max(worst, abs(k1.value - k2.value) / abs(k2.value))
    elapsed = time.time() - start
    _verdict(1, worst <= 1e-6 and elapsed <= 120.0,
             f"max rel diff {worst:.3e} (tol 1e-6) over 48 points in {elapsed:.1f}s (limit 120s)")


def test_criterion_02_rep2_internal_path_agreement():
    worst = 0.0
    for t in GRID_T:
        for r in GRID_R:
            for eta in GRID_ETA:
                a = heat_kernel_rep2(t, r, eta, path="direct_2d")
                b = heat_kernel_rep2(t, r, eta, path="mode_series")
                worst = max(worst, abs(a.value - b.value) / abs(b.value))
    _verdict(2, worst <= 1e-8, f"max rel diff between rep-2 paths {worst:.3e} (tol 1e-8)")


def test_criterion_03_heat_equation_residual():
    worst_ratio = 0.0
    for which in ("rep1", "rep2"):
        for r in (0.5, 1.0):
            for eta in (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0):
                res, scale, p = heat_residual(which, 1.0, r, eta)
                worst_ratio = max(worst_ratio, res / (1e-4 * scale + 1e-8 * p))
    _verdict(3, worst_ratio <= 1.0,
             f"worst residual/(1e-4|dp/dt| + 1e-8 p) = {worst_ratio:.3e} over 12 cases")


def test_criterion_04_chebyshev_identity():
    worst = 0.0
    for m in range(31):
        for u in np.linspace(0.0, 5.0, 100):
            ref = math.cosh((m + 3) * u)
            worst = max(worst, abs(hyp2f1_terminating(m, math.cosh(u)) - ref) / ref)
    _verdict(4, worst <= 1e-10, f"max rel error {worst:.3e} for m <= 30, u in [0, 5] (tol 1e-10)")


def test_criterion_05_orthogonality_and_normalization():
    u, w = gl_nodes(200, 0.0, math.pi)
    pm = jacobi_sequence(10, np.cos(u))
    weight = w * np.sin(u) ** 6
    worst_offdiag = worst_diag = 0.0
    for m in range(11):
        nm = jacobi_norm_sq(m)
        for n in range(11):
            integral = float(np.einsum("i,i,i->", pm[m], pm[n], weight))
            if m == n:
                worst_diag = max(worst_diag, abs(integral - nm) / nm)
            else:
                worst_offdiag = max(worst_offdiag, abs(integral) / nm)
    worst_norm = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        for eta in (0.0, math.pi / 4.0, math.pi / 2.0):
            vals = np.array([fiber_heat_kernel(t, eta, float(ui)).value for ui in u])
            worst_norm = max(worst_norm, abs(float(np.dot(w, vals * np.sin(u) ** 6)) - 1.0))
    ok = worst_offdiag <= 1e-8 and worst_diag <= 1e-8 and worst_norm <= 1e-8
    _verdict(5, ok, f"orthogonality offdiag {worst_offdiag:.3e}, diag {worst_diag:.3e}, "
                    f"kernel normalization {worst_norm:.3e} (tol 1e-8)")


def test_criterion_06_hyperbolic_kernels():
    worst_norm = 0.0
    for n in (9, 15):
        omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        for t in GRID_T:
            s_max = (n - 1) * t + 12.0 * math.sqrt(t) + 5.0
            s, w = gl_nodes(1200, 1e-9, s_max)
            q = hyperbolic_heat_kernel(n, t, s)
            worst_norm = max(worst_norm,
                             abs(float(np.dot(w, q * omega * np.sinh(s) ** (n - 1))) - 1.0))

    worst_pde = 0.0
    for n in (9, 15):
        for t in GRID_T:
            for s in (0.5, 1.0, 2.0):
                h_t, h_s = 1e-3 * t, 1e-3

                def ddt(h):
                    return (hyperbolic_heat_kernel(n, t + h, s)
                            - hyperbolic_heat_kernel(n, t - h, s)) / (2.0 * h)

                c, f = ddt(h_t), ddt(h_t / 2.0)
                dt_val = f + (f - c) / 3.0

                def lap(h):
                    vp = hyperbolic_heat_kernel(n, t, s + h)
                    v0 = hyperbolic_heat_kernel(n, t, s)
                    vm = hyperbolic_heat_kernel(n, t, s - h)
                    return ((vp - 2.0 * v0 + vm) / h ** 2
                            + (n - 1.0) / math.tanh(s) * (vp - vm) / (2.0 * h))

                c, f = lap(h_s), lap(h_s / 2.0)
                q = hyperbolic_heat_kernel(n, t, s)
                worst_pde = max(worst_pde,
                                abs(dt_val - (f + (f - c) / 3.0)) / (abs(dt_val) + 1e-5 * q))

    worst_n3 = 0.0
    for t in GRID_T:
        for s in (1e-8, 0.3, 1.0, 2.5, 5.0):
            ref = (math.exp(-t) / (4.0 * math.pi * t) ** 1.5
                   * (s / math.sinh(s)) * math.exp(-s * s / (4.0 * t)))
            worst_n3 = max(worst_n3, abs(hyperbolic_heat_kernel(3, t, s) - ref) / ref)

    ok = worst_norm <= 1e-6 and worst_pde <= 1e-5 and worst_n3 <= 1e-12
    _verdict(6, ok, f"normalization {worst_norm:.3e} (1e-6), pde residual {worst_pde:.3e} (1e-5), "
                    f"3-dim closed form {worst_n3:.3e} (1e-12)")


def test_criterion_07_measure_and_moment_identities():
    masses = {t: total_mass(t) for t in GRID_T}
    drift = max(abs(m / masses[GRID_T[0]] - 1.0) for m in masses.values())
    worst_moment = 0.0
    for t in GRID_T:
        mom = weighted_integral(lambda r, eta: np.cosh(r) * np.cos(eta), t, f_growth=1.0)
        worst_moment = max(worst_moment,
                           abs(mom / masses[t] - math.exp(8.0 * t)) / math.exp(8.0 * t))
    ok = drift <= 1e-5 and worst_moment <= 1e-4
    _verdict(7, ok, f"mass drift {drift:.3e} (1e-5), mass {masses[GRID_T[0]]:.10f} "
                    f"(= 1/32 under the shipped measure constant), "
                    f"eigen-moment rel err {worst_moment:.3e} (1e-4)")


def test_criterion_08_monte_carlo_oracle():
    start = time.time()
    times = (0.5, 1.0)
    cfg = SdeConfig(n_paths=100_000, dt=1e-4, seed=0, t_end=times[-1])
    sets = simulate_paths(cfg, snapshot_times=times[:-1])
    by_time = {round(s.time, 10): s for s in sets}
    worst_z = 0.0
    details = []
    for t in times:
        samples = by_time[round(t, 10)]
        mass = total_mass(t)
        for name, func, growth in MC_TEST_FUNCTIONS:
            mean, stderr = estimate_expectation(func, cfg, samples=samples)
            analytic = weighted_integral(func, t, f_growth=growth) / mass
            z = abs(mean - analytic) / stderr
            worst_z = max(worst_z, z)
            details.append(f"{name}@{t:g}:z={z:.2f}")
    elapsed = time.time() - start
    ok = worst_z <= 3.0 and elapsed <= 300.0
    _verdict(8, ok, f"max |z| = {worst_z:.2f} (limit 3) [{', '.join(details)}] "
                    f"in {elapsed:.0f}s (limit 300s)")


def test_criterion_09_mode_profile_identity():
    etas = np.linspace(0.0, math.pi, 61)
    worst = 0.0
    for m in range(16):
        pm = jacobi_sequence(m, np.cos(etas))[m]
        p1 = jacobi_end_value(m)
        for eta, val in zip(etas, pm):
            worst = max(worst, abs(fiber_mode_profile(m, float(eta)) - val / p1))
    _verdict(9, worst <= 1e-10, f"max |profile - polynomial ratio| = {worst:.3e} (tol 1e-10)")


def test_criterion_10_octonion_algebra():
    rng = np.random.default_rng(1234)
    worst_norm = worst_alt = 0.0
    for _ in range(1000):
        a = Octonion(rng.standard_normal(8))
        b = Octonion(rng.standard_normal(8))
        ab = oct_mul(a, b)
        worst_norm = max(worst_norm, abs(ab.norm() - a.norm() * b.norm()) / (a.norm() * b.norm()))
        scale = max(1.0, a.norm_sq() * b.norm())
        left = oct_mul(a, oct_mul(a, b)) - oct_mul(oct_mul(a, a), b)
        right = oct_mul(oct_mul(b, a), a) - oct_mul(b, oct_mul(a, a))
        worst_alt = max(worst_alt, float(np.max(np.abs(left.coeffs))) / scale,
                        float(np.max(np.abs(right.coeffs))) / scale)

    triples_ok = all(
        np.array_equal(oct_mul(Octonion.basis(i), Octonion.basis(j)).coeffs,
                       Octonion.basis(k).coeffs)
        for (i, j, k) in GENERATOR_TRIPLES
    )

    worst_quadric = 0.0
    for _ in range(200):
        w = Octonion(rng.standard_normal(8) * 0.25)
        if w.norm() >= 0.999:
            continue
        p = cyl_to_ads(CylCoord(w=w, theta=rng.standard_normal(7) * 0.35))
        worst_quadric = max(worst_quadric,
                            abs(pseudo_norm(p.x, p.y) + 1.0) / max(1.0, p.y.norm_sq()))

    ok = worst_norm <= 1e-12 and worst_alt <= 1e-12 and triples_ok and worst_quadric <= 1e-12
    _verdict(10, ok, f"norm mult {worst_norm:.3e}, alternativity {worst_alt:.3e} (tol 1e-12), "
                     f"triples {'ok' if triples_ok else 'BAD'}, quadric {worst_quadric:.3e}")
