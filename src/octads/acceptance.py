"""The acceptance checks, each written once.

Every check compares the package against an independent route (the other representation,
the heat equation, an exact identity or the Monte Carlo oracle) and returns rows, each with
a `status` of "pass" or "fail".  Its parameters are the options of its CLI command: the grid
and the sample it runs on, defaulting to the gate's, which tests/test_acceptance.py runs.
Its tolerance is fixed, in its body or a module constant, so the CLI applies the gate's.
point_rows, fiber_values and hyperbolic_values, the rows of eval, fiber and hyperbolic,
have no status.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import octonion as oct
from .fiber_kernel import (SeriesConvergenceError, _check_fiber_args, _fiber_coeff,
                           _series_matrix, fiber_heat_kernel, fiber_mode_profile)
from .hyperbolic_kernel import _log_kernel, _log_sinh, hyperbolic_heat_kernel
from .mc_oracle import MC_TEST_FUNCTIONS, SdeConfig, estimate_expectation, simulate_paths
from .special_fn import (gl_nodes, hyp2f1_terminating, jacobi_end_value, jacobi_norm_sq,
                         jacobi_sequence)
from .subelliptic_kernel import (KernelRangeError, _check_time, _rep2_direct, heat_kernel_rep1,
                                 heat_kernel_rep2, heat_residual, total_mass, usable,
                                 weighted_integral)

GRID_T = (0.5, 1.0, 2.0)
GRID_R = (0.0, 0.5, 1.0, 2.0)
GRID_ETA = (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0)
# Gauss-Legendre nodes on [0, pi] and the tolerance of both halves of criterion 05, and the
# (t, eta) grid of its second half
_FIBER_NODES, _FIBER_TOL = 200, 1e-8
_FIBER_T, _FIBER_ETA = (0.1, 0.5, 1.0, 2.0), (0.0, math.pi / 4.0, math.pi / 2.0)
_HYPERBOLIC_S = (0.5, 1.0, 2.0)
# the largest relative difference of criterion 01's two representations and of criterion
# 02's two rep-2 paths
_REPS_TOL, _PATHS_TOL = 1e-6, 1e-8


def _row(good: bool, **fields) -> dict:
    """A check row: its fields, then its pass/fail status."""
    return {**fields, "status": "pass" if good else "fail"}


def _rel_diff(a: float, b: float) -> float:
    """|a - b| / |b|, or inf when either side is not usable, so it never agrees."""
    return abs(a - b) / abs(b) if usable(a) and usable(b) else math.inf


def _evaluate(kernel, *args):
    """The kernel's result, or the unusable one it refused, for its row."""
    try:
        return kernel(*args)
    except KernelRangeError as exc:
        return exc.result


def point_rows(t=(1.0,), r=GRID_R, eta=GRID_ETA, rep="both"):
    """Kernel values on the grid t x r x eta: one representation, or both and their difference."""
    if rep not in ("1", "2", "both"):
        raise ValueError(f"unknown representation {rep!r}")
    rows = []
    for tt, rr, ee in itertools.product(t, r, eta):
        row = {"t": tt, "r": rr, "eta": ee}
        k1 = _evaluate(heat_kernel_rep1, tt, rr, ee) if rep != "2" else None
        k2 = _evaluate(heat_kernel_rep2, tt, rr, ee) if rep != "1" else None
        if rep != "both":
            k = k1 if rep == "1" else k2
            row.update(value=k.value, est_error=k.est_error, m_used=k.m_used,
                       u_max_used=k.u_max_used)
        else:
            row.update(p_rep1=k1.value, p_rep1_err=k1.est_error, m_used=k1.m_used,
                       u_max_used=k1.u_max_used, p_rep2=k2.value, p_rep2_err=k2.est_error,
                       rel_diff=_rel_diff(k1.value, k2.value))
        rows.append(row)
    return rows


def representation_agreement(t=GRID_T, r=GRID_R, eta=GRID_ETA):
    """Criterion 01: representation 1 against representation 2."""
    return [_row(row["rel_diff"] <= _REPS_TOL, **row) for row in point_rows(t, r, eta, "both")]


def rep2_path_agreement(t=GRID_T, r=GRID_R, eta=GRID_ETA):
    """Criterion 02: representation 2's direct 2-d quadrature against its mode series."""
    rows = []
    for tt, rr, ee in itertools.product(t, r, eta):
        a = _evaluate(_rep2_direct, tt, rr, ee)
        b = _evaluate(heat_kernel_rep2, tt, rr, ee)
        diff = _rel_diff(a.value, b.value)
        rows.append(_row(diff <= _PATHS_TOL, t=tt, r=rr, eta=ee, direct_2d=a.value,
                         mode_series=b.value, rel_diff=diff))
    return rows


def heat_equation_residual(t=(1.0,), r=(0.5, 1.0),
                           eta=(math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0),
                           which="both"):
    """Criterion 03: |dp/dt - L p| <= 1e-4 |dp/dt| + 1e-8 p on the grid t x r x eta.

    The floor scales with p, 1e-15 to 1e-50 here, so that no fixed floor decides the check.
    A row whose p is not usable (not positive, or subnormal from t near 14.5) fails.  A row
    whose residual cannot be resolved, its rounding floor (see heat_residual) above its
    bound, raises SeriesConvergenceError.
    """
    rows = []
    for tt, rr, ee in itertools.product(t, r, eta):
        for rep in ("rep1", "rep2") if which == "both" else (which,):
            res, scale, p, floor = heat_residual(rep, tt, rr, ee)
            bound = 1e-4 * scale + 1e-8 * p
            if floor > bound:
                raise SeriesConvergenceError(
                    f"the {rep} heat residual at (t={tt}, r={rr}, eta={ee}) has rounding floor "
                    f"{floor:.1e}, above its bound {bound:.1e}")
            rows.append(_row(res <= bound and usable(p), t=tt, r=rr, eta=ee, which=rep,
                             residual=res, dt_scale=scale, bound=bound))
    return rows


def chebyshev_identity():
    """Criterion 04: the terminating 2F1 at cosh u equals cosh((m+3)u), per degree m <= 30."""
    us = np.linspace(0.0, 5.0, 100)
    rows = []
    for m in range(31):
        worst = max(abs(hyp2f1_terminating(m, math.cosh(u)) - math.cosh((m + 3) * u))
                    / math.cosh((m + 3) * u) for u in us)
        rows.append(_row(worst <= 1e-10, m=m, max_rel_err=worst))
    return rows


def fiber_orthogonality():
    """Criterion 05, first half: Jacobi (5/2, 5/2) orthogonality against sin^6, m, n <= 10."""
    u, w = gl_nodes(_FIBER_NODES, 0.0, math.pi)
    pm = jacobi_sequence(10, np.cos(u))
    weight = w * np.sin(u) ** 6
    rows = []
    for m, n in itertools.product(range(11), repeat=2):
        integral = float(np.einsum("i,i,i->", pm[m], pm[n], weight))
        dev = abs(integral - (jacobi_norm_sq(m) if m == n else 0.0)) / jacobi_norm_sq(m)
        rows.append(_row(dev <= _FIBER_TOL, m=m, n=n, integral=integral, deviation=dev))
    return rows


def fiber_values(t=_FIBER_T, eta=_FIBER_ETA, u=(0.5,), continued=False):
    """Fiber kernel values on the grid t x eta x u, with their series diagnostics."""
    rows = []
    for tt, ee, uu in itertools.product(t, eta, u):
        v = fiber_heat_kernel(tt, ee, uu, continued=continued)
        rows.append({"t": tt, "eta": ee, "u": uu, "continued": continued,
                     "value": v.value, "m_used": v.m_used, "tail_bound": v.tail_bound})
    return rows


def fiber_normalization(t=_FIBER_T, eta=_FIBER_ETA):
    """Criterion 05, second half: the fiber kernel integrates to 1 against sin^6.

    The series is summed at every u node at once, without fiber_heat_kernel's refusal of a
    value within its rounding floor: such a node adds at most that floor times w sin^6 u.
    """
    u, w = gl_nodes(_FIBER_NODES, 0.0, math.pi)
    rows = []
    for tt, ee in itertools.product(t, eta):
        _check_fiber_args(tt, ee)
        vals = _series_matrix(_fiber_coeff(tt, np.cos(u)), u.size, ee)[0]
        integral = float(np.dot(w, vals * np.sin(u) ** 6))
        dev = abs(integral - 1.0)
        rows.append(_row(dev <= _FIBER_TOL, t=tt, eta=ee, integral=integral, deviation=dev))
    return rows


def richardson(diff, h: float) -> float:
    """diff(h) extrapolated from the steps h and h/2, which cancels the h^2 term of a
    second-order difference."""
    coarse, fine = diff(h), diff(h / 2.0)
    return fine + (fine - coarse) / 3.0


def _radial_pde_residual(n: int, t: float, s: float) -> float:
    """|dq/dt - radial Laplacian q| / (|dq/dt| + 1e-5 q), or inf where q is not usable, by
    central differences with one Richardson step: a bound of 1e-5 is 1e-5 relative plus 1e-10 q."""
    q = functools.partial(hyperbolic_heat_kernel, n)
    # the time step is 1e-3 min(t, 1): a step 1e-3 t errs like t^4
    time_deriv = richardson(lambda h: (q(t + h, s) - q(t - h, s)) / (2.0 * h), 1e-3 * min(t, 1.0))
    spatial = richardson(lambda h: (q(t, s + h) - 2.0 * q(t, s) + q(t, s - h)) / h ** 2
                         + (n - 1.0) / math.tanh(s) * (q(t, s + h) - q(t, s - h)) / (2.0 * h), 1e-3)
    return (abs(time_deriv - spatial) / (abs(time_deriv) + 1e-5 * q(t, s))
            if usable(q(t, s)) else math.inf)


def hyperbolic_values(n=15, t=GRID_T, s=_HYPERBOLIC_S):
    """Values of the n-dimensional hyperbolic kernel on the grid t x s."""
    return [{"n": n, "t": tt, "s": ss, "value": float(hyperbolic_heat_kernel(n, tt, ss))}
            for tt, ss in itertools.product(t, s)]


def hyperbolic_suite(t=GRID_T, s=_HYPERBOLIC_S):
    """Criterion 06: the hyperbolic kernels of dimensions 9 and 15, the two in use.

    Per (n, t), normalization against the full volume to 1e-6 and the radial heat equation
    at its worst distance in `s` to 1e-5; then dimension 3 against its closed form in logs (the
    reference underflows), to 1e-12 + 4 eps |log ref|, over twice the logs' measured rounding.
    """
    rows = []
    for n, tt in itertools.product((9, 15), t):
        omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        nodes, w = gl_nodes(1200, 1e-9, (n - 1) * tt + 12.0 * math.sqrt(tt) + 5.0)
        log_q = _log_kernel(n, tt, nodes) + math.log(omega) + (n - 1) * _log_sinh(nodes)
        integral = float(np.dot(w, np.exp(log_q)))
        dev = abs(integral - 1.0)
        rows.append(_row(dev <= 1e-6, check=f"normalization_n{n}", t=tt, value=integral,
                         deviation=dev))
    for n, tt in itertools.product((9, 15), t):
        worst = max(_radial_pde_residual(n, tt, ss) for ss in s)
        rows.append(_row(worst <= 1e-5, check=f"pde_residual_n{n}", t=tt, value=worst,
                         deviation=worst))
    worst, good = 0.0, True
    for tt, ss in itertools.product(t, (1e-8, 0.3, 1.0, 2.5, 5.0)):
        log_ref = (-tt - 1.5 * math.log(4.0 * math.pi * tt) + math.log(ss / math.sinh(ss))
                   - ss * ss / (4.0 * tt))
        dev = abs(math.expm1(float(_log_kernel(3, tt, ss)[0]) - log_ref))
        worst = max(worst, dev)
        good &= dev <= 1e-12 + 4.0 * np.finfo(float).eps * abs(log_ref)
    rows.append(_row(good, check="closed_form_n3", t=0.0, value=worst, deviation=worst))
    return rows


def mass_moment(t=GRID_T, moment=True):
    """Criterion 07: the mass is constant in t to 1e-5, and E[cosh r cos eta] = exp(8t) to
    1e-4 relative (if `moment`).  Each moment is integrated right after its mass, at the same
    t, so the two share one density."""
    found = []
    for tt in t:
        m = total_mass(tt)
        mom = (weighted_integral(lambda r, eta: np.cosh(r) * np.cos(eta), tt, f_growth=1.0)
               if moment else None)
        found.append((tt, m, mom))
    first = found[0][1]
    rows = []
    for tt, m, mom in found:
        row = {"t": tt, "mass": m, "mass_ratio_to_first": m / first}
        if moment:
            expected = math.exp(8.0 * tt)
            row.update(eigen_moment=mom, moment_over_mass=mom / m, expected=expected,
                       moment_rel_err=abs(mom / m - expected) / expected)
        rows.append(_row(abs(m / first - 1.0) <= 1e-5
                         and row.get("moment_rel_err", 0.0) <= 1e-4, **row))
    return rows


def mc_oracle(t=(0.5, 1.0), n_paths=100_000, dt=1e-4, seed=0):
    """Criterion 08: MC means of the test functions within 3 standard errors of quadrature.

    Every time must be finite, at least MIN_TIME and a whole number of steps dt, and there
    must be at least two paths; that is checked before any path is simulated.
    """
    times = sorted(t)
    cfg = SdeConfig(n_paths=n_paths, dt=dt, seed=seed, t_end=times[-1])
    if n_paths < 2:
        raise ValueError(f"{n_paths} path(s) cannot estimate a standard error; need 2")
    for tt in times:
        _check_time(tt)
        if not math.isclose(tt, round(tt / dt) * dt, rel_tol=1e-9):
            raise ValueError(f"time {tt} is not a whole number of steps dt = {dt}")
    by_step = {round(s.time / dt): s
               for s in simulate_paths(cfg, snapshot_times=tuple(times[:-1]))}
    rows = []
    for tt in times:
        mass = total_mass(tt)
        for name, func, growth in MC_TEST_FUNCTIONS:
            mean, stderr = estimate_expectation(func, by_step[round(tt / dt)])
            analytic = weighted_integral(func, tt, f_growth=growth) / mass
            # a zero or non-finite standard error bounds nothing: z is NaN and fails
            z = (mean - analytic) / stderr if 0.0 < stderr < math.inf else math.nan
            rows.append(_row(abs(z) <= 3.0, function=f"{name}@t={tt:g}", mc_mean=mean,
                             stderr=stderr, analytic=analytic, z=z))
    return rows


def mode_profile():
    """Criterion 09: the fiber mode profile equals P_m(cos eta) / P_m(1), per degree m <= 15."""
    etas = np.linspace(0.0, math.pi, 61)
    rows = []
    for m in range(16):
        ratio = jacobi_sequence(m, np.cos(etas))[m] / jacobi_end_value(m)
        worst = max(abs(fiber_mode_profile(m, float(e)) - v) for e, v in zip(etas, ratio))
        rows.append(_row(worst <= 1e-10, m=m, max_abs_err=worst))
    return rows


def octonion_algebra():
    """Criterion 10: the octonion algebra and the quadric chart, one row per identity.

    1000 random pairs from seed 1234 test norm multiplicativity and alternativity; 200 chart
    points (base point scaled by 0.25, fiber angles by 0.35) test the quadric and the
    projection back.  The inexact identities hold to 1e-12.
    """
    tolerance = 1e-12
    rng = np.random.default_rng(1234)
    basis, mul = oct.Octonion.basis, oct.oct_mul
    triples = max(float(np.max(np.abs(mul(basis(i), basis(j)).coeffs - basis(k).coeffs)))
                  for i, j, k in oct.GENERATOR_TRIPLES)
    norm = alt = 0.0
    for _ in range(1000):
        a, b = oct.Octonion(rng.standard_normal(8)), oct.Octonion(rng.standard_normal(8))
        norm = max(norm, abs(mul(a, b).norm() - a.norm() * b.norm()) / (a.norm() * b.norm()))
        left = mul(a, mul(a, b)) - mul(mul(a, a), b)
        right = mul(mul(b, a), a) - mul(b, mul(a, a))
        scale = max(1.0, a.norm_sq() * b.norm())
        alt = max(alt, max(np.max(np.abs(left.coeffs)), np.max(np.abs(right.coeffs))) / scale)
    witness = max(float(np.max(np.abs((mul(mul(basis(i), basis(j)), basis(k))
                                       - mul(basis(i), mul(basis(j), basis(k)))).coeffs)))
                  for i, j, k in itertools.product(range(1, 8), repeat=3))
    quadric = projection = 0.0
    for _ in range(200):
        w = oct.Octonion(rng.standard_normal(8) * 0.25)
        if w.norm() >= 0.999:
            continue
        p = oct.cyl_to_ads(oct.CylCoord(w=w, theta=rng.standard_normal(7) * 0.35))
        # |y|^2 is the size of both terms of the quadric
        quadric = max(quadric, abs(oct.pseudo_norm(p.x, p.y) + 1.0) / max(1.0, p.y.norm_sq()))
        projection = max(projection, float(np.max(np.abs(oct.ads_project(p).coeffs - w.coeffs))))
    checks = (("generator_triples", triples, 0.0), ("norm_multiplicativity", norm, tolerance),
              ("alternativity", alt, tolerance),
              # the witness's "error" is its shortfall below the required size 2
              ("non_associativity_witness", 2.0 - witness, 0.0),
              ("quadric", quadric, tolerance), ("projection", projection, tolerance))
    return [_row(err <= tol, check=c, max_error=err, tolerance=tol) for c, err, tol in checks]
