"""The radial subelliptic heat kernel via its two integral representations.

Representation 1 integrates the analytically continued fiber kernel against
the 15-dimensional hyperbolic kernel at the composed argument
cosh(r) cosh(u), with weight sinh^6(u).

Representation 2 expands over fiber modes: each mode couples a Chebyshev-type
factor cosh((m+3)u) to the 9-dimensional hyperbolic kernel at the same
composed argument.  It carries

  * the factor sech^3(r),
  * the degree-m eigenspace dimensions as mode weights, and
  * the global constant 6/pi^4,

all three fixed by requiring agreement with representation 1, mass
conservation, and the correct point-mass expansion.  The widely printed raw
form (uniform mode weights, no sech^3, no constant) is displayed only by
scripts/reconcile_constants.py, which re-derives the corrections numerically.

The radial generator is

  L = d^2/dr^2 + (7 coth r + 7 tanh r) d/dr
      + tanh^2(r) (d^2/deta^2 + 6 cot(eta) d/deta)

and the reference measure is (pi^7/90) sinh^7(r) cosh^7(r) sin^6(eta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fiber_kernel
from .fiber_kernel import (
    fiber_eigenvalue,
    fiber_mode_multiplicity,
    _series_matrix,
)
from .hyperbolic_kernel import hyperbolic_heat_kernel_composed
from .special_fn import gl_nodes, jacobi_sequence

MEASURE_CONSTANT = math.pi ** 7 / 90.0
# u-nodes of the first level of a measure integral, and its convergence tolerance
MEASURE_N_U = 192
_MEASURE_TOL = 1e-6

# The point rule: u-nodes of the first level, doubled up to four times until two successive
# values agree to POINT_TOL relative, at default_u_max and then once at twice it; the direct
# 2-d path of representation 2 starts its angular rule at POINT_N_PHI nodes.  The series
# truncation is fiber_kernel's SERIES_TOL and SERIES_M_CAP.  All are read at call time.
POINT_N_U = 96
POINT_N_PHI = 64
POINT_TOL = 1e-9

# Global normalization of representation 2 against representation 1;
# measured constant matches 6/pi^4 to twelve digits (see the reconcile script).
REP2_CONSTANT = 6.0 / math.pi ** 4

# Offset of the mode decay rate in representation 2: mode m relaxes like
# exp(-(m(m+6) + 33) t) before the u-integral contributes its growth.
REP2_RATE_SHIFT = 33

# Supported floor for kernel evaluation; below this the continued fiber
# series cancels catastrophically against the quadrature weights.
MIN_TIME = 0.05


def _check_time(t: float) -> None:
    if not MIN_TIME <= t < math.inf:
        raise ValueError(f"time {t} is below the supported minimum {MIN_TIME} or not finite")


class QuadratureConvergenceError(RuntimeError):
    """Node doubling failed to stabilize the integral to tolerance."""


class KernelRangeError(ArithmeticError):
    """A point value underflowed to zero or is not finite.

    The kernel is positive everywhere, so such a value carries no
    information; `result` holds the refused evaluation for reporting.
    """

    def __init__(self, message: str, result: "KernelResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class KernelPoint:
    t: float
    r: float
    eta: float

    def __post_init__(self):
        _check_time(self.t)
        if not 0.0 <= self.r < math.inf:
            raise ValueError(f"base distance must be nonnegative and finite, got {self.r}")
        if not 0.0 <= self.eta <= math.pi:
            raise ValueError("fiber angle must lie in [0, pi]")


@dataclass(frozen=True)
class KernelResult:
    value: float
    est_error: float
    m_used: int
    u_max_used: float


def default_u_max(t: float, r: float) -> float:
    # The hyperbolic factor alone would allow r + 8 sqrt(t) + 2, but the
    # continued fiber series grows fast enough that the product tail decays
    # only like exp(-4u); the wider margin keeps the truncation below 1e-9.
    return r + 8.0 * math.sqrt(t) + 5.0


def _measure_u_max(t: float) -> float:
    # One cutoff for every row of a measure integral.  At large r the u-integrand decays on
    # the scale 2t/r, so the point cutoff's growth with r is unnecessary there and would
    # overflow the continued fiber polynomials: this is the point cutoff at r = 6t, and
    # every density reaches past r = 14t.
    return 6.0 * t + 8.0 * math.sqrt(t) + 5.0


# Rows of one (r, u) block hold at most this many nodes; each block is reduced
# into the output before the next is built, so the full (r, u) matrix of a
# density grid never exists.
_BLOCK_NODES = 1 << 15


def _row_blocks(n_rows: int, n_u: int):
    step = max(1, _BLOCK_NODES // n_u)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _adaptive(what: str, t, r, eta, eval_at) -> KernelResult:
    """The point rule (see POINT_N_U).  eval_at(n_u, u_max) returns (value,
    m_used); a value that is zero or not finite raises KernelRangeError at once.
    """
    def checked(n, u_max):
        value, m_used = eval_at(n, u_max)
        if value == 0.0 or not math.isfinite(value):
            raise KernelRangeError(
                f"{what} is {value} at (t={t}, r={r}, eta={eta})",
                KernelResult(value=value, est_error=math.nan, m_used=m_used, u_max_used=u_max))
        return value, m_used

    base_u = default_u_max(t, r)
    for u_max in (base_u, 2.0 * base_u):
        n = POINT_N_U
        prev, _ = checked(n, u_max)
        for _ in range(4):
            n *= 2
            value, m_used = checked(n, u_max)
            est = abs(value - prev)
            if est <= POINT_TOL * abs(value) + 1e-280:
                return KernelResult(value=value, est_error=est, m_used=m_used, u_max_used=u_max)
            prev = value
    raise QuadratureConvergenceError(f"{what} did not stabilize at (t={t}, r={r}, eta={eta})")


def _at_point(grid, t, r, eta):
    """eval_at(n_u, u_max) of one point: the grid evaluator on a 1x1 grid."""
    def eval_at(n_u, u_max):
        values, m_used = grid(t, [r], [eta], n_u, u_max)
        return float(values[0, 0]), m_used
    return eval_at


# ---------------------------------------------------------------------------
# representation 1


def _rep1_grid(t, rs, etas, n_u, u_max):
    """Representation-1 values on an (r, eta) grid at a fixed u-cutoff.

    Returns (values[n_r, n_eta], m_used).  The fiber series is built once on
    (eta, u); the hyperbolic factor is evaluated block by block over (r, u).
    """
    rs = np.asarray(rs, dtype=float)
    u, w = gl_nodes(n_u, 0.0, u_max)
    fiber, m_used, _ = _series_matrix(t, etas, u, continued=True)
    wsinh = w * np.sinh(u) ** 6
    out = np.empty((rs.size, fiber.shape[0]))
    for blk in _row_blocks(rs.size, n_u):
        q15 = hyperbolic_heat_kernel_composed(15, t, rs[blk, None], u[None, :])
        out[blk] = (q15 * wsinh) @ fiber.T
    return out, m_used


def heat_kernel_rep1(t: float, r: float, eta: float) -> KernelResult:
    """First integral representation; the reference evaluation path."""
    KernelPoint(t, r, eta)
    return _adaptive("representation 1", t, r, eta, _at_point(_rep1_grid, t, r, eta))


# ---------------------------------------------------------------------------
# representation 2


def _rep2_mode_coeffs(eta, m_top: int):
    """Mode coefficients w_m * h_m(eta) for degrees 0..m_top: the eigenspace dimension
    times the profile P_m(cos eta) / P_m(1)."""
    pe = jacobi_sequence(m_top, np.cos(np.atleast_1d(eta)))
    p1 = jacobi_sequence(m_top, np.array([1.0]))
    weights = np.array([fiber_mode_multiplicity(m) for m in range(m_top + 1)], dtype=float)
    return weights[:, None] * (pe / p1)


def _rep2_grid(t, rs, etas, n_u, u_max):
    """Representation-2 values on an (r, eta) grid at a fixed u-cutoff.

    Returns (values[n_r, n_eta], m_used).  The nodes and the cutoff are the
    caller's; the mode degree always adapts.  The mode loop runs once per
    block of r rows.  Each row stops on its own, after two consecutive modes
    below SERIES_TOL of its running sum: across r the values span hundreds of
    orders of magnitude, so a rule for the whole grid would cut the small rows
    short.  A row still summing at SERIES_M_CAP raises.
    """
    rs = np.asarray(rs, dtype=float)
    etas = np.asarray(etas, dtype=float)
    u, w = gl_nodes(n_u, 0.0, u_max)
    cap = fiber_kernel.SERIES_M_CAP
    profiles = _rep2_mode_coeffs(etas, 64)
    out = np.zeros((rs.size, etas.size))
    m_used = 0
    for blk in _row_blocks(rs.size, n_u):
        rows = out[blk]
        wq = w * hyperbolic_heat_kernel_composed(9, t, rs[blk, None], u[None, :])
        live = np.arange(rows.shape[0])  # rows of the block still summing
        below = np.zeros(live.size, dtype=int)
        for m in range(cap + 1):
            if m >= profiles.shape[0]:
                profiles = _rep2_mode_coeffs(etas, 2 * m + 8)
            rate = fiber_eigenvalue(m) + REP2_RATE_SHIFT
            b = m + 3
            j_m = wq @ (0.5 * (np.exp(b * u - rate * t) + np.exp(-b * u - rate * t)))
            term = j_m[:, None] * profiles[m]
            rows[live] += term
            small = np.max(np.abs(term), axis=1) <= fiber_kernel.SERIES_TOL * np.maximum(
                np.max(np.abs(rows[live]), axis=1), 1e-300)
            below = np.where(small, below + 1, 0)
            if m >= 4:
                keep = below < 2
                live, below, wq = live[keep], below[keep], wq[keep]
                if live.size == 0:
                    break
        else:
            raise QuadratureConvergenceError(f"mode series not converged by degree {cap}")
        m_used = max(m_used, m)
    out *= (REP2_CONSTANT / np.cosh(rs) ** 3)[:, None]
    return out, m_used


def _rep2_direct_2d(t, r, eta, u_max, n_u, n_phi):
    u, wu = gl_nodes(n_u, 0.0, u_max)
    x, wx = gl_nodes(n_phi, -1.0, 1.0)
    z = np.cos(eta) + 1j * np.sin(eta) * x
    g = np.zeros((n_u, n_phi), dtype=complex)
    zpow = np.ones_like(z)
    scale = 0.0
    below = 0
    m = 0
    cap = fiber_kernel.SERIES_M_CAP
    while m <= cap:
        rate = fiber_eigenvalue(m) + REP2_RATE_SHIFT
        b = m + 3
        weight = 15.0 / 16.0 * fiber_mode_multiplicity(m)
        # the term's largest entry is weight exp(b u_max - rate t); the sum of up to cap + 1
        # such terms must stay below the largest double, exp(709.78)
        if b * u_max - rate * t + math.log(weight) > 700.0:
            raise QuadratureConvergenceError(
                f"2d series term of degree {m} exceeds double range at u_max = {u_max:.6g}")
        damped_cosh = 0.5 * (np.exp(b * u - rate * t) + np.exp(-b * u - rate * t))
        g += weight * np.outer(damped_cosh, zpow)
        scale = max(scale, float(np.max(np.abs(g))))
        bound = weight * 0.5 * (
            math.exp(b * u_max - rate * t) + math.exp(-rate * t)
        )
        below = below + 1 if bound <= fiber_kernel.SERIES_TOL * max(scale, 1e-300) else 0
        if m >= 4 and below >= 2:
            break
        zpow = zpow * z
        m += 1
    else:
        raise QuadratureConvergenceError(f"2d series not converged by degree {cap}")

    fold = g @ (wx * (1.0 - x * x) ** 2)
    imag_scale = float(np.max(np.abs(fold.real))) + 1e-300
    imag = float(np.max(np.abs(fold.imag)))
    if imag > 1e-10 * imag_scale:
        raise QuadratureConvergenceError(
            f"imaginary residue {imag / imag_scale:.1e} of the angular integral exceeds 1e-10")
    q9 = hyperbolic_heat_kernel_composed(9, t, r, u)
    total = float(np.dot(wu, fold.real * q9)) * (REP2_CONSTANT / math.cosh(r) ** 3)
    return total, m


def heat_kernel_rep2(t: float, r: float, eta: float,
                     path: str = "mode_series") -> KernelResult:
    """Second integral representation.

    path selects the evaluation route: "mode_series" sums explicit fiber
    modes, "direct_2d" does the double integral with the complex generating
    series inside.  Both converge to the same value; their agreement is one
    of the acceptance checks.
    """
    KernelPoint(t, r, eta)
    if path not in ("mode_series", "direct_2d"):
        raise ValueError(f"unknown path {path!r}")
    if path == "mode_series":
        eval_at = _at_point(_rep2_grid, t, r, eta)
    else:
        def eval_at(n, u_max):
            # refine the angular rule together with the radial one
            n_phi = max(POINT_N_PHI, POINT_N_PHI * n // POINT_N_U)
            return _rep2_direct_2d(t, r, eta, u_max, n, n_phi)
    return _adaptive("representation 2", t, r, eta, eval_at)


# ---------------------------------------------------------------------------
# frozen evaluators for finite differencing


def frozen_kernel(which: str, t: float, r: float, eta: float):
    """Kernel evaluator with its quadrature frozen at the given center point.

    A node count or cutoff that changed between neighboring evaluations would
    dominate a finite-difference stencil, so the returned callable uses
    2 POINT_N_U u-nodes and u_max = default_u_max(t, r) + 1 for every call.
    Neither depends on eta.  The series degree is not frozen: every call
    stops its series by the one rule of the grid evaluator.
    """
    if which not in ("rep1", "rep2"):
        raise ValueError(f"unknown representation {which!r}")
    u_max = default_u_max(t, r) + 1.0
    n_u = 2 * POINT_N_U
    grid = _rep1_grid if which == "rep1" else _rep2_grid

    def p(tt, rr, ee):
        return float(grid(tt, [rr], [ee], n_u, u_max)[0][0, 0])
    return p


# ---------------------------------------------------------------------------
# generator, residual, and measure integrals

INTERIOR_R_MIN = 0.2
INTERIOR_ETA_MARGIN = 0.2


def _check_interior(r: float, eta: float):
    if r < INTERIOR_R_MIN or not (INTERIOR_ETA_MARGIN <= eta <= math.pi - INTERIOR_ETA_MARGIN):
        raise ValueError(
            f"({r}, {eta}) is inside the excluded boundary strips; finite differences "
            "need r >= 0.2 and eta in [0.2, pi - 0.2]"
        )


def richardson(diff, h: float) -> float:
    """diff(h) extrapolated from the steps h and h/2, which cancels the h^2 term of a
    second-order difference."""
    coarse, fine = diff(h), diff(h / 2.0)
    return fine + (fine - coarse) / 3.0


def apply_radial_sublaplacian(f, r: float, eta: float,
                              h_r: float = 1e-3, h_eta: float = 1e-3) -> float:
    """Generator applied to f(r, eta) by central differences, with both steps
    extrapolated together by one Richardson step."""
    _check_interior(r, eta)

    f0 = f(r, eta)

    def op(hr, he):
        rp, rm, ep, em = f(r + hr, eta), f(r - hr, eta), f(r, eta + he), f(r, eta - he)
        d2r = (rp - 2.0 * f0 + rm) / hr ** 2
        dr = (rp - rm) / (2.0 * hr)
        d2e = (ep - 2.0 * f0 + em) / he ** 2
        de = (ep - em) / (2.0 * he)
        drift = 7.0 / math.tanh(r) + 7.0 * math.tanh(r)
        return d2r + drift * dr + math.tanh(r) ** 2 * (d2e + 6.0 * de / math.tan(eta))

    return richardson(lambda c: op(c * h_r, c * h_eta), 1.0)


def heat_residual(which: str, t: float, r: float, eta: float,
                  h_r: float = 1e-3, h_eta: float = 1e-3,
                  h_t_rel: float = 1e-3) -> tuple[float, float, float]:
    """|d/dt p - L p| at an interior point, with the scales of its bound.

    Returns (absolute residual, |d/dt p|, p) so callers can apply the bound
    rel |d/dt p| + abs p, whose floor scales with the kernel itself.
    """
    _check_interior(r, eta)
    p = frozen_kernel(which, t, r, eta)

    time_deriv = richardson(lambda h: (p(t + h, r, eta) - p(t - h, r, eta)) / (2.0 * h),
                            h_t_rel * t)
    # the centre is a stencil point and also the p returned; each point is evaluated once
    at_t = functools.lru_cache(maxsize=None)(lambda rr, ee: p(t, rr, ee))
    spatial = apply_radial_sublaplacian(at_t, r, eta, h_r, h_eta)
    return abs(time_deriv - spatial), abs(time_deriv), at_t(r, eta)


def _radial_measure_times(p, r):
    """p[i, :] (sinh r_i cosh r_i)^7, with no factor that overflows.

    The power alone exceeds double range beyond r = 51.4, where p is
    subnormal or zero, and inf * 0 is NaN.  So sinh and cosh enter as
    mantissa and binary exponent: p is scaled by the exponent first, which is
    exact, then by the mantissa.  Finite for every r < 710, where sinh is.
    """
    ms, es = np.frexp(np.sinh(r))
    mc, ec = np.frexp(np.cosh(r))
    return np.ldexp(p, 7 * (es + ec)[:, None]) * ((ms * mc) ** 7)[:, None]


# The r axis of a measure integral is cut into panels [2k, 2k + 2].  Level L puts
# _PANEL_NODES * 2^L Gauss-Legendre nodes on each panel, 96 * 2^L on eta in [0, pi] and
# MEASURE_N_U * 1.5^L on u; an integral stops at the first level that agrees with the one
# before to _MEASURE_TOL.  A level's rows cover the panels of the largest growth an integrand
# may have, _MAX_GROWTH, that of the eigenfunction cosh r cos eta.
_PANEL_WIDTH = 2.0
_PANEL_NODES = 20
_MEASURE_LEVELS = 3
_MAX_GROWTH = 1.0


def _n_panels(t: float, f_growth: float) -> int:
    """Panels up to the radial cutoff (14 + 2 f_growth) t + 10 sqrt(t) + 2."""
    return math.ceil(((14.0 + 2.0 * f_growth) * t + 10.0 * math.sqrt(t) + 2.0) / _PANEL_WIDTH)


@functools.lru_cache(maxsize=_MEASURE_LEVELS)
def _density_level(t: float, which: str, level: int):
    """The rules of one level and p_t (sinh r cosh r)^7 on its (r, eta) nodes, in one grid
    call over every panel that growth _MAX_GROWTH needs.

    Returns (r, w_r, etas, w_eta, sin^6 eta, rows), all read-only.  The cache keeps the
    _MEASURE_LEVELS levels used last, of any (t, which), and no module constant is in its key:
    a caller that changes MEASURE_N_U, SERIES_TOL or SERIES_M_CAP calls cache_clear().
    """
    n_u = MEASURE_N_U
    for _ in range(level):
        n_u += n_u // 2
    x, w_x = gl_nodes(_PANEL_NODES << level, 0.0, _PANEL_WIDTH)
    etas, w_eta = gl_nodes(96 << level, 0.0, math.pi)
    n_panels = _n_panels(t, _MAX_GROWTH)
    r = (_PANEL_WIDTH * np.arange(n_panels, dtype=float)[:, None] + x).ravel()
    grid = _rep1_grid if which == "rep1" else _rep2_grid
    p, _ = grid(t, r, etas, n_u, _measure_u_max(t))
    arrays = (r, np.tile(w_x, n_panels), etas, w_eta, np.sin(etas) ** 6,
              _radial_measure_times(p, r))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def weighted_integral(f, t: float, which: str = "rep1", f_growth: float = 0.0) -> float:
    """Integral of f(r, eta) against p_t and the reference measure.

    f is called once per level with r as a column and eta as a row, both read-only, and
    returns a scalar or an array that broadcasts to their grid; a value that is not finite
    raises ValueError.  f must be bounded by C exp(a r) with a <= f_growth, where f_growth
    lies in [0, 1]; 1 is the growth of the eigenfunction cosh r cos eta.  The radial cutoff
    (14 + 2 f_growth) t + 10 sqrt(t) + 2 is rounded up to whole panels of width 2.
    Convergence is checked by refining r, eta and u together, to a relative change of 1e-6;
    the first level has MEASURE_N_U u-nodes.  Each level is evaluated out to the cutoff of
    growth 1 and cached by _density_level: every integral reads the prefix of rows its own
    cutoff needs, so a value does not depend on the integrals before it.
    """
    _check_time(t)
    if which not in ("rep1", "rep2"):
        raise ValueError(f"unknown representation {which!r}")
    if not 0.0 <= f_growth <= _MAX_GROWTH:
        raise ValueError(f"f_growth {f_growth} is outside [0, {_MAX_GROWTH:g}]")
    n_panels = _n_panels(t, f_growth)
    prev = None
    for level in range(_MEASURE_LEVELS):
        r, w_r, etas, w_eta, sin6, rows = _density_level(t, which, level)
        n = n_panels * (_PANEL_NODES << level)
        values = np.asarray(f(r[:n, None], etas[None, :]), dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(f"integrand not finite on the level-{level} nodes at t = {t}")
        integ = values * rows[:n] * sin6[None, :]
        cur = MEASURE_CONSTANT * float(np.einsum("i,j,ij->", w_r[:n], w_eta, integ))
        if prev is not None and abs(cur - prev) <= _MEASURE_TOL * abs(cur) + 1e-280:
            return cur
        prev = cur
    raise QuadratureConvergenceError("weighted integral did not converge under refinement")


def total_mass(t: float, which: str = "rep1") -> float:
    """Mass of the kernel under the reference measure; constant in t."""
    return weighted_integral(lambda r, eta: np.ones_like(r), t, which=which)
