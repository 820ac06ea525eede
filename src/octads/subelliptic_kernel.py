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
from dataclasses import astuple, dataclass

import numpy as np

from . import fiber_kernel
from .fiber_kernel import (
    SeriesConvergenceError,
    fiber_eigenvalue,
    fiber_mode_multiplicity,
    _fiber_coeff,
    _s5_rule,
    _series_matrix,
)
# hyperbolic_heat_kernel_composed is called by no route; the benchmark's tracer wraps it here
from .hyperbolic_kernel import (_log_kernel, _log_sinh, composed_distance,
                                hyperbolic_heat_kernel_composed)
from .special_fn import _MAX, _real, gl_nodes, jacobi_sequence

MEASURE_CONSTANT = math.pi ** 7 / 90.0

# The point rule: u-nodes of the first level, doubled up to four times at default_u_max until
# two successive values agree to POINT_TOL relative.  The series truncation is fiber_kernel's
# SERIES_TOL and SERIES_M_CAP.  All are read at call time.
POINT_N_U = 96
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


class QuadratureConvergenceError(RuntimeError):
    """Node doubling failed to stabilize the integral to tolerance."""


class KernelRangeError(ArithmeticError):
    """A point value is not usable: not positive, subnormal or not finite.

    The kernel is positive everywhere, so such a value carries no
    information; `result` holds the refused evaluation for reporting.
    """

    def __init__(self, message: str, result: "KernelResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class KernelPoint:
    """A point, stored as floats: t in [MIN_TIME, inf), r in [0, inf) and eta in [0, pi]."""
    t: float
    r: float
    eta: float

    def __post_init__(self):
        for name, lo, hi in (("t", MIN_TIME, _MAX), ("r", 0.0, _MAX), ("eta", 0.0, math.pi)):
            object.__setattr__(self, name, _real(name, getattr(self, name), lo, hi))


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


def usable(v: float) -> bool:
    """A kernel value that carries information: finite, positive and not subnormal."""
    return math.isfinite(v) and v >= np.finfo(float).tiny


def _adaptive(what: str, t, r, eta, grid) -> KernelResult:
    """The point rule (see POINT_N_U) at KernelPoint(t, r, eta).  grid(t, r, eta, n_u, u_max)
    returns (value, m_used); an unusable value raises KernelRangeError at once, and a series or
    quadrature error of grid is raised again with the route and the point first."""
    t, r, eta = astuple(KernelPoint(t, r, eta))
    u_max = default_u_max(t, r)
    prev = math.inf  # the first value agrees with nothing
    for k in range(5):
        try:
            value, m_used = grid(t, r, eta, POINT_N_U << k, u_max)
        except (SeriesConvergenceError, QuadratureConvergenceError) as exc:
            raise type(exc)(f"{what} at (t={t}, r={r}, eta={eta}): {exc}") from exc
        value = float(value)
        if not usable(value):
            raise KernelRangeError(
                f"{what} is {value} at (t={t}, r={r}, eta={eta})",
                KernelResult(value=value, est_error=math.nan, m_used=m_used, u_max_used=u_max))
        est = abs(value - prev)
        if est <= POINT_TOL * abs(value):
            return KernelResult(value=value, est_error=est, m_used=m_used, u_max_used=u_max)
        prev = value
    raise QuadratureConvergenceError(f"{what} did not stabilize at (t={t}, r={r}, eta={eta})")


# ---------------------------------------------------------------------------
# the point evaluator of both representations


def _integrand(which, t, r, u):
    """Representation `which` as (n, log_g, factor): its u-integrand at (r, u) is
    q_n(s) exp(log_g) sum_m c_m f_m(u) P_m(cos eta) / P_m(1), cosh s = cosh r cosh u, with
    factor(m) = (c_m, f_m) (see _series_matrix).  Rep 1: n = 15, g = sinh^6 u and the
    continued fiber series.  Rep 2: n = 9, g = REP2_CONSTANT exp(3u - 33 t) / cosh^3 r and
    (w_m, (exp(m u - m(m+6) t) + exp(-(m+6) u - m(m+6) t)) / 2), each exponent in one exp:
    exp(m u) alone overflows at small t.  Any other name raises ValueError.  Past u = 710
    cosh u overflows, and past r or u = 3e307 log g: the series or the residual reports it.
    """
    if which not in ("rep1", "rep2"):
        raise ValueError(f"unknown representation {which!r}")

    def factor(m):
        d = fiber_eigenvalue(m) * t
        return fiber_mode_multiplicity(m), 0.5 * (np.exp(m * u - d) + np.exp(-(m + 6) * u - d))
    with np.errstate(over="ignore", invalid="ignore"):
        if which == "rep1":
            return 15, 6.0 * _log_sinh(u), _fiber_coeff(t, np.cosh(u))
        log_cosh_r = np.logaddexp(r, -r) - math.log(2.0)
        return 9, math.log(REP2_CONSTANT) - REP2_RATE_SHIFT * t + 3.0 * u - 3.0 * log_cosh_r, factor


def _grid(which, t, r, eta, n_u, u_max):
    """The value of representation `which` at (r, eta), on n_u u-nodes up to u_max.

    Mode m's coefficient is c_m times the u-integral of q_n exp(log_g) f_m (see
    _integrand); q_n and g are one exp of a sum of logs per u node, NaN where both leave
    double range, which _series_matrix reports.  Returns (value, m_used), the value a numpy
    float, whose .size perfbench's tracer reads.
    """
    u, w = gl_nodes(n_u, 0.0, u_max)
    n, log_g, factor = _integrand(which, t, r, u)
    with np.errstate(over="ignore", invalid="ignore"):
        wq = (w * np.exp(_log_kernel(n, t, composed_distance(r, u)) + log_g)).astype(np.longdouble)
    out, m_used, _ = _series_matrix(factor, 1, eta, wq[None])
    return out[0], m_used


# the names that points and the benchmark's tracer call
_rep1_grid = functools.partial(_grid, "rep1")
_rep2_grid = functools.partial(_grid, "rep2")


def heat_kernel_rep1(t: float, r: float, eta: float) -> KernelResult:
    """First integral representation; the reference evaluation path."""
    return _adaptive("representation 1", t, r, eta, _rep1_grid)


def _rep2_direct_2d(t, r, eta, n_u, u_max):
    """Criterion 02's reference: the u-integral of the S^5 average, by _s5_rule(SERIES_M_CAP),
    of sum_m w_m e^(-(m(m+6)+33) t) cosh((m+3) u) z^m, z = cos eta + i sin eta x."""
    cap = fiber_kernel.SERIES_M_CAP
    u, wu = gl_nodes(n_u, 0.0, u_max)
    x, wx = _s5_rule(cap)
    z = np.cos(eta) + 1j * np.sin(eta) * x
    g = np.zeros((n_u, x.size), dtype=complex)
    zpow = np.ones_like(z)
    scale, below = 0.0, 0
    for m in range(cap + 1):
        rate = fiber_eigenvalue(m) + REP2_RATE_SHIFT
        b = m + 3
        weight = fiber_mode_multiplicity(m)
        # the term's largest entry is weight exp(b u_max - rate t); the sum of up to cap + 1
        # such terms must stay below the largest double, exp(709.78)
        if b * u_max - rate * t + math.log(weight) > 700.0:
            raise QuadratureConvergenceError(
                f"2d series term of degree {m} exceeds double range at u_max = {u_max:.6g}")
        g += weight * np.outer(0.5 * (np.exp(b * u - rate * t) + np.exp(-b * u - rate * t)), zpow)
        scale = max(scale, float(np.max(np.abs(g))))
        bound = weight * 0.5 * (math.exp(b * u_max - rate * t) + math.exp(-rate * t))
        below = below + 1 if bound <= fiber_kernel.SERIES_TOL * max(scale, 1e-300) else 0
        if m >= 4 and below >= 2:
            break
        zpow = zpow * z
    else:
        raise QuadratureConvergenceError(f"2d series not converged by degree {cap}")

    fold = g @ wx
    imag_scale = float(np.max(np.abs(fold.real))) + 1e-300
    imag = float(np.max(np.abs(fold.imag)))
    if imag > 1e-10 * imag_scale:
        raise QuadratureConvergenceError(
            f"imaginary residue {imag / imag_scale:.1e} of the angular integral exceeds 1e-10")
    # w q9 REP2_CONSTANT / cosh^3 r as one exp of a sum of logs, as in _grid, without _integrand
    log_c = math.log(REP2_CONSTANT) - 3.0 * (r - math.log(2.0) + math.log1p(math.exp(-2.0 * r)))
    wq = wu * np.exp(_log_kernel(9, t, composed_distance(r, u)) + log_c)
    return float(np.dot(wq, fold.real)), m


def heat_kernel_rep2(t: float, r: float, eta: float) -> KernelResult:
    """Second integral representation, summed over explicit fiber modes."""
    return _adaptive("representation 2", t, r, eta, _rep2_grid)


def _rep2_direct(t: float, r: float, eta: float) -> KernelResult:
    """Representation 2 by _rep2_direct_2d under the point rule: criterion 02's reference."""
    return _adaptive("representation 2's direct 2-d route", t, r, eta, _rep2_direct_2d)


# ---------------------------------------------------------------------------
# the heat residual, and measure integrals


def heat_residual(which: str, t: float, r: float,
                  eta: float) -> tuple[float, float, float, float]:
    """|d/dt p - L p| at (t, r, eta), with the scales of its bound and its floor.

    Returns (residual, |d/dt p|, p, floor) so callers can apply the bound rel |d/dt p| + abs p,
    whose floor scales with the kernel itself.  p = sum_m h_m(eta) A_m, and the residual is
    sum_m h_m R_m with R_m = d/dt A_m - L_m A_m, L_m the generator on mode m, all in double and
    without finite differences.  floor = eps sum_m |h_m| (|d/dt A_m| + |L_m A_m|) is the
    rounding of those sums, eps of their dtype: a residual that does not exceed its floor is
    not resolved.  A series error is raised with the representation and the point first, and
    a p that is not usable (subnormal from t near 14.5) raises KernelRangeError, as points do.

    With x = cosh r cosh u the lowering operator gives d/dx q_n = -2 pi e^(nt) q_{n+2}, so
    d^2/dx^2 q_n = (2 pi)^2 e^((2n+2)t) q_{n+4} and d/dt q_n = (x^2 - 1) d^2/dx^2 q_n +
    n x d/dx q_n; d/dr x = sinh r cosh u and d^2/dr^2 x = x.  The u-integrands of A_m,
    d/dt A_m, the drift (coth r + tanh r) d/dr A_m and d^2/dr^2 A_m are then four weight rows
    times c_m f_m (see _integrand), on 2 POINT_N_U nodes up to default_u_max(t, r) + 1.  The
    drift row has no coth, since coth r d/dr x = x, so L_m A_m holds on the axis r = 0 too.
    The value row, summed by _grid's rule, sets the degree and gives p; the other rows take
    c_m f_m from a fresh factor up to that degree.
    """
    t, r, eta = astuple(KernelPoint(t, r, eta))
    u_max = default_u_max(t, r) + 1.0
    u, w = gl_nodes(2 * POINT_N_U, 0.0, u_max)
    n, log_g, factor = _integrand(which, t, r, u)
    tanh_r = math.tanh(r)
    s = composed_distance(r, u)
    # math's cosh r and sinh r (numpy's differ in the last bit) overflow past r = 710, cosh^2 r
    # past r = 355, x past r + u = 710 and log g past 3e307; there every q_n is 0
    # (q_n <= e^(-4 s)), and a point whose rows leave double range is refused below
    cosh_r, sinh_r = (math.cosh(r), math.sinh(r)) if r < 710.0 else (math.inf, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        # w g d^j/dx^j q_n = (-2 pi)^j e^(j(n+j-1)t) w g q_{n+2j}, one exp each
        q0, q1, q2 = ((-1) ** j * w * np.exp(_log_kernel(n + 2 * j, t, s) + log_g
                                              + j * (math.log(2.0 * math.pi) + (n + j - 1) * t))
                      for j in range(3))
        # d/dt log g, d/dr log g, (coth r + tanh r) d/dr log g and (d^2/dr^2 g) / g: rep 1's
        # sinh^6 u has none, rep 2's exp(-33 t) / cosh^3 r gives these
        g_t, g_r, g_d, g_rr = ((0.0, 0.0, 0.0, 0.0) if which == "rep1" else
                               (-REP2_RATE_SHIFT, -3.0 * tanh_r, -3.0 * (1.0 + tanh_r ** 2),
                                9.0 * tanh_r ** 2 - 3.0 / np.float64(cosh_r) ** 2))
        x, x_r = cosh_r * np.cosh(u), sinh_r * np.cosh(u)
        rows = np.array([q0,
                         (x_r ** 2 + np.sinh(u) ** 2) * q2 + n * x * q1 + g_t * q0,
                         (x + tanh_r * x_r) * q1 + g_d * q0,
                         x_r ** 2 * q2 + (x + 2.0 * g_r * x_r) * q1 + g_rr * q0])
    what = f"representation {which[-1]}'s heat residual at (t={t}, r={r}, eta={eta})"
    if not np.isfinite(rows).all():
        raise SeriesConvergenceError(f"{what}: its u-integrands leave double range")
    try:
        value, m_used, _ = _series_matrix(factor, 1, eta, rows[:1].astype(np.longdouble))
    except SeriesConvergenceError as exc:
        raise SeriesConvergenceError(f"{what}: {exc}") from exc
    p = float(value[0])
    if not usable(p):
        raise KernelRangeError(f"{what}: p is {p}", KernelResult(p, math.nan, m_used, u_max))
    factor = _integrand(which, t, r, u)[2]  # a fresh one: rep 1's steps its recurrence
    a = np.array([c_m * (rows @ f_m) for c_m, f_m in map(factor, range(m_used + 1))])
    decay = fiber_eigenvalue(np.arange(m_used + 1))
    dt = a[:, 1] - decay * a[:, 0]
    generator = a[:, 3] + 7.0 * a[:, 2] - tanh_r ** 2 * decay * a[:, 0]
    h = jacobi_sequence(m_used, [math.cos(eta), 1.0])
    h = h[:, 0] / h[:, 1]
    floor = np.finfo(dt.dtype).eps * float(np.abs(h) @ (np.abs(dt) + np.abs(generator)))
    return abs(float(h @ (dt - generator))), abs(float(h @ dt)), p, float(floor)


# Level L of a measure integral puts _LEVEL_NODES * 1.5^L Gauss-Legendre nodes on s (more at
# large t), y and eta; an integral stops at the first level that agrees with the one before
# to _MEASURE_TOL.  Every level reaches the radial cutoff of the largest growth an integrand
# may have, _MAX_GROWTH, that of the eigenfunction cosh r cos eta.
_LEVEL_NODES = (64, 32, 32)
_MEASURE_TOL = 1e-6
_MEASURE_LEVELS = 3
_MAX_GROWTH = 1.0


def _density_levels(t: float, which: str, levels):
    """The nodes of the given levels, in one pass, and the weight p_t and the measure put there.

    The kernel depends on (r, u) only through s, cosh s = cosh r cosh u, so a level integrates
    over (s, y), with v = cosh r sinh u = y sinh s: sinh r = sinh s sqrt(1 - y^2),
    tanh u = y tanh s and dr du = sinh^2 s / (sinh r cosh r) ds dy.  s runs up to the cutoff
    (14 + 2 _MAX_GROWTH) t + 10 sqrt(t) + 2 on the level's n nodes, or on n per 40 sqrt(t)
    where that is more (the kernel's width grows like sqrt(t)); past s = 709 (t > 40.3), where
    sinh overflows, it raises ValueError.  y runs up to min(1, tanh U coth s), the u cutoff
    U = default_u_max(t, 6 t) at every r: at large r the u-integrand decays on the scale 2t/r,
    and the point cutoff would overflow the continued fiber polynomials.  The integrand is
    _integrand's times sinh^2 s sinh^6 r cosh^6 r, one exp of a sum of logs per (s, y) node
    whose large terms are summed once per s node.  Each series is summed at the pole eta = 0,
    where it bounds its value at every eta as |P_m(cos eta)| <= P_m(1), and stops node by
    node, so a level has the same bits whichever levels it is built with.  Returns per level
    (r, etas, rows, cols, radial, angular), read-only: r on the (s, y) nodes as a column, eta
    as a row, rows[i, m] node i's weight times c_m, cols[m, j] P_m(cos eta_j) / P_m(1) times
    eta_j's weight, so that an integral is MEASURE_CONSTANT sum f (rows @ cols) on the grid,
    and the contractions radial = rows @ cols.sum(1) and angular = rows.sum(0) @ cols.  _level
    builds and holds the levels that weighted_integral reads.
    """
    s_max = (14.0 + 2.0 * _MAX_GROWTH) * t + 10.0 * math.sqrt(t) + 2.0
    if s_max > 709.0:
        raise ValueError(f"the {which} density at t = {t} leaves double range")
    parts = []  # per level: s nodes, y nodes per s node, y nodes, (s, y) weights, eta rule
    for level in levels:
        n_s, n_y, n_eta = (n * 3 ** level // 2 ** level for n in _LEVEL_NODES)
        s, w_s = gl_nodes(max(n_s, math.ceil(n_s * s_max / (40.0 * math.sqrt(t)))), 0.0, s_max)
        x, w_x = gl_nodes(n_y, 0.0, 1.0)
        y_max = np.minimum(1.0, math.tanh(default_u_max(t, 6.0 * t)) / np.tanh(s))
        parts.append((s, np.full(s.size, n_y), np.outer(y_max, x).ravel(),
                      np.outer(w_s * y_max, w_x).ravel(), *gl_nodes(n_eta, 0.0, math.pi)))
    s, n_y, y, w_sy, etas, w_eta = (np.concatenate(a) for a in zip(*parts))
    s_y = np.repeat(s, n_y)
    tanh_u = y * np.tanh(s_y)
    u = np.arctanh(tanh_u)
    one_minus_y2 = (1.0 - y) * (1.0 + y)
    r = np.arcsinh(np.sinh(s_y) * np.sqrt(one_minus_y2))
    n, log_g, factor = _integrand(which, t, r, u)
    # sinh^2 s sinh^6 r cosh^6 r = sinh^14 s / tanh^6 s (1 - y^2)^3 / cosh^6 u
    log_s = _log_kernel(n, t, s) + 14.0 * _log_sinh(s) - 6.0 * np.log(np.tanh(s))
    w_sy = w_sy * np.exp(np.repeat(log_s, n_y) + log_g
                         + 3.0 * np.log(one_minus_y2 * (1.0 - tanh_u) * (1.0 + tanh_u)))
    _, m_used, coeffs = _series_matrix(factor, u.size, 0.0)
    profiles = jacobi_sequence(m_used, np.append(np.cos(etas), 1.0))
    w_eta = profiles[:, :-1] / profiles[:, -1:] * (w_eta * np.sin(etas) ** 6)
    cut = lambda a, k: np.split(a, np.cumsum([p[k].size for p in parts])[:-1], axis=-1)
    out = []
    coeffs *= w_sy  # in place: the mode factors are the largest array of a build
    for r, c, etas, h in zip(cut(r, 2), cut(coeffs, 2), cut(etas, 4), cut(w_eta, 4)):
        m = max(np.flatnonzero(c.any(axis=1)), default=0)  # its degree; 0 if all underflowed
        rows, cols = c[:m + 1].T, h[:m + 1]
        out.append((r[:, None], etas[None, :], rows, cols, rows @ cols.sum(1), rows.sum(0) @ cols))
        for a in out[-1]:
            a.flags.writeable = False
    return tuple(out)


# The one store of levels: (t, which) of the last key read -> its levels, held read-only.
# No module constant is in the key: changing SERIES_TOL or SERIES_M_CAP needs _levels.clear().
_levels = {}


def _level(t: float, which: str, level: int):
    """Level `level` of _density_levels(t, which) from _levels.  The first read of a key drops
    the old key's levels before it builds levels 0 and 1 in one pass; level 2 is built on its
    first read and held with them, so at most _MEASURE_LEVELS levels, of one key, are held."""
    held = _levels.get((t, which))
    if held is None:
        _levels.clear()
        held = _levels[t, which] = list(_density_levels(t, which, (0, 1)))
    if level >= len(held):
        held[level:] = _density_levels(t, which, (level,))
    return held[level]


def weighted_integral(f, t: float, which: str = "rep1", f_growth: float = 0.0) -> float:
    """Integral of f(r, eta) against p_t and the reference measure.

    f is called once per level with r as a column and eta as a row, both read-only, and returns
    a finite real scalar, column, row or full grid that broadcasts to their grid, else
    ValueError.  A column is summed with the level's radial weight, a scalar or a row with its
    angular one, a grid through cols and rows.  f is bounded by C exp(a r) with a <= f_growth
    in [0, 1], 1 the growth of cosh r cos eta; each level reaches the cutoff 16 t + 10 sqrt(t)
    + 2 it needs.  Levels, read through _level, refine s, y and eta until two agree to 1e-6; a
    level sum that is not finite, or 0 where f is not, and no agreement raise
    QuadratureConvergenceError.  No call affects another's value.
    """
    t, f_growth = _real("t", t, MIN_TIME, _MAX), _real("f_growth", f_growth, 0.0, _MAX_GROWTH)
    sums = []
    for level in range(_MEASURE_LEVELS):
        r, etas, rows, cols, radial, angular = _level(t, which, level)
        values = np.asarray(f(r, etas))
        if np.iscomplexobj(values):
            raise ValueError(f"integrand is complex on the level-{level} nodes at t = {t}")
        values = values.astype(float, copy=False)
        v, grid = np.atleast_2d(values), (r.size, etas.size)
        if v.ndim > 2 or any(a not in (1, b) for a, b in zip(v.shape, grid)):
            raise ValueError(f"integrand of shape {values.shape} does not broadcast to {grid}")
        if not np.isfinite(values).all():
            raise ValueError(f"integrand not finite on the level-{level} nodes at t = {t}")
        with np.errstate(over="ignore", invalid="ignore"):  # a sum that is not finite raises
            cur = MEASURE_CONSTANT * float(  # scalar or row (a broadcast skips BLAS), column, grid
                np.broadcast_to(v[0], angular.shape) @ angular if v.shape[0] == 1 else
                v[:, 0] @ radial if v.shape[1] == 1 else np.vdot(rows.T @ v, cols))
        if not math.isfinite(cur) or (cur == 0.0 and values.any()):
            raise QuadratureConvergenceError(f"the level-{level} sum is {cur} at t = {t}")
        if sums and abs(cur - sums[-1]) <= _MEASURE_TOL * abs(cur) + 1e-280:
            return cur
        sums.append(cur)
    raise QuadratureConvergenceError(f"the {which} integral at t = {t} did not converge: its "
                                     f"last two level sums are {sums[-2]:.10g}, {sums[-1]:.10g}")


def total_mass(t: float, which: str = "rep1") -> float:
    """Mass of the kernel under the reference measure; constant in t."""
    return weighted_integral(lambda r, eta: np.ones_like(r), t, which=which)
