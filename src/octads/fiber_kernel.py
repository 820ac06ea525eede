"""Radial heat kernel on the 7-sphere fiber and its analytic continuation.

The kernel is the spectral series over Jacobi (5/2, 5/2) eigenfunctions with
eigenvalues m(m+6).  Setting the second argument to cosh(u) instead of cos(u)
continues the series to the hyperbolic range, which is how the fiber enters
the first integral representation of the full kernel.  Its mode loop,
_series_matrix, sums the modes of both representations: term m is a mode factor
c_m f_m(u), read per u node or integrated over u, times P_m(cos eta) / P_m(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_fn import gl_nodes, jacobi_next, jacobi_norm_sq, jacobi_sequence


class SeriesConvergenceError(RuntimeError):
    """Spectral series failed to meet its tail bound within the degree cap."""


# Truncation of every fiber series: a row stops after two consecutive terms below SERIES_TOL
# of its sum and fails past degree SERIES_M_CAP (see _series_matrix).  Read at call time.
SERIES_TOL = 1e-12
SERIES_M_CAP = 256


@dataclass(frozen=True)
class FiberKernelValue:
    value: float
    m_used: int
    tail_bound: float


def fiber_eigenvalue(m: int) -> int:
    """Eigenvalue m(m+6) of degree m."""
    return m * (m + 6)


def fiber_mode_multiplicity(m: int) -> int:
    """Dimension (m+3)/3 * C(m+5, 5) of the degree-m eigenspace on the 7-sphere.

    These are the weights with which the modes enter the expansion of a point
    mass at the pole: 1, 8, 35, 112, 294, 672, ...
    """
    num = (m + 3) * math.comb(m + 5, 5)
    assert num % 3 == 0
    return num // 3


def _series_matrix(factor, n_rows: int, eta, wq=None):
    """The one mode loop: sum_m a_m h_m(eta) on n_rows rows at the angle eta.

    h_m = P_m(cos eta) / P_m(1) is the normalized mode profile, stepped here by
    the Jacobi recurrence, P_m(1) included.  factor(m) returns the mode factor
    (c_m, f_m), a scalar and an array on the u nodes, for m = 0, 1, ... in turn.
    Row i's coefficient a_m is c_m f_m[i], one row per u node, or, given the
    weights wq[n_rows, n_u], the u-integral c_m (wq[i] @ f_m).  Each row stops
    on its own, at degree 4 at the earliest, after two consecutive degrees
    whose bound |a_m| (at the pole, since |h_m| <= 1) is below SERIES_TOL of
    its own sum: across rows the values span hundreds of orders of magnitude,
    so a rule for all rows would cut the small rows short.  A non-finite
    coefficient, and a row still summing at SERIES_M_CAP, raise.
    The u-integrals, profiles and sums are formed in the dtype of wq: a point
    passes long double, since its sums near eta = pi cancel to 1e-7 of their
    terms; summed in double, point values at t <= 0.2 moved by up to 2.8e-9
    relative, above POINT_TOL, and 4 of 504 points flipped to or from a refusal.
    Returns (sums[n_rows], m_used, coeffs), where coeffs[m] holds every row's
    a_m, 0 once the row has stopped.
    """
    # the profile's arguments: eta and the pole, cos 0 = 1
    x = np.cos(np.array([eta, 0.0], dtype=float if wq is None else wq.dtype))
    out = np.empty(n_rows)
    coeffs = []
    # the rows still summing, their sums and whether their last term was small; live selects
    # the rows whose coefficients are formed, a slice until the first row stops
    rows, live = np.arange(n_rows), slice(None)
    sums = np.zeros(n_rows, x.dtype)
    was_small = np.zeros(n_rows, dtype=bool)
    p = p2 = None
    for m in range(SERIES_M_CAP + 1):
        p, p2 = (np.ones_like(x) if m == 0 else jacobi_next(m, x, p, p2)), p
        # an overflow in a_m is reported by the isfinite check below, under any errstate
        with np.errstate(over="ignore", invalid="ignore"):
            c_m, f_m = factor(m)
            a = c_m * (f_m[live] if wq is None else wq[live] @ f_m)
        bound = abs(a)
        if not np.isfinite(bound.max()):
            raise SeriesConvergenceError(
                f"degree-{m} polynomial overflowed in the series coefficients; "
                "the requested t and u are outside the supported range")
        coeffs.append(np.zeros(n_rows))
        coeffs[m][live] = a
        sums += a * (p[0] / p[1])
        small = bound <= SERIES_TOL * np.maximum(abs(sums), 1e-300)
        done = small & was_small
        was_small = small
        if m >= 4 and done.any():
            out[rows[done]] = sums[done]
            keep = ~done
            rows, sums, was_small = rows[keep], sums[keep], small[keep]
            live = rows
            if rows.size == 0:
                return out, m, np.array(coeffs)
    raise SeriesConvergenceError(f"series not converged at degree cap {SERIES_M_CAP}")


def _fiber_coeff(t, x):
    """factor(m) of the fiber series at the second arguments x (cos u, or cosh u when
    continued): (exp(-m(m+6) t) P_m(1) / N_m, P_m(x)), P_m stepped once per call."""
    x = np.append(x, 1.0)
    p = p2 = None

    def factor(m):
        nonlocal p, p2
        p, p2 = (np.ones_like(x) if m == 0 else jacobi_next(m, x, p, p2)), p
        return (1.0 / jacobi_norm_sq(m)) * math.exp(-fiber_eigenvalue(m) * t) * p[-1], p[:-1]
    return factor


def _check_fiber_args(t: float, eta: float):
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    if not 0.0 <= eta <= math.pi:
        raise ValueError("eta must lie in [0, pi]")


def fiber_heat_kernel(t: float, eta: float, u: float,
                      continued: bool = False) -> FiberKernelValue:
    """Fiber kernel at angles (eta, u), or at (eta, iu) when continued.

    For the continued branch u is the hyperbolic coordinate (second argument
    cosh u); otherwise u is an angle in [0, pi] like eta.  The coefficients
    are 1/N_m from the orthogonality norms, so the kernel integrates to 1
    against the sin^6 weight.  The display with 2/N_m, which integrates to 2,
    is kept and checked in scripts/reconcile_constants.py.  tail_bound is the
    last term plus the rounding floor (m_used + 1) eps sum_m |a_m h_m(eta)|; a
    value not above it, as at small t and eta near pi, raises
    SeriesConvergenceError.
    """
    _check_fiber_args(t, eta)
    if continued:
        if not u >= 0.0:
            raise ValueError("continued coordinate must be nonnegative")
    elif not 0.0 <= u <= math.pi:
        raise ValueError("u must lie in [0, pi]")
    with np.errstate(over="ignore"):  # past u = 710 _series_matrix reports the overflow
        x = np.cosh(u) if continued else np.cos(u)
    out, m_used, coeffs = _series_matrix(_fiber_coeff(t, [x]), 1, eta)
    a, h = coeffs[:, 0], jacobi_sequence(m_used, [math.cos(eta), 1.0])
    bound = abs(a[-1]) + (m_used + 1) * np.finfo(float).eps * np.abs(a * h[:, 0] / h[:, 1]).sum()
    if not bound < abs(out[0]):
        raise SeriesConvergenceError(f"fiber series value {out[0]:.3e} at (t={t}, eta={eta}, "
                                     f"u={u}) is within its tail and rounding bound {bound:.1e}")
    return FiberKernelValue(value=float(out[0]), m_used=m_used, tail_bound=float(bound))


def _s5_rule(degree: int):
    """Nodes x = cos phi and weights of the sin^5 phi average on S^5, exact for every
    polynomial in x of degree <= degree, such as (cos eta + i sin eta x)^degree."""
    x, w = gl_nodes(degree // 2 + 3, -1.0, 1.0)
    return x, (15.0 / 16.0) * w * (1.0 - x * x) ** 2


def fiber_mode_profile(m: int, eta: float) -> float:
    """Normalized angular profile of degree-m modes, equal to 1 at the pole.

    The sin^5 phi average of (cos eta + i sin eta cos phi)^m by _s5_rule(m); the
    imaginary residue vanishes by symmetry and is asserted small.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    x, w = _s5_rule(m)
    val = np.sum(w * (np.cos(eta) + 1j * np.sin(eta) * x) ** m)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise AssertionError(f"imaginary residue {val.imag:.3e} exceeds tolerance")
    return float(val.real)
