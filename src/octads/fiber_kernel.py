"""Radial heat kernel on the 7-sphere fiber and its analytic continuation.

The kernel is the spectral series over Jacobi (5/2, 5/2) eigenfunctions with
eigenvalues m(m+6).  Setting the second argument to cosh(u) instead of cos(u)
continues the series to the hyperbolic range, which is how the fiber enters
the first integral representation of the full kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_fn import jacobi_end_value, jacobi_next, jacobi_norm_sq


class SeriesConvergenceError(RuntimeError):
    """Spectral series failed to meet its tail bound within the degree cap."""


# Truncation of every spectral series: it stops after two consecutive terms below SERIES_TOL
# of the running sum and fails past degree SERIES_M_CAP.  Read at call time.
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


def _series_matrix(t, etas, us, continued):
    """Spectral series evaluated on the grid etas x us.

    Returns (matrix, m_used, tail_bound, terms), where terms[m] holds the
    u-factor d_m P_m(x) of degree m, d_m = exp(-m(m+6) t) / N_m, at every u
    node; the matrix sums d_m P_m(cos eta) P_m(x) over the degrees.  The tail
    rule bounds the next term by d_m P_m(x_max) P_m(1), with P_m read at the
    largest second argument, one of the u nodes, and compares it with the
    largest partial sum on the grid; termination needs two consecutive passes,
    and a series still running at SERIES_M_CAP raises.  This is the only
    truncation rule: the nodes and the cutoff are the caller's, and the degree
    always adapts.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    us = np.atleast_1d(np.asarray(us, dtype=float))
    xe = np.cos(etas)
    xu = np.cosh(us) if continued else np.cos(us)
    i_max = int(np.argmax(xu))
    x_max = float(xu[i_max])

    out = np.zeros((etas.size, us.size))
    # degree m at the eta nodes, the u nodes and x_max (a u node); the *2 names hold m-1
    pe, pu, pb = np.ones_like(xe), np.ones_like(xu), 1.0
    pe2 = pu2 = None
    terms = []
    scale = 0.0
    below = 0
    last_bound = math.inf

    for m in range(SERIES_M_CAP + 1):
        if m >= 1:
            # an overflow here is caught by the isfinite check below, under any errstate
            with np.errstate(over="ignore", invalid="ignore"):
                pe, pe2 = jacobi_next(m, xe, pe, pe2), pe
                pu, pu2 = jacobi_next(m, xu, pu, pu2), pu
            pb = float(pu[i_max])
        if not np.isfinite(pb):
            raise SeriesConvergenceError(
                f"degree-{m} polynomial overflowed at argument {x_max:.3e}; "
                "the requested (t, u_max) combination is outside the supported range"
            )
        damp = (1.0 / jacobi_norm_sq(m)) * math.exp(-fiber_eigenvalue(m) * t)
        out += damp * np.outer(pe, pu)
        terms.append(damp * pu)
        scale = max(scale, float(np.max(np.abs(out))))
        last_bound = damp * abs(pb) * jacobi_end_value(m)
        below = below + 1 if last_bound <= SERIES_TOL * max(scale, 1e-300) else 0
        if m >= 2 and below >= 2:
            return out, m, last_bound, np.array(terms)
    raise SeriesConvergenceError(
        f"series not converged at degree cap {SERIES_M_CAP} (t={t}, bound={last_bound:.3e})"
    )


def fiber_heat_kernel(t: float, eta: float, u: float,
                      continued: bool = False) -> FiberKernelValue:
    """Fiber kernel at angles (eta, u), or at (eta, iu) when continued.

    For the continued branch u is the hyperbolic coordinate (second argument
    cosh u); otherwise u is an angle in [0, pi] like eta.  The coefficients
    are 1/N_m from the orthogonality norms, so the kernel integrates to 1
    against the sin^6 weight.  The display with 2/N_m, which integrates to 2,
    is kept and checked in scripts/reconcile_constants.py.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    if not 0.0 <= eta <= math.pi:
        raise ValueError("eta must lie in [0, pi]")
    if continued:
        if not u >= 0.0:
            raise ValueError("continued coordinate must be nonnegative")
    elif not 0.0 <= u <= math.pi:
        raise ValueError("u must lie in [0, pi]")
    mat, m_used, tail, _ = _series_matrix(t, eta, u, continued)
    return FiberKernelValue(value=float(mat[0, 0]), m_used=m_used, tail_bound=tail)


def fiber_mode_profile(m: int, eta: float) -> float:
    """Normalized angular profile of degree-m modes, equal to 1 at the pole.

    Computed from the integral of (cos eta + i sin eta cos phi)^m against
    sin^5(phi), rewritten with x = cos(phi) so the integrand is a polynomial
    and the Gauss-Legendre rule is exact.  The imaginary residue vanishes by
    symmetry and is asserted small.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    from .special_fn import gl_nodes

    n_nodes = (m + 7) // 2 + 8
    x, w = gl_nodes(n_nodes, -1.0, 1.0)
    z = np.cos(eta) + 1j * np.sin(eta) * x
    val = (15.0 / 16.0) * np.sum(w * z ** m * (1.0 - x * x) ** 2)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise AssertionError(f"imaginary residue {val.imag:.3e} exceeds tolerance")
    return float(val.real)
