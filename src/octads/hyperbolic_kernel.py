"""Closed-form heat kernels of odd-dimensional real hyperbolic spaces.

For dimension n = 2k+1 the kernel at distance s is an explicit prefactor
times the k-fold application of -(1/sinh s) d/ds to the Gaussian
exp(-s^2/4t).  With x = cosh s that operator is -d/dx, and the result is
P_k(x) exp(-s^2/4t) with P_0 = 1, P_{j+1} = -P_j' + P_j F'/(4t), ' = d/dx and
F(x) = arccosh(x)^2.  F obeys (x^2 - 1) F'' + x F' = 2, which gives two-term
recurrences for its Taylor coefficients.  P_k is evaluated in floats: below
SMALL_S_SWITCH as a power series in w = cosh s - 1, above it per node in
Taylor mode about x0 = cosh s, P_k = (-1)^k k! [h^k] exp(-(F(x0+h) - F(x0))/4t).
The kernel is formed as its log, log pref + log P_k - s^2/4t, with Taylor mode's
1/sinh^k s as -k log sinh s, so no factor leaves double range; a caller adds the
logs of its own factors, sinh^14 s say, before the one exp.  Taylor mode reads s at most at
max(1e4, 100 t), where -s^2/4t <= -25 s outweighs any caller's (n - 1) log sinh s <= 18 s, so
the kernel and its products past it are 0; and at most at 1e150, where s^2 still fits.
"""

from __future__ import annotations

import math

import numpy as np

from .special_fn import _integer, _real, _reals

# Below the switch P_k is a power series of _SERIES_LENGTH terms in
# w = cosh s - 1 <= 0.89; arccosh(1 + w)^2 has radius 2 in w, so the dropped tail is below
# 2e-14 relative for every k <= 7, 2e-13 at k = 8 and 2e-12 at k = 9, for 0.05 <= t <= 40.
SMALL_S_SWITCH = 1.25
_SERIES_LENGTH = 64
_FAR = 1e4

MAX_DIMENSION = 19
# At dimension 19 the factor P_k grows like (1/4t)^9 and overflows below t = 2.5e-31
# (dimension 15: 4.5e-41, dimension 9: 2e-70); the floor lies a factor 4 above it.  The
# ceiling keeps 4 pi t, and s^2 / 4t at s = inf, in range.
TIME_FLOOR, _TIME_CEILING = 1e-30, 1e300


# F' for F = arccosh(1 + w)^2 in powers of w, F'_n = -n F'_{n-1}/(2n+1) from F'_0 = 2, with
# room for k = 9 derivatives
_DF_SERIES = 2.0 * np.cumprod([1.0] + [-n / (2.0 * n + 1.0) for n in range(1, _SERIES_LENGTH + 9)])


def _series_factor(k: int, t: float, w: np.ndarray) -> np.ndarray:
    """P_k at w = cosh s - 1; the series starts k terms longer, one per derivative."""
    p = np.zeros(_SERIES_LENGTH + k)
    p[0] = 1.0
    for _ in range(k):
        n = p.size - 1
        p = np.convolve(p[:n], _DF_SERIES[:n])[:n] / (4.0 * t) - np.arange(1, n + 1) * p[1:]
    out = np.full_like(w, p[-1])  # Horner's rule, in polyval's order, without numpy.polynomial
    for c in p[-2::-1]:
        out *= w
        out += c
    return out


def _log_sinh(s):
    """log sinh s for s > 0, finite wherever s is: s - log 2 + log(1 - e^(-2s))."""
    return s - math.log(2.0) + np.log(-np.expm1(-2.0 * s))


def _taylor_mode_factor(k: int, t: float, s: np.ndarray) -> np.ndarray:
    """log P_k at x0 = cosh s by Taylor mode, in the scaled step (x - x0)/sinh s.

    The scaled coefficients c_n of F stay O(s) for every s:
    c_{n+2} = (2 [n = 0] - coth(s) (n+1)(2n+1) c_{n+1} - n^2 c_n) / ((n+2)(n+1)).
    """
    s = np.minimum(s, min(max(_FAR, 100.0 * t), 1e150))  # the far clamp; no inf - inf below
    coth = 1.0 / np.tanh(s)
    c = [s * s, 2.0 * s]
    for n in range(k - 1):
        c.append(((2.0 if n == 0 else 0.0) - coth * (n + 1) * (2 * n + 1) * c[n + 1]
                  - n * n * c[n]) / ((n + 2) * (n + 1)))
    # e = exp(g) with g = -(F - F_0)/4t, from m e_m = sum_j j g_j e_{m-j}
    jg = [None] + [c[j] / -(4.0 * t) * j for j in range(1, k + 1)]
    e = [np.ones_like(s)]
    for m in range(1, k + 1):
        e.append(sum((jg[j] * e[m - j] for j in range(1, m + 1)), 0.0) / m)
    return np.log((-1) ** k * math.factorial(k) * e[k]) - k * _log_sinh(s)


def _log_lowering_factor(k: int, t: float, s: np.ndarray) -> np.ndarray:
    """log P_k, of the factor in front of exp(-s^2/4t), stable down to s = 0."""
    small = s < SMALL_S_SWITCH
    out = np.empty_like(s)
    if small.any():
        out[small] = np.log(_series_factor(k, t, 2.0 * np.sinh(0.5 * s[small]) ** 2))
    out[~small] = _taylor_mode_factor(k, t, s[~small])
    return out


# ---------------------------------------------------------------------------
# public kernel evaluations


def _check_dimension(n: int) -> int:
    n = _integer("dimension n", n, 1)
    if n % 2 == 0 or n > MAX_DIMENSION:
        raise ValueError(f"dimension n must be an odd integer in [1, {MAX_DIMENSION}], got {n}")
    return (n - 1) // 2


def _log_kernel(n: int, t: float, s) -> np.ndarray:
    """log of hyperbolic_heat_kernel at the checked t and distances s, as a 1-d array."""
    k = _check_dimension(n)
    s_arr = np.atleast_1d(s)
    log_pref = -k * k * t - k * math.log(2.0 * math.pi) - 0.5 * math.log(4.0 * math.pi * t)
    # past s = 1.3e154 (sooner at small t) or t = 4.5e307 the exponent is -inf: exp gives 0
    with np.errstate(over="ignore", divide="ignore"):
        return log_pref + _log_lowering_factor(k, t, s_arr) - s_arr * s_arr / (4.0 * t)


def hyperbolic_heat_kernel(n: int, t: float, s) -> float | np.ndarray:
    """Heat kernel of n-dimensional hyperbolic space at distance s, n odd.

    Normalized against the Riemannian volume: integrating the result times
    the sphere area Omega_{n-1} sinh^{n-1}(s) over s gives 1.  t in [TIME_FLOOR, 1e300] and s
    in [0, inf], else ValueError; where the closed form underflows, as at s = inf, it is 0.0.
    """
    t = _real("t", t, TIME_FLOOR, _TIME_CEILING)
    val = np.exp(_log_kernel(n, t, _reals("s", s, 0.0, math.inf)))
    return val if np.ndim(s) else float(val[0])


def composed_distance(r, u) -> np.ndarray | float:
    """Distance s with cosh(s) = cosh(r) cosh(u), computed without cancellation.

    Where sinh(r) cosh(u) overflows, s > 709 and s = log(2 cosh(r) cosh(u)) to
    double precision, which is r + u - log 2 + log1p(exp(-2 min(r, u))).  At
    (0, inf) the product is NaN, and hypot gives the right s = inf.
    """
    r_arr, u_arr = _reals("r", r, 0.0, math.inf), _reals("u", u, 0.0, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # far is inf past r + u = 1.8e308
        s = np.arcsinh(np.hypot(np.sinh(r_arr) * np.cosh(u_arr), np.sinh(u_arr)))
        far = r_arr + u_arr - math.log(2.0) + np.log1p(np.exp(-2.0 * np.minimum(r_arr, u_arr)))
    s = np.where(np.isinf(s), far, s)
    s = np.where(u_arr == 0.0, r_arr, s)
    return s if (np.ndim(r) or np.ndim(u)) else float(s)


def hyperbolic_heat_kernel_composed(n: int, t: float, r, u) -> float | np.ndarray:
    """Kernel evaluated at the composed argument cosh(r) cosh(u)."""
    return hyperbolic_heat_kernel(n, t, composed_distance(r, u))

