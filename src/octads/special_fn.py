"""Jacobi polynomials, Gauss-Legendre rules and the terminating hypergeometric sum.

Everything here is evaluated by three-term recurrences; closed-form
normalization constants go through lgamma to stay inside double range.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import lru_cache

import numpy as np

# The checks of every public entry: a ValueError naming the argument and its range refuses a
# dtype not integer or float (bool, complex, str, None), NaN and values outside [lo, hi].
_TINY, _MAX = 5e-324, sys.float_info.max  # open ends, written (0 and inf), and -_MAX (-inf


def _interval(lo, hi) -> str:
    left = "(0" if lo == _TINY else "(-inf" if lo == -_MAX else f"[{lo:.6g}"
    return left + (", inf)" if hi == _MAX else f", {hi:.6g}]")


def _integer(name: str, v, lo: int) -> int:
    """v as a Python int, since numpy's integers wrap; anything but an integer in [lo, 2**64)
    raises.  np.bool_ and bool arrays have no integer index; bool, an int subclass, is named."""
    try:
        i = operator.index(v)
    except TypeError:
        i = None
    if i is None or isinstance(v, bool) or not lo <= i < 2**64:
        raise ValueError(f"{name} must be an integer in [{lo}, inf), got {v!r}")
    return i


def _reals(name: str, v, lo: float, hi: float) -> np.ndarray:
    """v as a float64 array of real numbers in [lo, hi], compared in float64."""
    a = np.asarray(v)
    if a.dtype.kind in "iuf":
        with np.errstate(over="ignore"):  # a long double past double range becomes inf
            a = a.astype(float)
        if ((a >= lo) & (a <= hi)).all():  # NaN fails
            return a
    raise ValueError(f"{name} must be a real number in {_interval(lo, hi)}, got {v!r}")


def _real(name: str, v, lo: float, hi: float) -> float:
    """v as a Python float in [lo, hi], checked as _reals checks; a 1-d or larger array raises."""
    a = np.asarray(v)
    if a.dtype.kind in "iuf" and a.ndim == 0 and lo <= float(a) <= hi:  # NaN fails
        return float(a)
    raise ValueError(f"{name} must be a real number in {_interval(lo, hi)}, got {v!r}")


def _values(name: str, v, where: str) -> np.ndarray:
    """f's values as float64, uncopied if so; bool passes: an indicator's mean is a probability."""
    a = np.asarray(v)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} is {'complex' if a.dtype.kind == 'c' else 'not real'} {where}")
    with np.errstate(over="ignore"):  # a long double past double range becomes inf
        a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} is not finite {where}")
    return a


def jacobi_next(n: int, x, p1, p2, alpha: float = 2.5, beta: float = 2.5):
    """Degree n of the Jacobi family from degrees n-1 (p1) and n-2 (p2).

    The standard three-term recurrence; at n = 1 it returns the linear
    polynomial and ignores p1 and p2.  Valid for any real x, including
    |x| > 1 where the polynomial is its own analytic continuation.
    """
    if n == 1:
        return (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    a_n = 2.0 * n * (n + alpha + beta) * (2.0 * n + alpha + beta - 2.0)
    b1 = (2.0 * n + alpha + beta - 1.0) * (2.0 * n + alpha + beta) * (2.0 * n + alpha + beta - 2.0)
    b0 = (2.0 * n + alpha + beta - 1.0) * (alpha * alpha - beta * beta)
    c_n = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + alpha + beta)
    return ((b1 * x + b0) * p1 - c_n * p2) / a_n


def jacobi_sequence(m_max: int, x) -> np.ndarray:
    """All (5/2, 5/2) degrees 0..m_max at once, stacked on a new leading axis."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((m_max + 1,) + x.shape)
    out[0] = 1.0
    for n in range(1, m_max + 1):
        out[n] = jacobi_next(n, x, out[n - 1], out[n - 2])
    return out


def jacobi_poly(m: int, x):
    """Degree-m (5/2, 5/2) Jacobi polynomial at real x; scalar in, scalar out, or arrays.  A
    value past double range raises ValueError."""
    m, xs = _integer("degree", m, 0), _reals("x", x, -_MAX, _MAX)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        p = jacobi_sequence(m, xs)[m]
    if not np.isfinite(p).all():
        raise ValueError(f"the degree-{m} Jacobi polynomial leaves double range at x = {x!r}")
    return p if np.ndim(x) else float(p[0])


def jacobi_end_value(m: int) -> float:
    """Value at x = 1 of degree m: Gamma(m + 7/2) / (m! Gamma(7/2))."""
    m = _integer("degree", m, 0)
    return math.exp(math.lgamma(m + 3.5) - math.lgamma(m + 1.0) - math.lgamma(3.5))


def jacobi_norm_sq(m: int) -> float:
    """Orthogonality norm of the (5/2, 5/2) family under the sin^6 weight.

    Equals the integral over [0, pi] of [P_m(cos eta)]^2 sin^6(eta), via the
    closed-form constant 2^6/(2m+6) * Gamma(m+7/2)^2 / (Gamma(m+6) m!).
    """
    m = _integer("degree", m, 0)
    lg = (
        6.0 * math.log(2.0)
        - math.log(2.0 * m + 6.0)
        + 2.0 * math.lgamma(m + 3.5)
        - math.lgamma(m + 6.0)
        - math.lgamma(m + 1.0)
    )
    return math.exp(lg)


def hyp2f1_terminating(m: int, x: float) -> float:
    """The finite sum 2F1(m+3, -m-3, 1/2; (1-x)/2), which has m+4 terms.

    Term k+1 is term k times (m+3+k)(k-m-3) z / ((k+1/2)(k+1)), z = (1-x)/2, so no
    factorial is formed.  For x >= 1 every term is nonnegative, which is the regime the
    kernel evaluation uses (argument cosh u).  x is real; a sum past double range raises.
    """
    m, x = _integer("degree", m, 0), _real("x", x, -_MAX, _MAX)
    z = (1.0 - x) / 2.0
    term = total = 1.0
    for k in range(m + 3):
        term *= (m + 3 + k) * (k - m - 3) / ((k + 0.5) * (k + 1)) * z
        total += term
    if not math.isfinite(total):
        raise ValueError(f"the degree-{m} sum 2F1 leaves double range at x = {x!r}")
    return total


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes and weights on [-1, 1].

    Newton's method on P_n from Tricomi's asymptotic guess, vectorized over
    the nonpositive half of the nodes and mirrored; three or four sweeps of
    the recurrence reach rounding level, and the last one also gives the
    weights.  O(n^2) time and O(n) memory, where an eigenvalue solve of the
    companion matrix costs O(n^3) and O(n^2).
    """
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs at least one node")
    k = np.arange(1, n // 2 + 1)
    x = -(1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos((4.0 * k - 1.0) * math.pi / (4.0 * n + 2.0))
    if n % 2:
        x = np.append(x, 0.0)
    for _ in range(10):
        p, q = x, np.ones_like(x)  # P_j and P_{j-1}: Legendre is Jacobi (0, 0)
        for j in range(2, n + 1):
            p, q = jacobi_next(j, x, p, q, 0.0, 0.0), p
        dp = n * (x * p - q) / (x * x - 1.0)
        step = p / dp
        if np.max(np.abs(step)) <= 1e-15:
            break
        x -= step
    # 2 / ((1 - x^2) P_n'^2) at the node x - step, to first order in the step;
    # near the ends this is ~10x more accurate than at x itself.
    w = 2.0 / ((1.0 - x * x) * dp * dp - 2.0 * x * p * dp)
    x -= step
    neg = slice(n // 2)  # the strictly negative nodes, mirrored onto the positive half
    return np.concatenate([x, -x[neg][::-1]]), np.concatenate([w, w[neg][::-1]])


def gl_nodes(n: int, a: float, b: float):
    """Gauss-Legendre rule mapped to [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w
