"""Closed-form heat kernels of odd-dimensional real hyperbolic spaces.

For dimension n = 2k+1 the kernel at distance s is an explicit prefactor
times the k-fold application of -(1/sinh s) d/ds to the Gaussian
exp(-s^2/4t).  With x = cosh s that operator is -d/dx, and the result is
P_k(x) exp(-s^2/4t) with P_0 = 1, P_{j+1} = -P_j' + P_j F'/(4t), ' = d/dx and
F(x) = arccosh(x)^2.  F obeys (x^2 - 1) F'' + x F' = 2, which gives two-term
recurrences for its Taylor coefficients.  P_k is evaluated in floats: below
SMALL_S_SWITCH as a power series in w = cosh s - 1, above it per node in
Taylor mode about x0 = cosh s, P_k = (-1)^k k! [h^k] exp(-(F(x0+h) - F(x0))/4t).

The exact expansion of the same derivative into canonical terms
coeff(1/t) s^pow_s csch(s)^pow_csch coth(s)^pow_coth, with rational
polynomial coefficients in 1/t, is kept for `octads hyperbolic --dump-terms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Below the switch P_k is a power series of _SERIES_LENGTH terms in
# w = cosh s - 1 <= 0.89; arccosh(1 + w)^2 has radius 2 in w, so the
# dropped tail is below 1e-14 relative for every k <= 7 and t >= 0.05.
SMALL_S_SWITCH = 1.25
_SERIES_LENGTH = 64
_SINH_POWER_MAX = 100.0

MAX_DIMENSION = 15


def _arccosh_sq_slope(n_terms: int) -> np.ndarray:
    """F' for F = arccosh(1 + w)^2 in powers of w: F'_0 = 2, F'_n = -n F'_{n-1}/(2n+1)."""
    n = np.arange(1.0, n_terms)
    return 2.0 * np.cumprod(np.concatenate(([1.0], -n / (2.0 * n + 1.0))))


_DF_SERIES = _arccosh_sq_slope(_SERIES_LENGTH + 7)  # room for k = 7 derivatives


def _series_factor(k: int, t: float, w: np.ndarray) -> np.ndarray:
    """P_k at w = cosh s - 1; the series starts k terms longer, one per derivative."""
    p = np.zeros(_SERIES_LENGTH + k)
    p[0] = 1.0
    for _ in range(k):
        n = p.size - 1
        p = np.convolve(p[:n], _DF_SERIES[:n])[:n] / (4.0 * t) - np.arange(1, n + 1) * p[1:]
    return np.polynomial.polynomial.polyval(w, p)


def _taylor_mode_factor(k: int, t: float, s: np.ndarray) -> np.ndarray:
    """P_k at x0 = cosh s by Taylor mode, in the scaled step (x - x0)/sinh s.

    The scaled coefficients c_n of F stay O(s) for every s:
    c_{n+2} = (2 [n = 0] - coth(s) (n+1)(2n+1) c_{n+1} - n^2 c_n) / ((n+2)(n+1)).
    """
    coth = 1.0 / np.tanh(s)
    c = [s * s, 2.0 * s]
    for n in range(k - 1):
        c.append(((2.0 if n == 0 else 0.0) - coth * (n + 1) * (2 * n + 1) * c[n + 1]
                  - n * n * c[n]) / ((n + 2) * (n + 1)))
    # e = exp(g) with g = -(F - F_0)/4t, from m e_m = sum_j j g_j e_{m-j}
    g = [-cn / (4.0 * t) for cn in c]
    e = [np.ones_like(s)]
    for m in range(1, k + 1):
        e.append(sum(j * g[j] * e[m - j] for j in range(1, m + 1)) / m)
    # sinh(s)**7 overflows beyond s = 102.9; past the cap, sinh s = sinh(cap) e^(s - cap)
    # to double precision, and exp(-k (s - cap)) cannot overflow
    capped = np.minimum(s, _SINH_POWER_MAX)
    return ((-1) ** k * math.factorial(k) * e[k] / np.sinh(capped) ** k
            * np.exp(-k * (s - capped)))


def _lowering_factor(k: int, t: float, s: np.ndarray) -> np.ndarray:
    """The factor P_k in front of exp(-s^2/4t), stable down to s = 0."""
    small = s < SMALL_S_SWITCH
    out = np.empty_like(s)
    out[small] = _series_factor(k, t, 2.0 * np.sinh(0.5 * s[small]) ** 2)
    out[~small] = _taylor_mode_factor(k, t, s[~small])
    return out


# ---------------------------------------------------------------------------
# exact term table of the lowering operator, for --dump-terms


@dataclass(frozen=True)
class ExpTerm:
    """One canonical term; coeff maps powers of (1/t) to rationals."""

    pow_s: int
    pow_csch: int
    pow_coth: int
    coeff: tuple  # ((j, Fraction), ...) sorted by j


class ExpTermSum:
    """Canonical sum of ExpTerms keyed by the exponent triple."""

    def __init__(self, data=None):
        # data: {(pow_s, pow_csch, pow_coth): {j: Fraction}}
        self._data = {}
        if data:
            for key, poly in data.items():
                clean = {j: q for j, q in poly.items() if q != 0}
                if clean:
                    self._data[key] = clean

    @classmethod
    def gaussian(cls) -> "ExpTermSum":
        """The bare Gaussian: a single unit term."""
        return cls({(0, 0, 0): {0: Fraction(1)}})

    def __len__(self):
        return len(self._data)

    def __add__(self, other: "ExpTermSum") -> "ExpTermSum":
        out = {k: dict(v) for k, v in self._data.items()}
        for key, poly in other._data.items():
            tgt = out.setdefault(key, {})
            for j, q in poly.items():
                tgt[j] = tgt.get(j, Fraction(0)) + q
        return ExpTermSum(out)

    def terms(self) -> list[ExpTerm]:
        """Terms sorted by descending (pow_csch, pow_coth, pow_s)."""
        keys = sorted(self._data, key=lambda k: (k[1], k[2], k[0]), reverse=True)
        return [
            ExpTerm(pow_s=a, pow_csch=b, pow_coth=c,
                    coeff=tuple(sorted(self._data[(a, b, c)].items())))
            for (a, b, c) in keys
        ]

    def items(self):
        return self._data.items()


def apply_lowering(term_sum: ExpTermSum, sign: int = -1) -> ExpTermSum:
    """One application of sign * (1/sinh s) d/ds to term_sum * Gaussian.

    Differentiation rules on a term s^a csch^b coth^c exp(-s^2/4t):
      d/ds -> a s^(a-1) csch^b coth^c  - b s^a csch^b coth^(c+1)
              - c s^a csch^(b+2) coth^(c-1) - (1/2t) s^(a+1) csch^b coth^c
    followed by multiplication with csch.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = {}

    def add(key, j, val):
        poly = out.setdefault(key, {})
        poly[j] = poly.get(j, Fraction(0)) + val

    for (a, b, c), poly in term_sum.items():
        for j, q in poly.items():
            v = sign * q
            if a >= 1:
                add((a - 1, b + 1, c), j, v * a)
            if b >= 1:
                add((a, b + 1, c + 1), j, -v * b)
            if c >= 1:
                add((a, b + 3, c - 1), j, -v * c)
            add((a + 1, b + 1, c), j + 1, -v * Fraction(1, 2))
    return ExpTermSum(out)


@lru_cache(maxsize=None)
def lowering_terms(k: int) -> ExpTermSum:
    """k-fold application of -(1/sinh s) d/ds to the Gaussian, cached."""
    if k == 0:
        return ExpTermSum.gaussian()
    return apply_lowering(lowering_terms(k - 1), sign=-1)


# ---------------------------------------------------------------------------
# public kernel evaluations


def _check_dimension(n: int) -> int:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"dimension must be a positive odd integer, got {n}")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimensions above {MAX_DIMENSION} are not supported")
    return (n - 1) // 2


def hyperbolic_heat_kernel(n: int, t: float, s) -> float | np.ndarray:
    """Heat kernel of n-dimensional hyperbolic space at distance s, n odd.

    Normalized against the Riemannian volume: integrating the result times
    the sphere area Omega_{n-1} sinh^{n-1}(s) over s gives 1.
    """
    k = _check_dimension(n)
    if t <= 0:
        raise ValueError("time must be positive")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < 0):
        raise ValueError("distance must be nonnegative")
    pref = math.exp(-k * k * t) / ((2.0 * math.pi) ** k * math.sqrt(4.0 * math.pi * t))
    val = pref * _lowering_factor(k, t, s_arr) * np.exp(-s_arr * s_arr / (4.0 * t))
    return val if np.ndim(s) else float(val[0])


def composed_distance(r, u) -> np.ndarray | float:
    """Distance s with cosh(s) = cosh(r) cosh(u), computed without cancellation."""
    r_arr = np.asarray(r, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    s = np.arcsinh(np.hypot(np.sinh(r_arr) * np.cosh(u_arr), np.sinh(u_arr)))
    s = np.where(u_arr == 0.0, r_arr, s)
    return s if (np.ndim(r) or np.ndim(u)) else float(s)


def hyperbolic_heat_kernel_composed(n: int, t: float, r, u) -> float | np.ndarray:
    """Kernel evaluated at the composed argument cosh(r) cosh(u)."""
    r_arr = np.asarray(r, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    if np.any(r_arr < 0) or np.any(u_arr < 0):
        raise ValueError("distances must be nonnegative")
    return hyperbolic_heat_kernel(n, t, composed_distance(r, u))


def _format_coeff(poly: tuple) -> str:
    parts = []
    for j, q in poly:
        if j == 0:
            parts.append(str(q))
        elif j == 1:
            parts.append(f"{q}/t")
        else:
            parts.append(f"{q}/t^{j}")
    return " + ".join(parts)


def dump_term_table(n: int) -> list[str]:
    """One line per canonical term: coeff, pow_s, pow_csch, pow_coth.

    Lines are ordered by descending (pow_csch, pow_coth, pow_s) so the table
    is stable and diffable; the first line has the highest csch power.
    """
    k = _check_dimension(n)
    return [f"{_format_coeff(term.coeff)},{term.pow_s},{term.pow_csch},{term.pow_coth}"
            for term in lowering_terms(k).terms()]
