"""Octonion algebra, the split quadric |x|^2 - |y|^2 = -1, and cylindrical coordinates.

The quadric in two octonion slots carries the fibration whose radial heat
kernel the rest of the package computes.  This module owns the algebra
(multiplication table, conjugation, inverses) and the coordinate round trip
between the (fiber angle, base point) chart and quadric points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Index triples (i, j, k) with e_i e_j = +e_k.  Together with complete
# antisymmetry they determine every imaginary basis product.
GENERATOR_TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 7, 6),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 6, 5),
)


def _structure_tensor():
    """c[i, j, k], the coefficient of e_k in e_i e_j."""
    c = np.zeros((8, 8, 8))
    idx = np.arange(8)
    c[0, idx, idx] = c[idx, 0, idx] = 1.0
    c[idx[1:], idx[1:], 0] = -1.0
    for i, j, k in GENERATOR_TRIPLES:
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            c[a, b, d], c[b, a, d] = 1.0, -1.0
    return c


_STRUCTURE = _structure_tensor()


class Octonion:
    """An element of the real octonion algebra, stored as 8 coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"expected 8 coefficients, got shape {c.shape}")
        self.coeffs = c.copy()

    @classmethod
    def basis(cls, i: int) -> "Octonion":
        c = np.zeros(8)
        c[i] = 1.0
        return cls(c)

    @classmethod
    def zero(cls) -> "Octonion":
        return cls(np.zeros(8))

    @classmethod
    def one(cls) -> "Octonion":
        return cls.basis(0)

    def norm_sq(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def conj(self) -> "Octonion":
        c = self.coeffs.copy()
        c[1:] = -c[1:]
        return Octonion(c)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.coeffs + other.coeffs)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.coeffs - other.coeffs)

    def __neg__(self) -> "Octonion":
        return Octonion(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return oct_mul(self, other)
        return Octonion(self.coeffs * float(other))

    def __rmul__(self, other):
        return Octonion(self.coeffs * float(other))

    def __truediv__(self, other):
        return Octonion(self.coeffs / float(other))

    def __repr__(self):
        terms = " + ".join(f"{c:g}*e{i}" for i, c in enumerate(self.coeffs) if c != 0)
        return f"Octonion({terms or '0'})"


def oct_mul(a: Octonion, b: Octonion) -> Octonion:
    """Bilinear octonion product from the expanded basis table."""
    return Octonion(np.einsum("ijk,i,j->k", _STRUCTURE, a.coeffs, b.coeffs))


def oct_inverse(a: Octonion) -> Octonion:
    """Multiplicative inverse conj(a)/|a|^2; raises on the zero element."""
    n2 = a.norm_sq()
    if n2 == 0.0:
        raise ZeroDivisionError("zero octonion has no inverse")
    return Octonion(a.conj().coeffs / n2)


def pseudo_norm(x: Octonion, y: Octonion) -> float:
    """Split signature norm |x|^2 - |y|^2 of a point in the double slot."""
    return x.norm_sq() - y.norm_sq()


@dataclass(frozen=True)
class AdSPoint:
    """Point on the quadric |x|^2 - |y|^2 = -1."""

    x: Octonion
    y: Octonion

    QUADRIC_TOL = 1e-12

    def __post_init__(self):
        dev = abs(pseudo_norm(self.x, self.y) + 1.0)
        if dev > self.QUADRIC_TOL * max(1.0, self.y.norm_sq()):
            raise ValueError(f"point off the quadric by {dev:.3e}")


@dataclass(frozen=True)
class CylCoord:
    """Cylindrical chart: base point w (open unit ball) and 7 fiber angles."""

    w: Octonion
    theta: np.ndarray = field(default_factory=lambda: np.zeros(7))

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (7,):
            raise ValueError("theta must have 7 components")
        object.__setattr__(self, "theta", th.copy())
        if not self.rho < 1.0:  # NaN fails
            raise ValueError(f"|w| = {self.rho} must be < 1")
        if not self.eta < np.pi:
            raise ValueError(f"|theta| = {self.eta} must be < pi")

    @property
    def rho(self) -> float:
        return self.w.norm()

    @property
    def eta(self) -> float:
        return float(np.linalg.norm(self.theta))


def fiber_exponential(theta) -> Octonion:
    """Unit octonion cos(|theta|) e0 + sin(|theta|)/|theta| * sum theta_i e_i.

    The geodesic through the pole e0 of the unit sphere of octonions, with the
    canonical tangent frame e_1..e_7.  The |theta| -> 0 limit is handled by
    series (removable singularity of sin(x)/x).
    """
    th = np.asarray(theta, dtype=float)
    eta = float(np.linalg.norm(th))
    c = np.zeros(8)
    c[0] = np.cos(eta)
    if eta < 1e-6:
        sinc = 1.0 - eta * eta / 6.0 + eta ** 4 / 120.0
    else:
        sinc = np.sin(eta) / eta
    c[1:] = sinc * th
    return Octonion(c)


def cyl_to_ads(c: CylCoord) -> AdSPoint:
    """Map cylindrical coordinates to a quadric point (g*w, g)/sqrt(1-rho^2)."""
    g = fiber_exponential(c.theta)
    denom = np.sqrt(1.0 - c.rho ** 2)
    return AdSPoint(x=oct_mul(g, c.w) / denom, y=g / denom)


def ads_project(p: AdSPoint) -> Octonion:
    """Fibration map (x, y) -> y^{-1} x onto the open unit ball."""
    return oct_mul(oct_inverse(p.y), p.x)
