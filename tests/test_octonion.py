import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octads.octonion import (
    AdSPoint,
    CylCoord,
    GENERATOR_TRIPLES,
    Octonion,
    ads_project,
    cyl_to_ads,
    fiber_exponential,
    oct_inverse,
    oct_mul,
    pseudo_norm,
)
from conftest import random_octonion


def basis(i):
    return Octonion.basis(i)


class TestMultiplicationTable:
    def test_generator_triples(self):
        for i, j, k in GENERATOR_TRIPLES:
            prod = oct_mul(basis(i), basis(j))
            assert np.array_equal(prod.coeffs, basis(k).coeffs), (i, j, k)

    def test_antisymmetry_of_triples(self):
        for i, j, k in GENERATOR_TRIPLES:
            prod = oct_mul(basis(j), basis(i))
            assert np.array_equal(prod.coeffs, -basis(k).coeffs)

    def test_identity_both_sides(self, rng):
        x = random_octonion(rng)
        left = oct_mul(Octonion.one(), x)
        right = oct_mul(x, Octonion.one())
        assert np.allclose(left.coeffs, x.coeffs, atol=0)
        assert np.allclose(right.coeffs, x.coeffs, atol=0)

    def test_imaginary_squares(self):
        for i in range(1, 8):
            sq = oct_mul(basis(i), basis(i))
            assert np.array_equal(sq.coeffs, -Octonion.one().coeffs)

    def test_nonassociativity_witness_exists(self):
        worst = 0.0
        for i in range(1, 8):
            for j in range(1, 8):
                for k in range(1, 8):
                    lhs = oct_mul(oct_mul(basis(i), basis(j)), basis(k))
                    rhs = oct_mul(basis(i), oct_mul(basis(j), basis(k)))
                    worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
        assert worst >= 2.0  # some triple associates only up to sign


@given(
    a=st.lists(st.floats(-4, 4), min_size=8, max_size=8),
    b=st.lists(st.floats(-4, 4), min_size=8, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_norm_multiplicativity_property(a, b):
    x, y = Octonion(a), Octonion(b)
    xy = oct_mul(x, y)
    assert abs(xy.norm() - x.norm() * y.norm()) <= 1e-11 * max(1.0, x.norm() * y.norm())


@given(a=st.lists(st.floats(-4, 4), min_size=8, max_size=8),
       b=st.lists(st.floats(-4, 4), min_size=8, max_size=8))
@settings(max_examples=200, deadline=None)
def test_left_alternative_property(a, b):
    x, y = Octonion(a), Octonion(b)
    diff = oct_mul(x, oct_mul(x, y)) - oct_mul(oct_mul(x, x), y)
    assert float(np.max(np.abs(diff.coeffs))) <= 1e-11 * max(1.0, x.norm_sq() * y.norm())


class TestInverse:
    def test_identity(self):
        assert np.allclose(oct_inverse(Octonion.one()).coeffs, Octonion.one().coeffs)

    def test_unit_imaginary(self):
        assert np.allclose(oct_inverse(basis(3)).coeffs, -basis(3).coeffs)

    def test_scalar(self):
        inv = oct_inverse(2.0 * Octonion.one())
        assert np.allclose(inv.coeffs, 0.5 * Octonion.one().coeffs)

    def test_round_trip(self, rng):
        for _ in range(50):
            a = random_octonion(rng)
            prod = oct_mul(a, oct_inverse(a))
            assert np.max(np.abs(prod.coeffs - Octonion.one().coeffs)) <= 1e-12

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            oct_inverse(Octonion.zero())


class TestCoordinates:
    def test_base_point(self):
        p = cyl_to_ads(CylCoord(w=Octonion.zero(), theta=np.zeros(7)))
        assert np.allclose(p.x.coeffs, 0.0)
        assert np.allclose(p.y.coeffs, Octonion.one().coeffs)

    def test_real_axis_point(self):
        # w = 0.5 e0, theta = 0: both slots scale by 1/sqrt(0.75)
        p = cyl_to_ads(CylCoord(w=0.5 * Octonion.one(), theta=np.zeros(7)))
        assert p.x.coeffs[0] == pytest.approx(0.5773502691896258, abs=1e-15)
        assert p.y.coeffs[0] == pytest.approx(1.1547005383792515, abs=1e-15)

    def test_quadric_membership_random(self, rng):
        for _ in range(200):
            w = random_octonion(rng, scale=0.25)
            if w.norm() >= 0.999:
                continue
            theta = rng.standard_normal(7) * 0.35
            p = cyl_to_ads(CylCoord(w=w, theta=theta))
            assert abs(pseudo_norm(p.x, p.y) + 1.0) <= 1e-12 * max(1.0, p.y.norm_sq())

    def test_projection_round_trip(self, rng):
        for _ in range(200):
            w = random_octonion(rng, scale=0.25)
            if w.norm() >= 0.999:
                continue
            theta = rng.standard_normal(7) * 0.35
            back = ads_project(cyl_to_ads(CylCoord(w=w, theta=theta)))
            assert np.max(np.abs(back.coeffs - w.coeffs)) <= 1e-10

    def test_projection_base_point(self):
        p = cyl_to_ads(CylCoord(w=Octonion.zero(), theta=np.zeros(7)))
        assert np.allclose(ads_project(p).coeffs, 0.0)

    def test_projection_scalar_slice(self):
        # x = sinh(a) e0, y = cosh(a) e0 sits on the quadric; projects to tanh(a) e0
        a = 0.8
        p = AdSPoint(x=math.sinh(a) * Octonion.one(), y=math.cosh(a) * Octonion.one())
        proj = ads_project(p)
        assert proj.coeffs[0] == pytest.approx(math.tanh(a), abs=1e-14)
        assert np.allclose(proj.coeffs[1:], 0.0)

    def test_fiber_exponential_small_angle_series(self):
        theta = np.zeros(7)
        theta[2] = 1e-9
        g = fiber_exponential(theta)
        assert g.coeffs[0] == pytest.approx(1.0)
        assert g.coeffs[3] == pytest.approx(1e-9, rel=1e-12, abs=0)
        assert abs(g.norm() - 1.0) <= 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            CylCoord(w=1.5 * Octonion.one(), theta=np.zeros(7))
        with pytest.raises(ValueError):
            CylCoord(w=Octonion.zero(), theta=np.full(7, 1.5))
        # a NaN w or theta was accepted
        with pytest.raises(ValueError, match="must be < 1"):
            CylCoord(w=math.nan * Octonion.one(), theta=np.zeros(7))
        with pytest.raises(ValueError, match="must be < pi"):
            CylCoord(w=Octonion.zero(), theta=np.full(7, math.nan))
        with pytest.raises(ValueError):
            AdSPoint(x=Octonion.one(), y=Octonion.one())
