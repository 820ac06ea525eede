"""The argument contract, property-tested at every public entry.

Each route draws valid arguments across its supported domain, mostly as Python floats and
else as float32, np.int64 or arrays of 0 or 1 dimensions, along with values outside the
domain (negatives, times below the floor, +-inf) and junk, values that are no real number:
bools and bool arrays, NaN, Python and numpy complex, a string and None.  A draw with junk
raises one of ValueError, KernelRangeError, SeriesConvergenceError and
QuadratureConvergenceError, and any other draw returns what the route promises or raises one
of them; a TypeError, any other exception or a warning fails it.  A numpy number or a 0-d
array gives the bits of the Python number of its value.  Kernel values are finite, positive
and not subnormal, with one named exception: hyperbolic_heat_kernel is its closed form, which
underflows to 0.0 or a subnormal (at s = inf, say).  The Jacobi functions' second argument x
is not part of the contract: only their degree is drawn.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octads import (CylCoord, KernelPoint, KernelRangeError, Octonion,
                    QuadratureConvergenceError, SdeConfig, SeriesConvergenceError,
                    composed_distance, fiber_heat_kernel, fiber_mode_multiplicity,
                    fiber_mode_profile, heat_kernel_rep1, heat_kernel_rep2, heat_residual,
                    hyp2f1_terminating, hyperbolic_heat_kernel, hyperbolic_heat_kernel_composed,
                    jacobi_norm_sq, jacobi_poly, simulate_paths, total_mass, weighted_integral)
from octads.subelliptic_kernel import usable

ERRORS = (ValueError, KernelRangeError, SeriesConvergenceError, QuadratureConvergenceError)
# values that are no real number (see junk), and +-inf, which only s, r and u take
JUNK = (True, False, np.True_, np.array([True, False]), math.nan, -math.inf, math.inf, 1j,
        np.complex128(1.0), "1", None)
PI = math.pi


def contract(n):
    return settings(max_examples=n, derandomize=True, deadline=None, database=None)


def mostly(common, rare):
    """A draw of common three times in four, else of rare."""
    return st.sampled_from([common, common, common, rare]).flatmap(lambda strategy: strategy)


def arg(valid, ints=st.nothing(), outside=st.nothing()):
    """A valid float three times in four; else it as float32 (where it fits) or an array of 0
    or 1 dimensions, a valid integer as np.int64, one of JUNK, or a real number outside the
    domain."""
    return mostly(valid, st.one_of(valid.filter(lambda v: v < 3e38).map(np.float32),
                                   valid.map(np.array), valid.map(lambda v: np.array([v])),
                                   ints.map(np.int64), st.sampled_from(JUNK), outside))


def degree():
    return st.one_of(st.integers(0, 60), st.integers(0, 60).map(np.int64),
                     st.sampled_from([-1, 2.5, np.float64(2.0), 2j, "2", None, np.array([2]),
                                      True, np.True_, math.nan]))


TIME = arg(mostly(st.floats(0.05, 15.0), st.sampled_from([0.05, 14.0, 14.5, 15.0, 40.0, 1e3,
                                                          1e308])),
           st.integers(1, 20), st.floats(-1.0, 0.0499) | st.sampled_from([0.0, 1e-300]))
DISTANCE = arg(mostly(st.floats(0.0, 10.0),
                      st.floats(10.0, 50.0) | st.sampled_from([705.0, 1e308])),
               st.integers(0, 5), st.floats(-10.0, -1e-300))
ANGLE = arg(st.floats(0.0, PI), st.integers(0, 3),
            st.floats(-4.0, -1e-12) | st.floats(3.1416, 9.0))


def plain(v):
    """A numpy number or 0-d real array as the Python float or int of its value; else v."""
    if isinstance(v, (np.floating, np.integer, np.ndarray)) and np.ndim(v) == 0 \
            and np.asarray(v).dtype.kind in "iuf":
        return v.item()
    return v


def same(a, b) -> bool:
    """a and b hold the same bits, of the same types."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and same(dataclasses.astuple(a), dataclasses.astuple(b))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and np.array_equal(a, b)


def outcome(route, *args):
    """route(*args) with warnings raised as errors: its value, or None for a contract error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return route(*args)
        except ERRORS:
            return None


def junk(v) -> bool:
    """v is no real number: its dtype is not integer or float, or it holds NaN."""
    a = np.asarray(v)
    return a.dtype.kind not in "iuf" or bool(np.isnan(a).any())


def check(route, promise, *args):
    """route(*args) raises a contract error if an argument is junk, and else keeps its promise
    or raises one; numpy numbers give the bits of the Python numbers of their values."""
    got = outcome(route, *args)
    if any(map(junk, args)):
        assert got is None, (args, got)
    elif got is not None:
        assert promise(got), (args, got)
    floats = tuple(map(plain, args))
    if any(a is not b for a, b in zip(args, floats)):
        want = outcome(route, *floats)
        assert (got is None) == (want is None) and (got is None or same(got, want)), (args, got)


def kernel_value(v) -> bool:
    return type(v) is float and usable(v)


@pytest.mark.parametrize("route", [heat_kernel_rep1, heat_kernel_rep2])
@contract(40)
@given(t=TIME, r=DISTANCE, eta=ANGLE)
@example(t=np.float32(1.0), r=0.5, eta=1.0)  # rep 1 moved by 2.0e-6: float32 arithmetic
@example(t=1j, r=0.5, eta=1.0)  # complex and None raised a bare TypeError
@example(t=1.0, r=None, eta=1.0)
def test_kernel_points(route, t, r, eta):
    check(route, lambda k: kernel_value(k.value) and 0.0 <= k.est_error < math.inf, t, r, eta)


@contract(40)
@given(which=st.sampled_from(["rep1", "rep2", "rep3", None]), t=TIME, r=DISTANCE, eta=ANGLE)
@example(which="rep1", t=15.0, r=0.5, eta=1.0)  # returned (0.0, 0.0, 0.0, 0.0)
def test_heat_residual(which, t, r, eta):
    check(lambda t, r, eta: heat_residual(which, t, r, eta),
          lambda out: all(type(v) is float and 0.0 <= v < math.inf for v in out)
          and usable(out[2]), t, r, eta)


def hyperbolic_value(v, shape) -> bool:
    """Finite and not negative, of the shape of s; 0.0 or a subnormal is the closed form's
    underflow, the one named exception to kernel_value."""
    return np.shape(v) == shape and type(v) is (float if shape == () else np.ndarray) \
        and bool(np.all(np.isfinite(v) & (np.asarray(v) >= 0.0)))


DIMENSION = st.sampled_from(range(1, 20, 2)) | st.sampled_from(
    [0, 2, 21, 15.0, np.int64(15), True, "15", None, 15j, np.array([15])])
HYPERBOLIC_TIME = arg(st.floats(1e-30, 1e3) | st.sampled_from([1e-30, 1e308]),
                      st.integers(1, 20), st.floats(-1.0, 9.9e-31))
HYPERBOLIC_S = st.one_of(
    arg(st.floats(0.0, 1e4) | st.sampled_from([1e150, 1e308, math.inf]), st.integers(0, 5),
        st.floats(-10.0, -1e-300)),
    st.lists(st.floats(0.0, 50.0) | st.sampled_from([math.inf, math.nan, -1.0]),
             max_size=4).map(np.array))


@contract(60)
@given(n=DIMENSION, t=HYPERBOLIC_TIME, s=HYPERBOLIC_S)
@example(n=15, t=np.float32(1.0), s=0.5)  # moved by 2.0e-6 through float32 arithmetic
@example(n=15, t=1.0, s="1")  # returned the value at s = 1
@example(n=15, t=1.0, s=np.array([True, False]))  # returned the values at s = 1 and 0
def test_hyperbolic_heat_kernel(n, t, s):
    check(hyperbolic_heat_kernel, lambda v: hyperbolic_value(v, np.shape(s)), n, t, s)


@contract(40)
@given(n=DIMENSION, t=HYPERBOLIC_TIME, r=DISTANCE | st.just(math.inf), u=DISTANCE)
@example(n=9, t=1.0, r="1", u=0.5)  # composed_distance("1", 0.5) returned a value
def test_hyperbolic_heat_kernel_composed(n, t, r, u):
    shape = np.broadcast_shapes(np.shape(r), np.shape(u))
    check(hyperbolic_heat_kernel_composed, lambda v: hyperbolic_value(v, shape), n, t, r, u)
    check(composed_distance, lambda s: np.shape(s) == shape and bool(np.all(np.asarray(s) >= 0)),
          r, u)


@pytest.mark.parametrize("continued", [False, True])
@contract(40)
@given(t=TIME | st.floats(1e-3, 0.05), eta=ANGLE, u=ANGLE | DISTANCE)
def test_fiber_heat_kernel(continued, t, eta, u):
    check(lambda t, eta, u: fiber_heat_kernel(t, eta, u, continued=continued),
          lambda v: math.isfinite(v.value) and 0.0 <= v.tail_bound < abs(v.value), t, eta, u)


@contract(60)
@given(m=degree(), eta=ANGLE)
@example(m=2, eta=math.nan)  # returned nan
@example(m=2, eta=5.0)  # returned -0.0509
def test_fiber_mode_profile(m, eta):
    check(fiber_mode_profile, lambda v: type(v) is float and abs(v) <= 1.0 + 1e-12, m, eta)


@pytest.mark.parametrize("route", [fiber_mode_multiplicity, jacobi_norm_sq,
                                   lambda m: jacobi_poly(m, 0.3),
                                   lambda m: hyp2f1_terminating(m, math.cosh(1.0))])
@contract(30)
@given(m=degree())
def test_degree(route, m):
    check(route, lambda v: type(v) in (int, float) and math.isfinite(v), m)


@contract(15)
@given(t=TIME, which=st.sampled_from(["rep1", "rep2", "rep3"]),
       growth=arg(st.floats(0.0, 1.0), st.integers(0, 1), st.floats(1.0001, 5.0)))
def test_weighted_integral(t, which, growth):
    check(lambda t, growth: weighted_integral(
        lambda r, eta: np.cosh(r / 2.0) * np.cos(eta) ** 2, t, which, growth),
        lambda v: type(v) is float and 0.0 < v < math.inf, t, growth)
    check(lambda t: total_mass(t, which), lambda v: type(v) is float and usable(v), t)


@contract(40)
@given(t=TIME, r=DISTANCE, eta=ANGLE)
def test_kernel_point_stores_floats(t, r, eta):
    check(KernelPoint, lambda p: all(type(v) is float for v in dataclasses.astuple(p)), t, r, eta)


def count(lo):
    return st.one_of(st.integers(lo, 2 ** 40), st.integers(lo, 2 ** 40).map(np.int64),
                     st.sampled_from([lo - 1, 2.5, np.float64(4.0), 4j, "4", None, np.array([4]),
                                      True, False, np.True_]))


@contract(60)
@given(n_paths=count(1), seed=count(0),
       dt=arg(st.floats(1e-6, 1e-3), st.nothing(), st.floats(1.0001e-3, 1.0)),
       t_end=arg(st.floats(1e-4, 10.0), st.integers(1, 10), st.floats(-1.0, 0.0)))
@example(n_paths=4, seed=0, dt=1e-3, t_end=np.array([1.0]))  # both were accepted
@example(n_paths=4, seed=0, dt=1e-3, t_end=np.complex128(1.0))
def test_sde_config(n_paths, seed, dt, t_end):
    check(lambda *args: dataclasses.astuple(SdeConfig(*args)),
          lambda cfg: [type(v) for v in cfg] == [int, float, int, float], n_paths, dt, seed, t_end)


@contract(30)
@given(snapshot=arg(st.floats(0.0, 0.012), st.integers(0, 1), st.floats(-1.0, -1e-300)))
def test_simulate_paths(snapshot):
    cfg = SdeConfig(n_paths=4, dt=1e-3, t_end=0.01)
    check(lambda s: [(x.time, x.r, x.eta) for x in simulate_paths(cfg, (s,))],
          lambda sets: all(0.0 < time <= 0.01 and r.shape == eta.shape == (4,)
                           and np.isfinite(r).all() and np.isfinite(eta).all()
                           for time, r, eta in sets), snapshot)


@contract(40)
@given(w=mostly(st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8),
                st.lists(st.floats(-0.5, 0.5) | st.sampled_from([math.nan, math.inf, 1.0]),
                         min_size=8, max_size=8)),
       theta=mostly(st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
                    st.lists(st.floats(-1.0, 1.0) | st.sampled_from([math.nan, -math.inf, 3.0]),
                             min_size=7, max_size=7)))
@example(w=[math.nan] * 8, theta=[0.0] * 7)  # a NaN w or theta was accepted
@example(w=[0.0] * 8, theta=[math.nan] * 7)
def test_cyl_coord(w, theta):
    check(lambda w, theta: CylCoord(w=Octonion(w), theta=theta),
          lambda c: c.rho < 1.0 and c.eta < PI, w, theta)
