"""Inputs and output checks of the benchmark workloads.

Nothing here imports the package under test: the generators turn a seed into
plain numbers, and the checkers turn the values the package returned into a
failure class (None when the output passed).  Both are pure functions so the
benchmark's own tests can exercise them without a kernel evaluation.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("density_integrals", "mc_paths")

# --- density_integrals ---------------------------------------------------
# Fixed times, run in this order; the seed does not change them.  A time
# drawn from the seed would decide the run's numbers on its own: a failing
# integral costs several times one that converges, and a 1% change of t can
# add a grid refinement level, which doubles or triples an integral's cost.
# Even the order matters, because the first Gauss-Legendre rule of a large
# size is expensive and lands on whichever integral asks first.  Integrals
# of octads 0.1.0 start to raise at t = 2.16 (moment), 2.27 (cosh_half_r)
# and 2.41 (the rest): at 2.34 the two growing integrands fail, and at 2.6
# the mass fails as `octads mass` runs it.
FULL_T = (0.25, 1.2, 2.34)  # mass, eigen-moment and the MC test functions
MASS_ONLY_T = (2.6,)
# The time whose mass is also integrated through rep 2 and compared with rep 1.
REP2_T = FULL_T[1]
MASS_TOL = 1e-5  # |32 mass - 1|
MOMENT_TOL = 1e-4  # relative error of moment / mass against exp(8 t)
REP_TOL = 1e-6  # rep-1 / rep-2 agreement, as in the cross-representation gate
EXACT_MASS = 1.0 / 32.0
# Value ranges of the package's MC test functions over the state space.
TEST_FUNCTION_RANGES = {
    "cos_eta": (-1.0, 1.0),
    "cosh_half_r": (1.0, math.inf),
    "sech_half_r": (0.0, 1.0),
}

# --- mc_paths ------------------------------------------------------------
MC_PATHS = 16384  # two 8192-path chunks
MC_DT = 1e-4
MC_T_END = 0.5
MC_SNAPSHOT = 0.25
MC_Z_MAX = 3.0


def density_times() -> tuple[float, ...]:
    """Every time of a density_integrals pass, in the order it runs them."""
    return FULL_T + MASS_ONLY_T


def mc_seed(seed: int) -> int:
    """Seed of the package's own random streams for the run's simulate_paths call."""
    return int(np.random.default_rng([seed, 3]).integers(2**31))


def _bad(value) -> bool:
    return not math.isfinite(value) or value == 0.0


def check_reps(v1: float, v2: float) -> str | None:
    """The same quantity from rep 1 and rep 2."""
    if _bad(v1) or _bad(v2):
        return "zero_or_nonfinite"
    if abs(v1 - v2) > REP_TOL * abs(v2):
        return "mismatch"
    return None


def check_mass(mass: float) -> str | None:
    if _bad(mass):
        return "zero_or_nonfinite"
    if abs(mass / EXACT_MASS - 1.0) > MASS_TOL:
        return "mass_tol"
    return None


def check_moment(moment: float, mass: float, t: float) -> str | None:
    if _bad(moment):
        return "zero_or_nonfinite"
    want = math.exp(8.0 * t)
    if abs(moment / mass - want) > MOMENT_TOL * want:
        return "moment_tol"
    return None


def check_mean(name: str, integral: float, mass: float) -> str | None:
    if not math.isfinite(integral):
        return "zero_or_nonfinite"
    lo, hi = TEST_FUNCTION_RANGES.get(name, (-math.inf, math.inf))
    if not lo <= integral / mass <= hi:
        return "range"
    return None


def mc_z(values: np.ndarray, t: float) -> float:
    """z-score of the sample mean of cosh(r) cos(eta) against exp(8 t)."""
    stderr = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    return (float(np.mean(values)) - math.exp(8.0 * t)) / stderr


def check_mc(z: float) -> str | None:
    if not math.isfinite(z) or abs(z) > MC_Z_MAX:
        return "mc_z"
    return None
