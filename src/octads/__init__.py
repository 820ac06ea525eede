"""Numerics for the subelliptic heat kernel of the octonionic anti-de Sitter fibration."""

from .fiber_kernel import (
    FiberKernelValue,
    SeriesConvergenceError,
    fiber_eigenvalue,
    fiber_heat_kernel,
    fiber_mode_multiplicity,
    fiber_mode_profile,
)
from .hyperbolic_kernel import (
    composed_distance,
    hyperbolic_heat_kernel,
    hyperbolic_heat_kernel_composed,
)
from .octonion import (
    AdSPoint,
    CylCoord,
    Octonion,
    ads_project,
    cyl_to_ads,
    fiber_exponential,
    oct_inverse,
    oct_mul,
    pseudo_norm,
)
from .mc_oracle import (
    MC_TEST_FUNCTIONS,
    SampleSet,
    SdeConfig,
    estimate_expectation,
    simulate_paths,
)
from .special_fn import (
    hyp2f1_terminating,
    jacobi_norm_sq,
    jacobi_poly,
)
from .subelliptic_kernel import (
    KernelPoint,
    KernelRangeError,
    KernelResult,
    MEASURE_CONSTANT,
    QuadratureConvergenceError,
    REP2_CONSTANT,
    default_u_max,
    heat_kernel_rep1,
    heat_kernel_rep2,
    heat_residual,
    total_mass,
    weighted_integral,
)

__version__ = "0.1.0"
