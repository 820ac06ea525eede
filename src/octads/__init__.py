"""Numerics for the subelliptic heat kernel of the octonionic anti-de Sitter fibration.

Each public name loads on its first read (PEP 562): `import octads` imports no submodule and
no numpy, and reading a name imports only the module that defines it.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "fiber_kernel": ("FiberKernelValue", "SeriesConvergenceError", "fiber_eigenvalue",
                     "fiber_heat_kernel", "fiber_mode_multiplicity", "fiber_mode_profile"),
    "hyperbolic_kernel": ("composed_distance", "hyperbolic_heat_kernel",
                          "hyperbolic_heat_kernel_composed"),
    "octonion": ("AdSPoint", "CylCoord", "Octonion", "ads_project", "cyl_to_ads",
                 "fiber_exponential", "oct_inverse", "oct_mul", "pseudo_norm"),
    "mc_oracle": ("MC_TEST_FUNCTIONS", "SampleSet", "SdeConfig", "estimate_expectation",
                  "simulate_paths"),
    "special_fn": ("hyp2f1_terminating", "jacobi_norm_sq", "jacobi_poly"),
    "subelliptic_kernel": ("KernelPoint", "KernelRangeError", "KernelResult", "MEASURE_CONSTANT",
                           "QuadratureConvergenceError", "REP2_CONSTANT", "default_u_max",
                           "heat_kernel_rep1", "heat_kernel_rep2", "heat_residual",
                           "total_mass", "weighted_integral"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, or an exported name, imported on its first read and kept as an attribute."""
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
