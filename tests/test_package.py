"""The package namespace loads lazily: `import octads` imports no submodule and no numpy, the
first read of a name imports only the module that defines it, and the public names are those
of the eager package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import octads

ROOT = Path(__file__).resolve().parents[1]
# the public names of octads when its __init__ imported all six submodules
PUBLIC = [
    "AdSPoint", "CylCoord", "FiberKernelValue", "KernelPoint", "KernelRangeError",
    "KernelResult", "MC_TEST_FUNCTIONS", "MEASURE_CONSTANT", "Octonion",
    "QuadratureConvergenceError", "REP2_CONSTANT", "SampleSet", "SdeConfig",
    "SeriesConvergenceError", "ads_project", "composed_distance", "cyl_to_ads", "default_u_max",
    "estimate_expectation", "fiber_eigenvalue", "fiber_exponential", "fiber_heat_kernel",
    "fiber_kernel", "fiber_mode_multiplicity", "fiber_mode_profile", "heat_kernel_rep1",
    "heat_kernel_rep2", "heat_residual", "hyp2f1_terminating", "hyperbolic_heat_kernel",
    "hyperbolic_heat_kernel_composed", "hyperbolic_kernel", "jacobi_norm_sq", "jacobi_poly",
    "mc_oracle", "oct_inverse", "oct_mul", "octonion", "pseudo_norm", "simulate_paths",
    "special_fn", "subelliptic_kernel", "total_mass", "weighted_integral",
]


def fresh(code: str) -> list[str]:
    """The lines code prints in a fresh interpreter that imports this checkout's octads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"import sys, octads\n{code}"], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def loaded(read: str = "") -> set[str]:
    """The octads submodules, and numpy, that a fresh interpreter holds after reading a name."""
    code = f"{read}\nprint(*[m for m in sys.modules if m.startswith('octads.') or m == 'numpy'])"
    return set(fresh(code))


def test_import_loads_no_submodule_and_no_numpy():
    assert loaded() == set()


def test_a_name_loads_only_its_module():
    assert loaded("octads.SdeConfig") == {"octads.mc_oracle", "octads.special_fn", "numpy"}
    assert "octads.octonion" not in loaded("octads.weighted_integral")


def test_public_names_are_the_eager_ones():
    assert octads.__all__ == PUBLIC
    assert fresh("print(*[n for n in dir(octads) if not n.startswith('_')])") == PUBLIC
    assert fresh("from octads import *\nprint(*sorted(n for n in dir() if n[0] != '_'))") \
        == sorted(PUBLIC + ["octads", "sys"])


def test_a_read_name_is_the_module_attribute():
    assert octads.total_mass is octads.subelliptic_kernel.total_mass
    assert vars(octads)["total_mass"] is octads.total_mass


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        octads.no_such_name
    assert not hasattr(octads, "acceptance_checks")
