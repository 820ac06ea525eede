#!/usr/bin/env python3
"""Re-derive the normalization corrections that representation 2 ships with.

The raw second integral form (uniform mode weights, no sech^3 factor, no
overall constant) does not match representation 1 pointwise.  The package
ships one convention per series; the raw displays live only here, as
raw_coeff and rep2_raw_mode.  This experiment measures, from the
implementation alone:

  1. the fiber coefficient convention gap: the displayed coefficient 2/N_m,
     in closed form through lgamma, is twice the shipped 1/N_m for every
     degree;
  2. the per-mode ratio between the two representations, which is constant in
     (t, r) for each degree and equals (3/pi^4) x eigenspace dimension;
  3. the sech^3(r) structure: with only the lowest mode surviving (large t),
     the pointwise ratio times cosh^3(r) is r-independent and equals 3/pi^4;
  4. the total mass under the shipped measure constant: exactly 1/32,
     i.e. unit mass under the geometric constant 16 pi^7/45.

Everything printed here is what the shipped constants REP2_CONSTANT and the
multiplicity weights encode.  The script exits with status 1, naming each
failure, unless every one of these holds:

  * raw/normalized = 2 within 1e-13 for m <= 6 and within 2e-11 (1e-11
    relative) for m <= 60, and the m = 0 coefficient is 6.4/pi within 1e-13
    relative;
  * ratio/ratio0 equals the eigenspace dimension within 1e-6 relative for
    m <= 6;
  * REP2_CONSTANT = 2 ratio0 within 1e-10 relative;
  * the sech^3 drift is at most 1e-12, and the ratio times cosh^3(r) is
    3/pi^4 within 1e-9 relative;
  * 32 mass = 1 within 1e-9 (not run with --quick).
"""

import argparse
import math
import sys

import numpy as np

from octads.fiber_kernel import fiber_eigenvalue, fiber_mode_multiplicity
from octads.hyperbolic_kernel import hyperbolic_heat_kernel_composed
from octads.special_fn import gl_nodes, jacobi_end_value, jacobi_norm_sq, jacobi_sequence
from octads.subelliptic_kernel import (
    REP2_CONSTANT,
    default_u_max,
    heat_kernel_rep2,
    total_mass,
)


# u-nodes of both per-mode integrals
_N_U = 512


def raw_coeff(m):
    """The displayed fiber series coefficient 2/N_m, in closed form through lgamma."""
    lg = (
        (4 * m + 7) * math.log(2.0)
        + math.lgamma(m + 1.0)
        + math.lgamma(m + 6.0)
        + 2.0 * math.lgamma(m + 4.0)
        - math.lgamma(2.0 * m + 7.0)
        - math.lgamma(2.0 * m + 6.0)
    )
    return math.exp(lg) / math.pi


def rep1_mode(m, t, r):
    """Coefficient of the normalized mode profile in representation 1."""
    u, w = gl_nodes(_N_U, 0.0, default_u_max(t, r))
    pm = jacobi_sequence(m, np.cosh(u))[m]
    q15 = hyperbolic_heat_kernel_composed(15, t, r, u)
    integral = float(np.dot(w, pm * q15 * np.sinh(u) ** 6))
    return (jacobi_end_value(m) / jacobi_norm_sq(m)) * math.exp(-fiber_eigenvalue(m) * t) * integral


def rep2_raw_mode(m, t, r):
    """Same coefficient in the raw second form, sech^3 included."""
    u, w = gl_nodes(_N_U, 0.0, default_u_max(t, r))
    rate = fiber_eigenvalue(m) + 33
    damped_cosh = 0.5 * (np.exp((m + 3) * u - rate * t) + np.exp(-(m + 3) * u - rate * t))
    q9 = hyperbolic_heat_kernel_composed(9, t, r, u)
    return 2.0 * float(np.dot(w, damped_cosh * q9)) / math.cosh(r) ** 3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="skip the mass integrals")
    args = ap.parse_args()
    failures = []

    def require(what, err, tol):
        if not err <= tol:
            failures.append(f"{what}: {err:.3e} > {tol:.0e}")

    print("== fiber coefficient conventions ==")
    for m in range(61):
        shipped = 1.0 / jacobi_norm_sq(m)  # the coefficient of the fiber series
        ratio = raw_coeff(m) / shipped
        if m <= 6:
            print(f"  m={m}: raw/normalized = {ratio:.15f}")
        # 1e-11 relative beyond m = 6, where the lgamma sum loses digits
        require(f"raw/normalized - 2 at m={m}", abs(ratio - 2.0), 1e-13 if m <= 6 else 2e-11)
    require("raw coefficient at m=0 against 6.4/pi",
            abs(raw_coeff(0) - 6.4 / math.pi) / (6.4 / math.pi), 1e-13)

    print("\n== per-mode ratio rep1 / rep2(raw, sech^3) ==")
    print(f"  reference 3/pi^4 = {3.0 / math.pi ** 4:.15f}")
    probes = [(0.5, 0.5), (1.0, 1.0)]
    rho0 = None
    # beyond m = 6 the probes' spread is no longer negligible
    for m in range(7):
        ratios = [rep1_mode(m, t, r) / rep2_raw_mode(m, t, r) for (t, r) in probes]
        if rho0 is None:
            rho0 = ratios[0]
        spread = max(ratios) - min(ratios)
        dim = fiber_mode_multiplicity(m)
        print(f"  m={m}: ratio = {ratios[0]:.12e} (spread over (t,r) probes {spread:.1e}), "
              f"ratio/ratio0 = {ratios[0] / rho0:.10f}, eigenspace dim = {dim}")
        require(f"ratio/ratio0 against dim {dim} at m={m}",
                abs(ratios[0] / rho0 - dim) / dim, 1e-6)

    print("\n== sech^3 structure at large t (single surviving mode) ==")
    t, eta = 6.0, 0.8
    profiles = jacobi_sequence(6, math.cos(eta))[:, 0]
    base = None
    for r in (0.0, 0.5, 1.0, 1.5):
        norm = heat_kernel_rep2(t, r, eta).value
        # the raw form times sech^3(r); beyond m = 6 its modes are below exp(-7 t) of the sum
        raw_sech = sum(rep2_raw_mode(m, t, r) * profiles[m] / jacobi_end_value(m)
                       for m in range(7))
        ratio = norm / raw_sech
        base = base or ratio
        print(f"  r={r}: (normalized/raw)*cosh^3(r) = {ratio:.12e}  (drift {ratio / base - 1.0:+.1e})")
        require(f"sech^3 drift at r={r}", abs(ratio / base - 1.0), 1e-12)
        require(f"(normalized/raw)*cosh^3(r) against 3/pi^4 at r={r}",
                abs(ratio / (3.0 / math.pi ** 4) - 1.0), 1e-9)

    print(f"\n== shipped constants ==")
    print(f"  REP2_CONSTANT = 6/pi^4 = {REP2_CONSTANT:.15f}")
    print(f"  mode weights  = eigenspace dimensions {[fiber_mode_multiplicity(m) for m in range(7)]} ...")
    require("REP2_CONSTANT / (2 ratio0) - 1", abs(REP2_CONSTANT / (2.0 * rho0) - 1.0), 1e-10)

    if not args.quick:
        print("\n== total mass under the shipped measure constant pi^7/90 ==")
        for t in (0.5, 1.0, 2.0):
            m = total_mass(t)
            print(f"  t={t}: mass = {m:.12e}, 32*mass = {32.0 * m:.12f}")
            require(f"32*mass - 1 at t={t}", abs(32.0 * m - 1.0), 1e-9)
        print("  (unit mass corresponds to the measure constant 16 pi^7/45 = 32 * pi^7/90)")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
