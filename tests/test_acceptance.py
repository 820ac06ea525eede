"""Acceptance suite: one test per criterion, each printing a verdict line (see them with `-s`).

Each check is written once, in `octads.acceptance`; a criterion runs it with its defaults.
"""

import time

from octads import acceptance as acc


def _verdict(num, rows, summary, in_time=True):
    failed = [row for row in rows if row["status"] != "pass"]
    line = f"ACCEPTANCE {num:02d} {'PASS' if in_time and not failed else 'FAIL'}: {summary}"
    print(line)
    assert in_time and not failed, f"{line}; failing rows {failed}"


def _worst(rows, key, check=""):
    return max(row[key] for row in rows if row.get("check", "").startswith(check))


def test_criterion_01_cross_representation_agreement():
    start = time.time()
    rows = acc.representation_agreement()
    s = time.time() - start
    _verdict(1, rows, f"max rel diff {_worst(rows, 'rel_diff'):.3e} (tol 1e-6) over {len(rows)} "
                      f"points in {s:.1f}s (limit 120s)", s <= 120.0)


def test_criterion_02_rep2_internal_path_agreement():
    rows = acc.rep2_path_agreement()
    _verdict(2, rows, f"max rel diff between rep-2 paths {_worst(rows, 'rel_diff'):.3e} (tol 1e-8)")


def test_criterion_03_heat_equation_residual():
    rows = acc.heat_equation_residual()
    ratio = max(row["residual"] / row["bound"] for row in rows)
    _verdict(3, rows, f"worst residual/(1e-4|dp/dt| + 1e-8 p) = {ratio:.3e} over {len(rows)} cases")


def test_criterion_04_chebyshev_identity():
    rows = acc.chebyshev_identity()
    _verdict(4, rows, f"max rel error {_worst(rows, 'max_rel_err'):.3e} for m <= 30, u in [0, 5] "
                      f"(tol 1e-10)")


def test_criterion_05_orthogonality_and_normalization():
    orth, norm = acc.fiber_orthogonality(), acc.fiber_normalization()
    off, diag = ([row["deviation"] for row in orth if (row["m"] == row["n"]) == d] for d in (0, 1))
    _verdict(5, orth + norm, f"orthogonality offdiag {max(off):.3e}, diag {max(diag):.3e}, "
                             f"kernel normalization {_worst(norm, 'deviation'):.3e} (tol 1e-8)")


def test_criterion_06_hyperbolic_kernels():
    rows = acc.hyperbolic_suite()
    _verdict(6, rows, f"normalization {_worst(rows, 'deviation', 'normalization'):.3e} (1e-6), "
                      f"pde residual {_worst(rows, 'deviation', 'pde_residual'):.3e} (1e-5), "
                      f"3-dim closed form {_worst(rows, 'deviation', 'closed_form'):.3e} "
                      f"(1e-12 + 4 eps |log ref|)")


def test_criterion_07_measure_and_moment_identities():
    rows = acc.mass_moment()
    drift = max(abs(row["mass_ratio_to_first"] - 1.0) for row in rows)
    _verdict(7, rows, f"mass drift {drift:.3e} (1e-5), mass {rows[0]['mass']:.10f} (= 1/32 under "
                      f"the shipped measure constant), eigen-moment rel err "
                      f"{_worst(rows, 'moment_rel_err'):.3e} (1e-4)")


def test_criterion_08_monte_carlo_oracle():
    start = time.time()
    rows = acc.mc_oracle()
    s = time.time() - start
    z = {row["function"].replace("@t=", "@"): abs(row["z"]) for row in rows}
    _verdict(8, rows, f"max |z| = {max(z.values()):.2f} (limit 3) ["
                      f"{', '.join(f'{k}:z={v:.2f}' for k, v in z.items())}] in {s:.0f}s "
                      f"(limit 300s)", s <= 300.0)


def test_criterion_09_mode_profile_identity():
    rows = acc.mode_profile()
    _verdict(9, rows, f"max |profile - polynomial ratio| = {_worst(rows, 'max_abs_err'):.3e} "
                      f"(tol 1e-10)")


def test_criterion_10_octonion_algebra():
    rows = acc.octonion_algebra()
    err = {row["check"]: row["max_error"] for row in rows}
    ok = {row["check"]: "ok" if row["status"] == "pass" else "BAD" for row in rows}
    _verdict(10, rows, f"norm mult {err['norm_multiplicativity']:.3e}, alternativity "
                       f"{err['alternativity']:.3e} (tol 1e-12), triples {ok['generator_triples']},"
                       f" quadric {err['quadric']:.3e}, non-associativity witness "
                       f"{ok['non_associativity_witness']}, projection {err['projection']:.3e}")
