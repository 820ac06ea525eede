"""Command-line front end: kernel grids, validation suites, CSV/JSON output.

Flags override config-file keys (flat key = value text); records are written
byte-identically for identical inputs: floats as %.12e, comma-separated CSV
with LF endings, or a JSON array of objects with the same field names.

Exit codes: 0 success, 1 validation threshold exceeded, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import octonion as oct
from .fiber_kernel import SeriesControl, fiber_heat_kernel, fiber_mode_profile
from .hyperbolic_kernel import dump_term_table, hyperbolic_heat_kernel
from .mc_oracle import MC_TEST_FUNCTIONS, SdeConfig, estimate_expectation, simulate_paths
from .special_fn import (
    chebyshev_T,
    gl_nodes,
    hyp2f1_terminating,
    jacobi_end_value,
    jacobi_norm_sq,
    jacobi_sequence,
)
from .subelliptic_kernel import (
    KernelRangeError,
    QuadratureSpec,
    heat_kernel_rep1,
    heat_kernel_rep2,
    heat_residual,
    total_mass,
    weighted_integral,
)


# ---------------------------------------------------------------------------
# record writing


def _fmt(v, quote: bool = False) -> str:
    """One field: floats as %.12e; other text quoted as a JSON string if asked."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        # JSON has no inf or nan literal, so those go out as strings there
        text = f"{v:.12e}"
        return json.dumps(text) if quote and not math.isfinite(v) else text
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return json.dumps(str(v)) if quote else str(v)


def write_records(rows, fieldnames, fmt: str, stream) -> None:
    """Emit homogeneous rows as CSV (header + rows) or a JSON array."""
    if fmt == "csv":
        stream.write(",".join(fieldnames) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(row[k]) for k in fieldnames) + "\n")
    elif fmt == "json":
        stream.write("[\n")
        for i, row in enumerate(rows):
            body = ",".join(f'"{k}":{_fmt(row[k], quote=True)}' for k in fieldnames)
            stream.write("{" + body + "}" + ("," if i + 1 < len(rows) else "") + "\n")
        stream.write("]\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# configuration plumbing


def _parse_float_list(text: str):
    return [float(x) for x in text.split(",") if x.strip() != ""]


_CONVERTERS = {
    "t": _parse_float_list,
    "r": _parse_float_list,
    "eta": _parse_float_list,
    "s": _parse_float_list,
    "u": _parse_float_list,
    "threshold": float,
    "tol": float,
    "series_tol": float,
    "u_max": float,
    "n_u": int,
    "n_phi": int,
    "m_cap": int,
    "n": int,
    "rep": str,
    "what": str,
    "which": str,
    "path": str,
    "variant": str,
    "mode": str,
    "check": str,
    "continued": lambda s: s.lower() in ("1", "true", "yes"),
    "dump_terms": lambda s: s.lower() in ("1", "true", "yes"),
    "moment": lambda s: s.lower() in ("1", "true", "yes"),
    "n_paths": int,
    "dt": float,
    "seed": int,
    "z_max": float,
    "n_pairs": int,
    "workers": int,
    "format": str,
    "output": str,
    "rel_tol": float,
    "abs_tol": float,
}


def _load_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONVERTERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONVERTERS[key](raw)
    return values


@dataclass
class RunConfig:
    """Resolved invocation: command name plus merged option values."""

    command: str
    options: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name) from None


def _resolve(args: argparse.Namespace, defaults: dict) -> RunConfig:
    config_values = _load_config(args.config) if getattr(args, "config", None) else {}
    merged = dict(defaults)
    merged.update({k: v for k, v in config_values.items() if k in defaults})
    for key in defaults:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
    return RunConfig(command=args.command, options=merged)


def _quad(cfg: RunConfig) -> QuadratureSpec:
    return QuadratureSpec(u_max=cfg.options.get("u_max"), n_u=cfg.n_u,
                          n_phi=cfg.n_phi, tol=cfg.tol)


def _ctrl(cfg: RunConfig) -> SeriesControl:
    return SeriesControl(tol=cfg.series_tol, m_cap=cfg.m_cap, mode=cfg.options.get("mode", "normalized"))


_COMMON_DEFAULTS = {
    "tol": 1e-9, "series_tol": 1e-12, "n_u": 96, "n_phi": 64, "m_cap": 256,
    "u_max": None, "format": "csv", "output": None, "workers": 1,
}

ACCEPTANCE_T = [0.5, 1.0, 2.0]
ACCEPTANCE_R = [0.0, 0.5, 1.0, 2.0]
ACCEPTANCE_ETA = [0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0]

_BOTH_FIELDS = ["t", "r", "eta", "p_rep1", "p_rep1_err", "m_used", "u_max_used",
                "p_rep2", "p_rep2_err", "rel_diff"]


# ---------------------------------------------------------------------------
# pointwise kernel jobs (picklable for the worker pool)


def _usable(v: float) -> bool:
    """A kernel value that can be compared: finite and not underflowed to 0."""
    return math.isfinite(v) and v != 0.0


def _rel_diff(a: float, b: float) -> float:
    """|a - b| / |b|, or inf when either side is not usable, so it never agrees."""
    return abs(a - b) / abs(b) if _usable(a) and _usable(b) else math.inf


def _evaluate(kernel, *args, **kwargs):
    """The kernel's result, or the zero or non-finite one it refused, for its row."""
    try:
        return kernel(*args, **kwargs)
    except KernelRangeError as exc:
        return exc.result


def _point_job(job):
    t, r, eta, rep, quad, ctrl, path = job
    row = {"t": t, "r": r, "eta": eta}
    k1 = _evaluate(heat_kernel_rep1, t, r, eta, quad, ctrl) if rep != "2" else None
    k2 = _evaluate(heat_kernel_rep2, t, r, eta, quad, ctrl, path=path) if rep != "1" else None
    if rep != "both":
        k = k1 if rep == "1" else k2
        row.update(value=k.value, est_error=k.est_error, m_used=k.m_used, u_max_used=k.u_max_used)
    else:
        row.update(p_rep1=k1.value, p_rep1_err=k1.est_error, m_used=k1.m_used,
                   u_max_used=k1.u_max_used, p_rep2=k2.value, p_rep2_err=k2.est_error,
                   rel_diff=_rel_diff(k1.value, k2.value))
    return row


def _run_points(cfg, points, rep, path="mode_series"):
    jobs = [(t, r, eta, rep, _quad(cfg), _ctrl(cfg), path) for (t, r, eta) in points]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(_point_job, jobs))
    return [_point_job(j) for j in jobs]


def _grid(cfg):
    return [(t, r, eta) for t in cfg.t for r in cfg.r for eta in cfg.eta]


def _checked(row: dict, good: bool) -> dict:
    """A check record with its pass/fail status."""
    row["status"] = "pass" if good else "fail"
    return row


def _exit_code(rows) -> int:
    return 1 if any(row.get("status") == "fail" for row in rows) else 0


# ---------------------------------------------------------------------------
# commands


def _cmd_eval(cfg: RunConfig, out):
    rep = cfg.rep
    rows = _run_points(cfg, _grid(cfg), rep, path=cfg.path)
    fields = _BOTH_FIELDS if rep == "both" else [
        "t", "r", "eta", "value", "est_error", "m_used", "u_max_used"]
    write_records(rows, fields, cfg.format, out)
    values = ("p_rep1", "p_rep2") if rep == "both" else ("value",)
    bad = sum(not _usable(row[k]) for row in rows for k in values)
    if bad:
        print(f"{bad} kernel values are zero or not finite", file=sys.stderr)
    return 1 if bad else 0


def _cmd_compare_reps(cfg: RunConfig, out):
    if cfg.what == "reps":
        rows = _run_points(cfg, _grid(cfg), "both", path=cfg.path)
        fields = _BOTH_FIELDS
    elif cfg.what == "rep2-paths":
        quad, ctrl = _quad(cfg), _ctrl(cfg)
        rows = []
        for (t, r, eta) in _grid(cfg):
            a = _evaluate(heat_kernel_rep2, t, r, eta, quad, ctrl, path="direct_2d")
            b = _evaluate(heat_kernel_rep2, t, r, eta, quad, ctrl, path="mode_series")
            rows.append({"t": t, "r": r, "eta": eta, "direct_2d": a.value,
                         "mode_series": b.value, "rel_diff": _rel_diff(a.value, b.value)})
        fields = ["t", "r", "eta", "direct_2d", "mode_series", "rel_diff"]
    else:
        raise ValueError(f"unknown comparison {cfg.what!r}")
    write_records(rows, fields, cfg.format, out)
    diffs = [row["rel_diff"] for row in rows]
    print(f"max relative difference = {max(diffs):.6e} (threshold {cfg.threshold:.1e})",
          file=sys.stderr)
    # written so that a NaN difference fails
    return 0 if all(d <= cfg.threshold for d in diffs) else 1


def _cmd_residual(cfg: RunConfig, out):
    which_list = ["rep1", "rep2"] if cfg.which == "both" else [cfg.which]
    quad, ctrl = _quad(cfg), _ctrl(cfg)
    rows = []
    for (t, r, eta) in _grid(cfg):
        for which in which_list:
            res, scale, p = heat_residual(which, t, r, eta, quad, ctrl)
            bound = cfg.rel_tol * scale + cfg.abs_tol * p
            rows.append(_checked({"t": t, "r": r, "eta": eta, "which": which, "residual": res,
                                  "dt_scale": scale, "bound": bound}, res <= bound))
    write_records(rows, ["t", "r", "eta", "which", "residual", "dt_scale", "bound", "status"],
                  cfg.format, out)
    return _exit_code(rows)


def _cmd_mass(cfg: RunConfig, out):
    quad, ctrl = _quad(cfg), _ctrl(cfg)
    rows = []
    masses = []
    ok = True
    for t in cfg.t:
        m = total_mass(t, quad=quad, ctrl=ctrl)
        masses.append(m)
        row = {"t": t, "mass": m, "mass_ratio_to_first": m / masses[0]}
        if cfg.moment:
            mom = weighted_integral(lambda r, eta: np.cosh(r) * np.cos(eta), t,
                                    quad=quad, ctrl=ctrl, f_growth=1.0)
            expected = math.exp(8.0 * t)
            rel = abs(mom / m - expected) / expected
            ok = ok and rel <= 1e-4
            row.update(eigen_moment=mom, moment_over_mass=mom / m,
                       expected=expected, moment_rel_err=rel)
        rows.append(row)
    drift = max(abs(m / masses[0] - 1.0) for m in masses)
    ok = ok and drift <= 1e-5
    fields = list(rows[0].keys())
    write_records(rows, fields, cfg.format, out)
    print(f"mass drift over t = {drift:.3e}; mass[0] = {masses[0]:.9e}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_mc_check(cfg: RunConfig, out):
    quad, ctrl = _quad(cfg), _ctrl(cfg)
    times = sorted(cfg.t)
    base = SdeConfig(n_paths=cfg.n_paths, dt=cfg.dt, seed=cfg.seed, t_end=times[-1])
    snapshots = simulate_paths(base, snapshot_times=tuple(times[:-1]))
    by_time = {round(s.time, 10): s for s in snapshots}
    rows = []
    for t in times:
        samples = by_time[round(t, 10)]
        mass = total_mass(t, quad=quad, ctrl=ctrl)
        for name, func, growth in MC_TEST_FUNCTIONS:
            mean, stderr = estimate_expectation(func, base, samples=samples)
            analytic = weighted_integral(func, t, quad=quad, ctrl=ctrl,
                                         f_growth=growth) / mass
            z = (mean - analytic) / stderr if stderr > 0 else 0.0
            rows.append({"function": f"{name}@t={t:g}", "mc_mean": mean,
                         "stderr": stderr, "analytic": analytic, "z": z})
    write_records(rows, ["function", "mc_mean", "stderr", "analytic", "z"], cfg.format, out)
    return 0 if all(abs(row["z"]) <= cfg.z_max for row in rows) else 1


def _cmd_fiber(cfg: RunConfig, out):
    ctrl = _ctrl(cfg)
    rows = []
    if cfg.check == "values":
        for t in cfg.t:
            for eta in cfg.eta:
                for u in cfg.u:
                    v = fiber_heat_kernel(t, eta, u, continued=cfg.continued, ctrl=ctrl)
                    rows.append({"t": t, "eta": eta, "u": u, "continued": cfg.continued,
                                 "mode": ctrl.mode, "value": v.value, "m_used": v.m_used,
                                 "tail_bound": v.tail_bound})
        fields = ["t", "eta", "u", "continued", "mode", "value", "m_used", "tail_bound"]
    elif cfg.check == "normalization":
        u, w = gl_nodes(200, 0.0, math.pi)
        for t in cfg.t:
            for eta in cfg.eta:
                vals = np.array([fiber_heat_kernel(t, eta, float(ui), ctrl=ctrl).value
                                 for ui in u])
                integral = float(np.dot(w, vals * np.sin(u) ** 6))
                target = 1.0 if ctrl.mode == "normalized" else 2.0
                dev = abs(integral - target)
                rows.append(_checked({"t": t, "eta": eta, "integral": integral,
                                      "deviation": dev}, dev <= 1e-8))
        fields = ["t", "eta", "integral", "deviation", "status"]
    elif cfg.check == "orthogonality":
        u, w = gl_nodes(200, 0.0, math.pi)
        pm = jacobi_sequence(10, np.cos(u))
        weight = w * np.sin(u) ** 6
        for m in range(11):
            for n in range(11):
                integral = float(np.einsum("i,i,i->", pm[m], pm[n], weight))
                if m == n:
                    dev = abs(integral - jacobi_norm_sq(m)) / jacobi_norm_sq(m)
                else:
                    dev = abs(integral) / jacobi_norm_sq(m)
                rows.append(_checked({"m": m, "n": n, "integral": integral, "deviation": dev},
                                     dev <= 1e-8))
        fields = ["m", "n", "integral", "deviation", "status"]
    elif cfg.check == "profile":
        etas = np.linspace(0.0, math.pi, 61)
        for m in range(16):
            pm = jacobi_sequence(m, np.cos(etas))[m]
            p1 = jacobi_end_value(m)
            worst = max(abs(fiber_mode_profile(m, float(e)) - v / p1)
                        for e, v in zip(etas, pm))
            rows.append(_checked({"m": m, "max_abs_err": worst}, worst <= 1e-10))
        fields = ["m", "max_abs_err", "status"]
    elif cfg.check == "chebyshev":
        us = np.linspace(0.0, 5.0, 100)
        for m in range(31):
            worst = 0.0
            for u in us:
                ref = math.cosh((m + 3) * u)
                worst = max(worst, abs(hyp2f1_terminating(m, math.cosh(u)) - ref) / ref)
            rows.append(_checked({"m": m, "max_rel_err": worst}, worst <= 1e-10))
        fields = ["m", "max_rel_err", "status"]
    else:
        raise ValueError(f"unknown fiber check {cfg.check!r}")
    write_records(rows, fields, cfg.format, out)
    return _exit_code(rows)


def _radial_pde_residual(n: int, t: float, s: float) -> float:
    """|dq/dt - radial Laplacian q| / (|dq/dt| + 1e-5 q) for the n-dimensional kernel.

    Central differences with one Richardson step in t and in s; the scale
    makes a bound of 1e-5 read as 1e-5 relative plus 1e-10 q.
    """
    def q(tt, ss):
        return hyperbolic_heat_kernel(n, tt, ss)

    def richardson(diff, h):
        coarse, fine = diff(h), diff(h / 2.0)
        return fine + (fine - coarse) / 3.0

    time_deriv = richardson(lambda h: (q(t + h, s) - q(t - h, s)) / (2.0 * h), 1e-3 * t)
    spatial = richardson(lambda h: (q(t, s + h) - 2.0 * q(t, s) + q(t, s - h)) / h ** 2
                         + (n - 1.0) / math.tanh(s) * (q(t, s + h) - q(t, s - h)) / (2.0 * h), 1e-3)
    return abs(time_deriv - spatial) / (abs(time_deriv) + 1e-5 * q(t, s))


def _cmd_hyperbolic(cfg: RunConfig, out):
    if cfg.dump_terms:
        for line in dump_term_table(cfg.n):
            out.write(line + "\n")
        return 0
    if cfg.check == "suite":
        rows = []
        # normalization against the full volume for the two dimensions in use
        for n in (9, 15):
            omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
            for t in cfg.t:
                s_max = (n - 1) * t + 12.0 * math.sqrt(t) + 5.0
                s, w = gl_nodes(1200, 1e-9, s_max)
                q = hyperbolic_heat_kernel(n, t, s)
                integral = float(np.dot(w, q * omega * np.sinh(s) ** (n - 1)))
                dev = abs(integral - 1.0)
                rows.append(_checked({"check": f"normalization_n{n}", "t": t, "value": integral,
                                      "deviation": dev}, dev <= 1e-6))
        # radial heat equation, worst point per (n, t)
        for n in (9, 15):
            for t in cfg.t:
                worst = max(_radial_pde_residual(n, t, s) for s in (0.5, 1.0, 2.0))
                rows.append(_checked({"check": f"pde_residual_n{n}", "t": t, "value": worst,
                                      "deviation": worst}, worst <= 1e-5))
        # classical 3-dimensional closed form
        worst = 0.0
        for t in cfg.t:
            for s in (1e-8, 0.3, 1.0, 2.5, 5.0):
                ref = math.exp(-t) / (4.0 * math.pi * t) ** 1.5 * (s / math.sinh(s)) \
                    * math.exp(-s * s / (4.0 * t))
                worst = max(worst, abs(hyperbolic_heat_kernel(3, t, s) - ref) / ref)
        rows.append(_checked({"check": "closed_form_n3", "t": 0.0, "value": worst,
                              "deviation": worst}, worst <= 1e-12))
        write_records(rows, ["check", "t", "value", "deviation", "status"], cfg.format, out)
        return _exit_code(rows)
    rows = []
    for t in cfg.t:
        for s in cfg.s:
            rows.append({"n": cfg.n, "t": t, "s": s,
                         "value": float(hyperbolic_heat_kernel(cfg.n, t, s))})
    write_records(rows, ["n", "t", "s", "value"], cfg.format, out)
    return 0


def _cmd_octonion_check(cfg: RunConfig, out):
    rng = np.random.default_rng(cfg.seed)
    rows = []

    def record(check, err, tol):
        rows.append(_checked({"check": check, "max_error": err, "tolerance": tol}, err <= tol))

    err = 0.0
    for (i, j, k) in oct.GENERATOR_TRIPLES:
        prod = oct.oct_mul(oct.Octonion.basis(i), oct.Octonion.basis(j))
        err = max(err, float(np.max(np.abs(prod.coeffs - oct.Octonion.basis(k).coeffs))))
    record("generator_triples", err, 0.0)

    err = 0.0
    for _ in range(cfg.n_pairs):
        a = oct.Octonion(rng.standard_normal(8))
        b = oct.Octonion(rng.standard_normal(8))
        ab = oct.oct_mul(a, b)
        err = max(err, abs(ab.norm() - a.norm() * b.norm()) / (a.norm() * b.norm()))
    record("norm_multiplicativity", err, 1e-12)

    err = 0.0
    for _ in range(cfg.n_pairs):
        a = oct.Octonion(rng.standard_normal(8))
        b = oct.Octonion(rng.standard_normal(8))
        left = oct.oct_mul(a, oct.oct_mul(a, b)) - oct.oct_mul(oct.oct_mul(a, a), b)
        right = oct.oct_mul(oct.oct_mul(b, a), a) - oct.oct_mul(b, oct.oct_mul(a, a))
        scale = max(1.0, a.norm_sq() * b.norm())
        err = max(err, max(np.max(np.abs(left.coeffs)), np.max(np.abs(right.coeffs))) / scale)
    record("alternativity", err, 1e-12)

    witness = 0.0
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                ei, ej, ek = (oct.Octonion.basis(x) for x in (i, j, k))
                diff = oct.oct_mul(oct.oct_mul(ei, ej), ek) - oct.oct_mul(ei, oct.oct_mul(ej, ek))
                witness = max(witness, float(np.max(np.abs(diff.coeffs))))
    # here the "error" is the shortfall below the required witness size 2
    record("non_associativity_witness", 2.0 - witness, 0.0)

    quadric = projection = 0.0
    for _ in range(100):
        w = oct.Octonion(rng.standard_normal(8) * 0.3)
        if w.norm() >= 0.99:
            continue
        theta = rng.standard_normal(7) * 0.3
        p = oct.cyl_to_ads(oct.CylCoord(w=w, theta=theta))
        # scaled as in the acceptance gate: |y|^2 is the size of both terms
        quadric = max(quadric, abs(oct.pseudo_norm(p.x, p.y) + 1.0) / max(1.0, p.y.norm_sq()))
        back = oct.ads_project(p)
        projection = max(projection, float(np.max(np.abs(back.coeffs - w.coeffs))))
    record("quadric", quadric, 1e-12)
    record("projection", projection, 1e-12)

    write_records(rows, ["check", "max_error", "tolerance", "status"], cfg.format, out)
    return _exit_code(rows)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--tol", type=float, help="quadrature tolerance")
    p.add_argument("--series-tol", dest="series_tol", type=float)
    p.add_argument("--u-max", dest="u_max", type=float)
    p.add_argument("--n-u", dest="n_u", type=int)
    p.add_argument("--n-phi", dest="n_phi", type=int)
    p.add_argument("--m-cap", dest="m_cap", type=int)
    p.add_argument("--workers", type=int)


def _add_grid(p):
    for name in ("t", "r", "eta"):
        p.add_argument(f"--{name}", type=_parse_float_list)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octads",
        description="Subelliptic heat kernel of the octonionic anti-de Sitter fibration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the kernel on a grid")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--rep", choices=("1", "2", "both"))
    p.add_argument("--path", choices=("mode_series", "direct_2d"))

    p = sub.add_parser("compare-reps", help="cross-validate the two representations")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--what", choices=("reps", "rep2-paths"))
    p.add_argument("--path", choices=("mode_series", "direct_2d"))
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("residual", help="heat equation residual at interior points")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--which", choices=("rep1", "rep2", "both"))
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--abs-tol", dest="abs_tol", type=float,
                   help="absolute floor of the bound as a multiple of the kernel value p "
                        "(bound = rel_tol |dp/dt| + abs_tol p; default 1e-8)")

    p = sub.add_parser("mass", help="total mass and eigen-moment checks")
    _add_common(p)
    p.add_argument("--t", type=_parse_float_list)
    p.add_argument("--moment", action="store_const", const=True)
    p.add_argument("--no-moment", dest="moment", action="store_const", const=False)

    p = sub.add_parser("mc-check", help="Monte Carlo oracle against quadrature")
    _add_common(p)
    p.add_argument("--t", type=_parse_float_list)
    p.add_argument("--n-paths", dest="n_paths", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--z-max", dest="z_max", type=float)

    p = sub.add_parser("fiber", help="fiber kernel values and identities")
    _add_common(p)
    p.add_argument("--t", type=_parse_float_list)
    p.add_argument("--eta", type=_parse_float_list)
    p.add_argument("--u", type=_parse_float_list)
    p.add_argument("--continued", action="store_const", const=True)
    p.add_argument("--mode", choices=("normalized", "raw"))
    p.add_argument("--check", choices=("values", "normalization", "orthogonality",
                                       "profile", "chebyshev"))

    p = sub.add_parser("hyperbolic", help="odd-dimensional hyperbolic kernels")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=_parse_float_list)
    p.add_argument("--s", type=_parse_float_list)
    p.add_argument("--dump-terms", dest="dump_terms", action="store_const", const=True)
    p.add_argument("--check", choices=("suite",))

    p = sub.add_parser("octonion-check", help="algebra and coordinate checks")
    _add_common(p)
    p.add_argument("--n-pairs", dest="n_pairs", type=int)
    p.add_argument("--seed", type=int)

    return parser


_DEFAULTS = {
    "eval": {**_COMMON_DEFAULTS, "t": [1.0], "r": ACCEPTANCE_R, "eta": ACCEPTANCE_ETA,
             "rep": "both", "path": "mode_series"},
    "compare-reps": {**_COMMON_DEFAULTS, "t": ACCEPTANCE_T, "r": ACCEPTANCE_R,
                     "eta": ACCEPTANCE_ETA, "what": "reps", "path": "mode_series",
                     "threshold": 1e-6},
    "residual": {**_COMMON_DEFAULTS, "t": [1.0], "r": [0.5, 1.0],
                 "eta": [math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0],
                 "which": "both", "rel_tol": 1e-4, "abs_tol": 1e-8},
    "mass": {**_COMMON_DEFAULTS, "t": ACCEPTANCE_T, "moment": True, "n_u": 192},
    "mc-check": {**_COMMON_DEFAULTS, "t": [0.5, 1.0], "n_paths": 100_000, "dt": 1e-4,
                 "seed": 0, "z_max": 3.0, "n_u": 192},
    "fiber": {**_COMMON_DEFAULTS, "t": [0.1, 0.5, 1.0, 2.0],
              "eta": [0.0, math.pi / 4.0, math.pi / 2.0], "u": [0.5],
              "continued": False, "mode": "normalized", "check": "values"},
    "hyperbolic": {**_COMMON_DEFAULTS, "n": 15, "t": ACCEPTANCE_T, "s": [0.5, 1.0, 2.0],
                   "dump_terms": False, "check": None},
    "octonion-check": {**_COMMON_DEFAULTS, "n_pairs": 1000, "seed": 0},
}

_HANDLERS = {
    "eval": _cmd_eval,
    "compare-reps": _cmd_compare_reps,
    "residual": _cmd_residual,
    "mass": _cmd_mass,
    "mc-check": _cmd_mc_check,
    "fiber": _cmd_fiber,
    "hyperbolic": _cmd_hyperbolic,
    "octonion-check": _cmd_octonion_check,
}


def run(cfg: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    handler = _HANDLERS[cfg.command]
    if cfg.options.get("output"):
        with open(cfg.options["output"], "w", encoding="utf-8", newline="") as out:
            return handler(cfg, out)
    return handler(cfg, sys.stdout)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, _DEFAULTS[args.command])
        return run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
