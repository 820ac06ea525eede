"""Command-line front end: kernel grids, the checks of octads.acceptance, CSV/JSON output.

Flags override config-file keys (flat key = value text); records are written
byte-identically for identical inputs: floats as %.12e, comma-separated CSV
with LF endings, or a JSON array of objects with the same field names.

Exit codes: 0 success, 1 validation threshold exceeded, 2 usage/config error,
an input outside the supported domain, or a series or quadrature that did not converge.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import acceptance as acc
from .fiber_kernel import SeriesControl, SeriesConvergenceError, fiber_heat_kernel
from .hyperbolic_kernel import hyperbolic_heat_kernel
from .subelliptic_kernel import QuadratureConvergenceError, QuadratureSpec


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
    values = [float(x) for x in text.split(",") if x.strip() != ""]
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def _convert(raw: str, default):
    """A config-file value, read as the type of the option's default (a float if None)."""
    if isinstance(default, bool):
        return raw.lower() in ("1", "true", "yes")
    if isinstance(default, (list, tuple)):
        return _parse_float_list(raw)
    return float(raw) if default is None else type(default)(raw)


def _load_config(path: str, defaults: dict) -> dict:
    """The file's values of the command's options; a key no command has is an error."""
    known = set().union(*_DEFAULTS.values())
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
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in defaults:
                values[key] = _convert(raw, defaults[key])
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
    merged = dict(defaults)
    if getattr(args, "config", None):
        merged.update(_load_config(args.config, defaults))
    for key in defaults:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
    return RunConfig(command=args.command, options=merged)


def _quad(cfg: RunConfig) -> QuadratureSpec:
    return QuadratureSpec(u_max=cfg.u_max, n_u=cfg.n_u, n_phi=cfg.n_phi, tol=cfg.tol)


def _ctrl(cfg: RunConfig) -> SeriesControl:
    return SeriesControl(tol=cfg.series_tol, m_cap=cfg.m_cap, mode=cfg.options.get("mode", "normalized"))


_COMMON_DEFAULTS = {
    "tol": 1e-9, "series_tol": 1e-12, "n_u": 96, "n_phi": 64, "m_cap": 256,
    "u_max": None, "format": "csv", "output": "",
}


def _check_defaults(check) -> dict:
    """A check's grid and controls: its parameters before `*`, with their defaults."""
    params = inspect.signature(check).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.POSITIONAL_OR_KEYWORD}


def _call(check, cfg: RunConfig):
    """The check's rows, run with the options it takes; quad and ctrl from the common ones."""
    params = inspect.signature(check).parameters
    kwargs = {k: cfg.options[k] for k in _check_defaults(check) if k in cfg.options}
    kwargs.update({k: build(cfg) for k, build in (("quad", _quad), ("ctrl", _ctrl))
                   if k in params})
    return check(**kwargs)


_NO_STATUS_COLUMN = ("compare-reps", "mass", "mc-check")  # the exit code carries the verdict


def _write_rows(rows, cfg: RunConfig, out) -> int:
    """Write rows with their fields as columns; the exit code is 1 if any row failed."""
    fields = [k for k in rows[0] if k != "status" or cfg.command not in _NO_STATUS_COLUMN]
    write_records(rows, fields, cfg.format, out)
    return 1 if any(row.get("status") == "fail" for row in rows) else 0


# "command [--check mode]" that runs one check
_CHECKS = {
    "residual": acc.heat_equation_residual,
    "mc-check": acc.mc_oracle,
    "octonion-check": acc.octonion_algebra,
    "fiber normalization": acc.fiber_normalization,
    "fiber orthogonality": acc.fiber_orthogonality,
    "fiber profile": acc.mode_profile,
    "fiber chebyshev": acc.chebyshev_identity,
    "hyperbolic suite": acc.hyperbolic_suite,
}


def _cmd_check(cfg: RunConfig, out):
    key = " ".join(filter(None, (cfg.command, cfg.options.get("check"))))
    if key not in _CHECKS:
        raise ValueError(f"unknown check {key!r}")
    return _write_rows(_call(_CHECKS[key], cfg), cfg, out)


# ---------------------------------------------------------------------------
# commands


def _cmd_eval(cfg: RunConfig, out):
    rows = _call(acc.point_rows, cfg)
    _write_rows(rows, cfg, out)
    values = ("p_rep1", "p_rep2") if cfg.rep == "both" else ("value",)
    bad = sum(not acc.usable(row[k]) for row in rows for k in values)
    if bad:
        print(f"{bad} kernel values are zero or not finite", file=sys.stderr)
    return 1 if bad else 0


def _cmd_compare_reps(cfg: RunConfig, out):
    check = {"reps": acc.representation_agreement,
             "rep2-paths": acc.rep2_path_agreement}.get(cfg.what)
    if check is None:
        raise ValueError(f"unknown comparison {cfg.what!r}")
    # the two comparisons default to their own checks' thresholds
    if cfg.threshold is None:
        cfg.options["threshold"] = _check_defaults(check)["threshold"]
    rows = _call(check, cfg)
    print(f"max relative difference = {max(row['rel_diff'] for row in rows):.6e} "
          f"(threshold {cfg.threshold:.1e})", file=sys.stderr)
    return _write_rows(rows, cfg, out)


def _cmd_mass(cfg: RunConfig, out):
    rows = _call(acc.mass_moment, cfg)
    drift = max(abs(row["mass_ratio_to_first"] - 1.0) for row in rows)
    print(f"mass drift over t = {drift:.3e}; mass[0] = {rows[0]['mass']:.9e}", file=sys.stderr)
    return _write_rows(rows, cfg, out)


def _cmd_fiber(cfg: RunConfig, out):
    if cfg.check != "values":
        return _cmd_check(cfg, out)
    ctrl = _ctrl(cfg)
    rows = []
    for t, eta, u in itertools.product(cfg.t, cfg.eta, cfg.u):
        v = fiber_heat_kernel(t, eta, u, continued=cfg.continued, ctrl=ctrl)
        rows.append({"t": t, "eta": eta, "u": u, "continued": cfg.continued, "mode": ctrl.mode,
                     "value": v.value, "m_used": v.m_used, "tail_bound": v.tail_bound})
    return _write_rows(rows, cfg, out)


def _cmd_hyperbolic(cfg: RunConfig, out):
    if cfg.check == "suite":
        return _cmd_check(cfg, out)
    rows = [{"n": cfg.n, "t": t, "s": s, "value": float(hyperbolic_heat_kernel(cfg.n, t, s))}
            for t, s in itertools.product(cfg.t, cfg.s)]
    return _write_rows(rows, cfg, out)


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
    p.add_argument("--check", choices=("suite",))

    p = sub.add_parser("octonion-check", help="algebra and coordinate checks")
    _add_common(p)
    p.add_argument("--n-pairs", dest="n_pairs", type=int)
    p.add_argument("--seed", type=int)

    return parser


_DEFAULTS = {
    "eval": {**_COMMON_DEFAULTS, "t": [1.0], "r": acc.GRID_R, "eta": acc.GRID_ETA,
             "rep": "both", "path": "mode_series"},
    "compare-reps": {**_COMMON_DEFAULTS, **_check_defaults(acc.representation_agreement),
                     "what": "reps", "threshold": None},
    "residual": {**_COMMON_DEFAULTS, **_check_defaults(acc.heat_equation_residual)},
    # n_u 192 is the quadrature measure integrals use by default
    "mass": {**_COMMON_DEFAULTS, **_check_defaults(acc.mass_moment), "n_u": 192},
    "mc-check": {**_COMMON_DEFAULTS, **_check_defaults(acc.mc_oracle), "n_u": 192},
    "fiber": {**_COMMON_DEFAULTS, **_check_defaults(acc.fiber_normalization), "u": [0.5],
              "continued": False, "mode": "normalized", "check": "values"},
    "hyperbolic": {**_COMMON_DEFAULTS, **_check_defaults(acc.hyperbolic_suite), "n": 15,
                   "check": "values"},
    "octonion-check": {**_COMMON_DEFAULTS, **_check_defaults(acc.octonion_algebra)},
}

_HANDLERS = {
    "eval": _cmd_eval,
    "compare-reps": _cmd_compare_reps,
    "residual": _cmd_check,
    "mass": _cmd_mass,
    "mc-check": _cmd_check,
    "fiber": _cmd_fiber,
    "hyperbolic": _cmd_hyperbolic,
    "octonion-check": _cmd_check,
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
    except (ValueError, OSError, SeriesConvergenceError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
