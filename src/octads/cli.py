"""Command-line front end: kernel grids, the checks of octads.acceptance, CSV/JSON output.

Each command runs one function of octads.acceptance, listed in one table, _COMMANDS, and
takes as options exactly that function's parameters, with their defaults.  An option's flag
is typed by its default and checked against its allowed words.  An argument @FILE is
replaced by the lines of FILE, one argument per line, so options kept in a file are read
as the same flags; a later argument overrides an earlier one.  Records are
written byte-identically for identical inputs: floats as %.12e, comma-separated CSV with LF
endings, or a JSON array of objects with the same field names.

Exit codes: 0 success, 1 validation threshold exceeded, 2 usage error,
an input outside the supported domain, or a series or quadrature that did not converge.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys

import numpy as np

from . import acceptance as acc
from .fiber_kernel import SeriesConvergenceError
from .subelliptic_kernel import QuadratureConvergenceError


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
# option values


def _parse_float_list(text: str):
    values = [float(x) for x in text.split(",") if x.strip() != ""]
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


# argparse names the type of a value it refuses by this
_parse_float_list.__name__ = "float list"


def _parse_as(default):
    """An option's type, read from its default: a float list if a tuple."""
    if isinstance(default, tuple):
        return _parse_float_list
    return type(default)


def _check_defaults(check) -> dict:
    """A check's options: its parameters, with their defaults."""
    return {p.name: p.default for p in inspect.signature(check).parameters.values()}


def _call(check, opts: dict):
    """The check's rows, run with its options."""
    return check(**{k: opts[k] for k in _check_defaults(check)})


def _write_rows(rows, opts: dict, out) -> int:
    """Write rows with their fields as columns; the exit code is 1 if any row failed."""
    write_records(rows, list(rows[0]), opts["format"], out)
    return 1 if any(row.get("status") == "fail" for row in rows) else 0


# ---------------------------------------------------------------------------
# commands


def _cmd_check(opts: dict, out):
    return _write_rows(_call(_COMMANDS[opts["command"]][1], opts), opts, out)


def _cmd_eval(opts: dict, out):
    rows = _call(acc.point_rows, opts)
    _write_rows(rows, opts, out)
    values = ("p_rep1", "p_rep2") if opts["rep"] == "both" else ("value",)
    bad = sum(not acc.usable(row[k]) for row in rows for k in values)
    if bad:
        print(f"{bad} kernel values are not positive, subnormal or not finite", file=sys.stderr)
    return 1 if bad else 0


def _cmd_compare_reps(opts: dict, out):
    rows = _call(_COMMANDS[opts["command"]][1], opts)
    threshold = acc._REPS_TOL if opts["command"] == "compare-reps" else acc._PATHS_TOL
    print(f"max relative difference = {max(row['rel_diff'] for row in rows):.6e} "
          f"(threshold {threshold:.1e})", file=sys.stderr)
    return _write_rows(rows, opts, out)


def _cmd_mass(opts: dict, out):
    rows = _call(acc.mass_moment, opts)
    drift = max(abs(row["mass_ratio_to_first"] - 1.0) for row in rows)
    print(f"mass drift over t = {drift:.3e}; mass[0] = {rows[0]['mass']:.9e}", file=sys.stderr)
    return _write_rows(rows, opts, out)


# ---------------------------------------------------------------------------
# the options of each command

# the allowed words of the options that take one
_WORDS = {"format": ("csv", "json"), "rep": ("1", "2", "both"),
          "which": ("rep1", "rep2", "both")}

# Per command: its help, the one function it runs, whose parameters are its options, and its
# handler.
_COMMANDS = {
    "eval": ("evaluate the kernel on a grid", acc.point_rows, _cmd_eval),
    "compare-reps": ("cross-validate the two representations", acc.representation_agreement,
                     _cmd_compare_reps),
    "rep2-paths": ("representation 2's two paths against each other", acc.rep2_path_agreement,
                   _cmd_compare_reps),
    "residual": ("heat equation residual on a grid", acc.heat_equation_residual,
                 _cmd_check),
    "mass": ("total mass and eigen-moment checks", acc.mass_moment, _cmd_mass),
    "mc-check": ("Monte Carlo oracle against quadrature", acc.mc_oracle, _cmd_check),
    "fiber": ("fiber kernel values", acc.fiber_values, _cmd_check),
    "fiber-normalization": ("the fiber kernel integrates to 1", acc.fiber_normalization,
                            _cmd_check),
    "orthogonality": ("Jacobi orthogonality", acc.fiber_orthogonality, _cmd_check),
    "mode-profile": ("fiber mode profiles against Jacobi ratios", acc.mode_profile, _cmd_check),
    "chebyshev": ("terminating 2F1 against cosh", acc.chebyshev_identity, _cmd_check),
    "hyperbolic": ("odd-dimensional hyperbolic kernel values", acc.hyperbolic_values, _cmd_check),
    "hyperbolic-suite": ("hyperbolic kernels of dimensions 3, 9 and 15", acc.hyperbolic_suite,
                         _cmd_check),
    "octonion-check": ("algebra and coordinate checks", acc.octonion_algebra, _cmd_check),
}

_HELP = {"output": "output path (default stdout)"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octads",
        description="Subelliptic heat kernel of the octonionic anti-de Sitter fibration",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, check, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, default in {**_check_defaults(check), "format": "csv", "output": ""}.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, action=argparse.BooleanOptionalAction, default=default,
                               help=_HELP.get(key))
            else:
                p.add_argument(flag, type=_parse_as(default), choices=_WORDS.get(key),
                               default=default, help=_HELP.get(key))
    return parser


def run(opts: dict) -> int:
    """Run a command with its resolved options; returns the process exit code."""
    handler = _COMMANDS[opts["command"]][2]
    if opts["output"]:
        with open(opts["output"], "w", encoding="utf-8", newline="") as out:
            return handler(opts, out)
    return handler(opts, sys.stdout)


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    try:
        return run(opts)
    except (ValueError, OSError, SeriesConvergenceError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
