"""One workload in one fresh interpreter; prints a single JSON line.

run.py starts this file with the checkout's src/ on PYTHONPATH:

  python3 perfbench/worker.py --workload W --seed N \
      --mode setup|measure|trace --t0 T [--smoke]

--t0 is the parent's time.monotonic() taken just before the start, so the
reported set-up time covers interpreter start, import and the warm-up call.
Mode setup stops there.  Mode measure then runs one pass over the
workload's fixed inputs and reports every operation's outcome and latency.
Mode trace first times the hyperbolic table build, then runs the pass with
spans at the package's module boundaries, and adds the per-layer numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def ones(r, eta):
    return np.ones_like(r)


def eigen_moment(r, eta):
    return np.cosh(r) * np.cos(eta)


class Tally:
    """Outcome and latency of every operation of one pass, in order."""

    def __init__(self):
        self.ops: list[list] = []  # [group, fail class or None, operations, seconds]
        self.foreign = Counter()  # exceptions not raised by the package itself

    def record(self, group: str, seconds: float, fail: str | None, ops: int = 1):
        self.ops.append([group, fail, ops, seconds])

    def exception(self, exc: Exception) -> str:
        name = type(exc).__name__
        if not type(exc).__module__.startswith("octads"):
            self.foreign[name] += 1
        return name

    @property
    def busy_s(self) -> float:
        return sum(op[3] for op in self.ops)

    def fails(self) -> Counter:
        out = Counter()
        for _, fail, n, _ in self.ops:
            if fail is not None:
                out[fail] += n
        return out


# --- workloads -------------------------------------------------------------


def _integral(sk, tally: Tally, f, t: float, check, **kwargs):
    """One weighted_integral call as one operation; returns the value or None."""
    start = time.perf_counter()
    value = None
    try:
        value = sk.weighted_integral(f, t, **kwargs)
    except Exception as exc:  # every failure of the package is counted
        fail = tally.exception(exc)
    else:
        fail = check(value)
    tally.record(f"t={t}", time.perf_counter() - start, fail)
    return value


def density_integrals(pkg, tally: Tally, smoke: bool):
    sk, tests = pkg.subelliptic_kernel, pkg.mc_oracle.MC_TEST_FUNCTIONS
    for t in [wl.REP2_T] if smoke else wl.density_times():
        mass = _integral(sk, tally, ones, t, wl.check_mass)
        if t not in wl.FULL_T:
            continue
        ref = mass if mass is not None and not wl.check_mass(mass) else wl.EXACT_MASS
        _integral(sk, tally, eigen_moment, t, lambda v: wl.check_moment(v, ref, t), f_growth=1.0)
        for name, f, growth in tests:
            _integral(sk, tally, f, t, lambda v: wl.check_mean(name, v, ref), f_growth=growth)
        if t == wl.REP2_T:
            _integral(sk, tally, ones, t, lambda v: wl.check_mass(v) or (
                None if mass is None else wl.check_reps(mass, v)), which="rep2")


def mc_paths(pkg, seed: int, tally: Tally, smoke: bool):
    mc = pkg.mc_oracle
    n_paths, t_end = (64, 0.002) if smoke else (wl.MC_PATHS, wl.MC_T_END)
    snapshot = t_end * wl.MC_SNAPSHOT / wl.MC_T_END
    cfg = mc.SdeConfig(n_paths=n_paths, dt=wl.MC_DT, seed=wl.mc_seed(seed), t_end=t_end)
    path_steps = n_paths * round(t_end / wl.MC_DT)
    start = time.perf_counter()
    fail = None
    try:
        sets = mc.simulate_paths(cfg, snapshot_times=(snapshot,))
    except Exception as exc:  # every failure of the package is counted
        fail = tally.exception(exc)
    else:
        for s in sets:
            fail = fail or wl.check_mc(wl.mc_z(np.cosh(s.r) * np.cos(s.eta), s.time))
    tally.record("call", time.perf_counter() - start, fail, ops=path_steps)


def run_pass(pkg, name: str, seed: int, tally: Tally, smoke: bool):
    """One pass over the workload's fixed inputs."""
    if name == "density_integrals":
        density_integrals(pkg, tally, smoke)
    else:
        mc_paths(pkg, seed, tally, smoke)


def warm_up(pkg, name: str):
    """One call of each entry point the workload drives."""
    if name == "density_integrals":
        pkg.weighted_integral(ones, 0.1)
        pkg.weighted_integral(ones, 0.1, which="rep2")
    else:
        pkg.simulate_paths(pkg.SdeConfig(n_paths=64, dt=wl.MC_DT, t_end=0.002), snapshot_times=(0.001,))


# --- tracing -----------------------------------------------------------------


def install_tracer(pkg) -> tuple[Tracer, dict]:
    sk, mc = pkg.subelliptic_kernel, pkg.mc_oracle
    tracer = Tracer()
    fiber = {"m_max": 0}

    def fiber_cells(args, result):
        out, m_used = result[0], result[1]
        fiber["m_max"] = max(fiber["m_max"], m_used)
        return out.size * (m_used + 1)

    def grid_cells(args, result):
        return result[0].size * args[3]  # (r, eta) values times u nodes

    tracer.wrap(sk, "hyperbolic_heat_kernel_composed", "hyperbolic", lambda a, res: np.size(res))
    tracer.wrap(sk, "_series_matrix", "fiber", fiber_cells)
    tracer.wrap(sk, "jacobi_sequence", "jacobi")
    tracer.wrap(sk, "gl_nodes", "gl")
    tracer.wrap(sk, "_rep1_grid", "grid", grid_cells)
    tracer.wrap(sk, "_rep2_grid", "grid", grid_cells)
    tracer.wrap(sk, "weighted_integral", "integral")
    tracer.wrap(mc, "strang_step", "step", lambda a, res: np.size(a[0]))
    tracer.wrap(mc, "simulate_paths", "simulate")
    return tracer, fiber


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def wrapper_cost_s() -> float:
    """Time one span adds to a call, the fastest of several batches of calls."""
    mod = types.ModuleType("calibration")
    mod.f = bare = lambda x: x
    Tracer().wrap(mod, "f", "f", lambda args, result: 1)
    traced, n, plain, wrapped = mod.f, 20000, [], []
    for _ in range(5):
        for fn, out in ((bare, plain), (traced, wrapped)):
            start = time.perf_counter()
            for i in range(n):
                fn(i)
            out.append((time.perf_counter() - start) / n)
    return max(0.0, min(wrapped) - min(plain))


def layer_metrics(tracer: Tracer, fiber: dict, tally: Tally, table_build_s: float) -> dict:
    g = tracer.get
    hyp, fib, jac, gl = g("hyperbolic"), g("fiber"), g("jacobi"), g("gl")
    grid, integral, step, sim = g("grid"), g("integral"), g("step"), g("simulate")
    total = tally.busy_s
    fails = dict(tally.fails())
    spans = sum(span.calls for span in tracer.spans.values())
    known = ("QuadratureConvergenceError", "mismatch",
             "zero_or_nonfinite", "mass_tol", "moment_tol", "range", "mc_z")
    out = {
        "hyperbolic_kernel.calls": (hyp.calls, "count"),
        "hyperbolic_kernel.nodes": (hyp.size, "count"),
        "hyperbolic_kernel.busy_s": (hyp.busy_s, "s"),
        "hyperbolic_kernel.ns_per_node": (1e9 * _ratio(hyp.busy_s, hyp.size), "ns"),
        "hyperbolic_kernel.table_build_s": (table_build_s, "s"),
        "hyperbolic_kernel.share": (_ratio(hyp.busy_s, total), "1"),
        "fiber_kernel.calls": (fib.calls, "count"),
        "fiber_kernel.busy_s": (fib.busy_s, "s"),
        "fiber_kernel.mode_cells": (fib.size, "count"),
        "fiber_kernel.ns_per_mode_cell": (1e9 * _ratio(fib.busy_s, fib.size), "ns"),
        "fiber_kernel.m_max": (fiber["m_max"], "count"),
        "fiber_kernel.share": (_ratio(fib.busy_s, total), "1"),
        "special_fn.jacobi_calls": (jac.calls, "count"),
        "special_fn.jacobi_busy_s": (jac.busy_s, "s"),
        "special_fn.gl_calls": (gl.calls, "count"),
        "special_fn.gl_busy_s": (gl.busy_s, "s"),
        "special_fn.share": (_ratio(jac.busy_s + gl.busy_s, total), "1"),
        "subelliptic_kernel.grid_calls": (grid.calls, "count"),
        "subelliptic_kernel.grid_cells": (grid.size, "count"),
        "subelliptic_kernel.grid_busy_s": (grid.busy_s, "s"),
        "subelliptic_kernel.levels_per_integral": (_ratio(grid.calls, integral.calls), "count"),
        "subelliptic_kernel.integral_self_s": (integral.self_s, "s"),
        "mc_oracle.path_steps": (step.size, "count"),
        "mc_oracle.step_busy_s": (step.busy_s, "s"),
        "mc_oracle.step_ns_per_path_step": (1e9 * _ratio(step.busy_s, step.size), "ns"),
        "mc_oracle.noise_s": (sim.self_s, "s"),
        "mc_oracle.noise_ns_per_path_step": (1e9 * _ratio(sim.self_s, step.size), "ns"),
        "mc_oracle.share": (_ratio(sim.busy_s, total), "1"),
        "trace.overhead_frac": (_ratio(spans * wrapper_cost_s(), total), "1"),
        "trace.uncovered_s": (total - tracer.top_busy_s, "s"),
        "trace.missing_targets": (len(tracer.missing), "count"),
        "trace.op_busy_s": (total, "s"),
    }
    for cls in known:
        out[f"fail.{cls}"] = (fails.pop(cls, 0), "count")
    out["fail.other_exception"] = (sum(fails.values()), "count")
    return out


# --- environment ---------------------------------------------------------------


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, else what the environment sets."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var]
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# --- main ----------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import octads as pkg

    if Path(pkg.__file__).resolve().parent != (SRC / "octads").resolve():
        raise SystemExit(f"octads imported from {pkg.__file__}, not from {SRC}")
    table_build_s = 0.0
    if args.mode == "trace" and args.workload != "mc_paths":
        start = time.perf_counter()
        pkg.hyperbolic_kernel.hyperbolic_heat_kernel(9, 1.0, 0.5)
        pkg.hyperbolic_kernel.hyperbolic_heat_kernel(15, 1.0, 0.5)
        table_build_s = time.perf_counter() - start
    warm_up(pkg, args.workload)
    report = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(report))
        return

    tally = Tally()
    if args.mode == "trace":
        tracer, fiber = install_tracer(pkg)
        try:
            run_pass(pkg, args.workload, args.seed, tally, args.smoke)
        finally:
            tracer.unwrap()
        metrics = layer_metrics(tracer, fiber, tally, table_build_s)
        report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["missing_targets"] = tracer.missing
    else:
        run_pass(pkg, args.workload, args.seed, tally, args.smoke)
    report.update(ops=tally.ops, foreign=dict(tally.foreign),
                  blas_threads=blas_threads(), peak_rss_mb=peak_rss_mb())
    print(json.dumps(report))


if __name__ == "__main__":
    main()
