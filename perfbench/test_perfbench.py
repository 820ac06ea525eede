"""Tests of the benchmark itself.

  python3 -m pytest perfbench -q

The smoke tests start the benchmark with --smoke, which keeps every workload
to a few seconds beyond the hyperbolic table build of a fresh process.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# --- inputs ------------------------------------------------------------------


def test_inputs_are_deterministic():
    assert wl.density_times() == wl.density_times()
    assert wl.REP2_T in wl.FULL_T and set(wl.MASS_ONLY_T).isdisjoint(wl.FULL_T)
    assert wl.mc_seed(4) == wl.mc_seed(4) != wl.mc_seed(5)


# --- checks --------------------------------------------------------------------


def test_checker_passes_good_values():
    assert wl.check_reps(1.0, 1.0 + 1e-8) is None
    assert wl.check_mass(wl.EXACT_MASS * (1.0 + 1e-7)) is None
    t = 0.5
    assert wl.check_moment(wl.EXACT_MASS * math.exp(8 * t), wl.EXACT_MASS, t) is None
    assert wl.check_mean("cos_eta", 0.5 * wl.EXACT_MASS, wl.EXACT_MASS) is None
    assert wl.check_mc(2.9) is None


def test_checker_flags_injected_bad_values():
    assert wl.check_reps(1.0, 1.0 + 1e-5) == "mismatch"
    assert wl.check_reps(0.0, 1e-300) == "zero_or_nonfinite"
    assert wl.check_reps(1.0, math.nan) == "zero_or_nonfinite"
    assert wl.check_mass(wl.EXACT_MASS + 1e-4) == "mass_tol"
    assert wl.check_mass(wl.EXACT_MASS * (1.0 + 1e-4)) == "mass_tol"
    assert wl.check_mass(0.0) == "zero_or_nonfinite"
    t = 0.5
    assert wl.check_moment(wl.EXACT_MASS * math.exp(8 * t) * (1 + 1e-3), wl.EXACT_MASS, t) == "moment_tol"
    assert wl.check_mean("sech_half_r", 1.5 * wl.EXACT_MASS, wl.EXACT_MASS) == "range"
    assert wl.check_mean("cosh_half_r", 0.5 * wl.EXACT_MASS, wl.EXACT_MASS) == "range"
    assert wl.check_mc(4.0) == "mc_z" and wl.check_mc(-4.0) == "mc_z"


def test_mc_z_of_exact_mean_is_zero():
    t = 0.25
    values = math.exp(8 * t) + np.array([-1.0, 1.0, -2.0, 2.0])
    assert wl.mc_z(values, t) == pytest.approx(0.0, abs=1e-12)


# --- tracer --------------------------------------------------------------------


def test_tracer_self_time_and_missing_target():
    mod = types.ModuleType("fake")
    mod.inner = lambda n: np.zeros(n)
    mod.outer = lambda n: mod.inner(n).size + mod.inner(n).size
    tr = tracer.Tracer()
    tr.wrap(mod, "inner", "inner", lambda args, res: res.size)
    tr.wrap(mod, "outer", "outer")
    tr.wrap(mod, "deleted_by_a_refactor", "gone")
    assert mod.outer(5) == 10
    inner, outer = tr.get("inner"), tr.get("outer")
    assert (inner.calls, inner.size, outer.calls) == (2, 10, 1)
    assert outer.self_s == pytest.approx(outer.busy_s - inner.busy_s)
    assert tr.top_busy_s == outer.busy_s
    assert tr.missing == ["fake.deleted_by_a_refactor"]
    assert tr.get("gone").calls == 0
    tr.unwrap()
    mod.outer(1)
    assert tr.get("outer").calls == 1


# --- whole runs ------------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert result["failed"] == sum(record["fails_by_class"].values())
    for key in ("nproc", "python", "numpy", "blas_threads", "loadavg_1m_start", "loadavg_1m_end"):
        assert key in record
    assert {"op_p50_ms", "op_p90_ms", "unit", "samples"} <= set(record["latency"])


def test_run_without_package_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mc_paths", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
