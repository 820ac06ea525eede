"""The octads benchmark: one workload, one seed, fresh processes per run.

Run from the root of a checkout:

  python3 perfbench/run.py --workload density_integrals --seed 0 --seconds 30 --trace 0

Workloads: density_integrals, mc_paths (see BENCHMARK.json and README.md for
why each was chosen).  Each workload is a fixed amount of work, so the count
of operations never changes with the program's speed; --seconds is accepted
for the common interface and does not change it.  With --trace 0 the run
starts several fresh interpreters: each reports its set-up time, and the
first and the last of them then run one pass over the workload's inputs.
Set-up time is the fastest of the set-up samples, and each operation takes
the time of its faster pass, so a slow spell of the machine moves the
numbers less.
With --trace 1 one fresh interpreter runs the pass with spans at the
package's module boundaries and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the run's record: the
machine, each failed operation by class, sample counts and the children's
timings.  --smoke shrinks every input so the benchmark's own tests run fast.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
# Fresh processes per timed run, two of which run the workload; the mc_paths
# set-up is short, noisier and cheap.
PROCESSES = {"density_integrals": 5, "mc_paths": 9}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def start_child(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--t0", repr(time.monotonic())]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child passed the run's deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fastest(passes: list[dict]) -> list[float]:
    """Each operation's time in its faster pass, in the order the operations ran."""
    return [min(times) for times in zip(*([op[3] for op in child["ops"]] for child in passes))]


def end_to_end(setups: list[float], passes: list[dict]) -> dict:
    ops = passes[0]["ops"]
    ok = sum(n for _, fail, n, _ in ops if fail is None)
    return {
        "setup_s": (min(setups), "s"),
        "ops_per_s": (ok / sum(fastest(passes)), "op/s"),
        "ok_frac": (ok / sum(n for _, _, n, _ in ops), "1"),
        "peak_rss_mb": (max(child["peak_rss_mb"] for child in passes), "MiB"),
    }


def latency(passes: list[dict]) -> dict:
    """Percentiles of the successful operations' fastest latencies, for the record."""
    lat = [s for s, op in zip(fastest(passes), passes[0]["ops"]) if op[1] is None]
    lat_ms = 1e3 * np.asarray(lat or [np.nan])
    return {"op_p50_ms": float(np.percentile(lat_ms, 50)),
            "op_p90_ms": float(np.percentile(lat_ms, 90)),
            "unit": "ms", "samples": len(lat)}


def verdict(passes: list[dict]) -> list[str]:
    """Reasons the run's numbers cannot be trusted; empty when correct."""
    problems = [f"exception {name} x{n} from outside the package"
                for child in passes for name, n in child["foreign"].items()]
    outcomes = [[op[:3] for op in child["ops"]] for child in passes]
    if any(o != outcomes[0] for o in outcomes):
        problems.append("the passes over the same inputs had different outcomes")
    if not any(fail is None for _, fail, _ in outcomes[0]):
        problems.append("no operation passed its check")
    return problems


def run(args) -> tuple[dict, dict]:
    if not (SRC / "octads" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'octads'}")
    declared = declared_metrics()
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()[0]
    if args.trace:
        setups = []
        passes = [start_child(args, "trace", deadline)]
        metrics = {k: (m["value"], m["unit"]) for k, m in passes[0]["layers"].items()}
        kind = "per_layer"
    else:
        n_proc = 2 if args.smoke else PROCESSES[args.workload]
        # The passes go first and last, as far apart as the run allows, so
        # that one slow spell of the machine is less likely to cover both.
        modes = ["measure"] + ["setup"] * (n_proc - 2) + ["measure"]
        children = [start_child(args, mode, deadline) for mode in modes]
        setups = [child["setup_s"] for child in children]
        passes = [child for child in children if "ops" in child]
        metrics = end_to_end(setups, passes)
        kind = "end_to_end"
    units = {name: unit for name, (_, unit) in metrics.items()}
    if units != declared[kind]:
        raise BenchError(f"metrics {sorted(units)} do not match BENCHMARK.json {kind}")

    problems = verdict(passes)
    attempted = sum(n for child in passes for _, _, n, _ in child["ops"])
    ok = sum(n for child in passes for _, fail, n, _ in child["ops"] if fail is None)
    fails: dict[str, int] = {}
    for child in passes:
        for _, fail, n, _ in child["ops"]:
            if fail is not None:
                fails[fail] = fails.get(fail, 0) + n
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas_threads": passes[0]["blas_threads"],
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        "setup_samples_s": setups, "passes": len(passes),
        "op_s": [[op[0], op[1]] + [child["ops"][i][3] for child in passes]
                 for i, op in enumerate(passes[0]["ops"])],
        "attempted": attempted, "ok": ok, "fail_frac": 1.0 - ok / attempted,
        "fails_by_class": fails, "latency": latency(passes),
        "missing_trace_targets": passes[0].get("missing_targets", []),
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up sample")
    args = ap.parse_args(argv)
    try:
        record, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
