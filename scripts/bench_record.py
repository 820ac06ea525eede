"""Write a BENCH_*.json: the benchmark and the tier-1 wall times of two checkouts, side by side.

  python scripts/bench_record.py --before PARENT_CHECKOUT --after . --output BENCH_<n>.json

For each workload of BENCHMARK.json and each seed 0..runs-2 and the held-out seed
7919, both checkouts run perfbench/run.py (--trace 0), taking turns at going
first, and the file keeps the seeds and every run's end-to-end metrics with
their medians.  One traced run per workload and checkout adds every per-layer
metric of BENCHMARK.json.  Each command of CLI runs in a cold process `runs`
times per checkout, the checkouts taking turns, and the file keeps every time
with their median; it also keeps each checkout's src/octads line count, and
criterion 08's z-values from one acceptance.mc_oracle() call per checkout.
Then each checkout runs the tier-1 suite once, with pytest's --durations, for
its wall time and the wall time of each acceptance criterion.  Run it on a
machine that is otherwise idle; every figure is wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0"]
CRITERION = re.compile(r"^([\d.]+)s call\s+tests/test_acceptance\.py::test_criterion_(\d+)_")
SUMMARY = re.compile(r"^=* ?(\d+ (?:passed|failed).*?) in [\d.]+s")
# The octads commands timed in a cold process, each with its default grid unless given.
CLI = {"eval": ["eval"], "compare-reps": ["compare-reps"], "mass": ["mass"],
       "mc-check": ["mc-check", "--t", "0.05,0.1", "--n-paths", "16385", "--dt", "0.0005"]}
HELD_OUT_SEED = 7919  # perfbench/README.md: no change may tune on it, and every claim runs it
MC_Z = ("import json; from octads import acceptance; "
        "print(json.dumps({row['function']: row['z'] for row in acceptance.mc_oracle()}))")


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """The metrics of one perfbench run of the checkout at root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "30", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: {workload} seed {seed} was not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def cli_s(root: Path, args: list[str]) -> float:
    """Wall time of one `python -m octads` process of the checkout at root."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-m", "octads", *args, "--output", os.devnull], cwd=root,
                   env=_env(root), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True)
    return time.monotonic() - start


def mc_z(root: Path) -> dict:
    """Criterion 08's z-value per test function and time, for the checkout at root."""
    proc = subprocess.run([sys.executable, "-c", MC_Z], cwd=root, env=_env(root),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def src_lines(root: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (root / "src/octads").glob("*.py"))


def tier1(root: Path) -> dict:
    """Wall time of the tier-1 suite at root, its summary, and each criterion's call time."""
    start = time.monotonic()
    proc = subprocess.run(TIER1, cwd=root, env=_env(root), capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    criteria = {f"{int(m[2]):02d}": float(m[1]) for m in map(CRITERION.match, lines) if m}
    summary = next((m[1] for m in map(SUMMARY.match, reversed(lines)) if m), None)
    return {"wall_s": round(wall, 1), "exit_code": proc.returncode, "summary": summary,
            "criterion_call_s": dict(sorted(criteria.items()))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--after", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--runs", type=int, default=3, help="pairs of runs per workload, the "
                    "last at the held-out seed")
    ap.add_argument("--output", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    spec = json.loads((sides["after"] / "BENCHMARK.json").read_text())

    record = {
        "machine": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                    "python": sys.version.split()[0], "numpy": np.__version__,
                    "loadavg_1m_start": os.getloadavg()[0]},
        "benchmark": {},
    }
    seeds = record["seeds"] = [*range(args.runs - 1), HELD_OUT_SEED]
    for wl in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in sides}
        for run, seed in enumerate(seeds):
            for side in (list(sides) if run % 2 == 0 else list(reversed(sides))):
                runs[side].append(bench(sides[side], wl, seed, trace=0))
        out = record["benchmark"][wl] = {}
        for side, metrics in runs.items():
            out[side] = {name: {"median": statistics.median(m[name] for m in metrics),
                                "runs": [m[name] for m in metrics]} for name in metrics[0]}
            out[side]["trace"] = bench(sides[side], wl, 0, trace=1)
        print(f"{wl}: done", file=sys.stderr)
    record["cli_s"] = {}
    for name, cli_args in CLI.items():
        times = {side: [] for side in sides}
        for run in range(args.runs):
            for side in (list(sides) if run % 2 == 0 else list(reversed(sides))):
                times[side].append(round(cli_s(sides[side], cli_args), 3))
        record["cli_s"][name] = {side: {"median": statistics.median(runs), "runs": runs}
                                 for side, runs in times.items()}
    print("cli: done", file=sys.stderr)
    record["src_lines"] = {side: src_lines(root) for side, root in sides.items()}
    record["mc_z"] = {side: mc_z(root) for side, root in sides.items()}
    print("mc_z: done", file=sys.stderr)
    record["tier1"] = {side: tier1(root) for side, root in sides.items()}
    record["machine"]["loadavg_1m_end"] = os.getloadavg()[0]
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
