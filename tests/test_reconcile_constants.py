import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "reconcile_constants.py"),
                           *args], env=env, capture_output=True, text=True, timeout=120)


def test_reconcile_constants_quick_passes():
    # the script exits non-zero when a shipped constant no longer reconciles
    proc = run_script("--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_m_max_is_refused():
    # --m-max 0 skipped the eigenspace-dimension gate for m = 1..6 and still exited 0
    proc = run_script("--quick", "--m-max", "0")
    assert proc.returncode == 2
    assert "unrecognized arguments: --m-max 0" in proc.stderr
