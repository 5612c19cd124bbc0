"""The benchmark under perfbench/ wraps mdpv functions by name and
checks the program's outputs with its own self-test.  Both run here in
a fresh interpreter, so that renaming a traced function or changing a
checked output fails tier-1 instead of only a traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# install() looks every traced name up and fails on a missing one
INSTALL = """
import tracing
tracing.Tracer("t").install()
print("installed")
"""


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_tracer_installs_on_every_traced_function():
    out = _run("-c", INSTALL)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "installed"


def test_benchmark_checks_reject_every_corruption():
    out = _run(str(ROOT / "perfbench" / "worker.py"), "selftest")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == {"rejected": 11}
