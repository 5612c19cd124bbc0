"""Smoke tests of the example scripts, each run at a small size in a
fresh interpreter, so that they cannot rot unseen."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def test_convergence_study_runs(tmp_path):
    out = run_script("convergence_study.py", "--t-final", "0.1",
                     cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert "linf" in out.stdout


def test_profile_gallery_writes_csv(tmp_path):
    csv = tmp_path / "p.csv"
    out = run_script("profile_gallery.py", "--n", "41", "--out", str(csv),
                     cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = csv.read_text().splitlines()
    assert lines[0] == "family,speed,params,xi,u"
    assert len(lines) == 1 + 23 * 41
    assert f"{23 * 41} rows -> {csv}" in out.stdout
