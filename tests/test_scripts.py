"""Smoke tests of the example scripts, each run at a small size in a
fresh interpreter, so that they cannot rot unseen."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    # the domain sweep runs boxes of one dx that the admissibility guard
    # accepts (a refused box ends the script), and its error falls with L
    rows = re.findall(r"L = (\S+), N = (\d+) +linf (\S+)",
                      out.stdout.split("== domain length")[1])
    assert len(rows) >= 2
    assert len({float(length) / int(n) for length, n, _ in rows}) == 1
    errors = [float(e) for _, _, e in rows]
    assert errors == sorted(errors, reverse=True)
    assert len(set(errors)) == len(errors)


def test_profile_gallery_writes_csv(tmp_path):
    csv = tmp_path / "p.csv"
    out = run_script("profile_gallery.py", "--n", "41", "--out", str(csv),
                     cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = csv.read_text().splitlines()
    assert lines[0] == "family,speed,params,xi,u"
    assert len(lines) == 1 + 23 * 41
    assert f"{23 * 41} rows -> {csv}" in out.stdout


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--n", "-2"],
                                  ["--window", "1,x"], ["--b", "-1"],
                                  ["--b", "nan"], ["--b", "1e300"]])
def test_profile_gallery_refuses_bad_flags(tmp_path, args):
    out = run_script("profile_gallery.py", *args, cwd=tmp_path)
    assert out.returncode == 2
    errors = [ln for ln in out.stderr.splitlines() if "error:" in ln]
    assert len(errors) == 1 and args[0] in errors[0]
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "profiles.csv").exists()


def test_profile_gallery_takes_a_negative_window(tmp_path):
    out = run_script("profile_gallery.py", "--window", "-10,10", "--n", "3",
                     cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "profiles.csv").read_text().splitlines()
    assert [ln.split(",")[3] for ln in lines[1:4]] == ["-10.0", "0.0", "10.0"]
