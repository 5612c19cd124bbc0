"""Integration tests of the command-line surface.

Everything runs in-process through main(argv) so exit codes, stdout,
stderr, and written files are all observable.  The exit-code contract
(0 pass / 1 usage / 2 validity / 3 verification failure / 4 blow-up)
and byte-level JSON determinism are the load-bearing assertions.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mdpv.cli import (
    EXIT_BLOWUP, EXIT_FAIL, EXIT_INVALID, EXIT_OK, EXIT_USAGE, MAX_DRAWS,
    MAX_SCAN_N, METHOD_CHOICES, main, render_json,
)
from mdpv.expr import evaluate, parse
from mdpv.residual import VARIANTS
from mdpv.sim import MAX_N


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run_cli(capsys, argv + ["--json", "-"])
    doc = json.loads(out[out.index("{"):])
    return rc, doc, out, err


# ---------------------------------------------------------------------
# JSON rendering

def test_render_json_fixed_form():
    doc = {"a": 1.0, "b": [True, None, 0.1], "c": {"d": "x"}}
    text = render_json(doc)
    assert json.loads(text) == {"a": 1.0, "b": [True, None, 0.1],
                                "c": {"d": "x"}}
    assert "0.10000000000000001" in text  # 17 significant digits
    assert render_json(doc) == text


def test_render_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        render_json({"v": float("nan")})
    with pytest.raises(ValueError):
        render_json([float("inf")])


# ---------------------------------------------------------------------
# usage errors -> exit 1

@pytest.mark.parametrize("argv", [
    [],
    ["list", "--bogus"],
    ["frobnicate"],
    ["verify", "--family", "u99", "--b", "3"],
    ["verify", "--family", "u20", "--b", "3", "--param", "alpha=1"],
    ["verify", "--family", "u20", "--b", "3", "--param", "alpha"],
    ["verify", "--family", "u3", "--b", "3", "--window", "8,-8"],
    ["verify", "--expr", "xi + q", "--b", "3"],
    ["verify", "--expr", "xi", "--family", "u3", "--b", "3"],
    ["verify", "--expr", "xi +* 2", "--b", "3"],
    ["verify", "--family", "all", "--b", "3", "--param", "mu=1"],
    ["system-verify", "--method", "colehopf", "--family", "u20"],
    ["system-verify", "--method", "tanhcoth", "--family", "u20",
     "--perturb", "zz=1"],
    ["system-verify", "--method", "tanhcoth", "--family", "u20",
     "--b", "x,y"],
    ["simulate", "--family", "u6", "--N", "100"],
    ["simulate", "--family", "u6", "--dt", "1e-3", "--T", "0.0015"],
    # non-finite floats and empty counts, with --json on so that a report
    # of such a value would reach the renderer
    ["verify", "--family", "u3", "--b", "inf", "--json"],
    ["verify", "--family", "u3", "--b", "3", "--tol", "inf", "--json"],
    ["verify", "--expr", "xi", "--b", "3", "--speed", "nan", "--json"],
    ["verify", "--family", "u3", "--b", "3", "--draws", "-2", "--json"],
    ["verify", "--family", "u3", "--b", "3", "--n", "-3", "--json"],
    ["verify", "--family", "u3", "--b", "3", "--window=0,inf", "--json"],
    ["verify", "--family", "u1", "--b", "3", "--param", "mu=nan",
     "--json"],
    ["system-verify", "--method", "colehopf", "--family", "u1",
     "--tol", "nan", "--json"],
    ["system-verify", "--method", "colehopf", "--family", "u1",
     "--b", "0,inf", "--json"],
    ["system-verify", "--method", "colehopf", "--family", "u1",
     "--draws", "0", "--json"],
    ["system-verify", "--method", "tanhcoth", "--family", "u20",
     "--perturb", "a0=inf", "--json"],
    ["simulate", "--family", "u6", "--b", "nan", "--json"],
    ["simulate", "--family", "u6", "--dt", "inf", "--json"],
    ["simulate", "--family", "u6", "--T", "-inf", "--json"],
    ["simulate", "--family", "u6", "--L", "nan", "--json"],
    ["simulate", "--family", "u6", "--blowup-threshold", "inf", "--json"],
    # one past each size budget
    ["simulate", "--family", "u6", "--N", str(2 * MAX_N), "--json"],
    ["verify", "--family", "u3", "--b", "3", "--n", str(MAX_SCAN_N + 1),
     "--json"],
    ["verify", "--family", "u3", "--b", "3", "--draws",
     str(MAX_DRAWS + 1), "--json"],
    ["system-verify", "--method", "colehopf", "--family", "u1",
     "--draws", str(MAX_DRAWS + 1), "--json"],
    ["audit", "--b", "3", "--draws", str(MAX_DRAWS + 1), "--json"],
    # numpy seeds only from a non-negative integer
    ["verify", "--family", "u1", "--b", "3", "--seed", "-1"],
    # a threshold that is not positive would end a healthy run at once
    ["simulate", "--family", "u6", "--blowup-threshold", "0", "--json"],
    # no check can pass a negative tolerance
    ["verify", "--family", "u3", "--b", "3", "--tol", "-1"],
    ["verify", "--expr", "b", "--b", "3", "--tol=-1e-3", "--json"],
    ["system-verify", "--method", "hyperbolic", "--family", "u3",
     "--tol=-1"],
])
def test_usage_errors(capsys, argv):
    rc, _out, err = run_cli(capsys, argv)
    assert rc == EXIT_USAGE
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    # a flag its argparse type refuses
    ["verify", "--b", "-1", "--family", "u99"],
    ["verify", "--b", "-1", "--window", "8,-8", "--family", "u3"],
    ["simulate", "--family", "u99", "--b", "-1"],
    # a check the command makes, with the catalog or another flag
    ["system-verify", "--method", "hyperbolic", "--family", "u3",
     "--b", "-1", "--perturb", "zz=1"],
    ["system-verify", "--method", "colehopf", "--family", "u1",
     "--b", "0,-1", "--param", "zz=1"],
    ["verify", "--family", "all", "--b", "-1", "--param", "mu=1"],
    ["verify", "--family", "u1", "--b", "-1", "--param", "zz=1"],
    ["verify", "--expr", "xi + q", "--b", "-1"],
    ["simulate", "--family", "u6", "--b", "-1", "--param", "zz=1"],
    ["simulate", "--family", "u6", "--b", "-1", "--dt", "0"],
])
def test_usage_error_comes_before_validity_error(capsys, argv):
    # each argv also has an excluded b, alone an exit 2
    rc, out, err = run_cli(capsys, argv)
    assert rc == EXIT_USAGE and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("target", ["u3", "all"])
def test_expr_and_family_are_exclusive(capsys, target):
    rc, out, err = run_cli(capsys, ["verify", "--expr", "xi", "--family",
                                    target, "--b", "3"])
    assert rc == EXIT_USAGE and out == ""
    assert "not allowed with" in err and len(err.splitlines()) == 1


def test_deeply_nested_expr_is_a_usage_error(capsys):
    deep = "exp(" * 20_000 + "xi" + ")" * 20_000
    rc, _out, err = run_cli(capsys, ["verify", "--expr", deep, "--b", "3"])
    assert rc == EXIT_USAGE
    assert err.startswith("error: --expr: expression nested too deeply")
    assert len(err.splitlines()) == 1


def test_nested_expr_past_parser_ceiling_fails_fast():
    # 200 levels are past the parser's ceiling at the default recursion
    # limit; a fresh interpreter shows the limit the CLI really runs with
    deep = "exp(" * 200 + "xi" + ")" * 200
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "mdpv.cli", "verify",
                          "--expr", deep, "--b", "3"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == EXIT_USAGE
    assert out.stderr.startswith(
        "error: --expr: expression nested too deeply")
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--family", "u6", "--N", str(2 ** 30)],
    ["verify", "--family", "u3", "--b", "3", "--n", str(10 ** 10)],
    ["audit", "--draws", str(10 ** 9)],
])
def test_oversized_inputs_fail_fast(argv):
    # past its budget each would ask for gigabytes or hours of work; a
    # fresh interpreter under a timeout shows it ends at once instead
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "mdpv.cli", *argv,
                          "--json"], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == EXIT_USAGE
    assert out.stderr.startswith("error:")
    assert len(out.stderr.splitlines()) == 1
    assert out.stdout == ""


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------
# exit-code contract (negative controls included)

def test_verify_family_passes(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--family", "u3", "--b", "3"])
    assert rc == EXIT_OK
    assert "pass" in out and "all passed" in out


def test_verify_all_families_pass(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--family", "all",
                                  "--b", "0.5", "--seed", "7"])
    assert rc == EXIT_OK
    assert "all passed (23 scans)" in out


def test_verify_excluded_b_exits_2(capsys):
    rc, _out, err = run_cli(capsys, ["verify", "--family", "u3",
                                     "--b", "-1"])
    assert rc == EXIT_INVALID
    assert "-1" in err


def test_verify_invalid_params_exit_2(capsys):
    # mu = 0 violates the nonzero constraint
    rc, _out, err = run_cli(capsys, ["verify", "--family", "u1",
                                     "--b", "3", "--param", "mu=0"])
    assert rc == EXIT_INVALID
    assert "violate" in err


def test_linear_profile_fails_residual(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--expr", "xi", "--b", "3"])
    assert rc == EXIT_FAIL
    assert "FAIL" in out


def test_family_fails_other_variant(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--family", "u3", "--b", "3",
                                  "--variant", "dp"])
    assert rc == EXIT_FAIL
    assert "FAIL" in out


def test_expr_can_pass(capsys):
    # constant background solves the flat reduction
    rc, out, _ = run_cli(capsys, ["verify", "--expr", "0", "--b", "3"])
    assert rc == EXIT_OK
    assert "pass" in out


def test_pole_in_window_reports_null_residual(capsys):
    rc, doc, _out, _err = run_json(capsys, ["verify", "--expr", "1/xi",
                                            "--b", "3"])
    assert rc == EXIT_FAIL
    row = doc["results"][0]
    assert row["max_abs_residual"] is None and row["passed"] is False
    assert doc["all_passed"] is False


def test_perturbed_system_exits_3(capsys):
    rc, out, _ = run_cli(capsys, ["system-verify", "--method", "tanhcoth",
                                  "--family", "u20",
                                  "--perturb", "a0=1e-3"])
    assert rc == EXIT_FAIL
    assert "VIOLATED" in out


def test_perturb_names_only_system_unknowns(capsys):
    # b is the equation's parameter, not an unknown of the system: offset
    # it and every check would fail for a reason the control never meant
    rc, out, err = run_cli(capsys, ["system-verify", "--method", "tanhcoth",
                                    "--family", "u20", "--perturb",
                                    "b=1e-3"])
    assert rc == EXIT_USAGE and out == ""
    assert err.startswith("error: --perturb b:")
    assert len(err.splitlines()) == 1
    listed = re.findall(r"'(\w+)'", err)
    assert sorted(listed) == ["a0", "a1", "a2", "alpha", "beta", "c1",
                              "c2", "gamma", "lam"]


@pytest.mark.parametrize("argv", [
    ["verify", "--expr", "xi", "--b", "-1e3"],
    ["verify", "--expr", "xi", "--b", "3", "--speed", "-1e-3"],
    ["system-verify", "--method", "hyperbolic", "--family", "u3",
     "--b", "-0.5,3"],
    ["audit", "--b", "-3,3", "--draws", "1"],
    ["verify", "--family", "u3", "--b", "3", "--window", "-5,5"],
])
def test_negative_value_is_the_flags_value(capsys, argv):
    # argparse takes "-1e3" or "-0.5,3" for an option, not a value
    i = next(i for i, tok in enumerate(argv) if tok.startswith("-")
             and not tok.startswith("--"))
    joined = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out) == run_cli(capsys, joined)[:2]
    assert rc != EXIT_USAGE, err


def test_u11_system_report_is_frozen(capsys):
    # u11's free kernel coefficient is drawn after its parameter sets,
    # from the same stream: the sha256 of the whole report pins where
    rc, out, _err = run_cli(capsys, [
        "system-verify", "--method", "tanhcoth", "--family", "u11",
        "--b", "0,0.5,1,3,5", "--draws", "3", "--seed", "7", "--json"])
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "25bfeed91a3085929a2aa5d54b701c6fd85d26c1d71d406092ada873aac1513b"


def test_variant_choices_are_the_residual_table(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    shown = re.search(r"--variant \{([\w,]+)\}", capsys.readouterr().out)
    assert shown.group(1).split(",") == list(VARIANTS)


@pytest.mark.parametrize("argv,code", [
    (["verify", "--family", "u3", "--b", "3"], EXIT_OK),
    (["verify", "--family", "u3", "--b", "nan"], EXIT_USAGE),
    (["verify", "--family", "u3", "--b", "3", "--draws", "0"], EXIT_USAGE),
    (["verify", "--family", "u3", "--b", "-1"], EXIT_INVALID),
    (["verify", "--expr", "1/xi", "--b", "3"], EXIT_FAIL),
    (["simulate", "--family", "u6", "--T", "0.01",
      "--blowup-threshold", "0.01"], EXIT_BLOWUP),
    (["audit", "--b", "-1"], EXIT_INVALID),
    (["audit", "--b", "nan"], EXIT_USAGE),
    (["audit", "--b", "3", "--draws", "0"], EXIT_USAGE),
    # an exact constant past float range evaluates to inf, like a pole
    (["verify", "--expr", "1" + "0" * 400 + "*xi", "--b", "3"], EXIT_FAIL),
    # a system check past float range is reported as null, not rendered
    (["system-verify", "--method", "tanhcoth", "--family", "u20",
      "--perturb", "a0=1e308"], EXIT_FAIL),
    # inadmissible input: a radicand just below zero, and no admissible
    # draw at b = 1e200, where (b + 1)**2 is past float range
    (["system-verify", "--method", "hyperbolic", "--family", "u7", "--b",
      "0", "--param", "a2=0.99999999999999"], EXIT_INVALID),
    (["system-verify", "--method", "hyperbolic", "--family", "u7", "--b",
      "1e200"], EXIT_INVALID),
    (["audit", "--b", "1e200", "--draws", "1"], EXIT_INVALID),
    # a constant profile outside a function's domain has no residual
    # value: reported infinite, as a scan reports a non-finite point
    (["verify", "--expr", "sqrt(-1)", "--b", "3"], EXIT_FAIL),
    (["verify", "--expr", "log(0)", "--b", "3"], EXIT_FAIL),
    # the scan path refuses the same inadmissible input as the system path
    (["verify", "--family", "u7", "--b", "0", "--param",
      "a2=0.99999999999999"], EXIT_INVALID),
    (["verify", "--family", "u7", "--b", "1e200"], EXIT_INVALID),
    # a system residual past float range fails at any tolerance, even
    # one whose tol * (1 + scale) is itself infinite
    (["system-verify", "--method", "hyperbolic", "--family", "u3", "--b",
      "1e307", "--tol", "1e300"], EXIT_FAIL),
])
def test_every_exit_code_with_json(capsys, argv, code):
    rc, out, err = run_cli(capsys, argv + ["--json"])
    assert rc == code
    if code in (EXIT_OK, EXIT_FAIL):
        doc = json.loads(out[out.index("{"):])
        if argv[0] == "system-verify" and code == EXIT_FAIL:
            # both such rows fail on a residual past float range
            assert doc["checks"][0]["max_abs"] is None
            assert doc["checks"][0]["passed"] is False
    else:
        assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,flag", [
    (["list"], "--json"),
    (["simulate", "--family", "u6", "--T", "0.01"], "--csv"),
])
def test_unwritable_output_is_one_error_line(capsys, tmp_path, argv, flag):
    target = tmp_path / "missing" / "out"
    rc, _out, err = run_cli(capsys, argv + [flag, str(target)])
    assert rc == EXIT_USAGE
    assert err.startswith(f"error: cannot write {target}:")
    assert len(err.splitlines()) == 1


def test_singular_family_simulation_exits_2(capsys):
    rc, _out, err = run_cli(capsys, ["simulate", "--family", "u5"])
    assert rc == EXIT_INVALID
    assert err.startswith("error:")


def test_unstable_step_refused(capsys):
    rc, _out, err = run_cli(capsys, ["simulate", "--family", "u6",
                                     "--dt", "0.1"])
    assert rc == EXIT_INVALID
    assert "guard" in err


def test_blowup_exits_4(capsys):
    rc, _out, err = run_cli(capsys, ["simulate", "--family", "u6",
                                     "--blowup-threshold", "1.0",
                                     "--T", "0.01", "--dt", "5e-4"])
    assert rc == EXIT_BLOWUP
    assert "blow-up" in err


# ---------------------------------------------------------------------
# list

def test_list_table(capsys):
    rc, out, _ = run_cli(capsys, ["list"])
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 25  # header + 23 rows + count
    assert lines[-1] == "23 families"
    u11 = next(l for l in lines if l.startswith("u11 "))
    assert "tanhcoth" in u11


LIST_MANIFEST_KEYS = {"command", "seed", "version", "parameters", "outputs"}
LIST_FAMILY_KEYS = {"family_id", "method", "description", "parameters",
                    "profile", "wave_speed", "constraints",
                    "singular_denominators"}


def test_list_json_schema(capsys):
    rc, doc, _out, _err = run_json(capsys, ["list"])
    assert rc == EXIT_OK
    assert {"manifest", "families"} <= set(doc)
    assert isinstance(doc["manifest"], dict)
    assert LIST_MANIFEST_KEYS <= set(doc["manifest"])
    assert doc["manifest"]["command"] == "list"
    assert isinstance(doc["families"], list)
    assert len(doc["families"]) == 23
    for row in doc["families"]:
        assert isinstance(row, dict)
        assert LIST_FAMILY_KEYS <= set(row)
        assert row["method"] in METHOD_CHOICES
        assert isinstance(row["parameters"], list)
        assert all(isinstance(p, str) for p in row["parameters"])
    u11 = next(r for r in doc["families"] if r["family_id"] == "u11")
    speed = parse(u11["wave_speed"])
    assert evaluate(speed, {"b": 3.0}) == pytest.approx(-4.0)


# ---------------------------------------------------------------------
# determinism + manifest

def test_verify_json_byte_identical(capsys):
    argv = ["verify", "--family", "u20", "--b", "3", "--draws", "2"]
    rc1, _doc1, out1, _ = run_json(capsys, argv)
    rc2, _doc2, out2, _ = run_json(capsys, argv)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


def test_seed_resolution(capsys):
    _rc, doc, _out, _err = run_json(capsys, ["verify", "--family", "u3",
                                             "--b", "3"])
    assert doc["manifest"]["seed"] == 42
    _rc, doc, _out, _err = run_json(capsys, ["verify", "--family", "u3",
                                             "--b", "3", "--seed", "11"])
    assert doc["manifest"]["seed"] == 11


def test_seed_comes_only_from_the_flag(capsys, monkeypatch):
    argv = ["verify", "--family", "u20", "--b", "3"]
    _rc, _doc, plain, _err = run_json(capsys, argv)
    monkeypatch.setenv("MDPV_SEED", "7")
    _rc, doc, out, _err = run_json(capsys, argv)
    assert doc["manifest"]["seed"] == 42
    assert out == plain


def test_seed_changes_draws(capsys):
    argv = ["verify", "--family", "u20", "--b", "3"]
    _rc, d42, _o, _e = run_json(capsys, argv)
    _rc, d7, _o, _e = run_json(capsys, argv + ["--seed", "7"])
    assert d42["results"][0]["params"] != d7["results"][0]["params"]


def test_json_file_and_manifest_outputs(capsys, tmp_path):
    report = tmp_path / "report.json"
    argv = ["verify", "--family", "u6", "--b", "3",
            "--json", str(report)]
    rc = main(argv)
    capsys.readouterr()
    assert rc == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["manifest"]["outputs"] == [str(report)]
    assert doc["all_passed"] is True
    report2 = tmp_path / "again.json"
    rc = main(["verify", "--family", "u6", "--b", "3",
               "--json", str(report2)])
    capsys.readouterr()
    assert rc == EXIT_OK
    a = report.read_text().replace(str(report), "PATH")
    b = report2.read_text().replace(str(report2), "PATH")
    assert a == b


def test_verify_explicit_params_recorded(capsys):
    rc, doc, _out, _err = run_json(capsys, [
        "verify", "--family", "u1", "--b", "3", "--param", "mu=0.9"])
    assert rc == EXIT_OK
    assert doc["manifest"]["parameters"]["params"] == {"mu": 0.9}
    assert doc["results"][0]["params"] == {"mu": 0.9}


# ---------------------------------------------------------------------
# riccati-audit

def test_riccati_audit_table(capsys):
    rc, out, _ = run_cli(capsys, ["riccati-audit"])
    assert rc == EXIT_OK
    assert "corrected branches: all pass" in out
    assert "unevaluable" in out      # complex-radical printed entry
    assert "repaired" in out


def test_riccati_audit_json(capsys):
    rc, doc, _out, _err = run_json(capsys, ["riccati-audit"])
    assert rc == EXIT_OK
    rows = {r["case"]: r for r in doc["rows"]}
    assert len(rows) == 10
    assert all(r["corrected_passes"] for r in rows.values())
    assert doc["all_corrected_pass"] is True
    # alpha*gamma < 0 with a square root of the product: not real
    assert rows["4b"]["max_residual_printed"] is None
    assert rows["4b"]["printed_passes"] is False
    assert rows["1"]["printed_passes"] is True


def test_riccati_audit_failing_branch_exits_3(capsys, monkeypatch):
    row = {"case": "1", "spec": (0.0, 2.0, -1.0), "printed_passes": True,
           "max_residual_printed": 1e-15, "max_residual_corrected": 1.0,
           "corrected_passes": False, "matches_printed": True}
    monkeypatch.setattr("mdpv.riccati.audit_printed_forms", lambda: [row])
    rc, doc, out, _err = run_json(capsys, ["riccati-audit"])
    assert rc == EXIT_FAIL
    assert "corrected branches: FAILURES" in out
    assert doc["all_corrected_pass"] is False


# ---------------------------------------------------------------------
# system-verify

def test_system_verify_colehopf_first_family(capsys):
    rc, out, _ = run_cli(capsys, ["system-verify", "--method", "colehopf",
                                  "--family", "u1"])
    assert rc == EXIT_OK
    assert "system annihilated" in out


def test_system_verify_json_rows(capsys):
    rc, doc, _out, _err = run_json(capsys, [
        "system-verify", "--method", "tanhcoth", "--family", "u20",
        "--draws", "2"])
    assert rc == EXIT_OK
    assert doc["all_passed"] is True
    assert len(doc["equations"]) == 15
    for row in doc["equations"]:
        assert set(row) == {"power", "coefficient_formatted"}
        parse(row["coefficient_formatted"])  # well-formed expression
    assert len(doc["checks"]) == 4 * 2
    assert all(c["passed"] for c in doc["checks"])


def test_system_verify_explicit_params(capsys):
    rc, doc, _out, _err = run_json(capsys, [
        "system-verify", "--method", "hyperbolic", "--family", "u7",
        "--b", "1", "--param", "a2=2"])
    assert rc == EXIT_OK
    assert doc["checks"][0]["params"] == {"a2": 2.0}


def test_system_verify_invalid_explicit_params(capsys):
    # a2 below the radical floor is inadmissible, not a usage slip
    rc, _out, err = run_cli(capsys, [
        "system-verify", "--method", "hyperbolic", "--family", "u7",
        "--b", "1", "--param", "a2=0.1"])
    assert rc == EXIT_INVALID
    assert "violate" in err


def test_system_verify_excluded_b(capsys):
    rc, _out, _err = run_cli(capsys, [
        "system-verify", "--method", "tanhcoth", "--family", "u20",
        "--b", "0,-1"])
    assert rc == EXIT_INVALID


# ---------------------------------------------------------------------
# simulate

def test_simulate_short_run_with_outputs(capsys, tmp_path):
    csv_path = tmp_path / "snaps.csv"
    json_path = tmp_path / "run.json"
    rc = main(["simulate", "--family", "u6", "--N", "256",
               "--T", "0.1", "--csv", str(csv_path),
               "--json", str(json_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "linf_error" in out
    doc = json.loads(json_path.read_text())
    assert list(doc["summary"]) == ["family", "b", "N", "L", "dt", "T",
                                    "linf_error", "mass_drift",
                                    "measured_speed", "expected_speed"]
    assert doc["summary"]["linf_error"] <= 1e-4
    assert doc["summary"]["mass_drift"] <= 1e-10
    assert set(doc["manifest"]["outputs"]) == {str(csv_path),
                                               str(json_path)}
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x,u_numeric,u_exact,error"


def test_simulate_defaults_meet_criteria(capsys):
    rc, doc, out, _err = run_json(capsys, ["simulate", "--family", "u6"])
    assert rc == EXIT_OK
    s = doc["summary"]
    assert s["linf_error"] <= 1e-3
    assert s["mass_drift"] <= 1e-8
    assert abs(s["measured_speed"] - (-2.5)) <= 0.01 * 2.5
    assert s["expected_speed"] == pytest.approx(-2.5)
    assert doc["manifest"]["parameters"]["scheme"] == "spectral"


def test_simulate_family_with_parameters(capsys):
    rc, doc, _out, _err = run_json(capsys, [
        "simulate", "--family", "u20", "--b", "1.0",
        "--param", "alpha=1", "--param", "beta=1.5",
        "--param", "gamma=0.3125", "--N", "256", "--T", "0.1"])
    assert rc == EXIT_OK
    assert doc["summary"]["expected_speed"] == pytest.approx(-1.5)
    assert doc["summary"]["linf_error"] <= 1e-5


@pytest.mark.parametrize("T,dt", [("1e9", "1e-3"), ("1e300", "1e-300")])
def test_simulate_past_step_budget_is_a_usage_error(T, dt):
    # a fresh interpreter with a short timeout: an unbounded run would
    # be stopped by the timeout instead of exiting
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "mdpv.cli", "simulate",
                          "--family", "u6", "--T", T, "--dt", dt,
                          "--json"], env=env, capture_output=True,
                         text=True, timeout=30)
    assert out.returncode == EXIT_USAGE
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and "steps" in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_simulate_report_is_identical_across_processes(scheme):
    # the report's float digits come from the FFT stages; two fresh
    # interpreters with the same flags must print the same bytes
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "mdpv.cli", "simulate", "--family", "u6",
            "--T", "0.2", "--scheme", scheme, "--seed", "1", "--json"]
    outs = [subprocess.run(argv, env=env, capture_output=True, timeout=60)
            for _ in range(2)]
    assert [out.returncode for out in outs] == [EXIT_OK, EXIT_OK]
    assert outs[0].stdout == outs[1].stdout
    assert b'"linf_error"' in outs[0].stdout


def test_simulate_past_snapshot_budget_is_a_usage_error():
    # 10^6 steps is inside the step budget, but keeping 10^6 + 1
    # snapshots of 512 points would take about 8 GB; a fresh interpreter
    # with a short timeout stops a run that allocates instead of exiting
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "mdpv.cli", "simulate",
                          "--family", "u6", "--T", "500",
                          "--snapshots", "1000001", "--json"], env=env,
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == EXIT_USAGE
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and "snapshots" in out.stderr
    assert len(out.stderr.splitlines()) == 1


# ---------------------------------------------------------------------
# audit

def test_audit_rows_match_the_single_commands(capsys):
    rc, doc, _out, _err = run_json(capsys, ["audit", "--b", "0.5,3",
                                            "--draws", "2", "--seed", "5"])
    assert rc == EXIT_OK and doc["all_passed"] is True
    assert doc["manifest"]["command"] == "audit"
    scans = doc["scans"]
    for b in ("0.5", "3"):
        rc, single, _out, _err = run_json(capsys, [
            "verify", "--family", "all", "--b", b, "--draws", "2",
            "--seed", "5"])
        assert rc == EXIT_OK
        assert [r for r in scans if r["b"] == float(b)] == single["results"]
    assert len(scans) == 2 * (19 * 2 + 4)
    systems = {s["family"]: s for s in doc["systems"]}
    assert len(systems) == 23
    for method, fid in (("colehopf", "u2"), ("hyperbolic", "u7"),
                        ("tanhcoth", "u11"), ("tanhcoth", "u20")):
        rc, single, _out, _err = run_json(capsys, [
            "system-verify", "--method", method, "--family", fid,
            "--b", "0.5,3", "--draws", "2", "--seed", "5"])
        assert rc == EXIT_OK
        assert systems[fid]["method"] == method
        assert systems[fid]["checks"] == single["checks"]
    assert len(doc["riccati"]) == 10


@pytest.mark.parametrize("target", ["scan", "system"])
def test_audit_failing_check_exits_3(capsys, monkeypatch, target):
    import mdpv.cli as cli
    if target == "scan":
        real = cli.verify_family

        def patched(fid, *args, **kwargs):
            report = real(fid, *args, **kwargs)
            return replace(report, tolerance=-1.0) if fid == "u5" else report
        monkeypatch.setattr(cli, "verify_family", patched)
    else:
        import mdpv.ansatz as ansatz
        real = ansatz.family_system_env

        def patched(fid, *args):
            env = real(fid, *args)
            if fid == "u7":
                env["a0"] += 1e-3
            return env
        monkeypatch.setattr(ansatz, "family_system_env", patched)
    rc, doc, out, err = run_json(capsys, ["audit", "--b", "3",
                                          "--draws", "1"])
    assert rc == EXIT_FAIL and err == ""
    assert "1 FAILURES" in out
    assert doc["all_passed"] is False
    failed_scans = [r["family"] for r in doc["scans"] if not r["passed"]]
    failed_systems = [s["family"] for s in doc["systems"]
                      if not s["all_passed"]]
    if target == "scan":
        assert failed_scans == ["u5"] and failed_systems == []
    else:
        assert failed_scans == [] and failed_systems == ["u7"]


def test_missing_subcommand_lists_every_command(capsys):
    rc, _out, err = run_cli(capsys, [])
    assert rc == EXIT_USAGE
    listed = err[err.index("(") + 1:err.rindex(")")].split(", ")
    assert sorted(listed) == sorted(["list", "verify", "riccati-audit",
                                     "system-verify", "simulate", "audit"])


# ---------------------------------------------------------------------
# dependencies

def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, mdpv.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "False"


def _fresh_interpreter(code: str) -> str:
    """Last stdout line of `code` run in a new interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout.splitlines()[-1]


def test_cli_import_builds_and_loads_only_what_every_command_uses():
    probe = ("import sys, mdpv.cli; from mdpv.catalog import family;"
             " print(sorted(m for m in ('mdpv.ansatz', 'mdpv.polytools',"
             " 'mdpv.riccati', 'mdpv.sim') if m in sys.modules),"
             " family.cache_info().currsize)")
    assert _fresh_interpreter(probe) == "[] 0"


@pytest.mark.parametrize("argv,built", [
    (["verify", "--expr", "1/xi", "--b", "3"], 0),
    (["simulate", "--family", "u6", "--T", "0.01"], 1),
    (["system-verify", "--method", "tanhcoth", "--family", "u22"], 1),
    (["list"], 23),
])
def test_command_builds_only_the_families_it_uses(argv, built):
    probe = ("from mdpv import catalog, cli;"
             f" cli.main({argv!r});"
             " print(catalog.family.cache_info().currsize)")
    assert _fresh_interpreter(probe) == str(built)


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_stdout_is_one_error_line(unbuffered):
    # the reader exits before anything is written, as `mdpv ... | head`
    # does once it has its lines; buffered or not, the write fails
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "mdpv.cli", "list"],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _out, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_USAGE
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


# ---------------------------------------------------------------------
# whole commands under -W error, each in a fresh interpreter: each
# command imports the layers it calls when it runs, so a warning from an
# import, or from numpy on any value a check meets, shows only there

@pytest.mark.parametrize("argv,code", [
    (["simulate", "--family", "u6", "--T", "0.5", "--json", "sim.json"],
     EXIT_OK),
    (["simulate", "--family", "u6", "--scheme", "fd4", "--T", "0.2",
      "--json", "sim.json"], EXIT_OK),
    (["list", "--json", "l.json"], EXIT_OK),
    (["riccati-audit", "--json", "r.json"], EXIT_OK),
    # 1/xi solves no wave ODE, and a0 offset by 1e308 leaves a system
    # residual past float range
    (["verify", "--expr", "1/xi", "--b", "3", "--json", "v.json"],
     EXIT_FAIL),
    (["system-verify", "--method", "tanhcoth", "--family", "u20",
      "--perturb", "a0=1e308", "--json", "s.json"], EXIT_FAIL),
    # sqrt(-1) has no real value and 1/xi has a pole on the grid, even at
    # a tolerance of 1e300; the constant profile b solves the ODE
    (["verify", "--expr", "sqrt(-1)", "--b", "3"], EXIT_FAIL),
    (["verify", "--expr", "b", "--b", "3"], EXIT_OK),
    (["verify", "--expr", "1/xi", "--b", "3", "--tol", "1e300"],
     EXIT_FAIL),
    # a radicand 2e-14 below zero, and no admissible draw at b = 1e200,
    # on both check paths; a blow-up threshold that is not positive
    (["verify", "--family", "u7", "--b", "0", "--param",
      "a2=0.99999999999999"], EXIT_INVALID),
    (["verify", "--family", "u7", "--b", "1e200"], EXIT_INVALID),
    (["system-verify", "--method", "hyperbolic", "--family", "u7", "--b",
      "0", "--param", "a2=0.99999999999999"], EXIT_INVALID),
    (["system-verify", "--method", "hyperbolic", "--family", "u7", "--b",
      "1e200"], EXIT_INVALID),
    (["simulate", "--family", "u6", "--blowup-threshold", "0"],
     EXIT_USAGE),
    # a system residual past float range, judged at a tolerance whose
    # tol * (1 + scale) overflows
    (["system-verify", "--method", "hyperbolic", "--family", "u3", "--b",
      "1e307", "--tol", "1e300"], EXIT_FAIL),
])
def test_command_raises_no_warning(tmp_path, argv, code):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-W", "error", "-m", "mdpv.cli",
                          *argv], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == code, out.stderr
    assert "Warning" not in out.stderr and "Traceback" not in out.stderr
