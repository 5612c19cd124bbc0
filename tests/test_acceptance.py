"""Acceptance gate: every advertised behavior checked end-to-end at
its stated tolerance, one test per behavior, in a fixed order.

Each test prints exactly one verdict line (visible under ``-s``; under
plain ``-v`` the test's own PASSED/FAILED line is the verdict) with
the measured margin, so a logged run records the headroom too.
"""

import math
from fractions import Fraction

import numpy as np

import mdpv.polytools as pt
from mdpv.ansatz import (
    CHOSEN_DEGREE, balance_m, cole_hopf_system, draw_aux,
    family_system_env, system_for_family,
)
from mdpv.catalog import (
    FamilyInstance, draw_params, family, family_ids,
    profile_with_values, verify_family,
)
from mdpv.cli import SYSTEM_TOL, main as cli_main
from mdpv.expr import (
    EvalError, add, call, con, diff, evaluate, format_expr, mul, parse,
    pow_, sym,
)
from mdpv.residual import within_tolerance
from mdpv.riccati import audit_printed_forms
from mdpv.sim import Grid, SimConfig, run

B_GRID = (0.0, 0.5, 1.0, 3.0)


def _verdict(name: str, detail: str) -> None:
    print(f"acceptance: {name} — PASS ({detail})")


# ---------------------------------------------------------------------
# 1. full catalog residual suite

def test_catalog_residual_suite():
    worst = 0.0
    scans = 0
    for fid in family_ids():
        has_params = bool(family(fid).parameters)
        for bi, b in enumerate(B_GRID):
            rng = np.random.default_rng([42, int(fid[1:]), bi])
            for _ in range(5 if has_params else 1):
                params = draw_params(fid, rng, b) if has_params else {}
                rep = verify_family(fid, b, params, window=(-8.0, 8.0),
                                    n=257, tol=1e-9)
                assert rep.passed, (fid, b, params,
                                    rep.max_abs_residual, rep.scale)
                worst = max(worst,
                            rep.max_abs_residual / (1.0 + rep.scale))
                scans += 1
    assert scans == 19 * 4 * 5 + 4 * 4
    _verdict("catalog residual suite",
             f"{scans} scans, worst relative residual {worst:.2e}"
             f" <= 1e-09")


# ---------------------------------------------------------------------
# 2. kernel-branch audit

def test_kernel_branch_audit(capsys):
    rows = audit_printed_forms(tol=1e-9)
    assert len(rows) == 10
    assert all(r["corrected_passes"] for r in rows), [
        r["case"] for r in rows if not r["corrected_passes"]]
    worst = max(r["max_residual_corrected"] for r in rows)

    # the audit table is emitted through the command-line front end
    assert cli_main(["riccati-audit"]) == 0
    table = capsys.readouterr().out
    assert table.count("\n") >= 11

    by_triple = {r["spec"]: r for r in rows}
    # opposite-sign coefficients put the product under the radical
    # below zero: the circulated entry cannot be evaluated over the
    # reals and is classified fail-as-printed
    complex_radical = by_triple[(1.0, 0.0, -1.0)]
    assert complex_radical["max_residual_printed"] is None
    assert complex_radical["printed_passes"] is False
    # the wide-discriminant branch is evaluable; its verdict is
    # measured, not assumed, and the measurement rejects the
    # circulated sign
    sign_slip = by_triple[(1.0, 3.0, 1.0)]
    assert sign_slip["max_residual_printed"] is not None
    assert sign_slip["printed_passes"] is False
    # same for the both-negative sub-branch of the no-linear-term case
    both_neg = by_triple[(-1.0, 0.0, -1.0)]
    assert both_neg["max_residual_printed"] is not None
    assert both_neg["printed_passes"] is False
    _verdict("kernel-branch audit",
             f"10 rows, all corrected pass, worst {worst:.2e};"
             f" complex radical and sign slips all classified")


# ---------------------------------------------------------------------
# 3. regenerated coefficient systems

def test_system_regeneration():
    # the regenerated exponential-route list contains the first
    # circulated row up to a constant factor
    S_exp = cole_hopf_system()
    names = ("amp", "bg", "mu", "lam", "b")
    first_row = pt.to_poly(
        parse("bg*mu^3 + lam*mu^2 - (b*bg^2 + bg^2)*mu - lam"), names)
    regen = [pt.to_poly(eq, names) for eq in S_exp.equations]
    assert any(pt.proportional(first_row, q) is not None for q in regen)

    # both exponential families annihilate the full system at 20
    # seeded parameter points each, absolutely
    rng = np.random.default_rng(20260816)
    worst_exp = 0.0
    for fid in ("u1", "u2"):
        for _ in range(20):
            b = float(rng.choice(B_GRID))
            params = draw_params(fid, rng, b)
            env = family_system_env(fid, b, params)
            worst_exp = max(worst_exp, S_exp.max_abs_at(env))
            assert S_exp.max_abs_at(env) <= 1e-10, (fid, b, params)

    # every rational-hyperbolic family annihilates that route's system
    for fid in [f"u{i}" for i in range(3, 11)]:
        rng = np.random.default_rng([3, int(fid[1:])])
        for b in B_GRID:
            params = draw_params(fid, rng, b)
            env = family_system_env(fid, b, params)
            S = system_for_family(fid)
            assert within_tolerance(S.max_abs_at(env), S.scale_at(env),
                                    SYSTEM_TOL), (fid, b)

    # every quadratic-kernel family annihilates that route's system
    for fid in [f"u{i}" for i in range(11, 24)]:
        rng = np.random.default_rng([4, int(fid[1:])])
        for b in B_GRID:
            params = draw_params(fid, rng, b)
            env = family_system_env(fid, b, params, draw_aux(fid, rng))
            S = system_for_family(fid)
            assert within_tolerance(S.max_abs_at(env), S.scale_at(env),
                                    SYSTEM_TOL), (fid, b)
    _verdict("regenerated coefficient systems",
             f"first circulated row regenerated; exponential families"
             f" max |eq| {worst_exp:.2e} <= 1e-10 at 40 points;"
             f" all 21 rational/kernel families annihilate")


# ---------------------------------------------------------------------
# 4. endpoint identity between the two routes

def test_endpoint_identity():
    rng = np.random.default_rng(44)
    worst = 0.0
    for b in B_GRID:
        u_exp = profile_with_values("u1", b, {"mu": 1.0})
        u_hyp = profile_with_values("u3", b, {})
        for _ in range(100):
            xi = float(rng.uniform(-8.0, 8.0))
            v1 = evaluate(u_exp, {"xi": xi})
            v2 = evaluate(u_hyp, {"xi": xi})
            worst = max(worst, abs(v1 - v2))
            assert abs(v1 - v2) <= 1e-12, (b, xi, v1, v2)
    _verdict("endpoint identity",
             f"two routes agree to {worst:.2e} <= 1e-12 at 400 points")


# ---------------------------------------------------------------------
# 5. leading-order balance

def test_degree_balance():
    degrees = balance_m()
    assert degrees == {0, 2}
    assert CHOSEN_DEGREE == 2
    _verdict("leading-order balance",
             f"degrees {sorted(degrees)}, working degree"
             f" {CHOSEN_DEGREE}")


# ---------------------------------------------------------------------
# 6. manufactured-solution simulation

def test_manufactured_solution_run():
    instance = FamilyInstance("u6", 3.0, {})
    report = run(instance,
                 SimConfig(b=3.0, dt=5e-4, t_final=2.0,
                           scheme="spectral"),
                 Grid(512, 40.0))
    assert report.linf_error <= 1e-3, report.linf_error
    assert report.mass_drift <= 1e-8, report.mass_drift
    assert abs(report.measured_speed - (-2.5)) <= 0.01 * 2.5, \
        report.measured_speed

    errors = {}
    for n in (256, 512):
        errors[n] = run(instance,
                        SimConfig(b=3.0, dt=5e-4, t_final=2.0,
                                  scheme="fd4"),
                        Grid(n, 40.0)).linf_error
    order = math.log2(errors[256] / errors[512])
    assert order >= 3.5, errors
    _verdict("manufactured-solution run",
             f"linf {report.linf_error:.2e} <= 1e-3, drift"
             f" {report.mass_drift:.1e} <= 1e-8, speed"
             f" {report.measured_speed:.6f} within 1% of -2.5;"
             f" fd4 scheme order {order:.2f} >= 3.5")


# ---------------------------------------------------------------------
# 7. negative controls through the CLI exit-code contract

def test_negative_controls(capsys):
    linear = cli_main(["verify", "--expr", "xi", "--b", "3"])
    assert linear == 3
    wrong_variant = cli_main(["verify", "--family", "u3", "--b", "3",
                              "--variant", "dp"])
    assert wrong_variant == 3
    perturbed = cli_main(["system-verify", "--method", "tanhcoth",
                          "--family", "u20", "--perturb", "a0=1e-3"])
    assert perturbed == 3
    excluded_b = cli_main(["verify", "--family", "u3", "--b", "-1"])
    assert excluded_b == 2
    capsys.readouterr()
    _verdict("negative controls",
             "linear profile 3, wrong variant 3, perturbed system 3,"
             " excluded b 2")


# ---------------------------------------------------------------------
# 8. expression engine: derivative oracle and round-trip

_X = sym("x")
_FUNCS = ("sin", "cos", "tanh", "sinh", "cosh", "exp")


def _random_tree(rng: np.random.Generator, depth: int):
    if depth == 0:
        if rng.random() < 0.5:
            return _X
        return con(Fraction(int(rng.integers(-4, 5)),
                            int(rng.integers(1, 4))))
    kind = rng.choice(["add", "mul", "pow", "call"])
    if kind == "add":
        return add(_random_tree(rng, depth - 1),
                   _random_tree(rng, depth - 1))
    if kind == "mul":
        return mul(_random_tree(rng, depth - 1),
                   _random_tree(rng, depth - 1))
    if kind == "pow":
        return pow_(_random_tree(rng, depth - 1),
                    con(int(rng.integers(-2, 4))))
    return call(str(rng.choice(_FUNCS)), _random_tree(rng, depth - 1))


def _stencil(f, x0: float, h: float) -> float:
    return (f(x0 - 2 * h) - 8 * f(x0 - h) + 8 * f(x0 + h)
            - f(x0 + 2 * h)) / (12 * h)


def test_expression_engine():
    rng = np.random.default_rng(88)
    points_checked = 0
    worst_fd = 0.0
    for _ in range(1000):
        tree = _random_tree(rng, int(rng.integers(1, 5)))
        derivative = diff(tree, "x")

        def f(v, _t=tree):
            return evaluate(_t, {"x": v})

        for _ in range(6):
            x0 = float(rng.uniform(-2.5, 2.5))
            try:
                sd = evaluate(derivative, {"x": x0})
                fd_a = _stencil(f, x0, 1e-3)
                fd_b = _stencil(f, x0, 5e-4)
            except EvalError:
                continue
            if not all(map(math.isfinite, (sd, fd_a, fd_b))):
                continue
            # trust the stencil only where halving the step keeps it
            scale = 1.0 + abs(fd_a) + abs(fd_b)
            if abs(fd_a - fd_b) > 1e-7 * scale:
                continue
            rel = abs(sd - fd_b) / (1.0 + abs(sd) + abs(fd_b))
            worst_fd = max(worst_fd, rel)
            assert rel <= 1e-6, (format_expr(tree), x0, sd, fd_b)
            points_checked += 1
    assert points_checked >= 2000  # the trust filter must not starve

    round_trips = 0
    worst_rt = 0.0
    for _ in range(300):
        tree = _random_tree(rng, int(rng.integers(1, 5)))
        back = parse(format_expr(tree))
        agreed = 0
        for _ in range(40):
            env = {"x": float(rng.uniform(-2.3, 2.7))}
            try:
                v1 = evaluate(tree, env)
                v2 = evaluate(back, env)
                # reformatting re-associates arithmetic at the ulp
                # level; judge only where an ulp-scale input change
                # leaves the value alone
                v1p = evaluate(tree, {"x": env["x"] * (1 + 1e-12)
                                      + 1e-12})
            except EvalError:
                continue
            if not all(map(math.isfinite, (v1, v2, v1p))):
                continue
            if abs(v1p - v1) > 1e-9 * (1.0 + abs(v1)):
                continue
            err = abs(v1 - v2) / (1.0 + max(abs(v1), abs(v2)))
            worst_rt = max(worst_rt, err)
            assert err <= 1e-12, (format_expr(tree), env, v1, v2)
            agreed += 1
            if agreed >= 10:
                break
        if agreed:
            round_trips += 1
    assert round_trips >= 250
    _verdict("expression engine",
             f"{points_checked} derivative points, worst relative"
             f" deviation {worst_fd:.2e} <= 1e-6; {round_trips} trees"
             f" round-tripped, worst {worst_rt:.2e} <= 1e-12")
