"""Checks of the program's outputs that share no code path with it.

Residuals are recomputed from the closed forms with the scalar tree
evaluator and central finite differences, never with the program's
``diff``/``compile_fn``/``scan`` path.  Simulation errors are measured
against exact translates that this module evaluates in numpy from the
closed forms.  Every check raises `CheckError` on failure, and
`self_test` shows each one rejecting a deliberately corrupted value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from mdpv.expr import EvalError, Expr, con, evaluate, mul

# 4th-order central stencils: (offsets, weights, divisor power of h)
_D1 = ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12), 1)
_D2 = ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12), 2)
_D3 = ((-3, -2, -1, 1, 2, 3),
       (1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8), 3)

FD_STEP = 0.01
FD_TOL = 1e-5        # residual against 1 + the largest term
TRUST_TOL = 1e-6     # agreement of the h and h/2 stencils
MIN_TRUSTED = 3      # sample points a residual check needs
DRIFT_MAX = 1e-12    # relative mass drift of a simulation run
SPEED_REL = 0.01     # measured speed against the closed form
MIN_ORDER = 3.5      # observed order of fd4 between N = 256, 512


class CheckError(AssertionError):
    """An output of the program disagrees with the independent check."""


def _derivatives(f, x: float, h: float) -> tuple[float, ...]:
    vals = {k: f(x + k * h) for k in range(-3, 4)}
    out = [vals[0]]
    for offsets, weights, power in (_D1, _D2, _D3):
        out.append(sum(w * vals[k] for k, w in zip(offsets, weights))
                   / h ** power)
    return tuple(out)


def _trusted_derivatives(f, x: float):
    """(U, U', U'', U''') at x, or None where the stencil cannot be
    trusted: a pole nearby, a domain error, or step-size dependence."""
    try:
        coarse = _derivatives(f, x, FD_STEP)
        fine = _derivatives(f, x, FD_STEP / 2)
    except (EvalError, ZeroDivisionError, OverflowError):
        return None
    if not all(math.isfinite(v) for v in coarse + fine):
        return None
    for a, b in zip(coarse[1:], fine[1:]):
        if abs(a - b) > TRUST_TOL * (1.0 + abs(b)):
            return None
    return fine


def _check_fd_residual(label: str, f, xs, residual,
                       enough: int | None) -> None:
    """An ODE in f at the trusted points of xs, stopping once `enough`
    points were trusted.  `residual` maps the derivatives (f, f', f'',
    f''') at a point to (residual, term scale)."""
    worst = scale = 0.0
    trusted = 0
    for x in xs:
        d = _trusted_derivatives(f, float(x))
        if d is None:
            continue
        r, s = residual(d)
        worst = max(worst, abs(r))
        scale = max(scale, s)
        trusted += 1
        if trusted == enough:
            break
    if trusted < MIN_TRUSTED:
        raise CheckError(f"{label}: only {trusted} trusted sample points")
    if worst > FD_TOL * (1.0 + scale):
        raise CheckError(f"{label}: finite-difference residual {worst:.3e}"
                         f" exceeds {FD_TOL:g} x (1 + {scale:.3e})")


def check_profile_residual(label: str, profile: Expr, env: dict,
                           lam: float, xs, power: int = 2,
                           enough: int | None = None) -> None:
    """The traveling ODE (b+1) U^p U' - U''' U - lam U''' + lam U'
    - b U' U'' at xs, against its largest term."""
    b = float(env["b"])

    def u_at(x: float) -> float:
        return evaluate(profile, {**env, "xi": x})

    def ode(d):
        u, u1, u2, u3 = d
        terms = ((b + 1) * u ** power * u1, -u3 * u, -lam * u3, lam * u1,
                 -b * u1 * u2)
        return math.fsum(terms), max(abs(t) for t in terms)

    _check_fd_residual(label, u_at, xs, ode, enough)


def check_riccati_branch(label: str, phi: Expr, triple, xs,
                         enough: int | None = None) -> None:
    """phi' = alpha + beta phi + gamma phi^2 at xs, against |phi'|."""
    alpha, beta, gamma = (float(v) for v in triple)

    def phi_at(x: float) -> float:
        return evaluate(phi, {"xi": x})

    def branch(d):
        p, p1 = d[0], d[1]
        return p1 - (alpha + beta * p + gamma * p * p), abs(p1)

    _check_fd_residual(label, phi_at, xs, branch, enough)


def check_exact_system(label: str, system, env: dict) -> None:
    if not system.holds_exactly(env):
        raise CheckError(f"{label}: system not annihilated exactly")


def check_failed(label: str, passed: bool) -> None:
    """A negative control: the program must report failure."""
    if passed:
        raise CheckError(f"{label}: negative control passed")


def check_passed(label: str, passed: bool) -> None:
    if not passed:
        raise CheckError(f"{label}: program reported a failure")


# ---------------------------------------------------------------------
# closed forms for the simulation checks, evaluated in numpy

def u6_exact(xi, b: float):
    return -3.0 * (b + 2.0) / ((b + 1.0) * (1.0 + np.cosh(xi)))


def u6_speed(b: float) -> float:
    return -b / 2.0 - 1.0


def u2_exact(xi, b: float, mu: float):
    sr = math.sqrt(1.0 - b * (b + 2.0) * (mu ** 4 - 1.0))
    head = (b * mu ** 2 + 2.0 * mu ** 2 - 1.0 - b - sr) / (2.0 * (b + 1.0))
    return head - 3.0 * (b + 2.0) * mu ** 2 / (
        (b + 1.0) * (1.0 + np.cosh(mu * xi)))


def u2_speed(b: float, mu: float) -> float:
    sr = math.sqrt(1.0 - b * (b + 2.0) * (mu ** 4 - 1.0))
    return -(b + 1.0 + sr) / 2.0


def check_simulation(label: str, report, exact, speed: float,
                     linf_max: float) -> float:
    """Error against the exact translate, mass drift at roundoff, and
    measured speed against the closed-form speed; returns the error."""
    last, first = report.snapshots[-1], report.snapshots[0]
    x = -0.5 * report.length + (report.length / report.n) * np.arange(
        report.n)
    err = float(np.max(np.abs(last.u_numeric - exact(x + speed * last.t))))
    if not err <= linf_max:
        raise CheckError(f"{label}: error {err:.3e} above {linf_max:.1e}")
    if abs(err - report.linf_error) > 1e-12 + 1e-9 * err:
        raise CheckError(f"{label}: reported error {report.linf_error:.6e}"
                         f" differs from measured {err:.6e}")
    dx = report.length / report.n
    mass0 = dx * float(first.u_numeric.sum())
    mass1 = dx * float(last.u_numeric.sum())
    drift = abs(mass1 - mass0) / max(abs(mass0),
                                     dx * float(np.abs(first.u_numeric)
                                                .sum()))
    if not drift <= DRIFT_MAX:
        raise CheckError(f"{label}: mass drift {drift:.2e} above"
                         f" {DRIFT_MAX:.0e}")
    if not abs(report.measured_speed - speed) <= SPEED_REL * abs(speed):
        raise CheckError(f"{label}: measured speed "
                         f"{report.measured_speed:.6f}, closed form"
                         f" {speed:.6f}")
    return err


def check_order(label: str, coarse_err: float, fine_err: float) -> float:
    order = math.log2(coarse_err / fine_err)
    if not order >= MIN_ORDER:
        raise CheckError(f"{label}: observed order {order:.2f} below"
                         f" {MIN_ORDER}")
    return order


def check_identical(label: str, first: bytes, second: bytes) -> None:
    if first != second:
        raise CheckError(f"{label}: reports with the same manifest differ")


# ---------------------------------------------------------------------
# self-test: every check rejects a corrupted value

def self_test() -> int:
    """Run each check on a good and a corrupted value; returns the
    number of corruptions rejected."""
    from dataclasses import replace

    from mdpv import ansatz, catalog, riccati
    from mdpv.sim import Grid, SimConfig, run

    rejected: list[str] = []

    def _expect_rejects(name: str, fn, *args, **kwargs) -> None:
        try:
            fn(*args, **kwargs)
        except CheckError:
            rejected.append(name)
            return
        raise CheckError(f"self-test: {name} accepted a corrupted value")

    xs = np.linspace(-6.0, 6.0, 7)
    fam = catalog.family("u6")
    env = {"b": 3.0}
    lam = evaluate(fam.speed, env)
    check_profile_residual("u6", fam.profile, env, lam, xs)
    _expect_rejects("profile residual", check_profile_residual, "u6*1.01",
                    mul(con(1.01), fam.profile), env, lam, xs)
    _expect_rejects("profile residual", check_profile_residual, "u6 dp",
                    fam.profile, env, lam, xs, power=1)

    branch = riccati.solution(riccati.AUDIT_SPECS["7"])
    triple = branch.spec.triple()
    check_riccati_branch("case 7", branch.phi, triple, xs)
    _expect_rejects("riccati branch", check_riccati_branch, "case 7",
                    branch.phi, (triple[0], triple[1] + 0.1, triple[2]), xs)

    system = ansatz.system_for_family("u3")
    good = ansatz.family_system_env("u3", Fraction(3), {})
    check_exact_system("u3", system, good)
    bad = dict(good, a0=good["a0"] + Fraction(1, 1000))
    _expect_rejects("exact system", check_exact_system, "u3", system, bad)

    check_failed("control", False)
    _expect_rejects("negative control", check_failed, "control", True)
    check_passed("scan", True)
    _expect_rejects("verdict", check_passed, "scan", False)

    rep = run(catalog.FamilyInstance("u6", 3.0, {}),
              SimConfig(b=3.0, dt=5e-4, t_final=0.05), Grid(256, 40.0))
    ex = lambda xi: u6_exact(xi, 3.0)  # noqa: E731
    check_simulation("u6", rep, ex, u6_speed(3.0), 1e-6)
    last = rep.snapshots[-1]
    bumped = last.u_numeric.copy()
    bumped[0] += 1e-4
    _expect_rejects("simulation error", check_simulation, "u6",
                    replace(rep, snapshots=rep.snapshots[:-1] + (
                        replace(last, u_numeric=bumped),)),
                    ex, u6_speed(3.0), 1e-6)
    _expect_rejects("simulation speed", check_simulation, "u6",
                    replace(rep, measured_speed=rep.measured_speed * 1.02),
                    ex, u6_speed(3.0), 1e-6)
    first = rep.snapshots[0]
    _expect_rejects("mass drift", check_simulation, "u6",
                    replace(rep, snapshots=(replace(
                        first, u_numeric=first.u_numeric + 1e-9),)
                        + rep.snapshots[1:]),
                    ex, u6_speed(3.0), 1e-6)

    check_order("fd4", 1.6e-3, 1e-4)
    _expect_rejects("order", check_order, "fd4", 1e-3, 1.25e-4)
    check_identical("json", b"{}", b"{}")
    _expect_rejects("byte identity", check_identical, "json", b"{1}",
                    b"{2}")
    return len(rejected)
