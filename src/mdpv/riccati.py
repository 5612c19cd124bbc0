"""Closed-form branches of the quadratic first-order ODE

    phi'(xi) = alpha + beta*phi(xi) + gamma*phi(xi)^2

classified over real constant coefficients, plus a numeric audit that
separates branches whose published closed forms actually solve the ODE
from those that need a sign or radical repair.

The circulated table is transcribed once, in `printed_solution`.
Every branch `solution` returns is a verified solution: the table entry
itself, simplified, except in case 1 (rewritten so that its denominator
does not cancel) and in the four cases the table gets wrong or leaves
out, which `solution` writes out repaired; the `as_printed` flag
records which.  One compiled check measures a branch, so
`audit_printed_forms` measures the circulated and repaired forms of
each row the same way, at the same points, and the discrepancies are
data, not opinion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .expr import (
    Expr, compile_fn, con, cos, diff, exp, simplify, sinh, sqrt, sym, tan,
    tanh,
)
from .residual import EXCLUSION_RADIUS, ResidualReport, find_zeros

__all__ = [
    "RiccatiSpec", "RiccatiBranch", "classify", "solution",
    "printed_solution", "ode_residual_of", "verify_branch",
    "audit_printed_forms", "AUDIT_SPECS",
]

XI = sym("xi")

# branches are checked at seeded points of WINDOW, each more than
# EXCLUSION_RADIUS from every pole the branch declares; the printed-form
# audit draws AUDIT_POINTS of them with AUDIT_SEED
WINDOW = (-5.0, 5.0)
AUDIT_POINTS, AUDIT_SEED = 40, 3

Coeff = Union[int, float, Fraction]


def _norm(v: Coeff):
    if isinstance(v, bool):
        raise TypeError("bool coefficient")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (Fraction, float)):
        return v
    raise TypeError(f"bad coefficient {v!r}")


@dataclass(frozen=True)
class RiccatiSpec:
    alpha: Coeff
    beta: Coeff
    gamma: Coeff

    def __post_init__(self):
        object.__setattr__(self, "alpha", _norm(self.alpha))
        object.__setattr__(self, "beta", _norm(self.beta))
        object.__setattr__(self, "gamma", _norm(self.gamma))

    @property
    def discriminant(self):
        a, b, g = self.alpha, self.beta, self.gamma
        if all(isinstance(v, Fraction) for v in (a, b, g)):
            return b * b - 4 * a * g
        return float(b) ** 2 - 4.0 * float(a) * float(g)

    def triple(self):
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class RiccatiBranch:
    case_id: str
    spec: RiccatiSpec
    phi: Expr                      # verified closed form, function of xi
    as_printed: bool               # matches the circulated table entry
    pole_denoms: tuple             # expressions whose zeros are poles


def classify(spec: RiccatiSpec) -> str:
    """Case label for a coefficient triple.  Labels 4a-4d split the
    beta = 0 case by the signs of alpha and gamma; 6/7 split by the
    discriminant.  Rejects the all-zero triple."""
    a, b, g = spec.alpha, spec.beta, spec.gamma
    if a == 0 and b == 0:
        if g == 0:
            raise ValueError("all three coefficients vanish")
        return "2"
    if a == 0:
        return "1"
    if g == 0:
        return "3"          # includes the beta = 0 linear-growth gap
    d = spec.discriminant
    if b != 0 and d == 0:
        return "5"
    if b == 0:
        if a > 0:
            return "4a" if g > 0 else "4b"
        return "4c" if g > 0 else "4d"
    return "6" if d < 0 else "7"


def _root_pos(v) -> Expr:
    """sqrt of a positive coefficient value, kept exact when possible."""
    return simplify(sqrt(con(v)))


def solution(spec: RiccatiSpec) -> RiccatiBranch:
    """Verified closed-form branch for the coefficient triple: the
    circulated table entry, simplified, except in case 1 and in the
    four cases the table gets wrong or leaves out."""
    case = classify(spec)
    a, b, g = (con(v) for v in spec.triple())
    av, bv, gv = spec.triple()
    xi = XI
    as_printed = True
    poles: tuple = ()

    if case == "1":
        # b*exp(-b*xi) - g, written so that it does not cancel when b*xi
        # is tiny: exp(-b*xi) rounds to 1 there and the plain form is
        # zero at every node near a = 0, b = g
        denom = (b - g) - 2 * b * exp(-b * xi / 2) * sinh(b * xi / 2)
        phi = b / denom
        poles = (denom,)
    elif case == "3" and bv == 0:
        # the circulated table skips this corner entirely
        phi, as_printed = a * xi, False
    elif case == "4b":
        # repaired: the circulated entry carries a complex radical here
        s = _root_pos(-av * gv)
        phi, as_printed = (s / (-g)) * tanh(s * xi), False
    elif case == "4d":
        # repaired: the circulated entry negates the tan argument
        s = _root_pos(av * gv)
        phi, as_printed = (s / g) * tan(s * xi), False
    elif case == "7":
        # repaired: the circulated entry flips the sign of the tanh term
        s = _root_pos(spec.discriminant)
        phi, as_printed = -(b + s * tanh(s * xi / 2)) / (2 * g), False
    else:
        phi = printed_solution(spec)

    if case in ("2", "5"):
        poles = (xi,)
    elif case in ("4a", "4d"):
        poles = (cos(_root_pos(av * gv) * xi),)
    elif case == "6":
        poles = (cos(_root_pos(-spec.discriminant) * xi / 2),)
    return RiccatiBranch(case, spec, simplify(phi), as_printed, poles)


def printed_solution(spec: RiccatiSpec) -> Expr | None:
    """The circulated table entry for this triple, transcribed verbatim
    (even where it is wrong or complex-valued).  None where the table
    has no entry at all."""
    case = classify(spec)
    a, b, g = (con(v) for v in spec.triple())
    av, bv, gv = spec.triple()
    xi = XI
    if case == "1":
        return b / (-g + b * exp(-b * xi))
    if case == "2":
        return -1 / (g * xi)
    if case == "3":
        if bv == 0:
            return None
        return (-a + b * exp(b * xi)) / b
    if case in ("4a", "4b"):
        s = sqrt(a * g)           # complex for 4b; kept verbatim
        fn = tan if case == "4a" else tanh
        return (s / g) * fn(s * xi)
    if case == "4c":
        s = sqrt(-a * g)
        return (s / g) * tanh(-s * xi)
    if case == "4d":
        s = sqrt(a * g)
        return (s / g) * tan(-s * xi)
    if case == "5":
        return -2 * a * (b * xi + 2) / (b * b * xi)
    d = spec.discriminant
    if case == "6":
        s = sqrt(con(-d))
        return (s * tan(s * xi / 2) - b) / (2 * g)
    s = sqrt(con(d))
    return (s * tanh(s * xi / 2) - b) / (2 * g)


def ode_residual_of(phi: Expr, spec: RiccatiSpec) -> Expr:
    a, b, g = (con(v) for v in spec.triple())
    return diff(phi, "xi") - (a + b * phi + g * phi * phi)


def _admissible_points(branch_poles, n, seed) -> np.ndarray:
    poles: list[float] = []
    for d in branch_poles:
        poles.extend(find_zeros(d, "xi", WINDOW))
    from .rng import Stream
    rng = Stream(seed)
    pts: list[float] = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError("window too crowded with poles")
        x = float(rng.uniform(*WINDOW))
        if all(abs(x - p) > EXCLUSION_RADIUS for p in poles):
            pts.append(x)
    return np.array(pts)


def _measure(phi: Expr, spec: RiccatiSpec, pts: np.ndarray,
             tol: float) -> ResidualReport:
    """Compiled check of phi' - (alpha + beta*phi + gamma*phi^2) at
    pts, scaled by max |phi'|.  A non-finite value anywhere (a pole, or
    a radical with no real value) fails with an infinite residual."""
    rv, dv = compile_fn((ode_residual_of(phi, spec), diff(phi, "xi")),
                        ["xi"])(pts)
    if not (np.all(np.isfinite(rv)) and np.all(np.isfinite(dv))):
        return ResidualReport(float("inf"), pts.size, 0, tol, 0.0)
    return ResidualReport(float(np.max(np.abs(rv))), pts.size, 0, tol,
                          float(np.max(np.abs(dv))))


def verify_branch(branch: RiccatiBranch, n: int = 40, seed: int = 0,
                  tol: float = 1e-9) -> ResidualReport:
    """Check phi' - (alpha + beta*phi + gamma*phi^2) at n seeded points
    of WINDOW away from the branch's poles, scaled by max |phi'|."""
    pts = _admissible_points(branch.pole_denoms, n, seed)
    return _measure(branch.phi, branch.spec, pts, tol)


# representative triples, one per case label
AUDIT_SPECS: dict[str, RiccatiSpec] = {
    "1": RiccatiSpec(0, 2, -1),
    "2": RiccatiSpec(0, 0, 5),
    "3": RiccatiSpec(1, 1, 0),
    "4a": RiccatiSpec(1, 0, 1),
    "4b": RiccatiSpec(1, 0, -1),
    "4c": RiccatiSpec(-1, 0, 1),
    "4d": RiccatiSpec(-1, 0, -1),
    "5": RiccatiSpec(1, 2, 1),
    "6": RiccatiSpec(1, 1, 1),
    "7": RiccatiSpec(1, 3, 1),
}


def audit_printed_forms(tol: float = 1e-9) -> list[dict]:
    """Measure every circulated table entry against the ODE it claims
    to solve, next to the repaired branch: one check of both, at the
    same AUDIT_POINTS points drawn once per row with AUDIT_SEED.

    max_residual_printed is None where the entry has no finite real
    value at some point (a negative radicand) or no entry exists.
    """
    rows = []
    for case, spec in AUDIT_SPECS.items():
        branch = solution(spec)
        pts = _admissible_points(branch.pole_denoms, AUDIT_POINTS,
                                 AUDIT_SEED)
        rep = _measure(branch.phi, spec, pts, tol)
        printed = printed_solution(spec)
        prep = None if printed is None else _measure(printed, spec, pts,
                                                     tol)
        real = prep is not None and math.isfinite(prep.max_abs_residual)
        rows.append({
            "case": case,
            "spec": tuple(float(v) for v in spec.triple()),
            "printed_passes": real and prep.passed,
            "max_residual_printed": prep.max_abs_residual if real else None,
            "max_residual_corrected": rep.max_abs_residual,
            "corrected_passes": rep.passed,
            "matches_printed": branch.as_printed,
        })
    return rows
