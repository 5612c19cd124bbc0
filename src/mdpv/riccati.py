"""Closed-form branches of the quadratic first-order ODE

    phi'(xi) = alpha + beta*phi(xi) + gamma*phi(xi)^2

classified over real constant coefficients, plus a numeric audit that
separates branches whose published closed forms actually solve the ODE
from those that need a sign or radical repair.

Every branch this module *returns* is a verified solution; the
`as_printed` flag records whether that verified form coincides with the
widely circulated table entry.  `audit_printed_forms` measures both the
circulated and repaired forms against the ODE so the discrepancies are
data, not opinion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .expr import (
    Call, Const, EvalError, Expr, compile_fn, con, cos, diff, evaluate,
    exp, postorder, simplify, sinh, sqrt, sym, tan, tanh,
)
from .residual import ResidualReport, find_zeros

__all__ = [
    "RiccatiSpec", "RiccatiBranch", "classify", "solution",
    "printed_solution", "ode_residual_of", "verify_branch",
    "audit_printed_forms", "AUDIT_SPECS",
]

XI = sym("xi")

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


def solution(alpha: Coeff, beta: Coeff = None, gamma: Coeff = None,
             ) -> RiccatiBranch:
    """Verified closed-form branch for the coefficient triple."""
    if isinstance(alpha, RiccatiSpec):
        spec = alpha
    else:
        spec = RiccatiSpec(alpha, beta, gamma)
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
    elif case == "2":
        phi = -1 / (g * xi)
        poles = (xi,)
    elif case == "3":
        if bv == 0:
            # the circulated table skips this corner entirely
            phi = a * xi
            as_printed = False
        else:
            phi = (-a + b * exp(b * xi)) / b
    elif case == "4a":
        s = _root_pos(av * gv)
        phi = (s / g) * tan(s * xi)
        poles = (cos(s * xi),)
    elif case == "4b":
        # repaired: the circulated entry carries a complex radical here
        s = _root_pos(-av * gv)
        phi = (s / (-g)) * tanh(s * xi)
        as_printed = False
    elif case == "4c":
        s = _root_pos(-av * gv)
        phi = (s / g) * tanh(-s * xi)
    elif case == "4d":
        # repaired: the circulated entry negates the tan argument
        s = _root_pos(av * gv)
        phi = (s / g) * tan(s * xi)
        as_printed = False
        poles = (cos(s * xi),)
    elif case == "5":
        phi = -2 * a * (b * xi + 2) / (b * b * xi)
        poles = (xi,)
    elif case == "6":
        d = spec.discriminant
        s = _root_pos(-d)
        phi = (s * tan(s * xi / 2) - b) / (2 * g)
        poles = (cos(s * xi / 2),)
    else:  # "7"
        # repaired: the circulated entry flips the sign of the tanh term
        d = spec.discriminant
        s = _root_pos(d)
        phi = -(b + s * tanh(s * xi / 2)) / (2 * g)
        as_printed = False

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


def _has_negative_radicand(e: Expr) -> bool:
    for t in postorder(e):
        if isinstance(t, Call) and t.fn == "sqrt":
            arg = simplify(t.arg)
            if isinstance(arg, Const) and arg.value < 0:
                return True
    return False


def _admissible_points(branch_poles, window, n, seed,
                       margin: float = 0.1) -> np.ndarray:
    poles: list[float] = []
    for d in branch_poles:
        poles.extend(find_zeros(d, "xi", window))
    rng = np.random.default_rng(seed)
    pts: list[float] = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError("window too crowded with poles")
        x = float(rng.uniform(*window))
        if all(abs(x - p) > margin for p in poles):
            pts.append(x)
    return np.array(pts)


def verify_branch(branch: RiccatiBranch, n: int = 40,
                  window: tuple[float, float] = (-5.0, 5.0),
                  seed: int = 0, tol: float = 1e-9) -> ResidualReport:
    """Check phi' - (alpha + beta*phi + gamma*phi^2) at seeded points
    away from the branch's poles, scaled by max |phi'|."""
    resid = ode_residual_of(branch.phi, branch.spec)
    pts = _admissible_points(branch.pole_denoms, window, n, seed)
    rfun = compile_fn(resid, ["xi"])
    dfun = compile_fn(diff(branch.phi, "xi"), ["xi"])
    rv = np.broadcast_to(np.asarray(rfun(pts), dtype=float), pts.shape)
    dv = np.broadcast_to(np.asarray(dfun(pts), dtype=float), pts.shape)
    if not (np.all(np.isfinite(rv)) and np.all(np.isfinite(dv))):
        return ResidualReport(float("inf"), n, 0, tol, 0.0, False)
    scale = float(np.max(np.abs(dv)))
    max_abs = float(np.max(np.abs(rv)))
    return ResidualReport(max_abs, n, 0, tol, scale,
                          max_abs <= tol * (1.0 + scale))


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


def audit_printed_forms(n: int = 40, seed: int = 3,
                        tol: float = 1e-9) -> list[dict]:
    """Measure every circulated table entry against the ODE it claims
    to solve, next to the repaired branch.

    max_residual_printed is None when the entry cannot be evaluated
    over the reals (negative radicand) or where no entry exists.
    """
    rows = []
    for case, spec in AUDIT_SPECS.items():
        branch = solution(spec)
        rep = verify_branch(branch, n=n, seed=seed, tol=tol)
        printed = printed_solution(spec)
        printed_passes = False
        max_printed = None
        if printed is not None and not _has_negative_radicand(printed):
            pts = _admissible_points(branch.pole_denoms, (-5.0, 5.0), n,
                                     seed)
            resid = ode_residual_of(printed, spec)
            dprinted = diff(printed, "xi")
            vals = []
            dvals = []
            ok = True
            for x in pts:
                try:
                    vals.append(evaluate(resid, {"xi": float(x)}))
                    dvals.append(evaluate(dprinted, {"xi": float(x)}))
                except EvalError:
                    ok = False
                    break
            if ok and vals and np.all(np.isfinite(vals)) and \
                    np.all(np.isfinite(dvals)):
                max_printed = float(np.max(np.abs(vals)))
                scale = float(np.max(np.abs(dvals)))
                printed_passes = max_printed <= tol * (1.0 + scale)
        rows.append({
            "case": case,
            "spec": tuple(float(v) for v in spec.triple()),
            "printed_passes": printed_passes,
            "max_residual_printed": max_printed,
            "max_residual_corrected": rep.max_abs_residual,
            "corrected_passes": rep.passed,
            "matches_printed": branch.as_printed,
        })
    return rows
