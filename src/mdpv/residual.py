"""Residual construction for the b-family wave equation and windowed
numeric scanning.

The equation, in evolution form with one real parameter b (excluding
b = -1 and b = -2 where the family degenerates):

    u_t - u_xxt + (b+1) u^p u_x  =  b u_x u_xx + u u_xxx

with p = 2 for the cubic-convection (modified) variant and p = 1 for
the quadratic-convection variant.  A traveling profile U on the moving
coordinate xi = x + lam*t satisfies

    (b+1) U' U^p - U''' U - lam U''' + lam U' - b U' U''  =  0.

Scanning is relative to the cancellation scale: a claimed solution makes
the residual's top-level terms cancel, so the pass criterion compares
the residual magnitude against the largest single term magnitude seen
on the grid, not against machine zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .expr import Add, Expr, compile_fn, con, diff, free_symbols

__all__ = [
    "EquationVariant", "modified_eq", "classic_eq", "VARIANTS",
    "pde_residual", "ode_residual", "within_tolerance", "ResidualReport",
    "scan", "find_zeros", "distinct_points",
]

# a scan's defaults: SCAN_N uniform points of SCAN_WINDOW, judged at
# relative tolerance SCAN_TOL; it skips grid points within
# EXCLUSION_RADIUS of a declared exclusion
SCAN_WINDOW = (-8.0, 8.0)
SCAN_N = 257
SCAN_TOL = 1e-9
EXCLUSION_RADIUS = 0.1

# find_zeros samples its window at this many points and bisects each
# bracket until it is narrower than REFINE_TOL
ZERO_GRID_POINTS = 4001
REFINE_TOL = 1e-10


@dataclass(frozen=True)
class EquationVariant:
    """One member of the b-family: convection u^p u_x with p in {1, 2}."""

    b: Expr
    convection_power: int

    def __post_init__(self):
        if self.convection_power not in (1, 2):
            raise ValueError("convection power must be 1 or 2")


def modified_eq(b) -> EquationVariant:
    """Cubic convection (p = 2)."""
    return EquationVariant(con(b), 2)


def classic_eq(b) -> EquationVariant:
    """Quadratic convection (p = 1)."""
    return EquationVariant(con(b), 1)


# variant tag, as `verify --variant` spells it -> its equation of b
VARIANTS = {"mdp": modified_eq, "dp": classic_eq}


def require_valid_b(b: float) -> None:
    """The family degenerates at b = -1 and b = -2."""
    if abs(b + 1.0) <= 1e-9 or abs(b + 2.0) <= 1e-9:
        raise ValueError(f"b = {b} is outside the admissible family")


def pde_residual(u: Expr, eq: EquationVariant) -> Expr:
    """Left-minus-right of the evolution equation for a candidate u(x,t)."""
    b = eq.b
    p = eq.convection_power
    u_x = diff(u, "x")
    u_xx = diff(u_x, "x")
    u_xxx = diff(u_xx, "x")
    u_t = diff(u, "t")
    u_xxt = diff(u_xx, "t")
    conv = u * u_x if p == 1 else u * u * u_x
    return (u_t - u_xxt + (b + 1) * conv - b * u_x * u_xx - u * u_xxx)


def ode_residual(U: Expr, eq: EquationVariant, lam) -> Expr:
    """Residual of the traveling-profile reduction on xi = x + lam*t."""
    b = eq.b
    lam_e = con(lam)
    Up = diff(U, "xi")
    Upp = diff(Up, "xi")
    Uppp = diff(Upp, "xi")
    conv = U if eq.convection_power == 1 else U * U
    return ((b + 1) * conv * Up - Uppp * U - lam_e * Uppp
            + lam_e * Up - b * Up * Upp)


def within_tolerance(max_abs: float, scale: float, tol: float) -> bool:
    """The pass rule of every check, residual scan and coefficient
    system alike: a finite max |R| within tolerance of the cancellation
    scale, max |R| <= tol * (1 + scale)."""
    return math.isfinite(max_abs) and max_abs <= tol * (1.0 + scale)


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: float
    points_evaluated: int
    points_excluded: int
    tolerance: float
    scale: float

    @property
    def passed(self) -> bool:
        return within_tolerance(self.max_abs_residual, self.scale,
                                self.tolerance)

    def line(self, label: str) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"{label}: {verdict}  max|R| = {self.max_abs_residual:.3e}"
                f"  scale = {self.scale:.3e}  ({self.points_evaluated} pts,"
                f" {self.points_excluded} excluded)")


def scan(residual: Expr, env: Mapping[str, float],
         window: tuple[float, float] = SCAN_WINDOW, n: int = SCAN_N,
         exclusions: Sequence[float] = (),
         tol: float = SCAN_TOL) -> ResidualReport:
    """Evaluate a residual on a uniform grid and judge it against the
    cancellation scale.

    The scan variable is the single free symbol of `residual` not bound
    by `env`.  Grid points within EXCLUSION_RADIUS of a declared
    exclusion are skipped.  The top-level terms are compiled together
    into one function that returns each term's values; the scale is the
    largest finite term magnitude, and the residual's values are the
    left-to-right sum of the term values, bit for bit what the compiled
    residual gives.  A non-finite residual anywhere else fails the scan
    outright.
    """
    free = free_symbols(residual)
    unbound = sorted(free - set(env.keys()))
    if len(unbound) != 1:
        raise ValueError(f"scan needs exactly one unbound symbol, "
                         f"got {unbound!r}")
    var = unbound[0]
    bound = sorted(free - {var})

    import numpy as np

    grid = np.linspace(window[0], window[1], n)
    keep = np.ones(n, dtype=bool)
    for x0 in exclusions:
        keep &= np.abs(grid - x0) > EXCLUSION_RADIUS
    pts = grid[keep]
    excluded = int(n - pts.size)
    if pts.size == 0:
        return ResidualReport(float("inf"), 0, excluded, tol, 0.0)

    terms = residual.terms if isinstance(residual, Add) else (residual,)
    tvals = compile_fn(terms, [var] + bound)(
        pts, *[float(env[nm]) for nm in bound])
    scale = 0.0
    for tv in tvals:
        finite = tv[np.isfinite(tv)]
        if finite.size:
            scale = max(scale, float(np.max(np.abs(finite))))
    # left to right, as the compiled residual folds its sum
    with np.errstate(all="ignore"):
        rvals = sum(tvals[1:], tvals[0])

    if not np.all(np.isfinite(rvals)):
        return ResidualReport(float("inf"), int(pts.size), excluded,
                              tol, scale)
    return ResidualReport(float(np.max(np.abs(rvals))), int(pts.size),
                          excluded, tol, scale)


def find_zeros(f: Expr, var: str, window: tuple[float, float],
               env: Mapping[str, float] | None = None) -> list[float]:
    """Zeros of a scalar expression on an open interval, including
    tangential ones (where the function touches zero without a sign
    change, as 1 - cosh does at the origin).

    f and f' are compiled as one function.  One rule brackets the grid
    values of f and of f': where both neighbours are finite, an exact
    zero is a root at its left node and a sign change is bisected, all
    brackets at once.  A zero of f' is a tangential root where |f| is
    negligible against f's window-wide scale.  The roots come back as
    `distinct_points`.
    """
    import numpy as np

    env = dict(env or {})
    names = sorted(free_symbols(f) - {var})
    extra = [float(env[nm]) for nm in names]
    fn = compile_fn((f, diff(f, var)), [var] + names)

    def at(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return fn(x, *extra)

    lo, hi = window
    xs = np.linspace(lo, hi, ZERO_GRID_POINTS)

    def zeros_of(k: int, v: np.ndarray) -> np.ndarray:
        # roots of output k of `at` (0: f, 1: f'), whose grid values are v
        finite = np.isfinite(v[:-1]) & np.isfinite(v[1:])
        exact = finite & (v[:-1] == 0.0)
        change = finite & ~exact & ((v[:-1] < 0) != (v[1:] < 0))
        a, b = xs[:-1][change], xs[1:][change]
        fa = at(a)[k]
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = at(m)[k]
            stop = (b - a < REFINE_TOL) | (fm == 0.0)
            # a stopped bracket collapses onto its midpoint and stays
            a, b = np.where(stop, m, a), np.where(stop, m, b)
            if stop.all():
                break
            left = (fa < 0) != (fm < 0)
            b = np.where(left, m, b)
            a, fa = np.where(left, a, m), np.where(left, fa, fm)
        return np.concatenate([xs[:-1][exact], 0.5 * (a + b)])

    vals, dvals = at(xs)
    finite = np.isfinite(vals)
    fscale = float(np.max(np.abs(vals[finite]))) if finite.any() else 1.0
    crit = zeros_of(1, dvals)
    vc = at(crit)[0]
    small = np.isfinite(vc) & (np.abs(vc) <= 1e-8 * (1.0 + fscale))
    roots = np.concatenate([zeros_of(0, vals), crit[small]])
    return distinct_points(roots[(lo < roots) & (roots < hi)].tolist())


def distinct_points(points: Sequence[float]) -> list[float]:
    """The points in ascending order, each kept only when it lies more
    than 1e-8 past the last one kept."""
    out: list[float] = []
    for p in sorted(points):
        if not out or p - out[-1] > 1e-8:
            out.append(p)
    return out
