"""Coefficient-collection engines behind the closed-form catalog.

Three construction routes turn the wave equation into algebraic
systems:

* an exponential-kernel route: u is a second log-derivative of
  1 + exp(mu*x + lam*t + delta) plus a background level, which makes
  the residual a rational function of the exponential; clearing the
  denominator and collecting powers gives equations in the amplitude,
  background, wavenumber, and speed;
* a rational-hyperbolic route: u is a ratio of degree-one sinh/cosh
  combinations; rewriting in the exponential of the wave variable
  gives a polynomial collection in that exponential;
* a quadratic-ODE kernel route: u is a0 + a1 phi + a2 phi^2
  + c1/phi + c2/phi^2 in a kernel function phi whose derivative is a
  quadratic polynomial of itself; written as a polynomial over phi^2,
  the derivative rule closes the algebra, and clearing phi^7 and
  collecting kernel powers gives the third system.

All three routes differentiate u = num/den^k with one quotient-rule
step, so every derivative stays a polynomial over a power of den.

Each engine regenerates its system symbolically; family parameter
maps substitute the catalog's closed-form parameters and must
annihilate every equation.  Verification replaces derivation: no
nonlinear solver is included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    ExactnessError, Expr, Sym, add, con, cosh, diff, evaluate_exact, exp,
    format_expr, log, mul, pow_, sinh, sqrt,
)
from . import polytools as pt
from .catalog import method_tag

__all__ = [
    "AlgebraicSystem",
    "cole_hopf_build", "cole_hopf_system",
    "rational_hyperbolic_build", "rational_hyperbolic_system",
    "balance_m", "BALANCE_PAIRS", "CHOSEN_DEGREE", "CLEARING_POWER",
    "laurent_residual", "tanh_coth_system",
    "system_for_family", "family_system_env", "draw_aux",
]


# ---------------------------------------------------------------------
# balance of leading exponents

# Exponent laws (slope, offset): the cubic convection term carries
# 3m+1, the mixed second/third-derivative products carry 2m+1, and the
# linear dispersive part carries m+3 at ansatz degree m.
BALANCE_PAIRS = (((3, 1), (2, 1)), ((3, 1), (1, 1)), ((2, 1), (1, 3)))


def balance_m() -> set[int]:
    """Nonnegative integer degrees at which two leading exponent laws
    coincide."""
    out: set[int] = set()
    for (s1, o1), (s2, o2) in BALANCE_PAIRS:
        num, den = o2 - o1, s1 - s2
        if den != 0 and num % den == 0 and num // den >= 0:
            out.add(num // den)
    return out


CHOSEN_DEGREE = max(balance_m())  # degree 0 only reproduces constant states


# ---------------------------------------------------------------------
# algebraic systems

@dataclass(frozen=True)
class AlgebraicSystem:
    """One coefficient equation per collected power, all required to
    vanish.  `powers` records the exponent each equation came from
    (before any clearing shift); `terms` holds each equation's terms in
    its term order, each as a row: the coefficient as a float, then
    (name, exponent) for each unknown the monomial holds."""

    variable: str
    unknowns: tuple[str, ...]
    powers: tuple[int, ...]
    equations: tuple[Expr, ...]
    normalization: str
    terms: tuple[tuple[tuple, ...], ...]

    def __len__(self) -> int:
        return len(self.equations)

    @property
    def distinct(self) -> tuple[int, ...]:
        """One representative per proportionality class: the first index
        of each equation, as proportional rows normalize to one
        polynomial and so to one hash-consed expression."""
        first: dict[Expr, int] = {}
        for i, eq in enumerate(self.equations):
            first.setdefault(eq, i)
        return tuple(first.values())

    def max_abs_at(self, env: dict[str, float]) -> float:
        """Largest |equation| at env, inf once one is nan: each equation
        summed as `evaluate` sums it, bit for bit."""
        worst = 0.0
        for rows in self.terms:
            try:
                v = abs(math.fsum(_term_value(t, env) for t in rows))
            except ValueError:   # -inf + inf
                v = math.nan
            except OverflowError:
                v = math.inf
            if math.isnan(v):
                return math.inf
            worst = max(worst, v)
        return worst

    def scale_at(self, env: dict[str, float]) -> float:
        """Largest contributing monomial magnitude: the cancellation
        scale a zero judgement must be measured against."""
        scale = 0.0
        for rows in self.terms:
            for t in rows:
                v = abs(_term_value(t, env))
                if math.isfinite(v):
                    scale = max(scale, v)
        return scale

    def holds_exactly(self, env: dict[str, Fraction]) -> bool:
        # one walk for all equations: their monomials share subtrees
        return all(v == 0 for v in evaluate_exact(self.equations, env))

    def dump(self) -> list[dict]:
        return [{"power": p, "coefficient": format_expr(eq)}
                for p, eq in zip(self.powers, self.equations)]


def _term_value(row: tuple, env: dict[str, float]) -> float:
    """`evaluate` of the term `row` was written from, bit for bit."""
    out = row[0]
    for name, n in row[1:]:
        v = float(env[name])
        try:
            out *= v ** n
        except OverflowError:
            out *= math.inf if v > 0 or n % 2 == 0 else -math.inf
    return out


def _assemble_system(variable: str, unknowns: tuple[str, ...],
                     groups: dict[int, pt.Poly], param_names: tuple[str, ...],
                     nonzero: tuple[str, ...], normalization: str,
                     ) -> AlgebraicSystem:
    """Normalize per-power coefficient polynomials into a system:
    strip guaranteed-nonzero monomial factors, divide out rational
    content, drop zero rows, and write each equation's term rows."""
    powers: list[int] = []
    equations: list[Expr] = []
    terms: list[tuple] = []
    # the rows share each equal coefficient and (name, exponent) pair:
    # a system's hundreds of terms hold a few dozen distinct ones
    shared: dict = {}
    for j in sorted(groups):
        poly = pt.normalize_primitive(
            pt.strip_monomial_gcd(groups[j], param_names, nonzero))
        if not poly:
            continue
        powers.append(j)
        equations.append(pt.from_poly(poly, param_names))
        # from_poly's term order: no equation has a constant monomial,
        # which `add` would move to the front
        rows = []
        for m, c in pt.graded_lex_terms(poly):
            row = (float(c),) + tuple(
                (n, e) for n, e in zip(param_names, m) if e)
            rows.append(tuple(shared.setdefault(f, f) for f in row))
        terms.append(tuple(rows))
    return AlgebraicSystem(variable, unknowns, tuple(powers),
                           tuple(equations), normalization, tuple(terms))


def _collect_powers(numerator: Expr, variables: tuple[str, ...],
                    ) -> dict[int, pt.Poly]:
    """Split a polynomial in variables[0] into per-power coefficient
    polynomials over the remaining variables."""
    whole = pt.to_poly(numerator, variables)
    groups: dict[int, pt.Poly] = {}
    for mono, c in whole.items():
        j, rest = mono[0], mono[1:]
        bucket = groups.setdefault(j, {})
        bucket[rest] = bucket.get(rest, Fraction(0)) + c
    return {j: {m: c for m, c in g.items() if c} for j, g in groups.items()}


def _quotient_step(num: Expr, k: int, op: Expr, den: Expr,
                   var: str) -> tuple[Expr, int]:
    """Apply op * d/dvar to num / den^k by the quotient rule; the
    result is the returned numerator over den^(k+1)."""
    new = mul(op, add(mul(diff(num, var), den),
                      mul(con(-k), num, diff(den, var))))
    return new, k + 1


def _wave_numerator(num: Expr, k: int, op: Expr, den: Expr, var: str,
                    lam: Expr, b: Expr) -> Expr:
    """Wave ODE residual (b+1) U' U^2 - U U''' - lam U''' + lam U'
    - b U' U'' of U = num / den^k, with d/dxi = op * d/dvar, times
    den^m: U^(j) is a numerator over den^(k+j), so m = max(3k+1, 2k+3)
    clears every term and leaves a polynomial."""
    n1, k1 = _quotient_step(num, k, op, den, var)      # U'
    n2, k2 = _quotient_step(n1, k1, op, den, var)      # U''
    n3, k3 = _quotient_step(n2, k2, op, den, var)      # U'''
    m = max(3 * k + 1, 2 * k + 3)
    return add(
        mul(add(b, con(1)), n1, num, num, pow_(den, m - 2 * k - k1)),
        mul(con(-1), n3, num, pow_(den, m - k - k3)),
        mul(con(-1), lam, n3, pow_(den, m - k3)),
        mul(lam, n1, pow_(den, m - k1)),
        mul(con(-1), b, n1, n2, pow_(den, m - k1 - k2)),
    )


# ---------------------------------------------------------------------
# route 1: exponential-kernel transformation

def cole_hopf_build(amplitude, background, wavenumber, speed, phase):
    """Profile pair (log-derivative form, cosh form) in x and t.

    The two are pointwise equal: the second x-derivative of
    log(1 + e^theta) is e^theta/(1+e^theta)^2 = 1/(2(1+cosh theta)).
    Amplitude, wavenumber, and speed must be nonzero when given
    numerically.
    """
    for label, v in (("amplitude", amplitude), ("wavenumber", wavenumber),
                     ("speed", speed)):
        if not isinstance(v, Expr) and float(v) == 0.0:
            raise ValueError(f"{label} must be nonzero")
    A, B = con(amplitude), con(background)
    mu, lam, delta = map(con, (wavenumber, speed, phase))
    theta = add(mul(mu, Sym("x")), mul(lam, Sym("t")), delta)
    log_form = add(mul(A, diff(diff(log(add(con(1), exp(theta))), "x"),
                               "x")), B)
    cosh_form = add(mul(A, pow_(mu, 2),
                        pow_(mul(con(2), add(con(1), cosh(theta))), -1)),
                    B)
    return log_form, cosh_form


_CH_UNKNOWNS = ("amp", "bg", "mu", "lam")
_CH_VARS = ("z",) + _CH_UNKNOWNS + ("b",)


@functools.cache
def cole_hopf_system() -> AlgebraicSystem:
    """Coefficient system of the exponential-kernel route, collected in
    the traveling exponential, with b symbolic."""
    z, A, B, mu, lam, b = (Sym(s) for s in _CH_VARS)
    w = add(con(1), z)
    # u = (A mu^2 z + B (1+z)^2) / (1+z)^2 in z = exp(mu x + lam t + d),
    # so d/dx = mu z d/dz and d/dt = lam z d/dz
    dx, dt = mul(mu, z), mul(lam, z)
    P0, k0 = add(mul(A, pow_(mu, 2), z), mul(B, pow_(w, 2))), 2     # u
    P1, k1 = _quotient_step(P0, k0, dx, w, "z")        # u_x
    P2, k2 = _quotient_step(P1, k1, dx, w, "z")        # u_xx
    P3, k3 = _quotient_step(P2, k2, dx, w, "z")        # u_xxx
    Pt, kt = _quotient_step(P0, k0, dt, w, "z")        # u_t
    Pq, kq = _quotient_step(Pt, kt, dx, w, "z")
    Pxxt, kxxt = _quotient_step(Pq, kq, dx, w, "z")    # u_xxt
    # residual u_t - u_xxt + (b+1)u^2 u_x - b u_x u_xx - u u_xxx, each
    # term a numerator over (1+z)^k, multiplied through by (1+z)^m
    m = max(kxxt, 2 * k0 + k1, k1 + k2, k0 + k3)
    total = add(
        mul(Pt, pow_(w, m - kt)),
        mul(con(-1), Pxxt, pow_(w, m - kxxt)),
        mul(add(b, con(1)), P0, P0, P1, pow_(w, m - 2 * k0 - k1)),
        mul(con(-1), b, P1, P2, pow_(w, m - k1 - k2)),
        mul(con(-1), P0, P3, pow_(w, m - k0 - k3)),
    )
    groups = _collect_powers(total, _CH_VARS)
    return _assemble_system(
        "exponential of the phase", _CH_UNKNOWNS, groups,
        _CH_VARS[1:], ("amp", "mu"),
        f"multiplied by (1+z)^{m}; amp/mu monomial factors stripped "
        "(both are nonzero by construction); rational content removed")


# ---------------------------------------------------------------------
# route 2: rational hyperbolic ansatz

def rational_hyperbolic_build(a0, a1, a2, c1, c2, lam) -> Expr:
    """(a0 + a1 sinh + a2 cosh)/(1 + c1 sinh + c2 cosh) of x + lam t."""
    a0, a1, a2, c1, c2, lam = map(con, (a0, a1, a2, c1, c2, lam))
    xi = add(Sym("x"), mul(lam, Sym("t")))
    num = add(a0, mul(a1, sinh(xi)), mul(a2, cosh(xi)))
    den = add(con(1), mul(c1, sinh(xi)), mul(c2, cosh(xi)))
    return mul(num, pow_(den, -1))


_HYP_UNKNOWNS = ("lam", "a0", "a1", "a2", "c1", "c2")
_HYP_VARS = ("z",) + _HYP_UNKNOWNS + ("b",)


@functools.cache
def rational_hyperbolic_system() -> AlgebraicSystem:
    """Coefficient system of the rational hyperbolic route."""
    z, lam, a0, a1, a2, c1, c2, b = (Sym(s) for s in _HYP_VARS)
    # numerator and denominator scaled by 2 e^xi, in z = e^xi
    P = add(mul(add(a1, a2), pow_(z, 2)), mul(con(2), a0, z),
            add(a2, mul(con(-1), a1)))
    Q = add(mul(add(c1, c2), pow_(z, 2)), mul(con(2), z),
            add(c2, mul(con(-1), c1)))
    # u = P / Q with d/dxi = z d/dz; the wave ODE residual times Q^5
    total = _wave_numerator(P, 1, z, Q, "z", lam, b)
    groups = _collect_powers(total, _HYP_VARS)
    return _assemble_system(
        "exponential of the wave variable", _HYP_UNKNOWNS,
        groups, _HYP_VARS[1:], (),
        "multiplied by denominator^5 in the exponential variable; "
        "common exponential powers dropped (collection variable is "
        "nonvanishing); rational content removed")


# ---------------------------------------------------------------------
# route 3: quadratic-ODE kernel expansion

CLEARING_POWER = 3 * CHOSEN_DEGREE + 1  # lowest/highest kernel power


def laurent_residual(a0, a1, a2, c1, c2, alpha, beta, gamma, lam,
                     b) -> Expr:
    """Wave ODE residual of u = a0 + a1 phi + a2 phi^2 + c1/phi
    + c2/phi^2, multiplied by phi^CLEARING_POWER: a polynomial in the
    kernel phi, whose derivative is alpha + beta phi + gamma phi^2."""
    a0, a1, a2, c1, c2, alpha, beta, gamma, lam, b = map(
        con, (a0, a1, a2, c1, c2, alpha, beta, gamma, lam, b))
    phi = Sym("phi")
    # u = P / phi^2, and d/dxi = (alpha + beta phi + gamma phi^2) d/dphi
    P = add(c2, mul(c1, phi), mul(a0, pow_(phi, 2)), mul(a1, pow_(phi, 3)),
            mul(a2, pow_(phi, 4)))
    op = add(alpha, mul(beta, phi), mul(gamma, pow_(phi, 2)))
    return _wave_numerator(P, 2, op, phi, "phi", lam, b)


_TC_UNKNOWNS = ("lam", "a0", "a1", "a2", "c1", "c2", "alpha", "beta",
                "gamma")
_TC_VARS = _TC_UNKNOWNS + ("b",)


@functools.cache
def tanh_coth_system() -> AlgebraicSystem:
    """Coefficient system of the quadratic-ODE kernel route."""
    cleared = laurent_residual(**{n: Sym(n) for n in _TC_VARS})
    groups = _collect_powers(cleared, ("phi",) + _TC_VARS)
    return _assemble_system(
        "kernel function of the quadratic ODE", _TC_UNKNOWNS,
        {j - CLEARING_POWER: g for j, g in groups.items()}, _TC_VARS, (),
        "kernel powers collected directly from the Laurent residual; "
        "powers quoted before the phi^7 clearing shift; rational "
        "content removed")


# ---------------------------------------------------------------------
# family parameter maps

def _sqrt_checked(v, what: str):
    if v < 0:
        raise ValueError(f"negative radicand for {what}: {v}")
    if isinstance(v, Fraction):
        # keep perfect squares exact so rational maps stay rational
        try:
            return evaluate_exact(sqrt(con(v)), {})
        except ExactnessError:
            pass
    return math.sqrt(v)


def _ch_env(sign: int, b: float, mu: float) -> dict[str, float]:
    s = _sqrt_checked(1 - b * (b + 2) * (mu ** 4 - 1), "exponential map")
    values = (-6 * (b + 2) / (b + 1),
              (2 * mu ** 2 - 1 + b * (mu ** 2 - 1) + sign * s)
              / (2 * (b + 1)),
              mu,
              -mu * (b + 1 - sign * s) / 2)
    return dict(zip(_CH_UNKNOWNS, values, strict=True), b=b)


def _hyp_env(b: float, *values) -> dict[str, float]:
    return dict(zip(_HYP_UNKNOWNS, values, strict=True), b=b)


def _tc_env(b: float, *values) -> dict[str, float]:
    return dict(zip(_TC_UNKNOWNS, values, strict=True), b=b)


def _env_u78(sign: int, b: float, a2: float) -> dict[str, float]:
    s = _sqrt_checked((b + 1) ** 2 * a2 ** 2 - 1, "hyperbolic root")
    return _hyp_env(b, -b / 2, -(3 * b + 5) / (b + 1),
                    sign * s / (b + 1), a2, sign * s, a2 * (b + 1))


def _env_u910(sign: int, b: float, c2: float) -> dict[str, float]:
    s = _sqrt_checked(c2 ** 2 - 1, "shifted-pole root")
    return _hyp_env(b, -b / 2 - 1, -3 * (b + 2) / (b + 1), 0, 0,
                    sign * s, c2)


def _env_u11(b: float, beta: float, alpha: float) -> dict[str, float]:
    gamma = beta ** 2 / (4 * alpha)
    k = 6 * (b + 2) / (b + 1)
    return _tc_env(b, -b - 1, 3 * (b + 2) * beta ** 2 / (2 * (b + 1)) - 1,
                   0, 0, k * alpha * beta, k * alpha ** 2,
                   alpha, beta, gamma)


def draw_aux(fid: str, rng) -> dict[str, float] | None:
    """`family_system_env`'s `aux` for one parameter set, drawn from
    `rng`: u11's closed form leaves its kernel coefficient alpha free,
    and every other family's map pins all of its route's unknowns."""
    return {"alpha": float(rng.uniform(0.5, 2.0))} if fid == "u11" \
        else None


def _env_u1213(sign: int, b: float, beta: float,
               gamma: float) -> dict[str, float]:
    s = _sqrt_checked(1 - b * (b + 2) * (beta ** 4 - 1), "exp-pole map")
    k = 6 * (b + 2) / (b + 1)
    return _tc_env(b, (-b + sign * s - 1) / 2,
                   ((b + 2) * beta ** 2 - b - 1 + sign * s)
                   / (2 * (b + 1)),
                   k * beta * gamma, k * gamma ** 2, 0, 0,
                   0, beta, gamma)


def _env_u1415(sign: int, b: float, alpha: float,
               gamma: float) -> dict[str, float]:
    s = _sqrt_checked(b * (b + 2) * (1 - 256 * alpha ** 2 * gamma ** 2)
                      + 1, "paired trig map")
    k = 6 * (b + 2) / (b + 1)
    ag = alpha * gamma
    return _tc_env(b, (-b + sign * s - 1) / 2,
                   (8 * ag * b - b + 16 * ag + sign * s - 1)
                   / (2 * (b + 1)),
                   0, k * gamma ** 2, 0, k * alpha ** 2,
                   alpha, 0, gamma)


def _env_u16_19(sign: int, keep_a2: bool, b: float, alpha: float,
                gamma: float) -> dict[str, float]:
    s = _sqrt_checked(b * (b + 2) * (1 - 16 * alpha ** 2 * gamma ** 2)
                      + 1, "single trig map")
    k = 6 * (b + 2) / (b + 1)
    ag = alpha * gamma
    a0 = (8 * ag * b - b + 16 * ag + sign * s - 1) / (2 * (b + 1))
    a2 = k * gamma ** 2 if keep_a2 else 0
    c2 = 0 if keep_a2 else k * alpha ** 2
    return _tc_env(b, (-b + sign * s - 1) / 2, a0, 0, a2, 0, c2,
                   alpha, 0, gamma)


def _env_u20_23(sign: int, inverse_branch: bool, b: float, alpha: float,
                beta: float, gamma: float) -> dict[str, float]:
    delta = beta ** 2 - 4 * alpha * gamma
    s = _sqrt_checked(1 - b * (b + 2) * (delta ** 2 - 1),
                      "composite map")
    k = 6 * (b + 2) / (b + 1)
    ag = alpha * gamma
    a0 = (24 * ag + 2 * delta + b * (12 * ag + delta - 1) + sign * s - 1) \
        / (2 * (b + 1))
    if inverse_branch:
        a1 = a2 = 0
        c1, c2 = k * alpha * beta, k * alpha ** 2
    else:
        a1, a2 = k * beta * gamma, k * gamma ** 2
        c1 = c2 = 0
    return _tc_env(b, (-b + sign * s - 1) / 2, a0, a1, a2, c1, c2,
                   alpha, beta, gamma)


# family -> (b, closed-form params, aux) -> substitution environment
_ENV_BUILDERS = {
    "u1": lambda b, p, aux: _ch_env(+1, b, p["mu"]),
    "u2": lambda b, p, aux: _ch_env(-1, b, p["mu"]),
    "u3": lambda b, p, aux: _hyp_env(b, -b / 2, -(3 * b + 5) / (b + 1), 0,
                                     1 / (b + 1), 0, 1),
    "u4": lambda b, p, aux: _hyp_env(b, -b / 2, -(3 * b + 5) / (b + 1), 0,
                                     -1 / (b + 1), 0, -1),
    "u5": lambda b, p, aux: _hyp_env(b, -b / 2 - 1, -3 * (b + 2) / (b + 1),
                                     0, 0, 0, -1),
    "u6": lambda b, p, aux: _hyp_env(b, -b / 2 - 1, -3 * (b + 2) / (b + 1),
                                     0, 0, 0, 1),
    "u7": lambda b, p, aux: _env_u78(-1, b, p["a2"]),
    "u8": lambda b, p, aux: _env_u78(+1, b, p["a2"]),
    "u9": lambda b, p, aux: _env_u910(+1, b, p["c2"]),
    "u10": lambda b, p, aux: _env_u910(-1, b, p["c2"]),
    "u11": lambda b, p, aux: _env_u11(
        b, p["beta"], aux.get("alpha", 1.0) if aux else 1.0),
    "u12": lambda b, p, aux: _env_u1213(-1, b, p["beta"], p["gamma"]),
    "u13": lambda b, p, aux: _env_u1213(+1, b, p["beta"], p["gamma"]),
    "u14": lambda b, p, aux: _env_u1415(-1, b, p["alpha"], p["gamma"]),
    "u15": lambda b, p, aux: _env_u1415(+1, b, p["alpha"], p["gamma"]),
    "u16": lambda b, p, aux: _env_u16_19(-1, False, b, p["alpha"],
                                         p["gamma"]),
    "u17": lambda b, p, aux: _env_u16_19(-1, True, b, p["alpha"],
                                         p["gamma"]),
    "u18": lambda b, p, aux: _env_u16_19(+1, False, b, p["alpha"],
                                         p["gamma"]),
    "u19": lambda b, p, aux: _env_u16_19(+1, True, b, p["alpha"],
                                         p["gamma"]),
    "u20": lambda b, p, aux: _env_u20_23(-1, False, b, p["alpha"],
                                         p["beta"], p["gamma"]),
    "u21": lambda b, p, aux: _env_u20_23(+1, False, b, p["alpha"],
                                         p["beta"], p["gamma"]),
    "u22": lambda b, p, aux: _env_u20_23(+1, True, b, p["alpha"],
                                         p["beta"], p["gamma"]),
    "u23": lambda b, p, aux: _env_u20_23(-1, True, b, p["alpha"],
                                         p["beta"], p["gamma"]),
}


# route, as catalog.ROUTES names it -> system builder.  Each builder is
# looked up by name at call time, so a wrapper installed on the module
# attribute (as the benchmark's tracing does) also sees calls made
# through this table
_SYSTEM_BUILDERS = {
    "colehopf": lambda: cole_hopf_system(),
    "hyperbolic": lambda: rational_hyperbolic_system(),
    "tanhcoth": lambda: tanh_coth_system(),
}


def system_for_family(fid: str) -> AlgebraicSystem:
    return _SYSTEM_BUILDERS[method_tag(fid)]()


def family_system_env(fid: str, b: float, params: dict[str, float],
                      aux: dict[str, float] | None = None,
                      ) -> dict[str, float]:
    """Substitution environment sending the family's closed-form
    parameters into its route's system unknowns.  `aux` supplies
    values for auxiliary degrees of freedom the closed form does not
    pin down (the degenerate-discriminant family leaves one kernel
    coefficient free)."""
    method_tag(fid)   # an unknown id raises the catalog's KeyError
    if not isinstance(b, Fraction):
        b = float(b)
    return _ENV_BUILDERS[fid](b, params, aux)
