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

Each route's ansatz u = num/den^k is a traveling wave with one record,
`_ANSATZ[route]`, which names one derivative D = op * d/dvar: d/dx is
scale * D and d/dt is lam * D.  One numerator, `_wave_numerator`,
clears the evolution residual of all three from Du, D^2u and D^3u, each
a polynomial over a power of den after one more quotient-rule step.

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
    ExactnessError, Expr, add, con, diff, evaluate_exact, format_expr, mul,
    pow_, sqrt, sym,
)
from . import polytools as pt
from .catalog import method_tag

__all__ = [
    "AlgebraicSystem", "cole_hopf_system", "rational_hyperbolic_system",
    "balance_m", "BALANCE_PAIRS", "CHOSEN_DEGREE", "CLEARING_POWER",
    "tanh_coth_system", "system_for_family", "family_system_env",
    "draw_aux",
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


def _quotient_step(num: Expr, k: int, op: Expr, den: Expr,
                   var: str) -> tuple[Expr, int]:
    """Apply op * d/dvar to num / den^k by the quotient rule; the
    result is the returned numerator over den^(k+1)."""
    new = mul(op, add(mul(diff(num, var), den),
                      mul(con(-k), num, diff(den, var))))
    return new, k + 1


def _wave_numerator(a: _Ansatz) -> tuple[Expr, int]:
    """Evolution residual u_t - u_xxt + (b+1) u^2 u_x - b u_x u_xx
    - u u_xxx of the route's u = num / den^k, times den^m; returns it
    with m.  As d/dx = s D and d/dt = lam D with s = scale, the residual
    is lam (Du - s^2 D^3u) + (b+1) s u^2 Du - s^3 (b Du D^2u + u D^3u).
    D^j u is a numerator over den^(k+j), so m = max(3k+1, 2k+3) clears
    every term and leaves a polynomial."""
    num, k, den, s = a.num, a.k, a.den, a.scale
    n1, k1 = _quotient_step(num, k, a.op, den, a.var)    # Du
    n2, k2 = _quotient_step(n1, k1, a.op, den, a.var)    # D^2u
    n3, k3 = _quotient_step(n2, k2, a.op, den, a.var)    # D^3u
    b, lam = sym("b"), sym("lam")
    m = max(3 * k + 1, 2 * k + 3)
    return add(
        mul(lam, n1, pow_(den, m - k1)),
        mul(con(-1), lam, pow_(s, 2), n3, pow_(den, m - k3)),
        mul(add(b, con(1)), s, n1, num, num, pow_(den, m - 2 * k - k1)),
        mul(con(-1), pow_(s, 3), b, n1, n2, pow_(den, m - k1 - k2)),
        mul(con(-1), pow_(s, 3), n3, num, pow_(den, m - k - k3)),
    ), m


# ---------------------------------------------------------------------
# one record per route

CLEARING_POWER = 3 * CHOSEN_DEGREE + 1  # lowest/highest kernel power


@dataclass(frozen=True)
class _Ansatz:
    """A route's ansatz u = num / den^k in the collection variable
    `var`, a traveling wave: with D = op * d/dvar, d/dx = scale * D and
    d/dt = lam * D, so its speed is lam / scale.  Equations lose the
    monomial factors of the `nonzero` unknowns and quote their powers
    less `shift`; `variable` and `normalization` are the system's texts,
    the latter with {m} for the clearing power."""

    unknowns: tuple[str, ...]
    var: str
    num: Expr
    k: int
    den: Expr
    op: Expr
    scale: Expr
    nonzero: tuple[str, ...]
    variable: str
    normalization: str
    shift: int = 0


def _ansatz_table() -> dict[str, _Ansatz]:
    z, phi, amp, bg, mu, a0, a1, a2, c1, c2, alpha, beta, gamma = map(
        sym, ("z", "phi", "amp", "bg", "mu", "a0", "a1", "a2", "c1", "c2",
              "alpha", "beta", "gamma"))
    kernel = alpha + beta * phi + gamma * phi ** 2
    return {
        # route 1: amp d^2/dx^2 log(1 + z) + bg, z = exp(mu x + lam t + d),
        # is (amp mu^2 z + bg (1+z)^2)/(1+z)^2
        "colehopf": _Ansatz(
            ("amp", "bg", "mu", "lam"), "z",
            amp * mu ** 2 * z + bg * (1 + z) ** 2, 2, 1 + z,
            z, mu, ("amp", "mu"), "exponential of the phase",
            "multiplied by (1+z)^{m}; amp/mu monomial factors stripped "
            "(both are nonzero by construction); rational content removed"),
        # route 2: (a0 + a1 sinh + a2 cosh)/(1 + c1 sinh + c2 cosh) of
        # xi = x + lam t, both scaled by 2 e^xi, in z = e^xi
        "hyperbolic": _Ansatz(
            ("lam", "a0", "a1", "a2", "c1", "c2"), "z",
            (a1 + a2) * z ** 2 + 2 * a0 * z + a2 - a1, 1,
            (c1 + c2) * z ** 2 + 2 * z + c2 - c1,
            z, con(1), (), "exponential of the wave variable",
            "multiplied by denominator^{m} in the exponential variable; "
            "common exponential powers dropped (collection variable is "
            "nonvanishing); rational content removed"),
        # route 3: a0 + a1 phi + a2 phi^2 + c1/phi + c2/phi^2 of
        # xi = x + lam t, with phi' = alpha + beta phi + gamma phi^2
        "tanhcoth": _Ansatz(
            ("lam", "a0", "a1", "a2", "c1", "c2", "alpha", "beta", "gamma"),
            "phi", c2 + c1 * phi + a0 * phi ** 2 + a1 * phi ** 3
            + a2 * phi ** 4, 2, phi,
            kernel, con(1), (), "kernel function of the quadratic ODE",
            "kernel powers collected directly from the Laurent residual; "
            "powers quoted before the phi^{m} clearing shift; rational "
            "content removed", CLEARING_POWER),
    }


# route, as catalog.ROUTES names it -> its ansatz
_ANSATZ = _ansatz_table()


def _route_system(route: str) -> AlgebraicSystem:
    """The route's coefficient system, with b symbolic: its wave
    numerator, collected in powers of its variable and normalized."""
    a = _ANSATZ[route]
    names = a.unknowns + ("b",)
    total, m = _wave_numerator(a)
    # each monomial of the numerator joins its power's group once
    groups: dict[int, pt.Poly] = {}
    for (j, *rest), c in pt.to_poly(total, (a.var,) + names).items():
        groups.setdefault(j - a.shift, {})[tuple(rest)] = c
    return _assemble_system(a.variable, a.unknowns, groups, names,
                            a.nonzero, a.normalization.format(m=m))


@functools.cache
def cole_hopf_system() -> AlgebraicSystem:
    """Coefficient system of the exponential-kernel route, collected in
    the traveling exponential."""
    return _route_system("colehopf")


@functools.cache
def rational_hyperbolic_system() -> AlgebraicSystem:
    """Coefficient system of the rational hyperbolic route."""
    return _route_system("hyperbolic")


@functools.cache
def tanh_coth_system() -> AlgebraicSystem:
    """Coefficient system of the quadratic-ODE kernel route."""
    return _route_system("tanhcoth")


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


def _route_env(route: str, b: float, *values) -> dict[str, float]:
    return dict(zip(_ANSATZ[route].unknowns, values, strict=True), b=b)


_hyp_env = functools.partial(_route_env, "hyperbolic")
_tc_env = functools.partial(_route_env, "tanhcoth")


def _ch_env(sign: int, b: float, mu: float) -> dict[str, float]:
    s = _sqrt_checked(1 - b * (b + 2) * (mu ** 4 - 1), "exponential map")
    return _route_env(
        "colehopf", b, -6 * (b + 2) / (b + 1),
        (2 * mu ** 2 - 1 + b * (mu ** 2 - 1) + sign * s) / (2 * (b + 1)),
        mu, -mu * (b + 1 - sign * s) / 2)


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
