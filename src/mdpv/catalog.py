"""Registry of closed-form traveling-wave families for the cubic-
convection b-family equation.

Each family is a profile U(xi) on the moving coordinate xi = x + lam*t,
with its speed lam, parameter list, admissibility constraints, and the
denominators whose zeros are profile poles.  Profiles and speeds are
symbolic in b and the parameters, so one cached residual per family
serves every numeric scan.  A family is built (its forms simplified)
on the first lookup of its id, so a command pays only for the families
it uses.

Families come in structural groups that mirror how they were derived:

  u1-u2    bell profiles from a log-second-derivative ansatz
  u3-u10   ratios of {1, sinh, cosh} combinations
  u11      rational-in-xi degenerate branch
  u12-u13  exponential pole pairs
  u14-u19  trigonometric (csc^2 / cot^2 / tan^2) branches
  u20-u23  tanh^2 and tanh-composite branches

u10's widely circulated closed form does not satisfy the equation (two
sign slips); the registry entry is built from its generating parameter
set instead, and `printed_u10` preserves the circulated rendering for
negative-control tests.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from .expr import (
    Expr, Fraction, cos, cosh, cot, csc, evaluate, evaluate_exact, exp,
    format_expr, simplify, sin, sinh, sqrt, substitute_map, sym, tan, tanh,
)
from .residual import (
    SCAN_N, SCAN_TOL, SCAN_WINDOW, VARIANTS, ResidualReport,
    distinct_points, find_zeros, ode_residual, require_valid_b, scan,
)

__all__ = [
    "Family", "FamilyInstance", "family", "family_ids",
    "profile_with_values", "speed_value", "is_valid", "require_parameters",
    "singular_points", "verify_family", "draw_params", "family_rng",
    "method_tag", "catalog_manifest", "ROUTES", "printed_u10",
]

XI = sym("xi")
B = sym("b")
MU = sym("mu")
A2 = sym("a2")
C2 = sym("c2")
AL = sym("alpha")
BE = sym("beta")
GA = sym("gamma")

# constraint kinds: value must be far from zero / nonnegative / positive
NONZERO, NONNEG, POSITIVE = "nonzero", "nonneg", "positive"


@dataclass(frozen=True)
class Family:
    family_id: str
    description: str
    parameters: tuple
    profile: Expr            # symbols: xi, b, *parameters
    speed: Expr              # symbols: b, *parameters
    constraints: tuple       # (label, expr, kind)
    singular_denoms: tuple   # expressions of xi whose zeros are poles
    draw: Callable           # (rng, b) -> params dict


def _check(label: str, e: Expr, kind: str):
    return (label, simplify(e), kind)


# ---------------------------------------------------------------------
# group builders: each returns the Family of one id

def _fam(fid, desc, params, profile, speed, constraints, denoms, draw):
    return Family(fid, desc, tuple(params), simplify(profile),
                  simplify(speed), tuple(constraints),
                  tuple(simplify(d) for d in denoms), draw)


def _sign_word(sign: int) -> str:
    return "minus" if sign < 0 else "plus"


def _no_params(rng, b):
    return {}


def _r_quartic(p: Expr) -> Expr:
    # 1 - b(b+2)(p^4 - 1): under the radical in several speed formulas
    return 1 - B * (B + 2) * (p ** 4 - 1)


def _bell(fid: str, sign: int) -> Family:
    # U = head - 3(b+2)mu^2 / ((b+1)(1+cosh(mu xi)))
    sr = sqrt(_r_quartic(MU))
    lam = -(B + 1 + sign * sr) / 2
    if sign < 0:
        head = (2 * MU ** 2 - 1 + B * (MU ** 2 - 1) + sr) / (2 * (B + 1))
    else:
        head = (B * MU ** 2 + 2 * MU ** 2 - 1 - B - sr) / (2 * (B + 1))
    U = head - 3 * (B + 2) * MU ** 2 / ((B + 1) * (1 + cosh(MU * XI)))
    speed = "slow" if sign < 0 else "fast"
    return _fam(
        fid, f"bell profile over 1+cosh(mu*xi), {speed}-speed branch",
        ("mu",), U, lam,
        [_check("mu != 0", MU, NONZERO),
         _check("1 - b(b+2)(mu^4-1) >= 0", _r_quartic(MU), NONNEG)],
        (), _bell_draw)


def _bell_draw(rng, b):
    return {"mu": float(rng.uniform(0.4, 1.0))}


def _over_cosh(fid: str, name: str, U: Expr, lam: Expr,
               denom_sign: int) -> Family:
    # u3-u6 are quotients over (b+1)(1 +- cosh): smooth with +, a pole
    # at the origin with -
    if denom_sign > 0:
        return _fam(fid, f"{name} over 1+cosh, smooth", (), U, lam, [], (),
                    _no_params)
    return _fam(fid, f"{name} over 1-cosh, pole at origin", (), U, lam, [],
                (1 - cosh(XI),), _no_params)


def _cosh_ratio(fid: str, numer_sign: int, denom_sign: int) -> Family:
    # u3/u4: (-(3b+5) +- cosh)/((b+1)(1 +- cosh))
    U = (-(3 * B + 5) - numer_sign * cosh(XI)) / \
        ((B + 1) * (1 + denom_sign * cosh(XI)))
    return _over_cosh(fid, "cosh ratio", U, -B / 2, denom_sign)


def _pure_bell(fid: str, denom_sign: int) -> Family:
    # u5/u6: -3(b+2)/((b+1)(1 +- cosh))
    U = -3 * (B + 2) / ((B + 1) * (1 + denom_sign * cosh(XI)))
    return _over_cosh(fid, "pure bell", U, -B / 2 - 1, denom_sign)


def _mixed_hyperbolic(fid: str, sign: int) -> Family:
    # u7/u8: numerator and denominator share the sinh/cosh combination
    q = sqrt((B + 1) ** 2 * A2 ** 2 - 1)
    combo = sign * q * sinh(XI) + (B + 1) * A2 * cosh(XI)
    U = (-(3 * B + 5) + combo) / ((B + 1) * (1 + combo))
    return _fam(
        fid, f"shared sinh/cosh ratio, {_sign_word(sign)}-root pairing",
        ("a2",), U, -B / 2,
        [_check("(b+1)^2 a2^2 - 1 >= 0", (B + 1) ** 2 * A2 ** 2 - 1,
                NONNEG)],
        (1 + combo,), _mixed_draw)


def _mixed_draw(rng, b):
    m = float(rng.uniform(1.05, 2.5)) * float(rng.choice([-1.0, 1.0]))
    return {"a2": m / (b + 1.0)}


def _pole_hyperbolic(fid: str, sign: int) -> Family:
    # u9/u10: -3(b+2) over a unit-discriminant sinh/cosh denominator
    c1 = sqrt(C2 ** 2 - 1)
    D = 1 + sign * c1 * sinh(XI) + C2 * cosh(XI)
    U = -3 * (B + 2) / ((B + 1) * D)
    desc = f"bell over unit-discriminant sinh/cosh, {_sign_word(sign)}" \
        " pairing"
    if sign < 0:
        desc += " (rebuilt from its parameter set; circulated rendering" \
            " is wrong)"
    return _fam(fid, desc, ("c2",), U, -B / 2 - 1,
                [_check("c2^2 - 1 >= 0", C2 ** 2 - 1, NONNEG)],
                (D,), _pole_draw)


def _pole_draw(rng, b):
    return {"c2": float(rng.uniform(1.05, 2.5)) *
            float(rng.choice([-1.0, 1.0]))}


def _rational_quadratic(fid: str) -> Family:
    # u11: lone rational branch, double pole at xi = -2/beta
    U = 6 * (B + 2) * BE ** 2 / ((B + 1) * (BE * XI + 2) ** 2) - 1
    return _fam(
        fid, "rational double-pole branch (degenerate discriminant)",
        ("beta",), U, -B - 1,
        [_check("beta != 0", BE, NONZERO)],
        (BE * XI + 2,), _rational_draw)


def _rational_draw(rng, b):
    return {"beta": float(rng.uniform(0.3, 1.5)) *
            float(rng.choice([-1.0, 1.0]))}


def _exp_pole(fid: str, sign: int) -> Family:
    # u12/u13: simple-plus-double exponential pole
    sr = sqrt(_r_quartic(BE))
    lam = (-B + sign * sr - 1) / 2
    head = ((B + 2) * BE ** 2 - B - 1 + sign * sr) / (2 * (B + 1))
    D = BE * exp(-BE * XI) - GA
    U = head + (6 * (B + 2) * GA * BE ** 2 / (B + 1)) * \
        (1 / D + GA / D ** 2)
    return _fam(
        fid, "exponential simple+double pole, "
        f"{_sign_word(sign)}-root speed",
        ("beta", "gamma"), U, lam,
        [_check("beta != 0", BE, NONZERO),
         _check("gamma != 0", GA, NONZERO),
         _check("1 - b(b+2)(beta^4-1) >= 0", _r_quartic(BE), NONNEG)],
        (D,), _exp_pole_draw)


def _exp_pole_draw(rng, b):
    return {
        "beta": float(rng.uniform(0.4, 1.0)) *
        float(rng.choice([-1.0, 1.0])),
        "gamma": float(rng.uniform(0.3, 2.0)) *
        float(rng.choice([-1.0, 1.0])),
    }


def _csc_branch(fid: str, sign: int) -> Family:
    # u14/u15
    root = sqrt(B * (B + 2) * (1 - 256 * AL ** 2 * GA ** 2) + 1)
    s = sqrt(AL * GA)
    lam = (-B + sign * root - 1) / 2
    U = (-(B + 1) - 16 * AL * GA * (B + 2) + sign * root
         + 48 * AL * GA * (B + 2) * csc(2 * s * XI) ** 2) / (2 * (B + 1))
    return _fam(
        fid, "csc^2 lattice of singular waves, "
        f"{_sign_word(sign)}-root speed",
        ("alpha", "gamma"), U, lam,
        [_check("alpha*gamma > 0", AL * GA, POSITIVE),
         _check("b(b+2)(1-256 a^2 g^2) + 1 >= 0",
                B * (B + 2) * (1 - 256 * AL ** 2 * GA ** 2) + 1, NONNEG)],
        (sin(2 * s * XI),), _csc_draw)


def _csc_draw(rng, b):
    p = float(rng.uniform(0.01, 0.06))
    a = float(rng.uniform(0.2, 1.2)) * float(rng.choice([-1.0, 1.0]))
    return {"alpha": a, "gamma": p / a}


def _trig_sq_branch(fid: str, kind: str, sign: int) -> Family:
    # u16-u19: cot^2 or tan^2 over the shared constant block
    root = sqrt(B * (B + 2) * (1 - 16 * AL ** 2 * GA ** 2) + 1)
    s = sqrt(AL * GA)
    lam = (-B + sign * root - 1) / 2
    osc = cot(s * XI) if kind == "cot" else tan(s * XI)
    U = (-(B + 1) + 8 * AL * GA * (B + 2) + sign * root
         + 12 * AL * GA * (B + 2) * osc ** 2) / (2 * (B + 1))
    denom = sin(s * XI) if kind == "cot" else cos(s * XI)
    return _fam(
        fid, f"{kind}^2 periodic branch, {_sign_word(sign)}-root speed",
        ("alpha", "gamma"), U, lam,
        [_check("alpha*gamma > 0", AL * GA, POSITIVE),
         _check("b(b+2)(1-16 a^2 g^2) + 1 >= 0",
                B * (B + 2) * (1 - 16 * AL ** 2 * GA ** 2) + 1, NONNEG)],
        (denom,), _trig_draw)


def _trig_draw(rng, b):
    p = float(rng.uniform(0.02, 0.24))
    a = float(rng.uniform(0.2, 1.2)) * float(rng.choice([-1.0, 1.0]))
    return {"alpha": a, "gamma": p / a}


_DELTA = BE ** 2 - 4 * AL * GA
_R_DELTA = 1 - B * (B + 2) * (_DELTA ** 2 - 1)


def _tanh_constraints() -> list:
    # u20-u23: a real tanh argument and a real speed root
    return [_check("beta^2 - 4 alpha gamma > 0", _DELTA, POSITIVE),
            _check("1 - b(b+2)(D^2-1) >= 0", _R_DELTA, NONNEG)]


def _tanh_sq(fid: str, sign: int) -> Family:
    # u20/u21: flat background plus tanh^2 bump
    root = sqrt(_R_DELTA)
    lam = (-B + sign * root - 1) / 2
    U = -(2 * _DELTA * (B + 2) + B + 1 - sign * root) / (2 * (B + 1)) \
        + (3 * (B + 2) * _DELTA / (2 * (B + 1))) * \
        tanh(sqrt(_DELTA) * XI / 2) ** 2
    return _fam(
        fid, f"tanh^2 kink-squared profile, {_sign_word(sign)}-root speed",
        ("alpha", "beta", "gamma"), U, lam, _tanh_constraints(), (),
        _tanh_draw)


def _tanh_composite(fid: str, sign: int) -> Family:
    # u22/u23: tanh composite whose inverse-power terms carry a moving pole
    root = sqrt(_R_DELTA)
    sd = sqrt(_DELTA)
    lam = (-B + sign * root - 1) / 2
    head = ((_DELTA + 12 * AL * GA) * (B + 2) - (B + 1) + sign * root) / \
        (2 * (B + 1))
    denom = BE + sd * tanh(sd * XI / 2)
    inv1 = -12 * (B + 2) * AL * BE * GA / ((B + 1) * denom)
    inv2 = 24 * (B + 2) * AL ** 2 * GA ** 2 / ((B + 1) * denom ** 2)
    return _fam(
        fid, "tanh composite with moving pole, "
        f"{_sign_word(sign)}-root speed",
        ("alpha", "beta", "gamma"), head + inv1 + inv2, lam,
        _tanh_constraints() + [_check("alpha*gamma != 0", AL * GA, NONZERO)],
        (denom,), lambda rng, b: _tanh_draw(rng, b, need_ag=True))


def _tanh_draw(rng, b, need_ag: bool = False):
    while True:
        delta = float(rng.uniform(0.3, 1.0))
        beta = float(rng.uniform(0.3, 1.2)) * float(rng.choice([-1.0, 1.0]))
        if not need_ag or abs(beta ** 2 - delta) >= 0.05:
            break
    a = float(rng.uniform(0.3, 1.0)) * float(rng.choice([-1.0, 1.0]))
    g = (beta ** 2 - delta) / (4 * a)
    return {"alpha": a, "beta": beta, "gamma": g}


def printed_u10() -> tuple[Expr, Expr]:
    """u10 exactly as circulated (profile, speed).  Fails the equation:
    kept as a negative control and provenance record."""
    c1 = sqrt(C2 ** 2 - 1)
    D = 1 + c1 * sinh(XI) - C2 * cosh(XI)
    U = 3 * (B + 2) / ((B + 1) * D)
    return simplify(U), simplify(-B / 2 - 1)


# ---------------------------------------------------------------------
# registry

# family id -> builder of that family, in catalog order; `family` runs
# each builder once, on the first lookup of its id
_BUILDERS: dict[str, Callable[[str], Family]] = {
    "u1": lambda fid: _bell(fid, -1),
    "u2": lambda fid: _bell(fid, +1),
    "u3": lambda fid: _cosh_ratio(fid, -1, +1),
    "u4": lambda fid: _cosh_ratio(fid, +1, -1),
    "u5": lambda fid: _pure_bell(fid, -1),
    "u6": lambda fid: _pure_bell(fid, +1),
    "u7": lambda fid: _mixed_hyperbolic(fid, -1),
    "u8": lambda fid: _mixed_hyperbolic(fid, +1),
    "u9": lambda fid: _pole_hyperbolic(fid, +1),
    "u10": lambda fid: _pole_hyperbolic(fid, -1),
    "u11": _rational_quadratic,
    "u12": lambda fid: _exp_pole(fid, -1),
    "u13": lambda fid: _exp_pole(fid, +1),
    "u14": lambda fid: _csc_branch(fid, -1),
    "u15": lambda fid: _csc_branch(fid, +1),
    "u16": lambda fid: _trig_sq_branch(fid, "cot", -1),
    "u17": lambda fid: _trig_sq_branch(fid, "tan", -1),
    "u18": lambda fid: _trig_sq_branch(fid, "cot", +1),
    "u19": lambda fid: _trig_sq_branch(fid, "tan", +1),
    "u20": lambda fid: _tanh_sq(fid, -1),
    "u21": lambda fid: _tanh_sq(fid, +1),
    "u22": lambda fid: _tanh_composite(fid, +1),
    "u23": lambda fid: _tanh_composite(fid, -1),
}


def family_ids() -> list[str]:
    return list(_BUILDERS)


def _known(fid: str) -> str:
    """`fid` if the catalog holds it; else the one unknown-id error."""
    if fid not in _BUILDERS:
        raise KeyError(f"unknown family '{fid}'; known: u1..u23")
    return fid


@functools.cache
def family(fid: str) -> Family:
    """The family `fid`, built on its first lookup."""
    return _BUILDERS[_known(fid)](fid)


# ---------------------------------------------------------------------
# numeric services

def require_parameters(fid: str, params: Mapping[str, float]) -> None:
    """Raise ValueError unless `params` names the family's parameters."""
    names = family(fid).parameters
    missing = [p for p in names if p not in params]
    extra = [p for p in params if p not in names]
    if missing or extra:
        raise ValueError(f"{fid} needs parameters {list(names)}:"
                         f" missing {missing}, does not take {extra}")


def _env(fid: str, b: float, params: Mapping[str, float]) -> dict:
    require_parameters(fid, params)
    env = {p: float(params[p]) for p in family(fid).parameters}
    env["b"] = float(b)
    return env


def is_valid(fid: str, b: float, params: Mapping[str, float]
             ) -> tuple[bool, list[str]]:
    """Check b-admissibility and every family constraint; returns
    (ok, list of violated constraint labels).  A constraint whose float
    value is not finite is violated; a nonnegativity constraint, a
    polynomial, has its sign decided exactly at the float inputs."""
    fam = family(fid)
    bad: list[str] = []
    try:
        require_valid_b(float(b))
    except ValueError as e:
        return False, [str(e)]
    env = _env(fid, b, params)
    exact = {k: Fraction(v) for k, v in env.items() if math.isfinite(v)}
    for label, e, kind in fam.constraints:
        v = evaluate(e, env)
        if not math.isfinite(v):
            bad.append(label)
        elif kind == NONZERO and abs(v) <= 1e-9:
            bad.append(label)
        elif kind == NONNEG and evaluate_exact(e, exact) < 0:
            bad.append(label)
        elif kind == POSITIVE and v <= 1e-9:
            bad.append(label)
    return (not bad), bad


def profile_with_values(fid: str, b: float,
                        params: Mapping[str, float]) -> Expr:
    """The profile with b and parameters substituted (still symbolic
    in xi)."""
    fam = family(fid)
    env = _env(fid, b, params)
    return simplify(substitute_map(fam.profile, env))


def speed_value(fid: str, b: float, params: Mapping[str, float]) -> float:
    fam = family(fid)
    return evaluate(fam.speed, _env(fid, b, params))


def singular_points(fid: str, b: float, params: Mapping[str, float],
                    window: tuple[float, float]) -> list[float]:
    """xi locations inside the open window where any singular
    denominator of the family vanishes."""
    fam = family(fid)
    env = _env(fid, b, params)
    pts: list[float] = []
    for d in fam.singular_denoms:
        pts.extend(find_zeros(d, "xi", window, env=env))
    return distinct_points(pts)


_residual_cache: dict[tuple[str, str], Expr] = {}


def _family_residual(fid: str, variant: str) -> Expr:
    key = (fid, variant)
    got = _residual_cache.get(key)
    if got is None:
        fam = family(fid)
        got = ode_residual(fam.profile, VARIANTS[variant](B), fam.speed)
        _residual_cache[key] = got
    return got


def verify_family(fid: str, b: float, params: Mapping[str, float],
                  window: tuple[float, float] = SCAN_WINDOW,
                  n: int = SCAN_N, tol: float = SCAN_TOL,
                  variant: str = "mdp") -> ResidualReport:
    """Scan the traveling-reduction residual of one family member under
    the equation that `variant`, a tag of `residual.VARIANTS`, names;
    any other tag raises KeyError.

    Validity must be checked by the caller (`is_valid`); here invalid
    parameters surface as non-finite values or failed scans.
    """
    env = _env(fid, b, params)
    R = _family_residual(fid, variant)
    excl = singular_points(fid, b, params, window)
    return scan(R, env, window=window, n=n, exclusions=excl, tol=tol)


@dataclass(frozen=True)
class FamilyInstance:
    """A family bound to concrete admissible parameter values.

    Construction validates b-admissibility and every family constraint
    (strict inequalities with margin), so any instance that exists can
    be built and evaluated away from its singular points.
    """
    family_id: str
    b: float
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        frozen = dict(self.params)
        object.__setattr__(self, "params", frozen)
        ok, bad = is_valid(self.family_id, self.b, frozen)
        if not ok:
            raise ValueError(f"{self.family_id} instance is inadmissible:"
                             f" {', '.join(bad)}")

    def profile(self) -> Expr:
        """U(xi) with all parameters substituted."""
        return profile_with_values(self.family_id, self.b, self.params)

    def speed(self) -> float:
        return speed_value(self.family_id, self.b, self.params)

    def singularities(self, window: tuple[float, float]) -> list[float]:
        return singular_points(self.family_id, self.b, self.params,
                               window)


def draw_params(fid: str, rng, b: float) -> dict:
    """One admissible parameter draw (family-specific strategy with
    safety margins away from constraint boundaries) from `rng`, any
    object with `uniform(low, high)` and `choice(seq)`."""
    fam = family(fid)
    for _ in range(100):
        params = fam.draw(rng, b)
        ok, _bad = is_valid(fid, b, params)
        if ok:
            return params
    raise ValueError(f"{fid} has no admissible parameter draw at b = {b:g}")


def family_rng(seed: int, fid: str):
    """The stream of one family's draws at a seed: its entropy is the
    seed and the family number."""
    from .rng import Stream
    return Stream([seed, int(fid[1:])])


# construction route that generated each family, spelled as the CLI's
# --method values
ROUTES: dict[str, str] = {
    **dict.fromkeys(("u1", "u2"), "colehopf"),
    **dict.fromkeys([f"u{i}" for i in range(3, 11)], "hyperbolic"),
    **dict.fromkeys([f"u{i}" for i in range(11, 24)], "tanhcoth"),
}


def method_tag(fid: str) -> str:
    """Which construction route generated the family; builds none."""
    return ROUTES[_known(fid)]


def catalog_manifest() -> list[dict]:
    """JSON-ready description of every family."""
    out = []
    for fid in family_ids():
        fam = family(fid)
        out.append({
            "family_id": fam.family_id,
            "method": method_tag(fid),
            "description": fam.description,
            "parameters": list(fam.parameters),
            "profile": format_expr(fam.profile),
            "wave_speed": format_expr(fam.speed),
            "constraints": [label for label, _, _ in fam.constraints],
            "singular_denominators": [format_expr(d)
                                      for d in fam.singular_denoms],
        })
    return out
