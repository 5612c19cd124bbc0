"""Regenerated algebraic systems for the three construction routes.

Oracles: exact Fraction annihilation for rational parameter maps,
seeded numeric annihilation for radical-bearing maps, frozen system
structure (equation counts, collected powers, mirror degeneracies) and
digests of the printed coefficients, the quotient-rule step checked
against direct differentiation, and agreement between the phi^7-cleared
kernel residual and the direct ODE residual — two independent
computation paths.
"""

import hashlib
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from mdpv.ansatz import (
    BALANCE_PAIRS, CHOSEN_DEGREE, CLEARING_POWER, _SYSTEM_BUILDERS,
    AlgebraicSystem, _quotient_step, _term_value, balance_m, cole_hopf_build,
    cole_hopf_system, draw_aux, family_system_env, laurent_residual,
    rational_hyperbolic_build, rational_hyperbolic_system,
    system_for_family, tanh_coth_system,
)
from mdpv.catalog import ROUTES, draw_params, family_ids, profile_with_values
from mdpv import polytools as pt
from mdpv.expr import (
    Add, EvalError, Sym, add, con, diff, evaluate, free_symbols, mul, parse,
    pointwise_equal, pow_, sin,
)
from mdpv.cli import B_LIST, SYSTEM_TOL
from mdpv.residual import modified_eq, ode_residual, within_tolerance
from mdpv.riccati import RiccatiSpec, solution

B_GRID = (0.0, 0.5, 1.0, 3.0)


def holds(S, env):
    """The system check `system-verify` makes, at its default tolerance."""
    return within_tolerance(S.max_abs_at(env), S.scale_at(env), SYSTEM_TOL)


# ---------------------------------------------------------------------
# balance of leading exponents

def test_balance_degrees():
    assert balance_m() == {0, 2}
    assert CHOSEN_DEGREE == 2
    # the chosen degree makes the top collected power 3m+1 = 7
    assert CLEARING_POWER == 3 * CHOSEN_DEGREE + 1 == 7
    assert len(BALANCE_PAIRS) == 3


_TC_ARGS = ("a0", "a1", "a2", "c1", "c2", "alpha", "beta", "gamma", "lam",
            "b")


def test_generic_laurent_span_matches_clearing_power():
    cleared = laurent_residual(*(Sym(n) for n in _TC_ARGS))
    powers = {mono[0] - CLEARING_POWER
              for mono in pt.to_poly(cleared, ("phi",) + _TC_ARGS)}
    assert powers == set(range(-CLEARING_POWER, CLEARING_POWER + 1))


def test_constant_ansatz_residual_vanishes():
    # u = 2 under phi' = 1 - phi^2: every derivative of u is zero
    cleared = laurent_residual(2, 0, 0, 0, 0, 1, 0, -1, -1, 3)
    assert pt.to_poly(cleared, ("phi",)) == {}


# ---------------------------------------------------------------------
# the quotient-rule step shared by the three routes

# (numerator, starting power, operator, denominator, variable) of each
# route's first derivative
_STEP_CASES = {
    "colehopf": ("amp*mu^2*z + bg*(1 + z)^2", 2, "mu*z", "1 + z", "z"),
    "hyperbolic": ("(a1 + a2)*z^2 + 2*a0*z + a2 - a1", 1, "z",
                   "(c1 + c2)*z^2 + 2*z + c2 - c1", "z"),
    "tanhcoth": ("c2 + c1*phi + a0*phi^2 + a1*phi^3 + a2*phi^4", 2,
                 "alpha + beta*phi + gamma*phi^2", "phi", "phi"),
}


@pytest.mark.parametrize("route", sorted(_STEP_CASES))
def test_quotient_step_applies_the_operator(route):
    num, k, op, den, var = _STEP_CASES[route]
    num, op, den = parse(num), parse(op), parse(den)
    # three steps, as each route takes for u', u'' and u'''
    for _ in range(3):
        new, k_new = _quotient_step(num, k, op, den, var)
        assert k_new == k + 1
        lhs = mul(new, pow_(den, -k_new))
        rhs = mul(op, diff(mul(num, pow_(den, -k)), var))
        names = free_symbols(lhs) | free_symbols(rhs)
        assert pointwise_equal(lhs, rhs, {n: (0.5, 1.5) for n in names}), \
            (route, k)
        num, k = new, k_new


# ---------------------------------------------------------------------
# frozen system structure

# sha256 of json.dumps(system.dump()): the coefficients `system-verify
# --json` prints; a change here is a change of the regenerated systems
_DUMP_DIGESTS = {
    "cole_hopf_system":
        "5f52e81b890c2c23a6587602c6ff65759c75c49995adb0c00e9b86ac6575e850",
    "rational_hyperbolic_system":
        "9b24d7c4b43a59942686d1301324abab8be92fed07de7bcd28085a2fe8bcdb4d",
    "tanh_coth_system":
        "93ea71fa22f846383f45e3d6bcd3c12c82b66b8b3a6f67ffcf1290e23e22b835",
}


@pytest.mark.parametrize("build", [
    cole_hopf_system, rational_hyperbolic_system, tanh_coth_system,
])
def test_frozen_system_digest(build):
    text = json.dumps(build().dump())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        _DUMP_DIGESTS[build.__name__]


def test_exponential_route_structure():
    S = cole_hopf_system()
    assert S.powers == (1, 2, 3, 4, 5, 6)
    # mirror degeneracy: the collection is symmetric around power 3.5,
    # so only three equations are distinct
    assert S.distinct == (0, 1, 2)
    vars_ = sorted({s for eq in S.equations
                    for s in ("amp", "bg", "mu", "lam", "b")})
    polys = [pt.to_poly(eq, vars_) for eq in S.equations]
    assert pt.proportional(polys[5], polys[0]) == 1
    assert pt.proportional(polys[4], polys[1]) == 1
    assert pt.proportional(polys[3], polys[2]) == 1


def test_hyperbolic_route_structure():
    S = rational_hyperbolic_system()
    assert S.powers == tuple(range(1, 10))
    assert S.distinct == tuple(range(9))


def test_kernel_route_structure():
    S = tanh_coth_system()
    assert S.powers == tuple(range(-7, 8))
    assert S.distinct == tuple(range(15))
    assert len(S) == 15


def test_kernel_route_extreme_coefficients_factor():
    # the top and bottom collected powers pin the quadratic and
    # inverse-quadratic amplitudes
    S = tanh_coth_system()
    vars_ = list(S.unknowns) + ["b"]
    top = pt.to_poly(S.equations[-1], vars_)
    want = pt.to_poly(parse("a2^2*gamma*((b+1)*a2 - 6*(b+2)*gamma^2)"),
                      vars_)
    assert pt.proportional(top, want) is not None
    bot = pt.to_poly(S.equations[0], vars_)
    want_b = pt.to_poly(parse("c2^2*alpha*((b+1)*c2 - 6*(b+2)*alpha^2)"),
                        vars_)
    assert pt.proportional(bot, want_b) is not None


# ---------------------------------------------------------------------
# the circulated six-equation list for the exponential route

_PRINTED_BULLETS = [
    "bg*mu^3 + lam*mu^2 - (b*bg^2 + bg^2)*mu - lam",
    "bg*mu^3 + lam*mu^2 + (b*bg^2 + bg^2)*mu + lam",
    "(b*amp + amp)*mu^5 - (2*amp*bg + 2*amp*b*bg + 9*bg)*mu^3"
    " - 9*lam*mu^2 - (3*b*bg^2 + 3*bg^2)*mu - 3*lam",
    "(b*amp + amp)*mu^5 + (2*amp*bg + 2*amp*b*bg + 9*bg)*mu^3"
    " + 9*lam*mu^2 + (3*b*bg^2 + 3*bg^2)*mu + 3*lam",
    "(b*amp^2 + amp^2 + 5*b*amp + 11*amp)*mu^5"
    " + (2*amp*bg + 2*amp*b*bg + 10*bg)*mu^3 + 10*lam*mu^2"
    " + (2*b*bg^2 + 2*bg^2)*mu + 2*lam",
    "(b*amp^2 + amp^2 + 5*b*amp + 11*amp)*mu^5"
    " + (2*amp*bg + 2*amp*b*bg + 10*bg)*mu^3 + 10*lam*mu^2"
    " + (2*b*bg^2 + 2*bg^2)*mu + 2*lam",
]


def _proportional_to_some(eq_poly, polys):
    return any(pt.proportional(eq_poly, q) is not None for q in polys)


def test_circulated_list_against_regenerated():
    """Rows 1, 3, 5, 6 of the circulated list are regenerated members;
    rows 2 and 4 are not: each differs from the mirror of rows 1/3 in
    the leading term's sign alone, and taking them literally would
    contradict the catalog families that pass direct residual scans."""
    S = cole_hopf_system()
    vars_ = ("amp", "bg", "mu", "lam", "b")
    regen = [pt.to_poly(eq, vars_) for eq in S.equations]
    printed = [pt.to_poly(parse(s), vars_) for s in _PRINTED_BULLETS]
    for i in (0, 2, 4, 5):
        assert _proportional_to_some(printed[i], regen), f"row {i + 1}"
    for i in (1, 3):
        assert not _proportional_to_some(printed[i], regen), f"row {i + 1}"
    # sign-repair: flipping the odd-degree half of rows 2/4 recovers
    # regenerated members
    for i, odd_flip in ((1, "-(bg*mu^3) - lam*mu^2 + (b*bg^2 + bg^2)*mu"
                            " + lam"),
                        (3, "-((b*amp + amp)*mu^5) + (2*amp*bg"
                            " + 2*amp*b*bg + 9*bg)*mu^3 + 9*lam*mu^2"
                            " + (3*b*bg^2 + 3*bg^2)*mu + 3*lam")):
        repaired = pt.to_poly(parse(odd_flip), vars_)
        assert _proportional_to_some(repaired, regen)


def test_circulated_rows_2_and_4_reject_the_families():
    # the families themselves prove rows 2/4 are misprints
    env = family_system_env("u1", 3.0, {"mu": 1.0})
    row2 = parse(_PRINTED_BULLETS[1])
    assert abs(evaluate(row2, env)) > 1.0


# ---------------------------------------------------------------------
# profile builders

def test_exponential_build_forms_agree():
    lf, cf = cole_hopf_build(1.0, 0.25, 0.8, -0.5, 0.3)
    for x in np.linspace(-4, 4, 17):
        for t in (0.0, 1.1):
            v1 = evaluate(lf, {"x": float(x), "t": t})
            v2 = evaluate(cf, {"x": float(x), "t": t})
            assert abs(v1 - v2) <= 1e-12 * (1 + abs(v1))


def test_exponential_build_known_value():
    # second x-derivative of log(1+e^x) at 0 is 1/4
    lf, cf = cole_hopf_build(1.0, 0.0, 1.0, -0.5, 0.0)
    assert evaluate(lf, {"x": 0.0, "t": 0.0}) == pytest.approx(0.25,
                                                               abs=1e-14)
    assert evaluate(cf, {"x": 0.0, "t": 0.0}) == pytest.approx(0.25,
                                                               abs=1e-14)


@pytest.mark.parametrize("bad", [
    dict(amplitude=0), dict(wavenumber=0), dict(speed=0),
])
def test_exponential_build_rejects_degenerate(bad):
    kw = dict(amplitude=1.0, background=0.0, wavenumber=1.0, speed=-1.0,
              phase=0.0)
    kw.update(bad)
    with pytest.raises(ValueError):
        cole_hopf_build(**kw)


def test_hyperbolic_build_matches_catalog_profile():
    for b in (0.0, 1.0, 3.0):
        env = family_system_env("u3", b, {})
        built = rational_hyperbolic_build(
            env["a0"], env["a1"], env["a2"], env["c1"], env["c2"],
            env["lam"])
        prof = profile_with_values("u3", b, {})
        for x in (-3.0, 0.0, 1.7):
            t = 0.6
            xi = x + env["lam"] * t
            v1 = evaluate(built, {"x": x, "t": t})
            v2 = evaluate(prof, {"xi": xi})
            assert abs(v1 - v2) <= 1e-12 * (1 + abs(v1))


def test_hyperbolic_build_zero_numerator():
    built = rational_hyperbolic_build(0, 0, 0, 0, 0, -1.0)
    assert evaluate(built, {"x": 0.3, "t": 0.2}) == 0.0


def test_mixed_family_instance_is_finite_at_origin():
    env = family_system_env("u7", 0.0, {"a2": 2.0})
    assert env["a1"] == pytest.approx(-math.sqrt(3))
    assert env["c1"] == pytest.approx(-math.sqrt(3))
    assert env["c2"] == pytest.approx(2.0)
    built = rational_hyperbolic_build(
        env["a0"], env["a1"], env["a2"], env["c1"], env["c2"],
        env["lam"])
    v = evaluate(built, {"x": 0.0, "t": 0.0})
    assert math.isfinite(v)


# ---------------------------------------------------------------------
# annihilation: exact where the map is rational

def test_exact_annihilation_rational_maps():
    for b in (F(1, 3), F(1, 2), F(3), F(7, 5)):
        for fid in ("u3", "u4", "u5", "u6"):
            env = family_system_env(fid, b, {})
            assert system_for_family(fid).holds_exactly(env), (fid, b)
        # unit-width exponential map has a perfect-square radicand
        env = family_system_env("u1", b, {"mu": F(1)})
        assert system_for_family("u1").holds_exactly(env)
        env = family_system_env("u2", b, {"mu": F(1)})
        assert system_for_family("u2").holds_exactly(env)


def test_exact_annihilation_kernel_maps():
    b = F(5, 2)
    cases = [
        ("u11", {"beta": F(2, 3)}, {"alpha": F(1, 2)}),
        ("u12", {"beta": F(1), "gamma": F(3, 4)}, None),
        ("u13", {"beta": F(-1), "gamma": F(2)}, None),
        ("u14", {"alpha": F(1, 4), "gamma": F(1, 4)}, None),
        ("u15", {"alpha": F(-1, 8), "gamma": F(-1, 2)}, None),
        ("u16", {"alpha": F(1, 2), "gamma": F(1, 2)}, None),
        ("u17", {"alpha": F(1, 2), "gamma": F(1, 2)}, None),
        ("u18", {"alpha": F(-1, 4), "gamma": F(-1)}, None),
        ("u19", {"alpha": F(-1, 4), "gamma": F(-1)}, None),
        ("u20", {"alpha": F(1), "beta": F(3, 2), "gamma": F(5, 16)}, None),
        ("u21", {"alpha": F(1), "beta": F(3, 2), "gamma": F(5, 16)}, None),
        ("u22", {"alpha": F(1), "beta": F(3, 2), "gamma": F(5, 16)}, None),
        ("u23", {"alpha": F(1), "beta": F(3, 2), "gamma": F(5, 16)}, None),
    ]
    for fid, params, aux in cases:
        env = family_system_env(fid, b, params, aux)
        assert all(isinstance(v, (F, int)) for v in env.values()), fid
        assert system_for_family(fid).holds_exactly(env), fid


@pytest.mark.parametrize("fid", family_ids())
def test_seeded_annihilation(fid):
    rng = np.random.default_rng(1000 + int(fid[1:]))
    S = system_for_family(fid)
    for b in B_GRID:
        for _ in range(3):
            params = draw_params(fid, rng, b)
            env = family_system_env(fid, b, params, draw_aux(fid, rng))
            assert holds(S, env), (fid, b, params, S.max_abs_at(env))


def test_exponential_families_annihilate_absolutely():
    # amp/bg/mu stay O(1), so the raw residual magnitude meets 1e-10
    rng = np.random.default_rng(2024)
    S = cole_hopf_system()
    for fid in ("u1", "u2"):
        for _ in range(20):
            b = float(rng.choice(B_GRID))
            params = draw_params(fid, rng, b)
            env = family_system_env(fid, b, params)
            assert S.max_abs_at(env) <= 1e-10, (fid, b, params)


def test_large_coefficients_still_annihilate_relatively():
    # a wide kernel draw inflates monomials to ~1e6; the zero test is
    # judged against that cancellation scale
    env = family_system_env("u11", 0.0, {"beta": 1.3}, {"alpha": 2.0})
    S = tanh_coth_system()
    assert S.scale_at(env) > 1e4
    assert holds(S, env)


def test_negative_controls_break_annihilation():
    env = family_system_env("u12", 1.0, {"beta": 0.8, "gamma": 1.1})
    env["lam"] = -env["lam"]
    assert not holds(tanh_coth_system(), env)

    env = family_system_env("u3", 1.0, {})
    env = {k: float(v) for k, v in env.items()}
    env["a0"] += 1e-3
    assert not holds(rational_hyperbolic_system(), env)

    env = family_system_env("u1", 2.0, {"mu": 0.9})
    env["bg"] *= 1.001
    assert not holds(cole_hopf_system(), env)


def _system_checks():
    # (family id, env) of the rows a system check meets: every family at
    # each default b, three draws each, a row past float range, and u3
    # where its monomials reach 1e200 and overflow
    for fid in family_ids():
        rng = np.random.default_rng(3000 + int(fid[1:]))
        for b in map(float, B_LIST.split(",")):
            for _ in range(3):
                params = draw_params(fid, rng, b)
                yield fid, family_system_env(fid, b, params,
                                             draw_aux(fid, rng))
    rng = np.random.default_rng(20)
    env = family_system_env("u20", 1.0, draw_params("u20", rng, 1.0))
    env["a0"] += 1e308
    yield "u20", env
    for b in (1e200, 1e307):
        yield "u3", family_system_env("u3", b, {})


def test_term_table_reproduces_evaluate():
    # the reference is the check as `evaluate` makes it over the
    # equations; the table must give the same bits, term by term too,
    # where a term's overflow keeps its sign
    for fid, env in _system_checks():
        S = system_for_family(fid)
        values = []
        for eq, rows in zip(S.equations, S._terms):
            want = [evaluate(t, env)
                    for t in (eq.terms if isinstance(eq, Add) else (eq,))]
            got = [_term_value(row, env) for row in rows]
            assert list(map(repr, got)) == list(map(repr, want)), fid
            values += want
        worst = 0.0
        for eq in S.equations:
            v = abs(evaluate(eq, env))
            if math.isnan(v):
                worst = math.inf
                break
            worst = max(worst, v)
        scale = max((abs(v) for v in values if math.isfinite(v)),
                    default=0.0)
        assert repr(S.max_abs_at(env)) == repr(worst), fid
        assert repr(S.scale_at(env)) == repr(scale), fid


def test_term_table_overflows_and_fails_as_evaluate_does():
    eq = parse("2*x^3*y - x^2 + y/x")
    S = AlgebraicSystem("z", ("x", "y"), (0,), (eq,), "", (0,))
    env = {"x": -1e200, "y": 1.0}
    assert [repr(_term_value(row, env)) for row in S._terms[0]] == \
        [repr(evaluate(t, env)) for t in eq.terms] == \
        ["-inf", "-inf", "-1e-200"]
    for env, message in (({"x": 0.0, "y": 1.0}, "division by zero"),
                         ({"x": 1.0}, "unbound symbol 'y'")):
        with pytest.raises(EvalError, match=message) as want:
            evaluate(eq, env)
        with pytest.raises(EvalError, match=message) as got:
            S.scale_at(env)
        assert str(got.value) == str(want.value)


def test_term_table_refuses_a_factor_that_is_not_a_monomial():
    eq = add(1, sin(Sym("x")))
    S = AlgebraicSystem("z", ("x",), (0,), (eq,), "", (0,))
    with pytest.raises(TypeError):
        S.max_abs_at({"x": 1.0})


def test_unknown_family_rejected():
    with pytest.raises(KeyError):
        family_system_env("u99", 1.0, {})
    with pytest.raises(KeyError):
        system_for_family("u0")


def test_route_builders_are_the_catalog_routes():
    # catalog.ROUTES spells the route names; the builders are keyed by them
    assert set(_SYSTEM_BUILDERS) == set(ROUTES.values())
    for fid in family_ids():
        assert len(system_for_family(fid)) > 0


def test_aux_draw_only_for_u11():
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    for fid in family_ids():
        if fid != "u11":
            assert draw_aux(fid, rng) is None
    # no other family's draw moved the stream
    assert draw_aux("u11", rng) == {"alpha": float(twin.uniform(0.5, 2.0))}


# ---------------------------------------------------------------------
# the two residual paths agree

def _tanh_coth_profile(env, phi):
    return add(con(env["a0"]), mul(con(env["a1"]), phi),
               mul(con(env["a2"]), pow_(phi, 2)),
               mul(con(env["c1"]), pow_(phi, -1)),
               mul(con(env["c2"]), pow_(phi, -2)))


def test_dual_route_agreement_random_coefficients():
    rng = np.random.default_rng(21)
    spec = RiccatiSpec(F(1), F(3), F(1))
    phi = solution(spec).phi
    for trial in range(5):
        cs = {k: float(rng.uniform(-1, 1))
              for k in ("a0", "a1", "a2", "c1", "c2")}
        lam, b = float(rng.uniform(-2, 2)), float(rng.uniform(0, 3))
        L = laurent_residual(cs["a0"], cs["a1"], cs["a2"], cs["c1"],
                             cs["c2"], 1.0, 3.0, 1.0, lam, b)
        U = _tanh_coth_profile({**cs}, phi)
        R = ode_residual(U, modified_eq(b), con(lam))
        checked = 0
        for _ in range(40):
            xi = float(rng.uniform(-3, 3))
            pv = evaluate(phi, {"xi": xi})
            if not math.isfinite(pv) or not 0.05 < abs(pv) < 1e3:
                continue
            vA = evaluate(R, {"xi": xi})
            vB = evaluate(L, {"phi": pv}) / pv ** CLEARING_POWER
            assert abs(vA - vB) <= 1e-9 * (1 + abs(vA)), (trial, xi)
            checked += 1
        assert checked >= 10


@pytest.mark.parametrize("fid", [f"u{i}" for i in range(11, 24)])
def test_dual_route_agreement_per_family(fid):
    rng = np.random.default_rng(7000 + int(fid[1:]))
    b = 1.0
    params = draw_params(fid, rng, b)
    aux = {"alpha": 1.25} if fid == "u11" else None
    env = family_system_env(fid, b, params, aux)
    spec = RiccatiSpec(F(env["alpha"]), F(env["beta"]), F(env["gamma"]))
    phi = solution(spec).phi
    L = laurent_residual(env["a0"], env["a1"], env["a2"], env["c1"],
                         env["c2"], env["alpha"], env["beta"],
                         env["gamma"], env["lam"], b)
    U = _tanh_coth_profile(env, phi)
    R = ode_residual(U, modified_eq(b), con(env["lam"]))
    r_terms = R.terms if hasattr(R, "terms") else (R,)
    checked = 0
    for _ in range(60):
        xi = float(rng.uniform(-4, 4))
        pv = evaluate(phi, {"xi": xi})
        if not math.isfinite(pv) or not 0.05 < abs(pv) < 50.0:
            continue
        scale = max(abs(evaluate(t, {"xi": xi})) for t in r_terms)
        if not math.isfinite(scale):
            continue
        vA = evaluate(R, {"xi": xi})
        vB = evaluate(L, {"phi": pv}) / pv ** CLEARING_POWER
        assert abs(vA - vB) <= 1e-9 * (1 + scale), (fid, xi, vA, vB)
        checked += 1
    assert checked >= 5, fid


# ---------------------------------------------------------------------
# system plumbing

def test_dump_round_trips():
    for S in (cole_hopf_system(), rational_hyperbolic_system(),
              tanh_coth_system()):
        rows = S.dump()
        assert len(rows) == len(S)
        for row in rows:
            assert set(row) == {"power", "coefficient"}
            parse(row["coefficient"])
        assert S.normalization
