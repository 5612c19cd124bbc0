"""Residual construction and the windowed scan oracle.

The key fixture is a hand-checked exact profile: for the cubic-convection
equation at parameter b, U(xi) = -3(b+2) / ((b+1)(1+cosh xi)) with speed
lam = -b/2 - 1 satisfies the traveling reduction identically.  The scan
must accept it, reject generic non-solutions, and treat singular
denominators via explicit exclusions.
"""

import math

import numpy as np
import pytest

from mdpv.catalog import (
    FamilyInstance, _env as _family_env, draw_params, family, family_ids,
    singular_points,
)
from mdpv import expr
from mdpv.expr import (
    Add, Const, compile_fn, cos, cosh, diff, evaluate, free_symbols, parse,
    pointwise_equal, sin, sym,
)
from mdpv.riccati import (
    AUDIT_SPECS, _measure as riccati_measure, solution as riccati_solution,
)
from mdpv.residual import (
    VARIANTS, EquationVariant, ResidualReport, classic_eq, find_zeros,
    modified_eq,
    ode_residual, pde_residual, require_valid_b, scan, traveling_profile,
)

XI = sym("xi")


def _sech2_profile(b: float):
    # smooth bell profile, finite everywhere
    U = -3 * (b + 2) / ((b + 1) * (1 + cosh(XI)))
    lam = -b / 2 - 1
    return U, lam


def _singular_profile(b: float):
    # same algebra against 1 - cosh: blows up at xi = 0
    U = -3 * (b + 2) / ((b + 1) * (1 - cosh(XI)))
    lam = -b / 2 - 1
    return U, lam


@pytest.mark.parametrize("b", [0.0, 0.5, 1.0, 3.0])
def test_scan_accepts_exact_solution(b):
    U, lam = _sech2_profile(b)
    R = ode_residual(U, modified_eq(b), lam)
    rep = scan(R, {}, window=(-8, 8), n=257)
    assert rep.passed, rep
    assert rep.max_abs_residual <= 1e-9 * (1 + rep.scale)
    assert rep.points_evaluated == 257


def test_scan_rejects_non_solution():
    R = ode_residual(XI, modified_eq(3.0), -2.5)
    rep = scan(R, {}, window=(-8, 8), n=257)
    assert not rep.passed
    assert rep.max_abs_residual > 1.0


def test_scan_rejects_solution_under_wrong_convection():
    # cubic-convection solution fails the quadratic-convection equation
    b = 3.0
    U, lam = _sech2_profile(b)
    R = ode_residual(U, classic_eq(b), lam)
    rep = scan(R, {}, window=(-8, 8), n=257)
    assert not rep.passed


def test_scan_exclusions_handle_singular_profiles():
    b = 3.0
    U, lam = _singular_profile(b)
    R = ode_residual(U, modified_eq(b), lam)
    bad = scan(R, {}, window=(-8, 8), n=257)
    assert not bad.passed  # non-finite at the pole
    good = scan(R, {}, window=(-8, 8), n=257, exclusions=[0.0])
    assert good.passed, good
    assert good.points_excluded > 0


def test_scan_with_symbolic_parameters_bound_by_env():
    b = sym("b")
    U = -3 * (b + 2) / ((b + 1) * (1 + cosh(XI)))
    lam = -b / 2 - 1
    R = ode_residual(U, modified_eq(b), lam)
    rep = scan(R, {"b": 3.0}, window=(-8, 8), n=257)
    assert rep.passed
    # same cached symbolic residual, different parameter value
    rep2 = scan(R, {"b": 0.5}, window=(-8, 8), n=257)
    assert rep2.passed


def test_scan_requires_exactly_one_unbound_symbol():
    R = ode_residual(sym("b") * XI, modified_eq(sym("b")), 0)
    with pytest.raises(ValueError, match="exactly one"):
        scan(R, {})
    with pytest.raises(ValueError, match="exactly one"):
        scan(R, {"b": 1.0, "xi": 0.0})


def test_pde_and_ode_routes_agree():
    # substituting xi = x + lam*t into the profile and forming the full
    # evolution residual must reproduce the reduced residual at t = 0
    b = 1.5
    U, lam = _sech2_profile(b)
    eq = modified_eq(b)
    u = traveling_profile(U, lam)
    R_pde = pde_residual(u, eq)
    R_ode = ode_residual(U, eq, lam)
    for x0 in np.linspace(-3, 3, 11):
        v1 = evaluate(R_pde, {"x": float(x0), "t": 0.0})
        v2 = evaluate(R_ode, {"xi": float(x0)})
        assert v1 == pytest.approx(v2, abs=1e-9)


def test_pde_residual_nontrivial_time_dependence():
    b = 2.0
    U, lam = _sech2_profile(b)
    u = traveling_profile(U, lam)
    R = pde_residual(u, modified_eq(b))
    for t0 in (0.0, 0.7, -1.3):
        vals = [evaluate(R, {"x": float(x), "t": t0})
                for x in np.linspace(-4, 4, 9)]
        assert max(abs(v) for v in vals) < 1e-8


def test_variant_constructors():
    assert modified_eq(3).convection_power == 2
    assert classic_eq(0.5).convection_power == 1
    assert VARIANTS["mdp"] is modified_eq and VARIANTS["dp"] is classic_eq
    with pytest.raises(ValueError):
        EquationVariant(sym("b"), 3)


def test_require_valid_b():
    require_valid_b(0.0)
    require_valid_b(3.0)
    with pytest.raises(ValueError):
        require_valid_b(-1.0)
    with pytest.raises(ValueError):
        require_valid_b(-2.0 + 1e-12)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_report_never_passes_a_non_finite_residual(bad):
    for scale in (0.0, 1.0, 1e300):
        assert not ResidualReport(bad, 1, 0, 1e300, scale).passed


@pytest.mark.parametrize("tol,scale", [(1e-9, 0.0), (1e-9, 2.5),
                                       (0.5, 1e10), (0.0, 7.0)])
def test_report_passes_exactly_within_tolerance_of_the_scale(tol, scale):
    bound = tol * (1.0 + scale)
    assert ResidualReport(bound, 1, 0, tol, scale).passed
    assert ResidualReport(0.0, 1, 0, tol, scale).passed
    above = float(np.nextafter(bound, math.inf))
    assert not ResidualReport(above, 1, 0, tol, scale).passed
    assert not ResidualReport(0.0, 1, 0, -1.0, scale).passed


def test_report_line_format():
    rep = ResidualReport(1e-12, 250, 7, 1e-9, 2.5)
    line = rep.line("check")
    assert "pass" in line and "250" in line and "excluded" in line
    rep2 = ResidualReport(1.0, 10, 0, 1e-9, 1.0)
    assert "FAIL" in rep2.line("x")


# ---------------------------------------------------------------------
# zero finding

def test_find_zeros_transversal():
    zs = find_zeros(parse("sin(x)"), "x", (-7, 7))
    want = [-2 * math.pi, -math.pi, 0.0, math.pi, 2 * math.pi]
    assert len(zs) == len(want)
    assert np.allclose(zs, want, atol=1e-9)


def test_find_zeros_tangential():
    # 1 - cosh touches zero at the origin without a sign change
    zs = find_zeros(parse("1 - cosh(x)"), "x", (-5, 5))
    assert len(zs) == 1 and abs(zs[0]) < 1e-7
    # x^2 likewise
    zs2 = find_zeros(parse("x^2"), "x", (-1, 1))
    assert len(zs2) == 1 and abs(zs2[0]) < 1e-7


def test_find_zeros_open_interval_and_empty():
    assert find_zeros(parse("cosh(x)"), "x", (-5, 5)) == []
    # endpoint zeros are outside the open window
    zs = find_zeros(parse("sin(x)"), "x", (0.0, math.pi))
    assert zs == []


def test_find_zeros_trig_quarter():
    zs = find_zeros(parse("cos(x)"), "x", (0, 4))
    assert len(zs) == 1
    assert zs[0] == pytest.approx(math.pi / 2, abs=1e-9)


def test_find_zeros_with_env_parameters():
    zs = find_zeros(parse("x - c"), "x", (-5, 5), env={"c": 1.25})
    assert len(zs) == 1 and zs[0] == pytest.approx(1.25, abs=1e-9)


# ---------------------------------------------------------------------
# the array pass against the per-point loop it replaced

def _find_zeros_loop(f, var, window, n=4001, refine_tol=1e-10, env=None):
    # reference: one scalar bisection per bracket, one grid walk for f
    # and one for f'
    env = dict(env or {})
    names = sorted(free_symbols(f) - {var})
    fn = compile_fn(f, [var] + names)
    extra = [float(env[nm]) for nm in names]

    def f_at(x):
        return float(fn(x, *extra))

    lo, hi = window
    xs = np.linspace(lo, hi, n)
    vals = np.broadcast_to(
        np.asarray(fn(xs, *extra), dtype=float), xs.shape).copy()
    finite = np.isfinite(vals)
    fscale = float(np.max(np.abs(vals[finite]))) if finite.any() else 1.0

    def bisect(func, a, b):
        fa = func(a)
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = func(m)
            if b - a < refine_tol or fm == 0.0:
                return m
            if (fa < 0) != (fm < 0):
                b = m
            else:
                a, fa = m, fm
        return 0.5 * (a + b)

    roots = []
    for i in range(n - 1):
        a, b = float(xs[i]), float(xs[i + 1])
        va, vb = vals[i], vals[i + 1]
        if not (np.isfinite(va) and np.isfinite(vb)):
            continue
        if va == 0.0:
            roots.append(a)
        elif (va < 0) != (vb < 0):
            roots.append(bisect(f_at, a, b))

    dfn = compile_fn(diff(f, var), [var] + names)
    dvals = np.broadcast_to(
        np.asarray(dfn(xs, *extra), dtype=float), xs.shape).copy()

    def df_at(x):
        return float(dfn(x, *extra))

    for i in range(n - 1):
        da, db = dvals[i], dvals[i + 1]
        if not (np.isfinite(da) and np.isfinite(db)):
            continue
        if da == 0.0 or (da < 0) != (db < 0):
            xc = float(xs[i]) if da == 0.0 else bisect(
                df_at, float(xs[i]), float(xs[i + 1]))
            vc = f_at(xc)
            if np.isfinite(vc) and abs(vc) <= 1e-8 * (1.0 + fscale):
                roots.append(xc)

    out = []
    for r in sorted(roots):
        if lo < r < hi and (not out or r - out[-1] > 1e-8):
            out.append(r)
    return out


def _oracle_cases():
    cases = []
    for fid in family_ids():
        for b in (0.5, 3.0):
            params = draw_params(fid, np.random.default_rng(11), b)
            env = _family_env(fid, b, params)
            for k, d in enumerate(family(fid).singular_denoms):
                cases.append(pytest.param(d, "xi", (-8.0, 8.0), env,
                                          id=f"{fid}-b{b}-d{k}"))
    for case, spec in AUDIT_SPECS.items():
        for k, d in enumerate(riccati_solution(spec).pole_denoms):
            cases.append(pytest.param(d, "xi", (-5.0, 5.0), {},
                                      id=f"riccati{case}-d{k}"))
    # a tangential zero; a double zero; and two zeros 1.6e-8 apart with
    # a grid node between them, where the dedupe keeps both ends
    for text, window in [("1 - cosh(x)", (-5, 5)), ("x^2", (-1, 1)),
                         ("x^2 - 6.4e-17", (-1, 1))]:
        cases.append(pytest.param(parse(text), "x", window, {}, id=text))
    return cases


@pytest.mark.parametrize("f,var,window,env", _oracle_cases())
def test_find_zeros_matches_the_loop(f, var, window, env):
    assert find_zeros(f, var, window, env=env) == \
        _find_zeros_loop(f, var, window, env=env)


@pytest.mark.parametrize("fid", family_ids())
def test_scan_maximum_is_the_compiled_residual_maximum(fid):
    # scan sums the term values; the compiled residual folds the same sum
    b, window, n = 3.0, (-8.0, 8.0), 257
    params = draw_params(fid, np.random.default_rng(5), b)
    inst = FamilyInstance(fid, b, params)
    R = ode_residual(inst.profile(), modified_eq(b), inst.speed())
    poles = singular_points(fid, b, params, window)
    rep = scan(R, {}, window=window, n=n, exclusions=poles)
    grid = np.linspace(*window, n)
    keep = np.ones(n, dtype=bool)
    for x0 in poles:
        keep &= np.abs(grid - x0) > 0.1
    vals = compile_fn(R, ["xi"])(grid[keep])
    assert rep.points_excluded == n - keep.sum()
    assert rep.max_abs_residual == float(np.max(np.abs(vals)))


def test_terms_compiled_together_equal_each_term_compiled_alone():
    rng = np.random.default_rng(5)
    terms = []
    for fid in family_ids():
        inst = FamilyInstance(fid, 3.0, draw_params(fid, rng, 3.0))
        R = ode_residual(inst.profile(), modified_eq(3.0), inst.speed())
        terms.extend(R.terms if isinstance(R, Add) else (R,))
    terms.append(Const(2))
    pts = np.linspace(-8.0, 8.0, 257)
    together = compile_fn(tuple(terms), ["xi"])(pts)
    assert isinstance(together, tuple) and len(together) == len(terms)
    for term, got in zip(terms, together):
        alone = compile_fn(term, ["xi"])(pts)
        assert got.shape == pts.shape
        assert np.array_equal(got, alone, equal_nan=True)
    assert np.array_equal(together[-1], np.full(pts.shape, 2.0))


def test_each_check_compiles_one_function():
    def misses_of(check) -> int:
        before = expr._compile.cache_info().misses
        check()
        return expr._compile.cache_info().misses - before

    expr._compile.cache_clear()
    U, lam = _sech2_profile(2.75)
    R = ode_residual(U, modified_eq(2.75), lam)
    spec = AUDIT_SPECS["5"]
    x = sym("x")
    assert misses_of(lambda: scan(R, {})) == 1
    assert misses_of(lambda: find_zeros(parse("sin(x)"), "x",
                                        (-7, 7))) == 1
    assert misses_of(lambda: riccati_measure(
        riccati_solution(spec).phi, spec, np.linspace(0.1, 1, 5),
        1e-9)) == 1
    assert misses_of(lambda: pointwise_equal(
        sin(2 * x), 2 * sin(x) * cos(x), {"x": (-3, 3)})) == 1
