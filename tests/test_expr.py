"""Expression kernel tests.

The derivative oracle is central-difference numerics: for a large corpus
of random trees, the symbolic derivative must agree with a 5-point
finite-difference stencil wherever the stencil itself is trustworthy
(two step sizes agreeing).  Formatting is checked by the round-trip
property parse(format(e)) ~ e under evaluation, not by string golden
files.
"""

import gc
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdpv import expr as E
from mdpv.expr import (
    Add, Call, Const, EvalError, ExactnessError, Mul, ParseError, Pow, Sym,
    compile_fn, cos, cosh, diff, evaluate, evaluate_exact, exp, format_expr,
    free_symbols, log, parse, pointwise_equal, simplify, sin, sqrt,
    substitute_map, sym, tanh,
)
from mdpv.polytools import to_poly

X = sym("x")


# ---------------------------------------------------------------------
# random tree corpus for the derivative oracle

def _random_tree(rng: np.random.Generator, depth: int) -> E.Expr:
    if depth == 0:
        if rng.random() < 0.55:
            return X
        num = int(rng.integers(-4, 5))
        den = int(rng.integers(1, 4))
        return Const(Fraction(num, den))
    kind = rng.choice(["add", "mul", "pow", "call"])
    if kind == "add":
        k = int(rng.integers(2, 4))
        return E.add(*[_random_tree(rng, depth - 1) for _ in range(k)])
    if kind == "mul":
        k = int(rng.integers(2, 4))
        return E.mul(*[_random_tree(rng, depth - 1) for _ in range(k)])
    if kind == "pow":
        n = int(rng.integers(-3, 4))
        return E.pow_(_random_tree(rng, depth - 1), n)
    fn = rng.choice(E.FUNCTIONS)
    return E.call(str(fn), _random_tree(rng, depth - 1))


def _fd5(f, x0: float, h: float) -> float:
    # 5-point central stencil, O(h^4)
    return (f(x0 - 2 * h) - 8 * f(x0 - h) + 8 * f(x0 + h)
            - f(x0 + 2 * h)) / (12 * h)


def test_derivative_matches_finite_differences_on_corpus():
    rng = np.random.default_rng(20240811)
    trees = 0
    points_checked = 0
    while trees < 1000:
        t = _random_tree(rng, int(rng.integers(1, 5)))
        trees += 1
        d = diff(t, "x")

        def f(v, _t=t):
            return evaluate(_t, {"x": v})

        for _ in range(6):
            x0 = float(rng.uniform(-2.0, 2.0))
            try:
                fd_a = _fd5(f, x0, 1e-3)
                fd_b = _fd5(f, x0, 5e-4)
                sd = evaluate(d, {"x": x0})
            except EvalError:
                continue
            if not (math.isfinite(fd_a) and math.isfinite(fd_b)
                    and math.isfinite(sd)):
                continue
            scale = 1.0 + max(abs(fd_a), abs(fd_b))
            # keep only points where the stencil is self-consistent
            if abs(fd_a - fd_b) > 1e-7 * scale:
                continue
            assert abs(sd - fd_b) <= 1e-6 * (1.0 + abs(sd) + abs(fd_b)), (
                format_expr(t), x0, sd, fd_b)
            points_checked += 1
    # the filter must not have starved the oracle
    assert points_checked > 2000


def test_derivative_frozen_values():
    # logistic curvature: (log(1+e^x))'' at 0 is exactly 1/4
    f = log(1 + exp(X))
    d2 = diff(diff(f, "x"), "x")
    assert evaluate(d2, {"x": 0.0}) == pytest.approx(0.25, abs=1e-15)
    # (tanh x)' = 1 - tanh^2 x, checked at 0.5 against math
    d1 = diff(tanh(X), "x")
    assert evaluate(d1, {"x": 0.5}) == pytest.approx(
        1.0 - math.tanh(0.5) ** 2, abs=1e-15)


def test_derivative_chain_product_quotient():
    u = sin(X * X)
    assert pointwise_equal(diff(u, "x"), 2 * X * cos(X * X),
                           {"x": (-2, 2)})
    q = sin(X) / X
    dq = (X * cos(X) - sin(X)) / (X * X)
    assert pointwise_equal(diff(q, "x"), dq, {"x": (0.1, 3)})
    # general power rule with symbolic exponent
    g = E.pow_(X, X)
    dg = g * (log(X) + 1)
    assert pointwise_equal(diff(g, "x"), dg, {"x": (0.1, 3)})


# ---------------------------------------------------------------------
# parsing and formatting

@pytest.mark.parametrize("text,x0,value", [
    ("2+3*4", 0.0, 14.0),
    ("(2+3)*4", 0.0, 20.0),
    ("2^3^2", 0.0, 512.0),           # right-associative
    ("-x^2", 3.0, -9.0),             # unary minus binds looser than ^
    ("2^-2", 0.0, 0.25),
    ("1/2/2", 0.0, 0.25),
    ("6/2*3", 0.0, 9.0),             # left-to-right
    ("x - -x", 1.5, 3.0),
    ("1e-2 + 1.5e1", 0.0, 15.01),
    ("0.125", 0.0, 0.125),
    ("sqrt(x^2)", 2.0, 2.0),
    ("cot(1)", 0.0, math.cos(1) / math.sin(1)),
    ("csc(1)", 0.0, 1 / math.sin(1)),
])
def test_parse_evaluates(text, x0, value):
    assert evaluate(parse(text), {"x": x0}) == pytest.approx(value,
                                                             rel=1e-14)


def test_parse_numbers_are_exact_rationals():
    e = parse("0.1")
    assert isinstance(e, Const) and e.value == Fraction(1, 10)
    e = parse("2.5e-1")
    assert isinstance(e, Const) and e.value == Fraction(1, 4)


@pytest.mark.parametrize("text,offset", [
    ("2*(x+", 5),
    ("foo(3)", 0),
    ("x + * 2", 4),
    ("3 @ 4", 2),
    ("", 0),
    ("x y", 2),
])
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert ei.value.offset == offset


def test_format_examples():
    assert format_expr(simplify(parse("x + 2*x"))) == "3*x"
    # unevaluated call survives construction and formatting
    assert format_expr(parse("cosh(0)")) == "cosh(0)"
    assert format_expr(Const(Fraction(-3, 4))) == "-3/4"
    e = parse("x^-2")
    assert "/" in format_expr(e)  # negative powers print as denominators


@pytest.mark.parametrize("e,text", [
    # a denominator is printed as pow_ builds it, so its folds show
    (Pow(Const(0), Const(-3)), "1/0"),
    (Pow(Const(2), Const(-3)), "1/8"),
    (Mul((Const(2), Pow(Const(3), Const(-2)), X)), "2*x/9"),
    (Pow(Const(2), Const(-20)), "1/2^20"),
    (parse("1/x^(3/2)"), "1/x^(3/2)"),
    (parse("1/x^(y)"), "1/x^(y)"),
])
def test_format_negative_powers(e, text):
    assert format_expr(e) == text


def _round_trip_ok(e, lo=-2.3, hi=2.7, n=25, seed=7):
    text = format_expr(e)
    back = parse(text)
    rng = np.random.default_rng(seed)
    names = sorted(free_symbols(e) | free_symbols(back))
    agreed = 0
    for _ in range(20 * n):
        env = {nm: float(rng.uniform(lo, hi)) for nm in names}
        try:
            v1 = evaluate(e, env)
            v2 = evaluate(back, env)
            # conditioning probe: reformatting perturbs arithmetic at the
            # ulp level, so points where an ulp-scale input perturbation
            # blows up (cos of a huge cosh, ...) prove nothing either way
            probe = {k: v * (1 + 1e-12) + 1e-12 for k, v in env.items()}
            v1p = evaluate(e, probe)
        except EvalError:
            continue
        if not (math.isfinite(v1) and math.isfinite(v2)
                and math.isfinite(v1p)):
            continue
        if abs(v1p - v1) > 1e-9 * (1.0 + abs(v1)):
            continue
        assert abs(v1 - v2) <= 1e-12 * (1.0 + max(abs(v1), abs(v2))), (
            text, env, v1, v2)
        agreed += 1
        if agreed >= n:
            return True
    return agreed > 0


def test_format_parse_round_trip_on_corpus():
    rng = np.random.default_rng(99)
    done = 0
    for _ in range(400):
        t = _random_tree(rng, int(rng.integers(1, 5)))
        if _round_trip_ok(t):
            done += 1
    assert done >= 350  # a few trees are everywhere-singular; that's fine


def test_round_trip_float_constants():
    e = E.mul(Const(0.1), X)  # float, not Fraction
    assert evaluate(parse(format_expr(e)), {"x": 1.0}) == pytest.approx(
        0.1, abs=0)


# ---------------------------------------------------------------------
# evaluation errors and special values

def test_unbound_symbol_reports_name():
    with pytest.raises(EvalError, match="unbound symbol 'q'"):
        evaluate(parse("x + q"), {"x": 1.0})


@pytest.mark.parametrize("text,env", [
    ("log(x)", {"x": 0.0}),
    ("log(x)", {"x": -2.0}),
    ("sqrt(x)", {"x": -1.0}),
    ("1/x", {"x": 0.0}),
    ("x^-3", {"x": 0.0}),
    ("cot(x)", {"x": 0.0}),
    ("csc(x)", {"x": 0.0}),
])
def test_domain_violations_raise(text, env):
    with pytest.raises(EvalError):
        evaluate(parse(text), env)


def test_error_message_names_subexpression():
    with pytest.raises(EvalError, match=r"log"):
        evaluate(parse("1 + log(0 - x)"), {"x": 3.0})


def test_overflow_saturates():
    assert evaluate(parse("exp(x)"), {"x": 1e4}) == math.inf


@pytest.mark.parametrize("text,env", [
    ("sinh(x)", {"x": 1000.0}), ("sinh(x)", {"x": -1000.0}),
    ("cosh(x)", {"x": 1000.0}), ("cosh(x)", {"x": -1000.0}),
    ("exp(x)", {"x": 1000.0}), ("exp(x)", {"x": -1000.0}),
    ("x^(3*y)", {"x": -1e200, "y": 1.0}),
    ("x^(2*y)", {"x": -1e200, "y": 1.0}),
    # a negative base to a non-finite power propagates, as numpy's does
    ("x^y", {"x": -2.0, "y": math.inf}), ("x^y", {"x": -0.5, "y": math.inf}),
    ("x^y", {"x": -2.0, "y": -math.inf}), ("x^y", {"x": -2.0, "y": math.nan}),
])
def test_past_float_range_evaluate_agrees_with_compile_fn(text, env):
    e = parse(text)
    names = sorted(env)
    want = float(compile_fn(e, names)(*[env[n] for n in names]))
    assert repr(evaluate(e, env)) == repr(want)


def test_evaluate_exact():
    assert evaluate_exact(parse("(3/4)^2 + 1/16"), {}) == Fraction(5, 8)
    assert evaluate_exact(parse("sqrt(9/16)"), {}) == Fraction(3, 4)
    assert evaluate_exact(parse("cosh(0) + exp(0)"), {}) == 2
    assert evaluate_exact(X + 1, {"x": Fraction(1, 3)}) == Fraction(4, 3)
    with pytest.raises(ExactnessError):
        evaluate_exact(parse("sqrt(2)"), {})
    with pytest.raises(ExactnessError):
        evaluate_exact(parse("sin(1)"), {})
    with pytest.raises(ExactnessError):
        evaluate_exact(Const(0.5), {})


@pytest.mark.parametrize("text", ["x^-3", "x^(-3/2)", "1/sqrt(x)"])
def test_evaluate_exact_zero_to_a_negative_power(text):
    with pytest.raises(EvalError, match="division by zero"):
        evaluate_exact(parse(text), {"x": 0})


# real points inside each function's domain, and its exact values as
# (rational argument, value) pairs; none has one at 2/3 or -1, and at 0
# only those listed
_REAL_POINTS = (-1.3, -0.4, 0.7, 1.9)
_POSITIVE_POINTS = (0.3, 0.7, 1.9, 4.0)
_FUNCTION_CASES = {
    "exp": (_REAL_POINTS, [(0, 1)]),
    "log": (_POSITIVE_POINTS, [(1, 0)]),
    "sqrt": (_POSITIVE_POINTS, [(0, 0), (Fraction(4, 9), Fraction(2, 3))]),
    "sin": (_REAL_POINTS, [(0, 0)]),
    "cos": (_REAL_POINTS, [(0, 1)]),
    "tan": (_REAL_POINTS, [(0, 0)]),
    "cot": (_REAL_POINTS, []),
    "csc": (_REAL_POINTS, []),
    "sinh": (_REAL_POINTS, [(0, 0)]),
    "cosh": (_REAL_POINTS, [(0, 1)]),
    "tanh": (_REAL_POINTS, [(0, 0)]),
}


@pytest.mark.parametrize("fn", E.FUNCTIONS)
def test_function_record_columns_agree(fn):
    # the float value, numpy source, derivative and exact value of one
    # function are four columns of one record; each is checked against
    # another, so a wrong entry in any column fails
    points, exact = _FUNCTION_CASES[fn]
    f = E.call(fn, X)
    compiled = compile_fn((f, diff(f, X)), ["x"])
    h = 1e-5
    for x in points:
        value = evaluate(f, {"x": x})
        got, slope = (float(v) for v in compiled(x))
        assert got == pytest.approx(value, rel=1e-13)
        central = (evaluate(f, {"x": x + h})
                   - evaluate(f, {"x": x - h})) / (2 * h)
        assert slope == pytest.approx(central, rel=1e-7)
    for arg, want in exact:
        assert evaluate_exact(E.call(fn, Const(arg)), {}) == want
    for arg in {Fraction(2, 3), -1, 0} - dict(exact).keys():
        with pytest.raises(ExactnessError):
            evaluate_exact(E.call(fn, Const(arg)), {})


# ---------------------------------------------------------------------
# structural identity and hashing

def test_hash_is_deterministic_across_processes():
    # frozen structural hashes: must never drift between runs/platforms
    import subprocess, sys
    code = ("from mdpv.expr import parse; "
            "print(parse('x^2 + sin(3*x) - 1/2').shash)")
    h_here = parse("x^2 + sin(3*x) - 1/2").shash
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    assert int(out.stdout.strip()) == h_here


def test_structural_equality():
    a = parse("x + y")
    b = parse("x + y")
    assert a == b and hash(a) == hash(b)
    assert parse("x + y") != parse("y + x")  # structural, not semantic
    assert Const(1) != Const(1.0)  # exact and float stay distinct
    assert Const(Fraction(1, 2)) == Const(Fraction(2, 4))


def test_constants_intern_by_type_and_value():
    assert Const(1) is not Const(1.0)
    assert Const(0.0) is Const(-0.0)
    assert Const(Fraction(2, 4)) is Const(Fraction(1, 2))


@pytest.mark.parametrize("v", [0.1, -2.5, 1e300, math.inf, math.nan])
def test_float_digest_hashes_the_ieee_bytes(v):
    # the digest numpy's bytes of the float gave on little-endian hosts,
    # now the digest on every host
    raw = np.array(v, dtype="<f8").tobytes()
    want = E._mix(2, int.from_bytes(raw, "little", signed=False))
    assert Const(v).shash == want


def test_numpy_floats_intern_as_plain_floats():
    # numpy.float64 subclasses float: a node built from one must be the
    # node of the equal plain float, or equality stops being identity
    assert Const(np.float64(0.5)) is Const(0.5)
    assert E.con(np.float64(-0.0)) is Const(0.0)
    assert type(Const(np.float64(0.5)).value) is float
    assert type(Const(np.float64(-0.0)).value) is float


def test_unreferenced_nodes_leave_the_table():
    gc.collect()
    before = len(E._NODES)
    e = sin(sym("fresh_q") * X + 3) ** 2
    assert (Sym, "fresh_q") in E._NODES and len(E._NODES) > before
    del e
    gc.collect()
    assert (Sym, "fresh_q") not in E._NODES
    assert len(E._NODES) == before


def test_nodes_are_immutable():
    with pytest.raises(AttributeError):
        X.name = "y"
    with pytest.raises(AttributeError):
        Const(1).value = 2


# ---------------------------------------------------------------------
# simplify

simple_exprs = st.deferred(lambda: st.one_of(
    st.integers(-6, 6).map(Const),
    st.fractions(min_value=-4, max_value=4).map(Const),
    st.sampled_from([X, sym("y")]),
    st.tuples(simple_exprs, simple_exprs).map(lambda p: E.add(*p)),
    st.tuples(simple_exprs, simple_exprs).map(lambda p: E.mul(*p)),
    st.tuples(simple_exprs, st.integers(-2, 3)).map(
        lambda p: E.pow_(p[0], p[1])),
    st.tuples(st.sampled_from(["sin", "cosh", "exp", "tanh"]),
              simple_exprs).map(lambda p: E.call(*p)),
))


_A = sym("_a")


def _call_conditioning(e, env) -> float:
    """Sum over the calls f(a) in `e` of |a*f'(a)| / (1 + |f(a)|): how
    much each call amplifies a relative rounding of its argument.  A
    constant argument has no free symbol, so the derivative misses it."""
    total = 0.0
    for node in E.postorder(e):
        if isinstance(node, Call):
            try:
                a = evaluate(node.arg, env)
                fa = evaluate(node, env)
                da = evaluate(diff(E.call(node.fn, _A), "_a"), {"_a": a})
            except EvalError:
                return math.inf
            total += abs(a * da) / (1.0 + abs(fa))
    return total if math.isfinite(total) else math.inf


@given(simple_exprs)
# a constant tree: sin of 4.85e8, where one rounding moves the value
@example(E.call("sin", E.pow_(E.pow_(exp(Const(-5)), -2), 2)))
@settings(max_examples=300, deadline=None)
def test_simplify_idempotent_and_value_preserving(e):
    s = simplify(e)
    assert simplify(s) == s
    rng = np.random.default_rng(abs(e.shash) % 2 ** 31)
    names = sorted(free_symbols(e))
    for _ in range(5):
        env = {nm: float(rng.uniform(-1.5, 1.5)) for nm in names}
        try:
            v1 = evaluate(e, env)
        except EvalError:
            continue
        if not math.isfinite(v1):
            continue
        v2 = evaluate(s, env)
        # conditioning guard: both forms round their intermediates, and
        # a steep derivative amplifies that beyond any fixed tolerance
        # (e.g. sin(cosh(1/x^2)) near small x), so such points cannot
        # decide value preservation
        sens = 0.0
        for nm in names:
            try:
                d = evaluate(diff(e, nm), env)
            except EvalError:
                d = math.inf
            if not math.isfinite(d):
                sens = math.inf
                break
            sens += abs(d) * abs(env[nm])
        kappa = sens / (1.0 + abs(v1)) + _call_conditioning(e, env)
        if kappa > 1e6:
            continue
        tol = 1e-9 * (1.0 + max(abs(v1), abs(v2))) * (1.0 + 1e-4 * kappa)
        assert abs(v1 - v2) <= tol


def test_simplify_collects_terms_and_factors():
    x = X
    assert simplify(x + x + x) == 3 * x
    assert simplify(x * x * x) == simplify(E.pow_(x, 3))
    assert simplify(2 * x - 2 * x) == Const(0)
    assert simplify(x ** 2 * x ** -2) == Const(1)
    e = simplify(sin(x) * 2 + 3 * sin(x))
    assert e == simplify(5 * sin(x))


def test_simplify_exact_constant_folding():
    assert simplify(parse("cosh(0)")) == Const(1)
    assert simplify(parse("sqrt(4)")) == Const(2)
    assert simplify(parse("sqrt(9/4)")) == Const(Fraction(3, 2))
    assert simplify(parse("log(1)")) == Const(0)
    # no exact->float demotion: sqrt(2) stays symbolic
    s = simplify(parse("sqrt(2)"))
    assert isinstance(s, Call) and s.fn == "sqrt"
    # but float constants do fold through
    f = simplify(E.call("sin", Const(0.5)))
    assert isinstance(f, Const) and f.value == pytest.approx(math.sin(0.5))


@pytest.mark.parametrize("e,want", [
    (parse("sqrt(4)"), Const(2)),
    (parse("sqrt(0.25)"), Const(Fraction(1, 2))),
    (parse("4^(1/2)"), Const(2)),
    (parse("0^(1/2)"), Const(0)),
    (parse("exp(0)"), Const(1)),
    (parse("log(1)"), Const(0)),
    (E.call("sin", Const(0.5)), Const(math.sin(0.5))),
])
def test_simplify_folds_these_constants(e, want):
    assert simplify(e) is want


@pytest.mark.parametrize("e", [
    parse("sqrt(2)"), parse("sqrt(-4)"), parse("(-4)^(1/2)"),
    parse("log(0)"), parse("cot(0)"), parse("exp(1)"),
    E.call("cot", Const(0.0)), E.call("log", Const(-1.0)),
    E.call("exp", Const(1000.0)),
], ids=str)
def test_simplify_leaves_these_unfolded(e):
    assert simplify(e) is e


def test_simplify_never_demotes_rational_zero():
    z = simplify(parse("x - x"))
    assert isinstance(z, Const) and z.is_rational and z.value == 0


def test_simplify_is_deterministic():
    e = parse("sin(x)*cos(x)*3*x^2*sin(x)")
    assert format_expr(simplify(e)) == format_expr(simplify(parse(
        "sin(x)*cos(x)*3*x^2*sin(x)")))


# ---------------------------------------------------------------------
# substitution

def test_substitute():
    e = parse("x^2 + y")
    assert evaluate(substitute_map(e, {"x": parse("z+1")}),
                    {"z": 1.0, "y": 2.0}) == 6.0
    m = substitute_map(e, {"x": 2, "y": Fraction(1, 2)})
    assert evaluate_exact(m, {}) == Fraction(9, 2)
    # substitution is simultaneous, not sequential
    s = substitute_map(parse("x + y"), {"x": sym("y"), "y": sym("x")})
    assert evaluate(s, {"x": 1.0, "y": 10.0}) == 11.0


def test_free_symbols():
    assert free_symbols(parse("x + sin(y*z) - 4")) == {"x", "y", "z"}
    assert free_symbols(Const(3)) == frozenset()


# ---------------------------------------------------------------------
# compiled evaluation

def test_compiled_matches_interpreter():
    rng = np.random.default_rng(4321)
    for _ in range(200):
        t = _random_tree(rng, int(rng.integers(1, 5)))
        f = compile_fn(t, ["x"])
        xs = rng.uniform(-2, 2, size=8)
        got = np.asarray(f(xs), dtype=float)
        for i, x0 in enumerate(xs):
            try:
                want = evaluate(t, {"x": float(x0)})
            except EvalError:
                continue  # compiled path yields nan/inf there instead
            if not math.isfinite(want):
                continue
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_compiled_handles_singularities_without_raising():
    f = compile_fn(parse("1/x"), ["x"])
    out = f(np.array([0.0, 1.0]))
    assert not np.isfinite(out[0]) and out[1] == 1.0


def test_compiled_multivariate_broadcast():
    f = compile_fn(parse("a*x^2 + b"), ["x", "a", "b"])
    xs = np.linspace(0, 1, 5)
    out = f(xs, 2.0, 1.0)
    assert np.allclose(out, 2 * xs ** 2 + 1)


def test_compiled_constant_expression_broadcasts():
    f = compile_fn(parse("3/4"), ["x"])
    out = np.broadcast_to(f(np.zeros(4)), (4,)) * np.ones(4)
    assert np.allclose(out, 0.75)


def test_pointwise_equal_oracle():
    x = X
    assert pointwise_equal(sin(2 * x), 2 * sin(x) * cos(x), {"x": (-3, 3)})
    assert not pointwise_equal(sin(2 * x), 2 * sin(x), {"x": (-3, 3)})
    assert pointwise_equal(cosh(x) ** 2 - E.sinh(x) ** 2, Const(1),
                           {"x": (-2, 2)})


# ---------------------------------------------------------------------
# traversal: trees deeper than the default recursion limit

def test_import_leaves_recursion_limit_alone():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys; before = sys.getrecursionlimit(); "
             "import mdpv.cli; print(before, sys.getrecursionlimit())")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    before, after = out.stdout.split()
    assert after == before


def test_postorder_yields_operands_first_and_each_node_once():
    y = sym("y")
    e = parse("sin(x) + x*sin(x) + y")
    assert E.children(e) == (sin(X), X * sin(X), y)
    assert E.children(X) == () and E.children(Const(2)) == ()
    assert list(E.postorder(e)) == [X, sin(X), X * sin(X), y, e]
    # a subtree whose root is in `done` is skipped, not its operands
    # where they also sit elsewhere
    assert list(E.postorder(e, {sin(X)})) == [X, X * sin(X), y, e]
    assert list(E.postorder(e, {e})) == []


def _chain(depth: int, leaf: E.Expr) -> E.Expr:
    e = leaf
    for i in range(depth):
        e = E.call("sin" if i % 2 else "exp", e)
    return e


def test_deep_chain_runs_every_walker():
    depth = 1100
    chain, copy = _chain(depth, X), _chain(depth, sym("x"))
    assert chain is copy  # interned: equal trees are one object
    assert depth > sys.getrecursionlimit()
    assert chain == copy
    assert chain != _chain(depth, sym("y"))
    assert free_symbols(chain) == {"x"}
    assert substitute_map(chain, {"x": sym("y")}) == _chain(depth, sym("y"))
    assert simplify(chain) == copy
    d, d_copy = diff(chain, "x"), diff(copy, "x")
    assert d == d_copy
    assert isinstance(d, Mul) and len(d.factors) == depth
    text = "x"
    for i in range(depth):
        text = f"{'sin' if i % 2 else 'exp'}({text})"
    assert format_expr(chain) == text
    assert repr(chain) == f"<Expr {text}>"
    with pytest.raises(EvalError) as ei:
        evaluate(log(-1 - chain ** 2), {"x": 0.1})
    assert str(ei.value) == f"log off its domain in `log(-1 - {text}^2)`"
    p = X
    for _ in range(depth):
        p = E.add(E.mul(2, p), 1)
    assert to_poly(p, ["x"]) == {(1,): Fraction(2 ** depth),
                                 (0,): Fraction(2 ** depth - 1)}
    s = simplify(d)
    assert simplify(s) is s
    want = 0.5
    for i in range(depth):
        want = (math.sin if i % 2 else math.exp)(want)
    assert evaluate(chain, {"x": 0.5}) == want
    sqrt_chain = X
    for _ in range(depth):
        sqrt_chain = sqrt(sqrt_chain)
    assert evaluate_exact(sqrt_chain, {"x": Fraction(1)}) == 1

    # the compiled chain and its derivative against the same numpy
    # operations applied in a loop, outermost factor first
    xs = np.linspace(-1.0, 1.0, 7)
    inner = [xs]
    for i in range(depth):
        inner.append((np.sin if i % 2 else np.exp)(inner[-1]))
    assert np.array_equal(compile_fn(chain, ["x"])(xs), inner[-1])
    prod = None
    for i in reversed(range(depth)):
        factor = np.cos(inner[i]) if i % 2 else inner[i + 1]
        prod = factor if prod is None else prod * factor
    assert np.array_equal(compile_fn(d, ["x"])(xs), prod)


def test_evaluators_walk_a_shared_subtree_once():
    # 81 distinct nodes, but 2**40 leaves as a tree
    d = X
    for _ in range(40):
        d = sin(E.add(d, d))
    assert len(list(E.postorder(d))) == 81
    t0 = time.perf_counter()
    v = evaluate(d, {"x": 0.25})
    assert evaluate_exact(d, {"x": 0}) == 0
    assert time.perf_counter() - t0 < 1.0
    want = 0.25
    for _ in range(40):
        want = math.sin(want + want)
    assert v == want


def test_tuple_roots_give_each_root_its_own_value():
    y = sym("y")
    shared = sin(X) * y
    roots = (shared + 1, shared, E.pow_(X + y, 3), Const(Fraction(1, 3)))
    env = {"x": 0.5, "y": -2.0}
    assert evaluate(roots, env) == tuple(evaluate(r, env) for r in roots)
    roots = (E.pow_(X + y, 3), (X + 1) * y, Const(Fraction(1, 3)), X + 1)
    env = {"x": Fraction(1, 2), "y": Fraction(-2)}
    assert evaluate_exact(roots, env) == tuple(
        evaluate_exact(r, env) for r in roots)
    assert evaluate((), env) == evaluate_exact((), env) == ()


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_compiled_non_finite_constants_match_evaluate(c):
    e = Const(c) * X + 1
    got = compile_fn(e, ["x"])(2.0)
    assert np.array_equal(got, evaluate(e, {"x": 2.0}), equal_nan=True)


def test_compiled_long_sum_is_a_left_to_right_accumulation():
    n = 3000
    coeffs = [1.0 / (k + 1) for k in range(n)]
    e = E.add(*[E.mul(Const(c), E.pow_(X, k + 1))
                for k, c in enumerate(coeffs)])
    assert isinstance(e, Add) and len(e.terms) == n
    xs = np.linspace(0.5, 1.0, 9)
    want = None
    for k, c in enumerate(coeffs):
        term = np.float64(c) * xs ** (k + 1)
        want = term if want is None else want + term
    assert np.array_equal(compile_fn(e, ["x"])(xs), want)


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_constants_past_float_range_saturate(sign):
    big = Const(sign * 10 ** 400)
    e = big * X + 1
    want = sign * math.inf
    assert evaluate(e, {"x": 2.0}) == want
    assert compile_fn(e, ["x"])(2.0) == want
    # folding with a float constant saturates the same way
    assert (big * Const(0.5)).value == want
    assert (big + Const(0.5)).value == want


def test_exact_roots_of_integers_past_float_range():
    assert simplify(sqrt(Const(10 ** 400))) is Const(10 ** 200)
    n = 10 ** 30 + 7
    assert evaluate_exact(sqrt(Const(n * n)), {}) == n
    cube_root = E.pow_(Const(3 ** 300), Const(Fraction(1, 3)))
    assert evaluate_exact(cube_root, {}) == 3 ** 100
    with pytest.raises(ExactnessError):
        evaluate_exact(E.pow_(Const(3 ** 300 + 1), Const(Fraction(1, 3))),
                       {})
