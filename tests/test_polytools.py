"""Polynomial normal form: the canonicalization layer that lets two
independently derived coefficient systems be compared exactly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdpv.expr import evaluate_exact, parse, sym
from mdpv.polytools import (
    NotPolynomial, from_poly, graded_lex_terms, normalize_primitive,
    poly_add, poly_mul, proportional, strip_monomial_gcd, to_poly,
)

V = ("x", "y")


def test_to_poly_basics():
    p = to_poly(parse("(x + y)^2"), V)
    assert p == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert to_poly(parse("x - x"), V) == {}
    assert to_poly(parse("3/4"), V) == {(0, 0): Fraction(3, 4)}
    # rational constant denominators are fine, symbolic ones are not
    assert to_poly(parse("x/2"), V) == {(1, 0): Fraction(1, 2)}


def test_to_poly_rejections():
    with pytest.raises(NotPolynomial):
        to_poly(parse("1/x"), V)
    with pytest.raises(NotPolynomial):
        to_poly(parse("sin(x)"), V)
    with pytest.raises(NotPolynomial):
        to_poly(parse("x + z"), V)
    with pytest.raises(NotPolynomial):
        to_poly(parse("x^y"), V)
    with pytest.raises(NotPolynomial):
        to_poly(sym("x") * 0.5, V)  # float coefficient


def test_round_trip_through_expr():
    e = parse("2*x^3*y - 7/3*y^2 + x - 5")
    p = to_poly(e, V)
    back = from_poly(p, V)
    for px, py in [(2, 3), (-1, 5), (Fraction(1, 3), Fraction(-2, 7))]:
        env = {"x": Fraction(px), "y": Fraction(py)}
        assert evaluate_exact(e, env) == evaluate_exact(back, env)


def test_graded_lex_is_deterministic_and_graded():
    p = to_poly(parse("x + y^3 + x*y + 1"), V)
    ms = [m for m, _ in graded_lex_terms(p)]
    assert ms == [(0, 3), (1, 1), (1, 0), (0, 0)]


def test_normalize_primitive():
    p = to_poly(parse("4*x - 6*y"), V)
    assert normalize_primitive(p) == {(1, 0): 2, (0, 1): -3}
    # sign fixed by leading graded-lex coefficient
    q = to_poly(parse("6*y - 4*x"), V)
    assert normalize_primitive(q) == {(1, 0): 2, (0, 1): -3}
    assert normalize_primitive({}) == {}
    r = to_poly(parse("x/2 + y/3"), V)
    assert normalize_primitive(r) == {(1, 0): 3, (0, 1): 2}


def test_strip_monomial_gcd_respects_nonzero_set():
    p = to_poly(parse("x^2*y + x^3"), V)
    assert strip_monomial_gcd(p, V, {"x"}) == {(0, 1): 1, (1, 0): 1}
    # y is not declared nonzero, so its power stays put
    q = to_poly(parse("x*y^2 + y^3"), V)
    assert strip_monomial_gcd(q, V, {"x"}) == q
    assert strip_monomial_gcd(q, V, {"x", "y"}) == {(1, 0): 1, (0, 1): 1}
    assert strip_monomial_gcd({}, V, {"x"}) == {}


def test_proportional():
    p = to_poly(parse("2*x + 4*y"), V)
    q = to_poly(parse("-x - 2*y"), V)
    assert proportional(p, q) == -2
    assert proportional(p, to_poly(parse("x + y"), V)) is None
    assert proportional({}, {}) == 1
    assert proportional(p, {}) is None
    assert proportional({}, p) is None
    # support mismatch detected even when leading terms align
    r = to_poly(parse("2*x + 4*y + 1"), V)
    assert proportional(r, q) is None


coef = st.fractions(min_value=-5, max_value=5)
monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, coef, max_size=6).map(
    lambda d: {m: c for m, c in d.items() if c})


@given(polys, polys)
@settings(max_examples=200, deadline=None)
def test_poly_ring_axioms(p, q):
    assert poly_add(p, q) == poly_add(q, p)
    assert poly_mul(p, q) == poly_mul(q, p)
    assert poly_add(p, {}) == p
    if p and q:
        def degree(r):
            return max(sum(m) for m in r)
        assert degree(poly_mul(p, q)) == degree(p) + degree(q)


@given(polys, st.fractions(min_value=-4, max_value=4))
@settings(max_examples=200, deadline=None)
def test_proportional_recovers_scale(p, c):
    scaled = {m: v * c for m, v in p.items()} if c else {}
    got = proportional(scaled, p)
    if not p:
        assert got == 1 if not scaled else got is None
    elif c:
        assert got == c
    else:
        assert got is None


@given(polys)
@settings(max_examples=200, deadline=None)
def test_normalize_primitive_idempotent(p):
    n1 = normalize_primitive(p)
    assert normalize_primitive(n1) == n1
    if p:
        assert proportional(p, n1) is not None
