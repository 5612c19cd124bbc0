"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a dict mapping exponent tuples (one slot per declared
variable, nonnegative ints) to nonzero Fractions.  The empty dict is the
zero polynomial.  The point of this module is canonicalization: two
expressions that are the same polynomial map to the identical dict, so
coefficient systems extracted from independent routes can be compared
exactly -- no sampling, no tolerances.

`strip_monomial_gcd` removes factors that are powers of variables known
to be nonzero (an overall A*mu^2 in front of every equation, say);
`proportional` recovers the exact rational ratio between two
polynomials or reports that none exists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Iterable, Mapping, Sequence

from .expr import (
    Add, Call, Const, Expr, ExprError, Mul, Pow, Sym, add, con, fold, mul,
    pow_,
)

__all__ = [
    "NotPolynomial", "Poly",
    "to_poly", "from_poly", "poly_add", "poly_mul", "poly_pow",
    "graded_lex_terms",
    "normalize_primitive", "strip_monomial_gcd", "proportional",
]

Poly = dict  # dict[tuple[int, ...], Fraction]


class NotPolynomial(ExprError):
    """The expression is not a polynomial in the declared variables
    with exact rational coefficients."""


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def poly_pow(p: Poly, n: int, nvars: int) -> Poly:
    if n < 0:
        raise NotPolynomial("negative power of a non-constant")
    out: Poly = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def to_poly(e: Expr, variables: Sequence[str]) -> Poly:
    """Expand into polynomial normal form over `variables`.

    Raises NotPolynomial for any other symbol, float constants,
    function calls, or non-integer / negative powers of non-constants.
    """
    index = {name: i for i, name in enumerate(variables)}
    nv = len(variables)
    one_m = (0,) * nv

    def constant(t: Const, _) -> Poly:
        if not t.is_rational:
            raise NotPolynomial("float constant")
        return {one_m: t.value} if t.value else {}

    def symbol(t: Sym, _) -> Poly:
        if t.name not in index:
            raise NotPolynomial(f"symbol '{t.name}' is not a declared "
                                "variable")
        m = [0] * nv
        m[index[t.name]] = 1
        return {tuple(m): Fraction(1)}

    def power(t: Pow, p: Mapping) -> Poly:
        ex = t.exponent
        if not (isinstance(ex, Const) and ex.is_rational
                and ex.value.denominator == 1):
            raise NotPolynomial("non-integer exponent")
        n = int(ex.value)
        base = p[t.base]
        if n >= 0:
            return poly_pow(base, n, nv)
        # only a nonzero constant may sit in a denominator
        if len(base) == 1 and one_m in base:
            return {one_m: base[one_m] ** n}
        raise NotPolynomial("negative power of a non-constant")

    def fn_call(t: Call, _):
        raise NotPolynomial(f"function call {t.fn}")

    return fold(e, {
        Const: constant, Sym: symbol, Pow: power, Call: fn_call,
        Add: lambda t, p: reduce(poly_add, map(p.__getitem__, t.terms), {}),
        Mul: lambda t, p: reduce(poly_mul, map(p.__getitem__, t.factors),
                                 {one_m: Fraction(1)}),
    }, {})


def graded_lex_terms(p: Poly) -> list[tuple[tuple, Fraction]]:
    """Terms sorted by total degree descending, then lexicographically
    descending on the exponent tuple.  Deterministic normal order."""
    return sorted(p.items(), key=lambda kv: (-sum(kv[0]),
                                             tuple(-x for x in kv[0])))


def from_poly(p: Poly, variables: Sequence[str]) -> Expr:
    if not p:
        return con(0)
    terms = []
    for m, c in graded_lex_terms(p):
        factors: list = [con(c)]
        for name, e in zip(variables, m):
            if e:
                factors.append(pow_(Sym(name), e))
        terms.append(mul(*factors))
    return add(*terms)


def normalize_primitive(p: Poly) -> Poly:
    """Divide out the rational content and fix the sign so the leading
    graded-lex coefficient is positive.  {} stays {}."""
    if not p:
        return {}
    num_gcd = 0
    den_lcm = 1
    for c in p.values():
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    lead = graded_lex_terms(p)[0][1]
    if lead < 0:
        content = -content
    return {m: c / content for m, c in p.items()}


def strip_monomial_gcd(p: Poly, variables: Sequence[str],
                       nonzero: Iterable[str]) -> Poly:
    """Divide out the largest monomial in the `nonzero` variables that
    divides every term.  Variables not declared nonzero are never
    stripped (dividing by them would change the solution set)."""
    if not p:
        return {}
    nz = set(nonzero)
    shift = []
    for i, name in enumerate(variables):
        if name in nz:
            shift.append(min(m[i] for m in p))
        else:
            shift.append(0)
    if not any(shift):
        return dict(p)
    return {tuple(a - s for a, s in zip(m, shift)): c for m, c in p.items()}


def proportional(p: Poly, q: Poly) -> Fraction | None:
    """The exact nonzero rational c with p == c*q, or None.

    Two zero polynomials are proportional with c == 1; a zero and a
    nonzero polynomial are not.
    """
    if not p and not q:
        return Fraction(1)
    if not p or not q:
        return None
    if set(p.keys()) != set(q.keys()):
        return None
    lead_m = graded_lex_terms(q)[0][0]
    c = p[lead_m] / q[lead_m]
    for m, qc in q.items():
        if p[m] != c * qc:
            return None
    return c
