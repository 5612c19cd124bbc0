"""Small immutable symbolic expression kernel.

Nodes: exact rational / float constants, symbols, n-ary sums and products,
powers, and calls of the unary functions in `FUNCTIONS` (exp, log, sqrt,
sin, cos, tan, cot, csc, sinh, cosh, tanh), one table record each.
Supported operations: parsing, precedence-aware formatting, float
evaluation, exact rational evaluation (where possible), symbolic
differentiation, substitution, and local simplification (constant
folding, flattening, like-term/like-factor collection).

Simplification is deliberately local: it never applies trig identities or
expands products, and it never converts an exact rational constant into a
float.  Equality of expressions is structural; semantic equality is
decided by the pointwise sampling oracle `pointwise_equal`.

Trees are immutable and hash-consed: construction looks a node up in a
weak table keyed by its class and fields, so structurally equal trees
are one object and equality is identity (Filliatre & Conchon, "Type-Safe
Modular Hash-Consing", 2006).  Exact and float constants stay distinct.
A node leaves the table when its last reference goes.  As a dict key a
node hashes by identity, which hash-consing makes structural; its
`shash`, a deterministic structural hash independent of PYTHONHASHSEED,
orders factors in `simplify`.  `children` is the one description of the
node layout and `postorder` the one traversal.  Every walker is a table
of one rule per node class on one fold over it, `fold`, which fills a
dict keyed by node: `evaluate`, `evaluate_exact`, `diff`,
`substitute_map`, `simplify`, `format_expr`, the emitter of
`compile_fn`, and `polytools.to_poly`.  So a shared subtree is computed
once, and tree depth is not bounded by the interpreter's recursion
limit.  Only the parser recurses, and `parse` bounds the depth of trees
read from text.
Only `compile_fn` computes with arrays (`pointwise_equal` through it),
and it imports numpy when first called, so importing the kernel loads
none.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import weakref
from fractions import Fraction
from typing import (
    Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence,
    Union,
)

__all__ = [
    "Expr", "Const", "Sym", "Add", "Mul", "Pow", "Call",
    "ExprError", "ParseError", "EvalError", "ExactnessError",
    "con", "sym", "add", "mul", "pow_", "call",
    "exp", "log", "sqrt", "sin", "cos", "tan", "cot", "csc",
    "sinh", "cosh", "tanh",
    "parse", "format_expr", "evaluate", "evaluate_exact",
    "diff", "substitute_map", "simplify",
    "free_symbols", "compile_fn", "pointwise_equal",
    "children", "postorder", "fold", "FUNCTIONS",
]

Number = Union[int, float, Fraction]


class ExprError(Exception):
    """Base class for expression kernel errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Unbound symbol or domain violation, reported with the subexpression."""

    def __init__(self, message: str, node: "Expr | None" = None):
        if node is not None:
            message = f"{message} in `{format_expr(node)}`"
        super().__init__(message)
        self.node = node


class ExactnessError(ExprError):
    """Raised when exact rational evaluation is impossible."""


_MASK = (1 << 64) - 1


def _mix(*parts: int) -> int:
    # splitmix64-style deterministic combiner; independent of PYTHONHASHSEED
    h = 0x9E3779B97F4A7C15
    for p in parts:
        p &= _MASK
        p = (p ^ (p >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        p = (p ^ (p >> 27)) * 0x94D049BB133111EB & _MASK
        h = (h * 0x2545F4914F6CDD1D + (p ^ (p >> 31))) & _MASK
    return h


def _str_hash(s: str) -> int:
    h = 0xCBF29CE484222325
    for ch in s.encode():
        h = ((h ^ ch) * 0x100000001B3) & _MASK
    return h


class Expr:
    __slots__ = ("shash", "__weakref__")

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(-1, other))

    def __rsub__(self, other):
        return add(other, mul(-1, self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return mul(self, pow_(other, -1))

    def __rtruediv__(self, other):
        return mul(other, pow_(self, -1))

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return mul(-1, self)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"<Expr {format_expr(self)}>"


# every live node, keyed by its class and fields; a node leaves when its
# last reference goes, so structurally equal nodes are one object
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _interned(key: tuple, *fields):
    """The live node under `key`, whose first entry is its class, or a
    new node of that class holding `fields` in the order of its
    `__slots__`."""
    node = _NODES.get(key)
    if node is None:
        cls = key[0]
        node = object.__new__(cls)
        for slot, value in zip(cls.__slots__, fields):
            object.__setattr__(node, slot, value)
        object.__setattr__(node, "shash", node._digest())
        _NODES[key] = node
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: Number):
        if isinstance(value, bool):
            raise TypeError("bool is not a number")
        if isinstance(value, int):
            value = Fraction(value)
        elif isinstance(value, float):
            # a float subclass such as numpy.float64 is keyed, and so
            # interned, as the plain float it equals; -0.0 as 0.0
            value = float(value) if value != 0.0 else 0.0
        elif not isinstance(value, Fraction):
            raise TypeError(f"unsupported constant type {type(value)!r}")
        # 1 == 1.0 in Python; the type keeps exact and float apart
        return _interned((cls, type(value), value), value)

    def _digest(self) -> int:
        v = self.value
        if isinstance(v, Fraction):
            return _mix(1, hash(v.numerator), hash(v.denominator))
        # the IEEE-754 bytes, little-endian on every host
        return _mix(2, int.from_bytes(struct.pack("<d", v), "little",
                                      signed=False))

    @property
    def is_rational(self) -> bool:
        return isinstance(self.value, Fraction)


class Sym(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name or not (name[0].isalpha() or name[0] == "_"):
            raise ValueError(f"bad symbol name {name!r}")
        return _interned((cls, name), name)

    def _digest(self) -> int:
        return _mix(3, _str_hash(self.name))


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        return _interned((cls, terms), terms)

    def _digest(self) -> int:
        return _mix(4, *[t.shash for t in self.terms])


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        return _interned((cls, factors), factors)

    def _digest(self) -> int:
        return _mix(5, *[f.shash for f in self.factors])


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Expr):
        return _interned((cls, base, exponent), base, exponent)

    def _digest(self) -> int:
        return _mix(6, self.base.shash, self.exponent.shash)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        if fn not in _FUNCTION_TABLE:
            raise ValueError(f"unknown function {fn!r}")
        return _interned((cls, fn, arg), fn, arg)

    def _digest(self) -> int:
        return _mix(7, _str_hash(self.fn), self.arg.shash)


def children(e: Expr) -> tuple:
    """Operands of a node, left to right; () for constants and symbols."""
    return _OPERANDS[type(e)](e)


_OPERANDS = {
    Const: lambda e: (), Sym: lambda e: (),
    Add: operator.attrgetter("terms"), Mul: operator.attrgetter("factors"),
    Pow: operator.attrgetter("base", "exponent"), Call: lambda e: (e.arg,),
}


def postorder(e: Expr, done: Container = ()) -> Iterator[Expr]:
    """Every distinct node of `e` once, operands before their parent,
    left to right, skipping subtrees whose root is in `done` (a walker
    passes the memo it fills)."""
    # a node is marked when its operands are pushed: it cannot turn up
    # again before it is yielded, as no tree contains itself
    seen: set[Expr] = set()
    stack: list = [e]
    while stack:
        node = stack.pop()
        if node is _READY:
            yield stack.pop()
        elif node not in done and node not in seen:
            seen.add(node)
            kids = _OPERANDS[type(node)](node)
            if kids:
                stack += (node, _READY)
                stack.extend(reversed(kids))
            else:
                yield node


# stack marker: the entry below it is a node whose operands are done
_READY = object()


def fold(e: Expr | tuple[Expr, ...], rules: Mapping[type, Callable],
         memo: dict):
    """The value of e, or the tuple of values of a tuple of expressions:
    memo[node] = rules[type(node)](node, memo) for each node that `memo`
    lacks, in `postorder`, each rule reading its operands' values from
    `memo`.  The first node whose rule raises is the one a left-to-right
    recursion would reach first, and a shared node is computed once."""
    roots = e if isinstance(e, tuple) else (e,)
    for root in roots:
        for node in postorder(root, memo):
            memo[node] = rules[type(node)](node, memo)
    return tuple(memo[r] for r in roots) if isinstance(e, tuple) else memo[e]


# ---------------------------------------------------------------------
# smart constructors: light normalization only (flattening, identity and
# exact-constant folding); full rules live in simplify()

ZERO = Const(0)
ONE = Const(1)
HALF = Const(Fraction(1, 2))


def con(v: Number | Expr) -> Expr:
    return v if isinstance(v, Expr) else Const(v)


def sym(name: str) -> Sym:
    return Sym(name)


def _float(v: Number) -> float:
    """float(v), saturating an exact value beyond float range to +-inf."""
    try:
        return float(v)
    except OverflowError:
        # math.copysign would convert v, and overflow, too
        return math.inf if v > 0 else -math.inf


def _const_add(a: Number, b: Number) -> Number:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return _float(a) + _float(b)


def _const_mul(a: Number, b: Number) -> Number:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return _float(a) * _float(b)


def add(*parts) -> Expr:
    terms: list[Expr] = []
    const: Number = Fraction(0)
    for p in parts:
        e = con(p)
        stack = [e]
        while stack:
            t = stack.pop()
            if isinstance(t, Add):
                stack.extend(reversed(t.terms))
            elif isinstance(t, Const):
                const = _const_add(const, t.value)
            else:
                terms.append(t)
    if const != 0 or not terms:
        # keep the folded constant in front: reads naturally and is stable
        terms.insert(0, Const(const))
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def mul(*parts) -> Expr:
    factors: list[Expr] = []
    const: Number = Fraction(1)
    for p in parts:
        e = con(p)
        stack = [e]
        while stack:
            f = stack.pop()
            if isinstance(f, Mul):
                stack.extend(reversed(f.factors))
            elif isinstance(f, Const):
                const = _const_mul(const, f.value)
            else:
                factors.append(f)
    if const == 0 and isinstance(const, Fraction):
        return ZERO
    if const != 1 or not factors:
        factors.insert(0, Const(const))
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


_FOLD_POW_LIMIT = 16


def pow_(base, exponent) -> Expr:
    b = con(base)
    e = con(exponent)
    if isinstance(e, Const) and e.is_rational:
        ev = e.value
        if ev == 0:
            return ONE
        if ev == 1:
            return b
        if isinstance(b, Const) and b.is_rational:
            bv = b.value
            if bv == 1:
                return ONE
            if bv == 0 and ev > 0:
                return ZERO
            if ev.denominator == 1 and abs(ev) <= _FOLD_POW_LIMIT and bv != 0:
                return Const(bv ** int(ev))
    return Pow(b, e)


def call(fn: str, arg) -> Expr:
    return Call(fn, con(arg))


def exp(a):
    return call("exp", a)


def log(a):
    return call("log", a)


def sqrt(a):
    return call("sqrt", a)


def sin(a):
    return call("sin", a)


def cos(a):
    return call("cos", a)


def tan(a):
    return call("tan", a)


def cot(a):
    return call("cot", a)


def csc(a):
    return call("csc", a)


def sinh(a):
    return call("sinh", a)


def cosh(a):
    return call("cosh", a)


def tanh(a):
    return call("tanh", a)


# ---------------------------------------------------------------------
# the function table: one record per unary function, which every
# reader of a Call looks up by name

class _Function(NamedTuple):
    value: Callable[[float], float]        # ValueError off the domain
    numpy: str                             # applied to the operand {0}
    deriv: Callable[[Expr, Expr], Expr]    # df/da, given t = f(a) and a
    exact: Callable[[Fraction], Fraction]  # ExactnessError if irrational


def _sin_off_pole(x: float) -> float:
    # sin(x) as the denominator of cot and csc: ValueError at their poles
    s = math.sin(x)
    if s == 0.0:
        raise ValueError("pole")
    return s


def _rational_at(points: dict[int, int]) -> Callable[[Fraction], Fraction]:
    # a transcendental function is irrational at every rational argument
    # but the keys of `points`, which maps each to its value (Lindemann)
    def exact(a: Fraction) -> Fraction:
        if a not in points:
            raise ExactnessError(f"no rational value at {a}")
        return Fraction(points[a])

    return exact


_FUNCTION_TABLE: dict[str, _Function] = {
    "exp": _Function(math.exp, "np.exp({0})", lambda t, a: t,
                     _rational_at({0: 1})),
    "log": _Function(math.log, "np.log({0})", lambda t, a: pow_(a, -1),
                     _rational_at({1: 0})),
    "sqrt": _Function(math.sqrt, "np.sqrt({0})",
                      lambda t, a: mul(HALF, pow_(t, -1)),
                      lambda a: _exact_root(a, 2)),
    "sin": _Function(math.sin, "np.sin({0})", lambda t, a: cos(a),
                     _rational_at({0: 0})),
    "cos": _Function(math.cos, "np.cos({0})", lambda t, a: mul(-1, sin(a)),
                     _rational_at({0: 1})),
    "tan": _Function(math.tan, "np.tan({0})",
                     lambda t, a: add(1, pow_(t, 2)), _rational_at({0: 0})),
    "cot": _Function(lambda x: math.cos(x) / _sin_off_pole(x),
                     "np.cos({0}) / np.sin({0})",
                     lambda t, a: mul(-1, add(1, pow_(t, 2))),
                     _rational_at({})),
    "csc": _Function(lambda x: 1.0 / _sin_off_pole(x), "1.0 / np.sin({0})",
                     lambda t, a: mul(-1, t, cot(a)), _rational_at({})),
    "sinh": _Function(math.sinh, "np.sinh({0})", lambda t, a: cosh(a),
                      _rational_at({0: 0})),
    "cosh": _Function(math.cosh, "np.cosh({0})", lambda t, a: sinh(a),
                      _rational_at({0: 1})),
    "tanh": _Function(math.tanh, "np.tanh({0})",
                      lambda t, a: add(1, mul(-1, pow_(t, 2))),
                      _rational_at({0: 0})),
}

FUNCTIONS = tuple(_FUNCTION_TABLE)


# ---------------------------------------------------------------------
# parsing

_WS = " \t\r\n"
_DIGITS = "0123456789"


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tok: tuple[str, str, int] | None = None  # (kind, value, offset)
        self._advance()

    def _advance(self):
        t, n = self.text, len(self.text)
        i = self.pos
        while i < n and t[i] in _WS:
            i += 1
        if i >= n:
            self.tok = ("end", "", i)
            self.pos = i
            return
        c = t[i]
        start = i
        if c in _DIGITS or (c == "." and i + 1 < n and t[i + 1] in _DIGITS):
            j = i
            while j < n and t[j] in _DIGITS:
                j += 1
            if j < n and t[j] == ".":
                j += 1
                while j < n and t[j] in _DIGITS:
                    j += 1
            if j < n and t[j] in "eE":
                k = j + 1
                if k < n and t[k] in "+-":
                    k += 1
                if k < n and t[k] in _DIGITS:
                    j = k
                    while j < n and t[j] in _DIGITS:
                        j += 1
            self.tok = ("num", t[start:j], start)
            self.pos = j
            return
        if c.isalpha() or c == "_":
            j = i
            while j < n and (t[j].isalnum() or t[j] == "_"):
                j += 1
            self.tok = ("ident", t[start:j], start)
            self.pos = j
            return
        if c in "+-*/^()":
            self.tok = (c, c, start)
            self.pos = i + 1
            return
        raise ParseError(f"unexpected character {c!r}", start)


class _Parser:
    def __init__(self, text: str):
        self.lex = _Lexer(text)

    def peek(self):
        return self.lex.tok

    def next(self):
        tok = self.lex.tok
        self.lex._advance()
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.sum_()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def sum_(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else add(e, mul(-1, rhs))
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.unary()
            e = mul(e, rhs) if op == "*" else mul(e, pow_(rhs, -1))
        return e

    def unary(self) -> Expr:
        # '-' binds looser than '^': -x^2 parses as -(x^2)
        if self.peek()[0] == "-":
            self.next()
            return mul(-1, self.unary())
        if self.peek()[0] == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            return pow_(base, self.unary())  # right-assoc, unary minus ok
        return base

    def atom(self) -> Expr:
        tok = self.next()
        kind, value, offset = tok
        if kind == "num":
            return Const(Fraction(value))
        if kind == "ident":
            if self.peek()[0] == "(":
                if value not in _FUNCTION_TABLE:
                    raise ParseError(f"unknown function {value!r}", offset)
                self.next()
                arg = self.sum_()
                self.expect(")")
                return Call(value, arg)
            return Sym(value)
        if kind == "(":
            e = self.sum_()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {value!r}" if value else
                         "unexpected end of input", offset)


def parse(text: str) -> Expr:
    """Parse infix text into an expression tree.

    Numbers become exact rationals (`3`, `0.25`, `1e-3` are all exact);
    `/` builds a reciprocal power, `^` is right-associative and binds
    tighter than unary minus.  Raises ParseError with a byte offset,
    also for input nested deeper than the recursive descent can follow:
    each nesting level costs five interpreter frames, so at the default
    recursion limit of 1000 the ceiling is just under 200 levels of
    parentheses or function calls ("expression nested too deeply").
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.peek()[2]) from None


# ---------------------------------------------------------------------
# formatting

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 15
_PREC_POW = 30
_PREC_ATOM = 40


def _fmt_const(v: Number) -> tuple[str, int]:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            s = str(v.numerator)
            return s, (_PREC_ATOM if v >= 0 else _PREC_NEG)
        s = f"{v.numerator}/{v.denominator}"
        return s, _PREC_MUL if v >= 0 else _PREC_NEG
    s = repr(float(v))
    return s, (_PREC_ATOM if v >= 0 else _PREC_NEG)


def _paren(s: str, prec: int, want: int) -> str:
    return f"({s})" if prec < want else s


def _raised(base: tuple[str, int], ex: Expr,
            ex_text: str) -> tuple[str, int]:
    # base^ex, from the base's (text, precedence) and the exponent's text
    bs = _paren(*base, _PREC_ATOM)
    if isinstance(ex, Const) and ex.is_rational and \
            ex.value.denominator == 1 and ex.value >= 0:
        return f"{bs}^{ex.value.numerator}", _PREC_POW
    return f"{bs}^({ex_text})", _PREC_POW


def _denominator(t: Expr, m: Mapping) -> str | None:
    # a power with a negative rational exponent prints as 1/d: the text
    # d of pow_(base, -exponent), read from the memo or built from the
    # base's text; None for any other node
    if not (isinstance(t, Pow) and isinstance(t.exponent, Const)
            and t.exponent.is_rational and t.exponent.value < 0):
        return None
    inv = pow_(t.base, Const(-t.exponent.value))
    text = m.get(inv)
    if text is None and isinstance(inv, Const):
        text = _fmt_const(inv.value)
    elif text is None:
        # pow_ kept it a power of t.base
        ex = inv.exponent
        text = _raised(m[t.base], ex, _fmt_const(ex.value)[0])
    return _paren(*text, _PREC_POW)


def _fmt_power(t: Pow, m: Mapping) -> tuple[str, int]:
    den = _denominator(t, m)
    if den is not None:
        return f"1/{den}", _PREC_MUL
    return _raised(m[t.base], t.exponent, m[t.exponent][0])


def _fmt_product(t: Mul, m: Mapping) -> tuple[str, int]:
    num_parts: list[str] = []
    den_parts: list[str] = []
    negative = False
    coeff: Number | None = None
    for f in t.factors:
        if isinstance(f, Const):
            v = f.value
            if v < 0:
                negative = not negative
                v = -v
            coeff = v if coeff is None else _const_mul(coeff, v)
            continue
        den = _denominator(f, m)
        if den is None:
            num_parts.append(_paren(*m[f], _PREC_POW))
        else:
            den_parts.append(den)
    if coeff is not None:
        if isinstance(coeff, Fraction) and coeff.denominator != 1:
            num_parts.insert(0, str(coeff.numerator))
            den_parts.insert(0, str(coeff.denominator))
        elif coeff != 1 or not (num_parts or den_parts):
            num_parts.insert(0, _fmt_const(coeff)[0])
    out = "*".join(num_parts) if num_parts else "1"
    if den_parts:
        if len(den_parts) == 1 and "*" not in den_parts[0]:
            out += f"/{den_parts[0]}"
        else:
            out += "/(" + "*".join(den_parts) + ")"
    if negative:
        return "-" + out, _PREC_NEG
    return out, _PREC_MUL


def _fmt_sum(t: Add, m: Mapping) -> tuple[str, int]:
    parts = [_paren(*m[t.terms[0]], _PREC_ADD)]
    for term in t.terms[1:]:
        s = m[term][0]
        parts.append(" - " + s[1:] if s.startswith("-") else " + " + s)
    return "".join(parts), _PREC_ADD


# each node's (text, precedence)
_FORMAT_RULES = {
    Const: lambda t, _: _fmt_const(t.value),
    Sym: lambda t, _: (t.name, _PREC_ATOM),
    Add: _fmt_sum, Mul: _fmt_product, Pow: _fmt_power,
    Call: lambda t, m: (f"{t.fn}({m[t.arg][0]})", _PREC_ATOM),
}


def format_expr(e: Expr) -> str:
    """Render with minimal parentheses; parse(format_expr(e)) is
    evaluation-equivalent to e."""
    return fold(e, _FORMAT_RULES, {})[0]


# ---------------------------------------------------------------------
# evaluation, differentiation and substitution: each is a table of rules
# on `fold`, completed per call by a rule for symbols

def _float_sum(t: Add, v: Mapping) -> float:
    try:
        return math.fsum(map(v.__getitem__, t.terms))
    except ValueError:   # -inf + inf
        return math.nan
    except OverflowError:
        return math.inf


def _float_power(t: Pow, v: Mapping) -> float:
    b = v[t.base]
    ex = t.exponent
    if isinstance(ex, Const) and ex.is_rational and ex.value.denominator == 1:
        x = int(ex.value)
    else:
        x = v[ex]
        if b < 0.0 and math.isfinite(x) and x != int(x):
            raise EvalError("negative base with fractional exponent", t)
    if b == 0.0 and x < 0:
        raise EvalError("division by zero", t)
    try:
        return b ** x
    except OverflowError:
        # a negative base has a whole exponent here
        return math.inf if b > 0 or x % 2 == 0 else -math.inf


def _float_call(t: Call, v: Mapping) -> float:
    a = v[t.arg]
    fn = _FUNCTION_TABLE[t.fn].value
    try:
        return fn(a)
    except OverflowError:
        # exp, sinh and cosh, the functions that overflow, keep one
        # sign on each side of 0
        return math.copysign(math.inf, fn(math.copysign(1.0, a)))
    except ValueError:
        # off the domain: an error at a real point, while a
        # non-finite argument propagates as nan
        if math.isfinite(a):
            raise EvalError(f"{t.fn} off its domain", t) from None
        return math.nan


_FLOAT_RULES = {
    Const: lambda t, _: _float(t.value), Add: _float_sum,
    Mul: lambda t, v: math.prod(map(v.__getitem__, t.factors), start=1.0),
    Pow: _float_power, Call: _float_call,
}


def _bound(env: Mapping, t: Sym):
    # the value env binds to symbol t
    try:
        return env[t.name]
    except KeyError:
        raise EvalError(f"unbound symbol '{t.name}'", t) from None


def evaluate(e: Expr | tuple[Expr, ...], env: Mapping[str, float]):
    """Evaluate to a float, or a tuple of expressions to a tuple of
    floats, each shared subtree once.  Unbound symbols and domain
    violations (a function off its domain at a real point, division by
    zero) raise EvalError naming the offending subexpression; overflow
    saturates to inf and non-finite values propagate."""
    return fold(e, {**_FLOAT_RULES,
                     Sym: lambda t, _: float(_bound(env, t))}, {})


def _iroot(n: int, q: int) -> int:
    # floor of the q-th root of an integer n >= 0, in integers only
    if q == 2:
        return math.isqrt(n)
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // q)   # 2**ceil(bits/q) > the root
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def _exact_root(v: Fraction, q: int) -> Fraction:
    # q-th root of a nonnegative rational, exact or ExactnessError
    if v < 0:
        raise ExactnessError("negative radicand")
    root = Fraction(_iroot(v.numerator, q), _iroot(v.denominator, q))
    if root ** q != v:
        raise ExactnessError("not a perfect power")
    return root


def _exact_const(t: Const, _) -> Fraction:
    if not t.is_rational:
        raise ExactnessError("float constant")
    return t.value


def _exact_bound(env: Mapping, t: Sym) -> Fraction:
    v = _bound(env, t)
    if isinstance(v, float):
        raise ExactnessError("float binding")
    return Fraction(v)


def _exact_power(t: Pow, v: Mapping) -> Fraction:
    b, x = v[t.base], v[t.exponent]
    if b == 0 and x < 0:
        raise EvalError("division by zero", t)
    if x.denominator == 1:
        return b ** int(x)
    return _exact_root(b, x.denominator) ** x.numerator


_EXACT_RULES = {
    Const: _exact_const,
    Add: lambda t, v: sum(map(v.__getitem__, t.terms), Fraction(0)),
    Mul: lambda t, v: math.prod(map(v.__getitem__, t.factors),
                                start=Fraction(1)),
    Pow: _exact_power,
    Call: lambda t, v: _FUNCTION_TABLE[t.fn].exact(v[t.arg]),
}


def evaluate_exact(e: Expr | tuple[Expr, ...],
                   env: Mapping[str, Fraction]):
    """Evaluate over the rationals, or a tuple of expressions to a tuple
    of values.  Raises ExactnessError whenever the value is not provably
    rational (a float constant, or a function at an argument where its
    table record has no exact value)."""
    return fold(e, {**_EXACT_RULES,
                     Sym: lambda t, _: _exact_bound(env, t)}, {})


def _diff_product(t: Mul, d: Mapping) -> Expr:
    fs = t.factors
    parts = [mul(*fs[:i], d[f], *fs[i + 1:])
             for i, f in enumerate(fs) if d[f] is not ZERO]
    return add(*parts) if parts else ZERO


def _diff_power(t: Pow, d: Mapping) -> Expr:
    b, x = t.base, t.exponent
    db, dx = d[b], d[x]
    if dx is ZERO:
        # d(b^c) = c*b^(c-1)*db
        return mul(x, pow_(b, add(x, -1)), db) if db is not ZERO else ZERO
    # general: b^x * (dx*log(b) + x*db/b)
    return mul(t, add(mul(dx, log(b)), mul(x, db, pow_(b, -1))))


def _diff_call(t: Call, d: Mapping) -> Expr:
    da = d[t.arg]
    if da is ZERO:
        return ZERO
    return mul(_FUNCTION_TABLE[t.fn].deriv(t, t.arg), da)


_DIFF_RULES = {
    Const: lambda t, _: ZERO,
    Add: lambda t, d: add(*map(d.__getitem__, t.terms)),
    Mul: _diff_product, Pow: _diff_power, Call: _diff_call,
}


def diff(e: Expr, s: Union[str, Sym]) -> Expr:
    """Exact symbolic derivative with respect to one symbol."""
    name = s.name if isinstance(s, Sym) else s
    return fold(e, {**_DIFF_RULES, Sym: lambda t, _: (
        ONE if t.name == name else ZERO)}, {})


# each node rebuilt from its rebuilt operands
_REBUILD_RULES = {
    Const: lambda t, _: t,
    Add: lambda t, r: add(*map(r.__getitem__, t.terms)),
    Mul: lambda t, r: mul(*map(r.__getitem__, t.factors)),
    Pow: lambda t, r: pow_(r[t.base], r[t.exponent]),
    Call: lambda t, r: call(t.fn, r[t.arg]),
}


def substitute_map(e: Expr, mapping: Mapping[str, object]) -> Expr:
    """Replace every occurrence of each mapped symbol, all at once (no
    binders, so replacement is capture-free by construction)."""
    repl = {k: con(v) for k, v in mapping.items()}
    return fold(e, {**_REBUILD_RULES,
                     Sym: lambda t, _: repl.get(t.name, t)}, {})


def free_symbols(e: Expr) -> frozenset[str]:
    return frozenset(t.name for t in postorder(e) if isinstance(t, Sym))


# ---------------------------------------------------------------------
# simplification

_RANK = {Const: 0, Sym: 1, Call: 2, Pow: 3, Add: 4, Mul: 5}


def _order_key(e: Expr):
    if isinstance(e, Sym):
        return (1, e.name, 0)
    return (_RANK[type(e)], "", e.shash)


def _term_split(t: Expr) -> tuple[Number, Expr | None]:
    # coefficient and core of an additive term
    if isinstance(t, Const):
        return t.value, None
    if isinstance(t, Mul):
        coeff: Number = Fraction(1)
        rest = []
        for f in t.factors:
            if isinstance(f, Const):
                coeff = _const_mul(coeff, f.value)
            else:
                rest.append(f)
        if not rest:
            return coeff, None
        core = rest[0] if len(rest) == 1 else Mul(tuple(rest))
        return coeff, core
    return Fraction(1), t


def _fold_constant(t: Expr) -> Expr:
    # a call on a constant, or a rational x^(1/2), as the constant it
    # equals: exact where evaluate_exact finds the value, else the float
    # value of a call on a float; t itself when neither is defined
    try:
        return Const(evaluate_exact(t, {}))
    except ExactnessError:
        if isinstance(t, Call) and not t.arg.is_rational:
            try:
                return Const(_FUNCTION_TABLE[t.fn].value(t.arg.value))
            except (ValueError, OverflowError):
                pass
        return t


def _simp_sum(t: Add, memo: Mapping[Expr, Expr]) -> Expr:
    const: Number = Fraction(0)
    order: list[Expr] = []
    buckets: dict[Expr, Number] = {}
    for term in _flat([memo[x] for x in t.terms], Add):
        if isinstance(term, Const):
            const = _const_add(const, term.value)
            continue
        coeff, core = _term_split(term)
        if core is None:
            const = _const_add(const, coeff)
            continue
        if core in buckets:
            buckets[core] = _const_add(buckets[core], coeff)
        else:
            buckets[core] = coeff
            order.append(core)
    terms: list[Expr] = []
    if const != 0:
        terms.append(Const(const))
    for core in order:
        cf = buckets[core]
        if cf == 0:
            continue
        terms.append(core if cf == 1 else mul(Const(cf), core))
    if not terms:
        return Const(const)  # keeps exact 0 / float 0.0 distinction
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def _simp_product(t: Mul, memo: Mapping[Expr, Expr]) -> Expr:
    coeff: Number = Fraction(1)
    order: list[Expr] = []
    exps: dict[Expr, Number] = {}
    for f in _flat([memo[x] for x in t.factors], Mul):
        if isinstance(f, Const):
            coeff = _const_mul(coeff, f.value)
            continue
        if isinstance(f, Pow) and isinstance(f.exponent, Const) and \
                f.exponent.is_rational:
            base, ex = f.base, f.exponent.value
        else:
            base, ex = f, Fraction(1)
        if base in exps:
            exps[base] = exps[base] + ex
        else:
            exps[base] = ex
            order.append(base)
    if coeff == 0 and isinstance(coeff, Fraction):
        return ZERO
    factors = [_simp_power(base, Const(exps[base]))
               for base in sorted(order, key=_order_key) if exps[base] != 0]
    out: list[Expr] = []
    for f in _flat(factors, Mul):  # folded powers may re-expose consts
        if isinstance(f, Const):
            coeff = _const_mul(coeff, f.value)
        else:
            out.append(f)
    if coeff == 0 and isinstance(coeff, Fraction):
        return ZERO
    if not out:
        return Const(coeff)
    if coeff != 1:
        out.insert(0, Const(coeff))
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def _simp_power(b: Expr, x: Expr) -> Expr:
    # b^x of a simplified base and exponent.  pow_ folds exponents 0
    # and 1, bases 0 and 1 and small integer powers of rationals;
    # simplify adds the two folds below
    if x is HALF and isinstance(b, Const) and b.is_rational:
        return _fold_constant(pow_(b, x))
    if isinstance(x, Const) and x.is_rational and \
            x.value.denominator == 1 and isinstance(b, Pow) and \
            isinstance(b.exponent, Const) and b.exponent.is_rational and \
            b.exponent.value.denominator == 1:
        return _simp_power(b.base, Const(b.exponent.value * x.value))
    return pow_(b, x)


def _simp_call(t: Call, memo: Mapping[Expr, Expr]) -> Expr:
    out = call(t.fn, memo[t.arg])
    return _fold_constant(out) if isinstance(out.arg, Const) else out


# each node rewritten from its simplified operands
_SIMPLIFY_RULES = {
    Const: lambda t, _: t, Sym: lambda t, _: t,
    Add: _simp_sum, Mul: _simp_product,
    Pow: lambda t, s: _simp_power(s[t.base], s[t.exponent]),
    Call: _simp_call,
}


def simplify(e: Expr) -> Expr:
    """Local rewriting to a stable fixed point: constant folding with
    exact rational arithmetic, flattening, like-term and like-factor
    collection, identity elimination.  Idempotent; never trig identities,
    never exact-to-float demotion."""
    return fold(e, _SIMPLIFY_RULES, {})


def _flat(items: Iterable[Expr], cls: type):
    # the operands of each item of class cls, and every other item
    for it in items:
        yield from children(it) if isinstance(it, cls) else (it,)


# ---------------------------------------------------------------------
# compiled vectorized evaluation

# operands per emitted line of a long sum or product
_FOLD_CHUNK = 64

# compiled functions kept: a default `mdpv audit` compiles 55 and the
# whole test suite, in one process, 464.  The key holds its tree
# strongly, so an evicted tree can leave the weak node table.
_COMPILE_CACHE_SIZE = 4096


def compile_fn(e: Expr | tuple[Expr, ...],
               variables: Sequence[str]) -> Callable:
    """Compile to a vectorized numpy function of the given variables.

    Given a tuple of expressions, the one function returns a tuple with
    one array per expression.  Structurally equal subtrees, within one
    expression or across the tuple, share one temporary, so heavily
    structured derivative trees evaluate in roughly DAG-size many
    operations.  A constant output is filled to the arguments'
    broadcast shape.  Domain violations yield nan/inf elementwise
    instead of raising; callers decide how to treat non-finite output.
    The last `_COMPILE_CACHE_SIZE` compiled functions are kept for
    reuse.
    """
    return _compile(e, tuple(variables))


@functools.lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def _compile(e: Expr | tuple[Expr, ...],
             variables: tuple[str, ...]) -> Callable:
    import numpy as np

    names: dict[Expr, str] = {}
    lines: list[str] = []
    params = {v: f"v_{v}" for v in variables}

    def temp(code: str) -> str:
        # a new temporary, numbered by the nodes named before it
        ref = f"t{len(names)}"
        lines.append(f"        {ref} = {code}")
        return ref

    def chain(op: str):
        # `a + b + c` runs as `(a + b) + c`, so continuing the chain on
        # the next line gives the same bits, and no line nests so deep
        # that compiling it overflows the interpreter's recursion limit
        def rule(node: Expr, r: Mapping) -> str:
            refs = [r[x] for x in children(node)]
            ref = temp(op.join(refs[:_FOLD_CHUNK]))
            for i in range(_FOLD_CHUNK, len(refs), _FOLD_CHUNK - 1):
                lines.append(f"        {ref} = "
                             + op.join([ref, *refs[i:i + _FOLD_CHUNK - 1]]))
            return ref

        return rule

    def power(node: Pow, r: Mapping) -> str:
        b, ex = r[node.base], node.exponent
        if isinstance(ex, Const) and ex.is_rational:
            if ex.value.denominator == 1:
                return temp(f"{b} ** {int(ex.value)}")
            if ex.value == Fraction(1, 2):
                return temp(f"np.sqrt({b})")
        return temp(f"{b} ** ({r[ex]})")

    rules = {
        # np.float64 so 0.0**-3 yields inf under errstate instead of
        # raising like a bare python float would
        Const: lambda node, _: f"np.float64({_float(node.value)!r})",
        Sym: lambda node, _: _bound(params, node),
        Add: chain(" + "), Mul: chain(" * "), Pow: power,
        Call: lambda node, r: temp(
            _FUNCTION_TABLE[node.fn].numpy.format(r[node.arg])),
    }
    out = fold(e, rules, names)
    result = f"({', '.join(out)},)" if isinstance(e, tuple) else out
    args = ", ".join(f"v_{v}" for v in variables)
    src = (
        f"def _generated({args}):\n"
        f"    with np.errstate(all='ignore'):\n"
        + "\n".join(lines) + ("\n" if lines else "")
        + f"        return {result}\n"
    )
    # a non-finite constant is emitted as np.float64(inf) or (nan)
    namespace: dict = {"np": np, "inf": math.inf, "nan": math.nan}
    exec(compile(src, f"<expr:{id(e)}>", "exec"), namespace)
    raw = namespace["_generated"]

    def filled(out, arrs: list):
        # a constant output as an array of the arguments' broadcast shape
        if np.isscalar(out) or (isinstance(out, np.ndarray)
                                and out.shape == ()):
            shape = np.broadcast(*arrs).shape if arrs else ()
            out = np.full(shape, float(out)) if shape else np.asarray(
                out, dtype=float)
        return out

    def wrapped(*arrays):
        arrs = [np.asarray(a, dtype=float) for a in arrays]
        out = raw(*arrs)
        if isinstance(e, tuple):
            return tuple(filled(o, arrs) for o in out)
        return filled(out, arrs)

    return wrapped


def pointwise_equal(e1: Expr, e2: Expr,
                    domain: Mapping[str, tuple[float, float]],
                    n: int = 50, seed: int = 0, tol: float = 1e-10,
                    exclude: Callable[[dict], bool] | None = None) -> bool:
    """Sampling oracle for semantic equality: at n seeded points in the
    boxed domain, |e1 - e2| <= tol*(1 + max(|e1|,|e2|)) must hold.
    Points where either side is non-finite are rejected and redrawn."""
    from .rng import Stream

    names = sorted(free_symbols(e1) | free_symbols(e2))
    for nm in names:
        if nm not in domain:
            raise ValueError(f"no domain declared for symbol '{nm}'")
    rng = Stream(seed)
    f = compile_fn((e1, e2), names)
    checked = 0
    attempts = 0
    while checked < n:
        attempts += 1
        if attempts > 100 * n:
            raise ExprError("could not find enough admissible sample points")
        pt = {nm: rng.uniform(*domain[nm]) for nm in names}
        if exclude is not None and exclude(pt):
            continue
        args = [pt[nm] for nm in names]
        v1, v2 = (float(v) for v in f(*args))
        if not (math.isfinite(v1) and math.isfinite(v2)):
            continue
        if abs(v1 - v2) > tol * (1.0 + max(abs(v1), abs(v2))):
            return False
        checked += 1
    return True
