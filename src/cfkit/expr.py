"""Term DSL: arithmetic expressions over exact rationals.

Continued fraction coefficients a(n), b(n) and closed-form hypotheses are
written in a tiny expression language and kept as immutable ASTs.  There is
no floating point anywhere: every well-formed expression evaluates to a
`fractions.Fraction`.

Grammar (see GRAMMAR below for the canonical text): precedence from loosest
to tightest is additive, multiplicative, unary minus, power, call/atom.
`^` is right-associative integer exponentiation.  Implicit multiplication
is not supported.  Negative integers are spelled with unary minus, so
`(-1)^i` parses as a power of the negated literal.

ASTs are frozen dataclasses and evaluation is pure, so trees can be shared
and evaluated concurrently from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

GRAMMAR = """\
expression     := additive
additive       := multiplicative { ("+" | "-") multiplicative }
multiplicative := unary { ("*" | "/") unary }
unary          := "-" unary | power
power          := atom [ "^" unary ]                      (right-associative)
atom           := INTEGER | IDENT | "(" expression ")"
                | "fact" "(" expression ")"
                | "binom" "(" expression "," expression ")"
                | "sum" "(" IDENT "," expression "," expression "," expression ")"
INTEGER        := digit { digit }
IDENT          := (letter | "_") { letter | digit | "_" }
"""

Rational = Union[Fraction, int]


class ParseError(Exception):
    """Syntax error with a 0-based character offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset
        self.reason = message


class EvalError(Exception):
    """Raised when an expression has no exact rational value."""


class Expr:
    """Base class for AST nodes. Instances are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Integer(Expr):
    value: int

    def __post_init__(self):
        # Negative constants are represented as Negate(Integer(...)) so that
        # rendering stays invertible under the grammar.
        if self.value < 0:
            raise ValueError("Integer nodes hold nonnegative values; wrap in Negate")


@dataclass(frozen=True)
class Variable(Expr):
    name: str


@dataclass(frozen=True)
class Negate(Expr):
    child: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Factorial(Expr):
    child: Expr


@dataclass(frozen=True)
class Binomial(Expr):
    top: Expr
    bottom: Expr


@dataclass(frozen=True)
class BoundedSum(Expr):
    var: str
    lower: Expr
    upper: Expr
    body: Expr


_FUNCTIONS = {"fact": 1, "binom": 2, "sum": 4}


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # INT, IDENT, OP, LPAREN, RPAREN, COMMA, EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("OP", ch, i))
        elif ch == "(":
            tokens.append(_Token("LPAREN", ch, i))
        elif ch == ")":
            tokens.append(_Token("RPAREN", ch, i))
        elif ch == ",":
            tokens.append(_Token("COMMA", ch, i))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(_Token("EOF", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one function per precedence level)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(f"expected {what}", self.current.pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.additive()
        if self.current.kind != "EOF":
            raise ParseError("expected end of input", self.current.pos)
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        while self.current.kind == "OP" and self.current.text in "+-":
            op = self.advance().text
            rhs = self.multiplicative()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        while self.current.kind == "OP" and self.current.text in "*/":
            op = self.advance().text
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.current.kind == "OP" and self.current.text == "-":
            self.advance()
            return Negate(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.current.kind == "OP" and self.current.text == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.current
        if tok.kind == "INT":
            self.advance()
            return Integer(int(tok.text))
        if tok.kind == "IDENT":
            self.advance()
            if self.current.kind != "LPAREN":
                return Variable(tok.text)
            if tok.text not in _FUNCTIONS:
                raise ParseError(f"unknown function {tok.text!r}", tok.pos)
            return self.call(tok)
        if tok.kind == "LPAREN":
            self.advance()
            e = self.additive()
            self.expect("RPAREN", "')'")
            return e
        raise ParseError("expected an expression", tok.pos)

    def call(self, name: _Token) -> Expr:
        arity = _FUNCTIONS[name.text]
        self.expect("LPAREN", "'('")
        args: list[Expr] = []
        var: str | None = None
        for k in range(arity):
            if k > 0:
                if self.current.kind != "COMMA":
                    raise ParseError(
                        f"{name.text!r} takes {arity} arguments: expected ','",
                        self.current.pos,
                    )
                self.advance()
            if name.text == "sum" and k == 0:
                tok = self.expect("IDENT", "a variable name as the first argument of 'sum'")
                var = tok.text
            else:
                args.append(self.additive())
        self.expect("RPAREN", f"')' closing {name.text!r}")
        if name.text == "fact":
            return Factorial(args[0])
        if name.text == "binom":
            return Binomial(args[0], args[1])
        assert var is not None
        return BoundedSum(var, args[0], args[1], args[2])


def parse(text: str) -> Expr:
    """Parse DSL source text into an AST; raise ParseError on bad input."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation
#
# An expression is compiled once into nested closures.  A closure takes an
# environment of normalized bindings (int when integral, else Fraction) and
# returns an exact value: an int as long as every step stays integral, a
# Fraction once a division is inexact or a power is negative.  The public
# callable wraps the result in Fraction.  Subexpressions run in a fixed
# order (a division's denominator first, a power's exponent first, a
# binomial's top first), so the first failing one decides the EvalError.

#: Most terms one `sum(var, lo, hi, body)` may add up.  Every sum is added
#: term by term, so without a limit `sum(k, 0, 10^12, 0)` hangs evaluation
#: instead of failing as bad input; a closed-form check through n_max needs
#: spans of about n_max.
MAX_SUM_SPAN = 100_000

Compiled = Callable[[Mapping[str, Rational] | None], Fraction]
_Closure = Callable[[dict[str, Rational]], Rational]


def _as_integer(value: Rational, what: str) -> int:
    if type(value) is int:
        return value
    if value.denominator != 1:
        raise EvalError(f"{what} must be an integer, got {value}")
    return value.numerator


def _normalized(value) -> Rational:
    """A binding as the closures expect it: int if integral, else Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def compile(expr: Expr) -> Compiled:
    """Compile `expr` into a callable `bindings -> Fraction`.

    The callable gives the same value, and raises the same EvalError, as
    `evaluate(expr, bindings)`.  Compile once per expression and call it
    per index: the tree is walked here and never again.
    """
    run = _compile(expr)

    def compiled(bindings: Mapping[str, Rational] | None = None) -> Fraction:
        env = {k: _normalized(v) for k, v in bindings.items()} if bindings else {}
        value = run(env)
        return value if type(value) is Fraction else Fraction(value)

    return compiled


def evaluate(expr: Expr, bindings: Mapping[str, Rational] | None = None) -> Fraction:
    """Exact evaluation; every free variable of `expr` must be bound.

    Pure: the same expression and bindings always give the same Fraction.
    Callers that evaluate one expression many times should `compile` it once.
    """
    return compile(expr)(bindings)


def _compile(expr: Expr) -> _Closure:
    match expr:
        case Integer(value=v):
            return lambda env: v
        case Variable(name=name):
            def variable(env):
                try:
                    return env[name]
                except KeyError:
                    raise EvalError(f"unbound variable {name!r}") from None
            return variable
        case Negate(child=c):
            child = _compile(c)
            return lambda env: -child(env)
        case Add(left=l, right=r):
            left, right = _compile(l), _compile(r)
            return lambda env: left(env) + right(env)
        case Sub(left=l, right=r):
            left, right = _compile(l), _compile(r)
            return lambda env: left(env) - right(env)
        case Mul(left=l, right=r):
            left, right = _compile(l), _compile(r)
            return lambda env: left(env) * right(env)
        case Div(left=l, right=r):
            left, right = _compile(l), _compile(r)

            def divide(env):
                denom = right(env)
                if not denom:
                    raise EvalError("division by zero")
                numer = left(env)
                if type(numer) is int and type(denom) is int:
                    quotient, remainder = divmod(numer, denom)
                    return quotient if not remainder else Fraction(numer, denom)
                return numer / denom
            return divide
        case Pow(base=b, exponent=e):
            base_of, exponent_of = _compile(b), _compile(e)

            def power(env):
                exponent = _as_integer(exponent_of(env), "exponent")
                base = base_of(env)
                if exponent >= 0:
                    return base**exponent
                if not base:
                    raise EvalError("negative power of zero")
                return Fraction(base) ** exponent
            return power
        case Factorial(child=c):
            child = _compile(c)

            def factorial(env):
                v = _as_integer(child(env), "factorial argument")
                if v < 0:
                    raise EvalError(f"factorial of negative integer {v}")
                return math.factorial(v)
            return factorial
        case Binomial(top=t, bottom=b):
            top_of, bottom_of = _compile(t), _compile(b)

            def binomial(env):
                top = _as_integer(top_of(env), "binomial top argument")
                if top < 0:
                    raise EvalError(f"binomial top argument must be nonnegative, got {top}")
                bottom = _as_integer(bottom_of(env), "binomial bottom argument")
                if bottom < 0 or bottom > top:
                    return 0
                return math.comb(top, bottom)
            return binomial
        case BoundedSum(var=var, lower=lo, upper=hi, body=body):
            lower_of, upper_of, term = _compile(lo), _compile(hi), _compile(body)

            def bounded_sum(env):
                lower = _as_integer(lower_of(env), "sum lower bound")
                upper = _as_integer(upper_of(env), "sum upper bound")
                span = upper - lower + 1
                if span > MAX_SUM_SPAN:
                    raise EvalError(f"sum span {span} exceeds {MAX_SUM_SPAN}")
                # Integer terms go into `whole`; rational ones into one
                # unreduced numer/denom pair over the lcm of their
                # denominators, reduced once at the end.
                whole, numer, denom = 0, 0, 1
                inner = dict(env)
                for i in range(lower, upper + 1):  # empty when lower > upper
                    inner[var] = i
                    value = term(inner)
                    if type(value) is int:
                        whole += value
                        continue
                    n, d = value.numerator, value.denominator
                    if d == denom:
                        numer += n
                    else:
                        g = math.gcd(denom, d)
                        numer = numer * (d // g) + n * (denom // g)
                        denom = denom // g * d
                if denom == 1:
                    return whole + numer
                total = Fraction(whole * denom + numer, denom)
                return total.numerator if total.denominator == 1 else total
            return bounded_sum
    raise TypeError(f"not an Expr node: {expr!r}")


def free_vars(expr: Expr) -> frozenset[str]:
    """Free variables; a BoundedSum's variable is bound in its body only."""
    match expr:
        case Variable(name=name):
            return frozenset((name,))
        case BoundedSum(var=var, lower=lo, upper=hi, body=body):
            return free_vars(lo) | free_vars(hi) | (free_vars(body) - {var})
    return frozenset().union(*map(free_vars, children(expr)))


# ---------------------------------------------------------------------------
# Rendering

# Binding strengths used to decide where parentheses are required.  A child is
# parenthesised when its own level is below the minimum its position demands.
_ADDITIVE, _MULTIPLICATIVE, _UNARY, _POWER, _ATOM = 1, 2, 3, 4, 5


def _level(expr: Expr) -> int:
    match expr:
        case Add() | Sub():
            return _ADDITIVE
        case Mul() | Div():
            return _MULTIPLICATIVE
        case Negate():
            return _UNARY
        case Pow():
            return _POWER
        case _:
            return _ATOM


def render(expr: Expr) -> str:
    """Deterministic canonical text; parse(render(e)) == e structurally."""
    return _render(expr, 0)


def _render(expr: Expr, minimum: int) -> str:
    text = _render_node(expr)
    if _level(expr) < minimum:
        return f"({text})"
    return text


def _render_node(expr: Expr) -> str:
    match expr:
        case Integer(value=v):
            return str(v)
        case Variable(name=name):
            return name
        case Negate(child=c):
            return "-" + _render(c, _UNARY)
        case Add(left=l, right=r):
            return f"{_render(l, _ADDITIVE)} + {_render(r, _MULTIPLICATIVE)}"
        case Sub(left=l, right=r):
            return f"{_render(l, _ADDITIVE)} - {_render(r, _MULTIPLICATIVE)}"
        case Mul(left=l, right=r):
            return f"{_render(l, _MULTIPLICATIVE)} * {_render(r, _UNARY)}"
        case Div(left=l, right=r):
            return f"{_render(l, _MULTIPLICATIVE)} / {_render(r, _UNARY)}"
        case Pow(base=b, exponent=e):
            return f"{_render(b, _ATOM)}^{_render(e, _UNARY)}"
        case Factorial(child=c):
            return f"fact({_render(c, 0)})"
        case Binomial(top=t, bottom=b):
            return f"binom({_render(t, 0)}, {_render(b, 0)})"
        case BoundedSum(var=var, lower=lo, upper=hi, body=body):
            return f"sum({var}, {_render(lo, 0)}, {_render(hi, 0)}, {_render(body, 0)})"
    raise TypeError(f"not an Expr node: {expr!r}")


def _child_fields(node: Expr) -> list[str]:
    # Every node is a dataclass; its subexpressions are the fields typed Expr.
    return [f.name for f in fields(node) if f.type == "Expr"]


def children(node: Expr) -> tuple[Expr, ...]:
    """Direct subexpressions in field order (a sum: lower, upper, body)."""
    if not isinstance(node, Expr):
        raise TypeError(f"not an Expr node: {node!r}")
    return tuple(getattr(node, name) for name in _child_fields(node))


def rebuild(node: Expr, kids: Iterable[Expr]) -> Expr:
    """`node` with its subexpressions replaced by `kids`; inverse of `children`."""
    return replace(node, **dict(zip(_child_fields(node), kids, strict=True)))


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield every node of the tree in preorder, children left to right."""
    yield expr
    for kid in children(expr):
        yield from walk(kid)
