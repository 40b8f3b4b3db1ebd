"""Expression language for warping functions, metric entries and field components.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-" factor) | power
    power  := atom ("^" factor)?
    atom   := number | ident | ident "(" expr ")" | "(" expr ")"

so ``^`` is right-associative and binds tighter than unary minus.
Identifiers resolve, in order, to declared coordinates, named constants
(substituted as literals at parse time), or one of the built-in function
names.  Evaluation is generic over real or :class:`~warpfield.jets.Jet2`
bindings, and one walk over jets with a sample axis evaluates the tree at
every sample point; an integral exponent is evaluated by repeated
multiplication so polynomial jets are exact.  The parser never builds a
``Quadratic``: that node is the component of a synthetic field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import FUNCTIONS, DivisionByZero, DomainError, Jet2, int_pow

FUNCTION_NAMES = frozenset(FUNCTIONS) | {"pow"}

IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")

# The most levels a parsed tree may have, each node counting one; while
# parsing, also the most parentheses, calls, unary minuses and exponents
# left open.  It keeps parsing, eval_expr, pretty, variables_of and the
# nodes' hash far inside Python's default recursion limit.
MAX_DEPTH = 100


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (at offset {offset})")
        self.name = name
        self.offset = offset


class ArityError(ExprError):
    pass


class MissingBindingError(ExprError):
    pass


# ---- AST ----


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


@dataclass(frozen=True)
class Quadratic:
    """const + c1*m1 + c2*m2 + ..., summed left to right, where each
    monomial m is one coordinate name or a product of two: a degree-2
    polynomial, evaluated and printed as that chain of ``Bin`` nodes."""

    const: float
    terms: tuple[tuple[float, tuple[str, ...]], ...]  # (coefficient, monomial)


Expr = object  # Num | Var | Neg | Bin | Call | Quadratic


def variables_of(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Quadratic):
        return frozenset(name for _, mono in e.terms for name in mono)
    if isinstance(e, Neg):
        return variables_of(e.arg)
    if isinstance(e, Bin):
        return variables_of(e.lhs) | variables_of(e.rhs)
    if isinstance(e, Call):
        return variables_of(e.arg)
    return frozenset()


# ---- tokenizer ----

_OPS = "+-*/^()"


def _tokenize(src: str):
    tokens = []  # (kind, text_or_value, offset)
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        m = NUMBER_RE.match(src, i)
        if m:
            v = float(m.group(0))
            if math.isinf(v):
                raise ExprSyntaxError(f"number {m.group(0)} overflows", i)
            tokens.append(("num", v, i))
            i = m.end()
            continue
        m = IDENT_RE.match(src, i)
        if m:
            tokens.append(("ident", m.group(0), i))
            i = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    return tokens


# ---- parser ----


class _Parser:
    def __init__(self, tokens, variables, constants):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.constants = constants
        self.open = 0  # levels left open above the current token

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", self.tokens[-1][2] + 1 if self.tokens else 0)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.take()
        raise ExprSyntaxError(f"expected {op!r}", off)

    def at_op(self, *ops) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    # each rule returns (node, height): the tree's levels, at most MAX_DEPTH
    def expr(self):
        return self.chain(self.term, "+", "-")

    def term(self):
        return self.chain(self.factor, "*", "/")

    def chain(self, operand, *ops):
        node, h = operand()
        while self.at_op(*ops):
            _, op, off = self.take()
            rhs, r = operand()
            node, h = Bin(op, node, rhs), self.level(max(h, r), off)
        return node, h

    def factor(self):
        if self.at_op("-"):
            off = self.take()[2]
            arg, h = self.inner(self.factor, off)
            return Neg(arg), self.level(h, off)
        return self.power()

    def power(self):
        node, h = self.atom()
        if self.at_op("^"):
            off = self.take()[2]
            rhs, r = self.inner(self.factor, off)
            node, h = Bin("^", node, rhs), self.level(max(h, r), off)
        return node, h

    def atom(self):
        kind, text, off = self.take()
        if kind == "num":
            return Num(text), 1
        if kind == "op" and text == "(":
            got = self.inner(self.expr, off)
            self.expect_op(")")
            return got
        if kind == "ident":
            if self.at_op("("):
                if text == "pow":
                    raise ArityError(
                        "pow requires two arguments; the call syntax admits one "
                        "(write base^expo instead)"
                    )
                if text not in FUNCTION_NAMES:
                    raise UnknownIdentifierError(text, off)
                self.take()
                arg, h = self.inner(self.expr, off)
                self.expect_op(")")
                return Call(text, arg), self.level(h, off)
            if text in self.variables:
                return Var(text), 1
            if text in self.constants:
                return Num(float(self.constants[text])), 1
            raise UnknownIdentifierError(text, off)
        raise ExprSyntaxError(f"unexpected token {text!r}", off)

    def inner(self, rule, off):
        """rule() one level further in: a parenthesis nests no node, so the
        levels left open are bounded on the way down too."""
        self.open = self.level(self.open, off)
        got = rule()
        self.open -= 1
        return got

    @staticmethod
    def level(h: int, off: int) -> int:
        """The height of a node over children at most h high."""
        if h >= MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", off)
        return h + 1


def parse_expr(src: str, variables, constants=None) -> Expr:
    """Parse ``src`` into an expression tree.

    ``variables`` is the set of coordinate names in scope; ``constants``
    are named real bindings substituted as literals before scope checks.
    """
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    tokens = _tokenize(src)
    parser = _Parser(tokens, frozenset(variables), dict(constants or {}))
    node, _ = parser.expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {text!r}", off)
    return node


# ---- evaluation ----


def _power(base, expo):
    if isinstance(expo, Jet2):
        return base ** expo if isinstance(base, Jet2) else Jet2.constant(base, expo.n) ** expo
    e = float(expo)
    if isinstance(base, Jet2):
        return base ** e
    if math.isfinite(e) and e == int(e) and abs(e) <= 64:
        # repeated multiplication, matching the jet path bit for bit
        return int_pow(base, int(e)) if e else 1.0
    if base <= 0.0:
        raise DomainError(f"non-integer power of non-positive base {base}")
    try:
        return base ** e
    except OverflowError:
        return math.inf


def _binding(env: dict, name: str):
    try:
        return env[name]
    except KeyError:
        raise MissingBindingError(f"no binding for variable '{name}'") from None


def _monomial(env: dict, mono: tuple[str, ...]):
    if len(mono) == 1:
        return _binding(env, mono[0])
    return _binding(env, mono[0]) * _binding(env, mono[1])


def eval_expr(e: Expr, env: dict):
    """Evaluate over an environment of real or Jet2 bindings."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return _binding(env, e.name)
    if isinstance(e, Quadratic):
        acc = e.const
        for c, mono in e.terms:
            acc = acc + c * _monomial(env, mono)
        return acc
    if isinstance(e, Neg):
        return -eval_expr(e.arg, env)
    if isinstance(e, Call):
        return FUNCTIONS[e.fn](eval_expr(e.arg, env))
    if isinstance(e, Bin):
        a = eval_expr(e.lhs, env)
        b = eval_expr(e.rhs, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if not isinstance(b, Jet2) and float(b) == 0.0:
                raise DivisionByZero("division by zero")
            return a / b
        return _power(a, b)
    raise TypeError(f"not an expression node: {e!r}")


def monomials(names) -> tuple[tuple[str, ...], ...]:
    """The degree-1 and degree-2 monomials over ``names`` in the order
    ``synth_field`` draws their coefficients: each name, then each pair
    (a, b) with a at or before b."""
    names = list(names)
    return (tuple((a,) for a in names)
            + tuple((a, b) for i, a in enumerate(names) for b in names[i:]))


class JetEnv(dict):
    """Coordinate jets by name, as ``ProductStructure.jet_env`` builds
    them, with the table of their monomials' jets built on first use: it
    lives exactly as long as the environment."""

    @cached_property
    def monomial_table(self) -> tuple[dict, np.ndarray]:
        """(row of each of ``monomials(self)``, jets): row t of jets (S,
        1 + b + b*b) is that monomial's value, gradient and flattened
        Hessian, from the ``Jet2`` product that ``eval_expr`` takes."""
        monos = monomials(self)
        jets = []
        for mono in monos:
            m = _monomial(self, mono)
            jets.append(np.concatenate((m.value[:, None], m.grad,
                                        m.hess.reshape(len(m.value), -1)), axis=1))
        return {mono: t for t, mono in enumerate(monos)}, np.stack(jets)


def fold_quadratics(nodes, env: JetEnv):
    """The jets of ``Quadratic`` nodes over the same monomials in a
    ``jet_env``, in one fold: (value, grad, hess), each with the node axis
    last.  The terms' rows of the env's monomial table are gathered once
    and scaled by their (term, node) coefficients in one product, the
    constants join term 0's value, and the terms are added into term 0
    one at a time, in the order ``eval_expr`` adds them, so every entry
    takes the operations, and has the bits and the sign, of its node's
    own walk.  ``np.add.reduce`` (``sum``) over the term axis would not:
    it may start from +0, which turns a -0 entry into +0; and
    ``np.add.accumulate`` keeps the bits but runs one short inner loop
    per entry, slower than these few whole-array adds.  None unless
    every node is a ``Quadratic`` with at least one term, over the
    monomials of the first, each a row of the table."""
    monos = [m for _, m in nodes[0].terms] if isinstance(nodes[0], Quadratic) else []
    if not monos or any(not isinstance(q, Quadratic) or [m for _, m in q.terms] != monos
                        for q in nodes):
        return None
    index, table = env.monomial_table
    rows = [index.get(m) for m in monos]
    if None in rows:
        return None
    coeffs = np.array([[c for c, _ in q.terms] for q in nodes]).T  # (term, node)
    prods = table[rows, :, :, None] * coeffs[:, None, None]  # (term, S, jet, node)
    acc = prods[0]
    acc[:, 0] += [q.const for q in nodes]  # the value's first sum: const + term
    for term in prods[1:]:
        acc += term
    b = len(env)
    hess = acc[:, 1 + b:].reshape(len(acc), b, b, -1)
    return acc[:, 0], acc[:, 1:1 + b], np.ascontiguousarray(hess)


# ---- printing ----

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Quadratic):
        return _PREC["+"] if e.terms else 5
    if isinstance(e, Neg):
        return 3
    return 5


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pretty(e: Expr) -> str:
    """Canonical text form; a fixed point of ``pretty . parse_expr``."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = pretty(e.arg)
        if _prec(e.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({pretty(e.arg)})"
    if isinstance(e, Quadratic):
        return " + ".join([_fmt_num(e.const)]
                          + ["*".join([_fmt_num(c), *mono]) for c, mono in e.terms])
    if isinstance(e, Bin):
        p = _PREC[e.op]
        lhs = pretty(e.lhs)
        rhs = pretty(e.rhs)
        if e.op == "^":
            if _prec(e.lhs) < 5:
                lhs = f"({lhs})"
            if _prec(e.rhs) < 3:
                rhs = f"({rhs})"
            return f"{lhs}^{rhs}"
        if _prec(e.lhs) < p:
            lhs = f"({lhs})"
        strict = e.op in ("-", "/")
        if _prec(e.rhs) < p or (strict and _prec(e.rhs) == p):
            rhs = f"({rhs})"
        if p == 1:
            return f"{lhs} {e.op} {rhs}"
        return f"{lhs}{e.op}{rhs}"
    raise TypeError(f"not an expression node: {e!r}")


# small constructors used when fields are built programmatically


def num(v: float) -> Expr:
    return Num(float(v))


def mul(a: Expr, b: Expr) -> Expr:
    return Bin("*", a, b)
