"""Parser and evaluator for the surface/curve component expressions.

Grammar (EBNF, also reproduced in the README):

    expr    = term   { ("+" | "-") term } ;
    term    = unary  { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;              (* right associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;

Numbers accept integer, decimal and scientific forms.  Identifiers are the
declared parameters ("u", "v" for surfaces, "t" for curves), the reserved
constants "pi" and "e", or one of the builtin function names.  Implicit
multiplication is not supported ("2u" is a syntax error).  Expressions
nested deeper than MAX_DEPTH levels are a syntax error too, raised at the
token where the bound is passed.

Evaluation is generic over the scalar ring: the same AST evaluates over
plain floats or over the truncated-derivative jets of :mod:`.jets`, which
is how all exact derivatives in this package are produced.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import (
    DomainError,
    ExprSyntaxError,
    InvalidCharacter,
    UnexpectedEnd,
    UnknownIdentifier,
)
from .jets import power_int

__all__ = [
    "Token", "Ast", "Const", "Var", "Neg", "BinOp", "Call",
    "tokenize", "parse", "parse_expression", "eval_ast", "pretty",
    "FUNCTIONS", "CONSTANTS",
]

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh",
             "exp", "log", "sqrt", "abs")

CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Token:
    kind: str          # number | identifier | operator | paren | comma
    text: str
    position: int


_TOKEN_RE = re.compile(r"""
    (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<identifier>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<operator>[-+*/^])
  | (?P<paren>[()])
  | (?P<comma>,)
  | (?P<ws>\s+)
""", re.VERBOSE)


def tokenize(source):
    """Split ``source`` into a list of Tokens, skipping whitespace."""
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise InvalidCharacter(f"invalid character {source[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


# ---------------------------------------------------------------------------
# AST

class Ast:
    """Base class of expression nodes.  Nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Ast):
    value: float
    name: str | None = None     # set for the reserved constants pi, e


@dataclass(frozen=True)
class Var(Ast):
    name: str


@dataclass(frozen=True)
class Neg(Ast):
    child: Ast


@dataclass(frozen=True)
class BinOp(Ast):
    op: str                     # one of + - * / ^
    left: Ast
    right: Ast


@dataclass(frozen=True)
class Call(Ast):
    func: str
    arg: Ast


_ADD, _MUL, _UNARY, _POW = 10, 20, 30, 40
_BINARY_PREC = {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "^": _POW}


#: deepest expression accepted, counted both as the parser's nesting
#: (parentheses, function arguments, unary and right operands) and as the
#: height of the tree; eval_ast and pretty recurse once per tree level
MAX_DEPTH = 200


class _Parser:
    """Recursive descent; each parse method returns (ast, tree height)."""

    def __init__(self, tokens, allowed_vars):
        self.tokens = tokens
        self.allowed = frozenset(allowed_vars)
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        if tok is None:
            raise UnexpectedEnd("unexpected end of expression")
        self.i += 1
        return tok

    def expect(self, text):
        tok = self.peek()
        if tok is None:
            raise UnexpectedEnd(f"unexpected end of expression, expected {text!r}")
        if tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text!r}",
                                  tok.position, expected=text)
        self.i += 1
        return tok

    @staticmethod
    def bounded(depth, tok):
        """``depth``, or ExprSyntaxError at ``tok`` past MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels",
                tok.position if tok is not None else None)
        return depth

    def parse_expr(self, min_prec=0):
        self.nesting += 1
        self.bounded(self.nesting, self.peek())
        left, height = self.parse_unary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "operator":
                break
            prec = _BINARY_PREC[tok.text]
            if prec < min_prec:
                break
            self.advance()
            # ^ is right associative, everything else left associative
            right, right_height = self.parse_expr(
                prec if tok.text == "^" else prec + 1)
            left = BinOp(tok.text, left, right)
            height = self.bounded(max(height, right_height) + 1, tok)
        self.nesting -= 1
        return left, height

    def parse_unary(self):
        tok = self.peek()
        if tok is not None and tok.text == "-":
            self.advance()
            child, height = self.parse_expr(_UNARY)
            return Neg(child), self.bounded(height + 1, tok)
        return self.parse_atom()

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "number":
            return Const(float(tok.text)), 1
        if tok.kind == "identifier":
            nxt = self.peek()
            if nxt is not None and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.position)
                self.advance()
                arg, height = self.parse_expr()
                self.expect(")")
                return Call(tok.text, arg), self.bounded(height + 1, tok)
            if tok.text in CONSTANTS:
                return Const(CONSTANTS[tok.text], name=tok.text), 1
            if tok.text not in self.allowed:
                raise UnknownIdentifier(tok.text, tok.position)
            return Var(tok.text), 1
        if tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.position)


def parse(tokens, allowed_vars):
    """Parse a token stream into an Ast.

    ``allowed_vars`` is the set of legal variable names; anything else
    (other than the reserved constants and function names) raises
    UnknownIdentifier.
    """
    parser = _Parser(tokens, allowed_vars)
    ast, _ = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise ExprSyntaxError(f"unexpected trailing token {tok.text!r}",
                              tok.position)
    return ast


def parse_expression(source, allowed_vars):
    """Convenience wrapper: tokenize + parse."""
    return parse(tokenize(source), allowed_vars)


# ---------------------------------------------------------------------------
# evaluation, generic over the ring of the bound values

def _lib_for(x):
    # Jets provide their own elementary functions; plain numbers use math.
    return x if hasattr(x, "sin") else math


def _apply_func(func, x):
    if hasattr(x, "sin"):
        return getattr(x, func)()
    try:
        if func == "abs":
            return abs(x)
        if func == "log" and x <= 0.0:
            raise DomainError("log of a nonpositive value")
        if func == "sqrt" and x < 0.0:
            raise DomainError("sqrt of a negative value")
        return getattr(math, func)(x)
    except (ValueError, OverflowError) as exc:      # sin(inf), exp(1000)
        raise DomainError(f"{func}({x!r}): {exc}") from exc


def _pow(base, exponent):
    """a ^ b.  Integer constant exponents use square-and-multiply so
    negative bases stay legal; anything else goes through exp(b*log(a))."""
    n = _as_integer(exponent)
    if n is not None:
        return _pow_int(base, n)
    if hasattr(base, "sin"):
        return (base.log() * exponent).exp()
    if base <= 0.0:
        raise DomainError("power with nonpositive base and non-integer exponent")
    if hasattr(exponent, "sin"):
        return (exponent * math.log(base)).exp()
    try:
        return math.exp(exponent * math.log(base))
    except OverflowError as exc:
        raise DomainError(f"{base!r}^{exponent!r}: {exc}") from exc


def _as_integer(x):
    if hasattr(x, "is_constant"):
        if not x.is_constant():
            return None
        x = x.value
    if isinstance(x, (int, float)) and float(x).is_integer() and abs(x) <= 2**31:
        return int(x)
    return None


def _pow_int(base, n):
    if hasattr(base, "pow_int"):
        return base.pow_int(n)
    if n == 0:
        return 1.0
    if n < 0:
        inv = power_int(base, -n)
        if inv == 0.0:
            raise DomainError("division by zero in negative power")
        return 1.0 / inv
    return power_int(base, n)


def eval_ast(ast, bindings):
    """Evaluate ``ast`` with variables bound to ring elements.

    All variables occurring in the tree must be bound; the ring must
    support +, -, *, / and the builtin function set (floats and jets do).
    """
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Var):
        try:
            return bindings[ast.name]
        except KeyError:
            raise UnknownIdentifier(ast.name) from None
    if isinstance(ast, Neg):
        return -eval_ast(ast.child, bindings)
    if isinstance(ast, Call):
        return _apply_func(ast.func, eval_ast(ast.arg, bindings))
    if isinstance(ast, BinOp):
        left = eval_ast(ast.left, bindings)
        if ast.op == "^":
            return _pow(left, eval_ast(ast.right, bindings))
        right = eval_ast(ast.right, bindings)
        if ast.op == "+":
            return left + right
        if ast.op == "-":
            return left - right
        if ast.op == "*":
            return left * right
        # division: guard the scalar case; jets guard internally
        if not hasattr(right, "sin") and right == 0.0:
            raise DomainError("division by zero")
        return left / right
    raise TypeError(f"not an Ast node: {ast!r}")


# ---------------------------------------------------------------------------
# pretty printer (minimal parentheses; reparses to an identical tree)

def _prec_of(ast):
    if isinstance(ast, BinOp):
        return _BINARY_PREC[ast.op]
    if isinstance(ast, Neg):
        return _UNARY
    return 100


def pretty(ast):
    if isinstance(ast, Const):
        if ast.name is not None:
            return ast.name
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Call):
        return f"{ast.func}({pretty(ast.arg)})"
    if isinstance(ast, Neg):
        child = pretty(ast.child)
        if _prec_of(ast.child) < _UNARY:
            child = f"({child})"
        return f"-{child}"
    if isinstance(ast, BinOp):
        prec = _BINARY_PREC[ast.op]
        left, right = pretty(ast.left), pretty(ast.right)
        # left operand needs parens if it binds looser; for the
        # right-assoc ^ the left side needs them even at equal precedence
        if _prec_of(ast.left) < prec or (ast.op == "^" and _prec_of(ast.left) == prec):
            left = f"({left})"
        if ast.op == "^":
            if _prec_of(ast.right) < prec:
                right = f"({right})"
        elif _prec_of(ast.right) <= prec:
            right = f"({right})"
        return f"{left} {ast.op} {right}" if ast.op in "+-" else f"{left}{ast.op}{right}"
    raise TypeError(f"not an Ast node: {ast!r}")
