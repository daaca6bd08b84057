"""Parser and evaluator for the surface/curve component expressions.

Grammar (EBNF, also reproduced in the README):

    expr    = term   { ("+" | "-") term } ;
    term    = unary  { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;              (* right associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;

Numbers accept integer, decimal and scientific forms; a number that
overflows a double (1e999) is a syntax error.  Identifiers are the
declared parameters ("u", "v" for surfaces, "t" for curves), the reserved
constants "pi" and "e", or one of the builtin function names.  Implicit
multiplication is not supported ("2u" is a syntax error).  Expressions
nested deeper than MAX_DEPTH levels are a syntax error too, raised at the
token where the bound is passed.

Evaluation is generic over the scalar ring: the same AST evaluates over
plain floats or over the truncated-derivative jets of :mod:`.jets`, which
is how all exact derivatives in this package are produced.  The jets of
a surface or a parameter path at a point come from ``jet_rows``: off a
recorded kernel (:mod:`.tape`) once their shape has been evaluated often
enough, under the one rule of ``bound_kernel``, and from ``eval_ast``
over the seeds of their kind (``_seeds``) otherwise.
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
from .jets import _SEED_TAILS, Jet1, Jet2, _Jet, power_int

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
                                  tok.position)
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
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(
                    f"number {tok.text!r} is not finite as a double",
                    tok.position)
            return Const(value), 1
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

def _is_jet(x):
    """True for a jet, which brings its own functions and checks."""
    return isinstance(x, _Jet)


def _apply_func(func, x):
    if _is_jet(x):
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
    if _is_jet(base):
        return (base.log() * exponent).exp()
    if base <= 0.0:
        raise DomainError("power with nonpositive base and non-integer exponent")
    if _is_jet(exponent):
        return (exponent * math.log(base)).exp()
    try:
        return math.exp(exponent * math.log(base))
    except OverflowError as exc:
        raise DomainError(f"{base!r}^{exponent!r}: {exc}") from exc


def _as_integer(x):
    if _is_jet(x):
        if not x.is_constant():
            return None
        x = x.value
    if isinstance(x, (int, float)) and float(x).is_integer() and abs(x) <= 2**31:
        return int(x)
    return None


def _pow_int(base, n):
    if _is_jet(base):
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
    Dispatch is on the exact node type, the most frequent first.
    """
    kind = type(ast)
    if kind is BinOp:
        left = eval_ast(ast.left, bindings)
        op = ast.op
        if op == "^":
            return _pow(left, eval_ast(ast.right, bindings))
        right = eval_ast(ast.right, bindings)
        if op == "*":
            return left * right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        # division: guard the scalar case; jets guard internally
        if not _is_jet(right) and right == 0.0:
            raise DomainError("division by zero")
        return left / right
    if kind is Var:
        try:
            return bindings[ast.name]
        except KeyError:
            raise UnknownIdentifier(ast.name) from None
    if kind is Const:
        return ast.value
    if kind is Call:
        return _apply_func(ast.func, eval_ast(ast.arg, bindings))
    if kind is Neg:
        return -eval_ast(ast.child, bindings)
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


# ---------------------------------------------------------------------------
# shapes: trees with their constants taken out, keying recorded kernels

#: evaluations of the trees of one shape (_shape_of) at one kind and order
#: before the shape is recorded (tape.factory): a new recording costs
#: 0.4-2.2 ms for a catalog surface, more than a few evaluations (one
#: surface-info point, the moved surfaces of one check-identities
#: --samples 20) save; binding a recorded shape costs 1-6 us
RECORD_AFTER = 64
#: entries of the kernel table, oldest out first (arclen uses 8)
MAX_SHAPES = 64
# the kernel table, for surfaces and parameter paths alike: (shape, kind,
# order) -> its evaluations so far, until the RECORD_AFTER-th; from then on
# the recorded factory make(c0, ...) -> kernel, or None for a shape that
# cannot be recorded
_KERNELS = {}


class KernelCache(dict):
    """An owner's bound kernels (bound_kernel): per order, or at "reparam",
    the kernel bound to its trees' constants, or None for good, and at
    "shape" the walk of its trees.  A kernel is a function made by exec,
    which pickle cannot name: a pickled or deep-copied cache is empty, and
    the copy binds its kernels afresh."""

    __slots__ = ()

    def __reduce__(self):
        return KernelCache, ()


def bound_kernel(cache, trees, kind, order):
    """The recorded kernel of ``trees`` at ``kind`` (Jet2 or "reparam" for
    a surface's, Jet1 for a path's) and ``order``, bound to their constants
    and kept in the owner's ``cache`` at "reparam" or ``order``; None until
    the RECORD_AFTER-th evaluation of their shape at (kind, order), counted
    by this call, and for good where the trees cannot be recorded.  The
    trees are walked once per owner, for their shape and constants, kept at
    ``cache["shape"]``; a shape recorded before binds at once."""
    slot = kind if kind == "reparam" else order
    kernel = cache.get(slot, False)
    if kernel is not False:
        return kernel
    shape = cache.get("shape", False)
    if shape is False:
        cache["shape"] = shape = _shape_of(trees)
    if shape is None:
        cache[slot] = None
        return None
    keys, values = shape
    key = (keys, kind, order)
    make = _KERNELS.get(key, 0)
    if make.__class__ is int:
        if make == 0 and len(_KERNELS) >= MAX_SHAPES:
            del _KERNELS[next(iter(_KERNELS))]
        make += 1
        if make < RECORD_AFTER:
            _KERNELS[key] = make
            return None
        from .tape import factory           # loaded at the first recording
        _KERNELS[key] = make = factory(keys, kind, order, len(values))
    cache[slot] = kernel = make and make(*values)
    return kernel


def jet_rows(cache, trees, kind, order, point):
    """The coefficients of the jets of ``trees`` at ``point``, one tuple
    per tree, over the seeds of ``kind`` at ``order`` (_seeds; ``point``
    holds floats).  They come off the trees' bound kernel (bound_kernel,
    kept in the owner's ``cache``), bit for bit what eval_ast gives over
    the seeds, and from eval_ast itself where there is no kernel or it
    hands the point back: it returns None (a value it folded would not
    have been finite) or an elementary function fails in it.  eval_ast
    then raises what it raises, with its own message."""
    kernel = cache.get(kind if kind == "reparam" else order) or bound_kernel(
        cache, trees, kind, order)
    if kernel is not None:
        try:
            rows = kernel(*point)
        except (DomainError, OverflowError, ValueError):
            rows = None
        if rows is not None:
            return rows
    seeds = _seeds(kind, order, point)
    bindings = dict(zip("t" if kind is Jet1 else "uv", seeds))
    return [seeds[0].lift(eval_ast(tree, bindings)).coeffs for tree in trees]


def _seeds(kind, order, point, jet1=Jet1, jet2=Jet2):
    """The jets of the kind's variables at ``point``, as the classes
    ``jet1`` and ``jet2`` (tape records over its recording classes): t at
    (t,) for Jet1; u and v at (u, v) for Jet2; for "reparam", u and v in
    new parameters (s, w) at their origin, (u, v) + J (s, w), at (u, v,
    j00, j01, j10, j11)."""
    if kind is Jet1:
        t, = point
        return [jet1._make(order, (t, 1.0) + (0.0,) * (order - 1))]
    if kind == "reparam":
        s, w = _seeds(Jet2, order, (0.0, 0.0), jet1, jet2)
        u, v, j00, j01, j10, j11 = point
        return [s * j00 + w * j01 + u, s * j10 + w * j11 + v]
    return [jet2._make(order, (x,) + tail)
            for x, tail in zip(point, _SEED_TAILS[order])]


class NotReplayable(Exception):
    """A recording met a branch that only a run-time value decides."""


def _shape(ast, constants):
    """The key of ``ast``'s shape, or None if no variable occurs in it.

    Each maximal variable-free subtree, a constant, is keyed "c" and
    appended to ``constants``, left to right; but the exponent of a power
    and a variable-free divisor are keyed by the hex of their values, as
    (hex,), since eval_ast branches on them over jets (square-and-multiply
    or exp(b log a), and a zero divisor).  A variable is keyed by its name,
    a node by its operator and its children's keys, so trees that differ
    only in their constants share a key, from which tape.factory builds
    the shape.  An exponent that depends on a variable raises NotReplayable.
    """
    kind = type(ast)
    if kind is Var:
        return ast.name
    if kind is BinOp:
        mark = len(constants)
        left = _shape(ast.left, constants)
        right = _shape(ast.right, constants)
        op = ast.op
        if right is None:
            if left is None:
                return None
            if op in "^/":
                right = (eval_ast(ast.right, {}).hex(),)
            else:
                constants.append(ast.right)
                right = "c"
        elif op == "^":
            raise NotReplayable("an exponent that depends on a variable")
        elif left is None:
            constants.insert(mark, ast.left)
            left = "c"
        return op, left, right
    if kind is Call:
        arg = _shape(ast.arg, constants)
        return arg and (ast.func, arg)
    if kind is Neg:
        child = _shape(ast.child, constants)
        return child and ("neg", child)
    return None


def _shape_of(trees):
    """(the key of the shapes of ``trees``, their constants' values) from
    one walk (_shape; a tree without variables is a constant), or None
    where no kernel can stand for eval_ast: an exponent depends on a
    variable, or a number raises or is not finite (log(-1)*t)."""
    constants = []
    try:
        keys = []
        for tree in trees:
            shape = _shape(tree, constants)
            if shape is None:               # the whole tree is a constant
                constants.append(tree)
                shape = "c"
            keys.append(shape)
        values = [eval_ast(c, {}) for c in constants]
    except (NotReplayable, DomainError):
        return None
    if not all(map(math.isfinite, values)):
        return None
    return tuple(keys), values
