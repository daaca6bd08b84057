"""Recorded jet kernels: one evaluation over jet seeds, replayed on floats.

A surface's jets come from walking its three expression trees with
``eval_ast`` over Jet2 seeds, and at every point the walk performs the
same float operations; only the values of u and v change.  Recording
those operations once, "taping" (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008), gives a straight-line Python function
of (u, v) that performs them in the same order, so its coefficients are
the interpreter's bit for bit.  A parameter path (u(t), v(t)) is
recorded the same way over a Jet1 seed, as a function of t.  The
recording runs ``eval_ast`` itself, over seeds whose coefficients are
symbolic: the jets' own products, chain rule, quotients and integer
powers produce the tape, and the chain rule exists in one place only.

Only folds that are exact in IEEE arithmetic are made (see ``_Tape``).
A tree whose evaluation branches on a value that only the run time knows
is not recorded, and a kernel hands back to ``eval_ast`` wherever its
folds might not hold or an elementary function fails: it returns None,
or raises what the function raised, and the caller evaluates again with
``eval_ast``, which reports it.  surfgeo imports this module when it
first records a kernel, and NodeTable when it first samples a curve for
arclen-compare, so a command that evaluates a surface only a few times
never loads it.
"""

from __future__ import annotations

import math
import types

from .expr import BinOp, Call, Neg, Var, eval_ast
from .jets import (
    _PHI,
    _SEED_TAILS,
    MAX_ORDER_1,
    MAX_ORDER_2,
    Jet1,
    Jet2,
    _check_order,
    _phi,
)


class NotReplayable(Exception):
    """A recording met a branch that only a run-time value decides."""


class _Sym:
    """A float of a recording that only the run time knows: the result of
    ``op`` on ``args``.  ``zero``: it is +-0.0 as long as the tape's guarded
    values are finite.  ``negzero``: it may be -0.0."""

    __slots__ = ("tape", "index", "op", "args", "zero", "negzero")

    def __add__(self, other):
        return self.tape.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.tape.sub(self, other)

    def __rsub__(self, other):
        return self.tape.sub(other, self)

    def __mul__(self, other):
        return self.tape.mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.tape.neg(self)

    def _refuse(self, *args):
        raise NotReplayable("a branch on a value known only at run time")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __bool__ = __float__ = __abs__ = _refuse
    __truediv__ = __rtruediv__ = __pow__ = __rpow__ = _refuse


def _is_zero(x):
    """x is +-0.0 (a _Sym: while the guarded values are finite)."""
    return x.zero if x.__class__ is _Sym else x == 0.0


def _may_be_negzero(x):
    """x may be -0.0."""
    if x.__class__ is _Sym:
        return x.negzero
    return x == 0.0 and math.copysign(1.0, x) < 0.0


class _Tape:
    """The float operations of one recording, in the order they ran.

    Literals combine at record time.  Otherwise only IEEE-exact rewrites
    fold: x * 1.0 is x; x + z is x for a zero term z where x cannot be
    -0.0 or z is the literal -0.0; x - z is x + (-z).  A product with a
    zero term is a zero term itself only while its other factor is
    finite (inf * 0.0 is nan), so that factor is guarded: the kernel
    checks it before returning.  Every elementary function of the
    recording is called at run time, even one whose jet is dropped, since
    it may raise."""

    def __init__(self):
        self.nodes = []
        self.guards = {}            # index -> _Sym, an ordered set
        self.seen = {}              # (op, operands) -> _Sym

    def node(self, op, args, zero=False, negzero=True):
        if op != "item":
            # the same operation on the same operands is the same float
            key = (op,) + tuple([a.index if a.__class__ is _Sym else
                                 a if a.__class__ is str else a.hex()
                                 for a in args])
            sym = self.seen.get(key)
            if sym is not None:
                return sym
            self.seen[key] = sym = object.__new__(_Sym)
        else:
            sym = object.__new__(_Sym)
        sym.tape = self
        sym.index = len(self.nodes)
        sym.op = op
        sym.args = args
        sym.zero = zero
        sym.negzero = negzero
        self.nodes.append(sym)
        return sym

    def add(self, a, b):
        if a.__class__ is not _Sym and b.__class__ is not _Sym:
            return a + b
        for x, z in ((a, b), (b, a)):
            if _is_zero(z) and (not _may_be_negzero(x) or (
                    z.__class__ is not _Sym and _may_be_negzero(z))):
                return x
        # a sum is -0.0 only when both terms are
        return self.node("+", (a, b), _is_zero(a) and _is_zero(b),
                         _may_be_negzero(a) and _may_be_negzero(b))

    def sub(self, a, b):
        if a.__class__ is not _Sym and b.__class__ is not _Sym:
            return a - b
        if _is_zero(b):
            return self.add(a, self.neg(b))
        return self.node("-", (a, b), negzero=_may_be_negzero(a))

    def mul(self, a, b):
        if a.__class__ is not _Sym and b.__class__ is not _Sym:
            return a * b
        for x, z in ((a, b), (b, a)):
            if z.__class__ is not _Sym and z == 1.0:
                return x
        for x, z in ((a, b), (b, a)):
            if _is_zero(z):
                if x.__class__ is not _Sym:
                    if math.isfinite(x):
                        return self.node("*", (a, b), zero=True)
                    break
                if not x.zero:
                    self.guards[x.index] = x
                return self.node("*", (a, b), zero=True)
        return self.node("*", (a, b))

    def neg(self, a):
        if a.__class__ is not _Sym:
            return -a
        return self.node("neg", (a,), a.zero)

    def phi(self, name, x):
        call = self.node("phi", (name, x))
        if call.index == len(self.nodes) - 1:      # a call not seen before
            for _ in range(4):
                self.node("item", (call,))
        return tuple(self.nodes[call.index + 1:call.index + 5])

    def kernel(self, outputs, names):
        """The function of the inputs ``names`` (u and v, or t) to
        ``outputs``, a tuple of coefficient tuples: the live operations in
        recorded order, then the guard, which returns None if a guarded
        value is not finite."""
        live = set()
        stack = [x for coeffs in outputs for x in coeffs
                 if x.__class__ is _Sym]
        stack += self.guards.values()
        stack += [n for n in self.nodes if n.op == "phi"]   # they may raise
        while stack:
            n = stack.pop()
            if n.index not in live:
                live.add(n.index)
                stack += [a for a in n.args if a.__class__ is _Sym]
        lines = []
        for n in self.nodes:
            if n.index not in live or n.op in ("in", "item"):
                continue
            if n.op == "phi":
                items = ", ".join(f"t{n.index + k}" for k in range(1, 5))
                name, x = n.args
                lines.append(f"{items} = _d_{name}({_ref(x)})")
            elif n.op == "neg":
                lines.append(f"t{n.index} = -{_ref(n.args[0])}")
            else:
                a, b = n.args
                lines.append(f"t{n.index} = {_ref(a)} {n.op} {_ref(b)}")
        if self.guards:
            # 0.0 * x is +-0.0 for a finite x and nan otherwise
            product = " * ".join(["0.0"] + list(map(_ref,
                                                    self.guards.values())))
            lines.append(f"if {product} != 0.0:\n        return None")
        rows = ", ".join("(" + "".join(f"{_ref(c)}, " for c in coeffs) + ")"
                         for coeffs in outputs)
        lines.append(f"return ({rows},)")
        # _phi's table itself: its errors are eval_ast's to report
        namespace = {f"_d_{name}": f for name, f in _PHI.items()}
        exec(f"def kernel({', '.join(names)}):\n    "
             + "\n    ".join(lines) + "\n", namespace)
        return namespace["kernel"]


def _ref(x):
    """x in kernel source: its variable, or its literal if finite."""
    if x.__class__ is _Sym:
        return x.args[0] if x.op == "in" else f"t{x.index}"
    if not math.isfinite(x):
        raise NotReplayable(f"non-finite literal {x!r}")
    return repr(float(x))


def _recorded_phi(name, x):
    return x.tape.phi(name, x) if x.__class__ is _Sym else _phi(name, x)


class _RecordingJet1(Jet1):
    """Jet1 over recorded floats: Jet1's own code, whose chain rule records
    a _phi call where the argument is known only at run time."""

    __slots__ = ()
    _apply = types.FunctionType(
        Jet1._apply.__code__,
        {**Jet1._apply.__globals__, "_phi": _recorded_phi}, "_apply")


class _RecordingJet2(Jet2):
    """Jet2 over recorded floats, as _RecordingJet1."""

    __slots__ = ()
    _apply = types.FunctionType(
        Jet2._apply.__code__,
        {**Jet2._apply.__globals__, "_phi": _recorded_phi}, "_apply")


# per kind, the names of its seeds and its recording class
_SEEDS = {Jet1: ("t", _RecordingJet1), Jet2: ("uv", _RecordingJet2)}


def record_kernel(evaluate, order, kind=Jet2):
    """Record ``evaluate`` once as a straight-line float function.

    ``evaluate(u, v)`` maps the Jet2 seeds u and v of ``order`` to a
    sequence of Jet2s through the jets' own arithmetic; with ``kind``
    Jet1, ``evaluate(t)`` maps the Jet1 seed t to a sequence of Jet1s.
    The result is kernel(u, v), or kernel(t), -> one coefficient tuple
    per jet: the same float operations in the same order, so each
    coefficient is what evaluate gives at the float seeds, bit for bit.
    The kernel returns None where a value folded at record time would not
    have been finite.  It calls the functions of _phi's table directly, so
    where _phi would raise DomainError it raises that, OverflowError or
    ValueError.  A branch on a value known only at run time raises
    NotReplayable here.
    """
    names, recording = _SEEDS[kind]
    if kind is Jet1:
        _check_order(order, MAX_ORDER_1, "Jet1")
        tails = ((1.0,) + (0.0,) * (order - 1),)
    else:
        _check_order(order, MAX_ORDER_2, "Jet2")
        tails = _SEED_TAILS[order]
    tape = _Tape()
    seeds = [recording._make(order, (tape.node("in", (name,)),) + tail)
             for name, tail in zip(names, tails)]
    return tape.kernel(tuple([jet.coeffs for jet in evaluate(*seeds)]),
                       names)


def _subtrees(ast):
    """The nodes of the tree, each before its operands."""
    yield ast
    kind = type(ast)
    if kind is BinOp:
        yield from _subtrees(ast.left)
        yield from _subtrees(ast.right)
    elif kind is Call:
        yield from _subtrees(ast.arg)
    elif kind is Neg:
        yield from _subtrees(ast.child)


def _record_trees(trees, order, kind):
    """The jet kernel of ``eval_ast`` over ``trees`` (record_kernel), or
    None where a recording cannot stand for eval_ast.  That is a power
    whose exponent depends on a variable (over jets, eval_ast picks
    square-and-multiply or exp(b log a) by the exponent's value), abs of a
    jet (it branches on the value), a non-finite constant that the
    kernel's source would have to spell, and any other failure to record.
    A quotient and a negative power record, as a product with the
    reciprocal (the chain rule of 1/x), as they run on jets of either
    kind."""
    if any(type(node) is BinOp and node.op == "^"
           and any(type(sub) is Var for sub in _subtrees(node.right))
           for tree in trees for node in _subtrees(tree)):
        return None

    def evaluate(*seeds):
        bindings = dict(zip(_SEEDS[kind][0], seeds))
        return [seeds[0].lift(eval_ast(tree, bindings)) for tree in trees]

    try:
        return record_kernel(evaluate, order, kind)
    except Exception:       # eval_ast raises what it should, if anything
        return None


def record_surface(components, order):
    """The jet kernel (u, v) -> three coefficient tuples of a surface's
    component trees at ``order``, or None (see _record_trees)."""
    return _record_trees(components, order, Jet2)


def record_curve(trees):
    """The order-3 jet kernel t -> ((u, u', u'', u'''), (v, v', v'', v'''))
    of a parameter path's trees (u(t), v(t)), or None (see
    _record_trees)."""
    return _record_trees(trees, MAX_ORDER_1, Jet1)
