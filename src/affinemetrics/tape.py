"""Recorded jet kernels: one evaluation over jet seeds, replayed on floats.

A surface's jets come from walking its three expression trees with
``eval_ast`` over Jet2 seeds, and at every point the walk performs the
same float operations; only the values of u and v change.  Recording
those operations once, "taping" (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008), gives a straight-line Python function
of (u, v) that performs them in the same order, so its coefficients are
the interpreter's bit for bit.  A parameter path (u(t), v(t)) is
recorded the same way over a Jet1 seed, as a function of t, and so is a
surface in new parameters ("reparam").  The recording runs ``eval_ast``
itself, over the seeds that expr.jet_rows evaluates over (expr._seeds,
built here of the recording classes), whose coefficients are symbolic:
the jets' own products, chain rule, quotients and integer powers produce
the tape, and the chain rule exists in one place only.

A tree is recorded by its shape (expr._shape), not by its numbers.  Each
maximal variable-free subtree, a constant of the tree, is an input of the
kernel, whose value ``eval_ast`` computes on floats, as the walk over
jets does; only the exponent of a power and a variable-free divisor, on
whose values ``eval_ast`` branches, stay in the shape as numbers.  The
kernels of a shape are made by one factory, make(c0, c1, ...) -> kernel,
which binds the constants as closure cells.  This module only records:
expr's kernel table decides when a shape is recorded and keeps its
factory (expr.bound_kernel), so the curves of an arclen-compare command
and the next one's, which differ only in their numbers, record once;
identities records its curves' and paths' shapes at import (_compile).

Only folds that are exact in IEEE arithmetic are made (see ``_Tape``).
A tree whose evaluation branches on a value that only the run time knows
is not recorded, and a kernel hands back to ``eval_ast`` wherever its
folds might not hold or an elementary function fails: it returns None,
or raises what the function raised, and expr.jet_rows evaluates again
with ``eval_ast``, which reports it.  expr imports this module
at the first recording, when the trees of one shape have been evaluated
expr.RECORD_AFTER times, so a command other than check-identities that
evaluates a surface or a path only a few times never loads it.
"""

from __future__ import annotations

import itertools
import math
import types

from .expr import (
    BinOp,
    Call,
    Const,
    Neg,
    NotReplayable,
    Var,
    _seeds,
    eval_ast,
)
from .jets import _PHI, Jet1, Jet2, _Jet, _phi

class _Sym:
    """A float of a recording that only the run time knows: the result of
    ``op`` on ``args``.  ``zero``: it is +-0.0 as long as the tape's guarded
    values are finite.  ``negzero``: it may be -0.0.

    A constant of the tree meets a jet only as an operand of eval_ast's
    + - * and /, which the jet's own reflected method then computes."""

    __slots__ = ("tape", "index", "op", "args", "zero", "negzero")

    def __add__(self, other):
        if isinstance(other, _Jet):
            return NotImplemented
        return self.tape.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Jet):
            return NotImplemented
        return self.tape.sub(self, other)

    def __rsub__(self, other):
        return self.tape.sub(other, self)

    def __mul__(self, other):
        if isinstance(other, _Jet):
            return NotImplemented
        return self.tape.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Jet):
            return NotImplemented
        self._refuse()

    def __neg__(self):
        return self.tape.neg(self)

    def _refuse(self, *args):
        raise NotReplayable("a branch on a value known only at run time")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __bool__ = __float__ = __abs__ = _refuse
    __rtruediv__ = __pow__ = __rpow__ = _refuse


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
    checks it before returning, unless it is a constant of the tree,
    which is bound finite.  Every elementary function of the recording is
    called at run time, even one whose jet is dropped, since it may
    raise."""

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
                if not x.zero and x.op != "const":
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

    def factory(self, outputs, names, constants):
        """make(*constants) -> the function of the inputs ``names`` (u
        and v, or t) to ``outputs``, a tuple of coefficient tuples: the
        live operations in recorded order, then the guard, which returns
        None if a guarded value is not finite."""
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
            if n.index not in live or n.op in ("in", "const", "item"):
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
            lines += [f"if {product} != 0.0:", "    return None"]
        rows = ", ".join("(" + "".join(f"{_ref(c)}, " for c in coeffs) + ")"
                         for coeffs in outputs)
        lines.append(f"return ({rows},)")
        # _phi's table itself: its errors are eval_ast's to report
        namespace = {f"_d_{name}": f for name, f in _PHI.items()}
        exec(f"def make({', '.join(constants)}):\n"
             f"    def kernel({', '.join(names)}):\n        "
             + "\n        ".join(lines) + "\n    return kernel\n", namespace)
        return namespace["make"]


def _ref(x):
    """x in kernel source: its variable, or its literal if finite."""
    if x.__class__ is _Sym:
        return x.args[0] if x.op in ("in", "const") else f"t{x.index}"
    if not math.isfinite(x):
        raise NotReplayable(f"non-finite literal {x!r}")
    return repr(float(x))


def _recorded_phi(name, x):
    return x.tape.phi(name, x) if x.__class__ is _Sym else _phi(name, x)


def _recorded_float(x):
    """float(x), or x itself if it is a recorded float."""
    return x if x.__class__ is _Sym else float(x)


def _recording(kind):
    """The jet class ``kind`` over recorded floats: its own code, whose
    chain rule records a _phi call where the argument is known only at run
    time, and whose operations with a number and constant jets take a
    recorded float (a constant of the tree) as it is."""
    namespace = {**kind._apply.__globals__, "_phi": _recorded_phi,
                 "float": _recorded_float}
    body = {"__slots__": ()}
    for name in ("_apply", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__"):
        body[name] = types.FunctionType(vars(kind)[name].__code__,
                                        namespace, name)
    body["constant"] = classmethod(types.FunctionType(
        vars(kind)["constant"].__func__.__code__, namespace, "constant"))
    return type(f"_Recording{kind.__name__}", (kind,), body)


_RECORDING1, _RECORDING2 = _recording(Jet1), _recording(Jet2)

# per kind, the kernel's inputs, of which its trees' variables come first
_INPUTS = {Jet1: "t", Jet2: "uv",
           "reparam": ("u", "v", "j00", "j01", "j10", "j11")}


def _record(evaluate, order, kind, constants=()):
    """make(*constants) -> the kernel of ``evaluate``, recorded once as a
    straight-line float function.

    ``evaluate`` is called with the jets of the kind's variables at
    ``order`` (the Jet2 seeds u and v, the Jet1 seed t, or the
    reparametrized u and v), then one recorded float per name of
    ``constants``, and maps them through the jets' own arithmetic to a
    sequence of jets.  The kernel, kernel(u, v) or kernel(t) and so on,
    returns one coefficient tuple per jet: the same float operations in
    the same order, so each coefficient is what evaluate gives at the
    float seeds, bit for bit.  It returns None where a value folded at
    record time would not have been finite.  It calls the functions of
    _phi's table directly, so where _phi would raise DomainError it
    raises that, OverflowError or ValueError.  A branch on a value known
    only at run time raises NotReplayable here."""
    names = _INPUTS[kind]
    tape = _Tape()
    inputs = [tape.node("in", (name,)) for name in names]
    bound = [tape.node("const", (name,)) for name in constants]
    seeds = _seeds(kind, order, inputs, _RECORDING1, _RECORDING2)
    return tape.factory(tuple([jet.coeffs for jet in
                               evaluate(*seeds, *bound)]),
                        names, constants)


def _tree(key, count):
    """The shape tree of ``key`` (expr._shape): its k-th constant, counted by
    the iterator ``count``, is Var("c<k>"), and an exponent or divisor is
    the Const of its value."""
    if key.__class__ is str:
        return Var(f"c{next(count)}" if key == "c" else key)
    if len(key) == 1:
        return Const(float.fromhex(key[0]))
    if len(key) == 2:
        head, child = key
        child = _tree(child, count)
        return Neg(child) if head == "neg" else Call(head, child)
    op, left, right = key
    left = _tree(left, count)
    return BinOp(op, left, _tree(right, count))


def _compile(trees, order, kind, count):
    """make(c0, ..., c<count - 1>) -> the jet kernel of eval_ast over the
    shape ``trees``, or None where a recording cannot stand for eval_ast:
    abs of a jet (it branches on the value), a non-finite number that the
    kernel's source would have to spell, and any other failure to record.
    A quotient and a negative power record, as a product with the
    reciprocal (the chain rule of 1/x), as they run on jets of either
    kind."""
    constants = [f"c{k}" for k in range(count)]
    inputs = (*("t" if kind is Jet1 else "uv"), *constants)

    def evaluate(*seeds):
        bindings = dict(zip(inputs, seeds))
        return [seeds[0].lift(eval_ast(tree, bindings)) for tree in trees]

    try:
        return _record(evaluate, order, kind, constants)
    except Exception:       # eval_ast raises what it should, if anything
        return None


def factory(keys, kind, order, count):
    """make(c0, ..., c<count - 1>) -> the jet kernel of ``kind`` at
    ``order`` of the trees whose expr._shape keys are ``keys``, or None
    where the shape cannot be recorded (see _compile): _tree builds the
    shape, and _compile records it."""
    counter = itertools.count()
    return _compile([_tree(k, counter) for k in keys], order, kind, count)
