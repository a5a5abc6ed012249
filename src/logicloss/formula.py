"""Constraint formulas: AST, a small text DSL, crisp evaluation, negation pushing.

Grammar (keywords lowercase, indexing zero-based):

    formula := "forall" IDENT "in" IDENT ":" formula
             | orz ("->" orz)?
    orz     := andz ("or" andz)*
    andz    := notz ("and" notz)*
    notz    := "not" notz | "(" formula ")" | cmp
    cmp     := expr ("<=" | "<" | ">=" | ">" | "==" | "!=") expr
    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := NUMBER | "-" NUMBER | "out" "[" idx "]" | "in" "[" idx "]"
             | "sum" "(" sumbody ")" | "norm2" "(" vecref "-" vecref ")"
             | IDENT | "(" expr ")"
    sumbody := "out" "[" IDENT "]" | expr ("," expr)*
    vecref  := "out" | "out'" | "in" | "in'"
    idx     := INT | IDENT

A bare IDENT factor must name a constant from the parse context; an IDENT
index must be bound by an enclosing forall.  "forall v in S: body" expands
when it is parsed: the body is read once per binding of the context's set
S, with v standing for that binding (a class index, or a group of them
under "sum(out[v])"), and the instances are joined by `conjoin` into one
left-nested And.  No node of a parsed formula names a variable, so
`to_text` prints a forall as its expansion.  The class indices a context
supplies are integers of any integer type; a bool or a fractional member
is a ParseError.

A formula is evaluated on an `Env`: one sample's numbers, or a whole
batch, each of whose vectors is one (entries, batch) matrix.  `expr_fn`
serves both, and on matrices norm2 is one difference, one square and one
sum over the entry axis, added in the order of the per-sample loop.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .autodiff import Node, gather, sum_entries, vsqrt

CMP_OPS = ("<=", "<", ">=", ">", "==", "!=")
VECTOR_REFS = ("out", "out'", "in", "in'")

Binding = Union[int, tuple]


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class Const:
    value: float


def _check_node_index(kind, index):
    # a bool passes operator.index, but prints as `out[True]`, which the
    # parser rejects
    if not _is_index(index):
        raise TypeError(f"{kind} index must be an integer, not {type(index).__name__}")
    if index < 0:
        raise ValueError(f"{kind} index must be non-negative")


@dataclass(frozen=True, slots=True)
class Input:
    index: int

    def __post_init__(self):
        _check_node_index("input", self.index)


@dataclass(frozen=True, slots=True)
class Output:
    index: int

    def __post_init__(self):
        _check_node_index("output", self.index)


@dataclass(frozen=True, slots=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Sum:
    items: tuple

    def __post_init__(self):
        if not self.items:
            raise ValueError("empty sum")


@dataclass(frozen=True, slots=True)
class Norm2Diff:
    """Euclidean norm of the elementwise difference of two bound vectors."""

    left: str
    right: str

    def __post_init__(self):
        for ref in (self.left, self.right):
            if ref not in VECTOR_REFS:
                raise ValueError(f"unknown vector reference {ref!r}")


Expr = Union[Const, Input, Output, Add, Sub, Mul, Sum, Norm2Diff]


@dataclass(frozen=True, slots=True)
class Cmp:
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Union[Cmp, And, Or, Not, Implies]


def conjoin(parts: Sequence[Formula]) -> Formula:
    """The left-nested And of `parts` in order: ((p0 and p1) and p2) ..."""
    return functools.reduce(And, parts)


# ---------------------------------------------------------------------------
# Environments and errors


class UnboundReference(LookupError):
    """A formula referenced a value the environment does not provide."""


@dataclass
class Env:
    """Value bindings for one sample (or one sample pair).

    For one sample a vector is a sequence of numbers (or of scalar tape
    nodes).  For a batch it is one matrix whose rows are the vector's
    entries and whose columns are the samples (the transposed outputs or
    inputs of the batch), or a tape node holding such a matrix; `out[i]`
    then reads row i, an array over the batch.
    """

    outputs: Sequence = ()
    inputs: Sequence = ()
    outputs2: Sequence = ()
    inputs2: Sequence = ()

    def vector(self, ref: str) -> Sequence:
        if ref == "out":
            return self.outputs
        if ref == "out'":
            return self.outputs2
        if ref == "in":
            return self.inputs
        return self.inputs2


def sample_rows(n: int, paired: bool) -> tuple[int, tuple]:
    """How a batch of n rows is scored: (k units, row selections).

    A one-sample formula scores every row.  A paired formula reads the even
    rows as the first sample and the odd rows as the second, so k = n // 2
    and an odd tail row stays unused.
    """
    if not paired:
        return n, (slice(None),)
    k = n // 2
    return k, (slice(0, 2 * k, 2), slice(1, 2 * k, 2))


def batch_env(outputs: Sequence, inputs: Sequence) -> Env:
    """The bindings of a batch, given the output and the input matrix of
    each row selection from `sample_rows`, in the same order."""
    if len(outputs) == 1:
        return Env(outputs=outputs[0], inputs=inputs[0])
    return Env(outputs=outputs[0], outputs2=outputs[1], inputs=inputs[0], inputs2=inputs[1])


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos

    def __reduce__(self):
        # args holds only the formatted text, which __init__ cannot take back
        return type(self), (self.message, self.pos), self.__dict__


class UnknownIdentifier(ParseError):
    pass


class IndexOutOfRange(ParseError):
    pass


@dataclass
class ParseContext:
    """Names a formula text may refer to.

    binding_sets feed "forall v in NAME"; index_groups let "sum(out[NAME])"
    expand to a concrete sum; consts resolve bare identifiers to numbers.
    """

    n_classes: int
    binding_sets: Mapping[str, Sequence[Binding]] = field(default_factory=dict)
    index_groups: Mapping[str, Sequence[int]] = field(default_factory=dict)
    consts: Mapping[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*'?)
      | (?P<op><=|>=|==|!=|->|[<>+\-*()\[\],:])
    """,
    re.X,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Fail(Exception):
    pass


def _is_index(v) -> bool:
    """Whether `v` is an integer (`operator.index` takes it) other than a
    bool."""
    if isinstance(v, (bool, np.bool_)):
        return False
    try:
        operator.index(v)
    except TypeError:
        return False
    return True


class _Parser:
    def __init__(self, toks, ctx: ParseContext):
        self.toks = toks
        self.ctx = ctx
        self.i = 0
        self.scope: dict[str, Binding] = {}  # forall variable -> its current binding
        self.best: tuple = (-1, "syntax error", ParseError)

    # -- machinery

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message: str, pos: int | None = None, cls=None) -> None:
        if pos is None:
            pos = self.toks[self.i][2]
        if pos > self.best[0]:
            self.best = (pos, message, cls or ParseError)
        raise _Fail()

    def accept(self, kind: str, text: str | None = None):
        k, t, _ = self.toks[self.i]
        if k == kind and (text is None or t == text):
            self.i += 1
            return t
        return None

    def expect(self, kind: str, text: str | None = None, what: str | None = None):
        got = self.accept(kind, text)
        if got is None:
            self.fail(f"expected {what or text or kind}")
        return got

    # -- grammar

    def formula(self):
        if self.peek()[:2] == ("ident", "forall"):
            return self.quant()
        return self.implz()

    def quant(self):
        self.expect("ident", "forall")
        var = self.expect("ident", what="binder variable")
        if var in ("forall", "in", "out", "sum", "not", "and", "or", "norm2"):
            self.fail(f"{var!r} cannot be used as a binder variable", self.toks[self.i - 1][2])
        self.expect("ident", "in")
        set_pos = self.peek()[2]
        set_name = self.expect("ident", what="binding-set name")
        bindings = self.ctx.binding_sets.get(set_name)
        if bindings is None:
            self.fail(f"unknown binding set {set_name!r}", set_pos, UnknownIdentifier)
        norm = self._normalize_bindings(bindings, set_pos)
        self.expect("op", ":")
        start, outer, parts = self.i, self.scope, []
        try:
            for b in norm:
                self.i = start
                self.scope = {**outer, var: b}
                parts.append(self.formula())
        finally:
            self.scope = outer
        return conjoin(parts)

    def _normalize_bindings(self, bindings, pos):
        if len(bindings) == 0:
            self.fail("binding set is empty", pos)
        out = []
        for b in bindings:
            if _is_index(b) or isinstance(b, (str, bytes)) or not hasattr(b, "__iter__"):
                out.append(self._class_index(b, pos))
            else:
                out.append(tuple(self._class_index(i, pos) for i in b))
        kinds = {isinstance(b, tuple) for b in out}
        if len(kinds) != 1:
            self.fail("binding set mixes single indices and index groups", pos)
        return tuple(out)

    def _class_index(self, i, pos) -> int:
        """A context's class index as an int: an integer of any integer
        type, but not a bool, within the number of classes."""
        if not _is_index(i):
            self.fail(f"class index {i!r} must be an integer, not {type(i).__name__}", pos)
        i = operator.index(i)
        self._check_class_index(i, pos)
        return i

    def _check_class_index(self, i, pos):
        if not 0 <= i < self.ctx.n_classes:
            self.fail(
                f"class index {i} out of range for {self.ctx.n_classes} classes",
                pos,
                IndexOutOfRange,
            )

    def implz(self):
        a = self.orz()
        if self.accept("op", "->"):
            return Implies(a, self.orz())
        return a

    def orz(self):
        f = self.andz()
        while self.accept("ident", "or"):
            f = Or(f, self.andz())
        return f

    def andz(self):
        f = self.notz()
        while self.accept("ident", "and"):
            f = And(f, self.notz())
        return f

    def notz(self):
        if self.accept("ident", "not"):
            return Not(self.notz())
        if self.peek()[:2] == ("op", "("):
            mark = self.i
            try:
                self.next()
                f = self.formula()
                self.expect("op", ")")
                return f
            except _Fail:
                self.i = mark
        return self.cmp()

    def cmp(self):
        left = self.expr()
        k, t, _ = self.peek()
        if k == "op" and t in CMP_OPS:
            self.next()
            return Cmp(t, left, self.expr())
        self.fail("expected a comparison operator")

    def expr(self):
        e = self.term()
        while True:
            if self.accept("op", "+"):
                e = Add(e, self.term())
            elif self.accept("op", "-"):
                e = Sub(e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while self.accept("op", "*"):
            e = Mul(e, self.factor())
        return e

    def factor(self):
        k, t, pos = self.peek()
        if k == "num":
            self.next()
            return Const(float(t))
        if k == "op" and t == "-":
            self.next()
            n = self.expect("num", what="a number after unary '-'")
            return Const(-float(n))
        if k == "op" and t == "(":
            self.next()
            e = self.expr()
            self.expect("op", ")")
            return e
        if k == "ident":
            if t == "out":
                self.next()
                return Output(self._index(for_output=True))
            if t == "in":
                self.next()
                return Input(self._index(for_output=False))
            if t == "sum":
                self.next()
                self.expect("op", "(")
                e = self._sumbody()
                self.expect("op", ")")
                return e
            if t == "norm2":
                self.next()
                self.expect("op", "(")
                left = self._vecref()
                self.expect("op", "-")
                right = self._vecref()
                self.expect("op", ")")
                return Norm2Diff(left, right)
            if t in self.ctx.consts:
                self.next()
                return Const(float(self.ctx.consts[t]))
            self.fail(f"unknown identifier {t!r}", pos, UnknownIdentifier)
        self.fail("expected a number, out[...], in[...], sum(...), or '('")

    def _index(self, for_output: bool):
        self.expect("op", "[")
        k, t, pos = self.peek()
        if k == "num":
            self.next()
            if "." in t or "e" in t or "E" in t:
                self.fail("index must be an integer", pos)
            idx = int(t)
            if for_output:
                self._check_class_index(idx, pos)
        elif k == "ident":
            self.next()
            if t not in self.scope:
                self.fail(f"unknown identifier {t!r}", pos, UnknownIdentifier)
            idx = self.scope[t]
            if isinstance(idx, tuple):
                self.fail(f"{t!r} is bound to an index group, not a single index", pos)
        else:
            self.fail("expected an index")
        self.expect("op", "]")
        return idx

    def _sumbody(self):
        # "out [ IDENT ]" where IDENT names a group: special-cased before
        # falling back to a plain expression list.
        if self.peek()[:2] == ("ident", "out"):
            mark = self.i
            self.next()
            if self.accept("op", "["):
                k, t, pos = self.peek()
                if k == "ident":
                    members = self.scope.get(t)
                    if isinstance(members, tuple):
                        self.next()
                        self.expect("op", "]")
                        return Sum(tuple(Output(i) for i in members))
                    if t not in self.scope and t in self.ctx.index_groups:
                        self.next()
                        self.expect("op", "]")
                        members = (self._class_index(i, pos) for i in self.ctx.index_groups[t])
                        return Sum(tuple(Output(i) for i in members))
            self.i = mark
        items = [self.expr()]
        while self.accept("op", ","):
            items.append(self.expr())
        return Sum(tuple(items))

    def _vecref(self):
        k, t, pos = self.peek()
        if k == "ident" and t in VECTOR_REFS:
            self.next()
            return t
        self.fail("expected one of out, out', in, in'")


def parse(text: str, ctx: ParseContext) -> Formula:
    """Parse a formula; raises ParseError with a position on bad input."""
    toks = _tokenize(text)
    p = _Parser(toks, ctx)
    try:
        f = p.formula()
        if p.peek()[0] != "end":
            p.fail("unexpected trailing input")
        return f
    except _Fail:
        pos, message, cls = p.best
        raise cls(message, pos) from None


# ---------------------------------------------------------------------------
# Printer (inverse of parse; every composite is parenthesized)


def expr_text(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Output):
        return f"out[{e.index}]"
    if isinstance(e, Input):
        return f"in[{e.index}]"
    if isinstance(e, Add):
        return f"({expr_text(e.left)} + {expr_text(e.right)})"
    if isinstance(e, Sub):
        return f"({expr_text(e.left)} - {expr_text(e.right)})"
    if isinstance(e, Mul):
        return f"({expr_text(e.left)} * {expr_text(e.right)})"
    if isinstance(e, Sum):
        return f"sum({', '.join(expr_text(x) for x in e.items)})"
    if isinstance(e, Norm2Diff):
        return f"norm2({e.left} - {e.right})"
    raise TypeError(f"not an expression: {e!r}")


def to_text(f: Formula) -> str:
    if isinstance(f, Cmp):
        return f"{expr_text(f.left)} {f.op} {expr_text(f.right)}"
    if isinstance(f, And):
        return f"({to_text(f.left)} and {to_text(f.right)})"
    if isinstance(f, Or):
        return f"({to_text(f.left)} or {to_text(f.right)})"
    if isinstance(f, Implies):
        return f"({to_text(f.left)} -> {to_text(f.right)})"
    if isinstance(f, Not):
        return f"(not {to_text(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Conjuncts and their templates


def conjuncts(f: Formula) -> tuple:
    """The conjuncts of a conjunction in fold order: the left spine of an
    And chain ((a and b) and c gives a, b, c; a and (b and c) gives a and
    the conjunction b and c)."""
    spine = []
    while isinstance(f, And):
        spine.append(f.right)
        f = f.left
    spine.append(f)
    return tuple(reversed(spine))


class _NoTemplate(Exception):
    pass


_BINARY = (Add, Sub, Mul, And, Or, Implies)


def template(g: Formula):
    """(shape, output indices, input indices) of a conjunct, or None.

    One walk over `g` lists its node kinds, operators and constants in
    pre-order, with each out[...] index replaced by its slot: the indices
    numbered 0, 1, ... by first appearance, and the in[...] indices
    likewise.  That flat tuple is the shape, so conjuncts that differ only
    in which entries they read have equal shapes (which hash together), and
    the index tuples give the original index of each slot.  A conjunct that
    reads no single entry or reads a whole or primed vector (norm2) has no
    template.
    """
    slots = {Output: {}, Input: {}}
    shape = []

    def walk(h):
        kind = type(h)
        shape.append(kind)
        if kind is Output or kind is Input:
            seen = slots[kind]
            shape.append(seen.setdefault(h.index, len(seen)))
        elif kind is Const:
            shape.append(h.value)
        elif kind is Cmp:
            shape.append(h.op)
            walk(h.left)
            walk(h.right)
        elif kind in _BINARY:
            walk(h.left)
            walk(h.right)
        elif kind is Not:
            walk(h.body)
        elif kind is Sum:
            shape.append(len(h.items))
            for x in h.items:
                walk(x)
        else:
            raise _NoTemplate

    try:
        walk(g)
    except _NoTemplate:
        return None
    outs, ins = tuple(slots[Output]), tuple(slots[Input])
    if not outs and not ins:
        return None
    return tuple(shape), outs, ins


# ---------------------------------------------------------------------------
# Negation pushing

# A negated comparison is replaced by its complement, written with < / <=
# only:  not (x <= y)  becomes  y < x,  and so on.
_NEG_CMP: dict[str, Callable[[Expr, Expr], Cmp]] = {
    "<=": lambda l, r: Cmp("<", r, l),
    "<": lambda l, r: Cmp("<=", r, l),
    ">=": lambda l, r: Cmp("<", l, r),
    ">": lambda l, r: Cmp("<=", l, r),
    "==": lambda l, r: Cmp("!=", l, r),
    "!=": lambda l, r: Cmp("==", l, r),
}


def push_negations(f: Formula, rewrite_implication: bool = False) -> Formula:
    """Push negations down to comparisons (negation normal form).

    With rewrite_implication=True, "a -> b" additionally becomes
    "(not a) or b", for loss semantics without a native implication.
    """

    def pos(g):
        if isinstance(g, Cmp):
            return g
        if isinstance(g, And):
            return And(pos(g.left), pos(g.right))
        if isinstance(g, Or):
            return Or(pos(g.left), pos(g.right))
        if isinstance(g, Implies):
            if rewrite_implication:
                return Or(neg(g.left), pos(g.right))
            return Implies(pos(g.left), pos(g.right))
        if isinstance(g, Not):
            return neg(g.body)
        raise TypeError(f"not a formula: {g!r}")

    def neg(g):
        if isinstance(g, Cmp):
            return _NEG_CMP[g.op](g.left, g.right)
        if isinstance(g, And):
            return Or(neg(g.left), neg(g.right))
        if isinstance(g, Or):
            return And(neg(g.left), neg(g.right))
        if isinstance(g, Implies):
            return And(pos(g.left), neg(g.right))
        if isinstance(g, Not):
            return pos(g.body)
        raise TypeError(f"not a formula: {g!r}")

    return pos(f)


# ---------------------------------------------------------------------------
# Crisp evaluation

_CMP_FN = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "!=": operator.ne,
}


def _is_matrix(vector) -> bool:
    """Whether an `Env` vector is a batch's matrix (or a node holding one)
    rather than one sample's numbers."""
    return isinstance(vector, Node) or (isinstance(vector, np.ndarray) and vector.ndim == 2)


def _entry_count(vector) -> int:
    return len(vector.value if isinstance(vector, Node) else vector)


def _pick(vector, i: int, what: str):
    if i < _entry_count(vector):
        return gather(vector, i) if isinstance(vector, Node) else vector[i]
    raise UnboundReference(f"{what}[{i}] is not bound by the environment")


def expr_fn(e: Expr) -> Callable[[Env], object]:
    """Compile an arithmetic expression to a function of the bindings.

    The one evaluator of "+ - *", sum and norm2: the crisp evaluator and
    every loss semantics call it.  It returns whatever the bindings hold
    arithmetic over: floats, arrays over a batch axis, or tape nodes.
    """
    if isinstance(e, Const):
        c = e.value
        return lambda env: c
    if isinstance(e, Output):
        i = e.index
        return lambda env: _pick(env.outputs, i, "out")
    if isinstance(e, Input):
        i = e.index
        return lambda env: _pick(env.inputs, i, "in")
    if isinstance(e, Add):
        fl, fr = expr_fn(e.left), expr_fn(e.right)
        return lambda env: fl(env) + fr(env)
    if isinstance(e, Sub):
        fl, fr = expr_fn(e.left), expr_fn(e.right)
        return lambda env: fl(env) - fr(env)
    if isinstance(e, Mul):
        fl, fr = expr_fn(e.left), expr_fn(e.right)
        return lambda env: fl(env) * fr(env)
    if isinstance(e, Sum):
        fns = tuple(expr_fn(x) for x in e.items)
        def run(env):
            total = 0.0
            for fn in fns:
                total = total + fn(env)
            return total
        return run
    if isinstance(e, Norm2Diff):
        lref, rref = e.left, e.right
        def run(env):
            a = env.vector(lref)
            b = env.vector(rref)
            na, nb = _entry_count(a), _entry_count(b)
            if na == 0 or nb == 0:
                raise UnboundReference(f"norm2({lref} - {rref}): a vector is not bound")
            if na != nb:
                raise UnboundReference(f"norm2({lref} - {rref}): vector lengths differ")
            if _is_matrix(a) and _is_matrix(b):
                # the float fold below, for every sample at once
                d = a - b
                return vsqrt(sum_entries(d * d))
            total = 0.0
            for x, y in zip(a, b):
                d = x - y
                total = total + d * d
            return vsqrt(total)
        return run
    raise TypeError(f"not an expression: {e!r}")


def crisp_fn(f: Formula) -> Callable[[Env], bool]:
    """Compile a formula to a classical (two-valued) evaluator.

    The evaluator takes the bindings of one sample (floats) and returns a
    bool, or the bindings of a whole batch (each vector entry an array over
    the batch axis) and returns a boolean array with one entry per sample.
    The connectives short-circuit on a scalar and apply elementwise
    (&, |, ~) once a value is an array.
    """
    if isinstance(f, Cmp):
        fl, fr = expr_fn(f.left), expr_fn(f.right)
        op = _CMP_FN[f.op]
        return lambda env: op(fl(env), fr(env))
    if isinstance(f, And):
        fl, fr = crisp_fn(f.left), crisp_fn(f.right)
        def run(env):
            a = fl(env)
            return a & fr(env) if isinstance(a, np.ndarray) else a and fr(env)
        return run
    if isinstance(f, Or):
        fl, fr = crisp_fn(f.left), crisp_fn(f.right)
        def run(env):
            a = fl(env)
            return a | fr(env) if isinstance(a, np.ndarray) else a or fr(env)
        return run
    if isinstance(f, Implies):
        fl, fr = crisp_fn(f.left), crisp_fn(f.right)
        def run(env):
            a = fl(env)
            return ~a | fr(env) if isinstance(a, np.ndarray) else (not a) or fr(env)
        return run
    if isinstance(f, Not):
        fb = crisp_fn(f.body)
        def run(env):
            b = fb(env)
            return ~b if isinstance(b, np.ndarray) else not b
        return run
    raise TypeError(f"not a formula: {f!r}")


def eval_crisp(f: Formula, env: Env) -> bool:
    """Classical truth of a formula under the given bindings."""
    return crisp_fn(f)(env)


def uses_paired_samples(f: Formula) -> bool:
    """Whether the formula reads the primed (second-sample) vectors."""

    def in_expr(e) -> bool:
        if isinstance(e, Norm2Diff):
            return e.left in ("out'", "in'") or e.right in ("out'", "in'")
        if isinstance(e, (Add, Sub, Mul)):
            return in_expr(e.left) or in_expr(e.right)
        if isinstance(e, Sum):
            return any(in_expr(x) for x in e.items)
        return False

    if isinstance(f, Cmp):
        return in_expr(f.left) or in_expr(f.right)
    if isinstance(f, (And, Or, Implies)):
        return uses_paired_samples(f.left) or uses_paired_samples(f.right)
    if isinstance(f, Not):
        return uses_paired_samples(f.body)
    raise TypeError(f"not a formula: {f!r}")
