"""Expression DSL for chart-dependent scalar coefficients.

Grammar (EBNF, also reproduced in the README):

    expression  = term { ("+" | "-") term } ;
    term        = unary { ("*" | "/") unary } ;
    unary       = "-" unary | power ;
    power       = atom [ "^" exponent ] ;
    exponent    = [ "-" ] integer { "^" [ "-" ] integer } ;   (* right-assoc *)
    atom        = number | variable | ref
                | function "(" expression ")" | "(" expression ")" ;
    variable    = "x" integer ;                               (* 1-based *)
    ref         = "$" integer ;               (* 0-based index into defs *)
    function    = "sin" | "cos" | "exp" | "ln" | "sqrt" ;

Power binds tighter than unary minus, which binds tighter than "*" and "/",
which bind tighter than "+" and "-".  Exponents are integer literals, so
an exponent chain folds right-associatively into a single integer at parse
time.

Nodes are interned where they are built (the parser and the e_*
constructors): equal subtrees are one object, so an expression is a DAG
whose size is its count of distinct subexpressions, however long its
printed text.  Evaluation works over three scalar kinds, each distinct
node once per call: plain floats, Jet values (exact truncated
derivatives), and numpy arrays (for a Finsler metric written as one
expression in x and y, such as the tests' ones, at many directions at
once; array evaluation skips domain checks and lets non-finite values
flow, callers mask them).  The package's own trees go through
riemann.evaluate, over floats and jets only.

The first evaluation of a tree set (the roots of one eval_expr call)
walks its DAG and records the walk as a tape: a flat list of steps, one
per operator node, in the walk's post-order (lhs before rhs, roots in
sequence order), each naming the slots of its operands and of its
result.  A later evaluation of the same roots replays the tape, a loop
over its steps with no recursion and no memo, running the walk's
operations on the same operands in the same order, so every value has
the bits the walk gives it, for floats, jets and arrays alike.  A walk
that raises records nothing, and a replay that raises walks again, so
an error is the walk's ExprDomainError with its message and node.  A
cache of fixed size keeps the tapes, keyed by the tuple of roots (nodes
hash by identity); the oldest tape goes first.

The e_* constructors, which build the trees conversions derive, also
fold trivial identities: an operation on two constants becomes its
constant when the float result is finite and nothing raises (no folding
of "/0"); 0*e and e*0 become 0.0; 1*e, e*1, e+0, 0+e and e/1 become e;
0/e becomes 0.0 when e is not a constant; -(-e) becomes e; a negated or
powered constant becomes a constant.  Two corners are not exact: a
folded 0*e (or 0/e) drops an e that would be non-finite or raise, and
a folded 0*e, 0/e or e+0 can flip the sign of a zero.  The parser does
not fold, so text means what it says: "0*ln(x1)" still raises where
x1 <= 0.

Text follows the DAG too.  A document names each shared subexpression
once, as a def, and its texts refer to def k as "$k"; a reference
parses to the def's node itself.  print_expr writes a document's texts
and defs in one pass over its distinct nodes, and the parser tokenizes
a whole text before parsing it, so the first bad character in a text is
the error it reports.
"""
from __future__ import annotations

import math
import operator
import re
import weakref
from dataclasses import dataclass

import numpy as np

from .jets import Jet, JetDomainError

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")
_MAX_EXPONENT = 4096


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprNameError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class ExprIndexError(ExprError):
    def __init__(self, index: int, dim: int, offset: int):
        super().__init__(
            f"variable index {index} out of range 1..{dim} (offset {offset})"
        )
        self.index = index
        self.offset = offset


class ExprDomainError(ExprError):
    def __init__(self, message: str, node):
        super().__init__(f"{message} in '{print_node(node)}'")
        self.node = node


# -- AST nodes -------------------------------------------------------------


# Node classes are slotted classes with hand-written methods.  They keep
# the dataclass field records (dataclasses.fields, which perfbench's
# tracer reads) but no generated methods: generating the methods of a
# frozen dataclass is about 0.9 ms of import per class, against 0.03 ms
# for the records alone.
_node_class = dataclass(init=False, repr=False, eq=False)

_INTERNED = weakref.WeakValueDictionary()


class _Node:
    """An interned expression node: building one with the fields of a
    live node returns that node, so equal structures are one object and
    compare and hash by identity.

    Children key by identity, which is structural because they were
    interned too; a constant keys by its hex text, so 0.0 and -0.0
    differ.
    """

    __slots__ = ("__weakref__",)
    _fields = ()

    def __new__(cls, *fields):
        if cls is Const:
            key = (cls, fields[0].hex())
        elif cls is Var:
            key = (cls, fields[0])
        elif cls is Pow:
            key = (cls, id(fields[0]), fields[1])
        elif cls is Call:
            key = (cls, fields[0], id(fields[1]))
        else:
            key = (cls, *map(id, fields))
        node = _INTERNED.get(key)
        if node is None:
            if len(fields) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
            _INTERNED[key] = node
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # a copy or an unpickled node is built, so interned, anew
        return type(self), tuple(getattr(self, f) for f in self._fields)


@_node_class
class Const(_Node):
    """A float constant."""

    __slots__ = _fields = ("value",)
    value: float


@_node_class
class Var(_Node):
    """The chart variable x<index>."""

    __slots__ = _fields = ("index",)
    index: int  # 1-based


@_node_class
class Add(_Node):
    """lhs + rhs."""

    __slots__ = _fields = ("lhs", "rhs")
    lhs: object
    rhs: object


@_node_class
class Sub(_Node):
    """lhs - rhs."""

    __slots__ = _fields = ("lhs", "rhs")
    lhs: object
    rhs: object


@_node_class
class Mul(_Node):
    """lhs * rhs."""

    __slots__ = _fields = ("lhs", "rhs")
    lhs: object
    rhs: object


@_node_class
class Div(_Node):
    """lhs / rhs."""

    __slots__ = _fields = ("lhs", "rhs")
    lhs: object
    rhs: object


@_node_class
class Pow(_Node):
    """base^exponent, an integer exponent."""

    __slots__ = _fields = ("base", "exponent")
    base: object
    exponent: int


@_node_class
class Neg(_Node):
    """-operand."""

    __slots__ = _fields = ("operand",)
    operand: object


@_node_class
class Call(_Node):
    """fn(arg), fn one of FUNCTIONS."""

    __slots__ = _fields = ("fn", "arg")
    fn: str
    arg: object


@dataclass(frozen=True)
class ExprAst:
    """A parsed expression plus the chart dimension it was declared over."""

    root: object
    dim: int

    def __str__(self):
        return print_node(self.root)


# -- scanner ----------------------------------------------------------------

_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the usual token after optional whitespace; any other text goes through
# the character rules of _scan.  \s is str.isspace and \d str.isdecimal
# (a subset of str.isdigit), so both routes cut the same tokens.
_TOKEN_RE = re.compile(
    rf"\s*(?:({_NUM_RE.pattern})|({_IDENT_RE.pattern})|([-+*/^])|(\()|(\))"
    r"|(\$\d+))"
)
_KINDS = (None, "NUM", "IDENT", "OP", "LPAREN", "RPAREN", "REF")
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}


def _scan(text: str) -> list:
    """Every token of text as (kind, text, offset), ending in an END
    token; the first bad character raises."""
    tokens, i, n = [], 0, len(text)
    while True:
        m = _TOKEN_RE.match(text, i)
        if m:
            k = m.lastindex
            tokens.append((_KINDS[k], m.group(k), m.start(k)))
            i = m.end()
            continue
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            return tokens + [("END", "", n)]
        ch = text[i]
        if ch.isdigit() or ch == ".":
            raise ExprSyntaxError("malformed number", i)
        raise ExprSyntaxError(f"unexpected character '{ch}'", i)


# -- parser -----------------------------------------------------------------


class _Parser:
    """Recursive descent over a text's tokens."""

    def __init__(self, tokens, dim, refs):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.refs = refs

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])

    def parse(self):
        node = self.expression()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprSyntaxError(f"unexpected token '{tok[1]}'", tok[2])
        return node

    def binary(self, ops, operand):
        """A left-associative chain of operand() joined by ops."""
        node = operand()
        while self.peek()[0] == "OP" and self.peek()[1] in ops:
            op = self.advance()[1]
            node = _BINARY[op](node, operand())
        return node

    def expression(self):
        return self.binary("+-", self.term)

    def term(self):
        return self.binary("*/", self.unary)

    def unary(self):
        tok = self.peek()
        if tok[0] == "OP" and tok[1] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "OP" and self.peek()[1] == "^":
            self.advance()
            return Pow(base, self.exponent_chain())
        return base

    def exponent_chain(self) -> int:
        exps = [self.signed_int()]
        while self.peek()[0] == "OP" and self.peek()[1] == "^":
            self.advance()
            exps.append(self.signed_int())
        acc = exps[-1]
        for e in reversed(exps[:-1]):
            if acc < 0:
                raise ExprSyntaxError(
                    "negative exponent inside an exponent chain", self.peek()[2]
                )
            acc = e**acc
            if abs(acc) > _MAX_EXPONENT:
                raise ExprSyntaxError("exponent too large", self.peek()[2])
        return acc

    def signed_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok[0] == "OP" and tok[1] == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok[0] != "NUM":
            raise ExprSyntaxError("expected integer exponent", tok[2])
        self.advance()
        if any(c in tok[1] for c in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", tok[2])
        val = sign * int(tok[1])
        if abs(val) > _MAX_EXPONENT:
            raise ExprSyntaxError("exponent too large", tok[2])
        return val

    def atom(self):
        tok = self.advance()
        if tok[0] == "NUM":
            return Const(float(tok[1]))
        if tok[0] == "REF":
            k = int(tok[1][1:])
            if k >= len(self.refs):
                raise ExprSyntaxError(
                    f"reference '{tok[1]}' names none of {len(self.refs)} defs",
                    tok[2])
            return self.refs[k]
        if tok[0] == "IDENT":
            name, off = tok[1], tok[2]
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= self.dim:
                    raise ExprIndexError(index, self.dim, off)
                return Var(index)
            if name in FUNCTIONS:
                self.expect("LPAREN", f"'(' after {name}")
                arg = self.expression()
                self.expect("RPAREN", "')'")
                return Call(name, arg)
            raise ExprNameError(name, off)
        if tok[0] == "LPAREN":
            node = self.expression()
            self.expect("RPAREN", "')'")
            return node
        raise ExprSyntaxError(f"unexpected token '{tok[1] or 'end of input'}'", tok[2])


def parse_expr(text: str, dim: int, refs=()) -> ExprAst:
    """Parse the DSL string into an AST declared over x1..x<dim>.

    refs holds the nodes of a document's defs: "$k" is refs[k] itself.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return ExprAst(_Parser(_scan(text), dim, refs).parse(), dim)


# -- printer ----------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}
_OPS = {cls: op for op, cls in _BINARY.items()}


def _prec(node) -> int:
    if isinstance(node, Const) and node.value < 0:
        return 0  # force parens so the sign survives reparsing
    return _PREC.get(type(node), 9)


def _children(node) -> list:
    """node's operands, in order; a Const or Var has none."""
    return [v for v in map(node.__getattribute__, node._fields)
            if not isinstance(v, (int, float, str))]


class _Printer:
    """Prints each distinct node once and splices its text wherever the
    node recurs.  An operator node with two or more referrers becomes a
    def when its text is longer than its "$k"; its referrers then splice
    "$k", an atom."""

    def __init__(self, referrers):
        self.referrers = referrers  # id(n) -> the count of n's referrers
        self.texts = {}  # id(n) -> the text a referrer of n splices
        self.refs = set()  # ids of the nodes spliced as "$k"
        self.defs = []

    def prec(self, node) -> int:
        return 9 if id(node) in self.refs else _prec(node)

    def text(self, node) -> str:
        """node's text; it does not depend on the parent, which adds any
        parentheses around it."""
        text = self.texts.get(id(node))
        if text is not None:
            return text
        if isinstance(node, Const):
            text = repr(node.value)
        elif isinstance(node, Var):
            text = f"x{node.index}"
        elif isinstance(node, Neg):
            inner = self.text(node.operand)
            if self.prec(node.operand) < _PREC[Neg]:
                inner = f"({inner})"
            text = f"-{inner}"
        elif isinstance(node, Pow):
            base = self.text(node.base)
            # a Pow base also needs parens: "x^2^3" would reparse as a
            # folded exponent chain rather than a nested power
            if self.prec(node.base) <= _PREC[Pow]:
                base = f"({base})"
            text = f"{base}^{node.exponent}"
        elif isinstance(node, Call):
            text = f"{node.fn}({self.text(node.arg)})"
        elif isinstance(node, (Add, Sub, Mul, Div)):
            prec = _PREC[type(node)]
            left = self.text(node.lhs)
            if self.prec(node.lhs) < prec:
                left = f"({left})"
            right = self.text(node.rhs)
            # left-associative: equal precedence on the right needs parens
            if self.prec(node.rhs) <= prec:
                right = f"({right})"
            text = f"{left} {_OPS[type(node)]} {right}"
        else:
            raise TypeError(f"not an expression node: {node!r}")
        ref = f"${len(self.defs)}"
        if (self.referrers.get(id(node), 0) > 1
                and not isinstance(node, (Const, Var)) and len(text) > len(ref)):
            self.defs.append(text)
            self.refs.add(id(node))
            text = ref
        self.texts[id(node)] = text
        return text


def print_node(node) -> str:
    """The DSL text of node, with no defs."""
    return _Printer({}).text(node)


def print_expr(exprs):
    """(texts, defs): the text of each ExprAst of exprs, and the defs
    that the texts name as "$k".

    A node's referrers are its distinct parents, plus one when it is a
    root.  A def is an operator node with two or more referrers
    whose text is longer than its "$k".  Children are printed before
    parents, so a def names only earlier defs.
    """
    referrers = {}

    def count(node):
        if id(node) in referrers:
            return
        referrers[id(node)] = 0
        for child in {id(c): c for c in _children(node)}.values():
            count(child)
            referrers[id(child)] += 1

    for root in {id(e.root): e.root for e in exprs}.values():
        count(root)
        referrers[id(root)] += 1
    printer = _Printer(referrers)
    return [printer.text(e.root) for e in exprs], printer.defs


# -- evaluation --------------------------------------------------------------


_FLOAT_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}
_ARRAY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
}


def _call_float(fn, v, node):
    if fn == "ln" and v <= 0.0:
        raise ExprDomainError(f"ln of nonpositive value {v}", node)
    if fn == "sqrt" and v < 0.0:
        raise ExprDomainError(f"sqrt of negative value {v}", node)
    try:
        return _FLOAT_FUNCS[fn](v)
    except OverflowError:
        raise ExprDomainError("range overflow", node) from None


def _call(node, v, arrays):
    """fn(v) for a Call node; arrays says whether the environment holds
    a numpy array."""
    if isinstance(v, Jet):
        try:
            if node.fn == "ln":
                return v.log()
            return getattr(v, node.fn)()
        except JetDomainError as exc:
            raise ExprDomainError(str(exc), node) from None
    if arrays or isinstance(v, np.ndarray):
        # a constant argument (a folded subtree) under an array
        # environment takes the array route too, as its unfolded tree
        # would, and gives a 0-d array
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(_ARRAY_FUNCS[node.fn](v))
    return _call_float(node.fn, v, node)


def _div(num, den, node):
    if isinstance(den, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den
    try:
        return num / den
    except (ZeroDivisionError, JetDomainError):
        raise ExprDomainError("division by zero", node) from None


def _pow(base, p, node):
    if isinstance(base, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.power(base, float(p))
    try:
        return base**p
    except (ZeroDivisionError, JetDomainError):
        raise ExprDomainError(
            "zero base with negative exponent", node) from None
    except OverflowError:
        raise ExprDomainError("range overflow", node) from None


# A tape is the walk of one tree set written down: (n, template, steps,
# outs).  A replay copies the template, which holds each constant of the
# set at its slot, puts the n values of the environment in the first n
# slots, and runs the steps (code, i, j, out, node) in order: slot out
# gets code's operation on the values in slots i and j (a Pow step holds
# its exponent in j).  The roots' values are then in the slots outs.
_ADD, _SUB, _MUL, _DIV, _POW, _NEG, _CALL = range(7)
_BINARY_CODES = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}

# tree sets whose tapes are kept; the oldest goes first
_TAPE_LIMIT = 64
_TAPES = {}


def _record(node, slots, vals, steps, consts, index, arrays):
    """node's slot in vals, which starts as the environment: evaluates
    the nodes under node that slots does not hold yet, in post-order
    (lhs before rhs), appending each value to vals and each operator
    node's step to steps, and each constant's slot to consts.  index is
    range(len(env))."""
    slot = slots.get(node)
    if slot is not None:
        return slot
    cls = node.__class__
    if cls is Var:
        # the slot of env[index - 1], so an index past env raises
        slots[node] = slot = index[node.index - 1]
        return slot
    if cls is Const:
        slots[node] = slot = len(vals)
        vals.append(node.value)
        consts.append(slot)
        return slot
    b = 0
    if cls is Pow:
        a = _record(node.base, slots, vals, steps, consts, index, arrays)
        code, b = _POW, node.exponent
        value = _pow(vals[a], b, node)
    elif cls is Neg:
        a = _record(node.operand, slots, vals, steps, consts, index, arrays)
        code, value = _NEG, -vals[a]
    elif cls is Call:
        a = _record(node.arg, slots, vals, steps, consts, index, arrays)
        code, value = _CALL, _call(node, vals[a], arrays)
    else:
        code = _BINARY_CODES.get(cls)
        if code is None:
            raise TypeError(f"not an expression node: {node!r}")
        a = _record(node.lhs, slots, vals, steps, consts, index, arrays)
        b = _record(node.rhs, slots, vals, steps, consts, index, arrays)
        if code == _ADD:
            value = vals[a] + vals[b]
        elif code == _SUB:
            value = vals[a] - vals[b]
        elif code == _MUL:
            value = vals[a] * vals[b]
        else:
            value = _div(vals[a], vals[b], node)
    slots[node] = slot = len(vals)
    vals.append(value)
    steps.append((code, a, b, slot, node))
    return slot


def _walk(roots, env, arrays):
    """The values of roots at env, evaluated node by node, and their
    tape."""
    slots, vals, steps, consts = {}, list(env), [], []
    index = range(len(env))
    outs = [_record(root, slots, vals, steps, consts, index, arrays)
            for root in roots]
    template = [None] * len(vals)
    for slot in consts:
        template[slot] = vals[slot]
    # a tape is tuples: a list would keep the spare room it grew with
    return [vals[k] for k in outs], (
        len(env), tuple(template), tuple(steps), tuple(outs))


def _replay(tape, env, arrays):
    """The values the tape's walk gives at env: its operations on the
    same operands, in the same order.  A domain fault raises what the
    operation raises (an ArithmeticError or a ValueError), not
    ExprDomainError."""
    n, template, steps, outs = tape
    vals = list(template)
    vals[:n] = env
    for code, i, j, out, node in steps:
        if code == _MUL:
            vals[out] = vals[i] * vals[j]
        elif code == _ADD:
            vals[out] = vals[i] + vals[j]
        elif code == _NEG:
            vals[out] = -vals[i]
        elif code == _SUB:
            vals[out] = vals[i] - vals[j]
        elif arrays:
            # the walk's own helpers, which mute numpy's warnings
            if code == _DIV:
                vals[out] = _div(vals[i], vals[j], node)
            elif code == _POW:
                vals[out] = _pow(vals[i], j, node)
            else:
                vals[out] = _call(node, vals[i], arrays)
        elif code == _DIV:
            vals[out] = vals[i] / vals[j]
        elif code == _POW:
            vals[out] = vals[i] ** j
        elif vals[i].__class__ is float:
            vals[out] = _FLOAT_FUNCS[node.fn](vals[i])
        else:
            vals[out] = _call(node, vals[i], arrays)
    return [vals[k] for k in outs]


def eval_expr(exprs, env):
    """Evaluate one ExprAst, or a flat sequence of them (giving a list),
    over an environment of floats, jets, or numpy arrays.

    env[i] supplies the value for x(i+1).  Its length must equal the
    declared dimension.  Constant expressions return plain floats even
    under jet environments; callers that need a jet must lift the result.
    Each distinct node is evaluated once per call, so expressions that
    share a subtree share its value object: never change a result in
    place.

    The first call on a tree set walks it and keeps its tape; later
    calls on the same roots replay the tape.  A replay that raises walks
    again, so an error names the node the walk fails at.
    """
    asts = [exprs] if isinstance(exprs, ExprAst) else exprs
    for ast in asts:
        if len(env) != ast.dim:
            raise ValueError(f"environment length {len(env)} does not "
                             f"match dimension {ast.dim}")
    roots = tuple([ast.root for ast in asts])
    arrays = any(isinstance(e, np.ndarray) for e in env)
    tape = _TAPES.get(roots)
    if tape is None or tape[0] != len(env):
        values, tape = _walk(roots, env, arrays)
        if roots not in _TAPES and len(_TAPES) >= _TAPE_LIMIT:
            del _TAPES[next(iter(_TAPES))]
        _TAPES[roots] = tape
    else:
        try:
            values = _replay(tape, env, arrays)
        except (ArithmeticError, ValueError):
            values = None
        if values is None:
            # a domain fault: the walk meets the same fault and raises
            # its own error, an ExprDomainError naming the node
            values = _walk(roots, env, arrays)[0]
    return values[0] if isinstance(exprs, ExprAst) else values


# -- programmatic construction helpers ---------------------------------------


def e_const(v) -> Const:
    return Const(float(v))


def _folded(op, a, b):
    """Const(op(a, b)), or None where op raises or gives a non-finite
    value."""
    try:
        value = op(a, b)
    except ArithmeticError:
        return None
    return Const(value) if math.isfinite(value) else None


def _is(node, value) -> bool:
    return isinstance(node, Const) and node.value == value


def e_add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _folded(operator.add, a.value, b.value)
        if folded is not None:
            return folded
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return b
    return Add(a, b)


def e_mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _folded(operator.mul, a.value, b.value)
        if folded is not None:
            return folded
    if _is(a, 0.0) or _is(b, 0.0):
        return Const(0.0)
    if _is(b, 1.0):
        return a
    if _is(a, 1.0):
        return b
    return Mul(a, b)


def e_div(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _folded(operator.truediv, a.value, b.value)
        if folded is not None:
            return folded
    if _is(b, 1.0):
        return a
    if _is(a, 0.0) and not isinstance(b, Const):
        return Const(0.0)
    return Div(a, b)


def e_neg(a):
    if isinstance(a, Neg):
        return a.operand
    if isinstance(a, Const):
        return Const(-a.value)
    return Neg(a)


def e_pow(base, p: int):
    if isinstance(base, Const):
        folded = _folded(operator.pow, base.value, int(p))
        if folded is not None:
            return folded
    return Pow(base, int(p))


def e_call(fn: str, arg):
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function '{fn}'")
    return Call(fn, arg)


def as_ast(node, dim: int) -> ExprAst:
    return ExprAst(node, dim)
