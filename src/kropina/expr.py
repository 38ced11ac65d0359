"""Expression DSL for chart-dependent scalar coefficients.

Grammar (EBNF, also reproduced in the README):

    expression  = term { ("+" | "-") term } ;
    term        = unary { ("*" | "/") unary } ;
    unary       = "-" unary | power ;
    power       = atom [ "^" exponent ] ;
    exponent    = [ "-" ] integer { "^" [ "-" ] integer } ;   (* right-assoc *)
    atom        = number | variable | function "(" expression ")"
                | "(" expression ")" ;
    variable    = "x" integer ;                               (* 1-based *)
    function    = "sin" | "cos" | "exp" | "ln" | "sqrt" ;

Power binds tighter than unary minus, which binds tighter than "*" and "/",
which bind tighter than "+" and "-".  Exponents are integer literals, so
an exponent chain folds right-associatively into a single integer at parse
time.

Nodes are interned where they are built (the parser and the e_*
constructors): equal subtrees are one object, so an expression is a DAG
whose size is its count of distinct subexpressions, however long its
printed text.  Evaluation works over three scalar kinds through one walk
of that DAG, each distinct node once per call: plain floats, Jet values
(exact truncated derivatives), and numpy arrays (used for vectorised
Monte Carlo; array evaluation skips domain checks and lets non-finite
values flow, callers mask them).

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

Text costs follow the DAG too.  The printer prints each distinct node
once per call and splices its text wherever the node recurs.  The parser
pairs each "(" with its ")" once per text, in one numpy pass over its
parentheses, and scans tokens only as it parses: a parenthesized group
(a call's argument included) parses to the same node wherever it
stands, so each distinct group text is parsed once per group memo
(parse_expr's groups, one per document) and skipped to its ")" where
it recurs.  Errors are those of scanning the whole text first: when a
parse fails, the text is scanned to its end, and the first bad
character, if any, is the one reported.
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


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Add:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Sub:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Mul:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Div:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


@dataclass(frozen=True)
class ExprAst:
    """A parsed expression plus the chart dimension it was declared over."""

    root: object
    dim: int

    def __str__(self):
        return print_node(self.root)


_INTERNED = weakref.WeakValueDictionary()


def _node(cls, *fields):
    """cls(*fields), shared with every equal node built through here.

    Children key by identity, which is structural because they were
    interned too; a constant keys by its hex text, so 0.0 and -0.0
    differ.
    """
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
        node = _INTERNED[key] = cls(*fields)
    return node


# -- scanner ----------------------------------------------------------------

_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the usual token after optional whitespace; any other text goes through
# the character rules of _scan.  \s is str.isspace and \d str.isdecimal
# (a subset of str.isdigit), so both routes cut the same tokens.
_TOKEN_RE = re.compile(
    rf"\s*(?:({_NUM_RE.pattern})|({_IDENT_RE.pattern})|([-+*/^])|(\()|(\)))"
)
_KINDS = (None, "NUM", "IDENT", "OP", "LPAREN", "RPAREN")
_PAREN_RE = re.compile(r"[()]")


def _scan(text: str, i: int):
    """The token at or after offset i, as (kind, text, offset), and the
    offset just past it.  Past the last token the kind is END."""
    m = _TOKEN_RE.match(text, i)
    if m:
        k = m.lastindex
        return (_KINDS[k], m.group(k), m.start(k)), m.end()
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    if i == n:
        return ("END", "", n), n
    ch = text[i]
    if ch.isdigit() or ch == ".":
        raise ExprSyntaxError("malformed number", i)
    raise ExprSyntaxError(f"unexpected character '{ch}'", i)


def _scan_all(text: str):
    """Scan text to its end: raises the first scanning error in it."""
    i = 0
    while True:
        tok, i = _scan(text, i)
        if tok[0] == "END":
            return


def _pair_parens(text: str) -> dict:
    """{offset of each '(': offset of its ')'}; unbalanced ones are left
    out, for the parser to report where it meets them.

    An ASCII text with no stray ')' is paired in one numpy pass: with
    the depth counted over its parentheses, each ')' closes the '(' just
    before it among the parentheses of its level (the depth after a '(',
    before a ')'), because a level holds an open-close alternation with
    at most one unclosed '(' at its end.  Other texts take the stack.
    """
    if "(" not in text:
        return {}
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        at = np.flatnonzero((codes == 40) | (codes == 41))  # "(" and ")"
        opens = codes[at] == 40
        depth = np.cumsum(np.where(opens, 1, -1))
        if depth.min() >= 0:
            order = np.argsort(depth + ~opens, kind="stable")
            at = at[order]
            shut = np.flatnonzero(~opens[order])
            return dict(zip(at[shut - 1].tolist(), at[shut].tolist()))
    close, open_ = {}, []
    for m in _PAREN_RE.finditer(text):
        if m.group() == "(":
            open_.append(m.start())
        elif open_:
            close[open_.pop()] = m.start()
    return close


# -- parser -----------------------------------------------------------------


class _Parser:
    """Recursive descent, scanning one token ahead.

    A parenthesized group (a call's argument included) parses the same
    wherever it stands, and its nodes are interned, so groups maps each
    group text already parsed to its node: a repeated group is looked up
    and skipped to its ')' without being scanned again.
    """

    def __init__(self, text, dim, groups):
        self.text = text
        self.dim = dim
        self.groups = groups
        self.close = _pair_parens(text)
        self.seek(0)

    def seek(self, i):
        self.tok, self.end = _scan(self.text, i)

    def peek(self):
        return self.tok

    def advance(self):
        tok = self.tok
        self.seek(self.end)
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse(self):
        node = self.expression()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprSyntaxError(f"unexpected token '{tok[1]}'", tok[2])
        return node

    def group(self, lparen):
        """The expression after the '(' token lparen, through its ')'."""
        close = self.close.get(lparen[2])
        if close is not None:
            key = self.text[lparen[2] + 1:close]
            node = self.groups.get(key)
            if node is not None:
                self.seek(close + 1)
                return node
        node = self.expression()
        self.expect("RPAREN", "')'")
        if close is not None:
            # a ')' that closes the group is the one paired with its '('
            self.groups[key] = node
        return node

    def expression(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok[0] == "OP" and tok[1] in "+-":
                self.advance()
                rhs = self.term()
                node = _node(Add if tok[1] == "+" else Sub, node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok[0] == "OP" and tok[1] in "*/":
                self.advance()
                rhs = self.unary()
                node = _node(Mul if tok[1] == "*" else Div, node, rhs)
            else:
                return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "OP" and tok[1] == "-":
            self.advance()
            return _node(Neg, self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "OP" and self.peek()[1] == "^":
            self.advance()
            return _node(Pow, base, self.exponent_chain())
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
            return _node(Const, float(tok[1]))
        if tok[0] == "IDENT":
            name, off = tok[1], tok[2]
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= self.dim:
                    raise ExprIndexError(index, self.dim, off)
                return _node(Var, index)
            if name in FUNCTIONS:
                lparen = self.expect("LPAREN", f"'(' after {name}")
                return _node(Call, name, self.group(lparen))
            raise ExprNameError(name, off)
        if tok[0] == "LPAREN":
            return self.group(tok)
        raise ExprSyntaxError(f"unexpected token '{tok[1] or 'end of input'}'", tok[2])


def parse_expr(text: str, dim: int, groups=None) -> ExprAst:
    """Parse the DSL string into an AST declared over x1..x<dim>.

    groups, when given, is a dict that carries parsed parenthesized
    groups from one call to the next, so the strings of one document
    parse each distinct group once; give each document its own.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    memo = {} if groups is None else groups.setdefault(dim, {})
    try:
        root = _Parser(text, dim, memo).parse()
    except (ValueError, RecursionError):
        # the text was scanned only as far as it was parsed; a scanning
        # error anywhere in it is the one to report, as if scanned first
        try:
            _scan_all(text)
        except ExprSyntaxError as first:
            raise first from None
        raise
    return ExprAst(root, dim)


# -- printer ----------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


def _prec(node) -> int:
    if isinstance(node, Const) and node.value < 0:
        return 0  # force parens so the sign survives reparsing
    return _PREC.get(type(node), 9)


def print_node(node) -> str:
    """The DSL text of node; each distinct node is printed once."""
    return _print(node, {})


def _print(node, memo):
    """node's text; memo maps id(n) to the text of each node n this
    call has printed.  A node's text does not depend on its parent,
    which adds any parentheses around it."""
    text = memo.get(id(node))
    if text is not None:
        return text
    if isinstance(node, Const):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = f"x{node.index}"
    elif isinstance(node, Neg):
        inner = _print(node.operand, memo)
        if _prec(node.operand) < _PREC[Neg]:
            inner = f"({inner})"
        text = f"-{inner}"
    elif isinstance(node, Pow):
        base = _print(node.base, memo)
        # a Pow base also needs parens: "x^2^3" would reparse as a
        # folded exponent chain rather than a nested power
        if _prec(node.base) <= _PREC[Pow]:
            base = f"({base})"
        text = f"{base}^{node.exponent}"
    elif isinstance(node, Call):
        text = f"{node.fn}({_print(node.arg, memo)})"
    elif isinstance(node, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(node)]
        prec = _PREC[type(node)]
        left = _print(node.lhs, memo)
        if _prec(node.lhs) < prec:
            left = f"({left})"
        right = _print(node.rhs, memo)
        # left-associative: equal precedence on the right needs parens
        if _prec(node.rhs) <= prec and isinstance(node.rhs, (Add, Sub, Mul, Div)):
            right = f"({right})"
        elif _prec(node.rhs) < prec:
            right = f"({right})"
        text = f"{left} {op} {right}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[id(node)] = text
    return text


def print_expr(ast: ExprAst) -> str:
    return print_node(ast.root)


# -- evaluation --------------------------------------------------------------


def _call_float(fn, v, node):
    try:
        if fn == "sin":
            return math.sin(v)
        if fn == "cos":
            return math.cos(v)
        if fn == "exp":
            return math.exp(v)
        if fn == "ln":
            if v <= 0.0:
                raise ExprDomainError(f"ln of nonpositive value {v}", node)
            return math.log(v)
        if fn == "sqrt":
            if v < 0.0:
                raise ExprDomainError(f"sqrt of negative value {v}", node)
            return math.sqrt(v)
    except OverflowError:
        raise ExprDomainError("range overflow", node) from None
    raise ExprNameError(fn, 0)


_ARRAY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
}


def _ev(node, env, memo):
    """node's value at env.  memo maps id(n) to the value of each operator
    node n this call has evaluated, so a shared node runs once."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.index - 1]
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Neg):
        value = -_ev(node.operand, env, memo)
    elif isinstance(node, Add):
        value = _ev(node.lhs, env, memo) + _ev(node.rhs, env, memo)
    elif isinstance(node, Sub):
        value = _ev(node.lhs, env, memo) - _ev(node.rhs, env, memo)
    elif isinstance(node, Mul):
        value = _ev(node.lhs, env, memo) * _ev(node.rhs, env, memo)
    elif isinstance(node, Div):
        num = _ev(node.lhs, env, memo)
        den = _ev(node.rhs, env, memo)
        if isinstance(den, np.ndarray):
            with np.errstate(divide="ignore", invalid="ignore"):
                value = num / den
        else:
            try:
                value = num / den
            except (ZeroDivisionError, JetDomainError):
                raise ExprDomainError("division by zero", node) from None
    elif isinstance(node, Pow):
        base = _ev(node.base, env, memo)
        if isinstance(base, np.ndarray):
            with np.errstate(divide="ignore", invalid="ignore"):
                value = np.power(base, float(node.exponent))
        else:
            try:
                value = base**node.exponent
            except (ZeroDivisionError, JetDomainError):
                raise ExprDomainError(
                    "zero base with negative exponent", node) from None
    elif isinstance(node, Call):
        value = _call(node, _ev(node.arg, env, memo))
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[id(node)] = value
    return value


def _call(node, v):
    if isinstance(v, Jet):
        try:
            if node.fn == "ln":
                return v.log()
            return getattr(v, node.fn)()
        except JetDomainError as exc:
            raise ExprDomainError(str(exc), node) from None
    if isinstance(v, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return _ARRAY_FUNCS[node.fn](v)
    return _call_float(node.fn, v, node)


def eval_expr(exprs, env):
    """Evaluate one ExprAst, or a flat sequence of them (giving a list),
    over an environment of floats, jets, or numpy arrays.

    env[i] supplies the value for x(i+1).  Its length must equal the
    declared dimension.  Constant expressions return plain floats even
    under jet environments; callers that need a jet must lift the result.
    Each distinct node is evaluated once per call, so expressions that
    share a subtree share its value object: never change a result in
    place.
    """
    asts = [exprs] if isinstance(exprs, ExprAst) else exprs
    for ast in asts:
        if len(env) != ast.dim:
            raise ValueError(f"environment length {len(env)} does not "
                             f"match dimension {ast.dim}")
    memo = {}
    values = [_ev(ast.root, env, memo) for ast in asts]
    return values[0] if isinstance(exprs, ExprAst) else values


# -- programmatic construction helpers ---------------------------------------


def e_const(v) -> Const:
    return _node(Const, float(v))


def _folded(op, a, b):
    """Const(op(a, b)), or None where op raises or gives a non-finite
    value."""
    try:
        value = op(a, b)
    except ArithmeticError:
        return None
    return _node(Const, value) if math.isfinite(value) else None


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
    return _node(Add, a, b)


def e_mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _folded(operator.mul, a.value, b.value)
        if folded is not None:
            return folded
    if _is(a, 0.0) or _is(b, 0.0):
        return _node(Const, 0.0)
    if _is(b, 1.0):
        return a
    if _is(a, 1.0):
        return b
    return _node(Mul, a, b)


def e_div(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _folded(operator.truediv, a.value, b.value)
        if folded is not None:
            return folded
    if _is(b, 1.0):
        return a
    if _is(a, 0.0) and not isinstance(b, Const):
        return _node(Const, 0.0)
    return _node(Div, a, b)


def e_neg(a):
    if isinstance(a, Neg):
        return a.operand
    if isinstance(a, Const):
        return _node(Const, -a.value)
    return _node(Neg, a)


def e_pow(base, p: int):
    if isinstance(base, Const):
        folded = _folded(operator.pow, base.value, int(p))
        if folded is not None:
            return folded
    return _node(Pow, base, int(p))


def e_call(fn: str, arg):
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function '{fn}'")
    return _node(Call, fn, arg)


def as_ast(node, dim: int) -> ExprAst:
    return ExprAst(node, dim)
