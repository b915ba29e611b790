"""Closed-form scalar expressions: parse, evaluate, differentiate exactly.

Expressions are immutable, hash-consed AST nodes, so structurally equal
subtrees are shared.  Sharing is what keeps the derived expression DAGs
(metric inverses, connection coefficients, normal fields and their
derivatives) small enough to evaluate quickly.  A node is one per kind,
child nodes, value and name; nodes define no __eq__, so they hash and
compare by identity, and every memo keys by node.  Each node carries key,
an integer fixed by its structure alone (see Expr), which interning looks
it up by, and the operands of + and * are interned in key order, so a + b
and b + a are one node.  A negation is pushed out of a product or quotient and
folded into the sum or difference that consumes it.  Both rewrites are
exact in IEEE arithmetic.  They do let x - x and x / x fold on more pairs
(a * b - b * a); where such a zero meets a 0 absorption (0 - y is -y), an
exact zero downstream may take the other sign.
A table of expressions is compiled once into a program that lists every
distinct node once, children first, in a few flat columns (kind, operands,
argument, frees) with a sparse map from op to output slots; frees drops
each intermediate after its last use.  Each evaluation runs the program
once over the batch it is given.  Every binding is broadcast to the batch,
so scalar bindings are a batch of one, and a value outside a function's
domain raises EvalDomainError at its first bad sample; a constant one
raises as the expression is built.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above '-'
    atom   := NUMBER | 'pi' | NAME '(' expr ')' | NAME | '(' expr ')'

Functions: sin cos tan sinh cosh tanh sech exp log sqrt abs sign.
Differentiation is exact; the only simplifications applied are constant
folding, 0/1 absorption, the operand order of + and *, and the negation
folds.  abs differentiates to sign with sign(0) = 0, so sampled domains
must avoid kinks.

diff, compose and compiling share one walk of a DAG, children first
(_children_first), and to_string prints from a stack of its own: depth (a
sum is as deep as it has terms) costs no recursion.  The parser recurses;
text nested over MAX_DEPTH levels is an ExprError.
"""

from __future__ import annotations

import math
import re
import zlib
from collections import namedtuple

import numpy as np

from .errors import EvalDomainError, ExprError, ExprSyntaxError, UnknownFunction, UnknownVariable

__all__ = [
    "Expr", "parse", "con", "var", "add", "sub", "mul", "div", "pow_", "neg",
    "call", "diff", "compose", "evaluate", "eval_table", "contract", "FUNCTIONS", "PI",
]

_CONST, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _CALL = range(9)

_OP_NAMES = {_ADD: "+", _SUB: "-", _MUL: "*", _DIV: "/", _POW: "^"}


class Expr:
    """One interned AST node.  Construct through the module functions.

    key (_key) hashes the kind, the children's keys, the value and a CRC-32
    of the name.  Python fixes the hashes of ints, floats and tuples of them
    (only str and bytes hashes are salted), so key, and with it the operand
    order of every + and *, depends neither on the hash seed nor on which
    nodes were built before."""

    __slots__ = ("kind", "a", "b", "value", "name", "key")

    def __init__(self, kind, a, b, value, name, key):
        self.kind, self.a, self.b, self.value, self.name = kind, a, b, value, name
        self.key = key

    def __repr__(self):
        return f"Expr({to_string(self)})"

    def __str__(self):
        return to_string(self)

    # convenience for tests and scene construction
    def __call__(self, **bindings):
        return evaluate(self, bindings)


_interned: dict = {}        # key -> the node that holds it
_collided: dict = {}        # (kind, a, b, value, name) -> a node whose key another holds
_NAME_CODES: dict = {}      # name -> its CRC-32


def _key(kind, a, b, value, name):
    """The key of the node of this kind, children, value and name."""
    code = 0
    if name is not None:
        code = _NAME_CODES.get(name)
        if code is None:
            code = _NAME_CODES[name] = zlib.crc32(name.encode())
    return hash((kind, 0 if a is None else a.key, 0 if b is None else b.key,
                 0.0 if value is None else value, code))


def _intern(kind, a=None, b=None, value=None, name=None):
    """The one node of this kind, children, value and name, found by its
    key: Expr defines no __eq__, so the children compare by identity, and
    value by ==.  Keyed by an int and not by those fields, the table keeps
    no tuple per node.  A node whose key another node holds (a hash
    collision) is found by its fields in _collided."""
    key = _key(kind, a, b, value, name)
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = Expr(kind, a, b, value, name, key)
    elif not (node.a is a and node.b is b and node.kind == kind and node.value == value
              and node.name == name):
        fields = (kind, a, b, value, name)
        node = _collided.get(fields)
        if node is None:
            node = _collided[fields] = Expr(kind, a, b, value, name, key)
    return node


def con(value) -> Expr:
    """A constant node; no expression holds a non-finite one (1e999, exp(1000))."""
    if not math.isfinite(value := float(value)):
        raise ExprError(f"constant {value!r} is not finite")
    return _intern(_CONST, value=value)


def var(name) -> Expr:
    return _intern(_VAR, name=name)


PI = con(math.pi)
ZERO = con(0.0)
ONE = con(1.0)


# The constructors fold constants and absorb 0 and 1, testing each
# operand's constness once.  A constant outside its function's domain (log(0),
# 0^-1, x/0) raises EvalDomainError as the expression is built, naming no
# sample.  add and mul then intern their operands in key order (IEEE + and *
# commute bit for bit), and the negation folds below are exact in IEEE
# arithmetic, signed zeros included:
#
#     (-a) * b -> -(a * b)    a / (-b), (-a) / b -> -(a / b)
#     x + (-y), (-y) + x -> x - y    x - (-y) -> x + y
#
# (-x) - y and -(x - y) stay as they are: -(x + y) and y - x differ from
# them in the sign of a zero result.


def add(x, y) -> Expr:
    if x.kind == _CONST:
        if y.kind == _CONST:
            return con(x.value + y.value)
        if x.value == 0.0:
            return y
    elif y.kind == _CONST and y.value == 0.0:
        return x
    if y.key < x.key:
        x, y = y, x
    if y.kind == _NEG:
        return sub(x, y.a)
    if x.kind == _NEG:
        return sub(y, x.a)
    return _intern(_ADD, x, y)


def sub(x, y) -> Expr:
    if x.kind == _CONST:
        if y.kind == _CONST:
            return con(x.value - y.value)
        if x.value == 0.0:
            return neg(y)
    elif y.kind == _CONST:
        if y.value == 0.0:
            return x
    elif x is y:
        return ZERO
    if y.kind == _NEG:
        return add(x, y.a)
    return _intern(_SUB, x, y)


def mul(x, y) -> Expr:
    if x.kind == _CONST:
        if y.kind == _CONST:
            return con(x.value * y.value)
        c, other = x.value, y
    elif y.kind == _CONST:
        c, other = y.value, x
    else:
        c = None
    if c == 0.0:
        return ZERO
    if c == 1.0:
        return other
    if c == -1.0:
        return neg(other)
    if x.kind == _NEG:
        return neg(mul(x.a, y))
    if y.kind == _NEG:
        return neg(mul(x, y.a))
    if y.key < x.key:
        x, y = y, x
    return _intern(_MUL, x, y)


def div(x, y) -> Expr:
    if y.kind == _CONST:
        if y.value == 0.0:
            raise EvalDomainError("/", 0.0)
        if x.kind == _CONST:
            return con(x.value / y.value)
        if y.value == 1.0:
            return x
    elif x.kind == _CONST:
        if x.value == 0.0:
            return ZERO
    elif x is y:
        return ONE
    if y.kind == _NEG:
        return neg(div(x, y.a))
    if x.kind == _NEG:
        return neg(div(x.a, y))
    return _intern(_DIV, x, y)


def pow_(x, y) -> Expr:
    if y.kind == _CONST:
        if y.value == 0.0:
            return ONE
        if y.value == 1.0:
            return x
        if x.kind == _CONST:
            return con(_checked_pow(x.value, y.value))
    if x.kind == _CONST and x.value == 1.0:
        return ONE
    return _intern(_POW, x, y)


def neg(x) -> Expr:
    if x.kind == _CONST:
        return con(-x.value)
    if x.kind == _NEG:
        return x.a
    return _intern(_NEG, x)


def call(fn, x) -> Expr:
    if fn not in FUNCTIONS:
        raise UnknownFunction(fn)
    if x.kind == _CONST:
        return con(_apply_fn(fn, x.value))
    return _intern(_CALL, x, name=fn)


# --- function tables -------------------------------------------------------

def _sech(x):
    return 1.0 / np.cosh(x)


FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "sech": _sech, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign,
}


def _check(bad, fn, x):
    """Raise EvalDomainError for fn at the first sample where bad holds,
    with the argument x there.  A 0-d bad is a constant's (a fold), and
    the error names no sample; a 0-d x stands for every sample."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EvalDomainError(fn, float(np.broadcast_to(x, np.shape(bad)).flat[i]),
                              i if np.ndim(bad) else None)


def _checked_pow(base, expo):
    _check((base == 0.0) & (expo < 0.0) | (base < 0.0) & (expo != np.floor(expo)),
           "^", base)
    return np.power(base, expo)


def _apply_fn(fn, x):
    if fn == "log":
        _check(x <= 0.0, fn, x)
    elif fn == "sqrt":
        _check(x < 0.0, fn, x)
    return FUNCTIONS[fn](x)


# --- walking a DAG ---------------------------------------------------------

def _children_first(e, memo, build):
    """memo[n] = build(n) for e and each node below it that memo lacks,
    children first and a's subtree before b's, on an explicit stack;
    returns memo[e].  Memos are keyed by the nodes themselves, which hash
    and compare by identity.  The one walk over expression DAGs: diff,
    compose and _compile build on it."""
    stack = [] if e in memo else [e]
    while stack:            # a path down from e: no node on it is in memo
        n = stack[-1]
        if n.a is not None and n.a not in memo:
            stack.append(n.a)
        elif n.b is not None and n.b not in memo:
            stack.append(n.b)
        else:
            memo[stack.pop()] = build(n)
    return memo[e]


# --- evaluation ------------------------------------------------------------

# Compiled programs keyed by table shapes and leaf ids.  The ids stay unique
# because _interned and _collided keep every node alive for the life of the
# process.
_programs: dict = {}


def evaluate(e: Expr, bindings):
    """Evaluate one expression as a table (eval_table): an array of the
    bindings' batch shape, a numpy scalar for scalar bindings."""
    return eval_table(e, bindings)[()]


def eval_table(table, bindings):
    """Evaluate a nested list of Exprs into one ndarray.

    Bindings map variable names to floats or numpy arrays of one shape.
    The result has shape batch_shape + nest_shape where batch_shape comes
    from the first array binding.  Every binding is broadcast to the
    batch, so scalar bindings are a batch of one (batch_shape = ()), and
    constant subexpressions broadcast.  Each table is stored samples-last,
    one row of the batch per leaf, and returned as the samples-first view
    of that array: the layout contract reads without a copy.

    A tuple at the top level is a group of tables, and the result is then
    a tuple holding one such array per table.  The group compiles into one
    program, so a subexpression shared between its tables is computed once.

    The program is compiled once per process (see _compile) and runs once
    over the batch: a sample grid bounds the memory by passing one chunk at
    a time (scenes.SampleGrid.chunks).  An unbound variable raises before
    any evaluation.  A domain error names its first bad sample by its
    index in the batch, and the table of the group it meets first.
    """
    group = isinstance(table, tuple)
    leaves = []
    shapes = tuple(_flatten(t, leaves) for t in (table if group else (table,)))
    key = (shapes, tuple(map(id, leaves)))
    prog = _programs.get(key)
    if prog is None:
        prog = _programs[key] = _compile(leaves, shapes)
    names = prog.names
    for name in names:
        if name not in bindings:
            raise UnknownVariable(name)

    batch = next((np.shape(v) for v in bindings.values() if np.shape(v)), ())
    n = math.prod(batch)
    outs = [np.empty((math.prod(s), n), dtype=float) for s in shapes]
    _run(prog, {k: np.broadcast_to(bindings[k], batch).reshape(-1) for k in names}, outs)
    res = tuple(np.moveaxis(o.reshape(s + (n,)), -1, 0).reshape(batch + s)
                for o, s in zip(outs, shapes))
    return res if group else res[0]


def contract(subscripts, *operands):
    """np.einsum(subscripts, *operands) for per-sample blocks, run with the
    sample axis innermost.

    The layout rule of the per-sample blocks:

    - blocks are samples-first: every operand and the result lead with
      the sample axis, which subscripts names n ("nkl,nk,nl->n");
    - contractions run samples-last, here: each operand is laid out
      samples-last (C-contiguous; no copy when it already is, as
      eval_table's tables and contract's results are) and einsum runs with
      n last, so its inner loop runs over the samples and not over the 2
      to 81 values of one sample.  The result is the samples-first view
      of that samples-last array.  For every contraction routed here it
      has the bits einsum gives on samples-first C-contiguous copies of
      the operands (a test checks each call of verify and fields);
    - the sites that stay on np.einsum (the Gauss map n, the gauge law's
      contractions and dots, and III) are those whose bits, and so the
      report's, depend on einsum's samples-first loop order; each says so
      where it is.
    """
    ins, out = subscripts.split("->")
    moved = ",".join(s[1:] + "n" for s in ins.split(",")) + "->" + out[1:] + "n"
    last = [np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in operands]
    return np.moveaxis(np.einsum(moved, *last), -1, 0)


def _flatten(t, leaves):
    """Append the leaves of the nested list t to leaves; returns its shape."""
    if not isinstance(t, (list, tuple)):
        leaves.append(t)
        return ()
    for s in t:
        shape = _flatten(s, leaves)
    return (len(t),) + shape


# The bits of an op's frees: the values dead once it has run (their last
# use), which are its operand a's, its operand b's and its own.
_FREE_A, _FREE_B, _FREE_OWN = 1, 2, 4

_Program = namedtuple("_Program", "kinds a b args frees dests names")


def _compile(leaves, shapes):
    """Program for the flattened leaves of a group of tables.

    The ops list every distinct node once, children first (_children_first,
    leaf by leaf), as flat columns indexed by op: kinds; a and b, the ops of
    its operands (None for none); args, the constant, variable or function
    name (for a division: True on the first division by its denominator,
    the one that checks it for zeros); and frees (_FREE bits).  dests maps
    each op that fills table entries to their (table, column) output slots,
    and names lists the variables.
    """
    index = {}              # node -> its op
    kinds, opa, opb, args, last = [], [], [], [], []
    checked = set()         # denominators a division already checks

    def emit(e):
        i = len(kinds)
        a = b = None
        if e.a is not None:
            a = index[e.a]
            last[a] = i
            if e.b is not None:
                b = index[e.b]
                last[b] = i
        k = e.kind
        if k == _DIV:
            arg = e.b not in checked
            checked.add(e.b)
        else:
            arg = e.value if k == _CONST else e.name
        kinds.append(k)
        opa.append(a)
        opb.append(b)
        args.append(arg)
        last.append(i)
        return i

    dests = {}
    leaf = iter(leaves)
    for t, shape in enumerate(shapes):
        for col in range(math.prod(shape)):
            dests.setdefault(_children_first(next(leaf), index, emit), []).append((t, col))
    frees = [0] * len(kinds)
    for j, i in enumerate(last):
        frees[i] |= _FREE_OWN if i == j else _FREE_A if opa[i] == j else _FREE_B
    return _Program(kinds, opa, opb, args, frees,
                    {i: tuple(d) for i, d in dests.items()},
                    [arg for k, arg in zip(kinds, args) if k == _VAR])


def _run(prog, bindings, outs):
    """Run a compiled program on flat bindings, writing the table leaves
    into the columns of the output arrays.  A domain error is given the
    table it meets first: the first whose leaves need its op."""
    kinds, opa, opb, args, frees, dests, _ = prog
    vals = [None] * len(kinds)
    try:
        for i, (k, a, b, arg, f) in enumerate(zip(kinds, opa, opb, args, frees)):
            if k == _MUL:
                v = vals[a] * vals[b]
            elif k == _ADD:
                v = vals[a] + vals[b]
            elif k == _DIV:
                bv = vals[b]
                if arg:
                    _check(bv == 0.0, "/", bv)
                v = vals[a] / bv
            elif k == _SUB:
                v = vals[a] - vals[b]
            elif k == _CONST:
                v = arg
            elif k == _VAR:
                v = bindings[arg]
            elif k == _NEG:
                v = -vals[a]
            elif k == _CALL:
                v = _apply_fn(arg, vals[a])
            else:
                v = _checked_pow(vals[a], vals[b])
            vals[i] = v
            for t, col in dests.get(i, ()):
                outs[t][col] = v
            if f & _FREE_A:
                vals[a] = None
            if f & _FREE_B:
                vals[b] = None
            if f & _FREE_OWN:
                vals[i] = None
    except EvalDomainError as err:
        err.table = min(t for j, slots in dests.items() if j >= i for t, _ in slots)
        raise


# --- differentiation -------------------------------------------------------

_diff_cache: dict = {}      # variable name -> {node: derivative}

_FN_DERIV = {
    "sin": lambda u: call("cos", u),
    "cos": lambda u: neg(call("sin", u)),
    "tan": lambda u: div(ONE, mul(call("cos", u), call("cos", u))),
    "sinh": lambda u: call("cosh", u),
    "cosh": lambda u: call("sinh", u),
    "tanh": lambda u: mul(call("sech", u), call("sech", u)),
    "sech": lambda u: neg(mul(call("sech", u), call("tanh", u))),
    "exp": lambda u: call("exp", u),
    "log": lambda u: div(ONE, u),
    "sqrt": lambda u: div(con(0.5), call("sqrt", u)),
    "abs": lambda u: call("sign", u),
    "sign": lambda u: ZERO,
}

_BINARY = {_ADD: add, _SUB: sub, _MUL: mul, _DIV: div, _POW: pow_}


def diff(e: Expr, name: str) -> Expr:
    """Exact symbolic derivative of e with respect to the named variable,
    memoised per variable by node (_diff_cache)."""
    memo = _diff_cache.setdefault(name, {})

    def build(n):
        k = n.kind
        if k == _CONST:
            return ZERO
        if k == _VAR:
            return ONE if n.name == name else ZERO
        da = memo[n.a]
        if k == _NEG:
            return neg(da)
        if k == _CALL:
            return mul(_FN_DERIV[n.name](n.a), da)
        db = memo[n.b]
        if k == _ADD:
            return add(da, db)
        if k == _SUB:
            return sub(da, db)
        if k == _MUL:
            return add(mul(da, n.b), mul(n.a, db))
        if k == _DIV:
            return sub(div(da, n.b), div(mul(n.a, db), mul(n.b, n.b)))
        if n.b.kind == _CONST:      # c * f^(c-1) * f'
            return mul(mul(n.b, pow_(n.a, con(n.b.value - 1.0))), da)
        # f^g * (g' log f + g f'/f), with log f only where g varies: a
        # constant f <= 0 has no log, and f^g then no derivative in g
        if db is ZERO:
            return mul(n, mul(n.b, div(da, n.a)))
        if n.a.kind == _CONST and n.a.value <= 0.0:
            raise EvalDomainError("^", n.a.value)
        return mul(n, add(mul(db, call("log", n.a)), mul(n.b, div(da, n.a))))

    return _children_first(e, memo, build)


def compose(e: Expr, mapping, memo=None) -> Expr:
    """Substitute expressions for variables: mapping is name -> Expr.  memo
    (node -> result) may be shared by calls with the same mapping."""
    memo = {} if memo is None else memo

    def build(n):
        k = n.kind
        if k == _CONST:
            return n
        if k == _VAR:
            return mapping.get(n.name, n)
        a = memo[n.a]
        if k == _NEG:
            return neg(a)
        if k == _CALL:
            return call(n.name, a)
        return _BINARY[k](a, memo[n.b])

    return _children_first(e, memo, build)


# --- printing --------------------------------------------------------------

_PREC = {_ADD: 1, _SUB: 1, _MUL: 2, _DIV: 2, _NEG: 3, _POW: 4,
         _CONST: 9, _VAR: 9, _CALL: 9}


def to_string(e: Expr) -> str:
    """Render to text that parses back to an identically-evaluating Expr.

    The text is emitted left to right from an explicit stack of text pieces
    and (node, precedence its context needs) pairs."""
    out, stack = [], [(e, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        n, need = item
        k = n.kind
        if _PREC[k] < need:
            stack += [")", (n, 0), "("]
        elif k == _CONST:
            v = abs(n.value)
            text = repr(v) if v != int(v) else str(int(v))
            out.append("pi" if n.value == math.pi else f"(-{text})" if n.value < 0 else text)
        elif k == _VAR:
            out.append(n.name)
        elif k == _CALL:
            stack += [")", (n.a, 0), f"{n.name}("]
        elif k == _NEG:
            stack += [(n.a, _PREC[_NEG] + 1), "-"]
        elif k == _POW:
            stack += [(n.b, _PREC[_POW]), "^", (n.a, _PREC[_POW] + 1)]
        else:
            a, b = n.a, n.b
            if k in (_ADD, _MUL) and _PREC[b.kind] == _PREC[k] < _PREC[a.kind]:
                a, b = b, a     # key order put the chain right: left needs no parentheses
            stack += [(b, _PREC[k] + 1), f" {_OP_NAMES[k]} ", (a, _PREC[k])]
    return "".join(out)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

MAX_DEPTH = 100         # nesting levels of text that parse accepts


class _Parser:
    def __init__(self, text, allowed):
        self.text = text
        self.allowed = frozenset(allowed)
        self.pos = 0
        self.depth = 0        # nesting level of the unary being parsed
        self.tok = None       # (kind, value, offset)
        self._advance()

    def _advance(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:]
            stripped = rest.lstrip()
            if not stripped:
                self.tok = ("end", None, len(self.text))
                self.pos = len(self.text)
            else:
                bad = self.pos + (len(rest) - len(stripped))
                raise ExprSyntaxError(self.text, bad, {"number", "name", "operator"})
            return
        self.pos = m.end()
        off = m.start() + len(m.group(0)) - len(m.group(0).lstrip())
        if m.group("num") is not None:
            self.tok = ("num", float(m.group("num")), off)
        elif m.group("name") is not None:
            self.tok = ("name", m.group("name"), off)
        else:
            self.tok = ("op", m.group("op"), off)

    def _expect_op(self, symbol):
        kind, value, off = self.tok
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(self.text, off, {f"'{symbol}'"})
        self._advance()

    def parse(self):
        e = self.expr()
        kind, _, off = self.tok
        if kind != "end":
            raise ExprSyntaxError(self.text, off, {"'+'", "'-'", "'*'", "'/'", "'^'", "end of input"})
        return e

    def expr(self):
        e = self.term()
        while self.tok[0] == "op" and self.tok[1] in "+-":
            op = self.tok[1]
            self._advance()
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.tok[0] == "op" and self.tok[1] in "*/":
            op = self.tok[1]
            self._advance()
            rhs = self.unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def unary(self):
        self.depth += 1         # each parenthesis, call, minus and exponent
        if self.depth > MAX_DEPTH:
            raise ExprError(f"expression nested too deeply (over {MAX_DEPTH} "
                            f"levels) at offset {self.tok[2]}")
        if self.tok[0] == "op" and self.tok[1] == "-":
            self._advance()
            e = neg(self.unary())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self):
        base = self.atom()
        if self.tok[0] == "op" and self.tok[1] == "^":
            self._advance()
            expo = self.unary()
            return pow_(base, expo)
        return base

    def atom(self):
        kind, value, off = self.tok
        if kind == "num":
            self._advance()
            return con(value)
        if kind == "name":
            self._advance()
            if value == "pi":
                return PI
            if value in FUNCTIONS:
                self._expect_op("(")        # function application requires parentheses
                arg = self.expr()
                self._expect_op(")")
                return call(value, arg)
            if value in self.allowed:
                return var(value)
            # identifier followed by '(' is an unrecognized function
            if self.tok[0] == "op" and self.tok[1] == "(":
                raise UnknownFunction(value, off)
            raise UnknownVariable(value, off)
        if kind == "op" and value == "(":
            self._advance()
            e = self.expr()
            self._expect_op(")")
            return e
        raise ExprSyntaxError(self.text, off, {"number", "name", "'('", "'-'"})


def parse(text: str, allowed_vars) -> Expr:
    """Parse text into an Expr whose variables all lie in allowed_vars."""
    return _Parser(text, allowed_vars).parse()
