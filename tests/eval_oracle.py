"""Tree-walk oracle for the compiled expression programs.

This is the evaluator the library used before it compiled tables: a
depth-first walk that memoizes every node's value by identity for the whole
table and evaluates all samples at once.  It shares only the node types and
the domain-checked primitives with expr, so agreement with expr.eval_table
checks the compiler, the liveness bookkeeping and the chunking.  Written
evaluates construction steps as written, for the constructors' operand
order and negation folds to be checked against.
"""

import numpy as np

from rcsurf import expr
from rcsurf.errors import EvalDomainError, UnknownVariable


def _eval_iter(root, bindings, memo):
    stack = [root]
    while stack:
        e = stack[-1]
        eid = id(e)
        if eid in memo:
            stack.pop()
            continue
        k = e.kind
        if k == expr._CONST:
            memo[eid] = e.value
            stack.pop()
        elif k == expr._VAR:
            try:
                memo[eid] = bindings[e.name]
            except KeyError:
                raise UnknownVariable(e.name) from None
            stack.pop()
        elif k == expr._NEG or k == expr._CALL:
            aid = id(e.a)
            if aid in memo:
                av = memo[aid]
                memo[eid] = -av if k == expr._NEG else expr._apply_fn(e.name, av)
                stack.pop()
            else:
                stack.append(e.a)
        else:
            aid, bid = id(e.a), id(e.b)
            ready = True
            if aid not in memo:
                stack.append(e.a)
                ready = False
            if bid not in memo:
                stack.append(e.b)
                ready = False
            if not ready:
                continue
            av, bv = memo[aid], memo[bid]
            if k == expr._ADD:
                memo[eid] = av + bv
            elif k == expr._SUB:
                memo[eid] = av - bv
            elif k == expr._MUL:
                memo[eid] = av * bv
            elif k == expr._DIV:
                if np.any(np.asarray(bv) == 0.0):
                    raise EvalDomainError("/", 0.0)
                memo[eid] = av / bv
            else:
                memo[eid] = expr._checked_pow(av, bv)
            stack.pop()
    return memo[id(root)]


def eval_table(table, bindings):
    """Nested list of Exprs -> ndarray of shape batch_shape + nest_shape,
    with one memo for the whole table."""
    memo = {}
    batch = ()
    for v in bindings.values():
        v = np.asarray(v)
        if v.shape:
            batch = v.shape
            break

    def nest_shape(t):
        return (len(t),) + nest_shape(t[0]) if isinstance(t, (list, tuple)) else ()

    out = np.empty(batch + nest_shape(table), dtype=float)

    def walk(t, idx):
        if isinstance(t, (list, tuple)):
            for i, s in enumerate(t):
                walk(s, idx + (i,))
        else:
            out[(Ellipsis,) + idx] = _eval_iter(t, bindings, memo)

    walk(table, ())
    return out


# --- construction steps as written ------------------------------------------

class Written:
    """Construction steps evaluated as written: each step keeps its operands
    in the order given and every negation as its own node, under the folds
    the constructors applied before they ordered the operands of + and *
    and folded negations (constant folding, 0 and 1 absorption, x - x,
    x / x and -(-x)).  Steps are interned by their operand steps, so
    "x is y" holds where it held for those constructors.  A step is a
    tuple (op, a, b, value); value(step, bindings) evaluates it with
    expr's domain-checked primitives, as the compiled programs do."""

    def __init__(self):
        self._steps = {}

    def _step(self, op, a=None, b=None, value=None):
        key = (op, id(a), id(b), value)
        if key not in self._steps:
            self._steps[key] = (op, a, b, value)
        return self._steps[key]

    def con(self, value):
        return self._step("con", value=float(value))

    def var(self, name):
        return self._step("var", value=name)

    @staticmethod
    def _const(x):
        return x[0] == "con"

    def neg(self, x):
        if self._const(x):
            return self.con(-x[3])
        if x[0] == "neg":
            return x[1]
        return self._step("neg", x)

    def add(self, x, y):
        if self._const(x):
            if self._const(y):
                return self.con(x[3] + y[3])
            if x[3] == 0.0:
                return y
        elif self._const(y) and y[3] == 0.0:
            return x
        return self._step("add", x, y)

    def sub(self, x, y):
        if self._const(x):
            if self._const(y):
                return self.con(x[3] - y[3])
            if x[3] == 0.0:
                return self.neg(y)
        elif self._const(y):
            if y[3] == 0.0:
                return x
        elif x is y:
            return self.con(0.0)
        return self._step("sub", x, y)

    def mul(self, x, y):
        if self._const(x) and self._const(y):
            return self.con(x[3] * y[3])
        if self._const(x) or self._const(y):
            c, other = (x[3], y) if self._const(x) else (y[3], x)
            if c == 0.0:
                return self.con(0.0)
            if c == 1.0:
                return other
            if c == -1.0:
                return self.neg(other)
        return self._step("mul", x, y)

    def div(self, x, y):
        if self._const(y):
            if y[3] == 0.0:
                raise EvalDomainError("/", 0.0)
            if self._const(x):
                return self.con(x[3] / y[3])
            if y[3] == 1.0:
                return x
        elif self._const(x):
            if x[3] == 0.0:
                return self.con(0.0)
        elif x is y:
            return self.con(1.0)
        return self._step("div", x, y)

    def value(self, step, bindings, memo=None):
        """The value of step at scalar bindings, children first on an
        explicit stack; EvalDomainError where a denominator is zero."""
        memo = {} if memo is None else memo
        stack = [step]
        while stack:
            s = stack[-1]
            if id(s) in memo:
                stack.pop()
                continue
            op, a, b, val = s
            todo = [c for c in (a, b) if c is not None and id(c) not in memo]
            if todo:
                stack += todo
                continue
            stack.pop()
            if op == "con":
                memo[id(s)] = val
            elif op == "var":
                memo[id(s)] = bindings[val]
            elif op == "neg":
                memo[id(s)] = -memo[id(a)]
            else:
                av, bv = memo[id(a)], memo[id(b)]
                if op == "add":
                    memo[id(s)] = av + bv
                elif op == "sub":
                    memo[id(s)] = av - bv
                elif op == "mul":
                    memo[id(s)] = av * bv
                else:
                    if bv == 0.0:
                        raise EvalDomainError("/", bv)
                    memo[id(s)] = av / bv
        return memo[id(step)]
