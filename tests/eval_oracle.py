"""Tree-walk oracle for the compiled expression programs.

This is the evaluator the library used before it compiled tables: a
depth-first walk that memoizes every node's value by identity for the whole
table and evaluates all samples at once.  It shares only the node types and
the domain-checked primitives with expr, so agreement with expr.eval_table
checks the compiler, the liveness bookkeeping and the chunking.
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
