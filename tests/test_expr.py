import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcsurf import expr, scenes, verify
from rcsurf.errors import (
    EvalDomainError, ExprError, ExprSyntaxError, UnknownFunction, UnknownVariable, named,
)

import eval_oracle
from conftest import random_expr


def test_parse_sech():
    e = expr.parse("sech(y)", {"x", "y", "z"})
    assert e.name == "sech"
    assert e(y=0.0) == 1.0


def test_function_application_requires_parentheses():
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("tanh v * cos(u)", {"u", "v"})
    assert "'('" in err.value.expected
    assert err.value.line == 1
    assert err.value.column == 6


def test_parse_negated_function():
    e = expr.parse("-sin(u)", {"u"})
    assert e(u=math.pi / 2) == pytest.approx(-1.0, abs=1e-15)


def test_unknown_variable_and_function():
    with pytest.raises(UnknownVariable):
        expr.parse("q + 1", {"x"})
    with pytest.raises(UnknownFunction):
        expr.parse("frob(x)", {"x"})


def test_eval_examples():
    assert expr.parse("cosh(v)", {"v"})(v=0.0) == 1.0
    assert expr.parse("sech(y)", {"y"})(y=0.0) == 1.0
    with pytest.raises(EvalDomainError):
        expr.parse("sqrt(x)", {"x"})(x=-1.0)
    with pytest.raises(EvalDomainError):
        expr.parse("log(x)", {"x"})(x=0.0)
    with pytest.raises(EvalDomainError):
        expr.parse("1/x", {"x"})(x=0.0)


def test_precedence():
    assert expr.parse("2^3^2", set())() == 512.0
    assert expr.parse("-2^2", set())() == -4.0
    assert expr.parse("2*-3", set())() == -6.0
    assert expr.parse("1 - 2 - 3", set())() == -4.0
    assert expr.parse("2 + 3 * 4^2", set())() == 50.0
    assert expr.parse("pi", set())() == math.pi


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("1 + ", set())
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("(1 + 2", set())
    assert "')'" in err.value.expected


def test_diff_tanh_at_zero():
    d = expr.diff(expr.parse("tanh(y)", {"y"}), "y")
    assert d(y=0.0) == pytest.approx(1.0, abs=1e-15)


def test_diff_constant_is_zero():
    assert expr.diff(expr.con(4.25), "x") is expr.con(0.0)
    assert expr.diff(expr.parse("pi", set()), "x")() == 0.0


def test_diff_sech_rule():
    # d sech = -sech tanh
    e = expr.call("sech", expr.var("y"))
    d = expr.diff(e, "y")
    for y in (0.3, -1.2, 2.0):
        assert d(y=y) == pytest.approx(-1 / math.cosh(y) * math.tanh(y), rel=1e-14)


def test_diff_general_power():
    # f^g with non-constant exponent
    e = expr.parse("(2 + sin(x))^x", {"x"})
    d = expr.diff(e, "x")
    h = 1e-6
    for x in (0.4, 1.3):
        fd = (e(x=x + h) - e(x=x - h)) / (2 * h)
        assert d(x=x) == pytest.approx(fd, rel=1e-8)


def test_diff_matches_finite_differences(rng):
    # independent central-difference oracle, h = 1e-5
    names = ["x", "y"]
    h = 1e-5
    checked = 0
    for _ in range(200):
        e = random_expr(rng, names)
        point = {n: float(rng.uniform(-1.5, 1.5)) for n in names}
        for n in names:
            d = expr.diff(e, n)
            up = dict(point); up[n] += h
            dn = dict(point); dn[n] -= h
            fd = (expr.evaluate(e, up) - expr.evaluate(e, dn)) / (2 * h)
            sym = expr.evaluate(d, point)
            assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym)), str(e)
            checked += 1
    assert checked >= 400


def test_roundtrip_print_parse(rng):
    names = ["u", "v"]
    for _ in range(300):
        e = random_expr(rng, names)
        text = str(e)
        e2 = expr.parse(text, set(names))
        pt = {n: float(rng.uniform(-2, 2)) for n in names}
        assert expr.evaluate(e, pt) == pytest.approx(expr.evaluate(e2, pt), abs=1e-15, rel=1e-15)


def test_diff_is_linear(rng):
    names = ["x"]
    for _ in range(50):
        e1 = random_expr(rng, names)
        e2 = random_expr(rng, names)
        a = expr.con(float(rng.uniform(-3, 3)))
        combo = expr.add(expr.mul(a, e1), e2)
        d_combo = expr.diff(combo, "x")
        d_split = expr.add(expr.mul(a, expr.diff(e1, "x")), expr.diff(e2, "x"))
        pt = {"x": float(rng.uniform(-1.5, 1.5))}
        assert expr.evaluate(d_combo, pt) == pytest.approx(expr.evaluate(d_split, pt), rel=1e-12, abs=1e-12)


def test_mixed_partials_commute(rng):
    names = ["x", "y"]
    for _ in range(50):
        e = random_expr(rng, names)
        dxy = expr.diff(expr.diff(e, "x"), "y")
        dyx = expr.diff(expr.diff(e, "y"), "x")
        pt = {n: float(rng.uniform(-1.5, 1.5)) for n in names}
        assert expr.evaluate(dxy, pt) == pytest.approx(expr.evaluate(dyx, pt), abs=1e-9, rel=1e-9)


def test_array_evaluation_matches_scalar(rng):
    e = expr.parse("sin(u)*cosh(v) + u^2/(2 + sech(v))", {"u", "v"})
    us = rng.uniform(-2, 2, size=40)
    vs = rng.uniform(-2, 2, size=40)
    arr = expr.evaluate(e, {"u": us, "v": vs})
    for i in range(40):
        assert arr[i] == expr.evaluate(e, {"u": us[i], "v": vs[i]})


def test_eval_table_group_shares_memo():
    e = expr.parse("sin(x) + cos(x)", {"x"})
    d = expr.diff(e, "x")
    vals = expr.eval_table((e, d), {"x": 0.3})
    assert vals[0] == pytest.approx(math.sin(0.3) + math.cos(0.3))
    assert vals[1] == pytest.approx(math.cos(0.3) - math.sin(0.3))


def test_compose_substitution():
    e = expr.parse("sech(y)*cos(x)", {"x", "y"})
    s = expr.compose(e, {"x": expr.var("u"), "y": expr.con(0.0)})
    assert expr.evaluate(s, {"u": 0.25}) == pytest.approx(math.cos(0.25))


def test_abs_differentiates_to_sign():
    d = expr.diff(expr.parse("abs(x)", {"x"}), "x")
    assert d(x=2.0) == 1.0
    assert d(x=-2.0) == -1.0
    assert d(x=0.0) == 0.0


def test_interning_shares_nodes():
    a = expr.parse("sin(x) + 1", {"x"})
    b = expr.parse("sin(x)+1", {"x"})
    assert a is b


def test_a_key_collision_keeps_two_nodes(monkeypatch):
    """A node whose key another node already holds (a hash collision,
    planted here) is a node of its own, found again by its fields, and
    evaluates as itself."""
    x = expr.var("x")
    key = expr._key(expr._VAR, None, None, None, "collides")
    monkeypatch.setitem(expr._interned, key, x)
    c = expr.var("collides")
    assert c is not x and (c.kind, c.name, c.key) == (expr._VAR, "collides", key)
    assert expr.var("collides") is c and expr.var("x") is x
    assert expr.evaluate(expr.sub(c, x), {"collides": 5.0, "x": 2.0}) == 3.0


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=200, deadline=None)
def test_hyperbolic_identity(u, v):
    e = expr.parse("cosh(x)^2 - sinh(x)^2", {"x"})
    assert expr.evaluate(e, {"x": u + v}) == pytest.approx(1.0, abs=1e-9)


@given(st.floats(-2, 2))
@settings(max_examples=200, deadline=None)
def test_sech_is_reciprocal_cosh(x):
    e = expr.parse("sech(x)*cosh(x)", {"x"})
    assert expr.evaluate(e, {"x": x}) == pytest.approx(1.0, rel=1e-12)


# --- compiled programs against the tree-walk oracle ---------------------------

# batch lengths around one and two grid chunks: eval_table runs its program
# once over any batch, however long
_LENGTHS = [None, 1, scenes.CHUNK - 1, scenes.CHUNK + 1, 2 * scenes.CHUNK + 3]


@given(st.integers(0, 2**32 - 1), st.sampled_from(_LENGTHS))
@settings(max_examples=40, deadline=None)
def test_compiled_program_matches_tree_walk(seed, n):
    """Bit-identical to the memoised tree walk on scalar bindings and on
    arrays of one sample, just under one grid chunk, just over one and
    over two."""
    rng = np.random.default_rng(seed)
    names = ["u", "v"]
    table = [[random_expr(rng, names) for _ in range(3)] for _ in range(2)]
    extra = random_expr(rng, names)
    if n is None:
        b = {k: float(rng.uniform(-2, 2)) for k in names}
    else:
        b = {k: rng.uniform(-2, 2, size=n) for k in names}
    want = eval_oracle.eval_table(table, b)
    got = expr.eval_table(table, b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a group shares one program and gives each table its own array
    got_t, got_e = expr.eval_table((table, extra), b)
    assert got_t.tobytes() == want.tobytes()
    assert got_e.tobytes() == eval_oracle.eval_table(extra, b).tobytes()


# --- operand order and negation folds against construction as written -------

# binding values: both zeros, and values whose sums, differences and products
# cancel to a zero exactly (1.5 - 1.5, 0.5 * 3 - 1.5)
_VALUES = [0.0, -0.0, 1.5, -1.5, 0.5, -0.5, 3.0, -3.0]
_CONSTANTS = [0.0, 1.0, -1.0, 2.0, -0.5, 3.0]
_STEPS = ["var", "con", "neg", "add", "add", "sub", "sub", "mul", "mul", "div"]


def _construct(rng, build, count):
    """count construction steps on build (expr or an eval_oracle.Written),
    each a leaf or an op on one or two earlier steps (recent ones likelier),
    in a fixed draw from rng.  Returns every step built, up to one that
    raises EvalDomainError (a division by a constant zero), and whether
    one did."""
    steps = []
    for _ in range(count):
        op = _STEPS[rng.integers(0, len(_STEPS))] if len(steps) > 1 else "var"
        if op == "var":
            steps.append(build.var("uvw"[rng.integers(0, 3)]))
        elif op == "con":
            steps.append(build.con(_CONSTANTS[rng.integers(0, len(_CONSTANTS))]))
        else:
            a, b = (steps[-1 - min(int(rng.exponential(2.0)), len(steps) - 1)]
                    for _ in range(2))
            try:
                steps.append(build.neg(a) if op == "neg" else getattr(build, op)(a, b))
            except EvalDomainError:
                return steps, True
    return steps, False


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_operand_order_and_negation_folds_keep_every_bit(seed):
    """Random construction steps through the constructors, which order the
    operands of + and * and fold negations, evaluate bit for bit as the
    same steps as written (eval_oracle.Written: operand order as given,
    negations not folded) at every binding where the written step is
    finite, signed zeros included.

    One exception: the constructors fold x - x and x / x on more pairs (a
    * b - b * a, x + (-x)).  From the first step they fold to a constant
    that the written steps compute, an exact zero may take the other sign
    (that zero minus y is -y, as written it is 0 - y, +0 for y = +0), so
    from there a zero equals a zero of either sign, and every other value
    keeps its bits.  A step built on such a fold may also divide by a
    constant zero as it is built (((a * b - b * a) / c) / ((a * b - b * a)
    / c), which the written steps fold to 1): before the first such fold,
    a step that the constructors cannot build is a zero division or not
    finite as written at every binding."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(4, 24))
    written = eval_oracle.Written()
    want_steps, want_raised = _construct(np.random.default_rng(seed), written, count)
    got_steps, got_raised = _construct(np.random.default_rng(seed), expr, count)
    assert len(got_steps) <= len(want_steps) and got_raised >= want_raised
    folded = next((i for i, (got, want) in enumerate(zip(got_steps, want_steps))
                   if got.kind == expr._CONST and want[0] != "con"), len(got_steps))
    rows = [{k: _VALUES[i] for k, i in zip("uvw", rng.integers(0, len(_VALUES), 3))}
            for _ in range(8)]
    for b in rows:
        memo = {}
        for i, want_step in enumerate(want_steps[:len(got_steps) + 1]):
            try:
                want = written.value(want_step, b, memo)
            except EvalDomainError:
                continue
            if not math.isfinite(want):
                continue
            if i == len(got_steps):     # expr raised as it built step i
                assert i > folded, f"step {i} is finite as written at {b}"
                continue
            with np.errstate(all="ignore"):
                got = expr.evaluate(got_steps[i], b)
            if i >= folded and want == 0.0:
                assert got == 0.0, (i, b)
            else:
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (i, b)


def test_commuted_operands_and_negations_are_one_node():
    """a + b and b + a, a * b and b * a are one node; a negation is pushed
    out of a product or quotient and folded into the sum or difference
    that consumes it, but (-a) - b and -(a - b) stay as built, since the
    rewrites to -(a + b) and b - a would flip the sign of a zero result."""
    a, b = expr.var("a"), expr.call("sin", expr.var("b"))
    assert expr.add(a, b) is expr.add(b, a) and expr.mul(a, b) is expr.mul(b, a)
    assert expr.sub(expr.mul(a, b), expr.mul(b, a)) is expr.ZERO
    assert expr.mul(expr.neg(a), b) is expr.neg(expr.mul(a, b))
    assert expr.div(a, expr.neg(b)) is expr.neg(expr.div(a, b))
    assert expr.div(expr.neg(a), b) is expr.neg(expr.div(a, b))
    assert expr.add(a, expr.neg(b)) is expr.sub(a, b) is expr.add(expr.neg(b), a)
    assert expr.sub(a, expr.neg(b)) is expr.add(a, b)
    assert expr.sub(expr.neg(a), b).kind == expr._SUB
    assert expr.neg(expr.sub(a, b)).kind == expr._NEG


@pytest.mark.parametrize("fn, text", [
    ("/", "1/(x - 3)"), ("log", "log(3 - x)"), ("sqrt", "sqrt(3 - x)"),
    ("^", "(3 - x)^0.5"),
])
def test_domain_error_in_last_chunk_only(fn, text):
    """One bad sample, the last of a batch longer than two grid chunks,
    raises; without it every value is finite."""
    x = np.linspace(0.0, 1.0, 2 * scenes.CHUNK + 3)
    x[-1] = 3.5 if fn != "/" else 3.0      # the only bad sample
    e = expr.parse(text, {"x"})
    with pytest.raises(EvalDomainError) as err:
        expr.eval_table([e], {"x": x})
    assert err.value.function == fn
    x[-1] = 0.5
    assert np.all(np.isfinite(expr.eval_table([e], {"x": x})))


@pytest.mark.parametrize("bad", [0, scenes.CHUNK + 5, 2 * scenes.CHUNK + 5])
def test_shared_denominator_is_checked_once_and_still_raises(bad):
    """Two numerators over one denominator node: only the first division
    checks it for zeros, and a zero still raises, whether it is the first
    sample of a long batch or one past the first or second grid chunk;
    without it the values are unchanged."""
    table = [expr.parse(text, {"x", "y"}) for text in ("x/(y - 1)", "sin(x)/(y - 1)")]
    prog = expr._compile(table, [(2,)])
    divisions = [arg for k, arg in zip(prog.kinds, prog.args) if k == expr._DIV]
    assert divisions == [True, False]
    n = 3 * scenes.CHUNK + 3
    b = {"x": np.linspace(-1.0, 1.0, n), "y": np.linspace(2.0, 3.0, n)}
    want = eval_oracle.eval_table(table, b)
    assert expr.eval_table(table, b).tobytes() == want.tobytes()
    b["y"][bad] = 1.0
    with pytest.raises(EvalDomainError) as err:
        expr.eval_table(table, b)
    assert (err.value.function, err.value.argument, err.value.sample) == ("/", 0.0, bad)


def test_domain_error_names_the_first_table_that_needs_it():
    """A group's domain error is given the first table whose leaves need the
    failing op: a node shared by tables 0 and 1 names table 0, one that
    only table 1 needs names table 1, and errors.named turns the table
    into its path."""
    x = expr.var("x")
    log, sqrt = expr.call("log", x), expr.call("sqrt", x)
    shared_by_0_and_1 = ([log], [expr.add(log, x)])
    needed_by_1 = ([expr.add(x, expr.ONE)], [sqrt], [x])
    b = {"x": np.array([1.0, -1.0])}
    for group, fn, table in [(shared_by_0_and_1, "log", 0), (needed_by_1, "sqrt", 1)]:
        with pytest.raises(EvalDomainError) as err:
            expr.eval_table(group, b)
        assert (err.value.function, err.value.sample, err.value.table) == (fn, 1, table)
    with pytest.raises(EvalDomainError) as err, named("t0", "t1", "t2"):
        expr.eval_table(needed_by_1, b)
    assert err.value.path == "t1"


@pytest.mark.parametrize("text, fn, argument", [
    ("log(0)*x", "log", 0.0), ("x*sqrt(-4)", "sqrt", -4.0), ("x*(-2)^0.5", "^", -2.0),
    ("1/0*x", "/", 0.0),
])
def test_a_constant_outside_its_domain_raises_where_it_is_built(text, fn, argument):
    """A constant argument folds, and one outside its function's domain
    raises as the expression is built, naming that function and no sample,
    as a division by a constant zero does."""
    with pytest.raises(EvalDomainError) as err:
        expr.parse(text, {"x"})
    assert (err.value.function, err.value.argument, err.value.sample) == (fn, argument, None)


def test_power_of_a_constant_base_differentiates_where_it_can():
    """d/dx of c^g builds log(c) only where g varies in x: (-2)^y has the
    derivative 0 in x, and (-2)^x and 0^x, which have none, raise naming
    ^, the function written, not the log or division of the rule."""
    names = {"x", "y"}
    assert expr.diff(expr.parse("(-2)^y", names), "x") is expr.ZERO
    assert expr.diff(expr.parse("2^x", names), "x") is expr.parse("2^x*log(2)", names)
    for text, base in (("(-2)^x", -2.0), ("0^x", 0.0)):
        with pytest.raises(EvalDomainError) as err:
            expr.diff(expr.parse(text, names), "x")
        assert (err.value.function, err.value.argument, err.value.sample) == ("^", base, None)


def _traced(run):
    """(bytes still allocated after run, peak bytes during it), traced."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return now - base, peak - base


def test_compiled_programs_keep_few_bytes_per_op(monkeypatch):
    """The programs of a one-chunk 24x24 verify of the cylinder keep under
    120 traced bytes an op: flat columns hold them, not a tuple an op with
    two more sequences (181 bytes an op; the columns keep 72)."""
    sc = scenes.builtin("catenoid_frame_cylinder")
    verify.run_verification(sc, 24, 24)       # every symbolic build is cached
    programs = {}
    monkeypatch.setattr(expr, "_programs", programs)
    kept, _ = _traced(lambda: verify.run_verification(sc, 24, 24))
    ops = sum(len(prog.kinds) for prog in programs.values())
    assert ops == 12178
    assert kept / ops < 120


def test_rebuilding_an_interned_scene_allocates_little(monkeypatch):
    """Building the cylinder scene and its surface composition again, every
    node interned already but no derivative or program cached, peaks under
    400 KB traced: interning, memos and programs key by node, not by id
    (542 KB with id keys and a tuple an op; 248 KB without)."""
    scenes.builtin("catenoid_frame_cylinder").surface.gauss_exprs()
    monkeypatch.setattr(expr, "_diff_cache", {})
    monkeypatch.setattr(expr, "_programs", {})
    _, peak = _traced(
        lambda: scenes.builtin("catenoid_frame_cylinder").surface.gauss_exprs())
    assert peak < 400 * 1024


def test_unknown_variable_raises_on_arrays():
    e = expr.parse("x + y", {"x", "y"})
    with pytest.raises(UnknownVariable):
        expr.eval_table([e], {"x": np.zeros(scenes.CHUNK + 1)})


def test_deep_chain_needs_no_recursion():
    """diff, compose, eval_table and to_string walk a 5,000-term sum (an
    expression 5,000 levels deep) without recursing, and the text parses
    back to the same interned nodes."""
    u, v = expr.var("u"), expr.var("v")
    uv = expr.mul(u, v)
    coef = [1.0 + i / 4096.0 for i in range(5000)]
    e = uv
    for c in coef[1:]:
        e = expr.add(e, expr.mul(expr.con(c), uv))
    du = expr.diff(e, "u")
    swapped = expr.compose(e, {"u": v, "v": u})
    U, V = np.linspace(0.1, 1.0, 7), np.linspace(-1.0, 0.5, 7)
    got = expr.eval_table((e, du, swapped), {"u": U, "v": V})
    total = math.fsum(coef)
    for value, want in zip(got, (total * U * V, total * V, total * U * V)):
        assert np.allclose(value, want, rtol=1e-12, atol=0.0)
    for node in (e, du):
        assert expr.parse(expr.to_string(node), {"u", "v"}) is node


def test_deep_parser_nesting_is_an_input_error():
    text = "(" * 400 + "x" + ")" * 400
    with pytest.raises(ExprError, match="nested too deeply"):
        expr.parse(text, {"x"})
    assert expr.parse("(" * 50 + "x" + ")" * 50, {"x"}) is expr.var("x")


@pytest.mark.parametrize("name", scenes.builtin_names())
def test_contract_is_einsum_bit_for_bit(monkeypatch, tmp_path, name):
    """Every contraction that verify and fields run on a built-in at 12x12,
    and the same on the first sample alone (a batch of one), gives the bits
    of np.einsum on samples-first C-contiguous copies of its operands."""
    sc = scenes.builtin(name)
    calls = []
    contract = expr.contract

    def record(subscripts, *operands):
        out = contract(subscripts, *operands)
        copies = [np.array(a, order="C") for a in operands]
        calls.append((subscripts, copies, out.copy()))
        return out

    monkeypatch.setattr(expr, "contract", record)
    verify.run_verification(sc, 12, 12)
    scenes.export_fields(scenes.make_grid(sc, 12, 12), tmp_path / "f.csv")
    assert calls
    for subscripts, operands, got in calls:
        want = np.einsum(subscripts, *operands)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), subscripts
        one = [a[:1] for a in operands]
        got = contract(subscripts, *one)
        want = np.einsum(subscripts, *one)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), subscripts
