"""Exception types shared across the package."""

import contextlib


class RcsurfError(Exception):
    """Base class for all errors raised by this package.

    An error may say where it is: path, the scene entry at fault, and
    sample, the index of the first bad sample in the batch where it was
    found.  Its one text is "path: message at sample i (u=..., v=...)",
    each part present when known.  Kernels and guards give the index;
    located adds the sample's (u, v) and moves the index into the grid's,
    and named gives an expression error its path.
    """

    def __init__(self, message="", path=None, sample=None):
        super().__init__(message)
        self.message, self.path, self.sample = message, path, sample
        self.u = self.v = None

    def __str__(self):
        text = f"{self.path}: {self.message}" if self.path else self.message
        where = " ".join(([f"sample {self.sample}"] if self.sample is not None else [])
                         + ([f"(u={self.u!r}, v={self.v!r})"] if self.u is not None else []))
        return f"{text} at {where}" if where else text


@contextlib.contextmanager
def located(U, V, offset=None):
    """Give an RcsurfError raised inside, that names a sample of the batch
    U, V, the (u, v) of the sample, and move its index by offset into the
    grid's (None drops it: the batch is no grid)."""
    try:
        yield
    except RcsurfError as err:
        if err.sample is not None:
            err.u, err.v = float(U[err.sample]), float(V[err.sample])
            err.sample = None if offset is None else err.sample + offset
        raise


# --- expression layer ---------------------------------------------------

class ExprError(RcsurfError):
    table = 0       # the table of a group that meets it (expr.eval_table)


class ExprSyntaxError(ExprError):
    """Parse failure. Carries the byte offset, 1-based line/column and the
    set of token descriptions that would have been accepted there."""

    def __init__(self, text, offset, expected):
        self.offset = offset
        self.expected = frozenset(expected)
        self.line = text.count("\n", 0, offset) + 1
        last_nl = text.rfind("\n", 0, offset)
        self.column = offset - (last_nl + 1) + 1
        want = ", ".join(sorted(self.expected))
        super().__init__(
            f"syntax error at line {self.line}, column {self.column} "
            f"(offset {offset}): expected {want}"
        )


class UnknownVariable(ExprError):
    def __init__(self, name, offset=None):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown variable {name!r}")


class UnknownFunction(ExprError):
    def __init__(self, name, offset=None):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown function {name!r}")


class EvalDomainError(ExprError):
    """Raised instead of silently producing NaN (log of a non-positive
    number, sqrt of a negative number, division by zero, ...), with the
    argument at the first bad sample."""

    def __init__(self, function, argument, sample=None):
        self.function, self.argument = function, argument
        super().__init__(f"{function} evaluated outside its domain (argument {argument!r})",
                         sample=sample)


@contextlib.contextmanager
def named(*paths):
    """Give an ExprError raised inside that names no path the scene entry
    at fault: paths[t] for one met in table t of a group, the last path
    for any later table."""
    try:
        yield
    except ExprError as err:
        if err.path is None:
            err.path = paths[min(err.table, len(paths) - 1)]
        raise


# --- rotations -------------------------------------------------------------

class NonUnitAxis(RcsurfError):
    pass


# --- ambient manifold -----------------------------------------------------

class SingularFrame(RcsurfError):
    pass


class OutsideChart(RcsurfError):
    pass


class IncompatibleConnection(RcsurfError):
    """Connection coefficients fail metric compatibility beyond tolerance."""


class NonFiniteValue(RcsurfError):
    """A grid block or residual holds inf or NaN (the inputs overflow the
    numeric layers); its path is block.key."""


# --- surface --------------------------------------------------------------

class DegenerateParameterization(RcsurfError):
    """The tangents of surface.X are linearly dependent."""


class NotIsothermal(RcsurfError):
    """A chart declared isothermal (surface.isothermal) is not; E, F, G is
    the induced metric at the sample."""

    def __init__(self, E, F, G, sample):
        self.E, self.F, self.G = E, F, G
        super().__init__(f"chart is not isothermal: E={E!r} F={F!r} G={G!r}",
                         "surface.isothermal", sample)


# --- Gauss map ------------------------------------------------------------

class NotWeitzenboeck(RcsurfError):
    """Operation needs a frame-defined (Weitzenboeck) ambient manifold."""


class NotClosed(RcsurfError):
    pass


class AxisNotNormal(RcsurfError):
    pass


# --- scenes / IO ----------------------------------------------------------

class SceneFormatError(RcsurfError):
    def __init__(self, path, message):
        super().__init__(message, path or None)


class UnknownScene(RcsurfError):
    pass


class UndefinedField(RcsurfError):
    pass


class IoError(RcsurfError):
    pass
