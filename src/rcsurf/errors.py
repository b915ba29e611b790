"""Exception types shared across the package."""


class RcsurfError(Exception):
    """Base class for all errors raised by this package."""


# --- expression layer ---------------------------------------------------

class ExprError(RcsurfError):
    pass


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
    number, sqrt of a negative number, division by zero, ...)."""

    def __init__(self, function, argument):
        self.function = function
        self.argument = argument
        super().__init__(f"{function} evaluated outside its domain (argument {argument!r})")


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
    numeric layers).  field names it as block.key; for a block value,
    sample, u and v locate the first offending sample (at_sample)."""

    def __init__(self, field, message, sample=None, u=None, v=None):
        self.field = field
        self.sample, self.u, self.v = sample, u, v
        super().__init__(f"{field}: {message}")

    @classmethod
    def at_sample(cls, field, sample, u, v):
        return cls(field, f"non-finite value at sample {sample} (u={u!r}, v={v!r})",
                   sample, u, v)

    def shifted(self, offset):
        """The same error with its sample index moved by offset (from a
        chunk's index to the grid's)."""
        if self.sample is None:
            return self
        return self.at_sample(self.field, self.sample + offset, self.u, self.v)


# --- surface --------------------------------------------------------------

class DegenerateParameterization(RcsurfError):
    """The tangents of surface.X are linearly dependent at the sample (u, v),
    the first such sample in sample order."""

    def __init__(self, u, v):
        self.u, self.v = u, v
        super().__init__(f"surface.X: tangents linearly dependent (area density "
                         f"below 1e-9) at u={u!r}, v={v!r}")


class NotIsothermal(RcsurfError):
    """A chart declared isothermal (surface.isothermal) is not at the sample
    (u, v), the first such sample in sample order, where the induced
    metric is E, F, G."""

    def __init__(self, E, F, G, u, v):
        self.E, self.F, self.G = E, F, G
        self.u, self.v = u, v
        super().__init__(f"surface.isothermal: chart is not isothermal at "
                         f"u={u!r}, v={v!r}: E={E!r} F={F!r} G={G!r}")


# --- Gauss map ------------------------------------------------------------

class NotWeitzenboeck(RcsurfError):
    """Operation needs a frame-defined (Weitzenboeck) ambient manifold."""


class NotClosed(RcsurfError):
    pass


class AxisNotNormal(RcsurfError):
    pass


# --- scenes / IO ----------------------------------------------------------

class SceneFormatError(RcsurfError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class UnknownScene(RcsurfError):
    pass


class UndefinedField(RcsurfError):
    pass


class IoError(RcsurfError):
    pass
