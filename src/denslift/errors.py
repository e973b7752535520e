"""Exception types shared across the package."""


class DensliftError(Exception):
    """Base class for all domain errors."""


class ZeroDenominatorError(DensliftError):
    """A substitution or division made a scalar denominator vanish identically."""


class CoefficientTooLargeError(DensliftError):
    """A rational coefficient has more digits than the interpreter will print."""


class DuplicateSymbolError(DensliftError):
    """A jet symbol base was registered twice."""


class DimensionMismatchError(DensliftError):
    """Operands live over different coordinate dimensions."""


class HasWeightOperatorError(DensliftError):
    """An operation expected an operator free of the weight generator."""


class ExceptionalWeightError(DensliftError):
    """The construction is undefined at this base weight (0, 1/2 or 1)."""


class OrderTooHighError(DensliftError):
    """Input operator order exceeds what the operation accepts."""


class OrderViolationError(DensliftError):
    """A pencil coefficient exceeds its order bound."""


class NotNormalizedError(DensliftError):
    """The operator does not annihilate the constant function."""


class DimensionTooSmallError(DensliftError):
    """The construction needs more coordinate directions."""


class DimensionNotOneError(DensliftError):
    """The construction is only implemented on the line."""


class BadPolynomialError(DensliftError):
    """A weight polynomial violates its degree or normalization constraint."""


class IndexRangeError(DensliftError):
    """A coordinate index fell outside 1..dim."""


class ParseError(DensliftError):
    """Expression syntax error; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class FlagError(DensliftError):
    """A command-line flag value could not be read."""


class SchemaError(DensliftError):
    """JSON input does not follow the denslift/1 operator schema."""
