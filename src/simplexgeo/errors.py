"""Exception types shared across the package.

The package defines and emits no warning: every failure is raised as one
of these errors, or as a built-in arithmetic or value error.
"""


class SimplexError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SimplexError):
    """Points with incompatible coordinate dimensions were mixed."""


class InvalidPoint(SimplexError):
    """A coordinate is non-finite or a point is empty."""


class TooFewPoints(SimplexError):
    """Not enough points to form the requested object."""


class Degenerate(SimplexError):
    """The vertex set is affinely dependent under the rank tolerance."""


class Underflow(SimplexError, ArithmeticError):
    """Squared lengths of a point set underflow the float range."""


class IndexOutOfRange(SimplexError):
    """A vertex index is outside 0..m."""


class InvalidDimension(SimplexError, ValueError):
    """A dimension or numeric argument is out of its supported range."""


class NotRegular(SimplexError):
    """Operation requires equal edge lengths within tolerance."""


class NotFullDimensional(SimplexError):
    """Operation requires m == n."""


class EmptyInput(SimplexError):
    """An empty point list was supplied."""


class CapExceeded(SimplexError):
    """Input size exceeds the documented enumeration cap."""


class EvaluationFailure(SimplexError):
    """A system function returned a non-finite value."""


class NoSignCriterion(SimplexError):
    """Neither bisection child satisfies the sign-based selection rule."""


class ParseError(SimplexError):
    """An input file does not conform to the expected JSON schema."""


class UnknownFunction(SimplexError):
    """A named system function is not among the built-in ones."""

