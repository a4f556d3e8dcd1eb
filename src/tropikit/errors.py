"""Exceptions and warning categories shared across the package."""


class TropikitError(Exception):
    """Base class for all library errors."""


class DomainError(TropikitError):
    """A value lies outside the carrier set of the semiring in use."""


class NotIdempotent(TropikitError):
    """An operation that requires an idempotent addition got a semiring without one."""


class ShapeMismatch(TropikitError):
    """Matrix or vector shapes are incompatible for the requested operation."""


class SpecMismatch(TropikitError):
    """Operands belong to different semirings."""


class NonConvergent(TropikitError):
    """An iterative solve failed to reach a fixpoint within the iteration budget.

    ``endpoint`` is set to ``"lower"`` or ``"upper"`` when the failure happened
    inside one endpoint system of an interval solve, else None.
    """

    def __init__(self, message, endpoint=None):
        super().__init__(message)
        self.endpoint = endpoint


class NegativeCycle(NonConvergent):
    """Shortest-path weights are unbounded below (a negative-weight cycle exists).

    ``cycle`` is a witness: a tuple of node ids whose consecutive arcs, the
    last back to the first included, are graph edges of negative total
    weight; it is empty only when float rounding hides every such cycle.
    """

    def __init__(self, message, endpoint=None, cycle=()):
        super().__init__(message, endpoint)
        self.cycle = tuple(cycle)


class OutOfMemory(TropikitError):
    """A computation could not allocate the memory it needs."""


class GridMismatch(TropikitError):
    """Sampled functions do not share the grid layout the operation requires."""


class DimensionMismatch(TropikitError):
    """Operands live in spaces of different dimension."""


class UnsupportedDimension(TropikitError):
    """Exact polytope reduction was requested above dimension 2."""


class AmbiguousLimit(TropikitError):
    """The dequantized limit is not determined: the leading exponent is tied
    between terms whose coefficients are not all positive."""


class FileFormatError(TropikitError):
    """An input file does not follow the expected text format."""


class DegenerateInput(UserWarning):
    """Input contained repeated exponent vectors; they were combined first."""


class CancellationAtPoint(UserWarning):
    """Mixed-sign coefficients cancelled exactly at the evaluation point."""
