"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: InputError -> 2,
SizeExceededError -> 3, VerificationError -> 4.
"""


class RaagBraidError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RaagBraidError):
    """Malformed or inconsistent input (files, words, arguments)."""


class GraphFormatError(InputError):
    """Bad graph data: self-loops, undeclared endpoints, malformed JSON."""


class WordFormatError(InputError):
    """Unparseable group word text."""


class UnknownVertexError(InputError):
    """A vertex or generator name that the graph/presentation does not declare."""


class EmptyGraphError(InputError):
    """An operation that needs at least one vertex got an empty graph."""


class BaseMismatchError(InputError):
    """Path composition with incompatible basepoints."""


class InsufficientSubdivisionError(InputError):
    """A configuration-space operation needs a sufficiently subdivided graph."""


class SizeExceededError(RaagBraidError):
    """A configured resource bound (vertex count, cell budget) was exceeded."""


#: the default of every budget: elements, samples and cells
DEFAULT_BUDGET = 1_000_000


class VerificationError(RaagBraidError):
    """A verified property failed to hold."""


class ImproperColoringError(VerificationError):
    """A vertex coloring is not proper or not surjective onto its color range."""


class IllegalStepError(VerificationError):
    """A configuration-space step would collide two tokens.

    Unreachable for loops of a verified halo; reaching it signals a halo
    axiom violation.
    """
