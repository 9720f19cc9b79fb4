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


class SizeExceededError(RaagBraidError):
    """A predicted count (colour placements, halo vertices or edges,
    elements or samples) passed ``DEFAULT_BUDGET``."""


#: the one budget: most colour placements of the exact colouring, most
#: vertices and edges of a halo and of its subdivision, and most elements
#: and samples of the injectivity check. Every bounded step reads it at
#: call time, so that setting ``errors.DEFAULT_BUDGET`` bounds them all.
DEFAULT_BUDGET = 1_000_000


class VerificationError(RaagBraidError):
    """A verified property failed to hold."""


class ImproperColoringError(VerificationError):
    """A vertex coloring is not proper or not surjective onto its color range."""


class IllegalStepError(VerificationError):
    """A configuration-space step is not a legal one-cell: its source is off
    its edge or holds no token, or its target is occupied.

    Raised by ``edge_path``, the validator of caller-supplied moves. The
    pipeline's loops are read off a halo that meets the axioms, which makes
    every step legal, so they never reach it.
    """
