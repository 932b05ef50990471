"""Exception types raised by the library.

Everything derives from DivisorGraphError so callers (and the CLI) can
catch library errors in one place and map them to exit codes.
"""


class DivisorGraphError(Exception):
    """Base class for all errors raised by this package."""


class DisconnectedGraph(DivisorGraphError):
    """The edge set does not connect all vertices (loops do not count)."""


class NegativeWeight(DivisorGraphError):
    """A vertex weight is negative or not an integer."""


class UnknownVertexId(DivisorGraphError):
    """A vertex id does not belong to the graph."""


class UnknownEdge(DivisorGraphError):
    """An edge index is out of range for the graph."""


class LoopInContractionSet(DivisorGraphError):
    """Contraction sets must not contain loop edges."""


class GraphMismatch(DivisorGraphError):
    """Operands live on different graphs."""


class EnumerationCapExceeded(DivisorGraphError):
    """Class or subset enumeration, or a loopless model, would exceed its cap."""


class DegreeCapExceeded(DivisorGraphError):
    """Rank computation refused: degree or reductions past the search cap."""


class RequiresWeightlessLoopless(DivisorGraphError):
    """Operation is only defined on weightless, loopless graphs."""


class DegreeOutOfRange(DivisorGraphError):
    """Divisor degree is outside the range required by the operation."""


class DegreeNotZero(DivisorGraphError):
    """Operation requires a degree-zero divisor."""


class MultiEdgeContraction(DivisorGraphError):
    """Operation requires a single-edge contraction."""


class NotABridge(DivisorGraphError):
    """Operation requires the contracted edge to be a bridge."""


class NotSemistable(DivisorGraphError):
    """Graph has a weight-zero vertex of valency < 2."""


class GenusTooSmall(DivisorGraphError):
    """Operation requires genus at least 2."""


class DocumentError(DivisorGraphError):
    """Malformed graph document or divisor specification."""
