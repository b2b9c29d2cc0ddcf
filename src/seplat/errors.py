"""Exception types shared across the package.

Every error raised by the library derives from SeplatError, so callers
(notably the CLI) can map library failures to exit codes uniformly.
"""


class SeplatError(Exception):
    """Base class for all seplat errors."""


class CycleError(SeplatError):
    """The directed part of a graph contains a cycle."""


class DuplicateEdge(SeplatError):
    """An edge of the same kind was given twice for one vertex pair."""


class UnknownVertex(SeplatError):
    """A vertex label does not exist in the graph."""


class SelfLoop(SeplatError):
    """An edge joins a vertex to itself."""


class InvalidPath(SeplatError):
    """A path object is malformed or inconsistent with the graph."""


class AdjacentVertices(SeplatError):
    """The two query vertices are directly connected by an edge."""


class KindMismatch(SeplatError):
    """Lattice cells of different kinds were mixed in one operation."""


class NotSpacelike(SeplatError):
    """The two probe cells are not spacelike separated."""


class UnknownCell(SeplatError):
    """A cell does not correspond to a vertex of the active graph."""


class DisjointnessViolation(SeplatError):
    """Event and conditioning vertex sets overlap."""


class SeparatedInput(SeplatError):
    """A dependence witness was requested for a separating conditioning set."""


class BudgetExceeded(SeplatError):
    """An enumeration exceeded its configured size budget."""
