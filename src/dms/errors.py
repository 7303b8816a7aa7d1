"""Exception types raised by the dms package.

Every error derives from DmsError so callers can catch the whole family.
Construction errors carry the offending cell id in args when one exists.
"""


class DmsError(Exception):
    pass


# --- complex construction ---

class DegenerateFacet(DmsError):
    pass


class DuplicateFacet(DmsError):
    pass


class NonPseudomanifold(DmsError):
    pass


class MissingFace(DmsError):
    pass


class BadDimensionDrop(DmsError):
    pass


class BadCellBoundary(DmsError):
    """A cell's boundary list violates a grading rule (e.g. an edge
    without exactly two distinct endpoints)."""


class BoundaryNotCycle(DmsError):
    pass


class UnknownCell(DmsError):
    pass


class NotClosedSurface(DmsError):
    pass


# --- homology ---

class NegativeBetti(DmsError):
    """The ranks computed for a complex gave a negative Betti number."""


# --- Morse functions / fields ---

class MissingValue(DmsError):
    pass


class InvalidFunction(DmsError):
    """Not a discrete Morse function: its first violations, or the
    smallest cell whose value is not finite."""


class CyclicField(DmsError):
    pass


class MultipleRoots(DmsError):
    pass


class StartIsCritical(DmsError):
    pass


class InconsistentField(DmsError):
    pass


# --- surgery ---

class NotAnEdge(DmsError):
    pass


class NotA2Cell(DmsError):
    pass


class BadChord(DmsError):
    pass


class NotTopCell(DmsError):
    pass


class VertexNotOnCell(DmsError):
    pass


class NotPerfectInput(DmsError):
    pass


class DimensionMismatch(DmsError):
    pass


class NoEligibleBeta(DmsError):
    pass


class InseparableCriticals(DmsError):
    """Separating the critical cells (surgery._separate_critical_cells)
    ran out of steps; args are the two critical cells its next step
    would part (two critical polygons whose boundaries meet, on every
    input seen so far)."""


class UnclearableBoundary(DmsError):
    """compose in dimension other than 2 found cells on the boundary of
    the first summand's critical top cell that are critical (of
    dimension >= 1) or paired inside that boundary; only a surface's
    are cleared off.  args are those cells, by the caller's ids."""


class InexactFunction(DmsError):
    """compose or decompose assembled a function that fails the Morse
    condition, because floats could not hold the values its formulas ask
    for (a summand's values too large, or too close together for a
    midpoint); args are the violations (cell, kind) by the result's ids,
    at most five."""


# --- splitting ---

class WrongCriticalCount(DmsError):
    pass


class PathEscapes(DmsError):
    pass


class NoFlankingCells(DmsError):
    pass


class NotSeparating(DmsError):
    pass


class UnbalancedBoundaryCriticals(DmsError):
    pass


class BoundaryCriticalPresent(DmsError):
    pass


class NonOrientableInput(DmsError):
    pass


# --- toolkit ---

class Disconnected(DmsError):
    pass


class ParseError(DmsError):
    pass


class UnknownFixture(DmsError):
    """A fixture kind that names no fixture, or a bad genus."""
