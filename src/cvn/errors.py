"""Domain errors shared across the package."""


class CvnError(Exception):
    """Base class for all domain errors."""


class IndexOutOfRange(CvnError):
    pass


class NotABasis(CvnError):
    pass


class NotReduced(CvnError, ValueError):
    """Letters that are not freely reduced.  Also a ValueError, so input
    parsing that catches ValueError treats it as bad input."""


class Unsupported(CvnError):
    pass


class TrivialClass(CvnError):
    pass


class DisconnectedGraph(CvnError):
    pass


class BadValency(CvnError):
    pass


class WrongRank(CvnError):
    pass


class DuplicateName(CvnError):
    pass


class NonpositiveLength(CvnError):
    pass


class NotClosed(CvnError):
    pass


class NotAForest(CvnError):
    pass


class BadPartition(CvnError):
    pass


class NotAnAutomorphism(CvnError):
    pass


class RankMismatch(CvnError):
    pass


class DimensionMismatch(CvnError):
    pass


class Infeasible(CvnError):
    pass


class EmptyDirection(CvnError):
    pass


class BudgetExceeded(CvnError):
    pass


class WalkStuck(CvnError):
    pass


class NotAGeodesic(CvnError):
    pass


class NotMaximalSimplex(CvnError):
    pass


class ParamOutOfRange(CvnError):
    pass


class SelfCheckFailed(CvnError):
    """An exact check of a computed result against its definition failed."""
