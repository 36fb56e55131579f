"""Exception types shared across the package."""


class HochlatError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(HochlatError):
    """The cover relation contains a directed cycle."""


class NotCover(HochlatError):
    """An input pair (a, b) is comparable but not a cover (something sits strictly between)."""


class NotBounded(HochlatError):
    """The poset lacks a unique minimum or a unique maximum."""


class NotGraded(HochlatError):
    """Maximal chains do not all have the same length."""


class NotInterval(HochlatError):
    """The pair (lo, hi) does not describe an interval (lo is not below hi)."""


class SizeBound(HochlatError):
    """A construction parameter exceeds its supported range."""


class NotALattice(HochlatError):
    """Some pair of elements has no least upper bound or no greatest lower bound.

    Carries the offending pair as ``args[-1]`` when known.
    """

    def __init__(self, message, pair=None):
        super().__init__(message, pair) if pair is not None else super().__init__(message)
        self.pair = pair


class NoUniqueMin(HochlatError):
    """A cover's label is undefined: the set {c : a \\/ c = b} has no minimum."""


class NotSemidistributive(HochlatError):
    """The lattice fails (join or meet) semidistributivity where it is required."""


class NotJoinSemidistributive(HochlatError):
    """The lattice fails join semidistributivity where it is required."""


class NotExtremal(HochlatError):
    """The lattice is not extremal (irreducible counts do not match its length)."""


class NotAFace(HochlatError):
    """The given vertex set is not a face of the complex."""


class MalformedLabelSet(HochlatError):
    """A label set is not the core label set of any element."""


class MalformedWord(HochlatError):
    """A letter sequence is not a valid element of the shuffle lattice."""


class InterpolationDegeneracy(HochlatError):
    """The evaluation grid cannot determine the polynomial; re-pick points."""


class InvariantViolated(HochlatError):
    """A result contradicts a theorem the computation relies on: a bug, not bad input."""
