"""Exception types shared across the library."""


class FinspaceError(Exception):
    """Base class for all library errors."""


class DuplicateLabel(FinspaceError):
    pass


class UnknownLabel(FinspaceError):
    pass


class CycleError(FinspaceError):
    """The supplied relation is not antisymmetric."""


class EmptyPoset(FinspaceError):
    """Operation undefined on the empty poset (e.g. height)."""


class GuardExceeded(FinspaceError):
    """An enumeration bound was hit."""


class NotDownSet(FinspaceError):
    """``hom_set_interval`` was given a U that is not a down-set."""


class NotATopology(FinspaceError):
    """``specialization_order`` was given a family that is not a topology."""


class NotABeatPoint(FinspaceError):
    """``remove_beat_point`` was asked to remove a point it cannot."""


class HeightExceeded(FinspaceError):
    """A height-1 criterion was given an empty poset or one of height > 1."""


class ParseError(FinspaceError):
    pass


class ValidationError(FinspaceError):
    pass
