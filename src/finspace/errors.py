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
    pass


class NotATopology(FinspaceError):
    pass


class NotABeatPoint(FinspaceError):
    pass


class HeightExceeded(FinspaceError):
    pass


class ParseError(FinspaceError):
    pass


class ValidationError(FinspaceError):
    pass
