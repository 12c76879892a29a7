"""Exception types with narrow meanings, raised across the package."""


class DimensionLimitError(ValueError):
    """A requested operator or state exceeds the configured dimension cap."""


class LayoutError(ValueError):
    """A subsystem layout does not match the object it is applied to."""


class NoncommutingGeneratorsError(ValueError):
    """An operation that needs mutually commuting generators got a sensor
    whose generators do not commute; use the local-ancilla purification
    route instead."""


class FormatError(ValueError):
    """Rejected input from a file, a flag, a config field or QSN_MAX_DIM."""
