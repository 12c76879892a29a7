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
    """A malformed or out-of-range value from a file, a flag or QSN_MAX_DIM.
    A failure read from a file keeps its kind (:class:`LayoutError`,
    :class:`DimensionLimitError`) and names the file and field (:func:`located`)."""


def located(where: str | None, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a plain ``ValueError`` it raises becomes a
    :class:`FormatError`, the package's own subclasses keep their type, and
    ``where``, when given, goes in front of the message."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        kind = FormatError if type(exc) is ValueError else type(exc)
        raise kind(f"{where}: {exc}" if where else str(exc)) from exc
