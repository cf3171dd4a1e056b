"""Exception hierarchy for the longmem package: the one family of bad input.

A subclass exists only where some code tells it apart: ``main`` maps a
``SchemaError`` to exit 1, and a ``DegenerateSeriesError`` names its
series in ``.ids``.
"""

__all__ = ["LongmemError", "SchemaError", "DegenerateSeriesError"]


class LongmemError(ValueError):
    """Bad data or arguments; anything else longmem raises is a bug."""


class SchemaError(LongmemError):
    """Input file violates the documented panel schema."""


class DegenerateSeriesError(LongmemError):
    """One or more series cannot be analysed (e.g. constant input).

    The offending series ids are available as ``.ids``.
    """

    def __init__(self, ids, message):
        self.ids = tuple(ids)
        super().__init__(message)
