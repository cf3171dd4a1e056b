"""Exception hierarchy for the longmem package: the one family of bad input."""

__all__ = [
    "LongmemError",
    "SchemaError",
    "AlignmentError",
    "ScaleError",
    "FitError",
    "DegenerateSeriesError",
]


class LongmemError(ValueError):
    """Bad data or arguments; anything else longmem raises is a bug."""


class SchemaError(LongmemError):
    """Input file violates the documented panel schema."""


class AlignmentError(LongmemError):
    """Panel alignment failed (empty intersection, unfillable gap, ...)."""


class ScaleError(LongmemError):
    """Scale grid or segmentation is invalid for the given data."""


class FitError(LongmemError):
    """A least-squares fit has too few usable points or no spread."""


class DegenerateSeriesError(LongmemError):
    """One or more series cannot be analysed (e.g. constant input).

    The offending series ids are available as ``.ids``.
    """

    def __init__(self, ids, message):
        self.ids = tuple(ids)
        super().__init__(message)
