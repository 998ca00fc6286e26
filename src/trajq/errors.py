"""Exception hierarchy shared across the package.

Every error raised by trajq derives from :class:`TrajqError` so callers can
catch one base type at API boundaries (the CLI maps them to exit code 1).
Errors specific to a single module are defined here too, grouped by the
module that raises them, because several are raised from more than one place
(ingestion re-raises model invariant failures, the CLI re-raises parser
failures, and so on).
"""

from __future__ import annotations


class TrajqError(Exception):
    """Base class for all errors raised by this package."""


# --- data model ---------------------------------------------------------


class EmptyTrajectoryError(TrajqError):
    """A trajectory must contain at least one point."""


class NonMonotoneTimeError(TrajqError):
    """Timestamps must be strictly increasing along a trajectory."""


class NonFiniteValueError(TrajqError):
    """Coordinates and timestamps must be finite floats."""


class PointOrderError(TrajqError, ValueError):
    """Malformed point rows: samples that are not three numbers (x, y, tau),
    or point columns of unequal length."""


class RelationOrderError(TrajqError, ValueError):
    """A trajectories relation holds a tid twice or rows not sorted by tid."""


class UnknownTidError(TrajqError, KeyError):
    """Lookup of a trajectory id that is not in the relation."""


class UnknownPropertyError(TrajqError, KeyError):
    """Lookup of a property name that is not recorded."""


# --- geometry -----------------------------------------------------------


class OutOfRangeError(TrajqError):
    """A segment parameter fell outside the closed unit interval."""


class InvalidGeometryError(TrajqError, ValueError):
    """A region or interval with degenerate or non-finite bounds."""


class CrossingOverflowError(TrajqError, ValueError):
    """A coordinate difference along a segment overflows the float range, so
    the segment's threshold crossings cannot be computed."""


# --- predicate language -------------------------------------------------


class PredicateSyntaxError(TrajqError):
    """Raised by the predicate parser on malformed input.

    Attributes:
        position: 0-based character offset of the offending token.
        expected: human-readable description of what was expected there.
    """

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        detail = f"expected {expected}" + (f", found {found}" if found else "")
        super().__init__(f"syntax error at position {position}: {detail}")


class UnknownNameError(TrajqError, KeyError):
    """A predicate references a region/interval name missing from the environment."""


class PredicateTypeError(TrajqError):
    """A predicate applies a temporal operator to a region, or similar kind mismatch."""


# --- evaluation ---------------------------------------------------------


class ValidationFailedError(TrajqError):
    """Evaluation was attempted on a predicate that does not validate."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(d.message for d in self.diagnostics)
        super().__init__(f"predicate failed validation: {lines}")


class UnknownStrategyError(TrajqError, KeyError):
    """An approximation strategy name with no registered factory."""


class StrategyOutputError(TrajqError, ValueError):
    """An approximation strategy returned something other than a sequence
    of real numbers, or parameters that are unsorted or outside [0, 1]."""


class StrategyParameterError(TrajqError, ValueError):
    """An approximation strategy was asked for with a parameter outside its
    range, such as a negative number of points per segment, or a strategy,
    strategy name or factory of the wrong type was handed over."""


class UnsupportedStrictnessError(TrajqError, ValueError):
    """A strictness kind that is unknown, or that an operation does not
    implement."""


# --- relation classifiers -----------------------------------------------


class DegenerateSpanError(TrajqError):
    """Interval classification of a trajectory whose time span has zero length."""


class UnsupportedLabelError(TrajqError, KeyError):
    """A relation label outside the set a compiler or catalog supports, or a
    value that is no label at all."""


# --- nested-relational engine -------------------------------------------


class Nf2Error(TrajqError):
    """Base for algebra type-checking and execution failures."""


class UnknownAttributeError(Nf2Error, KeyError):
    """An expression references an attribute absent from its input schema."""


class TypeMismatchError(Nf2Error):
    """An expression combines values of incompatible types."""


# --- dataset I/O --------------------------------------------------------


class CsvParseError(TrajqError):
    """Malformed CSV cell or header.

    Attributes:
        line: 1-based line number.
        column: 1-based field index.
    """

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, field {column}: {message}")


class DuplicateKeyError(TrajqError):
    """Two rows with the same key: (tid, order) for points, tid for rows
    keyed per trajectory (order is None then)."""

    def __init__(self, tid: str, order: int | None):
        self.tid = tid
        self.order = order
        if order is None:
            super().__init__(f"duplicate row for tid {tid!r}")
        else:
            super().__init__(f"duplicate point key ({tid!r}, {order})")


class InvariantViolationError(TrajqError):
    """A loaded dataset violates a model invariant.

    Attributes:
        tid: the trajectory id the violation belongs to.
    """

    def __init__(self, tid: str, detail: str):
        self.tid = tid
        super().__init__(f"trajectory {tid!r}: {detail}")
