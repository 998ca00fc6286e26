"""Catalogs and classifiers for trajectory/area and span/interval relations.

Nineteen line-versus-area relations cover every way a sampled path can meet
an axis-aligned rectangle (Egenhofer & Herring 1990), distinguished by where
the path starts and ends (interior, boundary, exterior) and which classes
its points visit. Each label carries a predicate formula over pf, pl, and
quantifiers on T or TFL, so under a strictness every formula is decided by
the path's class signature: the classes of pf and pl and the sets met over
TFL and over T. Classification computes that signature in one pass over the
mode's sites and looks the labels up in a table filled, per signature, by
evaluating the formulas on it. Labels follow the standard numbering of the
intersection-matrix patterns they correspond to.

Thirteen interval relations relate the trajectory's time span to a query
interval. The seven base relations have predicate formulas; the six
mirrored ones swap the before/after roles and border sides. A border atom
alone cannot say which border a point sits on, so the started-by and
finished-by formulas carry an interior-visit conjunct to rule out the
met-by and meets readings. Span classification itself compares endpoints
directly, which is exhaustive and mutually exclusive; the formulas remain
available for fidelity checks and for predicate-based selection.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable

from .errors import DegenerateSpanError, PredicateTypeError, UnsupportedLabelError
# evaluate stays importable here: tracing wraps the names modules look up.
from .evaluate import RegionSignature, Strictness, evaluate, holds_on_signature
from .evaluate import region_signature as de9im_signature
from .geometry import Interval, Region
from .model import Trajectory, time_span
from .predicate import Predicate, parse_predicate


class De9imLabel(Enum):
    R031 = "R031"
    R095 = "R095"
    R179 = "R179"
    R223 = "R223"
    R243 = "R243"
    R247 = "R247"
    R255 = "R255"
    R279 = "R279"
    R287 = "R287"
    R339 = "R339"
    R343 = "R343"
    R351 = "R351"
    R403 = "R403"
    R435 = "R435"
    R467 = "R467"
    R471 = "R471"
    R479 = "R479"
    R499 = "R499"
    R503 = "R503"


class AllenLabel(Enum):
    PRECEDES = "Precedes"
    MEETS = "Meets"
    OVERLAPS = "Overlaps"
    STARTS = "Starts"
    DURING = "During"
    FINISHES = "Finishes"
    EQUALS = "Equals"
    PRECEDED_BY = "PrecededBy"
    MET_BY = "MetBy"
    OVERLAPPED_BY = "OverlappedBy"
    STARTED_BY = "StartedBy"
    CONTAINS = "Contains"
    FINISHED_BY = "FinishedBy"


# Labels whose formula fixes a travel direction; the underlying relation is
# orientation-free, so classification may also test the reversed path.
DIRECTION_SENSITIVE = frozenset(
    De9imLabel[name] for name in ("R255", "R287", "R351", "R435", "R479", "R503")
)

_ON_BORDER_F = "pf WITHIN R AND NOT (pf INSIDE R)"
_ON_BORDER_L = "pl WITHIN R AND NOT (pl INSIDE R)"

_DE9IM_TABLE: dict[De9imLabel, tuple[str, str]] = {
    De9imLabel.R031: (
        "FORALL p IN T: p OUTSIDE R",
        "stays strictly outside the area",
    ),
    De9imLabel.R095: (
        "pf OUTSIDE R AND pl OUTSIDE R AND (EXISTS p IN TFL: p WITHIN R AND NOT (p INSIDE R))",
        "outside at both ends, touches the boundary in between",
    ),
    De9imLabel.R179: (
        "FORALL p IN T: p INSIDE R",
        "stays strictly inside the area",
    ),
    De9imLabel.R223: (
        "pf OUTSIDE R AND pl OUTSIDE R AND (EXISTS p IN TFL: p INSIDE R)",
        "outside at both ends, passes through the interior",
    ),
    De9imLabel.R243: (
        "pf INSIDE R AND pl INSIDE R AND (FORALL p IN TFL: p WITHIN R) "
        "AND (EXISTS p IN TFL: NOT (p INSIDE R))",
        "inside at both ends, touches the boundary in between",
    ),
    De9imLabel.R247: (
        "pf INSIDE R AND pl INSIDE R AND (EXISTS p IN TFL: p OUTSIDE R)",
        "inside at both ends, leaves and comes back",
    ),
    De9imLabel.R255: (
        "pf INSIDE R AND pl OUTSIDE R",
        "starts inside, ends outside",
    ),
    De9imLabel.R279: (
        f"{_ON_BORDER_F} AND {_ON_BORDER_L} AND (FORALL p IN TFL: p OUTSIDE R)",
        "boundary to boundary, running outside in between",
    ),
    De9imLabel.R287: (
        f"{_ON_BORDER_F} AND pl OUTSIDE R AND (FORALL p IN TFL: p OUTSIDE R)",
        "starts on the boundary, runs and ends outside",
    ),
    De9imLabel.R339: (
        "FORALL p IN T: p WITHIN R AND NOT (p INSIDE R)",
        "runs entirely along the boundary",
    ),
    De9imLabel.R343: (
        f"{_ON_BORDER_F} AND {_ON_BORDER_L} AND (FORALL p IN TFL: NOT (p INSIDE R)) "
        "AND (EXISTS p1 IN TFL: p1 WITHIN R) AND (EXISTS p2 IN TFL: p2 OUTSIDE R)",
        "boundary to boundary outside, touching the boundary in between",
    ),
    De9imLabel.R351: (
        f"{_ON_BORDER_F} AND pl OUTSIDE R AND (FORALL p IN TFL: NOT (p INSIDE R)) "
        "AND (EXISTS p1 IN TFL: p1 WITHIN R) AND (EXISTS p2 IN TFL: p2 OUTSIDE R)",
        "starts on the boundary, touches it again from outside, ends outside",
    ),
    De9imLabel.R403: (
        f"{_ON_BORDER_F} AND {_ON_BORDER_L} AND (FORALL p IN TFL: p INSIDE R)",
        "boundary to boundary straight through the interior",
    ),
    De9imLabel.R435: (
        f"{_ON_BORDER_F} AND pl INSIDE R AND (FORALL p IN TFL: p INSIDE R)",
        "starts on the boundary, continues inside",
    ),
    De9imLabel.R467: (
        f"{_ON_BORDER_F} AND pl INSIDE R AND (FORALL p IN TFL: p WITHIN R) "
        "AND (EXISTS p1 IN TFL: p1 INSIDE R) AND (EXISTS p2 IN TFL: NOT (p2 INSIDE R))",
        "starts on the boundary, ends inside, touches the boundary in between",
    ),
    De9imLabel.R471: (
        f"{_ON_BORDER_F} AND {_ON_BORDER_L} "
        "AND (EXISTS p1 IN TFL: p1 INSIDE R) AND (EXISTS p2 IN TFL: p2 OUTSIDE R)",
        "boundary to boundary, visiting interior and exterior",
    ),
    De9imLabel.R479: (
        f"{_ON_BORDER_F} AND pl OUTSIDE R "
        "AND (EXISTS p1 IN TFL: p1 INSIDE R) AND (EXISTS p2 IN TFL: p2 OUTSIDE R)",
        "starts on the boundary, visits the interior, ends outside",
    ),
    De9imLabel.R499: (
        f"{_ON_BORDER_F} AND {_ON_BORDER_L} AND (FORALL p IN TFL: p WITHIN R) "
        "AND (EXISTS p1 IN TFL: p1 INSIDE R) AND (EXISTS p2 IN TFL: NOT (p2 INSIDE R))",
        "boundary to boundary inside, touching the boundary in between",
    ),
    De9imLabel.R503: (
        f"{_ON_BORDER_F} AND pl INSIDE R AND (EXISTS p IN TFL: p OUTSIDE R)",
        "starts on the boundary, ends inside, leaves in between",
    ),
}

_ALLEN_TABLE: dict[AllenLabel, tuple[str, str]] = {
    AllenLabel.PRECEDES: (
        "FORALL p IN T: p BEFORE I",
        "the span ends before the interval starts",
    ),
    AllenLabel.MEETS: (
        "pl WITHIN I AND NOT (pl INSIDE I) AND (FORALL p IN TFL: p BEFORE I)",
        "the span ends exactly where the interval starts",
    ),
    AllenLabel.OVERLAPS: (
        "pl INSIDE I AND (EXISTS p IN TFL: p BEFORE I)",
        "the span starts first and they overlap partway",
    ),
    AllenLabel.STARTS: (
        "pf WITHIN I AND NOT (pf INSIDE I) AND pl INSIDE I",
        "both start together, the span ends first",
    ),
    AllenLabel.DURING: (
        "FORALL p IN T: p INSIDE I",
        "the span lies strictly within the interval",
    ),
    AllenLabel.FINISHES: (
        "pl WITHIN I AND NOT (pl INSIDE I) AND pf INSIDE I",
        "both end together, the span starts later",
    ),
    AllenLabel.EQUALS: (
        "pf WITHIN I AND NOT (pf INSIDE I) AND pl WITHIN I AND NOT (pl INSIDE I)",
        "span and interval coincide",
    ),
    AllenLabel.PRECEDED_BY: (
        "FORALL p IN T: p AFTER I",
        "the span starts after the interval ends",
    ),
    AllenLabel.MET_BY: (
        "pf WITHIN I AND NOT (pf INSIDE I) AND (FORALL p IN TFL: p AFTER I)",
        "the span starts exactly where the interval ends",
    ),
    AllenLabel.OVERLAPPED_BY: (
        "pf INSIDE I AND (EXISTS p IN TFL: p AFTER I)",
        "the interval starts first and they overlap partway",
    ),
    AllenLabel.STARTED_BY: (
        "pf WITHIN I AND NOT (pf INSIDE I) AND pl AFTER I AND (EXISTS p IN TFL: p INSIDE I)",
        "both start together, the interval ends first",
    ),
    AllenLabel.CONTAINS: (
        "pf BEFORE I AND pl AFTER I",
        "the span strictly contains the interval",
    ),
    AllenLabel.FINISHED_BY: (
        "pl WITHIN I AND NOT (pl INSIDE I) AND pf BEFORE I AND (EXISTS p IN TFL: p INSIDE I)",
        "both end together, the span starts earlier",
    ),
}


def de9im_predicate(label: De9imLabel) -> Predicate:
    """The catalog formula of one area relation, as a parsed predicate.

    Raises:
        UnsupportedLabelError: label is not a De9imLabel.
    """
    if not isinstance(label, De9imLabel):
        raise UnsupportedLabelError(f"an area relation label is a De9imLabel, got {label!r}")
    return _catalog_formula(_DE9IM_TABLE[label][0])


def allen_predicate(label: AllenLabel) -> Predicate:
    """The catalog formula of one interval relation, as a parsed predicate.

    Raises:
        UnsupportedLabelError: label is not an AllenLabel.
    """
    if not isinstance(label, AllenLabel):
        raise UnsupportedLabelError(f"an interval relation label is an AllenLabel, got {label!r}")
    return _catalog_formula(_ALLEN_TABLE[label][0])


@lru_cache(maxsize=None)
def _catalog_formula(text: str) -> Predicate:
    """A catalog formula's text parsed once, so each label has one Predicate."""
    return parse_predicate(text)


def de9im_catalog() -> tuple[tuple[De9imLabel, str, str], ...]:
    """(label, predicate text, description) rows for all 19 area relations."""
    return tuple((lab, text, desc) for lab, (text, desc) in _DE9IM_TABLE.items())


def allen_catalog() -> tuple[tuple[AllenLabel, str, str], ...]:
    """(label, predicate text, description) rows for all 13 interval relations."""
    return tuple((lab, text, desc) for lab, (text, desc) in _ALLEN_TABLE.items())


@lru_cache(maxsize=None)
def _signature_labels(sig: RegionSignature) -> frozenset[De9imLabel]:
    """The labels whose catalog formula holds on a signature."""
    return frozenset(lab for lab in De9imLabel if holds_on_signature(de9im_predicate(lab), sig))


def classify_de9im(
    t: Trajectory,
    r: Region,
    s: Strictness,
    normalize_orientation: bool = True,
    labels: Iterable[De9imLabel] | None = None,
) -> set[De9imLabel]:
    """Every cataloged area relation whose formula holds under strictness s,
    looked up by the path's :func:`de9im_signature`; boundary-touching
    patterns can match several labels or none.

    With orientation normalization (the default) the direction-sensitive
    labels are also checked against the reversed path, since the relation
    does not care which way it was walked. ``labels`` restricts the result.

    Raises:
        PredicateTypeError: r is not a Region, t not a Trajectory, or labels
            not an iterable of De9imLabel.
        UnsupportedStrictnessError: s is not a Strictness, or of an unknown kind.
    """
    if labels is not None:
        wanted = list(labels) if isinstance(labels, Iterable) else [labels]
        if not all(isinstance(lab, De9imLabel) for lab in wanted):
            raise PredicateTypeError(f"labels are an iterable of De9imLabel, got {labels!r}")
        labels = wanted
    sig = de9im_signature(t, r, s)
    found = de9im_labels(t, r, s, sig) if normalize_orientation else _signature_labels(sig)
    return set(found if labels is None else found.intersection(labels))


def de9im_labels(
    t: Trajectory, r: Region, s: Strictness, sig: RegionSignature
) -> frozenset[De9imLabel]:
    """The labels ``classify_de9im(t, r, s)`` finds, looked up by t's
    signature ``sig = de9im_signature(t, r, s)``, for a caller that has it."""
    found = _signature_labels(sig)
    if len(t) > 1:
        # Reversal swaps pf and pl. The direction-sensitive formulas read the
        # reversed path's site sets only for a reversed (pf, pl) of (B, E) or
        # (B, I), so only then is it walked (its crossings or strategy points differ).
        rev = sig._replace(pf=sig.pl, pl=sig.pf)
        if (rev.pf, rev.pl) in (("B", "E"), ("B", "I")):
            rev = de9im_signature(Trajectory(t.xs[::-1], t.ys[::-1], t.taus), r, s)
        found |= _signature_labels(rev) & DIRECTION_SENSITIVE
    return found


def classify_allen(t: Trajectory, i: Interval) -> AllenLabel:
    """The unique interval relation between the trajectory's span and i.

    Compares span endpoints directly; for the temporal axis the recorded
    start and end timestamps fully determine the span, so no interpolation
    is involved and the thirteen outcomes are exhaustive and mutually
    exclusive.

    Raises:
        PredicateTypeError: i is not an Interval, or t not a Trajectory.
        DegenerateSpanError: fewer than two points, so the span has no
            duration and the relations are not meaningful.
    """
    if not isinstance(i, Interval):
        raise PredicateTypeError(f"interval relations need an Interval, got {type(i).__name__}")
    if not isinstance(t, Trajectory):
        raise PredicateTypeError(f"a trajectory is a Trajectory, got {type(t).__name__}")
    a_s, a_e = time_span(t)
    if len(t) < 2 or not a_s < a_e:
        raise DegenerateSpanError(
            f"span [{a_s}, {a_e}] has zero duration; need at least two points"
        )
    b_s, b_e = i.tau_s, i.tau_e
    if a_e < b_s:
        return AllenLabel.PRECEDES
    if a_e == b_s:
        return AllenLabel.MEETS
    if a_s > b_e:
        return AllenLabel.PRECEDED_BY
    if a_s == b_e:
        return AllenLabel.MET_BY
    if a_s == b_s and a_e == b_e:
        return AllenLabel.EQUALS
    if a_s == b_s:
        return AllenLabel.STARTS if a_e < b_e else AllenLabel.STARTED_BY
    if a_e == b_e:
        return AllenLabel.FINISHES if a_s > b_s else AllenLabel.FINISHED_BY
    if a_s < b_s:
        return AllenLabel.CONTAINS if a_e > b_e else AllenLabel.OVERLAPS
    return AllenLabel.DURING if a_e < b_e else AllenLabel.OVERLAPPED_BY
