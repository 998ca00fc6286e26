"""Shared random generators for the test suite.

The generators draw coordinates with independent arithmetic and reject
instances that are not generic: a point exactly on (or extremely close to)
a region edge or interval endpoint, or two threshold crossings closer
along a segment than the sampling oracle can resolve. Every numeric
tolerance used by the suite is defined here in one place.
"""

from __future__ import annotations

import random

from trajq.geometry import Interval, Region
from trajq.model import Trajectory, build_trajectory
from trajq.predicate import (
    And,
    Atom,
    Domain,
    GroundClause,
    Not,
    Op,
    Or,
    PointRef,
    Predicate,
    QuantifiedClause,
    Quantifier,
    Var,
)
from trajq.relations import De9imLabel

# Margin between any vertex coordinate and any threshold line.
VERTEX_MARGIN = 1e-2
# Minimal parameter distance between threshold crossings on one segment,
# and from a crossing to either segment endpoint. The dense oracle samples
# every 1/(k+1) of a segment, so 2.5 spacings guarantee a sample strictly
# inside every constant-truth stretch.
def crossing_gap(k: int) -> float:
    return 2.5 / (k + 1)


ORACLE_PREDICATES = (
    "EXISTS p IN T: p INSIDE R",
    "FORALL p IN T: p OUTSIDE R",
    "EXISTS p IN T: p WITHIN R AND p WITHIN I",
    "FORALL p IN T: p INSIDE R OR p OUTSIDE I",
    "EXISTS p IN TFL: p INSIDE R AND NOT (p INSIDE I)",
    "FORALL p IN TFL: p WITHIN I",
    "pf INSIDE R AND pl OUTSIDE R",
    "EXISTS p IN T: p BEFORE I OR p AFTER I",
    "FORALL p IN T: p WITHIN R OR p INSIDE I",
    "pf BEFORE I AND (EXISTS p IN TFL: p INSIDE R)",
)


def random_region(rng: random.Random) -> Region:
    x_min = rng.uniform(-2.5, 0.5)
    y_min = rng.uniform(-2.5, 0.5)
    return Region(
        x_min,
        y_min,
        x_min + rng.uniform(0.5, 3.0),
        y_min + rng.uniform(0.5, 3.0),
    )


def random_interval(rng: random.Random, lo: float = 0.0, hi: float = 60.0) -> Interval:
    start = rng.uniform(lo, hi - 1.0)
    return Interval(start, start + rng.uniform(1.0, hi - start))


def random_trajectory(
    rng: random.Random,
    min_points: int = 1,
    max_points: int = 10,
    box: float = 3.0,
    hold_chance: float = 0.1,
) -> Trajectory:
    """Uniform points in [-box, box]^2 with increasing times from 0.

    With probability ``hold_chance`` a point repeats the previous position,
    producing a legal zero-length segment.
    """
    n = rng.randint(min_points, max_points)
    samples: list[tuple[float, float, float]] = []
    tau = rng.uniform(0.0, 10.0)
    for _ in range(n):
        if samples and rng.random() < hold_chance:
            x, y = samples[-1][0], samples[-1][1]
        else:
            x, y = rng.uniform(-box, box), rng.uniform(-box, box)
        samples.append((x, y, tau))
        tau += rng.uniform(1.0, 8.0)
    return build_trajectory(samples)


def _thresholds(r: Region, i: Interval) -> tuple[tuple[float, ...], ...]:
    return (
        (r.x_min, r.x_max),
        (r.y_min, r.y_max),
        (i.tau_s, i.tau_e),
    )


def _off_thresholds(t: Trajectory, r: Region, i: Interval, margin: float) -> bool:
    xt, yt, tt = _thresholds(r, i)
    for p in t.points:
        for value, axis in ((p.x, xt), (p.y, yt), (p.tau, tt)):
            if any(abs(value - thr) < margin for thr in axis):
                return False
    return True


def _crossings_resolved(t: Trajectory, r: Region, i: Interval, gap: float) -> bool:
    """No two threshold crossings of one segment within ``gap`` of each
    other or of the segment ends."""
    axes = _thresholds(r, i)
    for a, b in zip(t.points, t.points[1:]):
        lams = []
        for (c0, c1), thresholds in zip(
            ((a.x, b.x), (a.y, b.y), (a.tau, b.tau)), axes
        ):
            d = c1 - c0
            if d == 0.0:
                continue
            for thr in thresholds:
                lam = (thr - c0) / d
                if 0.0 < lam < 1.0:
                    lams.append(lam)
        lams.sort()
        for lo, hi in zip(lams, lams[1:]):
            if hi - lo < gap:
                return False
        if lams and (lams[0] < gap or 1.0 - lams[-1] < gap):
            return False
    return True


def generic_instance(
    rng: random.Random,
    k: int,
    min_points: int = 1,
    max_points: int = 4,
) -> tuple[Trajectory, Region, Interval]:
    """A (trajectory, region, interval) triple the k-dense oracle resolves."""
    gap = crossing_gap(k)
    while True:
        r = random_region(rng)
        i = random_interval(rng)
        t = random_trajectory(rng, min_points, max_points)
        if _off_thresholds(t, r, i, VERTEX_MARGIN) and _crossings_resolved(
            t, r, i, gap
        ):
            return t, r, i


def off_boundary_trajectory(
    rng: random.Random,
    r: Region,
    min_points: int = 3,
    max_points: int = 20,
    margin: float = 1e-6,
) -> Trajectory:
    """A random trajectory with no vertex coordinate on a border line of r."""
    while True:
        t = random_trajectory(rng, min_points, max_points)
        ok = all(
            abs(p.x - r.x_min) > margin
            and abs(p.x - r.x_max) > margin
            and abs(p.y - r.y_min) > margin
            and abs(p.y - r.y_max) > margin
            for p in t.points
        )
        if ok:
            return t


# --- random predicate ASTs in canonical shape ---------------------------

_NAMES = ("R", "I", "S")
_VARS = ("p", "q", "p1", "p2")


def random_atom(rng: random.Random, subject) -> Atom:
    return Atom(subject, rng.choice(list(Op)), rng.choice(_NAMES))


def random_body(rng: random.Random, atom, depth: int):
    """A random AND/OR/NOT tree whose leaves come from calling ``atom()``."""
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return atom()
    if roll < 0.6:
        return Not(random_body(rng, atom, depth - 1))
    parts = tuple(
        random_body(rng, atom, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return And(parts) if roll < 0.8 else Or(parts)


def random_clause(rng: random.Random, allow_ground: bool):
    if allow_ground and rng.random() < 0.4:
        subject = rng.choice((PointRef.FIRST, PointRef.LAST))
        body = random_body(rng, lambda: random_atom(rng, subject), rng.randint(0, 2))
        return GroundClause(body)
    var = rng.choice(_VARS)
    return QuantifiedClause(
        rng.choice(list(Quantifier)),
        var,
        rng.choice(list(Domain)),
        random_body(rng, lambda: random_atom(rng, Var(var)), rng.randint(0, 3)),
    )


def random_predicate(rng: random.Random) -> Predicate:
    """A random AST in the shapes the parser itself produces (no two
    adjacent ground clauses), so parse(format(ast)) == ast must hold."""
    clauses = []
    previous_ground = False
    for _ in range(rng.randint(1, 4)):
        clause = random_clause(rng, allow_ground=not previous_ground)
        previous_ground = isinstance(clause, GroundClause)
        clauses.append(clause)
    return Predicate(tuple(clauses))


# --- area-relation witness fixtures -------------------------------------

# Witness paths are drawn against this square. Coordinates were placed
# cell by cell: interior points at 0.25..0.75, boundary points on an edge
# line, exterior points beyond it.
WITNESS_REGION = Region(0, 0, 1, 1)

DE9IM_WITNESSES = {
    De9imLabel.R031: [(-0.5, 1.25), (0.5, 1.5)],
    De9imLabel.R095: [(-0.25, 1.25), (0.5, 1.0), (1.25, 1.25)],
    De9imLabel.R179: [(0.25, 0.25), (0.75, 0.75)],
    De9imLabel.R223: [(0.3, -0.25), (0.5, 0.5), (0.7, -0.25)],
    De9imLabel.R243: [(0.25, 0.3), (0.25, 1.0), (0.75, 1.0), (0.75, 0.6)],
    De9imLabel.R247: [(0.25, 0.3), (0.25, 1.25), (0.75, 1.25), (0.75, 0.6)],
    De9imLabel.R255: [(0.5, 0.5), (0.5, 1.25)],
    De9imLabel.R279: [(0.25, 1.0), (0.25, 1.25), (0.75, 1.25), (0.75, 1.0)],
    De9imLabel.R287: [(1.0, 0.25), (1.4, 0.25), (1.25, 0.75)],
    De9imLabel.R339: [(0.25, 1.0), (0.5, 1.0), (0.75, 1.0)],
    De9imLabel.R343: [(0.5, 0.0), (0.6, -0.25), (0.75, 0.0), (0.9, -0.25), (1.0, 0.5)],
    De9imLabel.R351: [(0.5, 1.0), (0.6, 1.25), (0.75, 1.0), (0.9, 1.25)],
    De9imLabel.R403: [(0.5, 0.0), (0.5, 0.5), (0.5, 1.0)],
    De9imLabel.R435: [(0.5, 1.0), (0.5, 0.75), (0.5, 0.5)],
    De9imLabel.R467: [(1.0, 0.25), (0.6, 0.3), (1.0, 0.6), (0.5, 0.5)],
    De9imLabel.R471: [(0.25, 1.0), (0.4, 0.5), (0.6, 1.25), (0.75, 1.0)],
    De9imLabel.R479: [(0.5, 1.0), (0.5, 0.5), (0.5, -0.1), (0.5, -0.25)],
    De9imLabel.R499: [(0.25, 1.0), (0.4, 0.5), (0.6, 1.0), (0.75, 1.0)],
    De9imLabel.R503: [(0.25, 1.0), (0.5, 1.25), (0.75, 0.5)],
}


def witness_path(coords) -> Trajectory:
    return build_trajectory([(x, y, 10.0 * i) for i, (x, y) in enumerate(coords)])
