"""Brute-force reference implementations for tests.

Nothing in this module is used by production code paths; tests import both
and compare. Two oracles check relaxed evaluation. The exact one walks the
segments one at a time through the ParamSet algebra, a formulation
independent of the evaluator's site masks that reads the same
``box_crossings``, so it decides boundary cases too. The sampling one
realizes the interpolated continuum finitely: densify every segment with
uniformly spaced points, then run the strict evaluator over the densified
trajectory. On generic inputs (no tangency, nothing decided exactly on a
region boundary) the verdict converges to the exact relaxed one as the
density grows. Atoms satisfiable only on a measure-zero set, like "p WITHIN
R AND NOT (p INSIDE R)", can fool any finite density and are excluded from
its equivalence suites.

The strict oracle is a plain loop over the recorded points, with one float
comparison per bound of an atom: no arrays and no bounding box.

The area-label oracle evaluates the 19 catalog formulas one at a time, on
the path and, for the direction-sensitive labels, on the reversed path; the
classifier instead looks the labels up by the path's class signature.

The Allen-label oracle decides a label by table lookup over the sign
pattern of the four endpoint differences, an exhaustive enumeration of the
13 mutually exclusive endpoint orderings, deliberately structured unlike
the production classifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from .evaluate import EvalEnv, Strictness, eval_strict, evaluate
from .geometry import (
    Interval,
    ParamInterval,
    ParamSet,
    PointClass,
    Region,
    SegmentParams,
    TimeClass,
    densify,
)
from .model import Trajectory, segments
from .predicate import (
    And,
    Atom,
    Body,
    Domain,
    GroundClause,
    Not,
    Op,
    Or,
    PointRef,
    Predicate,
    Quantifier,
    format_predicate,
)
from .relations import DIRECTION_SENSITIVE, AllenLabel, De9imLabel, de9im_predicate


@dataclass(frozen=True)
class ResampleSpec:
    """Density of the finite realization: k extra points per segment."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


def resample(t: Trajectory, spec: ResampleSpec) -> Trajectory:
    """Insert k uniformly spaced interpolated points into every segment.

    The recorded points are kept verbatim, so the result has
    n + k(n-1) points; a single-point trajectory is returned unchanged.
    """
    if len(t) == 1:
        return t
    k, m = spec.k, len(t) - 1
    seg = np.repeat(np.arange(m), k)
    lam = np.tile(np.arange(1, k + 1) / (k + 1), m)
    return Trajectory(*densify(t.xs, t.ys, t.taus, seg, lam))


def _body_at(body: Body, point_of, env: EvalEnv) -> bool:
    """The truth of a clause body whose atoms test the recorded points
    ``point_of(atom)`` names, one float comparison per bound."""
    if isinstance(body, Not):
        return not _body_at(body.child, point_of, env)
    if isinstance(body, (And, Or)):
        truths = [_body_at(part, point_of, env) for part in body.parts]
        return all(truths) if isinstance(body, And) else any(truths)
    p, target, op = point_of(body), env.bindings[body.rhs], body.op
    if isinstance(target, Region):
        if op is Op.INSIDE:
            return target.x_min < p.x < target.x_max and target.y_min < p.y < target.y_max
        closed = target.x_min <= p.x <= target.x_max and target.y_min <= p.y <= target.y_max
        return closed if op is Op.WITHIN else not closed
    if op is Op.INSIDE:
        return target.tau_s < p.tau < target.tau_e
    if op is Op.WITHIN:
        return target.tau_s <= p.tau <= target.tau_e
    if op is Op.OUTSIDE:
        return p.tau < target.tau_s or p.tau > target.tau_e
    if op is Op.BEFORE:
        return p.tau < target.tau_s
    return p.tau > target.tau_e


def strict_point_oracle(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Strict evaluation as a plain loop over ``t.points``: a ground clause
    reads pf or pl, a quantifier every point of T or of TFL (T without its
    first and last point). No arrays and no bounding box, so it is the
    reference for the evaluator's site masks and its box decisions. The
    predicate must be valid in env."""
    points = t.points
    ends = {PointRef.FIRST: points[0], PointRef.LAST: points[-1]}
    for clause in ast.clauses:
        if isinstance(clause, GroundClause):
            ok = _body_at(clause.body, lambda atom: ends[atom.subject], env)
        else:
            domain = points if clause.domain is Domain.ALL_POINTS else points[1:-1]
            truths = (_body_at(clause.body, lambda atom: p, env) for p in domain)
            ok = any(truths) if clause.quantifier is Quantifier.EXISTS else all(truths)
        if not ok:
            return False
    return True


def relaxed_oracle(
    ast: Predicate, t: Trajectory, env: EvalEnv, spec: ResampleSpec
) -> bool:
    """Finite stand-in for exact relaxed evaluation: densify, then strict."""
    return eval_strict(ast, resample(t, spec), env)


def _body_params(body: Body, seg: SegmentParams, env: EvalEnv) -> ParamSet:
    if isinstance(body, Atom):
        target = env.bindings[body.rhs]
        if isinstance(target, Region):
            if body.op is Op.WITHIN:
                return seg.region(target, PointClass.INTERIOR).union(
                    seg.region(target, PointClass.BOUNDARY)
                )
            if body.op is Op.INSIDE:
                return seg.region(target, PointClass.INTERIOR)
            return seg.region(target, PointClass.EXTERIOR)
        if body.op is Op.WITHIN:
            return seg.interval(target, TimeClass.INTERIOR).union(
                seg.interval(target, TimeClass.BOUNDARY)
            )
        if body.op is Op.INSIDE:
            return seg.interval(target, TimeClass.INTERIOR)
        if body.op is Op.OUTSIDE:
            return seg.interval(target, TimeClass.BEFORE).union(
                seg.interval(target, TimeClass.AFTER)
            )
        if body.op is Op.BEFORE:
            return seg.interval(target, TimeClass.BEFORE)
        return seg.interval(target, TimeClass.AFTER)
    if isinstance(body, Not):
        return _body_params(body.child, seg, env).complement()
    sets = [_body_params(p, seg, env) for p in body.parts]
    out = sets[0]
    for s in sets[1:]:
        out = out.intersect(s) if isinstance(body, And) else out.union(s)
    return out


def _segment_domain(index: int, count: int, domain: Domain) -> ParamSet:
    """Parameter range of one segment that the quantifier owns.

    Interior vertices are owned by the segment that starts there, so ranges
    are [0, 1) except the final segment. Under TFL the very first parameter
    (the trajectory's first point) and the final endpoint are excluded.
    """
    last = index == count - 1
    if domain is Domain.ALL_POINTS:
        return ParamSet((ParamInterval(0.0, 1.0, True, last),))
    return ParamSet((ParamInterval(0.0, 1.0, index > 0, False),))


def relaxed_paramset_oracle(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Exact relaxed evaluation, one segment at a time, through the ParamSet
    algebra: per segment, the parameter set where the clause body holds
    (atoms map to parameter sets, AND/OR/NOT to intersection, union and
    complement), intersected with the part of the segment the quantifier
    owns. Ground clauses and one-point trajectories have no continuum and
    are evaluated on the recorded points.
    """
    segs = segments(t)
    # one per segment, kept across clauses: each box is solved once per segment
    params = [SegmentParams(seg) for seg in segs]
    for clause in ast.clauses:
        if isinstance(clause, GroundClause) or not segs:
            if not eval_strict(Predicate((clause,)), t, env):
                return False
            continue
        exists = clause.quantifier is Quantifier.EXISTS
        hit = False
        for i, seg in enumerate(segs):
            dom = _segment_domain(i, len(segs), clause.domain)
            body = _body_params(clause.body, params[i], env)
            if not (body if exists else body.complement()).intersect(dom).is_empty:
                hit = True
                break
        if hit != exists:
            return False
    return True


def classify_de9im_oracle(
    t: Trajectory,
    r: Region,
    s: Strictness,
    normalize_orientation: bool = True,
    labels: Iterable[De9imLabel] | None = None,
) -> set[De9imLabel]:
    """Area labels by full evaluation of each catalog formula, the reference
    for :func:`trajq.relations.classify_de9im` (same arguments)."""
    candidates = tuple(De9imLabel) if labels is None else tuple(labels)
    env = EvalEnv({"R": r})
    reverse = normalize_orientation and len(t) > 1
    # The same path walked the other way, on the original timestamps.
    rev = Trajectory(t.xs[::-1], t.ys[::-1], t.taus) if reverse else None
    out: set[De9imLabel] = set()
    for label in candidates:
        ast = de9im_predicate(label)
        if evaluate(ast, t, env, s):
            out.add(label)
        elif rev is not None and label in DIRECTION_SENSITIVE and evaluate(ast, rev, env, s):
            out.add(label)
    return out


def _sign(a: float, b: float) -> int:
    return (a > b) - (a < b)


# Sign pattern (f vs s, l vs e, l vs s, f vs e) for span [f, l] against
# interval (s, e). Given f < l and s < e exactly these 13 patterns occur.
_ALLEN_CASES = {
    (-1, -1, -1, -1): AllenLabel.PRECEDES,
    (-1, -1, 0, -1): AllenLabel.MEETS,
    (-1, -1, 1, -1): AllenLabel.OVERLAPS,
    (-1, 0, 1, -1): AllenLabel.FINISHED_BY,
    (-1, 1, 1, -1): AllenLabel.CONTAINS,
    (0, -1, 1, -1): AllenLabel.STARTS,
    (0, 0, 1, -1): AllenLabel.EQUALS,
    (0, 1, 1, -1): AllenLabel.STARTED_BY,
    (1, -1, 1, -1): AllenLabel.DURING,
    (1, 0, 1, -1): AllenLabel.FINISHES,
    (1, 1, 1, -1): AllenLabel.OVERLAPPED_BY,
    (1, 1, 1, 0): AllenLabel.MET_BY,
    (1, 1, 1, 1): AllenLabel.PRECEDED_BY,
}


def allen_case_oracle(span: tuple[float, float], i: Interval) -> AllenLabel:
    """Label a time span against an interval by endpoint-order case lookup."""
    f, l = span
    if not f < l:
        raise ValueError(f"degenerate span ({f}, {l})")
    key = (
        _sign(f, i.tau_s),
        _sign(l, i.tau_e),
        _sign(l, i.tau_s),
        _sign(f, i.tau_e),
    )
    return _ALLEN_CASES[key]


def _env_json(env: EvalEnv) -> dict:
    out = {}
    for name, target in env.bindings.items():
        if isinstance(target, Region):
            out[name] = {
                "kind": "region",
                "bounds": [target.x_min, target.y_min, target.x_max, target.y_max],
            }
        else:
            out[name] = {"kind": "interval", "bounds": [target.tau_s, target.tau_e]}
    return out


def write_counterexample(
    out: IO[str],
    ast: Predicate,
    t: Trajectory,
    env: EvalEnv,
    expected: bool,
    actual: bool,
) -> None:
    """Append one JSON line describing a disagreement, for offline triage."""
    record = {
        "trajectory": np.column_stack((t.xs, t.ys, t.taus)).tolist(),
        "environment": _env_json(env),
        "predicate": format_predicate(ast),
        "expected": expected,
        "actual": actual,
    }
    out.write(json.dumps(record) + "\n")
