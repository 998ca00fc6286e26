"""Brute-force reference implementations for tests.

Nothing in this module is used by production code paths; tests import both
and compare. Two oracles check relaxed evaluation. The exact one walks the
segments one at a time through the ParamSet algebra, a formulation
independent of the evaluator's site masks that shares only the crossing
divisions, so it decides boundary cases too. The sampling one realizes the
interpolated continuum finitely: densify every segment with uniformly
spaced points, then run the strict evaluator over the densified
trajectory. On generic inputs (no tangency, nothing decided exactly on a
region boundary) the verdict converges to the exact relaxed one as the
density grows. Atoms satisfiable only on a measure-zero set, like "p WITHIN
R AND NOT (p INSIDE R)", can fool any finite density and are excluded from
its equivalence suites.

The Allen-label oracle decides a label by table lookup over the sign
pattern of the four endpoint differences, an exhaustive enumeration of the
13 mutually exclusive endpoint orderings, deliberately structured unlike
the production classifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Mapping

import numpy as np

from .evaluate import EvalEnv, eval_strict
from .geometry import (
    Interval,
    ParamInterval,
    ParamSet,
    PointClass,
    Region,
    TimeClass,
    densify,
    segment_interval_params,
    segment_region_params,
)
from .model import Segment, Trajectory, build_trajectory, segments
from .predicate import (
    And,
    Atom,
    Body,
    Domain,
    GroundClause,
    Not,
    Op,
    Predicate,
    Quantifier,
    format_predicate,
)
from .relations import AllenLabel


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
    if len(t.points) == 1:
        return t
    k, m = spec.k, len(t.points) - 1
    seg = np.repeat(np.arange(m), k)
    lam = np.tile(np.arange(1, k + 1) / (k + 1), m)
    xs, ys, taus = densify(t.xs, t.ys, t.taus, seg, lam)
    return build_trajectory(zip(xs.tolist(), ys.tolist(), taus.tolist()))


def relaxed_oracle(
    ast: Predicate, t: Trajectory, env: EvalEnv, spec: ResampleSpec
) -> bool:
    """Finite stand-in for exact relaxed evaluation: densify, then strict."""
    return eval_strict(ast, resample(t, spec), env)


def _body_params(body: Body, seg: Segment, env: EvalEnv) -> ParamSet:
    if isinstance(body, Atom):
        target = env.bindings[body.rhs]
        if isinstance(target, Region):
            if body.op is Op.WITHIN:
                return segment_region_params(seg, target, PointClass.INTERIOR).union(
                    segment_region_params(seg, target, PointClass.BOUNDARY)
                )
            if body.op is Op.INSIDE:
                return segment_region_params(seg, target, PointClass.INTERIOR)
            return segment_region_params(seg, target, PointClass.EXTERIOR)
        if body.op is Op.WITHIN:
            return segment_interval_params(seg, target, TimeClass.INTERIOR).union(
                segment_interval_params(seg, target, TimeClass.BOUNDARY)
            )
        if body.op is Op.INSIDE:
            return segment_interval_params(seg, target, TimeClass.INTERIOR)
        if body.op is Op.OUTSIDE:
            return segment_interval_params(seg, target, TimeClass.BEFORE).union(
                segment_interval_params(seg, target, TimeClass.AFTER)
            )
        if body.op is Op.BEFORE:
            return segment_interval_params(seg, target, TimeClass.BEFORE)
        return segment_interval_params(seg, target, TimeClass.AFTER)
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
    for clause in ast.clauses:
        if isinstance(clause, GroundClause) or not segs:
            if not eval_strict(Predicate((clause,)), t, env):
                return False
            continue
        exists = clause.quantifier is Quantifier.EXISTS
        hit = False
        for i, seg in enumerate(segs):
            dom = _segment_domain(i, len(segs), clause.domain)
            body = _body_params(clause.body, seg, env)
            if not (body if exists else body.complement()).intersect(dom).is_empty:
                hit = True
                break
        if hit != exists:
            return False
    return True


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
        "trajectory": [[p.x, p.y, p.tau] for p in t.points],
        "environment": _env_json(env),
        "predicate": format_predicate(ast),
        "expected": expected,
        "actual": actual,
    }
    out.write(json.dumps(record) + "\n")
