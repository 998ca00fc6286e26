"""Predicate evaluation over trajectories and relation filtering.

Three degrees of strictness decide which points a quantifier ranges over:

* strict: only the recorded points of the trajectory;
* relaxed: the continuum of the interpolated polyline, evaluated exactly
  on a finite set of sites (no sampling anywhere);
* approximated: strict evaluation after augmenting each segment with
  intermediate points produced by a pluggable strategy.

Relaxed evaluation decides each quantified clause in one vectorised pass
over all segments of a trajectory. On one segment every atom holds on one
interval of the parameter range [0, 1] (region OUTSIDE is the complement of
the closed hull, time OUTSIDE the union of BEFORE and AFTER). Its ends are
threshold crossings (v - c0) / (c1 - c0). The sites of a segment are 0, 1
and every crossing, sorted, plus the open cell between each pair of
neighbours that differ; no atom changes truth inside a cell. Whether an
atom holds at a site or on a cell is decided only by ordinal comparisons
of the site values with the interval ends and their open/closed flags: no
midpoints and no epsilons, so a cell between two adjacent floats still
counts. AND, OR and NOT then act on boolean site masks. Segment domains
are half-open so that a vertex shared by two segments is owned by exactly
one of them; the final segment also owns the last point, and the TFL
domain drops just the first and last points (a measure-zero exclusion: the
inner continuum reaches arbitrarily close to both). EXISTS holds iff the
body holds at some owned site, FORALL iff it fails at none. Ground clauses
over pf/pl are the same in every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import StrategyOutputError, UnknownStrategyError, ValidationFailedError
from .geometry import (
    Interval,
    ParamIntervals,
    PointClass,
    Region,
    TimeClass,
    box_params,
    classify_point_region,
    classify_time_interval,
    densify,
)
from .model import Segment, TrajectoriesRelation, Trajectory, TrajectoryPoint, segments
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
    QuantifiedClause,
    _walk_atoms,
    validate,
)


@dataclass(frozen=True)
class EvalEnv:
    """Named regions and intervals a predicate may reference."""

    bindings: Mapping[str, Region | Interval]


@dataclass(frozen=True)
class Strictness:
    """Evaluation mode; use the STRICT/RELAXED constants or approximated()."""

    kind: str  # "strict" | "relaxed" | "approximated"
    strategy: str | None = None
    param: int | None = None


STRICT = Strictness("strict")
RELAXED = Strictness("relaxed")


def approximated(strategy: str, param: int | None = None) -> Strictness:
    return Strictness("approximated", strategy, param)


@dataclass(frozen=True)
class ApproxStrategy:
    """Names a rule that proposes extra interpolation parameters per segment.

    The generator must return parameters within [0, 1] in ascending order;
    0 and 1 are tolerated and ignored (the segment endpoints are already
    recorded points).
    """

    name: str
    point_generator: Callable[[Segment], Sequence[float]]


def uniform_strategy(k: int) -> ApproxStrategy:
    """k evenly spaced interior points per segment: lam = j/(k+1), j=1..k."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    grid = tuple((j + 1) / (k + 1) for j in range(k))

    return ApproxStrategy(f"uniform-{k}", lambda seg: grid)


_STRATEGY_FACTORIES: dict[str, Callable[[int | None], ApproxStrategy]] = {}

DEFAULT_UNIFORM_K = 100


def register_strategy(name: str, factory: Callable[[int | None], ApproxStrategy]) -> None:
    """Register a strategy factory; the factory receives the optional integer
    parameter from the textual form ``approx:<name>[:k]``."""
    _STRATEGY_FACTORIES[name] = factory


def resolve_strategy(name: str, param: int | None = None) -> ApproxStrategy:
    try:
        factory = _STRATEGY_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_STRATEGY_FACTORIES)) or "none"
        raise UnknownStrategyError(
            f"no approximation strategy named {name!r} (registered: {known})"
        ) from None
    return factory(param)


register_strategy(
    "uniform", lambda param: uniform_strategy(DEFAULT_UNIFORM_K if param is None else param)
)


def _require_valid(ast: Predicate, env: EvalEnv) -> None:
    diags = validate(ast, env.bindings)
    if diags:
        raise ValidationFailedError(diags)


# --- strict machinery ---------------------------------------------------


def _atom_mask(
    atom: Atom, xs: np.ndarray, ys: np.ndarray, taus: np.ndarray, env: EvalEnv
) -> np.ndarray:
    target = env.bindings[atom.rhs]
    if isinstance(target, Region):
        within = (
            (xs >= target.x_min)
            & (xs <= target.x_max)
            & (ys >= target.y_min)
            & (ys <= target.y_max)
        )
        if atom.op is Op.WITHIN:
            return within
        if atom.op is Op.INSIDE:
            return (
                (xs > target.x_min)
                & (xs < target.x_max)
                & (ys > target.y_min)
                & (ys < target.y_max)
            )
        return ~within  # OUTSIDE; BEFORE/AFTER on regions is rejected by validation
    if atom.op is Op.WITHIN:
        return (taus >= target.tau_s) & (taus <= target.tau_e)
    if atom.op is Op.INSIDE:
        return (taus > target.tau_s) & (taus < target.tau_e)
    if atom.op is Op.OUTSIDE:
        return (taus < target.tau_s) | (taus > target.tau_e)
    if atom.op is Op.BEFORE:
        return taus < target.tau_s
    return taus > target.tau_e


def _body_mask(body: Body, atom_mask: Callable[[Atom], np.ndarray]) -> np.ndarray:
    if isinstance(body, Atom):
        return atom_mask(body)
    if isinstance(body, Not):
        return ~_body_mask(body.child, atom_mask)
    masks = [_body_mask(p, atom_mask) for p in body.parts]
    out = masks[0]
    for m in masks[1:]:
        out = (out & m) if isinstance(body, And) else (out | m)
    return out


def _atom_at_point(atom: Atom, p: TrajectoryPoint, env: EvalEnv) -> bool:
    target = env.bindings[atom.rhs]
    if isinstance(target, Region):
        cls = classify_point_region(p.x, p.y, target)
        if atom.op is Op.WITHIN:
            return cls is not PointClass.EXTERIOR
        if atom.op is Op.INSIDE:
            return cls is PointClass.INTERIOR
        return cls is PointClass.EXTERIOR
    cls = classify_time_interval(p.tau, target)
    if atom.op is Op.WITHIN:
        return cls in (TimeClass.INTERIOR, TimeClass.BOUNDARY)
    if atom.op is Op.INSIDE:
        return cls is TimeClass.INTERIOR
    if atom.op is Op.OUTSIDE:
        return cls in (TimeClass.BEFORE, TimeClass.AFTER)
    if atom.op is Op.BEFORE:
        return cls is TimeClass.BEFORE
    return cls is TimeClass.AFTER


def _ground_body(body: Body, t: Trajectory, env: EvalEnv) -> bool:
    if isinstance(body, Atom):
        p = t.points[0] if body.subject is PointRef.FIRST else t.points[-1]
        return _atom_at_point(body, p, env)
    if isinstance(body, Not):
        return not _ground_body(body.child, t, env)
    if isinstance(body, And):
        return all(_ground_body(p, t, env) for p in body.parts)
    return any(_ground_body(p, t, env) for p in body.parts)


def _strict_clause(clause: QuantifiedClause, t: Trajectory, env: EvalEnv) -> bool:
    if clause.domain is Domain.ALL_POINTS:
        xs, ys, taus = t.xs, t.ys, t.taus
    else:
        xs, ys, taus = t.xs[1:-1], t.ys[1:-1], t.taus[1:-1]
    if xs.size == 0:
        return clause.quantifier is Quantifier.FORALL
    mask = _body_mask(clause.body, lambda atom: _atom_mask(atom, xs, ys, taus, env))
    return bool(mask.any() if clause.quantifier is Quantifier.EXISTS else mask.all())


def eval_strict(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Truth of the predicate using only the recorded points."""
    _require_valid(ast, env)
    for clause in ast.clauses:
        if isinstance(clause, GroundClause):
            ok = _ground_body(clause.body, t, env)
        else:
            ok = _strict_clause(clause, t, env)
        if not ok:
            return False
    return True


# --- relaxed machinery --------------------------------------------------


def _leaf_keys(atom: Atom, env: EvalEnv) -> tuple[tuple[str, Op], ...]:
    """The interval-shaped atoms that decide one atom on a segment."""
    if atom.op is not Op.OUTSIDE:
        return ((atom.rhs, atom.op),)
    if isinstance(env.bindings[atom.rhs], Region):
        return ((atom.rhs, Op.WITHIN),)  # exterior: not in the closed hull
    return ((atom.rhs, Op.BEFORE), (atom.rhs, Op.AFTER))


def _leaf_params(target: Region | Interval, op: Op, t: Trajectory) -> ParamIntervals:
    if isinstance(target, Region):
        return box_params(
            (t.xs, t.ys),
            (target.x_min, target.y_min),
            (target.x_max, target.y_max),
            op is Op.INSIDE,
        )
    if op is Op.BEFORE:
        return box_params((t.taus,), (-math.inf,), (target.tau_s,), True)
    if op is Op.AFTER:
        return box_params((t.taus,), (target.tau_e,), (math.inf,), True)
    return box_params((t.taus,), (target.tau_s,), (target.tau_e,), op is Op.INSIDE)


def _relaxed_clause(clause: QuantifiedClause, t: Trajectory, env: EvalEnv) -> bool:
    if len(t) == 1:
        return _strict_clause(clause, t, env)  # one recorded point, no continuum
    keys = dict.fromkeys(k for a in _walk_atoms(clause.body) for k in _leaf_keys(a, env))
    leaves = {k: _leaf_params(env.bindings[k[0]], k[1], t) for k in keys}
    m = len(t) - 1
    bounds = [np.zeros(m), np.ones(m)]
    for p in leaves.values():
        bounds += [p.lo, p.hi]
    # sites[j, i] is the j-th smallest site of segment i
    sites = np.sort(np.minimum(np.maximum(np.array(bounds), 0.0), 1.0), axis=0)
    left, right = sites[:-1], sites[1:]

    def holds(p: ParamIntervals) -> np.ndarray:
        at_site = np.where(p.lo_closed, p.lo <= sites, p.lo < sites) & np.where(
            p.hi_closed, sites <= p.hi, sites < p.hi
        )
        on_cell = (p.lo <= left) & (right <= p.hi)
        return np.concatenate((at_site, on_cell))

    truth = {k: holds(p) for k, p in leaves.items()}

    def atom_mask(atom: Atom) -> np.ndarray:
        masks = [truth[k] for k in _leaf_keys(atom, env)]
        if len(masks) == 2:
            return masks[0] | masks[1]
        return ~masks[0] if atom.op is Op.OUTSIDE else masks[0]

    body = _body_mask(clause.body, atom_mask)
    owned = sites < 1.0  # a vertex belongs to the segment starting there
    if clause.domain is Domain.ALL_POINTS:
        owned[:, -1] = True
    else:
        owned[:, 0] &= sites[:, 0] > 0.0  # TFL also drops the first point
    domain = np.concatenate((owned, left < right))
    if clause.quantifier is Quantifier.EXISTS:
        return bool((body & domain).any())
    return not (~body & domain).any()


def eval_relaxed(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Truth of the predicate over the interpolated continuum, computed exactly."""
    _require_valid(ast, env)
    for clause in ast.clauses:
        if isinstance(clause, GroundClause):
            ok = _ground_body(clause.body, t, env)
        else:
            ok = _relaxed_clause(clause, t, env)
        if not ok:
            return False
    return True


# --- approximated machinery ---------------------------------------------


def _augmented_arrays(
    t: Trajectory, strategy: ApproxStrategy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lams: list[float] = []
    counts: list[int] = []
    for seg in segments(t):
        before = len(lams)
        lams.extend(strategy.point_generator(seg))
        counts.append(len(lams) - before)
    lam = np.array(lams, dtype=float)
    seg = np.repeat(np.arange(len(counts)), counts)
    outside = ~((lam >= 0.0) & (lam <= 1.0))
    if outside.any():
        raise StrategyOutputError(
            f"strategy {strategy.name!r} returned parameter {lam[outside][0]} outside [0, 1]"
        )
    if ((np.diff(lam) < 0.0) & (np.diff(seg) == 0)).any():
        raise StrategyOutputError(f"strategy {strategy.name!r} returned unsorted parameters")
    inner = (lam > 0.0) & (lam < 1.0)
    return densify(t.xs, t.ys, t.taus, seg[inner], lam[inner])


def eval_approximated(
    ast: Predicate, t: Trajectory, env: EvalEnv, strategy: ApproxStrategy
) -> bool:
    """Strict evaluation over the trajectory plus strategy-generated points.

    The augmented trajectory keeps the original first and last points as its
    endpoints, so ground clauses and the TFL domain are unaffected by how
    many intermediate points a strategy adds.
    """
    _require_valid(ast, env)
    xs, ys, taus = _augmented_arrays(t, strategy)
    for clause in ast.clauses:
        if isinstance(clause, GroundClause):
            if not _ground_body(clause.body, t, env):
                return False
            continue
        if clause.domain is Domain.ALL_POINTS:
            cx, cy, ct = xs, ys, taus
        else:
            cx, cy, ct = xs[1:-1], ys[1:-1], taus[1:-1]
        if cx.size == 0:
            ok = clause.quantifier is Quantifier.FORALL
        else:
            mask = _body_mask(clause.body, lambda atom: _atom_mask(atom, cx, cy, ct, env))
            ok = bool(mask.any() if clause.quantifier is Quantifier.EXISTS else mask.all())
        if not ok:
            return False
    return True


def evaluate(ast: Predicate, t: Trajectory, env: EvalEnv, s: Strictness) -> bool:
    """Evaluate under the mode named by a Strictness value."""
    if s.kind == "strict":
        return eval_strict(ast, t, env)
    if s.kind == "relaxed":
        return eval_relaxed(ast, t, env)
    if s.kind == "approximated":
        strategy = resolve_strategy(s.strategy, s.param)
        return eval_approximated(ast, t, env, strategy)
    raise ValueError(f"unknown strictness kind {s.kind!r}")


def select_st(
    rel: TrajectoriesRelation, ast: Predicate, env: EvalEnv, s: Strictness
) -> TrajectoriesRelation:
    """Filter a relation to the rows whose trajectory satisfies the predicate.

    Row order and schema are preserved. Row evaluations are independent and
    pure, so they could run concurrently; results do not depend on order of
    evaluation.
    """
    _require_valid(ast, env)
    if s.kind == "approximated":
        resolve_strategy(s.strategy, s.param)  # fail fast before touching rows
    kept = tuple(row for row in rel.rows if evaluate(ast, row[1], env, s))
    return TrajectoriesRelation(kept)
