"""Predicate evaluation over trajectories and relation filtering.

One evaluator serves the three degrees of strictness, which differ only in
the sites a quantifier ranges over:

* strict: only the recorded points of the trajectory;
* approximated: the recorded points plus the intermediate points a
  pluggable strategy proposes for each segment;
* relaxed: the continuum of the interpolated polyline, evaluated exactly
  on a finite set of sites (no sampling anywhere).

``_holds`` walks the clauses and stops at the first that fails. One atom
rule, ``_atom_mask``, tests strict and approximated sites as arrays and the
pf or pl of a ground clause as floats, so ground clauses agree in every mode.

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
body holds at some owned site, FORALL iff it fails at none. A trajectory of
one point has no continuum and is decided on that point.

A predicate whose atoms all test one region reads of a trajectory only its
class signature (``region_signature``): the class of pf and of pl, and the
classes the TFL and the T sites of the mode meet. ``holds_on_signature``
decides such a predicate from the signature alone; area classification
computes one signature per trajectory instead of evaluating each formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    PredicateTypeError,
    StrategyOutputError,
    StrategyParameterError,
    UnknownStrategyError,
    UnsupportedStrictnessError,
    ValidationFailedError,
)
from .geometry import Interval, ParamIntervals, Region, box_params, densify
from .model import Segment, TrajectoriesRelation, Trajectory, segments
from .predicate import (
    And,
    Atom,
    Body,
    Domain,
    GroundClause,
    Not,
    Op,
    PointRef,
    Predicate,
    Quantifier,
    QuantifiedClause,
    Var,
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
        raise StrategyParameterError(f"k must be non-negative, got {k}")
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


# --- the clause loop, the atom rule and strict sites --------------------


def _band(c, lo: float, hi: float, strict: bool):
    return ((c > lo) & (c < hi)) if strict else ((c >= lo) & (c <= hi))


def _off(c, lo: float, hi: float):
    return (c < lo) | (c > hi)


def _atom_mask(atom: Atom, xs, ys, taus, env: EvalEnv):
    """Truth of one atom at points given by coordinate arrays (a mask comes
    back) or by the floats of one point (a bool comes back). Each op makes
    only the comparisons it needs."""
    target = env.bindings[atom.rhs]
    op = atom.op
    if isinstance(target, Region):  # BEFORE/AFTER on regions fail validation
        if op is Op.OUTSIDE:
            return _off(xs, target.x_min, target.x_max) | _off(ys, target.y_min, target.y_max)
        strict = op is Op.INSIDE
        return _band(xs, target.x_min, target.x_max, strict) & _band(
            ys, target.y_min, target.y_max, strict
        )
    if op is Op.OUTSIDE:
        return _off(taus, target.tau_s, target.tau_e)
    if op is Op.BEFORE:
        return taus < target.tau_s
    if op is Op.AFTER:
        return taus > target.tau_e
    return _band(taus, target.tau_s, target.tau_e, op is Op.INSIDE)


def _body_mask(body: Body, atom_mask: Callable[[Atom], np.ndarray]) -> np.ndarray:
    if isinstance(body, Atom):
        return atom_mask(body)
    if isinstance(body, Not):
        return _body_mask(body.child, atom_mask) ^ True  # `not` for bools and masks
    masks = [_body_mask(p, atom_mask) for p in body.parts]
    out = masks[0]
    for m in masks[1:]:
        out = (out & m) if isinstance(body, And) else (out | m)
    return out


def _ground_atom(atom: Atom, t: Trajectory, env: EvalEnv) -> bool:
    i = 0 if atom.subject is PointRef.FIRST else -1
    return _atom_mask(atom, t.xs.item(i), t.ys.item(i), t.taus.item(i), env)


def _points_clause(
    clause: QuantifiedClause, xs: np.ndarray, ys: np.ndarray, taus: np.ndarray, env: EvalEnv
) -> bool:
    """A quantified clause over a finite polyline of points, first to last."""
    if clause.domain is Domain.INNER_POINTS:
        xs, ys, taus = xs[1:-1], ys[1:-1], taus[1:-1]
    if xs.size == 0:
        return clause.quantifier is Quantifier.FORALL
    mask = _body_mask(clause.body, lambda atom: _atom_mask(atom, xs, ys, taus, env))
    return bool(mask.any() if clause.quantifier is Quantifier.EXISTS else mask.all())


def _holds(
    ast: Predicate, t: Trajectory, env: EvalEnv, quantified: Callable[[QuantifiedClause], bool]
) -> bool:
    """The clause loop of every mode: validate, then require each clause in
    turn. Ground clauses are decided at the first or last recorded point;
    ``quantified`` decides the others over the mode's sites."""
    _require_valid(ast, env)
    for clause in ast.clauses:
        if isinstance(clause, GroundClause):
            ok = _body_mask(clause.body, lambda atom: _ground_atom(atom, t, env))
        else:
            ok = quantified(clause)
        if not ok:
            return False
    return True


def eval_strict(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Truth of the predicate using only the recorded points."""
    return _holds(ast, t, env, lambda c: _points_clause(c, t.xs, t.ys, t.taus, env))


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


def _relaxed_sites(
    t: Trajectory, env: EvalEnv, keys: Iterable[tuple[str, Op]]
) -> tuple[dict[tuple[str, Op], np.ndarray], Callable[[Domain], np.ndarray]]:
    """The site pass over all segments of a trajectory of two or more points:
    the truth of each interval-shaped leaf at every site and on every cell,
    and a function giving the sites and cells a domain owns, in that layout."""
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

    def domain(d: Domain) -> np.ndarray:
        owned = sites < 1.0  # a vertex belongs to the segment starting there
        if d is Domain.ALL_POINTS:
            owned[:, -1] = True
        else:
            owned[:, 0] &= sites[:, 0] > 0.0  # TFL also drops the first point
        return np.concatenate((owned, left < right))

    return {k: holds(p) for k, p in leaves.items()}, domain


def _quantify(q: Quantifier, body: np.ndarray, domain: np.ndarray) -> bool:
    """EXISTS: the body holds somewhere in the domain; FORALL: it fails nowhere."""
    if q is Quantifier.EXISTS:
        return bool((body & domain).any())
    return not (~body & domain).any()


def _relaxed_clause(clause: QuantifiedClause, t: Trajectory, env: EvalEnv) -> bool:
    if len(t) == 1:  # one recorded point, no continuum
        return _points_clause(clause, t.xs, t.ys, t.taus, env)
    keys = dict.fromkeys(k for a in _walk_atoms(clause.body) for k in _leaf_keys(a, env))
    truth, domain = _relaxed_sites(t, env, keys)

    def atom_mask(atom: Atom) -> np.ndarray:
        masks = [truth[k] for k in _leaf_keys(atom, env)]
        if len(masks) == 2:
            return masks[0] | masks[1]
        return ~masks[0] if atom.op is Op.OUTSIDE else masks[0]

    body = _body_mask(clause.body, atom_mask)
    return _quantify(clause.quantifier, body, domain(clause.domain))


def eval_relaxed(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Truth of the predicate over the interpolated continuum, computed exactly."""
    return _holds(ast, t, env, lambda c: _relaxed_clause(c, t, env))


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
    many intermediate points a strategy adds. The strategy runs once, when
    the first quantified clause is reached.
    """
    sites = functools.cache(lambda: _augmented_arrays(t, strategy))
    return _holds(ast, t, env, lambda c: _points_clause(c, *sites(), env))


def evaluate(ast: Predicate, t: Trajectory, env: EvalEnv, s: Strictness) -> bool:
    """Evaluate under the mode named by a Strictness value."""
    if s.kind == "strict":
        return eval_strict(ast, t, env)
    if s.kind == "relaxed":
        return eval_relaxed(ast, t, env)
    if s.kind == "approximated":
        strategy = resolve_strategy(s.strategy, s.param)
        return eval_approximated(ast, t, env, strategy)
    raise UnsupportedStrictnessError(f"unknown strictness kind {s.kind!r}")


# --- region signatures --------------------------------------------------


class RegionSignature(NamedTuple):
    """The classes of a region that a trajectory meets under one strictness:
    at pf, at pl, over the TFL sites and over the T sites, each written with
    the letters I (interior), B (boundary) and E (exterior) in that order.
    A predicate whose atoms all test that region is decided by them alone
    (:func:`holds_on_signature`)."""

    pf: str
    pl: str
    tfl: str
    t: str

    def __str__(self) -> str:
        return f"pf={self.pf} pl={self.pl} tfl={{{','.join(self.tfl)}}} t={{{','.join(self.t)}}}"


# The classes at which each region atom holds, as letters and as a mask.
_CLASSES = {Op.INSIDE: "I", Op.WITHIN: "IB", Op.OUTSIDE: "E"}
_CLASS_VECTORS = {op: np.array([c in cs for c in "IBE"]) for op, cs in _CLASSES.items()}
_HULL, _INTERIOR = Atom(Var("p"), Op.WITHIN, "R"), Atom(Var("p"), Op.INSIDE, "R")


def region_signature(t: Trajectory, r: Region, s: Strictness) -> RegionSignature:
    """The signature of t against r under s, from one pass over the sites.

    pf and pl are judged as a ground clause judges them, the sites as a
    quantified clause of mode s does (relaxed: one site pass with the leaves
    (R, WITHIN) and (R, INSIDE)); T is kept apart from TFL, pf and pl
    because relaxed mode judges the ends of the path by crossings there.

    Raises:
        PredicateTypeError: r is not a Region.
        UnsupportedStrictnessError: an unknown strictness kind.
        CrossingOverflowError: relaxed, a coordinate difference overflows.
    """
    if not isinstance(r, Region):
        raise PredicateTypeError(f"area relations need a Region, got {type(r).__name__}")
    env = EvalEnv({"R": r})

    def classes(within, inside) -> np.ndarray:  # rows I, B, E
        return np.array([inside, within & (inside ^ True), within ^ True])

    if s.kind == "relaxed" and len(t) > 1:
        truth, domain = _relaxed_sites(t, env, (("R", Op.WITHIN), ("R", Op.INSIDE)))
        rows = classes(*truth.values())
        domains = (domain(Domain.INNER_POINTS), domain(Domain.ALL_POINTS))
    else:
        if s.kind in ("strict", "relaxed"):
            sites = (t.xs, t.ys, t.taus)
        elif s.kind == "approximated":
            sites = _augmented_arrays(t, resolve_strategy(s.strategy, s.param))
        else:
            raise UnsupportedStrictnessError(f"unknown strictness kind {s.kind!r}")
        rows = classes(*(_atom_mask(a, *sites, env) for a in (_HULL, _INTERIOR)))
        inner = np.zeros(rows.shape[1], dtype=bool)
        inner[1:-1] = True
        domains = (inner, True)
    ends = [
        classes(*(_atom_mask(a, x, y, tau, env) for a in (_HULL, _INTERIOR)))
        for x, y, tau in ((t.xs.item(i), t.ys.item(i), t.taus.item(i)) for i in (0, -1))
    ]
    triples = (*ends, *((rows & d).reshape(3, -1).any(axis=1) for d in domains))
    return RegionSignature(*("".join(c for c, hit in zip("IBE", m) if hit) for m in triples))


def holds_on_signature(ast: Predicate, sig: RegionSignature) -> bool:
    """Truth of a predicate whose atoms all test the region of a signature:
    a ground atom holds when the class of pf (or pl) is one where it holds,
    and a quantifier ranges over the classes TFL (or T) meets."""
    ends = {PointRef.FIRST: sig.pf, PointRef.LAST: sig.pl}
    for clause in ast.clauses:
        if isinstance(clause, GroundClause):
            ok = _body_mask(clause.body, lambda a: ends[a.subject] in _CLASSES[a.op])
        else:
            body = _body_mask(clause.body, lambda a: _CLASS_VECTORS[a.op])
            seen = sig.tfl if clause.domain is Domain.INNER_POINTS else sig.t
            ok = _quantify(clause.quantifier, body, np.array([c in seen for c in "IBE"]))
        if not ok:
            return False
    return True


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
