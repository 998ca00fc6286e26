"""Predicate evaluation over trajectories and relation filtering.

One evaluator serves the three degrees of strictness, which differ only in
the sites a quantifier ranges over:

* strict: only the recorded points of the trajectory;
* approximated: the recorded points plus the intermediate points a
  pluggable strategy proposes for each segment;
* relaxed: the continuum of the interpolated polyline, evaluated exactly
  on a finite set of sites (no sampling anywhere).

A mode supplies only its site source (``_site_source``): for the atoms of a
quantified clause, the truth of each atom at every site and, per domain (T,
TFL), the mask of the sites it owns. ``_holds``, the one clause loop, holds
the one quantifier rule: EXISTS holds iff the body holds at some owned
site, FORALL iff it fails at none. One atom rule, ``_atom_mask``, tests
point sites as arrays and the pf or pl of a ground clause as floats, so
ground clauses agree in every mode.

Relaxed sites come from one vectorised pass over all segments of a
trajectory. On one segment every atom holds on one interval of the
parameter range [0, 1] (region OUTSIDE is the complement of the closed
hull, time OUTSIDE the union of BEFORE and AFTER). Its ends are threshold
crossings (v - c0) / (c1 - c0). The sites of a segment are 0, 1 and every
crossing, sorted, plus the open cell between each pair of neighbours that
differ; no atom changes truth inside a cell. Whether an atom holds at a
site or on a cell is decided only by ordinal comparisons of the site
values with the interval ends and their open/closed flags: no midpoints
and no epsilons, so a cell between two adjacent floats still counts. AND,
OR and NOT then act on boolean site masks. Segment domains are half-open
so that a vertex shared by two segments is owned by exactly one of them;
the final segment also owns the last point, and the TFL domain drops just
the first and last points (a measure-zero exclusion: the inner continuum
reaches arbitrarily close to both). A trajectory of one point has no
continuum; its relaxed site is that point.

A predicate whose atoms all test one region reads of a trajectory only its
class signature (``region_signature``): the class of pf and of pl, and the
classes the TFL and the T sites of the mode meet. ``holds_on_signature``
runs the clause loop on the sites I, B and E, each domain owning the
classes the signature saw there; area classification computes one
signature per trajectory instead of evaluating each formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

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


# --- the clause loop, the atom rule and point sites ---------------------


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


_Sites = Callable[[Iterable[Atom]], tuple[Callable[[Atom], np.ndarray], Callable[[Domain], Any]]]
_SiteSource = Callable[[Trajectory, EvalEnv], _Sites]


def _holds(ast: Predicate, ground: Callable[[Atom], bool], sites: _Sites) -> bool:
    """The clause loop of every mode and of signature lookup; ``ground``
    judges the atoms of a ground clause, ``sites`` serve the others."""
    for clause in ast.clauses:
        if isinstance(clause, GroundClause):
            ok = _body_mask(clause.body, ground)
        else:
            truth, owned = sites(_walk_atoms(clause.body))
            body, domain = _body_mask(clause.body, truth), owned(clause.domain)
            exists = clause.quantifier is Quantifier.EXISTS
            ok = (body & domain).any() if exists else not (~body & domain).any()
        if not ok:
            return False
    return True


def _decide(ast: Predicate, t: Trajectory, env: EvalEnv, source: _SiteSource) -> bool:
    """Validate, then run the clause loop with pf and pl and source's sites."""
    _require_valid(ast, env)
    return _holds(ast, lambda atom: _ground_atom(atom, t, env), source(t, env))


def _point_sites(xs: np.ndarray, ys: np.ndarray, taus: np.ndarray, env: EvalEnv) -> _Sites:
    """Sites at the points of coordinate arrays: T owns all, TFL all but the ends."""

    def owned(d: Domain):
        if d is Domain.ALL_POINTS:
            return True
        inner = np.zeros(xs.size, dtype=bool)
        inner[1:-1] = True
        return inner

    return lambda atoms: ((lambda atom: _atom_mask(atom, xs, ys, taus, env)), owned)


def _strict_sites(t: Trajectory, env: EvalEnv) -> _Sites:
    return _point_sites(t.xs, t.ys, t.taus, env)


def eval_strict(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Truth of the predicate using only the recorded points."""
    return _decide(ast, t, env, _strict_sites)


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
            (t.xs[:-1], t.ys[:-1]),
            (t.xs[1:], t.ys[1:]),
            (target.x_min, target.y_min),
            (target.x_max, target.y_max),
            op is Op.INSIDE,
        )
    starts, ends = (t.taus[:-1],), (t.taus[1:],)
    if op is Op.BEFORE:
        return box_params(starts, ends, (-math.inf,), (target.tau_s,), True)
    if op is Op.AFTER:
        return box_params(starts, ends, (target.tau_e,), (math.inf,), True)
    return box_params(starts, ends, (target.tau_s,), (target.tau_e,), op is Op.INSIDE)


def _relaxed_sites(t: Trajectory, env: EvalEnv) -> _Sites:
    """The site pass over all segments of a trajectory: the truth of each
    interval-shaped leaf of the atoms at every site and on every cell, and
    the sites and cells each domain owns, in that layout."""
    if len(t) == 1:  # one recorded point, no continuum
        return _strict_sites(t, env)

    def sites(atoms: Iterable[Atom]):
        keys = dict.fromkeys(k for a in atoms for k in _leaf_keys(a, env))
        leaves = {k: _leaf_params(env.bindings[k[0]], k[1], t) for k in keys}
        m = len(t) - 1
        bounds = [np.zeros(m), np.ones(m)]
        for p in leaves.values():
            bounds += [p.lo, p.hi]
        # at[j, i] is the j-th smallest site of segment i
        at = np.sort(np.minimum(np.maximum(np.array(bounds), 0.0), 1.0), axis=0)
        left, right = at[:-1], at[1:]

        def holds(p: ParamIntervals) -> np.ndarray:
            at_site = np.where(p.lo_closed, p.lo <= at, p.lo < at) & np.where(
                p.hi_closed, at <= p.hi, at < p.hi
            )
            on_cell = (p.lo <= left) & (right <= p.hi)
            return np.concatenate((at_site, on_cell))

        truth = {k: holds(p) for k, p in leaves.items()}

        def atom_mask(atom: Atom) -> np.ndarray:
            masks = [truth[k] for k in _leaf_keys(atom, env)]
            if len(masks) == 2:
                return masks[0] | masks[1]
            return ~masks[0] if atom.op is Op.OUTSIDE else masks[0]

        def owned(d: Domain) -> np.ndarray:
            mask = at < 1.0  # a vertex belongs to the segment starting there
            if d is Domain.ALL_POINTS:
                mask[:, -1] = True
            else:
                mask[:, 0] &= at[:, 0] > 0.0  # TFL also drops the first point
            return np.concatenate((mask, left < right))

        return atom_mask, owned

    return sites


def eval_relaxed(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Truth of the predicate over the interpolated continuum, computed exactly."""
    return _decide(ast, t, env, _relaxed_sites)


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


def _approximated_sites(strategy: ApproxStrategy, t: Trajectory, env: EvalEnv) -> _Sites:
    """The recorded points plus the strategy's, made once, on first use."""
    points = functools.cache(lambda: _point_sites(*_augmented_arrays(t, strategy), env))
    return lambda atoms: points()(atoms)


def eval_approximated(
    ast: Predicate, t: Trajectory, env: EvalEnv, strategy: ApproxStrategy
) -> bool:
    """Strict evaluation over the trajectory plus strategy-generated points;
    ground clauses and the TFL domain ignore how many a strategy adds."""
    return _decide(ast, t, env, functools.partial(_approximated_sites, strategy))


def _site_source(s: Strictness) -> _SiteSource:
    """The sites of the mode s; the one place a Strictness is read.

    Raises:
        UnsupportedStrictnessError: s is not a Strictness, or of an unknown kind.
        UnknownStrategyError: approximated, no strategy has that name.
    """
    if not isinstance(s, Strictness):
        raise UnsupportedStrictnessError(f"a strictness is a Strictness value, got {s!r}")
    if s.kind == "strict":
        return _strict_sites
    if s.kind == "relaxed":
        return _relaxed_sites
    if s.kind == "approximated":
        return functools.partial(_approximated_sites, resolve_strategy(s.strategy, s.param))
    raise UnsupportedStrictnessError(f"unknown strictness kind {s.kind!r}")


def evaluate(ast: Predicate, t: Trajectory, env: EvalEnv, s: Strictness) -> bool:
    """Evaluate under the mode named by a Strictness value."""
    return _decide(ast, t, env, _site_source(s))


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
        UnsupportedStrictnessError: s is not a Strictness, or of an unknown kind.
        CrossingOverflowError: relaxed, a coordinate difference overflows.
    """
    if not isinstance(r, Region):
        raise PredicateTypeError(f"area relations need a Region, got {type(r).__name__}")
    env = EvalEnv({"R": r})
    truth, owned = _site_source(s)(t, env)((_HULL, _INTERIOR))

    def classes(within, inside) -> np.ndarray:  # rows I, B, E
        return np.array([inside, within & (inside ^ True), within ^ True])

    rows = classes(truth(_HULL), truth(_INTERIOR))
    ends = [
        classes(*(_atom_mask(a, x, y, tau, env) for a in (_HULL, _INTERIOR)))
        for x, y, tau in ((t.xs.item(i), t.ys.item(i), t.taus.item(i)) for i in (0, -1))
    ]
    domains = (Domain.INNER_POINTS, Domain.ALL_POINTS)
    triples = (*ends, *((rows & owned(d)).reshape(3, -1).any(axis=1) for d in domains))
    return RegionSignature(*("".join(c for c, hit in zip("IBE", m) if hit) for m in triples))


def holds_on_signature(ast: Predicate, sig: RegionSignature) -> bool:
    """Truth of a predicate whose atoms all test the region of a signature:
    a ground atom holds when the class of pf (or pl) is one where it holds,
    and a quantifier ranges over the classes TFL (or T) meets."""
    ends = {PointRef.FIRST: sig.pf, PointRef.LAST: sig.pl}
    seen = {Domain.INNER_POINTS: sig.tfl, Domain.ALL_POINTS: sig.t}
    domains = {d: np.array([c in cs for c in "IBE"]) for d, cs in seen.items()}
    sites = (lambda atom: _CLASS_VECTORS[atom.op]), domains.__getitem__
    return _holds(ast, lambda atom: ends[atom.subject] in _CLASSES[atom.op], lambda atoms: sites)


def select_st(
    rel: TrajectoriesRelation, ast: Predicate, env: EvalEnv, s: Strictness
) -> TrajectoriesRelation:
    """Filter a relation to the rows whose trajectory satisfies the predicate.

    Row order and schema are preserved. Row evaluations are independent and
    pure, so they could run concurrently; results do not depend on order of
    evaluation.
    """
    _site_source(s)  # fail fast, before touching rows
    _require_valid(ast, env)
    kept = tuple(row for row in rel.rows if evaluate(ast, row[1], env, s))
    return TrajectoriesRelation(kept)
