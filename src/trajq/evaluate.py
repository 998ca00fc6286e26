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
TFL), the mask of the sites it owns, or ``True`` where it owns them all.
``_holds``, the one clause loop, holds the one quantifier rule: EXISTS
holds iff the body holds at some owned site, FORALL iff it fails at none.
One atom rule, ``_atom_mask``, tests point sites as arrays and the pf or
pl of a ground clause as floats, so ground clauses agree in every mode.

Strict sites are the recorded points, so the box of a trajectory
(``Trajectory.box``: x and y min/max, the first and last τ) bounds all of
them. Before testing any point, the strict source decides each atom on that
box (``_on_box``): true when the box lies in the atom's region or
interval, false when it misses it, and unknown otherwise. Only ordered
comparisons are used (open bounds for INSIDE, BEFORE and AFTER, closed for
WITHIN, OUTSIDE as the complement of WITHIN), so the answer is exact on
every finite input. A decided atom is one bool that broadcasts over the
masks of the other atoms. AND and OR ask every part for its answer before
testing any point and follow Kleene's rules (``_answer``): an AND with a
part False is False and an OR with a part True is True, so a clause the
decided atoms settle tests no point, and vacuity still comes from the domain
(EXISTS over the empty TFL of a one- or two-point trajectory fails, FORALL
holds). An atom the box leaves unknown is tested at every point when the
body still needs it, as without the box.
Relaxed and approximated sites keep the full test. Relaxed crossings can
still collapse or overflow, and a box decision would hide the
``CrossingOverflowError`` raised for them. Approximated sites are computed
as (1 - λ)·a + λ·b and can round to just outside the box of the vertices.

An approximated strategy sees one ``Segment`` record per segment, in
order, and returns its parameters λ for it (``_augmented_arrays``). The
records are built by ``model.segments`` on each evaluation, straight from
the trajectory's cached point records and without the dataclass
constructor; they are equal to, hash and print as constructed ones, so
that protocol is unchanged.

Relaxed sites come from one vectorised pass over all segments of a
trajectory. Every atom tests a box: a region's bounds, an interval, or for
BEFORE and AFTER the half-line before or after it. A box's crossings are
computed once whatever the operators, and ``geometry.box_holds`` decides
the box at the sites of ``geometry.box_sites``: WITHIN by the closed box,
INSIDE, BEFORE and AFTER by its interior, OUTSIDE where WITHIN fails.
AND, OR and NOT then act on boolean site masks. Segment domains are half-open
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
import operator
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    PredicateTypeError,
    StrategyOutputError,
    StrategyParameterError,
    UnknownStrategyError,
    UnsupportedStrictnessError,
    ValidationFailedError,
)
from .geometry import Interval, Region, box_crossings, box_holds, box_sites, densify
from .model import Segment, TrajectoriesRelation, Trajectory, segments
from .predicate import (
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

    Raises:
        StrategyParameterError: point_generator is not callable.
    """

    name: str
    point_generator: Callable[[Segment], Sequence[float]]

    def __post_init__(self):
        if not callable(self.point_generator):
            raise StrategyParameterError(
                f"a strategy's point generator is callable, got {self.point_generator!r}"
            )


# The most points ``uniform`` inserts per segment. Its grid takes time and
# memory linear in k to build (once per k, see ``_uniform``), and every
# segment of every row is augmented by it, so a k without bound could
# exhaust memory or never finish.
MAX_UNIFORM_K = 10_000


def uniform_strategy(k: int) -> ApproxStrategy:
    """k evenly spaced interior points per segment: lam = j/(k+1), j=1..k,
    for k from 0 to ``MAX_UNIFORM_K``."""
    try:
        if isinstance(k, bool):  # operator.index takes True as 1
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise StrategyParameterError(f"k must be an integer, got {k!r}") from None
    if not 0 <= k <= MAX_UNIFORM_K:
        raise StrategyParameterError(f"k must be from 0 to {MAX_UNIFORM_K}, got {k}")
    return _uniform(k)


@functools.lru_cache(maxsize=8)
def _uniform(k: int) -> ApproxStrategy:
    """The uniform strategy of a valid k: built on first use and kept, as
    an approximated selection resolves its strategy once per row."""
    grid = tuple((j + 1) / (k + 1) for j in range(k))
    return ApproxStrategy(f"uniform-{k}", lambda seg: grid)


_STRATEGY_FACTORIES: dict[str, Callable[[int | None], ApproxStrategy]] = {}

DEFAULT_UNIFORM_K = 100


def register_strategy(name: str, factory: Callable[[int | None], ApproxStrategy]) -> None:
    """Register a strategy factory; the factory receives the optional integer
    parameter from the textual form ``approx:<name>[:k]``.

    Raises:
        StrategyParameterError: name is not a string or factory not callable.
    """
    if not isinstance(name, str) or not callable(factory):
        raise StrategyParameterError(
            f"a strategy is registered under a str with a callable factory, got {name!r}, {factory!r}"
        )
    _STRATEGY_FACTORIES[name] = factory


def resolve_strategy(name: str, param: int | None = None) -> ApproxStrategy:
    """The strategy the factory registered under name makes for param.

    Raises:
        UnknownStrategyError: no factory is registered under name.
        StrategyParameterError: the factory refuses param, or returns no
            ApproxStrategy.
    """
    try:
        factory = _STRATEGY_FACTORIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        known = ", ".join(sorted(_STRATEGY_FACTORIES)) or "none"
        raise UnknownStrategyError(
            f"no approximation strategy named {name!r} (registered: {known})"
        ) from None
    strategy = factory(param)
    if not isinstance(strategy, ApproxStrategy):
        raise StrategyParameterError(
            f"the factory registered as {name!r} returned {strategy!r}, not an ApproxStrategy"
        )
    return strategy


register_strategy(
    "uniform", lambda param: uniform_strategy(DEFAULT_UNIFORM_K if param is None else param)
)


def _require_valid(ast: Predicate, env: EvalEnv) -> None:
    """Raises PredicateTypeError for an env that is no EvalEnv, and what
    ``validate`` raises or finds for the predicate."""
    if not isinstance(env, EvalEnv) or not isinstance(env.bindings, Mapping):
        raise PredicateTypeError(
            f"an environment is an EvalEnv over a mapping of names, got {env!r}"
        )
    diags = validate(ast, env.bindings)
    if diags:
        raise ValidationFailedError(diags)


def _require_trajectory(t: Any) -> None:
    if not isinstance(t, Trajectory):
        raise PredicateTypeError(f"a trajectory is a Trajectory, got {type(t).__name__}")


# --- the clause loop, the atom rule and point sites ---------------------


def _in_band(c, lo: float, hi: float, strict: bool):
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
        return _in_band(xs, target.x_min, target.x_max, strict) & _in_band(
            ys, target.y_min, target.y_max, strict
        )
    if op is Op.OUTSIDE:
        return _off(taus, target.tau_s, target.tau_e)
    if op is Op.BEFORE:
        return taus < target.tau_s
    if op is Op.AFTER:
        return taus > target.tau_e
    return _in_band(taus, target.tau_s, target.tau_e, op is Op.INSIDE)


_Answer = Any  # a bool, a site mask, or a function that tests the sites for one


def _body_mask(body: Body, truth: Callable[[Atom], _Answer]) -> np.ndarray | bool:
    """The truth of a body at every site: a bool where it has one truth at
    every site, else a mask. ``truth`` gives an atom's answer: a bool, a
    mask, or a function that tests the sites for the mask. No such function
    is called before every part of an AND or OR has answered, and none
    where a bool settles the body (:func:`_answer`)."""
    answer = _answer(body, truth)
    return answer() if callable(answer) else answer


def _answer(body: Body, truth: Callable[[Atom], _Answer]) -> _Answer:
    """A body's answer from its atoms', by Kleene's rules: an AND with a
    part False is False and an OR with a part True is True, whatever the
    other parts; a part True in an AND or False in an OR drops out."""
    if isinstance(body, Atom):
        return truth(body)
    if isinstance(body, Not):
        child = _answer(body.child, truth)
        return (lambda: child() ^ True) if callable(child) else child ^ True  # bool or mask
    settles = isinstance(body, Or)  # the part answer that settles it: True for OR, False for AND
    parts = []
    for part in body.parts:
        answer = _answer(part, truth)
        if answer is settles:
            return settles
        if answer is not (not settles):
            parts.append(answer)
    if not parts:
        return not settles
    join = operator.or_ if settles else operator.and_
    if any(map(callable, parts)):
        return lambda: functools.reduce(join, [a() if callable(a) else a for a in parts])
    return functools.reduce(join, parts)


def _ground_atom(atom: Atom, t: Trajectory, env: EvalEnv) -> bool:
    i = 0 if atom.subject is PointRef.FIRST else -1
    return _atom_mask(atom, t.xs.item(i), t.ys.item(i), t.taus.item(i), env)


_Sites = Callable[
    [Iterable[Atom]], tuple[Callable[[Atom], np.ndarray | bool], Callable[[Domain], Any]]
]
_SiteSource = Callable[[Trajectory, EvalEnv], _Sites]


def _holds(ast: Predicate, ground: Callable[[Atom], bool], sites: _Sites) -> bool:
    """The clause loop of every mode and of signature lookup; ``ground``
    judges the atoms of a ground clause, ``sites`` serve the others."""
    for clause in ast.clauses:
        if isinstance(clause, GroundClause):
            ok = _body_mask(clause.body, ground)
        else:
            truth, owned = sites(_walk_atoms(clause.body))
            exists = clause.quantifier is Quantifier.EXISTS
            body = _body_mask(clause.body, truth)
            if body is (not exists):  # the box decided it: no domain is built
                ok = body
            else:
                ok = (_some if exists else _every)(body, owned(clause.domain))
        if not ok:
            return False
    return True


def _decide(ast: Predicate, t: Trajectory, env: EvalEnv, source: _SiteSource) -> bool:
    """Validate, then run the clause loop with pf and pl and source's sites."""
    _require_valid(ast, env)
    _require_trajectory(t)
    return _holds(ast, lambda atom: _ground_atom(atom, t, env), source(t, env))


def _some(mask, domain) -> bool:
    """Whether a mask holds at some site a domain owns. A domain of ``True``
    owns every site; a mask that is a bool holds at every site or at none."""
    if isinstance(mask, bool):
        return mask and (domain is True or domain.any())
    return (mask if domain is True else mask & domain).any()


def _every(mask, domain) -> bool:
    """Whether a mask holds at every site a domain owns, as :func:`_some`
    reads them; it does over a domain that owns no site."""
    if isinstance(mask, bool):
        return mask or not (domain is True or domain.any())
    return (mask if domain is True else mask | ~domain).all()


def _point_domain(n: int, d: Domain):
    """The sites of n points a domain owns: T all (``True``), TFL all but
    the first and the last."""
    if d is Domain.ALL_POINTS:
        return True
    inner = np.zeros(n, dtype=bool)
    inner[1:-1] = True
    return inner


def _point_sites(xs: np.ndarray, ys: np.ndarray, taus: np.ndarray, env: EvalEnv):
    """Sites at the points of coordinate arrays, as the pair a site source
    serves: the atom rule over the arrays, and the sites each domain owns."""
    owned = functools.partial(_point_domain, xs.size)
    return (lambda atom: _atom_mask(atom, xs, ys, taus, env)), owned


_Box = tuple[tuple[int, float, float], ...]


def _box(atom: Atom, env: EvalEnv) -> _Box:
    """The box an atom tests: per coordinate it reads, the coordinate's
    index in (x, y, τ), the order of ``Trajectory.box``, and its lower and
    upper bound. Time BEFORE and AFTER test half-lines."""
    target = env.bindings[atom.rhs]
    if isinstance(target, Region):
        return (0, target.x_min, target.x_max), (1, target.y_min, target.y_max)
    if atom.op is Op.BEFORE:
        return ((2, -math.inf, target.tau_s),)
    if atom.op is Op.AFTER:
        return ((2, target.tau_e, math.inf),)
    return ((2, target.tau_s, target.tau_e),)


# The ops that hold on the closed box (OUTSIDE as its complement); the
# others hold on its interior.
_CLOSED_OPS = (Op.WITHIN, Op.OUTSIDE)


def _on_box(atom: Atom, t: Trajectory, env: EvalEnv) -> bool | None:
    """The truth of an atom at the recorded points of t as their box gives
    it, or None where the points must be tested. On each axis the atom
    tests, the box's span lies in the atom's band (open or closed as the op
    holds on it), misses it, or straddles it. A miss on some axis, or a span
    in the band on every axis, decides the atom at every point. Ordered
    comparisons only, so exact on every finite input."""
    closed = atom.op in _CLOSED_OPS
    box = t.box
    inside = True
    for axis, low, high in _box(atom, env):
        a, b = box[axis]
        if (b < low or high < a) if closed else (b <= low or high <= a):
            return atom.op is Op.OUTSIDE
        inside = inside and ((low <= a and b <= high) if closed else (low < a and b < high))
    return (atom.op is not Op.OUTSIDE) if inside else None


def _strict_sites(t: Trajectory, env: EvalEnv) -> _Sites:
    """The recorded points. Their box bounds every site, so an atom it
    decides (:func:`_on_box`) is one bool that broadcasts over the site
    masks; any other atom answers with a function that tests the points,
    called only if the box answers of its siblings leave the body open."""

    def truth(atom: Atom) -> _Answer:
        known = _on_box(atom, t, env)
        return (lambda: _atom_mask(atom, t.xs, t.ys, t.taus, env)) if known is None else known

    sites = truth, functools.partial(_point_domain, t.taus.size)
    return lambda atoms: sites


def eval_strict(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Truth of the predicate using only the recorded points."""
    return _decide(ast, t, env, _strict_sites)


# --- relaxed machinery --------------------------------------------------


def _crossings(t: Trajectory, box: _Box):
    """Where each segment of t crosses a box (:func:`box_crossings`)."""
    axes, lo, hi = zip(*box)
    columns = [(t.xs, t.ys, t.taus)[axis] for axis in axes]
    return box_crossings([c[:-1] for c in columns], [c[1:] for c in columns], lo, hi)


def _relaxed_sites(t: Trajectory, env: EvalEnv) -> _Sites:
    """The site pass over all segments of a trajectory: the truth of each
    atom at every site and on every cell, from one crossing computation per
    box the atoms test, and the sites and cells each domain owns, in that
    layout."""
    if len(t) == 1:  # one recorded point, no continuum
        return _strict_sites(t, env)

    def sites(atoms: Iterable[Atom]):
        keys = {a: (_box(a, env), a.op in _CLOSED_OPS) for a in atoms}
        boxes = dict.fromkeys(box for box, _ in keys.values())
        crossings = {box: _crossings(t, box) for box in boxes}
        at = box_sites(crossings.values())  # at[j, i]: the j-th site of segment i
        truth = {(b, c): box_holds(crossings[b], c, at) for b, c in dict.fromkeys(keys.values())}

        def atom_mask(atom: Atom) -> np.ndarray:
            mask = truth[keys[atom]]
            return ~mask if atom.op is Op.OUTSIDE else mask

        def owned(d: Domain) -> np.ndarray:
            mask = at < 1.0  # a vertex belongs to the segment starting there
            if d is Domain.ALL_POINTS:
                mask[:, -1] = True
            else:
                mask[:, 0] &= at[:, 0] > 0.0  # TFL also drops the first point
            return np.concatenate((mask, at[:-1] < at[1:]))

        return atom_mask, owned

    return sites


def eval_relaxed(ast: Predicate, t: Trajectory, env: EvalEnv) -> bool:
    """Truth of the predicate over the interpolated continuum, computed exactly."""
    return _decide(ast, t, env, _relaxed_sites)


# --- approximated machinery ---------------------------------------------


def _not_reals(strategy: ApproxStrategy) -> StrategyOutputError:
    return StrategyOutputError(
        f"strategy {strategy.name!r} returned something other than a sequence of real numbers"
    )


def _augmented_arrays(
    t: Trajectory, strategy: ApproxStrategy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of t with the strategy's points inserted. The strategy
    is called once per segment, in order, with that segment's ``Segment``
    record (:func:`segments` builds them without the dataclass
    ``__init__``, equal to records built with it), and its output is
    checked as a whole: real numbers, within [0, 1], ascending per segment.

    Raises:
        StrategyOutputError: the output fails a check.
    """
    generate = strategy.point_generator
    lams: list[float] = []
    counts: list[int] = []
    extend, count = lams.extend, counts.append
    for seg in segments(t):
        out = generate(seg)
        before = len(lams)
        try:
            extend(out)
        except TypeError as exc:  # not iterable
            raise _not_reals(strategy) from exc
        count(len(lams) - before)
    try:
        lam = np.array(lams, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, or items no float takes
        raise _not_reals(strategy) from exc
    if lam.ndim != 1:
        raise _not_reals(strategy)
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
    return lambda atoms: points()


def eval_approximated(
    ast: Predicate, t: Trajectory, env: EvalEnv, strategy: ApproxStrategy
) -> bool:
    """Strict evaluation over the trajectory plus strategy-generated points;
    ground clauses and the TFL domain ignore how many a strategy adds.

    Raises:
        StrategyParameterError: strategy is not an ApproxStrategy.
    """
    if not isinstance(strategy, ApproxStrategy):
        raise StrategyParameterError(f"a strategy is an ApproxStrategy, got {strategy!r}")
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
    quantified clause of mode s does (relaxed: one site pass, which
    computes the crossings of r once for WITHIN and INSIDE); T is kept
    apart from TFL, pf and pl because relaxed mode judges the ends of the
    path by crossings there.

    Raises:
        PredicateTypeError: r is not a Region, or t not a Trajectory.
        UnsupportedStrictnessError: s is not a Strictness, or of an unknown kind.
        CrossingOverflowError: relaxed, a coordinate difference overflows.
    """
    if not isinstance(r, Region):
        raise PredicateTypeError(f"area relations need a Region, got {type(r).__name__}")
    _require_trajectory(t)
    env = EvalEnv({"R": r})
    truth, owned = _site_source(s)(t, env)((_HULL, _INTERIOR))

    def classes(within, inside) -> list:  # I, B, E
        return [inside, within & (inside ^ True), within ^ True]

    # One row per class: a site mask, or a bool where the box decided.
    rows = classes(_body_mask(_HULL, truth), _body_mask(_INTERIOR, truth))
    ends = [
        classes(*(_atom_mask(a, x, y, tau, env) for a in (_HULL, _INTERIOR)))
        for x, y, tau in ((t.xs.item(i), t.ys.item(i), t.taus.item(i)) for i in (0, -1))
    ]
    domains = (owned(Domain.INNER_POINTS), owned(Domain.ALL_POINTS))
    triples = (*ends, *([_some(row, d) for row in rows] for d in domains))
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
    if not isinstance(rel, TrajectoriesRelation):
        raise PredicateTypeError(f"a relation is a TrajectoriesRelation, got {type(rel).__name__}")
    kept = tuple(row for row in rel.rows if evaluate(ast, row[1], env, s))
    return TrajectoriesRelation(kept)
