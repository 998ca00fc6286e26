"""The two benchmark workloads: ``fleet`` and ``tracks``.

Each workload is a closed loop with one client: ``cycle()`` returns the
fixed operation mix, and the runner executes the operations one after the
other, timing each and checking its output afterwards, outside the timed
region. The program receives only the generated files (``fleet`` and the
set-up of the others) or the relations loaded from them.

Each workload's data is split into a few parts (``Part``), each written to
its own file and loaded from it, and every operation of the mix acts on
one part. Splitting the same data into more, smaller operations gives the
runner enough operations per cycle to keep only the fastest two runs of
each (see ``run.fastest_runs``).

* ``fleet``: the documented CLI user. Every command re-ingests the CSV and
  evaluates short trajectories, so ``dataset`` and per-row overhead in
  ``evaluate``/``relations`` dominate; relaxed geometry and the NF²
  segment join never run. It is the only workload that writes.
* ``tracks``: a library user who loads once and queries many times, on
  trajectories whose lengths spread log-uniformly over 10..1000 points,
  and runs compiled NF² plans on short trajectories (``Nested``). Exact
  per-segment evaluation and the NF² nested-loop segment join dominate;
  ingest happens once, in set-up. The S and B queries miss or hold
  everywhere, so early exits cannot hide a full scan.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import trajq.cli
import trajq.dataset
import trajq.model
import trajq.nf2
import trajq.predicate
import trajq.relations
from trajq.evaluate import RELAXED, STRICT, EvalEnv, approximated
from trajq.geometry import Interval, Region
from trajq.model import TrajectoriesRelation
from trajq.relations import AllenLabel, De9imLabel
from trajq.testing import allen_case_oracle

import datagen

# The package re-exports the function ``evaluate``, which shadows the
# submodule of the same name as an attribute of ``trajq``.
evaluation = importlib.import_module("trajq.evaluate")

R = Region(*datagen.R_BOUNDS)
R_ARG = "R=3,3,7,7"
# Interval endpoints carry more digits than any generated timestamp, so no
# timestamp ever equals an endpoint.
I = Interval(150.00005, 250.00005)
I_ARG = "I=150.00005,250.00005"
GENERIC_FIVE = frozenset(
    {De9imLabel.R031, De9imLabel.R179, De9imLabel.R223, De9imLabel.R247, De9imLabel.R255}
)


@dataclass
class Op:
    """One operation of the mix, on one part of the data.

    ``run`` is the timed call; ``check(output, cycle)`` runs afterwards and
    may read the outputs of earlier operations on the same part in the same
    cycle, keyed by name. ``points`` counts the recorded points in the
    operation's input.
    """

    name: str
    kind: str
    part: str
    points: int
    run: Callable[[], object]
    check: Callable[[object, dict], bool]
    tags: dict = field(default_factory=dict)


@dataclass
class Part:
    """One file of a workload's data: the generated samples, the relation
    built from them, and the dataset and relation ingested from the file."""

    name: str
    samples: dict[str, list]
    path: Path
    built: TrajectoriesRelation
    dataset: trajq.dataset.Dataset
    rel: TrajectoriesRelation
    points: int


def _points(rel: TrajectoriesRelation) -> int:
    return sum(len(t) for _, t in rel.rows)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, scale: float):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.parts: list[Part] = []
        self._expected: dict = {}

    def _count(self, full: int, floor: int) -> int:
        return max(floor, int(round(full * self.scale)))

    def setup(self) -> None:
        """Generate the seeded data, write its files, load once, warm up."""
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def setup_ok(self) -> bool:
        """Checks on what set-up produced; run outside the set-up timing."""
        return all(part.rel == part.built for part in self.parts)

    def probes(self, tracer) -> None:
        """Extra traced calls that per-layer metrics need beyond the mix."""

    def _want(self, part: Part, key, ast, env: dict, s) -> list[str]:
        """The tids select_st keeps on a part, for a check; computed once,
        untimed."""
        if (part.name, key) not in self._expected:
            got = evaluation.select_st(part.rel, ast, EvalEnv(env), s)
            self._expected[part.name, key] = list(got.tids())
        return self._expected[part.name, key]

    def warm_up(self) -> None:
        for op in self.cycle():
            op.run()

    def _write_and_load(self, samples: dict[str, list], stem: str, props=None) -> Part:
        """Build a part's relation from the samples, write its files (with
        the (per-trajectory, per-point) property rows, if given) and ingest
        them."""
        built = TrajectoriesRelation.from_pairs(
            (tid, trajq.model.build_trajectory(s)) for tid, s in samples.items()
        )
        path = self.workdir / f"{stem}.csv"
        datagen.write_points(path, samples)
        if props is not None:
            tprops, pprops = props
            datagen.write_props(self.workdir / f"{stem}.props.csv", ["tid"], tprops)
            datagen.write_props(self.workdir / f"{stem}.pprops.csv", ["tid", "order"], pprops)
        dataset = trajq.dataset.ingest_csv(path)
        rel = dataset.trajectories
        part = Part(stem, samples, path, built, dataset, rel, _points(rel))
        self.parts.append(part)
        return part


# (name, predicate, --strictness). With the other commands every depot has
# 15 operations per cycle.
FLEET_QUERIES = (
    ("exists.strict", "EXISTS p IN T: p INSIDE R", "strict"),
    ("exists-tfl.strict", "EXISTS p IN TFL: p INSIDE R AND p INSIDE I", "strict"),
    ("exists-not.strict", "EXISTS p IN T: p INSIDE R AND NOT (p INSIDE I)", "strict"),
    ("forall.strict", "FORALL p IN T: p OUTSIDE R OR p BEFORE I", "strict"),
    ("ground.strict", "pf INSIDE R AND pl OUTSIDE R", "strict"),
    ("exists-tfl.approx", "EXISTS p IN TFL: p INSIDE R AND p INSIDE I", "approx:uniform:8"),
    ("forall.approx", "FORALL p IN T: p OUTSIDE R", "approx:uniform:8"),
)
FLEET_RELATIONS = (
    ("overlaps-with", AllenLabel.OVERLAPS),
    ("is-during", AllenLabel.DURING),
    ("precedes", AllenLabel.PRECEDES),
)


class Fleet(Workload):
    """Short random walks with property siblings, one file per depot,
    driven through the CLI."""

    name = "fleet"
    DEPOTS = 4
    TRAJECTORIES = 20  # per depot
    POINTS = 25

    def setup(self) -> None:
        rng = random.Random(self.seed)
        count = self._count(self.TRAJECTORIES, 3)
        self.samples: dict[str, list] = {}
        self.files: dict[str, dict[str, bytes]] = {}
        for d in range(self.DEPOTS):
            samples = {}
            for k in range(d * count, (d + 1) * count):
                shape = "hug" if k % 10 == 9 else ("miss" if k % 2 else "wander")
                samples[f"f{k:05d}"] = datagen.trajectory_samples(rng, shape, self.POINTS, 4)
            self.samples.update(samples)
            stem = f"depot{d}"
            self._write_and_load(samples, stem, datagen.fleet_properties(rng, samples))
            self.files[stem] = {
                suffix: (self.workdir / f"{stem}{suffix}").read_bytes()
                for suffix in (".csv", ".props.csv", ".pprops.csv")
            }
        self.export_dir = self.workdir / "export"
        self.export_dir.mkdir(exist_ok=True)
        self.warm_up()

    def _cli(self, argv: list[str]) -> Callable[[], tuple[int, list[str]]]:
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = trajq.cli.main(argv)
            return code, buf.getvalue().splitlines()

        return run

    def cycle(self) -> list[Op]:
        ops = []
        for part in self.parts:
            ops += self._depot_ops(part)
        return ops

    def _depot_ops(self, part: Part) -> list[Op]:
        p = str(part.path)
        rows = part.rel.rows
        borderless = {tid for tid, s in part.samples.items() if not datagen.on_border(s)}
        export_path = self.export_dir / part.path.name

        def ok_validate(out, _):
            code, lines = out
            return code == 0 and lines == [f"OK: {len(rows)} trajectories, {part.points} points"]

        def ok_query(name, text, strictness):
            def check(out, _):
                code, lines = out
                env = {"R": R, "I": I}
                ast = trajq.predicate.parse_predicate(text, env)
                return code == 0 and lines == self._want(part, name, ast, env, strictness)

            return check

        def ok_allen(out, _):
            code, lines = out
            want = [
                f"{tid}\t{allen_case_oracle((t.points[0].tau, t.points[-1].tau), I).value}"
                for tid, t in rows
            ]
            return code == 0 and lines == want

        def ok_de9im(out, _):
            code, lines = out
            if code != 0 or [line.split("\t")[0] for line in lines] != [tid for tid, _ in rows]:
                return False
            for line in lines:
                tid, labels = line.split("\t")
                if tid in borderless:
                    got = {De9imLabel(x) for x in labels.split(",") if x}
                    if len(got) != 1 or not got <= GENERIC_FIVE:
                        return False
            return True

        def ok_nf2(label):
            # Temporal plans carry no strictness; the catalog formulas agree
            # with them on the interpolated span.
            def check(out, _):
                code, lines = out
                ast = trajq.relations.allen_predicate(label)
                return code == 0 and lines == self._want(part, label, ast, {"I": I}, RELAXED)

            return check

        def ok_ingest(out, _):
            return out == part.dataset

        def ok_export(out, _):
            return all(
                (self.export_dir / f"{part.name}{suffix}").read_bytes() == data
                for suffix, data in self.files[part.name].items()
            )

        cli_ops = [("validate", "validate", ["validate", p], ok_validate)]
        for name, text, mode in FLEET_QUERIES:
            argv = ["query", p, "--predicate", text, "--region", R_ARG, "--interval", I_ARG,
                    "--strictness", mode]
            strictness = STRICT if mode == "strict" else approximated("uniform", 8)
            cli_ops.append((f"query.{name}", "query", argv, ok_query(name, text, strictness)))
        cli_ops += [
            ("classify.allen", "classify", ["classify", "allen", p, "--interval", I_ARG], ok_allen),
            ("classify.de9im.strict", "classify",
             ["classify", "de9im", p, "--region", R_ARG, "--strictness", "strict"], ok_de9im),
        ]
        for alias, label in FLEET_RELATIONS:
            argv = ["exec-nf2", p, "--relation", alias, "--interval", I_ARG]
            cli_ops.append((f"exec-nf2.{alias}", "nf2", argv, ok_nf2(label)))
        ops = [
            Op(name, kind, part.name, part.points, self._cli(argv), check,
               {"cli": True, "mode": "strict"})
            for name, kind, argv, check in cli_ops
        ]
        ops.append(Op("ingest", "load", part.name, part.points,
                      lambda: trajq.dataset.ingest_csv(part.path), ok_ingest))
        ops.append(
            Op("export", "export", part.name, part.points,
               lambda: trajq.dataset.export_csv(part.dataset, export_path), ok_export)
        )
        return ops


# (name, text): two EXISTS and two FORALL clauses. S is a small region no
# walk reaches and B a box every walk stays in, so the S query misses and
# the B query holds: both scan every segment.
TRACKS_PREDICATES = (
    ("exists.R", "EXISTS p IN T: p INSIDE R"),
    ("exists.S", "EXISTS p IN T: p INSIDE S"),
    ("forall.R", "FORALL p IN T: p OUTSIDE R"),
    ("forall.B", "FORALL p IN TFL: p WITHIN B"),
)


class Tracks(Workload):
    """Load once, query many times, on lengths spread over 10..1000 points,
    in four batches of the same shapes and lengths; and run the compiled
    NF² plans of ``Nested`` on their own short walks."""

    name = "tracks"
    BATCHES = 4
    MIN_N, MAX_N = 10, 1000
    # The walks of every batch, longest first: (shape, index into the
    # lengths log-spaced over MIN_N..MAX_N). Every batch holds the same
    # shapes and lengths, so one query costs about the same on every batch.
    # Every shape but hug meets R the same way under every seed, so queries
    # exit early (or scan to the end) at the same points; the hug walk,
    # whose early exits fall where the seed puts its steps inside R, is the
    # shortest.
    WALKS = (("leap", 4), ("cross", 3), ("dash", 2), ("miss", 1), ("hug", 0))
    APPROX = approximated("uniform", 4)
    ENV = {"R": R, "S": Region(9.2, 9.2, 9.7, 9.7), "B": Region(-3.5, -3.5, 13.5, 13.5), "I": I}

    def __init__(self, seed: int, workdir: Path, scale: float):
        super().__init__(seed, workdir, scale)
        self.nested = Nested(seed, workdir, scale)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        lengths = datagen.log_lengths(
            len(self.WALKS), self.MIN_N, self._count(self.MAX_N, 4 * self.MIN_N)
        )
        self.samples = {}
        for b in range(self.BATCHES):
            batch = {
                f"t{b * len(self.WALKS) + j:04d}": datagen.trajectory_samples(
                    rng, shape, lengths[at], 6
                )
                for j, (shape, at) in enumerate(self.WALKS)
            }
            self.samples.update(batch)
            self._write_and_load(batch, f"batch{b}")
        self.asts = {
            name: trajq.predicate.parse_predicate(text, self.ENV)
            for name, text in TRACKS_PREDICATES
        }
        self.nested.setup()
        self.warm_up()

    def cycle(self) -> list[Op]:
        ops = []
        for part in self.parts:
            ops += self._batch_ops(part)
        return ops + self.nested.cycle()

    def setup_ok(self) -> bool:
        return super().setup_ok() and self.nested.setup_ok()

    def probes(self, tracer) -> None:
        self.nested.probes(tracer)

    def _batch_ops(self, part: Part) -> list[Op]:
        rel, env, n = part.rel, EvalEnv(self.ENV), part.points
        modes = (("strict", STRICT), ("approx", self.APPROX), ("relaxed", RELAXED))
        ops = []
        for qname, ast in self.asts.items():
            for mname, s in modes:
                ops.append(
                    Op(
                        f"select.{qname}.{mname}", "query", part.name, n,
                        lambda ast=ast, s=s: evaluation.select_st(rel, ast, env, s),
                        self._inclusion_check(qname) if mname == "relaxed" else _always,
                        {"mode": s.kind},
                    )
                )
        ops.append(
            Op("classify.de9im.relaxed", "classify", part.name, n,
               lambda: [trajq.relations.classify_de9im(t, R, RELAXED) for _, t in rel.rows],
               lambda out, cycle: self._de9im_check(rel, out, cycle), {"mode": "relaxed"})
        )
        ops.append(
            Op("classify.allen", "classify", part.name, n,
               lambda: [trajq.relations.classify_allen(t, I) for _, t in rel.rows],
               lambda out, _: out == [
                   allen_case_oracle((t.points[0].tau, t.points[-1].tau), I) for _, t in rel.rows
               ])
        )
        return ops

    @staticmethod
    def _inclusion_check(qname: str):
        # Strict points are a subset of approximated points, which lie on the
        # interpolated path, so EXISTS selections grow and FORALL selections
        # shrink from strict to approximated to relaxed.
        def check(relaxed, cycle) -> bool:
            strict = set(cycle[f"select.{qname}.strict"].tids())
            approx = set(cycle[f"select.{qname}.approx"].tids())
            relaxed = set(relaxed.tids())
            if qname.startswith("exists"):
                return strict <= approx <= relaxed
            return relaxed <= approx <= strict

        return check

    def _de9im_check(self, rel: TrajectoriesRelation, out, cycle) -> bool:
        # Off-border walks are generic. Under relaxed evaluation they get
        # exactly one of the five border-free labels (a crossing also touches
        # the border, so border labels may come along), and that label is
        # R031 exactly when the relaxed EXISTS-inside query left them out.
        entered = set(cycle["select.exists.R.relaxed"].tids())
        for (tid, _t), labels in zip(rel.rows, out):
            if not datagen.on_border(self.samples[tid]):
                generic = labels & GENERIC_FIVE
                if len(generic) != 1 or (De9imLabel.R031 in generic) == (tid in entered):
                    return False
        return len(out) == len(rel)


def _always(out, cycle) -> bool:
    return True


SPATIAL = (De9imLabel.R031, De9imLabel.R179, De9imLabel.R223, De9imLabel.R247, De9imLabel.R255)
TEMPORAL = (
    AllenLabel.PRECEDES,
    AllenLabel.OVERLAPS,
    AllenLabel.DURING,
    AllenLabel.PRECEDED_BY,
    AllenLabel.OVERLAPPED_BY,
    AllenLabel.CONTAINS,
)


class Nested(Workload):
    """Compiled NF² plans over short walks that miss R, cross it, or pass
    through it with segments only (``leap``, ``dash``), the case where
    relaxed plans must differ from strict ones; in four parts of the same
    shapes and lengths. It runs inside ``tracks``, whose set-up warms it
    up."""

    name = "nested"
    PARTS = 4
    MIN_N, MAX_N = 10, 60
    # The walks of every part, longest first: (shape, index into the
    # lengths log-spaced over MIN_N..MAX_N). Every part holds the same
    # shapes and lengths, so one plan costs about the same on every part.
    # The long walks are the ones on which relaxed plans join segments.
    WALKS = (("miss", 3), ("leap", 2), ("dash", 1), ("cross", 0))
    PROBE_WALKS = 8

    def setup(self) -> None:
        rng = random.Random(f"{self.seed}/nested")
        lengths = datagen.log_lengths(
            len(self.WALKS), self.MIN_N, self._count(self.MAX_N, 2 * self.MIN_N)
        )
        self.nrels = {}
        for k in range(self.PARTS):
            samples = {
                f"n{k * len(self.WALKS) + j:04d}": datagen.trajectory_samples(
                    rng, shape, lengths[at], 6
                )
                for j, (shape, at) in enumerate(self.WALKS)
            }
            part = self._write_and_load(samples, f"part{k}")
            self.nrels[part.name] = trajq.nf2.trajectories_to_nf2(part.rel)
        self.plans = []  # (name, mode, catalog predicate, strictness, plan)
        for label in SPATIAL:
            for s in (STRICT, RELAXED):
                self.plans.append(
                    (f"{label.value}.{s.kind}", s.kind, trajq.relations.de9im_predicate(label),
                     s, trajq.nf2.compile_spatial(label, R, s))
                )
        # Temporal plans carry no strictness; their catalog formulas agree
        # with them on the interpolated span, so they are checked relaxed.
        for label in TEMPORAL:
            self.plans.append(
                (f"{label.value}", "strict", trajq.relations.allen_predicate(label),
                 RELAXED, trajq.nf2.compile_temporal(label, I))
            )

    def cycle(self) -> list[Op]:
        ops = []
        for part in self.parts:
            nrel = self.nrels[part.name]
            for name, mode, ast, s, plan in self.plans:
                ops.append(
                    Op(
                        f"nf2.{name}", "nf2", part.name, part.points,
                        lambda plan=plan, nrel=nrel: trajq.nf2.execute(plan, nrel),
                        lambda out, _, part=part, name=name, ast=ast, s=s:
                        sorted(out.column("tid")) == self._want(part, name, ast, {"R": R, "I": I}, s),
                        {"mode": mode},
                    )
                )
        return ops

    def probes(self, tracer) -> None:
        """The two relaxed plans that join consecutive points into segments
        (R031, R223), one trajectory at a time, for the slope against n.
        The probe walks are extra walks that miss R, with lengths spread
        over MIN_N..MAX_N: on them no conjunct before the segment join
        short-circuits, so the join's cost is what shows."""
        plans = [
            plan for name, _, _, _, plan in self.plans if name in ("R031.relaxed", "R223.relaxed")
        ]
        rng = random.Random(self.seed + 1)
        walks = []
        for i, n in enumerate(datagen.log_lengths(self.PROBE_WALKS, self.MIN_N, self.MAX_N)):
            tid = f"p{i:04d}"
            t = trajq.model.build_trajectory(datagen.trajectory_samples(rng, "miss", n, 6))
            walks.append((tid, n, trajq.nf2.trajectories_to_nf2(TrajectoriesRelation(((tid, t),)))))
        for _ in range(3):
            for tid, n, single in walks:
                with tracer.span("probe", n=n, traj=tid):
                    for plan in plans:
                        trajq.nf2.execute(plan, single)


WORKLOADS = {w.name: w for w in (Fleet, Tracks)}
