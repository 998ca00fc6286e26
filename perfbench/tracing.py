"""Spans around calls into trajq's layers, recorded from outside the package.

``Tracer.instrument`` replaces, for the duration of a ``with`` block, the
module attributes through which one layer calls another (for example
``trajq.cli.select_st`` or ``trajq.evaluate.evaluate``, which ``select_st``
calls once per row) with wrappers that record a span: name, start, end,
parent span and the id of the benchmark operation it belongs to, plus a
few attributes read off the arguments and result. Spans stay in memory
until ``write`` dumps them as JSON lines. ``geometry`` runs only inside
``evaluate`` and ``model`` mostly inside ``ingest_csv``; their time is
charged to those callers, because no span can be put inside the package
from here.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import trajq.cli
import trajq.dataset
import trajq.model
import trajq.nf2
import trajq.predicate
import trajq.relations

# The package re-exports the function ``evaluate``, which shadows the
# submodule of the same name as an attribute of ``trajq``.
evaluation = importlib.import_module("trajq.evaluate")


def _eval_row(args, kwargs, result) -> dict:
    ast, t, _env, s = args
    return {"n": len(t), "mode": s.kind, "traj": id(t), "ast": id(ast)}


def _select(args, kwargs, result) -> dict:
    rel, _ast, _env, s = args
    return {
        "rows": len(rel),
        "kept": len(result),
        "points": sum(len(t) for _, t in rel.rows),
        "mode": s.kind,
    }


def _classify_de9im(args, kwargs, result) -> dict:
    t, _r, s = args[:3]
    return {"n": len(t), "mode": s.kind, "labels": len(result), "traj": id(t)}


def _dataset_io(d, path) -> dict:
    """Points moved and bytes of the points file plus its existing siblings."""
    path = Path(path)
    siblings = (path, path.with_name(path.stem + ".props.csv"),
                path.with_name(path.stem + ".pprops.csv"))
    return {
        "points": sum(len(t) for _, t in d.trajectories.rows),
        "bytes": sum(p.stat().st_size for p in siblings if p.exists()),
    }


def _ingest(args, kwargs, result) -> dict:
    return _dataset_io(result, args[0])


def _export(args, kwargs, result) -> dict:
    return _dataset_io(args[0], args[1])


def _build(args, kwargs, result) -> dict:
    return {"n": len(result)}


def _execute(args, kwargs, result) -> dict:
    return {"rows_in": len(args[1]), "rows_out": len(result)}


def _to_nf2(args, kwargs, result) -> dict:
    return {"rows": len(args[0])}


# (module, attribute, span name, attribute reader). A module appears once
# per name it looks up, because each caller binds its own reference.
PATCHES = (
    (trajq.cli, "ingest_csv", "dataset.ingest_csv", _ingest),
    (trajq.cli, "parse_predicate", "predicate.parse_predicate", None),
    (trajq.cli, "select_st", "evaluate.select_st", _select),
    (trajq.cli, "classify_de9im", "relations.classify_de9im", _classify_de9im),
    (trajq.cli, "classify_allen", "relations.classify_allen", None),
    (trajq.cli, "compile_spatial", "nf2.compile", None),
    (trajq.cli, "compile_temporal", "nf2.compile", None),
    (trajq.cli, "trajectories_to_nf2", "nf2.trajectories_to_nf2", _to_nf2),
    (trajq.cli, "execute", "nf2.execute", _execute),
    (trajq.dataset, "ingest_csv", "dataset.ingest_csv", _ingest),
    (trajq.dataset, "export_csv", "dataset.export_csv", _export),
    (trajq.model, "build_trajectory", "model.build_trajectory", _build),
    (trajq.predicate, "parse_predicate", "predicate.parse_predicate", None),
    (evaluation, "select_st", "evaluate.select_st", _select),
    (evaluation, "evaluate", "evaluate.row", _eval_row),
    (trajq.relations, "evaluate", "evaluate.row", _eval_row),
    (trajq.relations, "parse_predicate", "predicate.parse_predicate", None),
    (trajq.relations, "classify_de9im", "relations.classify_de9im", _classify_de9im),
    (trajq.relations, "classify_allen", "relations.classify_allen", None),
    (trajq.nf2, "compile_spatial", "nf2.compile", None),
    (trajq.nf2, "compile_temporal", "nf2.compile", None),
    (trajq.nf2, "trajectories_to_nf2", "nf2.trajectories_to_nf2", _to_nf2),
    (trajq.nf2, "execute", "nf2.execute", _execute),
)


class Tracer:
    """In-memory span recorder. Spans are lists:
    [op_id, span_id, parent_id, name, start_ns, end_ns, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: str | None = None
        self.tags: dict = {}
        self.enabled = True

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the body; yields its record."""
        parent = self._stack[-1] if self._stack else None
        rec = [self.op_id, len(self.spans), parent, name, 0, 0, {**self.tags, **attrs}]
        self.spans.append(rec)
        self._stack.append(rec[1])
        rec[4] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn, reader):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if reader is not None:
                rec[6].update(reader(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def instrument(self):
        """Route the patched layer entry points through span wrappers."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
        try:
            for mod, attr, name, reader in PATCHES:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr), reader))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path: Path) -> None:
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                row = dict(zip(keys, rec[:6]))
                row.update({k: v for k, v in rec[6].items() if k not in ("traj", "ast")})
                fh.write(json.dumps(row) + "\n")


# --- per-layer metrics ----------------------------------------------------

# name -> unit; the order is the order of the report.
LAYER_METRICS = {
    "cli.self_ms_p50": "ms",
    "dataset.ingest_csv.us_per_point": "us/point",
    "dataset.export_csv.us_per_point": "us/point",
    "dataset.bytes_read": "bytes",
    "dataset.bytes_written": "bytes",
    "model.build_trajectory.us_per_point": "us/point",
    "predicate.parse_predicate.us_p50": "us",
    "evaluate.strict.us_per_traj": "us/traj",
    "evaluate.approx.us_per_traj": "us/traj",
    "evaluate.relaxed.us_per_traj": "us/traj",
    "evaluate.relaxed.slope_n": "exponent",
    "evaluate.approx.slope_n": "exponent",
    "evaluate.rows_examined": "count",
    "evaluate.selectivity": "ratio",
    "relations.classify_de9im.strict.us_per_traj": "us/traj",
    "relations.classify_de9im.relaxed.us_per_traj": "us/traj",
    "relations.classify_de9im.relaxed.slope_n": "exponent",
    "relations.classify_allen.us_per_traj": "us/traj",
    "relations.labels_per_traj": "count",
    "nf2.compile.us_p50": "us",
    "nf2.trajectories_to_nf2.ms": "ms",
    "nf2.execute.strict.ms_p50": "ms",
    "nf2.execute.relaxed.ms_p50": "ms",
    "nf2.execute.relaxed.slope_n": "exponent",
    "nf2.rows_out": "count",
    "dataset.self_ms_per_op": "ms",
    "predicate.self_ms_per_op": "ms",
    "evaluate.self_ms_per_op": "ms",
    "relations.self_ms_per_op": "ms",
    "nf2.self_ms_per_op": "ms",
    "trace.overhead_frac": "ratio",
}

_MODES = {"strict": "strict", "approximated": "approx", "relaxed": "relaxed"}


def _dur(rec) -> int:
    return rec[5] - rec[4]


def _median(values):
    return statistics.median(values) if values else 0.0


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    if len({n for n, _ in points}) < 2:
        return 0.0
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    return statistics.linear_regression(xs, ys).slope


def _traj_slope(rows) -> float:
    """Slope of one trajectory's time against its length n.

    ``rows`` holds (n, trajectory key, call key, duration). Repeats of one
    call on one trajectory count by their median; the calls of the mix
    (say, several predicates) then add up to that trajectory's time.
    """
    durations: dict = {}
    for n, traj, call, dur in rows:
        durations.setdefault((traj, call), (n, []))[1].append(dur)
    totals: dict = {}
    for (traj, _call), (n, durs) in durations.items():
        totals[traj] = (n, totals.get(traj, (n, 0.0))[1] + statistics.median(durs))
    return _slope(list(totals.values()))


def layer_metrics(
    spans: list[list], cycles: int, untraced_ns: int, traced_ns: int
) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced run.

    Rates use every span, set-up included; per-cycle counts and self times
    use the spans of the traced operations (op ids other than "setup" and
    "probe"). A metric whose layer the workload never reaches reads 0.
    """
    by_name: dict[str, list] = {}
    children_ns: dict[int, int] = {}
    for rec in spans:
        by_name.setdefault(rec[3], []).append(rec)
        if rec[2] is not None:
            children_ns[rec[2]] = children_ns.get(rec[2], 0) + _dur(rec)
    in_ops = [rec for rec in spans if rec[0] not in ("setup", "probe")]
    ops = [rec for rec in in_ops if rec[3] == "op"]
    out: dict[str, float] = {}

    def self_ns(rec) -> int:
        return _dur(rec) - children_ns.get(rec[1], 0)

    def per_unit(recs: list, scale: float, key: str | None = None) -> float:
        """Summed duration per unit of ``key`` (per call without a key)."""
        total = sum(rec[6][key] for rec in recs) if key else len(recs)
        return sum(map(_dur, recs)) / total * scale if total else 0.0

    def p50(name: str, scale: float, pick=lambda rec: True) -> float:
        return _median([_dur(rec) * scale for rec in by_name.get(name, []) if pick(rec)])

    out["cli.self_ms_p50"] = _median(
        [self_ns(rec) / 1e6 for rec in ops if rec[6].get("cli")]
    )
    for call, moved in (("ingest_csv", "read"), ("export_csv", "written")):
        recs = by_name.get(f"dataset.{call}", [])
        out[f"dataset.{call}.us_per_point"] = per_unit(recs, 1e-3, "points")
        out[f"dataset.bytes_{moved}"] = _median([rec[6]["bytes"] for rec in recs])
    out["model.build_trajectory.us_per_point"] = per_unit(
        by_name.get("model.build_trajectory", []), 1e-3, "n"
    )
    out["predicate.parse_predicate.us_p50"] = p50("predicate.parse_predicate", 1e-3)

    selects = by_name.get("evaluate.select_st", [])
    select_ids = {rec[1] for rec in selects}
    for kind, mode in _MODES.items():
        recs = [rec for rec in selects if rec[6]["mode"] == kind]
        out[f"evaluate.{mode}.us_per_traj"] = per_unit(recs, 1e-3, "rows")
    for kind in ("relaxed", "approximated"):
        out[f"evaluate.{_MODES[kind]}.slope_n"] = _traj_slope(
            (r[6]["n"], r[6]["traj"], r[6]["ast"], _dur(r))
            for r in by_name.get("evaluate.row", [])
            if r[2] in select_ids and r[6]["mode"] == kind
        )
    op_selects = [rec for rec in in_ops if rec[3] == "evaluate.select_st"]
    examined = sum(rec[6]["rows"] for rec in op_selects)
    out["evaluate.rows_examined"] = examined / cycles if cycles else 0.0
    out["evaluate.selectivity"] = (
        sum(rec[6]["kept"] for rec in op_selects) / examined if examined else 0.0
    )

    de9im = by_name.get("relations.classify_de9im", [])
    for mode in ("strict", "relaxed"):
        recs = [rec for rec in de9im if rec[6]["mode"] == mode]
        out[f"relations.classify_de9im.{mode}.us_per_traj"] = per_unit(recs, 1e-3)
    out["relations.classify_de9im.relaxed.slope_n"] = _traj_slope(
        (r[6]["n"], r[6]["traj"], None, _dur(r)) for r in de9im if r[6]["mode"] == "relaxed"
    )
    out["relations.classify_allen.us_per_traj"] = per_unit(
        by_name.get("relations.classify_allen", []), 1e-3
    )
    out["relations.labels_per_traj"] = (
        sum(rec[6]["labels"] for rec in de9im) / len(de9im) if de9im else 0.0
    )

    out["nf2.compile.us_p50"] = p50("nf2.compile", 1e-3)
    out["nf2.trajectories_to_nf2.ms"] = p50("nf2.trajectories_to_nf2", 1e-6)
    for mode in ("strict", "relaxed"):
        # Operations tag executions with their plan's mode; temporal plans,
        # which have none, count as strict.
        out[f"nf2.execute.{mode}.ms_p50"] = p50(
            "nf2.execute", 1e-6, lambda rec, mode=mode: rec[6].get("mode") == mode
        )
    out["nf2.execute.relaxed.slope_n"] = _traj_slope(
        (r[6]["n"], r[6]["traj"], None, _dur(r)) for r in by_name.get("probe", [])
    )
    rows_out = sum(rec[6]["rows_out"] for rec in in_ops if rec[3] == "nf2.execute")
    out["nf2.rows_out"] = rows_out / cycles if cycles else 0.0

    self_by_layer: dict[str, int] = {}
    for rec in in_ops:
        layer = rec[3].split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0) + self_ns(rec)
    for layer in ("dataset", "predicate", "evaluate", "relations", "nf2"):
        out[f"{layer}.self_ms_per_op"] = (
            self_by_layer.get(layer, 0) / len(ops) / 1e6 if ops else 0.0
        )
    out["trace.overhead_frac"] = traced_ns / untraced_ns - 1 if untraced_ns else 0.0
    return {name: out[name] for name in LAYER_METRICS}
