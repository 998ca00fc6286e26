"""The module attributes through which one layer calls another.

``perfbench/tracing.py`` times evaluation per row by replacing
``trajq.evaluate.evaluate`` with a wrapper, and classification per
trajectory by replacing ``trajq.cli.classify_de9im``. Its ``evaluate.*``
and ``relations.*`` metrics read 0 if ``select_st`` or the CLI stop looking
those names up at call time, and it fails to start if a name it wraps is
gone, so these tests pin the lookups and every name it wraps.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import trajq.cli
import trajq.relations
from trajq.evaluate import RELAXED, STRICT, EvalEnv, approximated, select_st
from trajq.geometry import Region
from trajq.model import TrajectoriesRelation, build_trajectory
from trajq.predicate import parse_predicate

# ``trajq.evaluate`` as an attribute is the re-exported function.
evaluation = importlib.import_module("trajq.evaluate")

REL = TrajectoriesRelation.from_pairs(
    [
        ("a", build_trajectory([(0, 0, 0), (5, 5, 1)])),
        ("b", build_trajectory([(1, 1, 0), (2, 2, 1), (3, 1, 2)])),
        ("c", build_trajectory([(9, 9, 0)])),
    ]
)
R = Region(0.5, 0.5, 4, 4)


def _counting(monkeypatch, module):
    calls = []
    real = module.evaluate

    def counted(ast, t, env, s):
        calls.append(t)
        return real(ast, t, env, s)

    monkeypatch.setattr(module, "evaluate", counted)
    return calls


def test_select_st_calls_module_evaluate_once_per_row(monkeypatch):
    calls = _counting(monkeypatch, evaluation)
    ast = parse_predicate("EXISTS p IN T: p INSIDE R")
    for mode in (STRICT, RELAXED, approximated("uniform", 2)):
        calls.clear()
        select_st(REL, ast, EvalEnv({"R": R}), mode)
        assert calls == [t for _, t in REL.rows]


def test_relations_keeps_the_names_tracing_wraps():
    for name in ("evaluate", "parse_predicate", "classify_de9im", "classify_allen"):
        assert callable(getattr(trajq.relations, name)), name


def test_cli_looks_up_classify_de9im_once_per_row(monkeypatch, tmp_path):
    calls = []
    real = trajq.cli.classify_de9im

    def counted(t, *args, **kwargs):
        calls.append(t)
        return real(t, *args, **kwargs)

    monkeypatch.setattr(trajq.cli, "classify_de9im", counted)
    data = tmp_path / "rel.csv"
    rows = [f"{tid},{p.order},{p.x},{p.y},{p.tau}" for tid, t in REL.rows for p in t.points]
    data.write_text("\n".join(["tid,order,x,y,tau", *rows]) + "\n")
    for mode in ("strict", "relaxed"):
        calls.clear()
        argv = ["classify", "de9im", str(data), "--region", "R=0.5,0.5,4,4", "--strictness", mode]
        assert trajq.cli.main(argv) == 0
        assert calls == [t for _, t in REL.rows]


def test_every_name_tracing_wraps_exists(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{name}"
        for module, name, *_ in tracing.PATCHES
        if not callable(getattr(module, name, None))
    ]
    assert not missing
