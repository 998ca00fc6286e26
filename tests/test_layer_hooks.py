"""The module attributes through which one layer calls another.

``perfbench/tracing.py`` times evaluation per row by replacing
``trajq.evaluate.evaluate`` and ``trajq.relations.evaluate`` with wrappers.
Its ``evaluate.*`` metrics read 0 if ``select_st`` or ``classify_de9im``
stop looking those names up at call time, so these tests pin the lookups.
"""

import importlib

import trajq.relations
from trajq.evaluate import RELAXED, STRICT, EvalEnv, approximated, select_st
from trajq.geometry import Region
from trajq.model import TrajectoriesRelation, build_trajectory
from trajq.predicate import parse_predicate
from trajq.relations import De9imLabel, classify_de9im

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


def test_classify_de9im_goes_through_relations_evaluate(monkeypatch):
    calls = _counting(monkeypatch, trajq.relations)
    t = REL.get("b")
    for mode in (STRICT, RELAXED):
        calls.clear()
        classify_de9im(t, R, mode)
        assert len(calls) >= len(De9imLabel)  # every catalog formula at least once
