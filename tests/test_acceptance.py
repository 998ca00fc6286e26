"""End-to-end checks of the advertised behavior, one verdict line each.

Every test here prints a single pass or fail line straight to the
terminal, bypassing capture, so a full run ends with a readable
scorecard. The checks are intentionally heavyweight (large random
sweeps, exact counts, byte comparisons); the fine-grained unit tests
live in the per-module files.
"""

import io
import random
from pathlib import Path

import pytest

from helpers import (
    DE9IM_WITNESSES,
    ORACLE_PREDICATES,
    WITNESS_REGION,
    generic_instance,
    off_boundary_trajectory,
    random_interval,
    random_region,
    random_predicate,
    witness_path,
)
from trajq.dataset import export_csv, ingest_csv
from trajq.errors import PredicateSyntaxError
from trajq.evaluate import (
    RELAXED,
    STRICT,
    EvalEnv,
    eval_relaxed,
    eval_strict,
    select_st,
)
from trajq.geometry import (
    FULL_SET,
    Interval,
    PointClass,
    Region,
    SegmentParams,
    TimeClass,
)
from trajq.model import (
    Segment,
    TrajectoriesRelation,
    TrajectoryPoint,
    build_trajectory,
    segment_property_view,
)
from trajq.nf2 import compile_spatial, compile_temporal, execute, trajectories_to_nf2
from trajq.predicate import format_predicate, parse_predicate
from trajq.relations import (
    AllenLabel,
    De9imLabel,
    allen_predicate,
    classify_allen,
    classify_de9im,
    de9im_catalog,
    de9im_predicate,
)
from trajq.testing import ResampleSpec, allen_case_oracle, relaxed_oracle, write_counterexample

DATA = Path(__file__).parent / "data"

CROSSING = build_trajectory(
    [(0.5, 1.5, 100), (2.2, 0.9, 110), (3.5, 0.35, 120), (5.4, 0.25, 130)]
)
CROSSING_REGION = Region(2.65, 0.6, 4.5, 1.75)
GENERIC_FIVE = (
    De9imLabel.R031,
    De9imLabel.R179,
    De9imLabel.R223,
    De9imLabel.R247,
    De9imLabel.R255,
)


@pytest.fixture
def report(capsys):
    def _report(ok: bool, message: str) -> None:
        with capsys.disabled():
            print(("pass: " if ok else "FAIL: ") + message)
        assert ok, message

    return _report


def test_crossing_region_verdicts_flip_with_interpolation(report):
    env = EvalEnv({"R": CROSSING_REGION})
    exists_inside = parse_predicate("EXISTS p IN T: p INSIDE R")
    forall_outside = parse_predicate("FORALL p IN T: p OUTSIDE R")
    got = (
        eval_strict(exists_inside, CROSSING, env),
        eval_relaxed(exists_inside, CROSSING, env),
        eval_strict(forall_outside, CROSSING, env),
        eval_relaxed(forall_outside, CROSSING, env),
    )
    report(
        got == (False, True, True, False),
        "crossing fixture: recorded points miss the region, the interpolated "
        f"path hits it, and the dual universal flips the other way {got}",
    )


def test_interval_classifier_agrees_with_case_oracle(report):
    rng = random.Random(1201)
    trials, bad = 100_000, 0
    for _ in range(trials):
        f = rng.randrange(0, 60)
        l = f + rng.randrange(1, 40)
        s = rng.randrange(0, 60)
        e = s + rng.randrange(1, 40)
        t = build_trajectory([(0.0, 0.0, float(f)), (1.0, 0.0, float(l))])
        i = Interval(float(s), float(e))
        label = classify_allen(t, i)
        if label not in AllenLabel or label != allen_case_oracle((f, l), i):
            bad += 1
    report(
        bad == 0,
        f"interval classifier returned the oracle's single label on "
        f"{trials - bad}/{trials} integer-grid span/interval pairs",
    )


def test_every_area_witness_matches_exactly_its_label(report):
    assert len(de9im_catalog()) == 19
    for _, text, _ in de9im_catalog():
        parse_predicate(text)
    mismatches = [
        label.value
        for label, coords in DE9IM_WITNESSES.items()
        if classify_de9im(witness_path(coords), WITNESS_REGION, STRICT) != {label}
    ]
    report(
        not mismatches,
        "all 19 area relation witnesses classify as exactly their own label "
        f"(orientation normalized, recorded points){mismatches or ''}",
    )


def test_generic_paths_get_exactly_one_of_five_labels(report):
    rng = random.Random(1401)
    trials, bad = 10_000, 0
    for _ in range(trials):
        r = random_region(rng)
        t = off_boundary_trajectory(rng, r, 3, 20)
        if len(classify_de9im(t, r, STRICT, labels=GENERIC_FIVE)) != 1:
            bad += 1
    report(
        bad == 0,
        f"exactly one of the five generic area labels held on "
        f"{trials - bad}/{trials} random paths avoiding the border",
    )


def test_algebra_plans_select_same_ids_as_direct_evaluation(report):
    rng = random.Random(1501)
    spatial = [
        (label, mode)
        for label in GENERIC_FIVE
        for mode in (
            (STRICT, RELAXED)
            if label in (De9imLabel.R031, De9imLabel.R223)
            else (STRICT,)
        )
    ]
    temporal = (
        (AllenLabel.PRECEDES, STRICT),
        (AllenLabel.OVERLAPS, RELAXED),
        (AllenLabel.DURING, STRICT),
    )
    relations, bad = 1000, 0
    for _ in range(relations):
        r = random_region(rng)
        i = random_interval(rng)
        env = EvalEnv({"R": r, "I": i})
        rel = TrajectoriesRelation.from_pairs(
            (f"t{j}", off_boundary_trajectory(rng, r, 1, 8))
            for j in range(rng.randint(1, 4))
        )
        nrel = trajectories_to_nf2(rel)
        for label, mode in spatial:
            got = set(execute(compile_spatial(label, r, mode), nrel).column("tid"))
            want = set(select_st(rel, de9im_predicate(label), env, mode).tids())
            bad += got != want
        for label, mode in temporal:
            got = set(execute(compile_temporal(label, i), nrel).column("tid"))
            want = set(select_st(rel, allen_predicate(label), env, mode).tids())
            bad += got != want
    report(
        bad == 0,
        f"compiled algebra plans and the direct evaluator chose identical id "
        f"sets for {len(spatial) + len(temporal)} relation/mode pairs on "
        f"{relations} random relations ({bad} mismatches)",
    )


def test_exact_interpolated_evaluation_matches_dense_sampling(report):
    rng = random.Random(1601)
    spec = ResampleSpec(1000)
    asts = [parse_predicate(text) for text in ORACLE_PREDICATES]
    trials, bad = 10_000, io.StringIO()
    disagreements = 0
    for n in range(trials):
        t, r, i = generic_instance(rng, spec.k)
        env = EvalEnv({"R": r, "I": i})
        ast = asts[n % len(asts)]
        exact = eval_relaxed(ast, t, env)
        sampled = relaxed_oracle(ast, t, env, spec)
        if exact != sampled:
            disagreements += 1
            write_counterexample(bad, ast, t, env, sampled, exact)

    partitions, broken = 100_000, 0
    for _ in range(partitions):
        a = TrajectoryPoint(0, rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 30))
        b = TrajectoryPoint(
            1, rng.uniform(-3, 3), rng.uniform(-3, 3), a.tau + rng.uniform(0.5, 30)
        )
        seg = SegmentParams(Segment(a, b))
        r = random_region(rng)
        i = random_interval(rng)
        for sets in (
            [seg.region(r, c) for c in PointClass],
            [seg.interval(i, c) for c in TimeClass],
        ):
            union = sets[0]
            for other in sets[1:]:
                if not union.intersect(other).is_empty:
                    broken += 1
                union = union.union(other)
            if union != FULL_SET:
                broken += 1
    report(
        disagreements == 0 and broken == 0,
        f"exact interpolated evaluation matched the 1000-point sampling "
        f"oracle on {trials - disagreements}/{trials} generic instances and "
        f"the class parameter sets partition [0,1] on {partitions} random "
        f"segments" + ("\n" + bad.getvalue() if disagreements else ""),
    )


def test_dataset_files_roundtrip_and_segment_view(report, tmp_path):
    ok = True
    for stem in ("crossing", "goose"):
        d = ingest_csv(DATA / f"{stem}.csv")
        export_csv(d, tmp_path / f"{stem}.csv")
        for suffix in (".csv", ".props.csv", ".pprops.csv"):
            src = DATA / f"{stem}{suffix}"
            if src.exists():
                ok &= (tmp_path / f"{stem}{suffix}").read_bytes() == src.read_bytes()
    table = ingest_csv(DATA / "goose.csv")
    view = segment_property_view(table.properties, "T0", "movement_type")
    ok &= view == [(0, 1, "walking"), (2, 4, "flying")]
    report(
        ok,
        "trajectory, property and point-property files roundtrip byte for "
        f"byte and the movement column collapses to {view}",
    )


def test_combined_selection_keeps_b_and_drops_c(report):
    rel = ingest_csv(DATA / "selection.csv").trajectories
    env = EvalEnv({"R": Region(1.5, 0.5, 4.5, 1.5), "I": Interval(100, 140)})
    ast = parse_predicate("EXISTS p IN T: p WITHIN R AND p WITHIN I")
    chosen = set(select_st(rel, ast, env, RELAXED).tids())
    report(
        "Tb" in chosen and "Tc" not in chosen,
        "combined region-and-interval selection keeps Tb and drops Tc under "
        f"interpolated evaluation (selected: {sorted(chosen)})",
    )


def test_parser_corpus_roundtrip_and_fuzz_robustness(report):
    texts = []
    for name in ("de9im_formulas.txt", "allen_formulas.txt"):
        for line in (DATA / name).read_text().splitlines():
            texts.append(line.split("\t", 1)[1])
    texts.extend((DATA / "inline_predicates.txt").read_text().splitlines())
    assert len(texts) == 42
    corpus_ok = all(format_predicate(parse_predicate(t)) == t for t in texts)

    rng = random.Random(1901)
    roundtrips, rt_bad = 10_000, 0
    for _ in range(roundtrips):
        ast = random_predicate(rng)
        if parse_predicate(format_predicate(ast)) != ast:
            rt_bad += 1

    fuzzes, crashes = 100_000, 0
    for _ in range(fuzzes):
        raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
        text = raw.decode("latin-1")
        try:
            parse_predicate(text)
        except PredicateSyntaxError as exc:
            if not 0 <= exc.position <= len(text):
                crashes += 1
        except Exception:
            crashes += 1
    report(
        corpus_ok and rt_bad == 0 and crashes == 0,
        f"42 catalog formulas reprint identically, {roundtrips - rt_bad}/"
        f"{roundtrips} random syntax trees roundtrip, and {fuzzes} fuzz "
        f"inputs raised only positioned syntax errors ({crashes} crashes)",
    )
