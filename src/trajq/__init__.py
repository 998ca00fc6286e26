"""Trajectory query engine: spatio-temporal predicates over sampled paths.

The package models trajectories as ordered, timestamped point sequences,
evaluates quantified region/interval predicates over them under three
strictness modes (recorded points only, the exact interpolated continuum,
or strategy-generated extra samples), classifies trajectories against
rectangles and time intervals into topological and interval-relation
labels, and cross-checks selections through a small nested-relational
algebra engine. CSV ingestion and a command line front end live in
``trajq.dataset`` and ``trajq.cli``.
"""

from .dataset import Dataset, export_csv, ingest_csv, load_trajectories
from .errors import TrajqError
from .evaluate import (
    DEFAULT_UNIFORM_K,
    RELAXED,
    STRICT,
    ApproxStrategy,
    EvalEnv,
    RegionSignature,
    Strictness,
    approximated,
    eval_approximated,
    eval_relaxed,
    eval_strict,
    evaluate,
    register_strategy,
    select_st,
    uniform_strategy,
)
from .geometry import Interval, ParamInterval, ParamSet, Region
from .model import (
    PropertyRelation,
    Segment,
    TrajectoriesRelation,
    Trajectory,
    TrajectoryPoint,
    build_trajectory,
    segment_property_view,
)
from .predicate import Predicate, format_predicate, parse_predicate, validate
from .relations import (
    AllenLabel,
    De9imLabel,
    allen_catalog,
    allen_predicate,
    classify_allen,
    classify_de9im,
    de9im_catalog,
    de9im_predicate,
    de9im_signature,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxStrategy",
    "AllenLabel",
    "DEFAULT_UNIFORM_K",
    "Dataset",
    "De9imLabel",
    "EvalEnv",
    "Interval",
    "ParamInterval",
    "ParamSet",
    "Predicate",
    "PropertyRelation",
    "RELAXED",
    "Region",
    "RegionSignature",
    "STRICT",
    "Segment",
    "Strictness",
    "TrajectoriesRelation",
    "Trajectory",
    "TrajectoryPoint",
    "TrajqError",
    "allen_catalog",
    "allen_predicate",
    "approximated",
    "build_trajectory",
    "classify_allen",
    "classify_de9im",
    "de9im_catalog",
    "de9im_predicate",
    "de9im_signature",
    "eval_approximated",
    "eval_relaxed",
    "eval_strict",
    "evaluate",
    "export_csv",
    "format_predicate",
    "ingest_csv",
    "load_trajectories",
    "parse_predicate",
    "register_strategy",
    "segment_property_view",
    "select_st",
    "uniform_strategy",
    "validate",
]
