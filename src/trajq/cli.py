"""Command-line front end.

Subcommands:

* ``validate <data.csv>`` loads a dataset, reporting the first invariant
  violation or a one-line summary;
* ``query <data.csv> --predicate TEXT`` evaluates a predicate and prints
  the matching tids one per line, in relation order;
* ``classify de9im <data.csv> --region ... [--why]`` prints per trajectory
  the matching area-relation labels, tab separated from the tid, and with
  ``--why`` the class signature they were looked up by;
* ``classify allen <data.csv> --interval ...`` prints the interval
  relation of each trajectory's time span;
* ``explain --relation NAME ...`` prints the algebra expression a relation
  label compiles to;
* ``exec-nf2 <data.csv> --relation NAME ...`` answers like query but
  through the compiled algebra expression.

Every command that reads data loads it with ``load_trajectories``: it
checks the points file and its property siblings as ``ingest_csv`` does,
with the same errors, but builds only the trajectories, never a property
value. So ``validate`` rejects exactly what ``ingest_csv`` rejects, and
every command rejects the same files with the same error.

Regions are given as ``--region NAME=x_min,y_min,x_max,y_max`` and
intervals as ``--interval NAME=start,end``; both flags repeat. Strictness
is ``strict``, ``relaxed``, or ``approx:<strategy>[:k]``. Exit codes:
0 on success, 1 when data or a predicate fails to validate or a data file
cannot be read, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence, Union

# No command calls ingest_csv; the name stays bound here because
# perfbench/tracing.py wraps trajq.cli.ingest_csv and fails to start
# without it.
from .dataset import ingest_csv, load_trajectories  # noqa: F401
from .errors import InvalidGeometryError, TrajqError, UnsupportedStrictnessError
from .evaluate import STRICT, EvalEnv, RELAXED, Strictness, approximated, select_st
from .geometry import Interval, Region
from .nf2 import (
    compile_spatial,
    compile_temporal,
    execute,
    render,
    trajectories_to_nf2,
)
from .predicate import parse_predicate
from .relations import (
    AllenLabel,
    De9imLabel,
    classify_allen,
    classify_de9im,
    de9im_labels,
    de9im_signature,
)

_TEMPORAL_ALIASES = {
    "precedes": AllenLabel.PRECEDES,
    "overlaps-with": AllenLabel.OVERLAPS,
    "is-during": AllenLabel.DURING,
    "preceded-by": AllenLabel.PRECEDED_BY,
    "overlapped-by": AllenLabel.OVERLAPPED_BY,
    "contains": AllenLabel.CONTAINS,
}


def _split_named(text: str, flag: str, arity: int) -> tuple[str, list[float]]:
    name, sep, rest = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"{flag} takes NAME={','.join(['N'] * arity)}, got {text!r}"
        )
    parts = rest.split(",")
    if len(parts) != arity:
        raise argparse.ArgumentTypeError(
            f"{flag} needs {arity} comma-separated numbers, got {len(parts)}"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric bound in {text!r}") from None
    return name, values


def _bounded(kind: type, values: list[float]):
    """kind(*values), with a bounds error as an argparse error of its message."""
    try:
        return kind(*values)
    except InvalidGeometryError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _region_arg(text: str) -> tuple[str, Region]:
    name, v = _split_named(text, "--region", 4)
    return name, _bounded(Region, v)


def _interval_arg(text: str) -> tuple[str, Interval]:
    name, v = _split_named(text, "--interval", 2)
    return name, _bounded(Interval, v)


def _strictness_arg(text: str) -> Strictness:
    if text == "strict":
        return STRICT
    if text == "relaxed":
        return RELAXED
    if text.startswith("approx:"):
        parts = text.split(":")
        if len(parts) == 2 and parts[1]:
            return approximated(parts[1])
        if len(parts) == 3 and parts[1]:
            try:
                k = int(parts[2])
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"strategy parameter must be an integer, got {parts[2]!r}"
                ) from None
            if k < 0:
                raise argparse.ArgumentTypeError("strategy parameter must be >= 0")
            return approximated(parts[1], k)
    raise argparse.ArgumentTypeError(
        f"strictness is strict, relaxed, or approx:<strategy>[:k], got {text!r}"
    )


def _add_strictness(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strictness",
        type=_strictness_arg,
        default=STRICT,
        metavar="MODE",
        help="strict (default), relaxed, or approx:<strategy>[:k]",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged (each run gets a fresh namespace and fresh lists for the
    repeatable flags), so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="trajq",
        description="Query and classify trajectories against regions and intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a dataset and check its invariants")
    p.add_argument("data", help="points CSV (tid,order,x,y,tau)")
    p.set_defaults(func=_cmd_validate, _parser=p)

    p = sub.add_parser("query", help="evaluate a predicate, print matching tids")
    p.add_argument("data", help="points CSV (tid,order,x,y,tau)")
    p.add_argument("--predicate", required=True, help="predicate text")
    p.add_argument(
        "--region",
        action="append",
        default=[],
        type=_region_arg,
        metavar="NAME=XMIN,YMIN,XMAX,YMAX",
    )
    p.add_argument(
        "--interval",
        action="append",
        default=[],
        type=_interval_arg,
        metavar="NAME=START,END",
    )
    _add_strictness(p)
    p.set_defaults(func=_cmd_query, _parser=p)

    p = sub.add_parser("classify", help="label trajectories against a region or interval")
    csub = p.add_subparsers(dest="scheme", required=True)

    c = csub.add_parser("de9im", help="area relation labels per trajectory")
    c.add_argument("data", help="points CSV (tid,order,x,y,tau)")
    c.add_argument(
        "--region", required=True, type=_region_arg, metavar="NAME=XMIN,YMIN,XMAX,YMAX"
    )
    _add_strictness(c)
    c.add_argument(
        "--why", action="store_true", help="append the class signature behind the labels"
    )
    c.set_defaults(func=_cmd_classify_de9im, _parser=c)

    c = csub.add_parser("allen", help="interval relation of each time span")
    c.add_argument("data", help="points CSV (tid,order,x,y,tau)")
    c.add_argument(
        "--interval", required=True, type=_interval_arg, metavar="NAME=START,END"
    )
    c.set_defaults(func=_cmd_classify_allen, _parser=c)

    p = sub.add_parser(
        "explain", help="print the algebra expression a relation compiles to"
    )
    p.add_argument("--relation", required=True, help="R031..R503 or precedes, is-during, ...")
    p.add_argument("--region", type=_region_arg, metavar="NAME=XMIN,YMIN,XMAX,YMAX")
    p.add_argument("--interval", type=_interval_arg, metavar="NAME=START,END")
    _add_strictness(p)
    p.set_defaults(func=_cmd_explain, _parser=p)

    p = sub.add_parser(
        "exec-nf2", help="answer a relation query through the compiled algebra"
    )
    p.add_argument("data", help="points CSV (tid,order,x,y,tau)")
    p.add_argument("--relation", required=True, help="R031..R503 or precedes, is-during, ...")
    p.add_argument("--region", type=_region_arg, metavar="NAME=XMIN,YMIN,XMAX,YMAX")
    p.add_argument("--interval", type=_interval_arg, metavar="NAME=START,END")
    _add_strictness(p)
    p.set_defaults(func=_cmd_exec_nf2, _parser=p)

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    trajectories = load_trajectories(args.data)
    points = sum(len(t) for _, t in trajectories)
    print(f"OK: {len(trajectories)} trajectories, {points} points")
    return 0


def _build_env(args: argparse.Namespace) -> dict[str, Union[Region, Interval]]:
    env: dict[str, Union[Region, Interval]] = {}
    for name, value in args.region + args.interval:
        if name in env:
            args._parser.error(f"name {name!r} bound more than once")
        env[name] = value
    return env


def _cmd_query(args: argparse.Namespace) -> int:
    trajectories = load_trajectories(args.data)
    env = _build_env(args)
    ast = parse_predicate(args.predicate, env)
    selected = select_st(trajectories, ast, EvalEnv(env), args.strictness)
    for tid in selected.tids():
        print(tid)
    return 0


def _print_lines(lines: list[str]) -> int:
    """Print lines built in full first, so a failing row prints nothing."""
    for line in lines:
        print(line)
    return 0


def _cmd_classify_de9im(args: argparse.Namespace) -> int:
    _, region = args.region

    def labels_text(labels) -> str:
        return ",".join(sorted(label.value for label in labels))

    def line(tid, t) -> str:
        if not args.why:
            return tid + "\t" + labels_text(classify_de9im(t, region, args.strictness))
        # The labels are looked up by the signature printed, computed once.
        sig = de9im_signature(t, region, args.strictness)
        return f"{tid}\t{labels_text(de9im_labels(t, region, args.strictness, sig))}\t{sig}"

    return _print_lines([line(tid, t) for tid, t in load_trajectories(args.data)])


def _cmd_classify_allen(args: argparse.Namespace) -> int:
    _, interval = args.interval
    rows = load_trajectories(args.data)
    return _print_lines([tid + "\t" + classify_allen(t, interval).value for tid, t in rows])


def _resolve_relation(args: argparse.Namespace):
    """The label named by --relation, or a usage error."""
    name = args.relation
    try:
        return De9imLabel(name)
    except ValueError:
        pass
    label = _TEMPORAL_ALIASES.get(name)
    if label is None:
        known = ", ".join(sorted(_TEMPORAL_ALIASES))
        args._parser.error(
            f"unknown relation {name!r}; use an Rnnn label or one of: {known}"
        )
    return label


def _compile_relation(args: argparse.Namespace):
    label = _resolve_relation(args)
    if isinstance(label, De9imLabel):
        if args.region is None:
            args._parser.error(f"relation {label.value} needs --region")
        try:
            return compile_spatial(label, args.region[1], args.strictness)
        except UnsupportedStrictnessError as exc:  # a mode the flag accepts
            args._parser.error(str(exc))
    if args.interval is None:
        args._parser.error(f"relation {args.relation!r} needs --interval")
    return compile_temporal(label, args.interval[1])


def _cmd_explain(args: argparse.Namespace) -> int:
    print(render(_compile_relation(args)))
    return 0


def _cmd_exec_nf2(args: argparse.Namespace) -> int:
    expr = _compile_relation(args)
    result = execute(expr, trajectories_to_nf2(load_trajectories(args.data)))
    for tid in result.column("tid"):
        print(tid)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (TrajqError, OSError) as exc:  # OSError: a data file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
