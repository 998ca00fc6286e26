"""trajq benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet|tracks --seed N \\
        --seconds S --trace 0|1

The run sets the workload up three times (reporting the median set-up
time), then executes its operation mix in a closed loop with one client,
whole cycles at a time, until ``--seconds`` have passed and at least
MIN_CYCLES cycles have run. Each operation's output is
checked after its timing ends; the timing metrics come from the fastest
runs of each operation (see ``fastest_runs``).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the loop runs once untraced and then, for as many cycles
(at most TRACED_CYCLES), with spans around every layer entry point, and
the result holds the per-layer metrics computed from those spans. Human-readable lines come
first; the last line of standard output is the JSON result. The program
under test is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# The traced loop runs at most this many cycles: enough for the per-layer
# numbers, and it keeps a traced run's length and span count bounded.
TRACED_CYCLES = 10
# The metrics use the fastest runs of each operation (see ``fastest_runs``),
# at least MIN_KEPT samples in all, so that ten lie beyond the 90th
# percentile; they are picked from at least MIN_CYCLES runs of each.
MIN_KEPT = 100
MIN_CYCLES = 10


def _import_program():
    src = ROOT / "src"
    if not (src / "trajq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no trajq sources under {src}")
    sys.path.insert(0, str(src))
    import trajq

    if Path(trajq.__file__).resolve().parent != (src / "trajq").resolve():
        sys.exit(f"perfbench: imported trajq from {trajq.__file__}, not from {src}")


def run_loop(workload, ops, seconds: float, cycles: int | None, tracer=None):
    """Run whole cycles of ``ops``; returns (runs, failures).

    Without ``cycles``, runs until ``seconds`` have passed and MIN_CYCLES
    cycles are done. ``runs`` holds one list of (op, duration in ns) per
    cycle.
    """
    runs: list[list] = []
    failures = 0
    reported: set[str] = set()
    start = time.perf_counter()
    while True:
        if cycles is not None and len(runs) == cycles:
            break
        if (cycles is None and time.perf_counter() - start >= seconds
                and len(runs) >= MIN_CYCLES):
            break
        done = len(runs)
        outputs: dict = {}  # part -> {op name: output}, for the checks
        samples: list = []
        runs.append(samples)
        for i, op in enumerate(ops):
            out, error = None, None
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.op_id, tracer.tags, tracer.enabled = f"{done}:{i}", op.tags, True
                span = tracer.span("op", op=op.name)
            t0 = time.perf_counter_ns()
            try:
                with span:
                    out = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                error = exc
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.enabled = False  # checks are not part of the operation
            cycle = outputs.setdefault(op.part, {})
            try:
                ok = error is None and bool(op.check(out, cycle))
            except Exception as exc:  # and so does one whose check raises
                ok, error = False, exc
            if not ok:
                failures += 1
                if op.name not in reported:
                    reported.add(op.name)
                    print(f"# FAILED {workload.name} {op.part} {op.name}", file=sys.stderr)
                    if error is not None:
                        traceback.print_exception(error, file=sys.stderr)
            cycle[op.name] = out
            samples.append((op, dt))
    return runs, failures


def fastest_runs(runs: list[list]) -> list:
    """The fastest ceil(MIN_KEPT / operations per cycle) runs of each
    operation, pooled.

    Every cycle runs the same operations on the same inputs, so a slower run
    of one operation was slowed by something outside it. On a machine shared
    with other work, interference slows the program by up to 1.9x for
    seconds to half a minute at a time; an operation's fastest runs come
    from the moments without it. The fewer runs kept, the likelier they all
    come from such moments, so the workloads split their data into enough
    operations per cycle to keep two runs of each. Every operation keeps
    the same number of runs, so the mix is unchanged.
    """
    keep = math.ceil(MIN_KEPT / len(runs[0]))
    kept = []
    for i in range(len(runs[0])):
        kept += sorted((cycle[i] for cycle in runs), key=lambda sample: sample[1])[:keep]
    return kept


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(samples, setup_times: list[float]) -> dict[str, float]:
    ms = [dt / 1e6 for _, dt in samples]
    return {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": _quantile(ms, 90),
        "pts_per_s": sum(op.points for op, _ in samples) / (sum(ms) / 1e3),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "pts_per_s": "points/s",
    "peak_rss_mib": "MiB",
}


def _median_cycle_ns(runs: list[list]) -> float:
    return statistics.median(sum(dt for _, dt in cycle) for cycle in runs)


def _medians_by(samples, key) -> dict[str, tuple[float, int]]:
    groups: dict[str, list[float]] = {}
    for op, dt in samples:
        groups.setdefault(key(op), []).append(dt / 1e6)
    return {name: (statistics.median(v), len(v)) for name, v in sorted(groups.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply the sizes: trajectories, and the longest length in tracks "
        "(the self-test runs tiny sizes)",
    )
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; use {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    base = ROOT / ".perfbench_run"
    workdir = base / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(args, cls, workdir, base, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cls, workdir: Path, base: Path, tracing) -> int:
    tracer = tracing.Tracer() if args.trace else None
    setup_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        workload = cls(args.seed, workdir, args.scale)
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op_id = "setup"
            with tracer.instrument():
                workload.setup()
        else:
            workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_failed = 0 if workload.setup_ok() else 1
    if setup_failed:
        print(f"# FAILED {workload.name} setup: loaded relation differs from the built one",
              file=sys.stderr)

    ops = workload.cycle()
    runs, failed = run_loop(workload, ops, args.seconds, None)
    samples = fastest_runs(runs)
    lines = [
        f"# workload={workload.name} seed={args.seed} trace={args.trace} "
        f"cycles={len(runs)} kept_per_op={len(samples) // len(ops)} ops_per_cycle={len(ops)} "
        f"samples={len(samples)} points/cycle={sum(op.points for op in ops)}",
        "# cycle_ms " + " ".join(f"{sum(dt for _, dt in c) / 1e6:.0f}" for c in runs),
    ]
    if tracer is None:
        metrics = end_to_end(samples, setup_times)
        units = E2E_UNITS
        extra = {
            f"{kind}_ms_p50": v for kind, v in _medians_by(samples, lambda op: op.kind).items()
        }
        extra.update(
            {f"op.{name}.ms_p50": v for name, v in _medians_by(samples, lambda op: op.name).items()}
        )
        counts = {"setup_s": len(setup_times), "peak_rss_mib": 1}
    else:
        with tracer.instrument():
            traced, traced_failed = run_loop(
                workload, ops, 0, min(len(runs), TRACED_CYCLES), tracer
            )
        tracer.op_id, tracer.tags = "probe", {}
        workload.probes(tracer)
        failed += traced_failed
        metrics = tracing.layer_metrics(
            tracer.spans, len(traced), _median_cycle_ns(runs), _median_cycle_ns(traced)
        )
        runs += traced
        units = tracing.LAYER_METRICS
        extra, counts = {}, None
        trace_path = base / f"trace-{workload.name}.jsonl"
        tracer.write(trace_path)
        lines.append(f"# spans={len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    attempted = sum(map(len, runs)) + 1
    failed += setup_failed
    for name, value in metrics.items():
        count = f" (n={counts.get(name, len(samples))})" if counts is not None else ""
        lines.append(f"{name} {value:.6g} {units[name]}{count}")
    for name, (value, n) in extra.items():
        lines.append(f"{name} {value:.6g} ms (n={n})")
    lines.append(f"failed_frac {failed / attempted:.6g} ratio (n={attempted})")
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
