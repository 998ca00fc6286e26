"""Seeded trajectory generators and a canonical CSV writer for the benchmark.

Every generator draws from a ``random.Random`` it is handed, so one seed
gives one dataset. Lengths come from a fixed log-spaced grid and the
workloads give each shape the same lengths under every seed, so the amount
of work barely changes from seed to seed while the geometry does. Six
shapes of walk are produced against the query region R = [3, 7] x [3, 7]:

* ``miss``: a reflected random walk confined to a box left of R, so no
  vertex and no segment meets R. Always the same side, so the comparisons
  that decide a point is outside R take the same course under every seed;
* ``wander``: a reflected random walk in a box that contains R, so the
  path enters, leaves or stays in R depending on the draw;
* ``cross``: a noisy traverse from left of R to right of R through its
  interior, so it starts and ends outside and has vertices inside;
* ``leap``: vertices alternately left and right of R, so every segment
  passes through R's interior while no vertex lies in it;
* ``dash``: a walk beside R whose last step jumps across it, so only the
  final segment meets R;
* ``hug``: a walk whose vertices lie exactly on R's border lines, with an
  occasional step just inside or outside.

Vertices of all but ``hug`` keep a margin from every border line of R, so
their area labels are decided the same way by every evaluation mode.
"""

from __future__ import annotations

import random
from pathlib import Path

R_BOUNDS = (3.0, 3.0, 7.0, 7.0)
BORDER_MARGIN = 1e-3

# The box left of R for walks that miss it: (x_min, y_min, x_max, y_max).
_MISS_BOX = (-3.0, -3.0, 2.5, 13.0)
_WANDER_BOX = (0.0, 0.0, 10.0, 10.0)


def canonical_float(v: float) -> str:
    """Shortest round-trip text of v; integral values lose the ``.0``."""
    if v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    return repr(v)


def log_lengths(count: int, lo: int, hi: int) -> list[int]:
    """``count`` lengths spaced evenly in log(n) from lo to hi, ascending."""
    if count == 1:
        return [lo]
    return [int(round(lo * (hi / lo) ** (i / (count - 1)))) for i in range(count)]


def _off_border(v: float, lo: float, hi: float) -> bool:
    return abs(v - lo) > BORDER_MARGIN and abs(v - hi) > BORDER_MARGIN


def _reflect(v: float, lo: float, hi: float) -> float:
    if v < lo:
        v = 2 * lo - v
    if v > hi:
        v = 2 * hi - v
    return min(max(v, lo), hi)


def _walk(
    rng: random.Random, n: int, box: tuple[float, float, float, float], digits: int
) -> list[tuple[float, float]]:
    x0, y0, x1, y1 = box
    rx0, ry0, rx1, ry1 = R_BOUNDS
    step = 0.6
    x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
    out: list[tuple[float, float]] = []
    while len(out) < n:
        nx = round(_reflect(x + rng.gauss(0.0, step), x0, x1), digits)
        ny = round(_reflect(y + rng.gauss(0.0, step), y0, y1), digits)
        if _off_border(nx, rx0, rx1) and _off_border(ny, ry0, ry1):
            x, y = nx, ny
            out.append((x, y))
    return out


def _cross(rng: random.Random, n: int, digits: int) -> list[tuple[float, float]]:
    rx0, ry0, rx1, ry1 = R_BOUNDS
    x_start, x_end = rng.uniform(0.0, rx0 - 0.5), rng.uniform(rx1 + 0.5, 10.0)
    y = rng.uniform(ry0 + 0.5, ry1 - 0.5)
    out: list[tuple[float, float]] = []
    for i in range(n):
        x = round(x_start + (x_end - x_start) * i / max(n - 1, 1), digits)
        if not _off_border(x, rx0, rx1):
            x = round(x + 2 * BORDER_MARGIN, digits)
        y = round(_reflect(y + rng.gauss(0.0, 0.3), ry0 + 0.5, ry1 - 0.5), digits)
        out.append((x, y))
    return out


def _leap(rng: random.Random, n: int, digits: int) -> list[tuple[float, float]]:
    rx0, ry0, rx1, ry1 = R_BOUNDS
    out: list[tuple[float, float]] = []
    for i in range(n):
        x = rng.uniform(0.0, rx0 - 0.5) if i % 2 == 0 else rng.uniform(rx1 + 0.5, 10.0)
        out.append((round(x, digits), round(rng.uniform(ry0 + 0.5, ry1 - 0.5), digits)))
    return out


def _dash(rng: random.Random, n: int, digits: int) -> list[tuple[float, float]]:
    rx0, ry0, rx1, ry1 = R_BOUNDS
    out = _walk(rng, n - 1, (-3.0, ry0 + 0.5, rx0 - 0.5, ry1 - 0.5), digits)
    last = (rng.uniform(rx1 + 0.5, 10.0), rng.uniform(ry0 + 0.5, ry1 - 0.5))
    return out + [(round(last[0], digits), round(last[1], digits))]


def _hug(rng: random.Random, n: int, digits: int) -> list[tuple[float, float]]:
    x0, y0, x1, y1 = R_BOUNDS
    out: list[tuple[float, float]] = []
    for _ in range(n):
        along = round(rng.uniform(x0, x1), digits)
        side = rng.randrange(4)
        line = (x0, x1, y0, y1)[side]
        if rng.random() < 0.2:  # step just off the line, inward or outward
            line += rng.choice((-0.25, 0.25))
        out.append((line, along) if side < 2 else (along, line))
    return out


def trajectory_samples(
    rng: random.Random, shape: str, n: int, digits: int
) -> list[tuple[float, float, float]]:
    """(x, y, tau) samples of one walk; tau starts in [0, 300) and rises."""
    if shape == "miss":
        xy = _walk(rng, n, _MISS_BOX, digits)
    elif shape == "wander":
        xy = _walk(rng, n, _WANDER_BOX, digits)
    elif shape == "cross":
        xy = _cross(rng, n, digits)
    elif shape == "leap":
        xy = _leap(rng, n, digits)
    elif shape == "dash":
        xy = _dash(rng, n, digits)
    elif shape == "hug":
        xy = _hug(rng, n, digits)
    else:
        raise ValueError(f"unknown walk shape {shape!r}")
    tau = round(rng.uniform(0.0, 300.0), 3)
    out = []
    for x, y in xy:
        out.append((x, y, tau))
        tau = round(tau + rng.uniform(0.5, 1.5), 3)
    return out


def on_border(samples: list[tuple[float, float, float]]) -> bool:
    """True when some vertex lies on (or within the margin of) a border line of R."""
    x0, y0, x1, y1 = R_BOUNDS
    return not all(_off_border(x, x0, x1) and _off_border(y, y0, y1) for x, y, _ in samples)


def write_points(path: Path, rows: dict[str, list[tuple[float, float, float]]]) -> None:
    """The points file, rows sorted by (tid, order), LF line endings."""
    lines = ["tid,order,x,y,tau"]
    for tid in sorted(rows):
        for order, (x, y, tau) in enumerate(rows[tid]):
            lines.append(
                f"{tid},{order},{canonical_float(x)},{canonical_float(y)},{canonical_float(tau)}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return canonical_float(v)
    return str(v)


def write_props(
    path: Path, key_names: list[str], rows: list[tuple[tuple, dict]]
) -> None:
    """A property sibling: key columns, then property columns sorted by name.

    ``rows`` holds (key tuple, {name: value or None}); rows whose cells are
    all empty are left out, as export leaves them out.
    """
    names = sorted({name for _, cells in rows for name in cells})
    lines = [",".join(key_names + names)]
    for key, cells in sorted(rows, key=lambda r: r[0]):
        values = [_cell(cells.get(name)) for name in names]
        if any(values):
            lines.append(",".join([str(k) for k in key] + values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def fleet_properties(
    rng: random.Random, rows: dict[str, list[tuple[float, float, float]]]
) -> tuple[list[tuple[tuple, dict]], list[tuple[tuple, dict]]]:
    """Per-trajectory and per-point property rows for the fleet dataset."""
    tprops, pprops = [], []
    for tid in sorted(rows):
        tprops.append(
            (
                (tid,),
                {
                    "vehicle": rng.choice(("van", "bike", "truck", "scooter")),
                    "capacity": rng.randrange(1, 40),
                    "electric": rng.random() < 0.4,
                    "rating": None if rng.random() < 0.1 else round(rng.uniform(1, 5), 2),
                },
            )
        )
        mode = "walking"
        for order in range(len(rows[tid])):
            if rng.random() < 0.1:
                mode = "driving" if mode == "walking" else "walking"
            pprops.append(
                (
                    (tid, order),
                    {
                        "mode": mode,
                        "speed": None if rng.random() < 0.2 else round(rng.uniform(0, 30), 2),
                    },
                )
            )
    return tprops, pprops
