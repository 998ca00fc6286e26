"""Shared deterministic number formatting for CSV export and algebra text."""

from __future__ import annotations

import math


def format_float(v: float) -> str:
    """Render a float compactly: integral values lose the trailing .0.

    The output survives a float() roundtrip bit-exactly, which CSV export
    relies on; -0.0 is "-0", as int() would drop its sign.
    """
    if v == int(v) and abs(v) < 2**53:
        return "-0" if v == 0 and math.copysign(1.0, v) < 0 else str(int(v))
    return repr(v)
