"""Asymptotic rate-versus-distance curves for the binary code families.

Two families of lines, both indexed by an integer m >= 2:

    tower family   r1(m, d)  = 1 - 2/(2^m - 1) - 4 m d
    layered family alt(m, d) = 1 - (10/3) m d - 2/(2^m - 1)

Each m is the best choice on one delta window; the envelope picks the
window member (windows abut, and the two members agree at every boundary,
so the envelope is continuous):

    r1 window  : 2^(m-1) / ((2^m - 1)(2^(m+1) - 1))
                 ... 2^(m-2) / ((2^(m-1) - 1)(2^m - 1))
    alt window : 3 * 2^m / (5 (2^m - 1)(2^(m+1) - 1))
                 ... min(5/84, 3 * 2^(m-1) / (5 (2^(m-1) - 1)(2^m - 1)))

The alt window for m = 2 is empty and 5/84 is the largest delta any alt
window reaches.  Outside all windows the envelope falls back to the
pointwise best m (which is m = 2 above the r1 windows and the capped
m = M_CAP below the smallest window).  Raw line values may be negative;
they are kept raw here and only clamped to 0 in the emitted table, which
is a plotting convention, not part of the formulas.

The envelope is computed on arrays: the window endpoints of m = 2..M_CAP
are tabulated once, and a block of deltas meets all M_CAP - 1 lines at
once.  The first window holding a delta is an argmax over a boolean
matrix, and the fallback is an argmax over the line values, which picks
the first maximum.  The array path and ``r1_of_m``/``alt_of_m`` evaluate
one shared formula per family, in one operation order, so every value is
bit-identical to the scalar functions.  ``r1_envelope`` and
``alt_envelope`` are one-element calls of the same path.

``emit_curves`` counts its grid before any work, refuses more than
GRID_CAP points per curve, and returns per curve the columns (delta, raw
rate, m); ``write_csv`` formats them a block of rows at a time.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

M_CAP = 30
ALT_DELTA_CAP = 5 / 84
GRID_CAP = 10**6  # delta grid points per curve that ``emit_curves`` accepts
_BLOCK = 1 << 14  # deltas that meet the M_CAP - 1 lines at once, and CSV rows formatted at once

_M = np.arange(2, M_CAP + 1)[:, None]  # one row per m, against a row of deltas


def _r1(m, delta):
    return 1.0 - 2.0 / (2**m - 1) - 4.0 * m * delta


def _alt(m, delta):
    return 1.0 - (10.0 / 3.0) * m * delta - 2.0 / (2**m - 1)


def r1_of_m(m: int, delta: float) -> float:
    """Tower-family line for parameter m, raw (may be negative)."""
    _check_m_delta(m, delta)
    return _r1(m, delta)


def alt_of_m(m: int, delta: float) -> float:
    """Layered-family line for parameter m, raw (may be negative)."""
    _check_m_delta(m, delta)
    return _alt(m, delta)


def _check_m_delta(m: int, delta: float) -> None:
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")


def r1_window(m: int) -> tuple[float, float]:
    """Delta window on which m is the envelope choice for the tower family."""
    lo = 2 ** (m - 1) / ((2**m - 1) * (2 ** (m + 1) - 1))
    hi = 2 ** (m - 2) / ((2 ** (m - 1) - 1) * (2**m - 1))
    return lo, hi


def alt_window(m: int) -> tuple[float, float]:
    """Delta window for the layered family; empty (lo > hi) for m = 2."""
    lo = 3 * 2**m / (5 * (2**m - 1) * (2 ** (m + 1) - 1))
    hi = min(ALT_DELTA_CAP, 3 * 2 ** (m - 1) / (5 * (2 ** (m - 1) - 1) * (2**m - 1)))
    return lo, hi


def _family(line, window) -> tuple:
    # the endpoints come from the exact integer quotients, as (M_CAP - 1, 1) columns
    lo, hi = np.array([window(m) for m in range(2, M_CAP + 1)]).T
    return line, lo[:, None], hi[:, None]


CURVES = {
    "r1": _family(_r1, r1_window),
    "alt": _family(_alt, alt_window),
}


def _envelope(name: str, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(raw rate, m) of the named envelope at each entry of a 1-D delta array."""
    line, lo, hi = CURVES[name]
    values = line(_M, delta)
    inside = (lo <= delta) & (delta <= hi)
    # the first window that holds delta; outside every window the first best line
    row = np.where(inside.any(axis=0), inside.argmax(axis=0), values.argmax(axis=0))
    return values[row, np.arange(len(delta))], row + 2


def _envelope_at(name: str, delta: float) -> tuple[float, int]:
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    raw, m = _envelope(name, np.array([delta], dtype=float))
    return float(raw[0]), int(m[0])


def r1_envelope(delta: float) -> tuple[float, int]:
    """(rate, m) of the tower-family envelope at delta > 0."""
    return _envelope_at("r1", delta)


def alt_envelope(delta: float) -> tuple[float, int]:
    """(rate, m) of the layered-family envelope at delta > 0."""
    return _envelope_at("alt", delta)


def emit_curves(
    delta_min: float,
    delta_max: float,
    step: float,
    curves: Sequence[str] = ("r1", "alt"),
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Envelope columns on the grid delta_min, delta_min + step, ..., <= delta_max.

    One entry per curve name, in the order given (a repeated name gives
    one entry): the read-only columns (delta, raw rate, m), one row per
    grid point; every curve shares the one delta column.  ValueError on
    non-finite bounds or step, and on a grid of more than GRID_CAP points
    per curve, which is counted before any work.
    """
    if not all(map(math.isfinite, (delta_min, delta_max, step))):
        raise ValueError(f"need finite delta bounds and step, got {delta_min}, {delta_max}, {step}")
    if not (0 < delta_min <= delta_max) or step <= 0:
        raise ValueError("need 0 < delta_min <= delta_max and step > 0")
    for c in curves:
        if c not in CURVES:
            raise ValueError(f"unknown curve {c!r}")
    span = (delta_max - delta_min) / step + 1e-9
    if not span < GRID_CAP:  # span is inf when the quotient overflows
        count = int(span) + 1 if span < 1e15 else "more than 10^15"
        raise ValueError(f"the delta grid has {count} points per curve, over the cap {GRID_CAP}")
    grid = delta_min + np.arange(int(span) + 1) * step
    grid.setflags(write=False)
    out = {}
    for name in curves:
        raw, m = np.empty(len(grid)), np.empty(len(grid), dtype=np.int64)
        for start in range(0, len(grid), _BLOCK):
            block = slice(start, start + _BLOCK)
            raw[block], m[block] = _envelope(name, grid[block])
        raw.setflags(write=False)
        m.setflags(write=False)
        out[name] = (grid, raw, m)
    return out


def write_csv(columns: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]], path: str) -> None:
    """CSV of ``emit_curves``' columns with header delta,rate,raw_rate,m,curve
    and CRLF line ends; 12 significant digits, and rate is the raw rate clamped at 0."""
    with open(path, "w", newline="") as fh:
        fh.write("delta,rate,raw_rate,m,curve\r\n")
        for name, (delta, raw, m) in columns.items():
            row = "{:.12g},{:.12g},{:.12g},{}," + name + "\r\n"
            for start in range(0, len(delta), _BLOCK):
                d, r, k = (column[start:start + _BLOCK] for column in (delta, raw, m))
                rate = np.where(r > 0, r, 0.0)  # max(0.0, r), -0.0 and nan included
                fh.write("".join(map(row.format, d.tolist(), rate.tolist(), r.tolist(), k.tolist())))
