import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab.bounds import (
    ALT_DELTA_CAP,
    GRID_CAP,
    M_CAP,
    alt_envelope,
    alt_of_m,
    alt_window,
    emit_curves,
    r1_envelope,
    r1_of_m,
    r1_window,
    write_csv,
)
from agstab.cli import main
from conftest import scalar_alt, scalar_envelope, scalar_r1


def test_line_values():
    assert abs(r1_of_m(3, 1 / 21) - 1 / 7) < 1e-15
    assert abs(r1_of_m(2, 1 / 24)) < 1e-15
    assert abs(alt_of_m(3, 3 / 100) - 29 / 70) < 1e-15
    assert abs(alt_of_m(2, 1 / 10) + 1 / 3) < 1e-15  # raw value is negative


def test_zero_delta_endpoint():
    for m in (2, 3, 5, 9):
        assert r1_of_m(m, 0.0) == 1 - 2 / (2**m - 1)
        assert alt_of_m(m, 0.0) == 1 - 2 / (2**m - 1)


def test_argument_validation():
    with pytest.raises(ValueError):
        r1_of_m(1, 0.1)
    with pytest.raises(ValueError):
        alt_of_m(3, -0.1)
    with pytest.raises(ValueError):
        r1_envelope(0.0)
    with pytest.raises(ValueError):
        alt_envelope(-1.0)


def test_r1_boundary_crossover():
    # window boundaries are exactly where adjacent lines intersect
    assert abs(r1_of_m(3, 4 / 105) - r1_of_m(4, 4 / 105)) < 1e-15
    lo3, hi3 = r1_window(3)
    assert math.isclose(lo3, 4 / 105)
    assert math.isclose(hi3, 2 / 21)


def test_envelope_continuity():
    for m in range(2, 11):
        lo, _ = r1_window(m)
        assert abs(r1_of_m(m, lo) - r1_of_m(m + 1, lo)) < 1e-12
        lo_a, _ = alt_window(m + 1)
        assert abs(alt_of_m(m + 1, lo_a) - alt_of_m(m + 2, lo_a)) < 1e-12


def test_envelope_window_selection():
    rate, m = r1_envelope(1 / 21)
    assert m == 3 and abs(rate - 1 / 7) < 1e-15
    # very small delta climbs to the cap; very large falls back to m = 2
    assert r1_envelope(1e-12)[1] == M_CAP
    assert r1_envelope(0.45)[1] == 2


def test_alt_windows():
    lo2, hi2 = alt_window(2)
    assert lo2 > hi2                        # empty: the family starts at m = 3
    lo3, hi3 = alt_window(3)
    assert hi3 == ALT_DELTA_CAP == 5 / 84   # the global upper endpoint
    assert math.isclose(lo3, 24 / 525)
    lo4, hi4 = alt_window(4)
    assert math.isclose(hi4, lo3)           # windows abut


def test_alt_envelope_selection():
    # 0.03 sits inside the m = 4 window by the window formulas
    rate, m = alt_envelope(0.03)
    assert m == 4 and abs(rate - alt_of_m(4, 0.03)) < 1e-15
    rate, m = alt_envelope(0.05)
    assert m == 3
    # above the 5/84 cap the envelope is the pointwise best line
    rate, m = alt_envelope(0.065)
    assert m == 3 and abs(rate - alt_of_m(3, 0.065)) < 1e-15


def test_envelope_is_pointwise_max():
    for i in range(1, 1001):
        delta = i * (0.12 / 1000)
        for env, line in ((r1_envelope, r1_of_m), (alt_envelope, alt_of_m)):
            rate, m = env(delta)
            best = max(line(mm, delta) for mm in range(2, M_CAP + 1))
            assert abs(rate - best) < 1e-12
            assert abs(line(m, delta) - best) < 1e-12


def test_envelope_monotone_nonincreasing():
    prev_r1 = prev_alt = float("inf")
    for i in range(1, 200):
        delta = i * 0.0005
        r, _ = r1_envelope(delta)
        a, _ = alt_envelope(delta)
        assert r <= prev_r1 + 1e-15 and a <= prev_alt + 1e-15
        prev_r1, prev_alt = r, a


def test_emit_curves_grid():
    columns = emit_curves(0.001, 0.07, 0.001)
    assert list(columns) == ["r1", "alt"]
    assert [len(c) for delta, raw, m in columns.values() for c in (delta, raw, m)] == [70] * 6
    assert columns["r1"][0] is columns["alt"][0]    # one shared delta column
    (delta, raw, m), = emit_curves(1 / 21, 1 / 21, 0.001, curves=("r1",)).values()
    assert delta.tolist() == [1 / 21] and abs(raw[0] - 1 / 7) < 1e-15 and m.tolist() == [3]
    for column in (delta, raw, m):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    again = emit_curves(0.001, 0.07, 0.001)        # deterministic
    assert all(np.array_equal(a, b) for name in columns for a, b in zip(columns[name], again[name]))


def test_emit_curves_validation():
    with pytest.raises(ValueError):
        emit_curves(0.0, 0.1, 0.01)
    with pytest.raises(ValueError):
        emit_curves(0.2, 0.1, 0.01)
    with pytest.raises(ValueError):
        emit_curves(0.01, 0.1, 0.0)
    with pytest.raises(ValueError):
        emit_curves(0.01, 0.1, 0.01, curves=("nope",))


def test_csv_format(tmp_path):
    path = tmp_path / "curves.csv"
    write_csv(emit_curves(0.01, 0.3, 0.01), str(path))
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "delta,rate,raw_rate,m,curve" and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 60 and {len(row) for row in rows} == {5}
    assert {row[4] for row in rows} == {"r1", "alt"}
    assert any(float(raw) < 0 for _, _, raw, _, _ in rows)
    for _, rate, raw, _, _ in rows:
        assert float(rate) == max(0.0, float(raw))   # clamp only for output


def test_emit_and_write_csv_peak_memory(tmp_path):
    # columns, and text formatted a block at a time, keep the traced peak within twice
    # the size of the CSV; one object per row would take about four times its size
    import tracemalloc

    path = tmp_path / "curves.csv"
    emit_curves(0.001, 0.002, 0.001)
    tracemalloc.start()
    try:
        write_csv(emit_curves(0.0001, 0.07, 3.5e-7), str(path))     # 2 x 10^5 points per curve
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 18 * 10**6
    assert peak < 2 * path.stat().st_size


# ---------------------------------------------------------------------------
# the array envelope against the scalar scan, float for float
# ---------------------------------------------------------------------------

FAMILIES = (("r1", r1_envelope, scalar_r1, r1_window), ("alt", alt_envelope, scalar_alt, alt_window))


def test_lines_match_the_scalar_formulas():
    for m in range(2, M_CAP + 1):
        for delta in (0.0, 1e-9, 1 / 21, 0.0307, 0.5):
            assert r1_of_m(m, delta) == scalar_r1(m, delta) and alt_of_m(m, delta) == scalar_alt(m, delta)


def _same_point(got, delta, of_m, window):
    raw, m = scalar_envelope(delta, of_m, window, M_CAP)
    # bit-identical floats (struct equality would also tell -0.0 from 0.0)
    assert (math.copysign(1, got[0]), got[0], got[1]) == (math.copysign(1, raw), raw, m)
    assert type(got[0]) is float and type(got[1]) is int


@settings(max_examples=300)
@given(st.floats(min_value=5e-324, max_value=1.0) | st.floats(min_value=1e-12, max_value=0.12))
def test_envelopes_match_the_scalar_scan(delta):
    for _, env, of_m, window in FAMILIES:
        _same_point(env(delta), delta, of_m, window)


def test_envelopes_match_the_scalar_scan_at_every_window_endpoint():
    for _, env, of_m, window in FAMILIES:
        for m in range(2, M_CAP + 1):
            for delta in window(m):
                for d in (math.nextafter(delta, 0), delta, math.nextafter(delta, 1)):
                    _same_point(env(d), d, of_m, window)


def test_envelopes_match_the_scalar_scan_in_both_fallback_regions():
    above, below = r1_window(2)[1], r1_window(M_CAP)[0]
    for _, env, of_m, window in FAMILIES:
        for delta in (above * 1.0001, 0.4, 0.5, 1.0, 3.0, below / 2, below * 0.999, 1e-15, 1e-300):
            _same_point(env(delta), delta, of_m, window)
    assert r1_envelope(0.4)[1] == 2 and r1_envelope(below / 2)[1] == M_CAP
    assert alt_envelope(0.4)[1] == 2 and alt_envelope(below / 2)[1] == M_CAP


@pytest.mark.parametrize("delta_min,delta_max,step", [
    (0.0001, 0.07, 0.0001), (1e-12, 0.5, 0.0007), (0.0001, 0.07, 0.00001), (0.3, 0.9, 0.05),
])
def test_emit_curves_matches_the_scalar_scan(delta_min, delta_max, step):
    columns = emit_curves(delta_min, delta_max, step)
    count = int((delta_max - delta_min) / step + 1e-9) + 1
    assert list(columns) == [name for name, _, _, _ in FAMILIES]
    for name, _, of_m, window in FAMILIES:
        rows = list(zip(*(column.tolist() for column in columns[name])))
        assert len(rows) == count
        for i, row in enumerate(rows):
            delta = delta_min + i * step
            assert row == (delta, *scalar_envelope(delta, of_m, window, M_CAP))


# SHA-256 of `bounds --curve both --delta-min 0.0001 --delta-max 0.07 --step STEP`
CSV_SHA256 = {
    "0.001": "6cc30fae2d75d2b410790af4df67c79e65333a3839ac35b78ea6e2756997e012",
    "0.00001": "82498ba88072aa63864d1f4a3bcf53d35bfa6ff2ac9f06f77fcb87f3cdc6714a",
}


@pytest.mark.parametrize("step", sorted(CSV_SHA256))
def test_csv_bytes_are_pinned(tmp_path, capsys, step):
    out = tmp_path / "curves.csv"
    assert main(["bounds", "--curve", "both", "--delta-min", "0.0001", "--delta-max", "0.07",
                 "--step", step, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[step]


@pytest.mark.parametrize("delta_max,step,message", [
    ("inf", "0.001", "error: need finite delta bounds and step, got 0.0001, inf, 0.001\n"),
    ("0.07", "inf", "error: need finite delta bounds and step, got 0.0001, 0.07, inf\n"),
    ("0.07", "nan", "error: need finite delta bounds and step, got 0.0001, 0.07, nan\n"),
    ("0.07", "1e-300", f"error: the delta grid has more than 10^15 points per curve, over the cap {GRID_CAP}\n"),
    ("0.07", "5e-324", f"error: the delta grid has more than 10^15 points per curve, over the cap {GRID_CAP}\n"),
    ("0.2", "1e-7", f"error: the delta grid has 1999001 points per curve, over the cap {GRID_CAP}\n"),
])
def test_cli_bounds_refuses_non_finite_and_oversized_grids(tmp_path, capsys, delta_max, step, message):
    out = tmp_path / "curves.csv"
    assert main(["bounds", "--curve", "both", "--delta-min", "0.0001", "--delta-max", delta_max,
                 "--step", step, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_emit_curves_grid_cap_boundary(monkeypatch):
    from agstab import bounds

    step = 1 / 1024
    with pytest.raises(ValueError, match=f"has {GRID_CAP + 1} points per curve, over the cap {GRID_CAP}$"):
        emit_curves(step, step * (GRID_CAP + 1), step)
    monkeypatch.setattr(bounds, "GRID_CAP", 2000)
    assert [len(delta) for delta, _, _ in emit_curves(step, step * 2000, step).values()] == [2000] * 2  # the cap
    with pytest.raises(ValueError, match="the delta grid has 2001 points per curve, over the cap 2000"):
        emit_curves(step, step * 2001, step)
    with pytest.raises(ValueError, match="finite"):
        emit_curves(float("nan"), 0.1, 0.01)
