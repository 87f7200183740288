"""``Trajectory.to_csv`` against ``np.savetxt(fmt="%.15g")``, byte for byte."""

import numpy as np
import pytest

from osscontrol.simulate import _CSV_CHUNK, Trajectory, _significands

from helpers import csv_by_savetxt, trajectory_of_arrays


def trajectory(values, width: int) -> Trajectory:
    """A trace whose CSV rows are ``values`` in rows of ``width``: t first,
    cost last, the columns between split over x, u, y and eps."""
    data = np.asarray(values, dtype=float).reshape(-1, width)
    x, u, y, eps = np.array_split(data[:, 1:-1], 4, axis=1)
    return trajectory_of_arrays(data[:, 0], x, y, u, eps, data[:, -1])


def assert_same_bytes(traj: Trajectory, tmp_path) -> None:
    traj.to_csv(tmp_path / "got.csv")
    csv_by_savetxt(traj, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes().split(b"\n")
    want = (tmp_path / "want.csv").read_bytes().split(b"\n")
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)


def log_uniform(rng, size: int, lo: float, hi: float) -> np.ndarray:
    """Magnitudes log-uniform over [lo, hi), each sign equally likely."""
    mags = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size)
    return np.where(rng.random(size) < 0.5, -mags, mags)


def edge_values() -> np.ndarray:
    tiny = np.finfo(float).tiny
    vals = [
        0.0, np.nan, np.inf, 5e-324, 1e-320, tiny / 3, tiny, 1.7e308, np.finfo(float).max,
        # the fixed/exponent switch at 1e-4 and 1e15, and the range ends at 1e-22
        1e-5, 1e-4, 9.99999999999999e-5, 0.0001000000000000001, 1e15, 1e16,
        999999999999999.0, 999999999999999.4, 1e15 + 2, 9999999999999998.0, 1e-22, 1e-23,
        # carries to the next power of ten
        999999999999999.5, 999999999999999.9, 9.9999999999999995e-5, 9.99999999999999999e-23,
        # exact ties at the 16th digit, kept by round-half-even or not
        123456789012345.5, 123456789012344.5, 100000000000000.5, 12345678901234.25,
        1234567890123.125,
        0.5, 1.5, 2.5, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 63,
        12345678901234567890.0, 1.5e100, 2.5e-200, 1.234e-300, 9.87654321e299,
    ]
    vals += [float(i) for i in range(0, 1001, 7)]
    p10 = np.array([float(f"1e{k}") for k in range(-300, 301)])
    vals = np.concatenate([vals, p10, np.nextafter(p10, 0.0), np.nextafter(p10, np.inf)])
    return np.concatenate([vals, -vals])


def test_edge_values_match_savetxt(tmp_path):
    vals = edge_values()
    vals = np.concatenate([vals, np.zeros(-len(vals) % 6)])
    assert_same_bytes(trajectory(vals, 6), tmp_path)


@pytest.mark.parametrize("draw", ["bit-patterns", "log-uniform"])
def test_random_doubles_match_savetxt(draw, tmp_path):
    rng = np.random.default_rng(2024)
    # 1 M values in all; most bit patterns lie outside the vectorized range
    if draw == "bit-patterns":
        vals = rng.integers(0, 2 ** 64, 400_008, dtype=np.uint64).view(np.float64)
    else:
        vals = log_uniform(rng, 600_000, 1e-30, 1e30)
    assert_same_bytes(trajectory(vals, 12), tmp_path)


@pytest.mark.parametrize("rows", ["one", "chunk-1", "chunk", "chunk+1"])
def test_row_counts_and_widths_match_savetxt(rows, tmp_path):
    rng = np.random.default_rng(7)
    for width in range(2, 30):
        chunk = _CSV_CHUNK // width
        k = {"one": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}[rows]
        vals = log_uniform(rng, k * width, 1e-8, 1e8)
        vals[rng.random(vals.size) < 0.05] = 0.0
        assert_same_bytes(trajectory(vals, width), tmp_path)


def test_values_in_range_rarely_take_the_fallback():
    # The fallback keeps the writer exact; the vectorized path must still
    # decide nearly every value, or the writer is slow.  Above about 1e10 a
    # double has so few fraction bits that exact rounding ties, which always
    # take the fallback, become common; below, only the 1e-6 window is left.
    vals = np.abs(log_uniform(np.random.default_rng(5), 200_000, 1e-22, 1e10))
    exact = _significands(vals)[2]
    assert np.count_nonzero(~exact) <= 20
