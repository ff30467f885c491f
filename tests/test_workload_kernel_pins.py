"""Pins for the two paper kernels' cost vectors.

``escape_counts`` is checked against a plain-Python per-pixel loop that
performs the same five IEEE operations in the same order, and the
figure workloads' fingerprints are pinned to their values before the
Mandelbrot kernel was compacted.  The goldens run ``uniform_workload``,
so without these nothing in the fast suite pins the figure cost
vectors.  Never edit a pinned digest to make a kernel change pass: a
mismatch means the kernel computes different costs.
"""

import numpy as np
import pytest

from repro.experiments.parallel import workload_fingerprint
from repro.experiments.workloads import figure_workload
from repro.workloads.mandelbrot import DEFAULT_REGION, escape_counts


def scalar_escape_counts(width, height, max_iter, region):
    """One pixel at a time, in plain Python floats."""
    x_min, x_max, y_min, y_max = region
    xs = np.linspace(x_min, x_max, width).tolist()
    ys = np.linspace(y_min, y_max, height).tolist()
    out = []
    for ci in ys:
        row = []
        for cr in xs:
            zr = zi = 0.0
            count = max_iter
            for iteration in range(max_iter):
                zr2 = zr * zr
                zi2 = zi * zi
                if zr2 + zi2 > 4.0:
                    count = iteration
                    break
                zi = 2.0 * zr * zi + ci
                zr = zr2 - zi2 + cr
            row.append(count)
        out.append(row)
    return np.array(out, dtype=np.int64)


#: every pixel escapes within a few iterations (the early-exit path)
ESCAPES_AT_ONCE = (2.2, 3.4, 1.9, 2.9)
#: inside the main cardioid: no pixel ever escapes
NEVER_ESCAPES = (-0.3, 0.1, -0.2, 0.2)


@pytest.mark.parametrize(
    "width, height, max_iter, region",
    [
        (7, 5, 1, DEFAULT_REGION),
        (7, 5, 17, DEFAULT_REGION),
        (24, 17, 100, DEFAULT_REGION),
        (16, 16, 64, (-2.5, 1.0, -1.25, 0.0)),
        (9, 9, 300, (-0.75, -0.73, 0.1, 0.12)),
        (6, 4, 50, ESCAPES_AT_ONCE),
        (6, 4, 40, NEVER_ESCAPES),
        (6, 4, 1, NEVER_ESCAPES),
    ],
)
def test_escape_counts_match_scalar_oracle(width, height, max_iter, region):
    got = escape_counts(width, height, max_iter, region)
    want = scalar_escape_counts(width, height, max_iter, region)
    assert got.dtype == np.int64
    assert got.shape == (height, width)
    np.testing.assert_array_equal(got, want)


def test_oracle_regions_cover_both_extremes():
    assert escape_counts(6, 4, 50, ESCAPES_AT_ONCE).max() < 5
    assert (escape_counts(6, 4, 40, NEVER_ESCAPES) == 40).all()


FIGURE_FINGERPRINTS = {
    ("mandelbrot", "tiny"): "681f37fc76f4c7e5fe4e5a18a04f5257860add5a037931fae7672cf55cecdf5b",
    ("mandelbrot", "quick"): "bab3c6f6064ed94d8c0563a99421f128899c0b83d88bd7de915b0939604e07e2",
    ("mandelbrot", "default"): "207a83778f8084805aabc4e477bddb1ea9966a79c0aa01810e185dcb7a8a2b7e",
    ("psia", "tiny"): "b5cdfc5a567193b3dd568e9eece8b92791897537071b62f5d0c75e06489e3882",
    ("psia", "quick"): "72d1e92a83b3f2b8f819868af474fbcace354f934b9bfeef3c6f2f5ed0865e9e",
}


@pytest.mark.parametrize("app, scale", sorted(FIGURE_FINGERPRINTS))
def test_figure_workload_fingerprint_pinned(app, scale):
    wl = figure_workload(app, scale)
    assert workload_fingerprint(wl) == FIGURE_FINGERPRINTS[(app, scale)]
