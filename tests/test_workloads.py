"""Tests for the workload layer (base, Mandelbrot, PSIA, synthetic, traces)."""

import numpy as np
import pytest

from repro.core.technique_base import IterationProfile
from repro.workloads import (
    Workload,
    banded_workload,
    bimodal_workload,
    constant_workload,
    exponential_workload,
    gaussian_workload,
    load_trace,
    mandelbrot_workload,
    psia_workload,
    ramp_workload,
    save_trace,
    uniform_workload,
)
from repro.workloads.mandelbrot import escape_counts, render_ascii
from repro.workloads.psia import neighbourhood_sizes, spin_image, synthetic_object


# ---------------------------------------------------------------------------
# Workload base
# ---------------------------------------------------------------------------


def test_block_cost_matches_sum():
    wl = Workload("w", np.array([1.0, 2.0, 3.0, 4.0]))
    assert wl.block_cost(0, 4) == pytest.approx(10.0)
    assert wl.block_cost(1, 2) == pytest.approx(5.0)
    assert wl.block_cost(3, 1) == pytest.approx(4.0)
    assert wl.block_cost(2, 0) == 0.0


def test_block_cost_bounds_checked():
    wl = Workload("w", np.ones(10))
    with pytest.raises(IndexError):
        wl.block_cost(5, 6)
    with pytest.raises(IndexError):
        wl.block_cost(-1, 2)


def test_costs_must_be_1d_and_nonnegative():
    with pytest.raises(ValueError, match="1-D"):
        Workload("w", np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-negative"):
        Workload("w", np.array([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_costs_must_be_finite(bad):
    costs = np.full(64, 1e-3)
    costs[5] = bad
    with pytest.raises(ValueError, match="finite"):
        Workload("w", costs)


def test_profile_matches_moments():
    costs = np.array([1.0, 2.0, 3.0])
    wl = Workload("w", costs)
    profile = wl.profile()
    assert isinstance(profile, IterationProfile)
    assert profile.mu == pytest.approx(2.0)
    assert profile.sigma == pytest.approx(costs.std())


def test_profile_of_empty_workload_raises():
    with pytest.raises(ValueError, match="empty"):
        Workload("w", np.array([])).profile()


def test_scaled_to_preserves_shape():
    wl = uniform_workload(100, seed=1)
    scaled = wl.scaled_to(42.0)
    assert scaled.total_cost == pytest.approx(42.0)
    # relative shape unchanged
    ratio = scaled.costs / wl.costs
    assert np.allclose(ratio, ratio[0])
    assert scaled.cov == pytest.approx(wl.cov)
    assert scaled.meta["scaled_from"] == wl.name


def test_scaled_to_zero_cost_raises():
    wl = Workload("w", np.array([]))
    with pytest.raises(ValueError):
        wl.scaled_to(1.0)


def test_subset():
    wl = uniform_workload(100, seed=2)
    sub = wl.subset(10)
    assert sub.n == 10
    assert np.array_equal(sub.costs, wl.costs[:10])
    with pytest.raises(ValueError):
        wl.subset(101)


def test_execute_requires_executor():
    wl = Workload("w", np.ones(4))
    with pytest.raises(NotImplementedError):
        wl.execute(0, 2)


@pytest.mark.parametrize("start, size", [(60, 10), (62, 4), (-1, 2), (3, -1)])
def test_execute_range_checked(start, size):
    wl = mandelbrot_workload(8, 8)
    with pytest.raises(IndexError, match="outside loop of 64 iterations"):
        wl.execute(start, size)


def test_execute_range_checked_against_the_subset():
    sub = mandelbrot_workload(8, 8).subset(4)
    assert sub.execute(0, 4).shape == (4,)
    with pytest.raises(IndexError, match=r"block \[2, 6\) outside loop of 4"):
        sub.execute(2, 4)


def test_psia_execute_range_checked_before_the_executor():
    wl = psia_workload(n_points=32, support_radius=0.5, bins=4)
    assert wl.execute(30, 2).shape == (2, 4, 4)
    with pytest.raises(IndexError, match=r"block \[30, 33\) outside loop of 32"):
        wl.execute(30, 3)


# ---------------------------------------------------------------------------
# Mandelbrot
# ---------------------------------------------------------------------------


def test_escape_counts_known_points():
    counts = escape_counts(64, 64, max_iter=128)
    # pixel nearest to c=0 (in the set) never escapes
    xs = np.linspace(-2.5, 1.0, 64)
    ys = np.linspace(-1.25, 1.25, 64)
    col = int(np.argmin(np.abs(xs)))
    row = int(np.argmin(np.abs(ys)))
    assert counts[row, col] == 128
    # the far corner escapes immediately
    assert counts[0, 0] <= 1


def test_escape_counts_shape_and_range():
    counts = escape_counts(32, 16, max_iter=64)
    assert counts.shape == (16, 32)
    assert counts.min() >= 0
    assert counts.max() <= 64


def test_escape_counts_invalid_args():
    with pytest.raises(ValueError):
        escape_counts(0, 8, 8)


def test_mandelbrot_workload_costs_derive_from_counts():
    wl = mandelbrot_workload(32, 16, max_iter=64, iter_time=1e-6, base_time=1e-7)
    counts = escape_counts(32, 16, max_iter=64).ravel()
    assert np.allclose(wl.costs, 1e-7 + 1e-6 * counts)
    assert wl.n == 512


def test_mandelbrot_executor_returns_real_counts():
    wl = mandelbrot_workload(16, 16, max_iter=32)
    block = wl.execute(10, 5)
    full = escape_counts(16, 16, max_iter=32).ravel()
    assert np.array_equal(block, full[10:15])


def test_mandelbrot_total_seconds_calibration():
    wl = mandelbrot_workload(32, 32, max_iter=64, total_seconds=7.5)
    assert wl.total_cost == pytest.approx(7.5)


def test_mandelbrot_is_strongly_imbalanced():
    wl = mandelbrot_workload(64, 64, max_iter=256)
    assert wl.cov > 1.0  # the paper's high-imbalance kernel


def test_render_ascii():
    art = render_ascii(escape_counts(32, 32, 32), width=40)
    lines = art.splitlines()
    assert len(lines) >= 4
    assert all(len(line) == 40 for line in lines)
    assert "@" in art  # in-set pixels hit the top of the palette


# ---------------------------------------------------------------------------
# PSIA
# ---------------------------------------------------------------------------


def test_synthetic_object_on_unit_sphere():
    points, normals = synthetic_object(500, seed=3)
    radii = np.linalg.norm(points, axis=1)
    assert np.allclose(radii, 1.0)
    assert np.allclose(points, normals)


def test_synthetic_object_cluster_increases_density():
    uniform_pts, _ = synthetic_object(2000, cluster_fraction=0.0, seed=4)
    clustered_pts, _ = synthetic_object(2000, cluster_fraction=0.4, seed=4)
    pole = np.array([0.0, 0.0, 1.0])
    near_pole = lambda pts: (pts @ pole > 0.9).sum()
    assert near_pole(clustered_pts) > near_pole(uniform_pts)


def test_synthetic_object_validation():
    with pytest.raises(ValueError):
        synthetic_object(0)
    with pytest.raises(ValueError):
        synthetic_object(10, cluster_fraction=1.5)


def test_neighbourhood_sizes_count_self():
    points, _ = synthetic_object(300, seed=5)
    sizes = neighbourhood_sizes(points, 0.5)
    assert sizes.min() >= 1  # every point is inside its own ball
    assert sizes.max() <= 300


@pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan"), float("inf")])
def test_support_radius_must_be_finite_and_positive(radius):
    with pytest.raises(ValueError, match="support_radius"):
        neighbourhood_sizes(np.zeros((3, 3)), radius)
    with pytest.raises(ValueError, match="support_radius"):
        psia_workload(n_points=16, support_radius=radius)


def test_spin_image_properties():
    points, normals = synthetic_object(400, seed=6)
    image = spin_image(points, normals, index=5, support_radius=0.5, bins=8)
    assert image.shape == (8, 8)
    assert image.sum() > 0
    # histogram counts points within support, excluding the point itself
    assert image.sum() < 400


def test_spin_image_excludes_self():
    points = np.array([[1.0, 0, 0], [0.99, 0.1, 0], [0.95, -0.1, 0.1]])
    points = points / np.linalg.norm(points, axis=1, keepdims=True)
    image = spin_image(points, points, 0, support_radius=1.0, bins=4)
    assert image.sum() == 2  # the two neighbours, not the point itself


def test_psia_workload_structure():
    wl = psia_workload(n_points=512, support_radius=0.3, point_time=1e-7)
    assert wl.n == 512
    assert wl.cov < 1.5  # mild imbalance by construction
    assert wl.meta["kernel"] == "psia"


def test_psia_executor_generates_real_images():
    wl = psia_workload(n_points=128, support_radius=0.5, bins=8)
    images = wl.execute(3, 4)
    assert images.shape == (4, 8, 8)
    assert images.sum() > 0


def test_psia_deterministic_given_seed():
    a = psia_workload(n_points=256, seed=9)
    b = psia_workload(n_points=256, seed=9)
    assert np.array_equal(a.costs, b.costs)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def test_constant_workload():
    wl = constant_workload(10, cost=2e-3)
    assert np.allclose(wl.costs, 2e-3)
    assert wl.cov == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        constant_workload(10, cost=0.0)


def test_uniform_workload_bounds():
    wl = uniform_workload(1000, low=1e-3, high=2e-3, seed=1)
    assert wl.costs.min() >= 1e-3
    assert wl.costs.max() <= 2e-3
    with pytest.raises(ValueError):
        uniform_workload(10, low=2e-3, high=1e-3)


def test_gaussian_workload_clipped_positive():
    wl = gaussian_workload(1000, mu=1e-4, sigma=1e-3, seed=2)
    assert wl.costs.min() > 0


def test_exponential_workload_cov_near_one():
    wl = exponential_workload(20000, mu=1e-3, seed=3)
    assert wl.cov == pytest.approx(1.0, abs=0.05)


def test_bimodal_workload_fraction():
    wl = bimodal_workload(10000, fast=1.0, slow=2.0, slow_fraction=0.25, seed=4)
    slow_count = (wl.costs == 2.0).sum()
    assert 0.2 < slow_count / 10000 < 0.3


def test_banded_workload_band_position():
    wl = banded_workload(100, fast=1.0, slow=9.0, band=(0.2, 0.4))
    assert np.all(wl.costs[20:40] == 9.0)
    assert np.all(wl.costs[:20] == 1.0)
    assert np.all(wl.costs[40:] == 1.0)
    with pytest.raises(ValueError):
        banded_workload(100, band=(0.5, 0.4))


def test_ramp_workload_direction():
    dec = ramp_workload(100, first=2e-3, last=1e-4)
    assert dec.costs[0] > dec.costs[-1]
    inc = ramp_workload(100, first=1e-4, last=2e-3)
    assert inc.costs[0] < inc.costs[-1]


def test_generators_are_seeded():
    a = uniform_workload(100, seed=7)
    b = uniform_workload(100, seed=7)
    c = uniform_workload(100, seed=8)
    assert np.array_equal(a.costs, b.costs)
    assert not np.array_equal(a.costs, c.costs)


# ---------------------------------------------------------------------------
# trace persistence
# ---------------------------------------------------------------------------


def test_save_load_trace_roundtrip(tmp_path):
    wl = mandelbrot_workload(16, 16, max_iter=32)
    path = save_trace(wl, tmp_path / "mb.npz")
    loaded = load_trace(path)
    assert loaded.name == wl.name
    assert np.array_equal(loaded.costs, wl.costs)
    assert loaded.meta["width"] == 16
    # executors are code, not data
    assert loaded.executor is None


def test_save_trace_adds_suffix(tmp_path):
    wl = constant_workload(5)
    path = save_trace(wl, tmp_path / "t")
    assert path.suffix == ".npz"
    assert path.exists()


def test_load_trace_rejects_bad_version(tmp_path):
    import json

    import numpy as np

    path = tmp_path / "bad.npz"
    meta = json.dumps({"name": "x", "meta": {}, "version": 999})
    np.savez(path, costs=np.ones(3), meta=np.bytes_(meta.encode()))
    with pytest.raises(ValueError, match="version"):
        load_trace(path)
