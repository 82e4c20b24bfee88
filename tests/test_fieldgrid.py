"""Grid, field, transform, norm, and serialization tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import fieldgrid as fg
from levylab.errors import InvalidArgument
from levylab.fieldgrid import Grid, GridField, SpaceTimeField


def _sin_field(n=128, length=2 * np.pi, k=1):
    g = Grid(1, n, length)
    x = g.coordinates()[..., 0]
    return GridField(g, np.sin(2 * np.pi * k * x / length)[None])


# ---------------------------------------------------------------------------
# grid basics
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(InvalidArgument):
        Grid(4, 64, 1.0)
    with pytest.raises(InvalidArgument):
        Grid(1, 100, 1.0)           # not a power of two
    with pytest.raises(InvalidArgument):
        Grid(1, 64, -1.0)


def test_grid_geometry():
    g = Grid(2, 64, 3.0)
    assert g.spacing == pytest.approx(3.0 / 64)
    assert g.shape == (64, 64)
    assert g.cell_volume == pytest.approx((3.0 / 64) ** 2)
    coords = g.coordinates()
    assert coords.shape == (64, 64, 2)
    assert coords[0, 0, 0] == 0.0
    assert coords[-1, -1, 0] == pytest.approx(3.0 - 3.0 / 64)


def test_frequencies_are_fft_ordered():
    g = Grid(1, 8, 2 * np.pi)
    np.testing.assert_allclose(g.axis_frequencies(),
                               np.fft.fftfreq(8, d=2 * np.pi / 8) * 2 * np.pi)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_lp_norm_closed_forms():
    f = _sin_field(256)
    # ||sin||_2 on [0,2pi) = sqrt(pi), ||sin||_1 = 4, ||sin||_inf = 1
    assert fg.lp_norm(f, 2) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    # the Riemann sum of |sin| carries an O(N^-2) kink error
    assert fg.lp_norm(f, 1) == pytest.approx(4.0, rel=1e-4)
    assert fg.lp_norm(f, np.inf) == pytest.approx(1.0, rel=1e-3)


def test_lp_norm_rejects_small_p():
    with pytest.raises(InvalidArgument):
        fg.lp_norm(_sin_field(), 0.5)


@given(c=st.floats(-50, 50), p=st.sampled_from([1.0, 2.0, 3.5, np.inf]))
@settings(max_examples=40, deadline=None)
def test_lp_norm_homogeneity(c, p):
    f = _sin_field(64)
    scaled = GridField(f.grid, c * f.values)
    assert fg.lp_norm(scaled, p) == pytest.approx(
        abs(c) * fg.lp_norm(f, p), rel=1e-10, abs=1e-12)


@given(seed=st.integers(0, 1000), p=st.sampled_from([1.0, 2.0, 4.0, np.inf]))
@settings(max_examples=40, deadline=None)
def test_lp_norm_triangle_inequality(seed, p):
    rng = np.random.default_rng(seed)
    g = Grid(1, 64, 2 * np.pi)
    u = GridField(g, rng.normal(size=(1, 64)))
    v = GridField(g, rng.normal(size=(1, 64)))
    s = GridField(g, u.values + v.values)
    assert fg.lp_norm(s, p) <= fg.lp_norm(u, p) + fg.lp_norm(v, p) + 1e-12


def test_bessel_norm_reduces_to_lp():
    f = _sin_field(128)
    assert fg.bessel_norm(f, 0.0, 2) == fg.lp_norm(f, 2)


def test_bessel_norm_single_mode_closed_form():
    # (1 + k^2)^{alpha/2} scaling on a pure mode
    f = _sin_field(128, k=3)
    alpha = 1.4
    assert fg.bessel_norm(f, alpha, 2) == pytest.approx(
        (1 + 9.0) ** (alpha / 2) * fg.lp_norm(f, 2), rel=1e-10)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_forward_inverse_round_trip(seed):
    rng = np.random.default_rng(seed)
    g = Grid(2, 16, 1.0)
    u = GridField(g, rng.normal(size=(2, 16, 16)))
    back = fg.inverse(g, fg.forward(u))
    np.testing.assert_allclose(back, u.values, atol=1e-12)


def test_refine_then_coarsen_identity():
    rng = np.random.default_rng(3)
    g = Grid(1, 32, 2.0)
    u = GridField(g, rng.normal(size=(1, 32)))
    up = fg.refine(u, 2)
    assert up.grid.points_per_axis == 64
    back = fg.coarsen_samples(up, 2)
    np.testing.assert_allclose(back.values, u.values, atol=1e-12)


def test_refine_is_trigonometric_interpolation():
    g = Grid(1, 32, 2 * np.pi)
    x = g.coordinates()[..., 0]
    u = GridField(g, np.cos(3 * x)[None])
    up = fg.refine(u, 4)
    xf = up.grid.coordinates()[..., 0]
    np.testing.assert_allclose(up.values[0], np.cos(3 * xf), atol=1e-12)


def test_gradient_closed_form():
    g = Grid(2, 64, 2 * np.pi)
    c = g.coordinates()
    u = GridField(g, (np.sin(c[..., 0]) * np.cos(2 * c[..., 1]))[None])
    grad = fg.gradient(u)
    assert grad.shape == (1, 2, 64, 64)
    np.testing.assert_allclose(
        grad[0, 0], np.cos(c[..., 0]) * np.cos(2 * c[..., 1]), atol=1e-10)
    np.testing.assert_allclose(
        grad[0, 1], -2 * np.sin(c[..., 0]) * np.sin(2 * c[..., 1]),
        atol=1e-10)


# ---------------------------------------------------------------------------
# space-time fields
# ---------------------------------------------------------------------------

def test_space_time_field_accessors():
    g = Grid(1, 16, 1.0)
    frames = tuple(GridField(g, np.full((1, 16), float(j)))
                   for j in range(5))
    stf = SpaceTimeField(0.1, frames)
    assert stf.grid == g
    np.testing.assert_allclose(stf.times, [0.0, 0.1, 0.2, 0.3, 0.4])
    assert float(stf.final().values[0, 0]) == 4.0


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,m", [(1, 1), (2, 3)])
def test_binary_field_round_trip(tmp_path, dim, m):
    rng = np.random.default_rng(7)
    g = Grid(dim, 16, 2.5)
    u = GridField(g, rng.normal(size=(m,) + g.shape))
    path = tmp_path / "f.bin"
    fg.save_field(u, path)
    back = fg.load_field(path)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, u.values)


def test_csv_field_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    g = Grid(2, 8, 1.75)
    u = GridField(g, rng.normal(size=(2,) + g.shape))
    path = tmp_path / "f.csv"
    fg.save_field_csv(u, path)
    back = fg.load_field_csv(path)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, u.values)


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    g = Grid(1, 32, 1.0)
    frames = tuple(GridField(g, rng.normal(size=(2, 32))) for _ in range(4))
    stf = SpaceTimeField(0.25, frames)
    path = tmp_path / "t.traj"
    fg.save_trajectory(stf, path)
    back = fg.load_trajectory(path)
    assert back.time_step == 0.25
    assert len(back.frames) == 4
    for a, b in zip(back.frames, frames):
        np.testing.assert_array_equal(a.values, b.values)
