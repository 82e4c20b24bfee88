"""Grid, field, transform, norm, and serialization tests."""

import math
import struct

import numpy as np
import pytest
import scipy.fft
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


def _layouts(a):
    """a, then equal values in Fortran order, as a strided view and as a
    read-only view."""
    strided = np.repeat(a, 2, axis=-1)[..., ::2]
    frozen = a.view()
    frozen.flags.writeable = False
    return a, np.asfortranarray(a), strided, frozen


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)],
                         ids=["scalar", "m", "frames-m"])
@pytest.mark.parametrize("n", [1, 2, 8, 16])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transforms_are_scipy_rfftn_irfftn_bit_for_bit(dim, n, lead):
    # forward/inverse call pocketfft's r2c/c2r with scipy's arguments: the
    # same bits as scipy.fft for any layout, and the input left as it was;
    # a change of the kernels' private signature fails here
    g = Grid(dim, n, 3.0)
    axes = tuple(range(-dim, 0))
    workers = fg.thread_count()
    rng = np.random.default_rng(100 * dim + n)
    u = rng.normal(size=lead + g.shape)
    spectrum = scipy.fft.rfftn(u, axes=axes, workers=workers)
    real_half = rng.normal(size=lead + g.spectral_shape)
    for x in _layouts(u):
        before = x.copy()
        _assert_same_bits(fg.forward(x, g),
                          scipy.fft.rfftn(x, axes=axes, workers=workers))
        np.testing.assert_array_equal(x, before)
    for c in _layouts(spectrum) + _layouts(real_half):
        before = c.copy()
        _assert_same_bits(fg.inverse(g, c), scipy.fft.irfftn(
            c, s=g.shape, axes=axes, workers=workers))
        np.testing.assert_array_equal(c, before)


def test_inverse_rejects_a_spectrum_of_another_size():
    # scipy's s= would pad or crop it to a (3, 16, 16) field
    with pytest.raises(InvalidArgument):
        fg.inverse(Grid(2, 16, 1.0), np.zeros((3, 16, 5), dtype=complex))


def test_forward_rejects_a_field_of_another_shape():
    with pytest.raises(InvalidArgument):
        fg.forward(np.zeros((3, 16, 8)), Grid(2, 16, 1.0))


def test_forward_rejects_a_complex_field():
    with pytest.raises(InvalidArgument):
        fg.forward(np.zeros((3, 16, 16), dtype=complex), Grid(2, 16, 1.0))


def test_forward_of_a_field_takes_only_its_own_grid():
    f = _sin_field(16)
    assert fg.forward(f, f.grid) is fg.forward(f)
    assert fg.forward(f, Grid(1, 16, 2 * np.pi)) is fg.forward(f)
    for other in (Grid(1, 16, 1.0), Grid(1, 32, 2 * np.pi)):
        with pytest.raises(InvalidArgument):
            fg.forward(f, other)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 16])
def test_spectral_l2_is_the_riemann_sum_norm(dim, n):
    # Parseval on the half spectrum; for N = 1 the columns 0 and N/2 of the
    # last axis are one column
    g = Grid(dim, n, 3.0)
    u = np.random.default_rng(10 * dim + n).normal(size=(2,) + g.shape)
    assert fg.spectral_l2(g, fg.forward(u, g)) == pytest.approx(
        math.sqrt(np.sum(u ** 2) * g.cell_volume), rel=1e-13)


def test_refine_then_coarsen_identity():
    rng = np.random.default_rng(3)
    g = Grid(1, 32, 2.0)
    u = GridField(g, rng.normal(size=(1, 32)))
    up = fg.refine(u, 2)
    assert up.grid.points_per_axis == 64
    back = fg.coarsen_samples(up, 2)
    np.testing.assert_allclose(back.values, u.values, atol=1e-12)


@pytest.mark.parametrize("factor", [2, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_refine_keeps_a_constant_on_a_one_point_grid(dim, factor):
    # the index N/2 of a one-point axis is its zero mode, not a Nyquist mode
    u = GridField(Grid(dim, 1, 2 * np.pi), np.full((1,) * (dim + 1), 3.0))
    up = fg.refine(u, factor)
    np.testing.assert_allclose(up.values, 3.0, rtol=1e-15)
    np.testing.assert_array_equal(fg.coarsen_samples(up, factor).values,
                                  u.values)


@pytest.mark.parametrize("factor", [0, -2, 3])
def test_coarsen_rejects_factors_that_are_not_divisors(factor):
    g = Grid(1, 32, 2.0)
    with pytest.raises(InvalidArgument):
        fg.coarsen_samples(GridField(g, np.zeros((1, 32))), factor)


def test_refine_is_trigonometric_interpolation():
    g = Grid(1, 32, 2 * np.pi)
    x = g.coordinates()[..., 0]
    u = GridField(g, np.cos(3 * x)[None])
    up = fg.refine(u, 4)
    xf = up.grid.coordinates()[..., 0]
    np.testing.assert_allclose(up.values[0], np.cos(3 * xf), atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_resolve_matches_a_boolean_mask_oracle(dim):
    # the Nyquist rule through a mask of the whole half spectrum, with and
    # without trailing axes
    g = Grid(dim, 8, 3.0)
    nyq = np.any(np.indices(g.spectral_shape) == 4, axis=0)
    n = nyq.size + np.count_nonzero(nyq)
    assert len(fg.spectral_points(g)) == n
    assert not fg._nyquist_entries(g).flags.writeable
    rng = np.random.default_rng(dim)
    for trailing in ((), (3,), (2, 3)):
        mult = (rng.normal(size=(n,) + trailing)
                + 1j * rng.normal(size=(n,) + trailing))
        want = mult[:nyq.size].reshape(nyq.shape + trailing).copy()
        want[nyq] = 0.5 * (want[nyq] + mult[nyq.size:])
        np.testing.assert_array_equal(fg.resolve(g, mult), want)


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


@pytest.mark.parametrize("text", [
    "",
    "1,8\n",
    "1,4,6.25,1,9\n" + "".join(f"0,{i},{i}\n" for i in range(4)),
], ids=["empty", "two-fields", "five-fields"])
def test_csv_header_must_be_four_fields(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(InvalidArgument, match="header row"):
        fg.load_field_csv(path)


@pytest.mark.parametrize("m", [0, -1])
def test_field_header_needs_a_component(tmp_path, m):
    binary, text = tmp_path / "f.bin", tmp_path / "f.csv"
    binary.write_bytes(struct.pack("<qqdq", 1, 8, 1.0, m) + bytes(64))
    text.write_text(f"1,8,1.0,{m}\n")
    for load, path in ((fg.load_field, binary), (fg.load_field_csv, text)):
        with pytest.raises(InvalidArgument, match=f"gives {m} components"):
            load(path)


def test_binary_header_is_checked_against_the_file_size(tmp_path):
    # 2^20 points per axis in d = 3 would be 2^63 bytes of values
    path = tmp_path / "f.bin"
    path.write_bytes(struct.pack("<qqdq", 3, 2 ** 20, 2 * np.pi, 1))
    with pytest.raises(InvalidArgument, match="truncated file: 0 of"):
        fg.load_field(path)


def _trajectory_bytes(n_frames, *headers):
    """A trajectory file's bytes: the count header, then one frame of zeros
    per field header (dim, N, L, m)."""
    out = struct.pack("<qd", n_frames, 0.5)
    for dim, n, length, m in headers:
        out += struct.pack("<qqdq", dim, n, length, m) + bytes(8 * m * n ** dim)
    return out


def test_trajectory_frame_count_is_checked_before_allocating(tmp_path):
    # 2^40 frames of 8 values would ask for 64 TiB
    path = tmp_path / "t.traj"
    path.write_bytes(_trajectory_bytes(2 ** 40, (1, 8, 1.0, 1)))
    with pytest.raises(InvalidArgument, match="truncated file"):
        fg.load_trajectory(path)


@pytest.mark.parametrize("n_frames", [0, -1])
def test_trajectory_needs_a_frame(tmp_path, n_frames):
    path = tmp_path / "t.traj"
    path.write_bytes(_trajectory_bytes(n_frames, (1, 8, 1.0, 1)))
    with pytest.raises(InvalidArgument, match=f"gives {n_frames} frames"):
        fg.load_trajectory(path)


def test_trajectory_frames_must_share_the_first_header(tmp_path):
    # the same 8 values per frame: 4 points and 2 components, then 8 and 1
    path = tmp_path / "t.traj"
    path.write_bytes(_trajectory_bytes(2, (1, 4, 1.0, 2), (1, 8, 1.0, 1)))
    with pytest.raises(InvalidArgument, match="header differs"):
        fg.load_trajectory(path)


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
