"""Periodic grid fields, spectral transforms, and function-space norms.

All computations live on the torus [0, L)^d sampled on a uniform grid with a
power-of-two number of points per axis.  Whole-space problems are emulated by
choosing L large enough that fields decay below tolerance at the boundary.

Spectral convention: this module runs every transform, the real-to-complex
one over the spatial axes with ``LEVYLAB_THREADS`` workers, so a real field
is stored by its half spectrum (indices 0..N/2 on the last axis).
``forward`` and ``inverse`` call pocketfft's ``r2c``/``c2r`` kernels, the
ones ``scipy.fft.rfftn``/``irfftn`` call, directly and with the same
arguments, so the bits are scipy's: on small grids the wrapper's per-call
set-up (dispatch, axis and shape checks) costs more than the transform, and
scipy.fft offers no plan that would skip it (the kernels' module is private;
tests/test_fieldgrid.py pins their signature against scipy's output).  Index
k carries xi = 2 pi k / L, k in [-N/2, N/2) per axis (``fftfreq``; the last
axis also keeps -pi/h at its Nyquist index N/2).  The one other transform
is the complex one inside ``nufft_type1``, which sums weighted nodes at
lattice frequencies.

Conjugation rule: a real operator has m(-xi) = conj m(xi), which gives
the Nyquist rule, adjoints and heat kernels.  Nyquist rule: m acts as the
average of m(xi) and m(xi'), xi' being xi with every Nyquist component
changed in sign (xi' = xi off the Nyquist planes), the Hermitian part of
m, so results equal Re(ifftn(m fftn f)).  The adjoint's multiplier is
conj m (``nonlocal_op.adjoint_apply``), and the heat kernel inverts
conj e^{-t psi} (``heatkernel.kernel``).

Dtype rule: the operator, heat and ETD2 multipliers of a symmetric measure
are real (float64), since its psi is real and even; those of any other
measure, and the Duhamel weights under a nonzero drift, are complex.
Spectra are always complex, and ``apply_multiplier`` takes either dtype,
so a real multiplier scales a spectrum without complex arithmetic on its
own values.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft
from scipy.fft._pocketfft.pypocketfft import c2r, r2c

from .errors import InvalidArgument


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus [0, side_length)^dim."""

    dim: int
    points_per_axis: int
    side_length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidArgument(f"dim must be 1, 2 or 3, got {self.dim}")
        if not _is_power_of_two(self.points_per_axis):
            raise InvalidArgument("points_per_axis must be a power of two")
        if not self.side_length > 0:
            raise InvalidArgument("side_length must be positive")

    @property
    def spacing(self) -> float:
        return self.side_length / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    def coordinates(self) -> np.ndarray:
        """Grid point coordinates, shape (*grid shape, dim)."""
        x = self.axis_coordinates()
        mesh = np.meshgrid(*([x] * self.dim), indexing="ij")
        return np.stack(mesh, axis=-1)

    def axis_frequencies(self) -> np.ndarray:
        """xi values per axis in fft ordering: 2 pi k / L, k in [-N/2, N/2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    @property
    def spectral_shape(self) -> tuple:
        return self.shape[:-1] + (self.points_per_axis // 2 + 1,)

    def frequencies(self) -> np.ndarray:
        """Frequency vectors, shape (*spectral_shape, dim)."""
        xi = self.axis_frequencies()
        axes = [xi] * (self.dim - 1) + [xi[:self.points_per_axis // 2 + 1]]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@dataclass(frozen=True)
class GridField:
    """Real m-component field sampled on a Grid.

    values has shape (components, N, ..., N) with ``dim`` spatial axes.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape == self.grid.shape:       # scalar convenience
            v = v[None, ...]
        if v.ndim != self.grid.dim + 1 or v.shape[1:] != self.grid.shape:
            raise InvalidArgument(
                f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidArgument("field values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, grid: Grid, components: int = 1) -> "GridField":
        return cls(grid, np.zeros((components,) + grid.shape))

    @classmethod
    def _view(cls, grid: Grid, values: np.ndarray) -> "GridField":
        """A GridField of checked read-only values, not copied or scanned."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", values)
        return field


@dataclass(frozen=True, init=False)
class SpaceTimeField:
    """Uniformly time-sampled trajectory: one read-only array ``values`` of
    shape (frames, m, *grid shape), frame j at time j * time_step."""

    time_step: float
    grid: Grid
    values: np.ndarray

    def __init__(self, time_step: float, frames):
        """Stack GridFields that share a grid and a component count."""
        frames = tuple(frames)
        if len({(fr.grid, fr.components) for fr in frames}) != 1:
            raise InvalidArgument("frames must be at least one, and share "
                                  "grid and components")
        self._take(time_step, frames[0].grid,
                   np.stack([fr.values for fr in frames]))

    @classmethod
    def from_array(cls, time_step: float, grid: Grid,
                   values) -> "SpaceTimeField":
        """The trajectory of values (frames, m, *grid shape); a float array
        is taken over, not copied, and made read-only."""
        stf = object.__new__(cls)
        stf._take(time_step, grid, values)
        return stf

    def _take(self, time_step: float, grid: Grid, values) -> None:
        v = np.asarray(values, dtype=float)
        if not time_step > 0:
            raise InvalidArgument("time_step must be positive")
        if v.ndim != grid.dim + 2 or v.shape[2:] != grid.shape or not len(v):
            raise InvalidArgument(f"trajectory shape {v.shape} is not "
                                  f"(frames >= 1, m, *{grid.shape})")
        if not np.all(np.isfinite(v)):
            raise InvalidArgument("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "time_step", time_step)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", v)

    @cached_property
    def frames(self) -> tuple:
        """The frames as GridFields that view ``values``."""
        return tuple(GridField._view(self.grid, v) for v in self.values)

    @property
    def components(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.time_step

    def final(self) -> GridField:
        return GridField._view(self.grid, self.values[-1])


# ---------------------------------------------------------------------------
# spectral core: transforms and multipliers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def thread_count() -> int:
    """Worker cap from LEVYLAB_THREADS (default: all cores); also the FFT
    worker count.  Read once per process: later changes to the variable
    have no effect."""
    raw = os.environ.get("LEVYLAB_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n > 0 else (os.cpu_count() or 1)


def _spatial_axes(a: np.ndarray, shape: tuple) -> range:
    """The last len(shape) axes of a, as the kernels take them, once its
    trailing shape is checked against shape."""
    lead = a.ndim - len(shape)
    if lead < 0 or a.shape[lead:] != shape:
        raise InvalidArgument(f"array shape {a.shape} does not end in {shape}")
    return range(lead, a.ndim)


def forward(field, grid: Grid | None = None) -> np.ndarray:
    """Half spectrum over the spatial (last dim) axes: of a GridField, shape
    (m, *spectral_shape), or of a real array sampled on ``grid``."""
    if grid is None:
        field, grid = field.values, field.grid
    if np.iscomplexobj(field):
        raise InvalidArgument("forward takes a real field")
    a = np.asarray(field, dtype=float)
    return r2c(a, _spatial_axes(a, grid.shape), True, 0, None,
               thread_count())              # e^{-i k x}, unnormalised


def inverse(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real field of a real or complex half spectrum (last dim axes)."""
    c = np.asarray(coeffs, dtype=complex)
    return c2r(c, _spatial_axes(c, grid.spectral_shape),
               grid.points_per_axis, False, 2, None,
               thread_count())              # e^{+i k x}, divided by N^dim


@lru_cache(maxsize=16)
def _nyquist_entries(grid: Grid) -> np.ndarray:
    """Read-only flat indices of the half-spectrum Nyquist entries (none on
    a one-point axis, whose index N/2 = 0 is the zero mode)."""
    n = grid.points_per_axis
    idx = np.flatnonzero((n > 1) & np.any(
        np.indices(grid.spectral_shape) == n // 2, axis=0))
    idx.flags.writeable = False
    return idx


def spectral_points(grid: Grid) -> np.ndarray:
    """Where multipliers are sampled, shape (n, dim): the half spectrum,
    flattened, then xi' for each Nyquist entry (in index order)."""
    xi = grid.frequencies().reshape(-1, grid.dim)
    flip = xi[_nyquist_entries(grid)]
    nyq_value = grid.axis_frequencies()[grid.points_per_axis // 2]
    return np.concatenate([xi, np.where(flip == nyq_value, -flip, flip)])


def resolve(grid: Grid, mult: np.ndarray) -> np.ndarray:
    """Half-spectrum values of a multiplier sampled at spectral_points
    (trailing axes allowed), under the Nyquist rule."""
    nyq = _nyquist_entries(grid)
    size = math.prod(grid.spectral_shape)
    out = mult[:size].copy()
    out[nyq] = 0.5 * (out[nyq] + mult[size:])
    return out.reshape(grid.spectral_shape + mult.shape[1:])


def apply_multiplier(field, mult: np.ndarray, grid: Grid | None = None):
    """m(D) f for a scalar multiplier, real or complex, sampled at
    spectral_points: of a GridField, as a GridField, or of a real array
    sampled on ``grid`` (any leading axes, such as a trajectory's frames),
    as an array, by one transform pair."""
    if grid is None:
        return GridField(field.grid,
                         apply_multiplier(field.values, mult, field.grid))
    coeffs = forward(field, grid)
    coeffs *= resolve(grid, mult)
    return inverse(grid, coeffs)


# ---------------------------------------------------------------------------
# non-uniform transform: node sums at lattice frequencies
# ---------------------------------------------------------------------------

NUFFT_EPS = 1e-8                  # tolerance, below the quadrature route's 1e-5..1e-3
NUFFT_BLOCK = 1 << 16             # (node, kernel point) pairs per spreading block
NUFFT_DECONV_CACHE_SIZE = 16      # kernel transforms, one per (width, fine size)
ES_BETA_PER_WIDTH = 2.30          # kernel shape beta / width, for 2x oversampling


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    z, w = np.polynomial.legendre.leggauss(n)
    z.flags.writeable = w.flags.writeable = False
    return z, w


def _es_kernel(z, beta: float):
    """exp(beta (sqrt(1 - z^2) - 1)) on [-1, 1]."""
    return np.exp(beta * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))


@lru_cache(maxsize=NUFFT_DECONV_CACHE_SIZE)
def _es_transform(width: int, n_fine: int) -> np.ndarray:
    """The width-w kernel's Fourier transform at modes 0..n_fine // 2 of an
    n_fine-point fine grid, w int_0^1 phi(z) cos(pi w k z / n_fine) dz by
    Gauss-Legendre; read-only."""
    z, zw = gauss_legendre(4 * width)
    z, zw = 0.5 * (z + 1.0), 0.5 * zw
    phi_hat = width * np.cos(np.outer(np.arange(n_fine // 2 + 1), z)
                             * (np.pi * width / n_fine)) @ (
        zw * _es_kernel(z, ES_BETA_PER_WIDTH * width))
    phi_hat.flags.writeable = False
    return phi_hat


def nufft_type1(side_length: float, nodes, weights, xi) -> np.ndarray:
    """sum_j c_j exp(i xi . y_j) for real weights c (m,) at nodes y (m, d),
    at frequencies xi (n, d) on the lattice 2 pi Z^d / L.

    A type-1 non-uniform FFT (Barnett, Magland & af Klinteberg 2019, SIAM
    J. Sci. Comput. 41:C479): the nodes, taken modulo L, are spread onto a
    twice-oversampled periodic grid with the exponential-of-semicircle
    kernel, that grid is transformed once, and each mode is divided by the
    kernel's Fourier transform.  The tolerance eps = NUFFT_EPS sets the
    kernel's width w = ceil(log10(1/eps)) + 1 fine points and its shape
    beta = 2.30 w (their rule; w = 9 at 1e-8, 13 at 1e-12), and the error
    is about eps times sum_j |c_j|.  Spreading costs w^d per node."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    xi = np.asarray(xi, dtype=float)
    dim = xi.shape[-1]
    k_real = xi * (side_length / (2.0 * np.pi))
    k = np.rint(k_real)
    if not np.all(np.abs(k_real - k) <= 1e-9):
        raise InvalidArgument("frequencies must lie on the lattice 2 pi Z^d / L")
    k = k.astype(np.int64)
    w = math.ceil(-math.log10(NUFFT_EPS)) + 1
    beta = ES_BETA_PER_WIDTH * w
    k_max = int(np.abs(k).max(initial=0))
    n_f = scipy.fft.next_fast_len(max(2 * (2 * k_max + 1), 2 * w))

    # spread each node onto the w^d fine points around it, built from the
    # last axis so that the largest stage runs inner loops of w^{d-1}
    # entries, not w.  The full-size last stage goes to buffers that every
    # block reuses: fresh arrays per block can make the allocator hand their
    # pages back and fault them in again (6e6 page faults, twice the time,
    # in a first 16^3 call)
    fine = np.zeros(n_f ** dim)
    offsets = np.arange(w)
    per_block = max(1, NUFFT_BLOCK // w ** dim)
    size = per_block * w ** dim if dim > 1 else 0     # d = 1 needs none
    flat_buf, val_buf = np.empty(size, dtype=np.int64), np.empty(size)
    for j0 in range(0, len(weights), per_block):
        u = (nodes[j0:j0 + per_block] * (n_f / side_length)) % n_f
        start = np.ceil(u - 0.5 * w)
        ker = _es_kernel((start[..., None] + offsets - u[..., None]) * (2.0 / w),
                         beta)                                    # (b, d, w)
        ker[:, 0] *= weights[j0:j0 + per_block, None]
        idx = (start.astype(np.int64)[..., None] + offsets) % n_f
        b = len(u)
        flat, val = idx[:, -1], ker[:, -1]        # over axes a+1..d-1: (b, w^...)
        for a in range(dim - 2, -1, -1):
            grown = (b, w, flat.shape[1])
            last = a == 0
            flat = np.add((idx[:, a] * n_f ** (dim - 1 - a))[..., None],
                          flat[:, None], out=(flat_buf[:math.prod(grown)]
                                              .reshape(grown) if last else None))
            val = np.multiply(ker[:, a, :, None], val[:, None], out=(
                val_buf[:math.prod(grown)].reshape(grown) if last else None))
            flat, val = flat.reshape(b, -1), val.reshape(b, -1)
        fine += np.bincount(flat.ravel(), val.ravel(), minlength=n_f ** dim)
    modes = scipy.fft.ifftn(fine.reshape((n_f,) * dim), norm="forward",
                            workers=thread_count())

    phi_hat = _es_transform(w, n_f)
    return modes[tuple((k % n_f).T)] / np.prod(phi_hat[np.abs(k)], axis=-1)


def spectral_l2(grid: Grid, coeffs: np.ndarray) -> float:
    """Riemann-sum L^2 norm of the real field with half spectrum coeffs
    (Parseval over the full spectrum, every component)."""
    n = grid.points_per_axis
    # weight 2 on the last axis but 1 on its columns 0 and N/2, which are
    # the one column of a 1-point axis
    edges = coeffs[..., ::max(1, n // 2)]
    total = 2.0 * np.vdot(coeffs, coeffs).real - np.vdot(edges, edges).real
    return float(np.sqrt(total * grid.cell_volume / n ** grid.dim))


def refine(field: GridField, factor: int = 2) -> GridField:
    """Spectral upsampling to factor*N points per axis (trigonometric
    interpolation, exact below the Nyquist mode; a Nyquist coefficient is
    split between xi and xi' by the Nyquist rule)."""
    if factor < 1 or (factor & (factor - 1)):
        raise InvalidArgument("factor must be a power of two")
    if factor == 1:
        return field
    g = field.grid
    n, n2 = g.points_per_axis, factor * g.points_per_axis
    fine = Grid(g.dim, n2, g.side_length)
    nyq = _nyquist_entries(g)
    co = forward(field).reshape(field.components, -1) * factor ** g.dim
    co[:, nyq] *= 0.5
    # each coefficient at its xi, each Nyquist one once more at xi'; a
    # last-axis -N/2 has no slot in the half spectrum (xi' fills its partner)
    co = np.concatenate([co, co[:, nyq]], axis=1)
    k = np.rint(spectral_points(g) * (g.side_length / (2 * np.pi)))
    keep = k[:, -1] >= 0
    out = np.zeros((field.components,) + fine.spectral_shape, dtype=complex)
    out[(slice(None),) + tuple((k[keep].astype(int) % n2).T)] = co[:, keep]
    return GridField(fine, inverse(fine, out))


def coarsen_samples(field: GridField, factor: int = 2) -> GridField:
    """Subsample every factor-th point per axis (inverse of refine for
    fields band-limited to the coarse grid)."""
    g = field.grid
    if factor < 1 or g.points_per_axis % factor:
        raise InvalidArgument("factor must be >= 1 and divide the point count")
    sl = (slice(None),) + (slice(None, None, factor),) * g.dim
    coarse = Grid(g.dim, g.points_per_axis // factor, g.side_length)
    return GridField(coarse, field.values[sl])


@lru_cache(maxsize=16)
def gradient_symbol(grid: Grid) -> np.ndarray:
    """i xi on the half spectrum, shape (*spectral_shape, dim), read-only."""
    ik = resolve(grid, 1j * spectral_points(grid))
    ik.flags.writeable = False
    return ik


def partial_derivatives(grid: Grid, coeffs: np.ndarray):
    """Spectral derivatives, (m, *grid shape) each, of the field with half
    spectrum coeffs: one transform per axis (batched: 2x/field at 128^2)."""
    ik = gradient_symbol(grid)
    return (inverse(grid, coeffs * ik[..., j]) for j in range(grid.dim))


def gradient(field: GridField) -> np.ndarray:
    """Spectral gradient, shape (m, dim, *grid shape)."""
    out = np.empty((field.components, field.grid.dim) + field.grid.shape)
    for j, dj in enumerate(partial_derivatives(field.grid, forward(field))):
        out[:, j] = dj
    return out


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(field: GridField, p: float) -> float:
    """Riemann-sum L^p norm; p = inf gives the max norm."""
    return lp_norms(field.grid, field.values[None], p)[0]


def lp_norms(grid: Grid, frames: np.ndarray, p: float) -> list:
    """lp_norm of each field frames[j], frames of shape (n, m, *grid shape),
    by one reduction over all of them."""
    if p != np.inf and p < 1:
        raise InvalidArgument(f"p must be >= 1 or inf, got {p}")
    axes = tuple(range(1, np.ndim(frames)))
    if p == np.inf:
        return [float(s) for s in np.max(np.abs(frames), axis=axes)]
    sums = np.sum(np.abs(frames) ** p, axis=axes)
    return [float((grid.cell_volume * s) ** (1.0 / p)) for s in sums]


def bessel_norm(field: GridField, alpha: float, p: float) -> float:
    """|| (I - Laplace)^{alpha/2} u ||_p via the (1+|xi|^2)^{alpha/2} multiplier."""
    if alpha < 0:
        raise InvalidArgument("alpha must be nonnegative")
    if alpha == 0:
        return lp_norm(field, p)
    xi2 = np.sum(spectral_points(field.grid) ** 2, axis=-1)
    weight = (1.0 + xi2) ** (alpha / 2.0)
    return lp_norm(apply_multiplier(field, weight), p)


# ---------------------------------------------------------------------------
# serialization: flat binary and CSV (layouts documented in docs/formats.md)
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<qqdq")         # dim, N, L, m


def _write_field(fh, field: GridField) -> None:
    g = field.grid
    fh.write(_HEADER.pack(g.dim, g.points_per_axis, g.side_length,
                          field.components))
    fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def _header_grid(dim: int, n: int, length: float, m: int) -> Grid:
    """The grid of a field file's header dim,N,L,m, which must give at least
    one component."""
    if m < 1:
        raise InvalidArgument(f"field header gives {m} components")
    return Grid(dim, n, length)


def _check_bytes_left(fh, size: int) -> None:
    """Raise unless a binary file holds size more bytes: a header's false
    count raises rather than asking ``read`` for that many."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise InvalidArgument(f"truncated file: {left} of {size} bytes")


def _read_exactly(fh, size: int) -> bytes:
    _check_bytes_left(fh, size)
    return fh.read(size)


def _read_fields(fh, count: int):
    """The grid and the values (count, m, *grid shape) of the next count
    fields of a binary file, which must all have the first one's header."""
    header = _read_exactly(fh, _HEADER.size)
    dim, n, length, m = _HEADER.unpack(header)
    grid = _header_grid(dim, n, length, m)
    record = _HEADER.size + 8 * m * n ** dim
    _check_bytes_left(fh, count * record - _HEADER.size)
    fh.seek(-_HEADER.size, os.SEEK_CUR)
    fields = np.frombuffer(fh.read(count * record), np.dtype(
        [("header", f"V{_HEADER.size}"), ("values", "<f8", (m,) + grid.shape)]))
    if fields["header"].tobytes() != header * count:
        raise InvalidArgument("a field header differs from the first one")
    return grid, fields["values"]


def save_field(field: GridField, path) -> None:
    """Binary layout: little-endian header (int64 dim, int64 N, float64 L,
    int64 m) followed by m * N^dim row-major float64 values."""
    with open(path, "wb") as fh:
        _write_field(fh, field)


def load_field(path) -> GridField:
    with open(path, "rb") as fh:
        grid, values = _read_fields(fh, 1)
    return GridField(grid, values[0])


def save_field_csv(field: GridField, path) -> None:
    """CSV layout: header row dim,N,L,m; then one row per value:
    component, index_0, ..., index_{dim-1}, value (17 significant digits)."""
    g = field.grid
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([g.dim, g.points_per_axis, repr(g.side_length),
                    field.components])
        for c in range(field.components):
            for idx in np.ndindex(*g.shape):
                w.writerow([c, *idx, repr(float(field.values[(c,) + idx]))])


def load_field_csv(path) -> GridField:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) != 4:
        raise InvalidArgument("a CSV field starts with the header row "
                              "dim,N,L,m")
    dim, n, length, m = int(rows[0][0]), int(rows[0][1]), float(rows[0][2]), int(rows[0][3])
    grid = _header_grid(dim, n, length, m)
    if len(rows) - 1 != m * n ** dim:
        raise InvalidArgument(f"expected {m * n ** dim} value rows, found "
                              f"{len(rows) - 1}")
    vals = np.full((m,) + grid.shape, np.nan)     # nan: not yet given
    for c, *idx, val in rows[1:]:
        key = (int(c),) + tuple(int(i) for i in idx)
        inside = len(key) == dim + 1 and all(
            0 <= k < size for k, size in zip(key, vals.shape))
        if not inside or not np.isnan(vals[key]):
            raise InvalidArgument(f"index {key} outside {vals.shape} "
                                  f"or given twice")
        vals[key] = float(val)
    return GridField(grid, vals)


def save_trajectory(stf: SpaceTimeField, path) -> None:
    """Binary layout: little-endian int64 frame count, float64 time step,
    then each frame in save_field layout."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qd", len(stf.frames), stf.time_step))
        for fr in stf.frames:
            _write_field(fh, fr)


def load_trajectory(path) -> SpaceTimeField:
    """A trajectory file, read as one block once its size is checked."""
    with open(path, "rb") as fh:
        n_frames, dt = struct.unpack("<qd", _read_exactly(fh, 16))
        if n_frames < 1:
            raise InvalidArgument(f"trajectory header gives {n_frames} frames")
        grid, values = _read_fields(fh, n_frames)
    return SpaceTimeField.from_array(dt, grid, values)
