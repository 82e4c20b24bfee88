"""Periodic grid fields, spectral transforms, and function-space norms.

All computations live on the torus [0, L)^d sampled on a uniform grid with a
power-of-two number of points per axis.  Whole-space problems are emulated by
choosing L large enough that fields decay below tolerance at the boundary.

Spectral convention: this module runs every transform, ``scipy.fft.rfftn``
over the spatial axes with ``LEVYLAB_THREADS`` workers, so a real field is
stored by its half spectrum (indices 0..N/2 on the last axis).  Index k
carries xi = 2 pi k / L, k in [-N/2, N/2) per axis (``fftfreq``; the last
axis also keeps -pi/h at its Nyquist index N/2).  The one other transform
is the complex one inside ``nufft_type1``, which sums weighted nodes at
lattice frequencies.

Nyquist rule: a multiplier m acts as the average of m(xi) and m(xi'), xi'
being xi with every Nyquist component changed in sign (xi' = xi off the
Nyquist planes).  For a real operator, m(-xi) = conj m(xi), this is the
Hermitian part of m, so results equal Re(ifftn(m fftn f)).
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

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

    def component(self, i: int) -> np.ndarray:
        return self.values[i]

    @classmethod
    def zeros(cls, grid: Grid, components: int = 1) -> "GridField":
        return cls(grid, np.zeros((components,) + grid.shape))


@dataclass(frozen=True)
class SpaceTimeField:
    """Uniformly time-sampled trajectory of GridFields on a common grid."""

    time_step: float
    frames: tuple

    def __post_init__(self):
        if not self.time_step > 0:
            raise InvalidArgument("time_step must be positive")
        frames = tuple(self.frames)
        if not frames:
            raise InvalidArgument("at least one frame is required")
        g0, m0 = frames[0].grid, frames[0].components
        for fr in frames[1:]:
            if fr.grid != g0 or fr.components != m0:
                raise InvalidArgument("frames must share grid and components")
        object.__setattr__(self, "frames", frames)

    @property
    def grid(self) -> Grid:
        return self.frames[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.frames)) * self.time_step

    def final(self) -> GridField:
        return self.frames[-1]


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


def forward(field, grid: Grid | None = None) -> np.ndarray:
    """Half spectrum over the spatial (last dim) axes: of a GridField, shape
    (m, *spectral_shape), or of a real array sampled on ``grid``."""
    if grid is None:
        field, grid = field.values, field.grid
    return scipy.fft.rfftn(field, axes=tuple(range(-grid.dim, 0)),
                           workers=thread_count())


def inverse(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real field of a half spectrum (over the last dim axes)."""
    return scipy.fft.irfftn(coeffs, s=grid.shape,
                            axes=tuple(range(-grid.dim, 0)),
                            workers=thread_count())


@lru_cache(maxsize=16)
def _nyquist_entries(grid: Grid) -> np.ndarray:
    """Mask of the half-spectrum entries with a Nyquist component."""
    return np.any(np.indices(grid.spectral_shape) == grid.points_per_axis // 2,
                  axis=0)


def spectral_points(grid: Grid) -> np.ndarray:
    """Where multipliers are sampled, shape (n, dim): the half spectrum,
    flattened, then xi' for each Nyquist entry (in mask order)."""
    xi = grid.frequencies()
    flip = xi[_nyquist_entries(grid)]
    nyq_value = grid.axis_frequencies()[grid.points_per_axis // 2]
    return np.concatenate([xi.reshape(-1, grid.dim),
                           np.where(flip == nyq_value, -flip, flip)])


def resolve(grid: Grid, mult: np.ndarray) -> np.ndarray:
    """Half-spectrum values of a multiplier sampled at spectral_points
    (trailing axes allowed), under the Nyquist rule."""
    nyq = _nyquist_entries(grid)
    out = mult[:nyq.size].reshape(nyq.shape + mult.shape[1:]).copy()
    out[nyq] = 0.5 * (out[nyq] + mult[nyq.size:])
    return out


def periodic_samples(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Samples of the transform of a real grid kernel, given on the half
    spectrum: a trigonometric polynomial on the grid, equal at xi and xi'."""
    nyq = _nyquist_entries(grid)
    return np.concatenate([values.reshape(nyq.size), values[nyq]])


def apply_multiplier(field: GridField, mult: np.ndarray) -> GridField:
    """m(D) f for a scalar multiplier sampled at spectral_points."""
    g = field.grid
    return GridField(g, inverse(g, forward(field) * resolve(g, mult)))


# ---------------------------------------------------------------------------
# non-uniform transform: node sums at lattice frequencies
# ---------------------------------------------------------------------------

NUFFT_WIDTH = 13                  # kernel support in fine-grid points (1e-12)
NUFFT_BETA = 2.30 * NUFFT_WIDTH   # exponential-of-semicircle shape parameter
NUFFT_BLOCK = 1 << 16             # (node, kernel point) pairs per spreading block


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    z, w = np.polynomial.legendre.leggauss(n)
    z.flags.writeable = w.flags.writeable = False
    return z, w


def _es_kernel(z):
    """exp(beta (sqrt(1 - z^2) - 1)) on [-1, 1]."""
    return np.exp(NUFFT_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))


def nufft_type1(side_length: float, nodes, weights, xi) -> np.ndarray:
    """sum_j c_j exp(i xi . y_j) for real weights c (m,) at nodes y (m, d),
    at frequencies xi (n, d) on the lattice 2 pi Z^d / L.

    A type-1 non-uniform FFT (Barnett, Magland & af Klinteberg 2019): the
    nodes, taken modulo L, are spread onto a twice-oversampled periodic grid
    with the exponential-of-semicircle kernel, that grid is transformed
    once, and each mode is divided by the kernel's Fourier transform.  The
    error is about 1e-12 times sum_j |c_j|."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    xi = np.asarray(xi, dtype=float)
    dim = xi.shape[-1]
    k_real = xi * (side_length / (2.0 * np.pi))
    k = np.rint(k_real)
    if not np.all(np.abs(k_real - k) <= 1e-9):
        raise InvalidArgument("frequencies must lie on the lattice 2 pi Z^d / L")
    k = k.astype(np.int64)
    w = NUFFT_WIDTH
    k_max = int(np.abs(k).max(initial=0))
    n_f = scipy.fft.next_fast_len(max(2 * (2 * k_max + 1), 2 * w))

    # spread each node onto the w^d fine points around it.  The full-size
    # last stage goes to buffers that every block reuses: fresh arrays per
    # block can make the allocator hand their pages back and fault them in
    # again (6e6 page faults, twice the time, in a first 16^3 call)
    fine = np.zeros(n_f ** dim)
    offsets = np.arange(w)
    per_block = max(1, NUFFT_BLOCK // w ** dim)
    size = per_block * w ** dim if dim > 1 else 0     # d = 1 needs none
    flat_buf, val_buf = np.empty(size, dtype=np.int64), np.empty(size)
    for j0 in range(0, len(weights), per_block):
        u = (nodes[j0:j0 + per_block] * (n_f / side_length)) % n_f
        start = np.ceil(u - 0.5 * w)
        ker = _es_kernel((start[..., None] + offsets - u[..., None]) * (2.0 / w))
        idx = (start.astype(np.int64)[..., None] + offsets) % n_f   # (b, d, w)
        flat, val = idx[:, 0], weights[j0:j0 + per_block, None] * ker[:, 0]
        for a in range(1, dim):
            shape, grown = (-1,) + (1,) * a + (w,), flat.shape + (w,)
            last = a == dim - 1
            flat = np.add(flat[..., None] * n_f, idx[:, a].reshape(shape), out=(
                flat_buf[:flat.size * w].reshape(grown) if last else None))
            val = np.multiply(val[..., None], ker[:, a].reshape(shape), out=(
                val_buf[:val.size * w].reshape(grown) if last else None))
        fine += np.bincount(flat.ravel(), val.ravel(), minlength=n_f ** dim)
    modes = scipy.fft.ifftn(fine.reshape((n_f,) * dim), norm="forward",
                            workers=thread_count())

    # deconvolve: the kernel's transform at mode k is
    # w int_0^1 phi(z) cos(pi w k z / n_f) dz, by Gauss-Legendre
    z, zw = gauss_legendre(4 * w)
    z, zw = 0.5 * (z + 1.0), 0.5 * zw
    phi_hat = w * np.cos(np.outer(np.arange(k_max + 1), z)
                         * (np.pi * w / n_f)) @ (zw * _es_kernel(z))
    return modes[tuple((k % n_f).T)] / np.prod(phi_hat[np.abs(k)], axis=-1)


def spectral_l2(grid: Grid, coeffs: np.ndarray) -> float:
    """Riemann-sum L^2 norm of the real field with half spectrum coeffs
    (Parseval over the full spectrum, every component)."""
    n = grid.points_per_axis
    weight = np.full(n // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    total = float(np.sum(np.abs(coeffs) ** 2 * weight))
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
    co = forward(field) * factor ** g.dim
    co[:, nyq] *= 0.5
    # each coefficient at its xi, each Nyquist one once more at xi'; a
    # last-axis -N/2 has no slot in the half spectrum (xi' fills its partner)
    co = np.concatenate([co.reshape(co.shape[0], -1), co[:, nyq]], axis=1)
    k = np.rint(spectral_points(g) * (g.side_length / (2 * np.pi)))
    keep = k[:, -1] >= 0
    out = np.zeros((field.components,) + fine.spectral_shape, dtype=complex)
    out[(slice(None),) + tuple((k[keep].astype(int) % n2).T)] = co[:, keep]
    return GridField(fine, inverse(fine, out))


def coarsen_samples(field: GridField, factor: int = 2) -> GridField:
    """Subsample every factor-th point per axis (inverse of refine for
    fields band-limited to the coarse grid)."""
    g = field.grid
    if g.points_per_axis % factor:
        raise InvalidArgument("factor must divide the point count")
    sl = (slice(None),) + (slice(None, None, factor),) * g.dim
    coarse = Grid(g.dim, g.points_per_axis // factor, g.side_length)
    return GridField(coarse, field.values[sl])


@lru_cache(maxsize=16)
def gradient_symbol(grid: Grid) -> np.ndarray:
    """i xi on the half spectrum, shape (*spectral_shape, dim), read-only."""
    ik = resolve(grid, 1j * spectral_points(grid))
    ik.flags.writeable = False
    return ik


def gradient(field: GridField) -> np.ndarray:
    """Spectral gradient, shape (m, dim, *grid shape)."""
    g = field.grid
    co = forward(field)
    ik = gradient_symbol(g)
    out = np.empty((field.components, g.dim) + g.shape)
    for j in range(g.dim):
        out[:, j] = inverse(g, co * ik[..., j])
    return out


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(field: GridField, p: float) -> float:
    """Riemann-sum L^p norm; p = inf gives the max norm."""
    if p != np.inf and p < 1:
        raise InvalidArgument(f"p must be >= 1 or inf, got {p}")
    v = field.values
    if p == np.inf:
        return float(np.max(np.abs(v)))
    return float((field.grid.cell_volume * np.sum(np.abs(v) ** p)) ** (1.0 / p))


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


def _read_exactly(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise InvalidArgument(f"truncated file: {len(data)} of {size} bytes")
    return data


def _read_field(fh) -> GridField:
    dim, n, length, m = _HEADER.unpack(_read_exactly(fh, _HEADER.size))
    grid = Grid(dim, n, length)
    count = m * n ** dim
    vals = np.frombuffer(_read_exactly(fh, count * 8), dtype="<f8")
    return GridField(grid, vals.reshape((m,) + grid.shape))


def save_field(field: GridField, path) -> None:
    """Binary layout: little-endian header (int64 dim, int64 N, float64 L,
    int64 m) followed by m * N^dim row-major float64 values."""
    with open(path, "wb") as fh:
        _write_field(fh, field)


def load_field(path) -> GridField:
    with open(path, "rb") as fh:
        return _read_field(fh)


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
    dim, n, length, m = int(rows[0][0]), int(rows[0][1]), float(rows[0][2]), int(rows[0][3])
    grid = Grid(dim, n, length)
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
    with open(path, "rb") as fh:
        n_frames, dt = struct.unpack("<qd", _read_exactly(fh, 16))
        frames = tuple(_read_field(fh) for _ in range(n_frames))
    return SpaceTimeField(dt, frames)
