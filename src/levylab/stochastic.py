"""Monte Carlo side: symmetric stable increments, Euler paths for
stable-driven SDEs, the Feynman-Kac estimator, and the occupation-time
(Krylov-type) estimate.

Conventions
-----------
* Only symmetric stable measures are simulated.  A standard symmetric
  alpha-stable scalar S has characteristic function e^{-|xi|^alpha} and is
  generated by the Chambers-Mallows-Stuck transform.
* A discrete symmetric spherical measure is a sum of atom pairs
  {+theta_i, -theta_i} with weight w_i each; the pair contributes
  e^{-2 w_i c_alpha t |theta_i . xi|^alpha} to the characteristic function,
  so its time-dt increment is theta_i (2 w_i c_alpha dt)^{1/alpha} S_i.
  (c_alpha is the radial cosine constant; omitting it would not match the
  semigroup e^{-t psi}.)
* An isotropic measure of total mass M has psi(xi) = M c_alpha I_d(alpha)
  |xi|^alpha with I_d the isotropic projection moment; the increment is the
  subordinated Gaussian sigma^{1/alpha} sqrt(2A) Z where A is a positive
  alpha/2-stable variable normalized by E e^{-sA} = e^{-s^{alpha/2}},
  Z a standard normal vector, and sigma = M c_alpha I_d(alpha) dt.

An ensemble reads one counter-based stream Philox(key=seed) in path-major
order, k uniforms per increment (see sample_stable_increment).  Path i
therefore reads the fixed block of n_steps * k uniforms that starts at
i * n_steps * k: it does not change with the path count, and ensembles are
bit-exactly reproducible.

The estimators reduce the paths one block of PATH_BLOCK at a time to one
value per path, so their memory is O(PATH_BLOCK (n_steps+1) d + n_paths);
only sample_ensemble holds a whole ensemble.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import levy
from .errors import (DomainExitWarning, DriftEvaluationFailure,
                     InvalidArgument, UnsupportedMeasure)
from .fieldgrid import GridField, SpaceTimeField

EXIT_FRACTION_LIMIT = 0.01
PATH_BLOCK = 2048          # paths per uniform draw and per estimator block


@dataclass(frozen=True)
class PathEnsemble:
    """States of n_paths SDE paths on a common time grid; states has shape
    (n_paths, len(time_grid), d)."""

    n_paths: int
    time_grid: np.ndarray
    states: np.ndarray
    rng_seed: int

    def __post_init__(self):
        tg = np.asarray(self.time_grid, dtype=float)
        st = np.asarray(self.states, dtype=float)
        if tg.ndim != 1 or tg[0] != 0.0 or np.any(np.diff(tg) <= 0):
            raise InvalidArgument("time_grid must increase from 0")
        if st.shape[:2] != (self.n_paths, tg.size) or st.ndim != 3:
            raise InvalidArgument("states must have shape (n_paths, n_times, d)")
        if not np.all(np.isfinite(st)):
            raise InvalidArgument("states must be finite")
        tg.setflags(write=False)
        st.setflags(write=False)
        object.__setattr__(self, "time_grid", tg)
        object.__setattr__(self, "states", st)

    @property
    def dim(self) -> int:
        return self.states.shape[2]


# ---------------------------------------------------------------------------
# stable increments: fixed transforms of uniforms on [0, 1), with
# exponentials -log1p(-w) by inversion
# ---------------------------------------------------------------------------

def _cms_symmetric(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Standard symmetric alpha-stable scalars, char. fn. e^{-|xi|^alpha}
    (Chambers-Mallows-Stuck)."""
    v = np.pi * (u - 0.5)
    if alpha == 1.0:
        return np.tan(v)
    return (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * v) / -np.log1p(-w))
            ** ((1.0 - alpha) / alpha))


def _positive_stable(alpha_half: float, u: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Positive alpha_half-stable variables with E e^{-sA} = e^{-s^alpha_half}
    (Kanter's method, alpha_half in (0,1)):

        A = sin(a v) / sin(v)^{1/a} * (sin((1-a) v) / E)^{(1-a)/a}

    with v = pi U and E = -log(1 - W); at a = 1/2 the powers are a square
    and the identity."""
    v = np.pi * u
    return (np.sin(alpha_half * v) / np.sin(v) ** (1.0 / alpha_half)
            * (np.sin((1.0 - alpha_half) * v) / -np.log1p(-w))
            ** ((1.0 - alpha_half) / alpha_half))


def _normals(u: np.ndarray, d: int) -> np.ndarray:
    """d standard normals along the last axis from Box-Muller on the
    consecutive pairs of the 2 ceil(d/2) uniforms there; odd d skips a sine."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    theta = 2.0 * np.pi * u[..., 1::2]
    z = np.empty(u.shape[:-1] + (d,))
    z[..., 0::2] = r * np.cos(theta)
    z[..., 1::2] = r[..., :d // 2] * np.sin(theta[..., :d // 2])
    return z


def sample_stable_increment(sigma: levy.SphericalMeasure, alpha: float,
                            dt, rng, size=1) -> np.ndarray:
    """Increments of the stable process over time dt; shape size + (d,).

    One draw rng.random(size + (k,)) gives k uniforms per increment:
    [Kanter U, Kanter W, 2 ceil(d/2) Box-Muller uniforms] for an isotropic
    measure, [U_j, W_j] per atom pair otherwise.  dt may be an array that
    broadcasts against size: by self-similarity the increment is
    dt^{1/alpha} times the unit-time increment."""
    if not 0.0 < alpha < 2.0:
        raise InvalidArgument("alpha must lie in (0, 2)")
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt > 0):
        raise InvalidArgument("dt must be positive")
    size = (size,) if np.ndim(size) == 0 else tuple(size)
    d = sigma.dim
    c_alpha = levy.radial_cosine_constant(alpha)
    if sigma.is_isotropic:
        u = rng.random(size + (2 + 2 * ((d + 1) // 2),))
        scale = (sigma.total_mass * c_alpha
                 * levy.isotropic_projection_moment(d, alpha))
        sub = _positive_stable(alpha / 2.0, u[..., 0], u[..., 1])
        unit = (scale ** (1.0 / alpha) * np.sqrt(2.0 * sub)[..., None]
                * _normals(u[..., 2:], d))
    else:
        pairs = levy.antipodal_pairs(*sigma.atom_arrays())
        if pairs is None:
            raise UnsupportedMeasure("increment sampling needs a symmetric measure")
        dirs, w = pairs
        # pair-major, so that the sum over axis 0 adds the pairs in order
        u = rng.random(size + (2 * len(w),)).reshape(-1, 2 * len(w)).T.copy()
        s = ((2.0 * w * c_alpha)[:, None] ** (1.0 / alpha)
             * _cms_symmetric(alpha, u[0::2], u[1::2]))
        unit = (s[:, :, None] * dirs[:, None, :]).sum(axis=0).reshape(size + (d,))
    return dt[..., None] ** (1.0 / alpha) * unit


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def _path_blocks(b, measure, x0, time_grid, n_paths: int, seed: int):
    """Euler paths X_{k+1} = X_k + b(t_k, X_k) dt_k + dL_k, yielded in path
    order as (m, len(time_grid), d) state blocks of m <= PATH_BLOCK paths.

    The increments are read from one stream Philox(key=seed), one draw per
    block, so path i's states do not depend on n_paths.  b may be None (no
    drift); otherwise it receives a block's states at once, shape (m, d)."""
    tg = np.asarray(time_grid, dtype=float)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.size
    dts = np.diff(tg)
    if not np.all(dts > 0):
        raise InvalidArgument("time_grid must be strictly increasing")
    if not isinstance(measure, levy.StableSpectral):
        raise UnsupportedMeasure("simulation needs a StableSpectral measure")
    rng = np.random.Generator(np.random.Philox(key=seed))
    for first in range(0, n_paths, PATH_BLOCK):
        m = min(PATH_BLOCK, n_paths - first)
        incs = sample_stable_increment(measure.sigma, measure.alpha, dts, rng,
                                       size=(m, dts.size))
        states = np.empty((m, tg.size, d))
        states[:, 0] = x0
        if b is None:
            np.cumsum(incs, axis=1, out=states[:, 1:])
            states[:, 1:] += x0
        else:
            for k, dt in enumerate(dts):
                bv = np.asarray(b(float(tg[k]), states[:, k]), dtype=float)
                if bv.shape == (d,):        # x-independent drift value
                    bv = np.broadcast_to(bv, (m, d))
                if bv.shape != (m, d):
                    raise InvalidArgument(
                        "batch drift must map (m, d) states to (m, d)")
                if not np.all(np.isfinite(bv)):
                    bad = np.argmax(~np.all(np.isfinite(bv), axis=1))
                    raise DriftEvaluationFailure(
                        "non-finite drift", t=float(tg[k]),
                        x=states[bad, k].copy())
                states[:, k + 1] = states[:, k] + bv * dt + incs[:, k]
        if not np.all(np.isfinite(states)):
            raise InvalidArgument("states must be finite")
        yield states


def sample_ensemble(b, measure, x0, time_grid, n_paths: int,
                    seed: int) -> PathEnsemble:
    """Ensemble of Euler paths X_{k+1} = X_k + b(t_k, X_k) dt_k + dL_k.

    The increments are read from one stream Philox(key=seed) in path-major
    order, PATH_BLOCK paths per draw, so path i's increments do not depend
    on n_paths.  b may be None (no drift); otherwise it receives a block of
    at most PATH_BLOCK states at once, shape (m, d)."""
    tg = np.asarray(time_grid, dtype=float)
    states = np.empty((n_paths, tg.size, np.size(x0)))
    first = 0
    for block in _path_blocks(b, measure, x0, tg, n_paths, seed):
        states[first:first + len(block)] = block
        first += len(block)
    return PathEnsemble(n_paths, tg, states, int(seed))


# ---------------------------------------------------------------------------
# interpolation helpers
# ---------------------------------------------------------------------------

def _interp_field(field: GridField, points: np.ndarray) -> np.ndarray:
    """Periodic multilinear interpolation of component 0 at (n, d) points."""
    g = field.grid
    n = g.points_per_axis
    frac = points / g.spacing
    base = np.floor(frac)
    t = frac - base
    base = base.astype(np.int64)
    # per axis: (index, weight) of the lower and of the upper grid point
    ends = [((base[:, j] % n, 1.0 - t[:, j]), ((base[:, j] + 1) % n, t[:, j]))
            for j in range(g.dim)]
    out = np.zeros(len(points))
    for corner in range(1 << g.dim):
        idx, w = zip(*(ends[j][(corner >> j) & 1] for j in range(g.dim)))
        out += functools.reduce(operator.mul, w) * field.values[0][idx]
    return out


def _frame_at(f: SpaceTimeField, t: float) -> GridField:
    """Frame at the left endpoint of the step containing t."""
    j = int(min(len(f.frames) - 1, max(0, math.floor(t / f.time_step + 1e-9))))
    return f.frames[j]


def _time_integral(v, f: SpaceTimeField, wrapped, times, weights):
    """v plus sum_k weights[k] f(times[k], X_k), added to v in place: the
    left-endpoint rule along the wrapped paths (n, n_times, d), X_k at path
    time index k and f read in its frame at times[k]."""
    for k, (t, w) in enumerate(zip(times, weights)):
        v += w * _interp_field(_frame_at(f, t), wrapped[:, k, :])
    return v


def _exit_count(states: np.ndarray, x0, side_length: float) -> int:
    """Number of paths in states (n, n_times, d) that ever left the
    half-period box around x0."""
    disp = states - np.atleast_1d(np.asarray(x0, dtype=float))
    return int(np.count_nonzero(np.any(np.abs(disp) > side_length / 2.0,
                                       axis=(1, 2))))


def exit_fraction(ensemble: PathEnsemble, x0, side_length: float) -> float:
    """Fraction of paths that ever left the half-period box around x0."""
    return _exit_count(ensemble.states, x0, side_length) / ensemble.n_paths


def _per_path(b, measure, x0, time_grid, n_paths, seed, grid, value):
    """value(wrapped) for each path, where wrapped holds a block's states
    reduced mod the period, and the fraction of paths that left the
    half-period box around x0 (warned about above EXIT_FRACTION_LIMIT).
    One block of paths is held at a time."""
    if np.size(x0) != grid.dim:
        raise InvalidArgument(f"the start point has {np.size(x0)} components "
                              f"but the grid lives in R^{grid.dim}")
    out = np.empty(n_paths)
    exits = first = 0
    for states in _path_blocks(b, measure, x0, time_grid, n_paths, seed):
        exits += _exit_count(states, x0, grid.side_length)
        out[first:first + len(states)] = value(np.mod(states,
                                                      grid.side_length))
        first += len(states)
    frac = exits / n_paths
    if frac > EXIT_FRACTION_LIMIT:
        warnings.warn(DomainExitWarning(
            f"{100 * frac:.2f}% of paths left the half-period box; "
            f"widen the domain"))
    return out, frac


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def feynman_kac(phi: GridField, f, b, measure, t: float, x,
                n_paths: int, rng_seed: int, lam: float = 0.0,
                n_steps: int = 64):
    """Monte Carlo representation of the solution at (t, x):

        u(t,x) = E[e^{-lam t} phi(X_t)]
                 + E[ int_0^t e^{-lam s} f(t-s, X_s) ds ]

    where X starts at x with time-reversed drift b(t-s, .).  Returns
    (estimate, standard_error)."""
    return _feynman_kac(phi, f, b, measure, t, x, n_paths, rng_seed, lam,
                        n_steps)[:2]


def _feynman_kac(phi, f, b, measure, t, x, n_paths, rng_seed, lam, n_steps):
    """feynman_kac's (estimate, standard_error) and the fraction of its paths
    that left the half-period box around x."""
    if not t > 0:
        raise InvalidArgument("t must be positive")
    if f is not None and f.grid != phi.grid:
        raise InvalidArgument(f"forcing lives on {f.grid}, phi on {phi.grid}")
    if f is not None and f.times[-1] < t * (1.0 - 1e-9):
        raise InvalidArgument(f"forcing ends at {f.times[-1]}, before t = {t}")
    tg = np.linspace(0.0, t, n_steps + 1)
    drift = None if b is None else (lambda s, y: np.asarray(b(t - s, y)))
    dt = t / n_steps

    def value(wrapped):
        v = math.exp(-lam * t) * _interp_field(phi, wrapped[:, -1, :])
        if f is not None:
            v = _time_integral(v, f, wrapped, t - tg[:-1],
                               [math.exp(-lam * s) * dt for s in tg[:-1]])
        return v

    per_path, frac = _per_path(drift, measure, np.atleast_1d(x), tg, n_paths,
                               rng_seed, phi.grid, value)
    est = float(np.mean(per_path))
    sterr = float(np.std(per_path, ddof=1) / math.sqrt(n_paths))
    return est, sterr, frac


def krylov_check(b, measure, f: SpaceTimeField, p: float,
                 n_paths: int, rng_seed: int, x0=None, n_steps: int = 64):
    """Occupation-time functional E int_0^T f(s, X_s) ds (Monte Carlo, left
    endpoint) together with the space-time L^p norm of f; requires f >= 0
    and p > d + 1."""
    g = f.grid
    if p <= g.dim + 1:
        raise InvalidArgument("need p > d + 1")
    if any(float(fr.values.min()) < 0 for fr in f.frames):
        raise InvalidArgument("f must be nonnegative")
    T = f.time_step * (len(f.frames) - 1)
    x0 = np.zeros(g.dim) if x0 is None else np.atleast_1d(np.asarray(x0, float))
    tg = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps

    def value(wrapped):
        return _time_integral(np.zeros(len(wrapped)), f, wrapped, tg[:-1],
                              [dt] * n_steps)

    per_path, _ = _per_path(b, measure, x0, tg, n_paths, rng_seed, g, value)
    lhs = float(np.mean(per_path))
    # space-time L^p norm with left-endpoint time rule to match the estimator
    fnorm = 0.0
    for fr in f.frames[:-1]:
        fnorm += float(np.sum(np.abs(fr.values[0]) ** p)) * g.cell_volume \
            * f.time_step
    return lhs, fnorm ** (1.0 / p)
