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

Paths are drawn in blocks of about PATH_STEP_BLOCK path-steps
(_block_paths), and the estimators reduce one block at a time to one
value per path.  A block holds its uniforms, its states and, for the time
integral, the 2^d interpolation corners of each step, so the estimators'
memory is O(PATH_STEP_BLOCK (k + 2^d) + n_paths); only sample_ensemble
holds a whole ensemble.  A (paths, steps) temporary of a block is
256 KiB, which keeps the sampler's chain of them in a 2 MiB L2 cache;
sizing blocks by path-steps, not paths, keeps the blocks of short paths
large enough to spread a block's fixed cost.
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
PATH_STEP_BLOCK = 512 * 64  # path-steps per uniform draw and estimator block


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


# ---------------------------------------------------------------------------
# stable increments: fixed transforms of uniforms on [0, 1), with
# exponentials -log1p(-w) by inversion
# ---------------------------------------------------------------------------

# log1p(-w) at the smallest positive uniform w = 2^-53: exactly -2^-53
LOG_SURVIVAL_CAP = math.log1p(-2.0 ** -53)


def _log_survival(w: np.ndarray) -> np.ndarray:
    """log1p(-w) = -E, capped at LOG_SURVIVAL_CAP: the uniform w = 0 gets
    the exponential E = 2^-53 of w = 2^-53 instead of E = 0, which would
    make the stable variable infinite.  Bit for bit log1p(-w) for every
    w >= 2^-53."""
    e = np.log1p(-w)
    return np.minimum(e, LOG_SURVIVAL_CAP, out=e)


def _cms_symmetric(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Standard symmetric alpha-stable scalars, char. fn. e^{-|xi|^alpha}
    (Chambers-Mallows-Stuck)."""
    v = np.pi * (u - 0.5)
    if alpha == 1.0:
        return np.tan(v)
    return (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * v) / -_log_survival(w))
            ** ((1.0 - alpha) / alpha))


def _positive_stable(alpha_half: float, u: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Positive alpha_half-stable variables with E e^{-sA} = e^{-s^alpha_half}
    (Kanter's method, alpha_half in (0,1)):

        A = sin(a v) / sin(v)^{1/a} * (sin((1-a) v) / E)^{(1-a)/a}

    with v = pi U and E = -log(1 - W), at least 2^-53 (_log_survival).  At
    a = 1/2, sin(v) = 2 sin(v/2) cos(v/2) turns this into
    A = 1 / (4 cos^2(v/2) E)."""
    if alpha_half == 0.5:
        c = np.cos(np.pi / 2.0 * u)
        c *= c
        c *= _log_survival(w)           # -cos^2(v/2) E
        return np.divide(-0.25, c, out=c)
    v = np.pi * u
    return (np.sin(alpha_half * v) / np.sin(v) ** (1.0 / alpha_half)
            * (np.sin((1.0 - alpha_half) * v) / -_log_survival(w))
            ** ((1.0 - alpha_half) / alpha_half))


def _normals(u: np.ndarray, d: int) -> np.ndarray:
    """d standard normals along the last axis from Box-Muller on the
    consecutive pairs of the 2 ceil(d/2) uniforms there; odd d skips a sine."""
    r = np.log1p(-u[..., 0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    theta = 2.0 * np.pi * u[..., 1::2]
    z = np.empty(u.shape[:-1] + (d,))
    np.multiply(r[..., :d // 2], np.sin(theta[..., :d // 2]),
                out=z[..., 1::2])
    np.cos(theta, out=theta)
    np.multiply(r, theta, out=z[..., 0::2])
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
    return _increments(_increment_law(sigma, alpha), alpha, dt, rng, size)


def _increment_law(sigma: levy.SphericalMeasure, alpha: float):
    """What the increments take from the measure, derived once per
    ensemble: (d, None, scale^{1/alpha}) for an isotropic measure, scale
    being M c_alpha I_d(alpha), and (d, pair directions (n, d), the pair
    scales (2 w c_alpha)^{1/alpha} as (n, 1)) for atoms."""
    c_alpha = levy.radial_cosine_constant(alpha)
    if sigma.is_isotropic:
        scale = (sigma.total_mass * c_alpha
                 * levy.isotropic_projection_moment(sigma.dim, alpha))
        return sigma.dim, None, scale ** (1.0 / alpha)
    pairs = levy.antipodal_pairs(*sigma.atom_arrays())
    if pairs is None:
        raise UnsupportedMeasure("increment sampling needs a symmetric measure")
    dirs, w = pairs
    return sigma.dim, dirs, (2.0 * w * c_alpha)[:, None] ** (1.0 / alpha)


def _increments(law, alpha: float, dt: np.ndarray, rng, size) -> np.ndarray:
    """sample_stable_increment for a law from _increment_law and a checked
    alpha and dt."""
    size = (size,) if np.ndim(size) == 0 else tuple(size)
    d, dirs, scale = law
    if dirs is None:
        u = rng.random(size + (2 + 2 * ((d + 1) // 2),))
        # the law's scale times sqrt(2A) Z, by products in place
        root = _positive_stable(alpha / 2.0, u[..., 0], u[..., 1])
        root *= 2.0
        np.sqrt(root, out=root)
        root *= scale
        unit = _normals(u[..., 2:], d)
        unit *= root[..., None]
    else:
        n_pairs = len(dirs)
        # pair-major, so that the sum over axis 0 adds the pairs in order
        u = rng.random(size + (2 * n_pairs,)).reshape(-1, 2 * n_pairs).T.copy()
        s = scale * _cms_symmetric(alpha, u[0::2], u[1::2])
        unit = (s[:, :, None] * dirs[:, None, :]).sum(axis=0).reshape(size + (d,))
    return dt[..., None] ** (1.0 / alpha) * unit


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def _block_paths(n_steps: int) -> int:
    """Paths per block of n_steps-step paths: about PATH_STEP_BLOCK
    path-steps, in a positive multiple of 4 paths, so that every block
    starts on a whole Philox counter of four 64-bit words."""
    return 4 * max(1, PATH_STEP_BLOCK // (4 * max(n_steps, 1)))


def _path_blocks(b, measure, x0, time_grid, n_paths: int, seed: int):
    """Euler paths X_{k+1} = X_k + b(t_k, X_k) dt_k + dL_k, yielded in path
    order as (m, len(time_grid), d) state blocks of m <= _block_paths
    paths.

    The increments are read from one stream Philox(key=seed), one draw per
    block, so path i's states do not depend on n_paths; what they take from
    the measure is derived once (_increment_law).  b may be None (no
    drift); otherwise it receives a block's states at once, shape (m, d)."""
    tg = np.asarray(time_grid, dtype=float)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.size
    dts = np.diff(tg)
    if not np.all(dts > 0):
        raise InvalidArgument("time_grid must be strictly increasing")
    if not isinstance(measure, levy.StableSpectral):
        raise UnsupportedMeasure("simulation needs a StableSpectral measure")
    if d != measure.dim:
        raise InvalidArgument(f"the start point has {d} components but the "
                              f"measure lives in R^{measure.dim}")
    law = _increment_law(measure.sigma, measure.alpha)
    rng = np.random.Generator(np.random.Philox(key=seed))
    block = _block_paths(dts.size)
    for first in range(0, n_paths, block):
        m = min(block, n_paths - first)
        incs = _increments(law, measure.alpha, dts, rng, size=(m, dts.size))
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
    order, one block of paths per draw, so path i's increments do not
    depend on n_paths.  b may be None (no drift); otherwise it receives a
    block's states at once, shape (m, d)."""
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

def _wrap(x: np.ndarray, period: float) -> np.ndarray:
    """np.mod(x, period) in place for a contiguous x.  np.mod is the
    identity on (0, period), so it is computed only outside."""
    flat = x.reshape(-1)
    far = np.flatnonzero((flat <= 0.0) | (flat >= period))
    flat[far] = np.mod(flat[far], period)
    return x


def _corners(grid, points: np.ndarray):
    """Flat grid indices and weights of periodic multilinear interpolation
    at points (..., n, d): two arrays of shape (..., 2^d, n), corner c
    taking the upper grid point along axis j where bit j of c is set."""
    n = grid.points_per_axis
    frac = points / grid.spacing
    base = np.floor(frac)
    t = frac - base
    base = base.astype(np.int64)
    # per axis: (index, weight) of the lower and of the upper grid point;
    # n is a power of two, so i & (n - 1) is i mod n
    ends = [((base[..., j] & (n - 1), 1.0 - t[..., j]),
             ((base[..., j] + 1) & (n - 1), t[..., j]))
            for j in range(grid.dim)]
    shape = points.shape[:-2] + (1 << grid.dim,) + points.shape[-2:-1]
    idx = np.empty(shape, dtype=np.int64)
    wts = np.empty(shape)
    for corner in range(1 << grid.dim):
        i, w = zip(*(ends[j][(corner >> j) & 1] for j in range(grid.dim)))
        idx[..., corner, :] = functools.reduce(lambda a, b: a * n + b, i)
        wts[..., corner, :] = functools.reduce(operator.mul, w)
    return idx, wts


def _corner_sum(terms: np.ndarray) -> np.ndarray:
    """terms (..., 2^d, n) summed over the corners in order, from zero."""
    out = np.zeros(terms.shape[:-2] + terms.shape[-1:])
    for c in range(terms.shape[-2]):
        out += terms[..., c, :]
    return out


def _interp_field(field: GridField, points: np.ndarray) -> np.ndarray:
    """Periodic multilinear interpolation of component 0 at (n, d) points."""
    idx, w = _corners(field.grid, points)
    return _corner_sum(w * field.values[0].ravel()[idx])


def _frame_index(f: SpaceTimeField, t: float) -> int:
    """Index of the frame at the left endpoint of the step containing t."""
    return int(min(len(f.values) - 1,
                   max(0, math.floor(t / f.time_step + 1e-9))))


def _flat_frames(f: SpaceTimeField, times) -> list:
    """The flat values of scalar f's frame _frame_index(f, t) per time t."""
    flat = f.values.reshape(len(f.values), -1)
    return [flat[_frame_index(f, t)] for t in times]


def _time_integral(v, grid, frames, weights: np.ndarray, states):
    """v plus sum_k weights[k] f_k(X_k), added to v in place: the
    left-endpoint rule along a block of paths states (m, n_times, d), X_k
    its states at time index k and f_k the flat values frames[k] on grid.

    The states the rule reads are reduced mod the period into one
    time-major array, and the corners of all its steps found in one pass;
    each step then only gathers from its frame."""
    points = np.empty((len(frames), len(states), grid.dim))
    points[...] = states[:, :len(frames)].swapaxes(0, 1)
    idx, w = _corners(grid, _wrap(points, grid.side_length))
    terms = np.empty(idx.shape)
    for k, values in enumerate(frames):
        terms[k] = values[idx[k]]
    terms *= w
    steps = _corner_sum(terms)
    steps *= weights[:, None]
    for step in steps:
        v += step
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
    """value(states) for each block of path states, and the fraction of
    paths that left the half-period box around x0 (warned about above
    EXIT_FRACTION_LIMIT).  One block of paths is held at a time."""
    if np.size(x0) != grid.dim:
        raise InvalidArgument(f"the start point has {np.size(x0)} components "
                              f"but the grid lives in R^{grid.dim}")
    out = np.empty(n_paths)
    exits = first = 0
    for states in _path_blocks(b, measure, x0, time_grid, n_paths, seed):
        exits += _exit_count(states, x0, grid.side_length)
        out[first:first + len(states)] = value(states)
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
    if not 0.0 < t < np.inf:
        raise InvalidArgument("t must be positive and finite")
    if not 0.0 <= lam < np.inf:
        raise InvalidArgument(f"lam must be nonnegative and finite, got {lam}")
    if n_paths < 2:
        raise InvalidArgument("a standard error needs at least 2 paths")
    if n_steps < 1:
        raise InvalidArgument(f"n_steps must be at least 1, got {n_steps}")
    if phi.components != 1 or f is not None and f.components != 1:
        raise InvalidArgument("phi and the forcing must be scalar fields")
    if f is not None and f.grid != phi.grid:
        raise InvalidArgument(f"forcing lives on {f.grid}, phi on {phi.grid}")
    if f is not None and f.times[-1] < t * (1.0 - 1e-9):
        raise InvalidArgument(f"forcing ends at {f.times[-1]}, before t = {t}")
    tg = np.linspace(0.0, t, n_steps + 1)
    drift = None if b is None else (lambda s, y: np.asarray(b(t - s, y)))
    dt = t / n_steps

    if f is not None:
        frames = _flat_frames(f, t - tg[:-1])
        weights = np.array([math.exp(-lam * s) * dt for s in tg[:-1]])

    def value(states):
        v = math.exp(-lam * t) * _interp_field(
            phi, _wrap(states[:, -1].copy(), phi.grid.side_length))
        if f is not None:
            v = _time_integral(v, f.grid, frames, weights, states)
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
    if n_paths < 1:
        raise InvalidArgument("n_paths must be positive")
    if n_steps < 1:
        raise InvalidArgument(f"n_steps must be at least 1, got {n_steps}")
    if f.components != 1:
        raise InvalidArgument("f must be a scalar field")
    if float(f.values.min()) < 0:
        raise InvalidArgument("f must be nonnegative")
    T = f.time_step * (len(f.values) - 1)
    x0 = np.zeros(g.dim) if x0 is None else np.atleast_1d(np.asarray(x0, float))
    tg = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps

    frames = _flat_frames(f, tg[:-1])
    weights = np.full(n_steps, dt)

    def value(states):
        return _time_integral(np.zeros(len(states)), g, frames, weights,
                              states)

    per_path, _ = _per_path(b, measure, x0, tg, n_paths, rng_seed, g, value)
    lhs = float(np.mean(per_path))
    # space-time L^p norm with left-endpoint time rule to match the estimator
    fnorm = float(np.sum(np.abs(f.values[:-1]) ** p)) * g.cell_volume
    return lhs, (fnorm * f.time_step) ** (1.0 / p)
