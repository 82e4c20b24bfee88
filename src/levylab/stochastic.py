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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import levy
from .errors import (DomainExitWarning, DriftEvaluationFailure,
                     InvalidArgument, UnsupportedMeasure)
from .fieldgrid import GridField, SpaceTimeField

EXIT_FRACTION_LIMIT = 0.01
PATH_BLOCK = 2048          # paths per uniform draw of sample_ensemble


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
    (Kanter's method, alpha_half in (0,1))."""
    v = np.pi * u
    a = (np.sin(alpha_half * v) ** alpha_half
         * np.sin((1.0 - alpha_half) * v) ** (1.0 - alpha_half)
         / np.sin(v)) ** (1.0 / (1.0 - alpha_half))
    return (a / -np.log1p(-w)) ** ((1.0 - alpha_half) / alpha_half)


def _normals(u: np.ndarray, d: int) -> np.ndarray:
    """d standard normals along the last axis from Box-Muller on the
    consecutive pairs of the 2 ceil(d/2) uniforms there; odd d skips a sine."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    theta = 2.0 * np.pi * u[..., 1::2]
    z = np.empty(u.shape[:-1] + (d,))
    z[..., 0::2] = r * np.cos(theta)
    z[..., 1::2] = r[..., :d // 2] * np.sin(theta[..., :d // 2])
    return z


def _require_symmetric_stable(measure):
    if not isinstance(measure, levy.StableSpectral):
        raise UnsupportedMeasure("simulation needs a StableSpectral measure")
    if not measure.sigma.is_symmetric:
        raise UnsupportedMeasure("simulation needs a symmetric spherical part")


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
        u = rng.random(size + (2 * len(pairs[1]),))
        unit = np.zeros(size + (d,))
        for j, (direction, w) in enumerate(zip(*pairs)):
            s = _cms_symmetric(alpha, u[..., 2 * j], u[..., 2 * j + 1])
            unit += (2.0 * w * c_alpha) ** (1.0 / alpha) * s[..., None] \
                * direction
    return dt[..., None] ** (1.0 / alpha) * unit


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def sample_ensemble(b, measure, x0, time_grid, n_paths: int,
                    seed: int) -> PathEnsemble:
    """Ensemble of Euler paths X_{k+1} = X_k + b(t_k, X_k) dt_k + dL_k.

    The increments are read from one stream Philox(key=seed) in path-major
    order, PATH_BLOCK paths per draw, so path i's increments do not depend
    on n_paths.  b may be None (no drift); otherwise it receives the whole
    batch of states at once, shape (n_paths, d)."""
    tg = np.asarray(time_grid, dtype=float)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.size
    dts = np.diff(tg)
    if not np.all(dts > 0):
        raise InvalidArgument("time_grid must be strictly increasing")
    _require_symmetric_stable(measure)
    rng = np.random.Generator(np.random.Philox(key=seed))
    incs = np.empty((n_paths, dts.size, d))
    for first in range(0, n_paths, PATH_BLOCK):
        block = incs[first:first + PATH_BLOCK]
        block[...] = sample_stable_increment(measure.sigma, measure.alpha,
                                             dts, rng, size=block.shape[:2])
    states = np.empty((n_paths, tg.size, d))
    states[:, 0] = x0
    if b is None:
        states[:, 1:] = x0 + np.cumsum(incs, axis=1)
    else:
        for k, dt in enumerate(dts):
            bv = np.asarray(b(float(tg[k]), states[:, k]), dtype=float)
            if bv.shape == (d,):        # x-independent drift value
                bv = np.broadcast_to(bv, (n_paths, d))
            if bv.shape != (n_paths, d):
                raise InvalidArgument(
                    "batch drift must map (n_paths, d) states to (n_paths, d)")
            if not np.all(np.isfinite(bv)):
                bad = np.argmax(~np.all(np.isfinite(bv), axis=1))
                raise DriftEvaluationFailure(
                    "non-finite drift", t=float(tg[k]),
                    x=states[bad, k].copy())
            states[:, k + 1] = states[:, k] + bv * dt + incs[:, k]
    return PathEnsemble(n_paths, tg, states, int(seed))


# ---------------------------------------------------------------------------
# interpolation helpers
# ---------------------------------------------------------------------------

def _interp_field(field: GridField, points: np.ndarray) -> np.ndarray:
    """Periodic multilinear interpolation of component 0 at (n, d) points."""
    g = field.grid
    vals = field.values[0]
    n = g.points_per_axis
    frac = points / g.spacing
    base = np.floor(frac).astype(np.int64)
    t = frac - base
    out = np.zeros(points.shape[0])
    for corner in range(1 << g.dim):
        w = np.ones(points.shape[0])
        idx = []
        for j in range(g.dim):
            bit = (corner >> j) & 1
            idx.append((base[:, j] + bit) % n)
            w = w * (t[:, j] if bit else 1.0 - t[:, j])
        out += w * vals[tuple(idx)]
    return out


def _frame_at(f: SpaceTimeField, t: float) -> GridField:
    """Frame at the left endpoint of the step containing t."""
    j = int(min(len(f.frames) - 1, max(0, math.floor(t / f.time_step + 1e-9))))
    return f.frames[j]


def exit_fraction(ensemble: PathEnsemble, x0, side_length: float) -> float:
    """Fraction of paths that ever left the half-period box around x0."""
    disp = ensemble.states - np.atleast_1d(np.asarray(x0, dtype=float))
    return float(np.mean(np.any(np.abs(disp) > side_length / 2.0,
                                axis=(1, 2))))


def _check_exits(ensemble: PathEnsemble, x0, side_length: float):
    frac = exit_fraction(ensemble, x0, side_length)
    if frac > EXIT_FRACTION_LIMIT:
        warnings.warn(DomainExitWarning(
            f"{100 * frac:.2f}% of paths left the half-period box; "
            f"widen the domain"))


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
    if not t > 0:
        raise InvalidArgument("t must be positive")
    g = phi.grid
    tg = np.linspace(0.0, t, n_steps + 1)
    drift = None if b is None else (lambda s, y: np.asarray(b(t - s, y)))
    ens = sample_ensemble(drift, measure, np.atleast_1d(x), tg,
                          n_paths, rng_seed)
    _check_exits(ens, np.atleast_1d(x), g.side_length)
    wrapped = np.mod(ens.states, g.side_length)

    per_path = math.exp(-lam * t) * _interp_field(
        phi, wrapped[:, -1, :].reshape(n_paths, g.dim))
    if f is not None:
        dt = t / n_steps
        for k in range(n_steps):          # left endpoint in path time
            s = tg[k]
            frame = _frame_at(f, t - s)
            per_path = per_path + (math.exp(-lam * s) * dt
                                   * _interp_field(frame, wrapped[:, k, :]))
    est = float(np.mean(per_path))
    sterr = float(np.std(per_path, ddof=1) / math.sqrt(n_paths))
    return est, sterr


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
    ens = sample_ensemble(b, measure, x0, tg, n_paths, rng_seed)
    _check_exits(ens, x0, g.side_length)
    wrapped = np.mod(ens.states, g.side_length)
    dt = T / n_steps
    per_path = np.zeros(n_paths)
    for k in range(n_steps):
        per_path += dt * _interp_field(_frame_at(f, tg[k]), wrapped[:, k, :])
    lhs = float(np.mean(per_path))
    # space-time L^p norm with left-endpoint time rule to match the estimator
    fnorm = 0.0
    for fr in f.frames[:-1]:
        fnorm += float(np.sum(np.abs(fr.values[0]) ** p)) * g.cell_volume \
            * f.time_step
    return lhs, fnorm ** (1.0 / p)
