"""Linear nonlocal parabolic solvers and regularity-inequality probes.

The model equation on the torus is

    d/dt u = L^nu u + b . grad u - lambda u + f,      u(0) = phi.

Two solvers:

* ``duhamel_solve`` -- x-independent drift; every Fourier mode obeys the
  scalar ODE  u' = -(psi(xi) - i xi.theta(t) + lambda) u + f  and is stepped
  with a second-order exponential integrator that is exact for forcing that
  is linear in time within each step.
* ``drift_solve`` -- x-dependent drift, optionally mollified; the integral
  equation  u(t) = P_t phi + int_0^t P_{t-s} (b.grad u + f)(s) ds  by
  ``etd2_march``, the stepper (shared with the quasi-linear solvers) that
  treats b.grad u trapezoidally with a fixed point inside each step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import levy
from .errors import (DriftEvaluationFailure, InvalidArgument,
                     IterationFailure, PreconditionFailure)
from .fieldgrid import (Grid, GridField, SpaceTimeField, apply_multiplier,
                        forward, inverse, lp_norms, partial_derivatives,
                        resolve, spectral_l2, spectral_points)
from .nonlocal_op import OperatorRoute, multiplier
from .heatkernel import DriftSchedule


@dataclass(frozen=True)
class LinearProblem:
    """Linear Cauchy problem data.

    ``drift`` is a DriftSchedule (x-independent), a callable ``b(t, x)``
    mapping coordinates of shape (*grid, d) to a vector field of the same
    shape, or a SpaceTimeField with d components on the solver time grid.
    ``forcing`` is a SpaceTimeField or a callable ``f(t, x)``.
    """

    measure: object
    drift: object
    lam: float
    forcing: object
    phi: GridField
    horizon: float

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise InvalidArgument(f"lambda must be nonnegative and finite, "
                                  f"got {self.lam}")
        if not self.horizon > 0:
            raise InvalidArgument("horizon must be positive")
        d = self.phi.grid.dim
        if (isinstance(self.drift, DriftSchedule) and self.drift.dim != d
                or isinstance(self.drift, SpaceTimeField)
                and self.drift.components != d):
            raise InvalidArgument(f"drift dimension differs from the grid's {d}")
        for name, data in (("drift", self.drift), ("forcing", self.forcing)):
            if isinstance(data, SpaceTimeField) and data.grid != self.phi.grid:
                raise InvalidArgument(f"{name} lives on {data.grid}, "
                                      f"phi on {self.phi.grid}")
        if (isinstance(self.forcing, SpaceTimeField)
                and self.forcing.components != self.phi.components):
            raise InvalidArgument(
                f"forcing has {self.forcing.components} components, "
                f"phi {self.phi.components}")


@dataclass(frozen=True)
class SolverConfig:
    time_step: float
    mollifier_width: float = 0.0
    picard_tol: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self):
        if not self.time_step > 0:
            raise InvalidArgument("time_step must be positive")
        if self.mollifier_width < 0:
            raise InvalidArgument("mollifier width must be nonnegative")
        if not self.picard_tol > 0 or self.max_iterations < 1:
            raise InvalidArgument("tolerances must be positive")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def step_count(horizon: float, dt: float) -> int:
    """horizon / dt, which must be a whole number >= 1 (to 1e-9 relative)."""
    n = round(horizon / dt)
    if n < 1 or abs(horizon / dt - n) > 1e-9 * n:
        raise InvalidArgument(
            f"horizon {horizon} is not a whole number of time steps {dt}")
    return n


def mollify(field, eps: float, grid: Grid | None = None):
    """Convolution with the compactly supported bump mollifier rho_eps
    (unit discrete mass, support radius eps), computed spectrally: rho is
    real and even, so its half spectrum needs no Nyquist rule.  Of a
    GridField, as a GridField, or of a real array sampled on ``grid`` (any
    leading axes, such as a trajectory's frames), as an array.  A width
    whose bump is positive at no grid point besides the origin would be
    the identity, and raises."""
    if eps <= 0:
        return field
    if grid is None:
        return GridField._adopt(field.grid,
                                mollify(field.values, eps, field.grid))
    x = grid.coordinates()
    half = grid.side_length / 2.0
    centered = np.where(x > half, x - grid.side_length, x)
    r2 = np.sum(centered ** 2, axis=-1) / eps ** 2
    with np.errstate(divide="ignore", over="ignore"):
        rho = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - r2)), 0.0)
    if np.count_nonzero(rho) < 2:
        raise InvalidArgument(
            f"mollifier width {eps} below grid resolution: its bump holds "
            "no grid point besides the origin")
    rho /= float(rho.sum()) * grid.cell_volume
    coeffs = forward(field, grid)
    coeffs *= forward(rho, grid) * grid.cell_volume
    return inverse(grid, coeffs)


def _phi1(z):
    """(1 - e^{-z}) / z, stable near z = 0; real for real z."""
    z = np.asarray(z)
    small = np.abs(z) < 1e-6
    zs = np.where(small, 1.0, z)
    out = -np.expm1(-zs) / zs
    return np.where(small, 1.0 - z / 2.0 + z * z / 6.0, out)


def _phi2(z):
    """(e^{-z} - 1 + z) / z^2, stable near z = 0; real for real z."""
    z = np.asarray(z)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = (np.expm1(-zs) + zs) / (zs * zs)
    return np.where(small, 0.5 - z / 6.0 + z * z / 24.0, out)


def _trajectory_frames(field: SpaceTimeField, times, name: str) -> np.ndarray:
    """The frame values of a drift or forcing trajectory at the solver times,
    which must be its own time grid: a view of its first len(times)."""
    if len(field.values) < len(times):
        raise InvalidArgument(f"{name} has fewer frames than time steps")
    if len(times) > 1 and abs(field.time_step - (times[1] - times[0])) > 1e-12:
        raise InvalidArgument(f"{name} time step must match solver time step")
    return field.values[:len(times)]


def _solver_data(problem: LinearProblem, config: SolverConfig):
    """The initial data, the solver times and the forcing frames, one array
    (times, m, *grid shape), that both solvers start from, the data
    mollified to ``config.mollifier_width``.  Without forcing the frames
    are None, not zeros."""
    g = problem.phi.grid
    eps = config.mollifier_width
    n_steps = step_count(problem.horizon, config.time_step)
    times = np.arange(n_steps + 1) * config.time_step
    phi = mollify(problem.phi, eps)
    forcing = problem.forcing
    if forcing is None:
        return phi, times, None
    if isinstance(forcing, SpaceTimeField):
        f_frames = _trajectory_frames(forcing, times, "forcing")
    else:
        x = g.coordinates()
        f_frames = np.empty((len(times),) + phi.values.shape)
        for n, t in enumerate(times):
            v = np.asarray(forcing(t, x), dtype=float)
            v = v[None] if v.shape == g.shape else v
            if v.shape != phi.values.shape:
                raise InvalidArgument(f"forcing callable returned shape "
                                      f"{v.shape}, phi has {phi.values.shape}")
            if not np.all(np.isfinite(v)):
                raise InvalidArgument(f"forcing callable returned a "
                                      f"non-finite value at t = {t}")
            f_frames[n] = v
    return phi, times, mollify(f_frames, eps, g)


# ---------------------------------------------------------------------------
# Duhamel solver (x-independent drift)
# ---------------------------------------------------------------------------

def duhamel_solve(problem: LinearProblem, config: SolverConfig) -> SpaceTimeField:
    """Exponential-integrator solution for DriftSchedule drifts.

    Exact in space (diagonal in frequency) and second order in time
    (exact when the forcing is piecewise linear between frames).  Without
    forcing each step is the propagator alone."""
    if not isinstance(problem.drift, DriftSchedule):
        raise InvalidArgument("duhamel_solve needs an x-independent drift")
    g = problem.phi.grid
    dt = config.time_step
    phi, times, f_frames = _solver_data(problem, config)

    gen = multiplier(problem.measure, g, OperatorRoute.multiplier())
    xi = spectral_points(g)

    u_hat = forward(phi)
    out = np.empty((len(times),) + phi.values.shape)
    out[0] = phi.values
    if f_frames is not None:
        f_hat_next = forward(f_frames[0], g)
    weights = {}                  # per distinct drift value, for this call
    for n in range(len(times) - 1):
        theta = problem.drift.theta(times[n] + dt / 2.0)
        key = tuple(theta)
        if key not in weights:
            z = -gen + problem.lam
            if any(key):              # -i xi.theta, left out for theta = 0
                z = z - 1j * (xi @ theta)
            z *= dt
            weights[key] = (_etd2_weights(g, z, dt) if f_frames is not None
                            else (resolve(g, np.exp(-z)), None, None))
        decay, w_old, w_new = weights[key]
        if f_frames is None:
            u_hat = decay * u_hat
        else:
            f_hat = f_hat_next
            f_hat_next = forward(f_frames[n + 1], g)
            u_hat = decay * u_hat + w_old * f_hat + w_new * f_hat_next
        out[n + 1] = inverse(g, u_hat)
    return SpaceTimeField.from_array(dt, g, out)


def _etd2_weights(grid: Grid, z, dt: float):
    """Propagator e^{-z} and the ETD2 weights on g_n and g_{n+1}, each
    under the Nyquist rule."""
    p1, p2 = _phi1(z), _phi2(z)
    return (resolve(grid, np.exp(-z)), resolve(grid, dt * (p1 - p2)),
            resolve(grid, dt * p2))


# ---------------------------------------------------------------------------
# ETD2 march (variable drift, quasi-linear terms)
# ---------------------------------------------------------------------------

def advection(b, u_hat, grid: Grid) -> np.ndarray:
    """b . grad u for every component of u_hat, in physical values; b has
    shape (d, *grid)."""
    if np.shape(b) != (grid.dim,) + grid.shape:
        raise InvalidArgument(f"drift has shape {np.shape(b)}, not "
                              f"{(grid.dim,) + grid.shape}")
    return sum(map(operator.mul, partial_derivatives(grid, u_hat), b))


def etd2_march(phi: GridField, measure, lam: float, dt: float, n_steps: int,
               nonlinearity, config: SolverConfig,
               dealias: bool = False) -> SpaceTimeField:
    """ETD2 (Cox & Matthews 2002) of d/dt u = L^nu u - lambda u + G from
    u(0) = phi, G at frame n being ``nonlinearity(n, u_hat)`` in physical
    values.  Each step iterates
    u_{n+1} = e^{-z} u_n + dt (phi_1 - phi_2)(z) G_n + dt phi_2(z) G_{n+1},
    z = dt (psi + lambda), with G_{n+1} at the current iterate, until the
    iterate moves less than picard_tol in L^2.  G_0 is evaluated once; the
    converged step's last G_{n+1} (at an iterate within picard_tol of
    u_{n+1}) is carried as the next step's G_n, so a march makes
    1 + (total iterations) evaluations.  Every step starts from the
    relation with G_{n+1} extrapolated as 2 G_n - G_{n-1}, G_{-1} := G_0.
    ``dealias``: 2/3 rule on G."""
    g = phi.grid
    gen = multiplier(measure, g, OperatorRoute.multiplier())
    prop, w_old, w_new = _etd2_weights(g, dt * (-gen + lam), dt)
    mask = 1.0
    if dealias:
        keep = np.all(np.abs(spectral_points(g)) <= 2 * np.pi
                      * g.points_per_axis / (3 * g.side_length), axis=-1)
        mask = resolve(g, keep.astype(float))

    u_hat = forward(phi)
    out = np.empty((n_steps + 1,) + phi.values.shape)
    out[0] = phi.values
    g_n_hat = forward(nonlinearity(0, u_hat), g) * mask
    g_prev_hat = g_n_hat
    for n in range(n_steps):
        base = prop * u_hat + w_old * g_n_hat
        new_hat = base + w_new * (2.0 * g_n_hat - g_prev_hat)
        residuals = []
        for _ in range(config.max_iterations):
            g_new_hat = forward(nonlinearity(n + 1, new_hat), g) * mask
            cand_hat = base + w_new * g_new_hat
            residuals.append(spectral_l2(g, cand_hat - new_hat))
            new_hat = cand_hat
            if residuals[-1] < config.picard_tol:
                break
        else:
            raise IterationFailure(
                f"step {n} did not contract to {config.picard_tol:.1e}",
                residuals=residuals)
        u_hat = new_hat
        g_prev_hat, g_n_hat = g_n_hat, g_new_hat
        out[n + 1] = inverse(g, u_hat)
    return SpaceTimeField.from_array(dt, g, out)


def _drift_frames(drift, grid: Grid, times) -> np.ndarray:
    """Drift vector values, one array (times, d, *grid shape)."""
    shape = (len(times), grid.dim) + grid.shape
    if isinstance(drift, DriftSchedule):
        theta = np.array([drift.theta(t) for t in times])
        return np.broadcast_to(theta.reshape(shape[:2] + (1,) * grid.dim),
                               shape)
    if isinstance(drift, SpaceTimeField):
        return _trajectory_frames(drift, times, "drift")
    x = grid.coordinates()
    out = np.empty(shape)
    for n, t in enumerate(times):
        v = np.asarray(drift(t, x), dtype=float)
        if v.shape != grid.shape + (grid.dim,):
            raise InvalidArgument("drift callable must return shape (*grid, d)")
        if not np.all(np.isfinite(v)):
            raise DriftEvaluationFailure("non-finite drift value", t=t)
        out[n] = np.moveaxis(v, -1, 0)
    return out


def drift_solve(problem: LinearProblem, config: SolverConfig,
                dealias: bool = False) -> SpaceTimeField:
    """ETD2 march of the integral equation with x-dependent drift,
    G = b(t_n) . grad u + f(t_n) from the drift and forcing frames, each
    mollified with the initial data."""
    g = problem.phi.grid
    phi, times, f_frames = _solver_data(problem, config)
    b_frames = mollify(_drift_frames(problem.drift, g, times),
                       config.mollifier_width, g)

    def nonlinearity(n, u_hat):
        adv = advection(b_frames[n], u_hat, g)
        return adv if f_frames is None else adv + f_frames[n]

    return etd2_march(phi, problem.measure, problem.lam, config.time_step,
                      len(times) - 1, nonlinearity, config, dealias)


# ---------------------------------------------------------------------------
# inequality probes
# ---------------------------------------------------------------------------

def regularity_ratio(nu1, nu2, lam: float, f: SpaceTimeField,
                     p: float, q: float,
                     burn_in: float = 0.0) -> float:
    """LHS^{1/q} / RHS^{1/q} of the maximal-regularity estimate

        int || L^{nu2} u(t) ||_p^q dt <= C int || f(t) ||_p^q dt

    where u is the Duhamel solution driven by nu1 with forcing f and zero
    initial data.  Frames with t < burn_in are excluded from both sides."""
    if levy.nondegeneracy_of(nu1) <= 0:
        raise PreconditionFailure("nu1 must be nondegenerate")
    dt, g = f.time_step, f.grid
    first = int(np.searchsorted(f.times, burn_in))   # first t >= burn_in
    n_keep = len(f.values) - first
    # trapezoid in time over the kept frames
    weights = [0.5 * dt if j in (0, n_keep - 1) else dt for j in range(n_keep)]
    rhs = sum(norm ** q * w for norm, w in
              zip(lp_norms(g, f.values[first:], p), weights))
    if not rhs > 0:
        raise InvalidArgument(f"forcing vanishes on every frame from "
                              f"burn_in = {burn_in} on: ratio undefined")
    problem = LinearProblem(nu1, DriftSchedule.zero(g.dim), lam, f,
                            GridField.zeros(g, f.components),
                            horizon=dt * (len(f.values) - 1))
    u = duhamel_solve(problem, SolverConfig(time_step=dt))
    lu = apply_multiplier(u.values[first:],
                          multiplier(nu2, g, OperatorRoute.multiplier()), g)
    lhs = sum(norm ** q * w for norm, w in zip(lp_norms(g, lu, p), weights))
    return (lhs / rhs) ** (1.0 / q)
