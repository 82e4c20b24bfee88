"""Quasi-linear critical solvers: an ETD2 march with a fixed point inside
each step, multidimensional critical Burgers, and the Hamilton-Jacobi
reduction.

Model system (m components, shared scalar generator L and shared drift):

    d/dt u = L u + b(t, x, u) . grad u + f(t, x, u),     u(0) = phi,

solved by ``linear_solver.etd2_march``: each step iterates u_{n+1} in the
trapezoidal ETD2 relation with b and f evaluated at u_{n+1} itself.  The
step starts from the relation with G = b . grad u + f at t_{n+1} linearly
extrapolated from t_{n-1} and t_n (at step 0, G at t_{-1} is taken to be
G at t_0), and takes G at t_n from the previous step's last iteration, so
the march evaluates b and f once at t = 0 and once per iteration.

Critical Burgers  d/dt u + (-Delta)^{1/2} u + u . grad u = 0  is the case
b(t,x,u) = -u, f = 0 (the minus sign moves u . grad u to the right side).

The Hamilton-Jacobi equation  d/dt u + (-Delta)^{1/2} u + H(t,x,u,grad u) = 0
is solved through the augmented field w = (u, q) with q = grad u.  Writing
H = grad_q H . q + (H - grad_q H . q) gives one shared drift for all
components, b = -grad_q H, with forcing

    f_u   = -(H - grad_q H . q),
    f_{q_i} = -(d_{x_i} H + d_u H q_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import levy
from .errors import (GradientAugmentationInconsistency, InvalidArgument,
                     PreconditionFailure)
from .fieldgrid import GridField, SpaceTimeField, gradient, inverse, lp_norm
from .linear_solver import SolverConfig, advection, etd2_march, step_count

GRADIENT_CONSISTENCY_TOL = 1e-3


@dataclass(frozen=True)
class QuasilinearProblem:
    """Quasi-linear problem data.  ``drift_b(t, x, u)`` maps coordinates
    (*grid, d) and state (m, *grid) to a vector field (d, *grid);
    ``forcing_f(t, x, u)`` returns (m, *grid)."""

    measure: object
    components: int
    drift_b: object             # callable or None
    forcing_f: object           # callable or None
    phi: GridField
    horizon: float

    def __post_init__(self):
        if getattr(self.measure, "alpha", None) != 1.0:
            raise InvalidArgument("quasi-linear solver requires alpha = 1")
        if not 0.0 < self.horizon <= 1.0:
            raise InvalidArgument("horizon must lie in (0, 1]")
        if self.phi.components != self.components:
            raise InvalidArgument("phi component count mismatch")


def picard_solve(problem: QuasilinearProblem, config: SolverConfig,
                 dealias: bool = False) -> SpaceTimeField:
    """One ETD2 march with G(u) = b(t, x, u) . grad u + f(t, x, u) taken at
    the step's current iterate, so each step is a fixed point in u_{n+1}.
    Nothing is mollified: a nonzero config.mollifier_width raises."""
    if config.mollifier_width > 0:
        raise InvalidArgument("the quasi-linear solvers do not mollify: "
                              "mollifier_width must be 0")
    if levy.nondegeneracy_of(problem.measure) <= 0:
        raise PreconditionFailure("measure must be nondegenerate")
    g = problem.phi.grid
    dt = config.time_step
    x = g.coordinates()

    def coefficient(fn, n, u):
        return np.asarray(fn(n * dt, x, u), dtype=float)

    def nonlinearity(n, u_hat):
        u = inverse(g, u_hat)
        out = (np.zeros_like(u) if problem.drift_b is None else
               advection(coefficient(problem.drift_b, n, u), u_hat, g))
        if problem.forcing_f is not None:
            f = coefficient(problem.forcing_f, n, u)
            if f.shape != u.shape:
                raise InvalidArgument(f"forcing has shape {f.shape}, not "
                                      f"{u.shape}")
            out = out + f
        return out

    return etd2_march(problem.phi, problem.measure, 0.0, dt,
                      step_count(problem.horizon, dt), nonlinearity, config,
                      dealias)


def burgers_solve(phi: GridField, measure, horizon: float,
                  config: SolverConfig) -> SpaceTimeField:
    """Critical Burgers: d components advected by their own negative value,
    pseudo-spectral with 2/3-rule dealiasing."""
    d = phi.grid.dim
    if phi.components != d:
        raise InvalidArgument("Burgers needs d components on a d-dim grid")
    problem = QuasilinearProblem(
        measure, d, drift_b=lambda t, x, u: -u, forcing_f=None,
        phi=phi, horizon=horizon)
    return picard_solve(problem, config, dealias=True)


# ---------------------------------------------------------------------------
# Hamilton-Jacobi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hamiltonian:
    """H(t, x, u, q) with its partial derivatives; u has shape (*grid,),
    q has shape (d, *grid); value shape (*grid,), dq shape (d, *grid)."""

    name: str
    value: object
    dx: object      # gradient in x, shape (d, *grid)
    du: object      # scalar partial, shape (*grid,)
    dq: object      # gradient in q, shape (d, *grid)


def _weighted_quadratic(name: str, weights) -> Hamiltonian:
    """H = sum_i w_i q_i^2 / 2 over the first d weights."""
    w = np.asarray(weights, dtype=float)

    def _w(q):
        return w[:q.shape[0]].reshape((-1,) + (1,) * (q.ndim - 1))

    return Hamiltonian(
        name,
        value=lambda t, x, u, q: 0.5 * np.sum(_w(q) * q ** 2, axis=0),
        dx=lambda t, x, u, q: np.zeros_like(q),
        du=lambda t, x, u, q: np.zeros_like(u),
        dq=lambda t, x, u, q: _w(q) * q)


def _smooth_bounded() -> Hamiltonian:
    return Hamiltonian(
        "smooth-bounded",
        value=lambda t, x, u, q: np.sqrt(1.0 + np.sum(q ** 2, axis=0)) - 1.0,
        dx=lambda t, x, u, q: np.zeros_like(q),
        du=lambda t, x, u, q: np.zeros_like(u),
        dq=lambda t, x, u, q: q / np.sqrt(1.0 + np.sum(q ** 2, axis=0)))


HAMILTONIANS = {
    "quadratic": lambda: _weighted_quadratic("quadratic", (1.0, 1.0, 1.0)),
    "anisotropic-quadratic": lambda: _weighted_quadratic(
        "anisotropic-quadratic", (1.0, 0.25, 2.0)),
    "smooth-bounded": _smooth_bounded,
}


def hamilton_jacobi_solve(H: Hamiltonian, phi: GridField, measure,
                          horizon: float, config: SolverConfig,
                          return_augmented: bool = False) -> SpaceTimeField:
    """Solve d/dt u + (-Delta_psi) u + H(t, x, u, grad u) = 0 through the
    augmented (u, grad u) system; returns the scalar trajectory (or the
    full augmented one) after checking grad u against the q components."""
    if phi.components != 1:
        raise InvalidArgument("phi must be scalar")
    g = phi.grid
    q0 = gradient(phi)[0]                      # (d, *grid)
    w0 = GridField(g, np.concatenate([phi.values, q0], axis=0))

    def drift_b(t, x, wv):
        u, q = wv[0], wv[1:]
        return -np.asarray(H.dq(t, x, u, q), dtype=float)

    def forcing_f(t, x, wv):
        u, q = wv[0], wv[1:]
        hv = np.asarray(H.value(t, x, u, q), dtype=float)
        dq = np.asarray(H.dq(t, x, u, q), dtype=float)
        dx = np.asarray(H.dx(t, x, u, q), dtype=float)
        du = np.asarray(H.du(t, x, u, q), dtype=float)
        f_u = -(hv - np.sum(dq * q, axis=0))
        f_q = -(dx + du[None] * q)
        return np.concatenate([f_u[None], f_q], axis=0)

    problem = QuasilinearProblem(measure, 1 + g.dim, drift_b, forcing_f,
                                 w0, horizon)
    traj = picard_solve(problem, config, dealias=True)

    final = traj.values[-1]
    grad_u = gradient(GridField(g, final[:1]))[0]
    defect = lp_norm(GridField(g, grad_u - final[1:]), 2)
    if defect >= GRADIENT_CONSISTENCY_TOL:
        raise GradientAugmentationInconsistency(
            f"|grad u - q|_2 = {defect:.3e} at final time")
    if return_augmented:
        return traj
    return SpaceTimeField.from_array(traj.time_step, g, traj.values[:, :1])
