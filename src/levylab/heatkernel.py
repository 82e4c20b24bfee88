"""Heat kernels p_t and the semigroup P_t f = F^{-1}[e^{-t psi} F f] on the
periodic grid, and the piecewise-constant drift schedules theta(t) that
``linear_solver.duhamel_solve`` takes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import levy
from .errors import InvalidArgument, PreconditionFailure, ResolutionTooCoarse
from .fieldgrid import Grid, GridField, apply_multiplier, inverse, resolve
from .nonlocal_op import OperatorRoute, multiplier

KERNEL_MASS_TOL = 1e-6
KERNEL_NEGATIVITY_TOL = 1e-6


@dataclass(frozen=True)
class DriftSchedule:
    """Piecewise-constant x-independent drift theta(t) in R^d.

    ``values[j]`` applies on [breakpoints[j], breakpoints[j+1]); the first
    (last) value extends to -inf (+inf).  ``breakpoints`` has one more entry
    than rows of ``values`` minus one, i.e. len(values) = len(breakpoints)+1.
    """

    breakpoints: tuple          # strictly increasing times, possibly empty
    values: tuple               # tuples of length d, len = len(breakpoints)+1

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(tuple(float(c) for c in np.atleast_1d(v))
                     for v in self.values)
        if len(vals) != len(bp) + 1:
            raise InvalidArgument("need len(values) == len(breakpoints) + 1")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise InvalidArgument("breakpoints must be strictly increasing")
        dims = {len(v) for v in vals}
        if len(dims) != 1:
            raise InvalidArgument("all drift values must share a dimension")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, theta0) -> "DriftSchedule":
        return cls((), (tuple(np.atleast_1d(theta0)),))

    @classmethod
    def zero(cls, dim: int) -> "DriftSchedule":
        return cls((), ((0.0,) * dim,))

    @property
    def dim(self) -> int:
        return len(self.values[0])

    def theta(self, t: float) -> np.ndarray:
        j = int(np.searchsorted(self.breakpoints, t, side="right"))
        return np.array(self.values[j])


# ---------------------------------------------------------------------------

def kernel(measure, t: float, grid: Grid) -> GridField:
    """Heat kernel density p_t on the grid by spectral inversion of
    e^{-t psi}; requires a nondegenerate measure."""
    if not 0.0 < t < np.inf:
        raise InvalidArgument("t must be positive and finite")
    if levy.nondegeneracy_of(measure) <= 0.0:
        raise PreconditionFailure("degenerate measure: heat kernel undefined")
    # density of the process at time t: characteristic function e^{-t psi},
    # inverted with the e^{+i xi x} convention via conj so that the forward
    # (Fokker-Planck) equation  d/dt p = L^{nu*} p  holds for asymmetric
    # measures as well
    gen = multiplier(measure, grid, OperatorRoute.multiplier())     # -psi
    mult = np.conj(gen)                 # a fresh array, real or complex
    mult *= t
    dens = inverse(grid, resolve(grid, np.exp(mult, out=mult)))
    dens /= grid.cell_volume
    mass = float(np.sum(dens) * grid.cell_volume)
    if abs(mass - 1.0) > KERNEL_MASS_TOL:
        raise ResolutionTooCoarse(
            f"kernel mass {mass:.8f} deviates from 1",
            suggested_points=2 * grid.points_per_axis,
            suggested_length=2.0 * grid.side_length)
    if float(dens.min()) < -KERNEL_NEGATIVITY_TOL:
        raise ResolutionTooCoarse(
            f"kernel minimum {dens.min():.3e} below -{KERNEL_NEGATIVITY_TOL:.0e}",
            suggested_points=2 * grid.points_per_axis,
            suggested_length=grid.side_length)
    return GridField(grid, dens)


def semigroup_apply(measure, t: float, field: GridField) -> GridField:
    """P_t f via the e^{-t psi} multiplier; t = 0 is the identity."""
    if t < 0:
        raise InvalidArgument("t must be nonnegative")
    if t == 0:
        return field
    gen = multiplier(measure, field.grid, OperatorRoute.multiplier())
    mult = np.multiply(gen, t)
    return apply_multiplier(field, np.exp(mult, out=mult))
