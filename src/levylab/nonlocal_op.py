"""Application of the nonlocal operator L^nu to grid fields by two routes.

* Multiplier route: transform, multiply by -psi(xi), inverse transform.
* Quadrature route: compensated node sums over spherical directions times
  log-spaced radii.  Each node displaces the field by r*theta, which on a
  periodic grid is an exact spectral phase shift; the node sums are therefore
  a quadrature-built multiplier, assembled at every frequency at once by the
  type-1 NUFFT of ``fieldgrid``.  The singular region r < h/2 is handled by
  a Taylor expansion to fourth order with spectral derivatives, and the
  jumps beyond the truncation radius (for alpha > 1 with their
  compensation) are added analytically.

The two routes share no symbol formulas, so their agreement cross-validates
both implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_simpson

from . import levy
from .errors import ConsistencyFailure, InvalidArgument
from .fieldgrid import (GridField, apply_multiplier, coarsen_samples,
                        forward, gauss_legendre, inverse, nufft_type1, refine,
                        resolve, spectral_points)

COMMUTATOR_TOL = 1e-6
MULTIPLIER_CACHE_SIZE = 16
TAIL_PROFILE_CACHE_SIZE = 8         # profiles of ~340 KB, one per alpha
TAIL_BLOCK = 1 << 16                # (frequency, direction) entries per tail block


@dataclass(frozen=True)
class OperatorRoute:
    """How to apply L^nu: exact symbol multiplier, or compensated quadrature
    with ``radial_nodes`` log-spaced radii up to half the box side L/2."""

    variant: str                          # "multiplier" | "quadrature"
    radial_nodes: int = 0

    def __post_init__(self):
        if self.variant not in ("multiplier", "quadrature"):
            raise InvalidArgument(f"unknown route variant {self.variant!r}")
        if self.variant == "quadrature" and self.radial_nodes < 10:
            raise InvalidArgument("quadrature route needs >= 10 radial nodes")

    @classmethod
    def multiplier(cls) -> "OperatorRoute":
        return cls("multiplier")

    @classmethod
    def quadrature(cls, radial_nodes: int = 512) -> "OperatorRoute":
        return cls("quadrature", radial_nodes)


# ---------------------------------------------------------------------------
# quadrature node construction
# ---------------------------------------------------------------------------

def _direction_rule(measure):
    """Spherical directions and weights carrying the angular part of nu
    (excluding the radial kernel and any radial density factor)."""
    if isinstance(measure, levy.StableSpectral):
        sig = measure.sigma
        if sig.is_isotropic and sig.dim > 1:
            n = {2: 128, 3: 24}[sig.dim]
            dirs, wts = levy._sphere_rule(sig.dim, n)
            return dirs, wts * (sig.total_mass / levy._sphere_area(sig.dim))
        return sig.atom_arrays()
    if isinstance(measure, levy.DensityKernel):
        n = {1: 2, 2: 128, 3: 24}[measure.dim]
        return levy._sphere_rule(measure.dim, n)
    raise InvalidArgument(f"unknown measure type {type(measure)!r}")


def _radial_rule(alpha: float, r_min: float, r_max: float, n_nodes: int):
    """Gauss-Legendre panels in log r on [r_min, r_max] with r = 1 forced to
    a panel edge (the alpha = 1 compensation switches there); weights include
    the r^{-1-alpha} kernel."""
    pts_per_panel = 10
    n_panels = max(2, n_nodes // pts_per_panel)
    if r_min < 1.0 < r_max:
        frac = math.log(1.0 / r_min) / math.log(r_max / r_min)
        n_lo = min(n_panels - 1, max(1, round(n_panels * frac)))
        edges = np.concatenate([
            np.exp(np.linspace(math.log(r_min), 0.0, n_lo + 1)),
            np.exp(np.linspace(0.0, math.log(r_max), n_panels - n_lo + 1))[1:]])
    else:
        edges = np.exp(np.linspace(math.log(r_min), math.log(r_max),
                                   n_panels + 1))
    gx, gw = gauss_legendre(pts_per_panel)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    r = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w = (half[:, None] * gw[None, :]).ravel() * r ** (-1.0 - alpha)
    return r, w


@lru_cache(maxsize=TAIL_PROFILE_CACHE_SIZE)
def _oscillatory_tail_profile(alpha: float):
    """Regularized tail profiles on a dense grid, extended through v = 0.

    With F(v) = int_v^inf e^{iu} u^{-1-alpha} du, returns (v, G, H) where

        G(v) = Re F(v) - v^{-alpha}/alpha          (G(0) = -c_alpha),
        H(v) = Im F(v) - v^{1-alpha}/(alpha-1)     for alpha > 1,
        H(v) = Im F(v)                             for alpha <= 1.

    Both are smooth and bounded near 0, so the even/odd tail integrals
    become mag^alpha * G(mag R) and mag^alpha * sign(s) * H(mag R) without
    catastrophic cancellation when xi . theta underflows toward zero.
    Dense cumulative Simpson up to U = 60, three-term integration-by-parts
    asymptotics beyond; linear interpolation is accurate to ~1e-6.
    """
    U = 60.0
    v = np.concatenate([
        np.exp(np.linspace(np.log(1e-4), 0.0, 2000, endpoint=False)),
        np.arange(1.0, U + 0.005, 0.005)])
    g = np.exp(1j * v) * v ** (-1.0 - alpha)
    cum = (cumulative_simpson(g.real, x=v, initial=0.0)
           + 1j * cumulative_simpson(g.imag, x=v, initial=0.0))
    f_at_u = 1j * np.exp(1j * U) * U ** (-1.0 - alpha) * (
        1.0 + 1j * (1.0 + alpha) / U
        - (1.0 + alpha) * (2.0 + alpha) / U ** 2)
    f = (cum[-1] - cum) + f_at_u
    g_reg = f.real - v ** (-alpha) / alpha
    if alpha > 1.0:
        h_reg = f.imag - v ** (1.0 - alpha) / (alpha - 1.0)
        h0 = h_reg[0]                      # O(v_min^{3-alpha}) from the limit
    elif alpha == 1.0:
        h_reg = f.imag                     # log-divergent, but always scaled
        h0 = h_reg[0]                      # by mag^alpha -> 0 faster
    else:
        h_reg = f.imag
        h0 = levy.radial_sine_constant(alpha)
    v_ext = np.concatenate([[0.0], v])
    g_ext = np.concatenate([[-levy.radial_cosine_constant(alpha)], g_reg])
    h_ext = np.concatenate([[h0], h_reg])
    return v_ext, g_ext, h_ext


def _tail_multiplier(measure, grid, xi):
    """Analytic correction for jumps beyond the truncation radius R = L/2:
    per direction, int_R^inf (e^{i s r} - 1 - comp) r^{-1-alpha} dr with the
    density (if any) frozen at R theta, at frequencies xi (n, dim).
    Diagonal in frequency.  A symmetric measure keeps one side of each +/-
    pair (``levy.antipodal_pairs``) at doubled weight and the even part only;
    s = xi.theta is formed TAIL_BLOCK (frequency, direction) entries at a time."""
    alpha = measure.alpha
    r_max = grid.side_length / 2.0
    dirs, dir_wts = _direction_rule(measure)
    paired = levy.antipodal_pairs(dirs, dir_wts) if measure.is_symmetric else None
    if paired is not None:
        dirs, dir_wts = paired[0], 2.0 * paired[1]
    if isinstance(measure, levy.DensityKernel):
        dir_wts = dir_wts * measure._eval_a(r_max * dirs)
    v_tab, g_tab, h_tab = _oscillatory_tail_profile(alpha)
    mult = np.empty(len(xi), dtype=float if paired is not None else complex)
    per_block = max(1, TAIL_BLOCK // len(dirs))
    for k0 in range(0, len(xi), per_block):
        s = xi[k0:k0 + per_block] @ dirs.T
        v = np.abs(s) * r_max
        # even part: int_R^inf (cos(s r) - 1) r^{-1-alpha} dr = |s|^a G(|s| R)
        # and odd part (compensated beyond R when alpha > 1), which cancels
        # in +/- pairs: |s|^a sign(s) H(|s| R)
        tail = np.interp(v, v_tab, g_tab)
        if paired is None:
            tail = tail + 1j * np.sign(s) * np.interp(v, v_tab, h_tab)
        mult[k0:k0 + per_block] = (np.abs(s) ** alpha * tail) @ dir_wts
    return mult


def _quadrature_multiplier(measure, grid, route, xi):
    """-psi_quadrature at lattice frequencies xi (n, dim), built from
    compensated node sums on the grid's scales (no closed-form symbol
    involved).  The nodes y = r theta, weights c and frequencies make the
    sum of c (e^{i xi.y} - 1 - i xi.y 1_comp) one type-1 NUFFT."""
    alpha = measure.alpha
    h = grid.spacing
    r_min = h / 2.0
    r_max = grid.side_length / 2.0
    if r_max < h:
        raise InvalidArgument("truncation radius below grid spacing")
    if alpha == 1.0 and r_max < 1.0:
        raise InvalidArgument("alpha = 1 needs truncation radius >= 1 "
                              "(unit-ball compensation)")
    dirs, dir_wts = _direction_rule(measure)
    radii, rad_wts = _radial_rule(alpha, r_min, r_max, route.radial_nodes)
    paired = levy.antipodal_pairs(dirs, dir_wts) if measure.is_symmetric else None
    if paired is not None:
        # symmetric: each +/- pair sums to 2 (cos(xi.y) - 1); the odd
        # compensation and Taylor orders cancel, so only the real part stays
        dirs, dir_wts = paired[0], 2.0 * paired[1]
    is_density = isinstance(measure, levy.DensityKernel)

    nodes = (dirs[:, None, :] * radii[:, None]).reshape(-1, measure.dim)
    weights = (dir_wts[:, None] * rad_wts).ravel()
    if is_density:
        weights = weights * measure._eval_a(nodes)
    mult = nufft_type1(grid.side_length, nodes, weights, xi) - weights.sum()
    # first-order compensation: every radius for alpha > 1, r <= 1 for
    # alpha = 1, none for alpha < 1
    comp_radius = np.inf if alpha > 1.0 else (1.0 if alpha == 1.0 else 0.0)
    comp = np.tile(radii <= comp_radius, len(dirs))
    mult -= 1j * (xi @ ((weights * comp) @ nodes))

    # singular region r < h/2 by Taylor with spectral derivatives:
    # sum_k (i xi.theta)^k r_min^{k-a} / (k! (k-a)); k = 1 only when
    # uncompensated.  The sum over directions of w (xi.theta)^k is the
    # contraction of xi^{(x)k} with the moment tensor sum w theta^{(x)k}.
    a0 = measure._eval_a(r_min * dirs) if is_density else 1.0
    xi_pow = np.ones((len(xi), 1))                 # xi^{(x)k}, flattened
    moment = (dir_wts * a0)[:, None]               # w theta^{(x)k}, flattened
    for k in range(1, 5):
        xi_pow = (xi_pow[:, :, None] * xi[:, None, :]).reshape(len(xi), -1)
        moment = (moment[:, :, None] * dirs[:, None, :]).reshape(len(dirs), -1)
        if k >= 2 or alpha < 1.0:
            mult += (1j ** k * r_min ** (k - alpha) / (
                math.factorial(k) * (k - alpha))) * (xi_pow @ moment.sum(axis=0))
    if paired is not None:
        mult = mult.real
    # jumps beyond the truncation radius (includes the alpha > 1
    # compensation tail), diagonal in frequency
    return mult + _tail_multiplier(measure, grid, xi)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MULTIPLIER_CACHE_SIZE)
def multiplier(measure, grid, route: OperatorRoute) -> np.ndarray:
    """The multiplier of L^nu at the grid's spectral_points by the requested
    route: -psi, or its quadrature counterpart.  Cached per (measure, grid,
    route), read-only; the heat and solver multipliers derive from the
    multiplier-route entry."""
    xi = spectral_points(grid)
    if route.variant == "multiplier":
        mult = -levy.symbol_array(measure, xi)
    else:
        mult = _quadrature_multiplier(measure, grid, route, xi)
    mult.flags.writeable = False
    return mult


def apply(measure, field: GridField,
          route: OperatorRoute = OperatorRoute.multiplier()) -> GridField:
    """L^nu f on the grid by the requested route."""
    if field.grid.dim != measure.dim:
        raise InvalidArgument("measure and field dimensions differ")
    return apply_multiplier(field, multiplier(measure, field.grid, route))


def adjoint_apply(measure, field: GridField,
                  route: OperatorRoute = OperatorRoute.multiplier()) -> GridField:
    """L^{nu*} f = L^{nu(-)} f (reflected measure), so that
    <L f, g> = <f, L* g> on the grid.  A symmetric measure is its own
    reflection, so it keeps its own multiplier-cache entry."""
    if not measure.is_symmetric:
        measure = measure.reflected()
    return apply(measure, field, route)


# ---------------------------------------------------------------------------
# commutator defect
# ---------------------------------------------------------------------------

def commutator_defect(measure, f: GridField, zeta: GridField,
                      route: OperatorRoute | None = None) -> GridField:
    """L(f zeta) - (L f) zeta - f (L zeta), computed two ways on a shared
    quadrature node set:

    * composed: three applications of the quadrature route,
    * direct: the identity  int [f(x+y)-f(x)][zeta(x+y)-zeta(x)] nu(dy),

    asserting relative L^2 agreement within 1e-6 and returning the composed
    version."""
    if f.grid != zeta.grid or f.components != 1 or zeta.components != 1:
        raise InvalidArgument("f and zeta must be scalar fields on one grid")
    if route is None:
        route = OperatorRoute.quadrature()
    if route.variant != "quadrature":
        raise InvalidArgument("commutator defect requires the quadrature route")
    # work on a spectrally refined grid so the product f*zeta is exactly
    # representable (no aliasing in the composed-vs-direct comparison)
    f = refine(f, 2)
    zeta = refine(zeta, 2)
    g = f.grid

    product = GridField(g, f.values * zeta.values)
    composed = (apply(measure, product, route).values
                - apply(measure, f, route).values * zeta.values
                - f.values * apply(measure, zeta, route).values)

    direct = _direct_commutator(measure, f, zeta, route)

    scale = max(float(np.sqrt(np.mean(composed ** 2))), 1e-300)
    diff = float(np.sqrt(np.mean((composed - direct) ** 2))) / scale
    if diff > COMMUTATOR_TOL:
        raise ConsistencyFailure(
            f"commutator identity residual {diff:.3e} exceeds {COMMUTATOR_TOL:.1e}",
            discrepancy=diff)
    return coarsen_samples(GridField(g, composed), 2)


def _direct_commutator(measure, f, zeta, route):
    """Node-sum of [Delta_y f][Delta_y zeta] over the shared node set, with
    the singular region handled by the matching Taylor term
    2 * (theta.grad f)(theta.grad zeta) * r_min^{2-alpha} / (2 (2-alpha))."""
    g = f.grid
    alpha = measure.alpha
    h = g.spacing
    r_min = h / 2.0
    r_max = g.side_length / 2.0
    dirs, dir_wts = _direction_rule(measure)
    radii, rad_wts = _radial_rule(alpha, r_min, r_max, route.radial_nodes)

    xi = spectral_points(g)
    f_hat = forward(f)
    z_hat = forward(zeta)

    def spatial(co, mult):
        return inverse(g, co * resolve(g, mult))

    out = np.zeros((1,) + g.shape)
    is_density = isinstance(measure, levy.DensityKernel)
    for theta, wt in zip(dirs, dir_wts):
        s = xi @ theta
        node_w = wt * rad_wts
        if is_density:
            node_w = node_w * measure._eval_a(radii[:, None] * theta)
        for r, w in zip(radii, node_w):
            phase = np.exp(1j * s * r)
            df = spatial(f_hat, phase) - f.values
            dz = spatial(z_hat, phase) - zeta.values
            out += w * df * dz
        # singular region: Taylor product [Delta f][Delta zeta] =
        # sum r^{j+k} F_j G_k / (j! k!) with F_k = (theta.grad)^k f, matched
        # order-by-order with the composed route's inner expansion
        a0 = float(measure._eval_a(r_min * theta)) if is_density else 1.0
        derivs = [(1j * s) ** k for k in (1, 2, 3)]
        F = [spatial(f_hat, dk) for dk in derivs]
        Z = [spatial(z_hat, dk) for dk in derivs]
        inner = (F[0] * Z[0] * r_min ** (2.0 - alpha) / (2.0 - alpha)
                 + 0.5 * (F[0] * Z[1] + F[1] * Z[0])
                 * r_min ** (3.0 - alpha) / (3.0 - alpha)
                 + ((F[0] * Z[2] + F[2] * Z[0]) / 6.0 + F[1] * Z[1] / 4.0)
                 * r_min ** (4.0 - alpha) / (4.0 - alpha))
        out += (wt * a0) * inner
    # tail beyond the truncation radius: expand [Delta f][Delta zeta] into
    # Delta(f zeta) - (Delta f) zeta - f (Delta zeta) and apply the same
    # analytic tail correction as the composed route (exact cancellation of
    # the shared approximation in the consistency comparison)
    tail = _tail_multiplier(measure, g, xi)
    p_hat = forward(GridField(g, f.values * zeta.values))
    t_p, t_f, t_z = (spatial(co, tail) for co in (p_hat, f_hat, z_hat))
    out += t_p - t_f * zeta.values - f.values * t_z
    return out
