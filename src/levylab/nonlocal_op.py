"""Application of the nonlocal operator L^nu to grid fields by two routes.

* Multiplier route: transform, multiply by -psi(xi), inverse transform.
* Quadrature route: compensated node sums over spherical directions times
  log-spaced radii.  Each node displaces the field by r*theta, which on a
  periodic grid is an exact spectral phase shift; the node sums are therefore
  a quadrature-built multiplier, assembled at every frequency at once by the
  type-1 NUFFT of ``fieldgrid`` at its tolerance NUFFT_EPS = 1e-8, below
  the route's discretisation error of 1e-5 to 1e-3.  The radii come in
  panels of 10; for an isotropic measure in d >= 2 each panel has the
  smallest direction rule that resolves e^{i r xi.theta} to NUFFT_EPS at
  its largest r and every lattice frequency, so the many small radii take
  few directions.  Atoms keep their exact set and a density its fixed rule
  at every panel.  The "- 1" of every node is the NUFFT's own value at
  xi = 0, so the quadrature psi(0) is exactly 0 and the NUFFT error
  cancels at low frequencies, where |psi| is small.  The singular region
  r < h/2 is handled by a Taylor expansion to fourth order with spectral
  derivatives, and the jumps beyond the truncation radius (for alpha > 1
  with their compensation) are added analytically, both on one fixed
  direction rule.

The two routes share no symbol formulas, so their agreement cross-validates
both implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_simpson

from . import levy
from .errors import ConsistencyFailure, InvalidArgument
from .fieldgrid import (NUFFT_EPS, GridField, apply_multiplier,
                        coarsen_samples, forward, inverse, nufft_type1, refine,
                        resolve, spectral_points)

COMMUTATOR_TOL = 1e-6
MULTIPLIER_CACHE_SIZE = 16
TAIL_PROFILE_CACHE_SIZE = 8         # profiles of ~340 KB, one per alpha
TAIL_BLOCK = 1 << 16                # (frequency, direction) entries per tail block
# tail table layout: 0, then TAIL_LOG_POINTS log-spaced points on
# [TAIL_LOG_START, 1), then steps of TAIL_STEP on [1, TAIL_END]
TAIL_LOG_START, TAIL_LOG_POINTS = 1e-4, 2000
TAIL_STEP, TAIL_END = 0.005, 60.0


@dataclass(frozen=True)
class OperatorRoute:
    """How to apply L^nu: exact symbol multiplier, or compensated quadrature
    with ``radial_nodes`` log-spaced radii up to half the box side L/2."""

    variant: str                          # "multiplier" | "quadrature"
    radial_nodes: int = 0

    def __post_init__(self):
        if self.variant not in ("multiplier", "quadrature"):
            raise InvalidArgument(f"unknown route variant {self.variant!r}")
        if self.variant == "quadrature" and (
                self.radial_nodes < 20 or self.radial_nodes % 10):
            raise InvalidArgument("quadrature route needs a multiple of 10 "
                                  ">= 20 radial nodes (10 per panel), got "
                                  f"{self.radial_nodes}")

    @classmethod
    def multiplier(cls) -> "OperatorRoute":
        return cls("multiplier")

    @classmethod
    def quadrature(cls, radial_nodes: int = 510) -> "OperatorRoute":
        return cls("quadrature", radial_nodes)


# ---------------------------------------------------------------------------
# quadrature node construction
# ---------------------------------------------------------------------------

class _NodeSet(NamedTuple):
    """The quadrature route's nodes on a grid (see ``_nodes``)."""

    r_min: float            # Taylor radius h/2
    r_max: float            # truncation radius R = L/2
    nodes: np.ndarray       # (n, dim) jumps y = r theta
    weights: np.ndarray     # (n,) radial x angular weight (x a(y) for a density)
    comp: np.ndarray        # (n,) bool: y carries the first-order compensation
    sides: tuple            # (dirs, dir_wts, paired): the Taylor and tail rule


def _direction_rule(measure):
    """Spherical directions and weights carrying the angular part of nu
    (excluding the radial kernel and any radial density factor): the rule
    of the Taylor region and the tail, and of every radial panel of a
    measure other than an isotropic one in d >= 2."""
    if isinstance(measure, levy.StableSpectral):
        sig = measure.sigma
        if sig.is_isotropic and sig.dim > 1:
            n = {2: 128, 3: 24}[sig.dim]
            dirs, wts = levy.sphere_rule(sig.dim, n)
            return dirs, wts * (sig.total_mass / levy.sphere_area(sig.dim))
        return sig.atom_arrays()
    if isinstance(measure, levy.DensityKernel):
        n = {1: 2, 2: 128, 3: 24}[measure.dim]
        return levy.sphere_rule(measure.dim, n)
    raise InvalidArgument(f"unknown measure type {type(measure)!r}")


def _radial_panels(measure, grid, route):
    """(r_min, r_max, radii, weights): the Taylor radius r_min = h/2, the
    truncation radius R = L/2, and ``route.radial_nodes`` radii on
    [r_min, R] with their weights (``levy.radial_rule``), one row of 10 per
    log panel."""
    alpha = measure.alpha
    h = grid.spacing
    r_min, r_max = h / 2.0, grid.side_length / 2.0
    if r_max < h:
        raise InvalidArgument("truncation radius below grid spacing")
    if alpha == 1.0 and r_max < 1.0:
        raise InvalidArgument("alpha = 1 needs truncation radius >= 1 "
                              "(unit-ball compensation)")
    n = route.radial_nodes // 10
    n_lo = min(n - 1, max(1, round(
        n * math.log(1.0 / r_min) / math.log(r_max / r_min))))
    radii, rad_wts = levy.radial_rule(alpha, r_min, r_max, n_lo, n - n_lo)
    return r_min, r_max, radii.reshape(n, 10), rad_wts.reshape(n, 10)


def _bandwidth_rules(sigma, grid, panel_r_max):
    """For an isotropic sigma in d >= 2, per radial panel: one side of each
    +/- pair, at doubled weight, of the smallest ``levy.sphere_rule`` whose
    first neglected term of e^{i r xi.theta} is below NUFFT_EPS
    (``levy.sphere_rule_size``) at the panel's largest r and every lattice
    frequency, |xi| <= pi sqrt(d) / h."""
    xi_max = math.pi * math.sqrt(grid.dim) / grid.spacing
    scale = 2.0 * sigma.total_mass / levy.sphere_area(sigma.dim)
    rules = []
    for n in levy.sphere_rule_size(sigma.dim, panel_r_max * xi_max, NUFFT_EPS):
        dirs, wts = levy.sphere_rule(sigma.dim, int(n))
        half = len(dirs) // 2
        rules.append((dirs[:half], scale * wts[:half]))
    return rules


def _nodes(measure, grid, route) -> _NodeSet:
    """The quadrature route's node set on a grid, flat: direction by
    direction, each at its radial panel's 10 radii (``_radial_panels``) or,
    where one rule serves every panel, at all radii.  For an isotropic
    measure in d >= 2 each panel has a rule sized to its bandwidth
    (``_bandwidth_rules``).  Every other measure has the rule of
    ``_direction_rule`` at every panel: the exact atoms, or a density's
    fixed rule (its a has no known angular bandwidth).  ``sides`` is that
    rule for the Taylor region and the tail: for a symmetric measure one
    side of each +/- pair at doubled weight (``levy.antipodal_pairs``), else
    all directions, and whether it paired.  Paired, the nodes too are one
    side of each pair at doubled weight."""
    r_min, r_max, radii, rad_wts = _radial_panels(measure, grid, route)
    dirs, dir_wts = _direction_rule(measure)
    paired = levy.antipodal_pairs(dirs, dir_wts) if measure.is_symmetric else None
    sides = ((dirs, dir_wts, False) if paired is None
             else (paired[0], 2.0 * paired[1], True))
    if (isinstance(measure, levy.StableSpectral) and measure.sigma.is_isotropic
            and measure.dim > 1):
        rules = _bandwidth_rules(measure.sigma, grid, radii.max(axis=1))
        dirs, dir_wts = map(np.concatenate, zip(*rules))
        panel = np.repeat(np.arange(len(radii)), [len(d) for d, _ in rules])
        radii, rad_wts = radii[panel], rad_wts[panel]        # one row per direction
    else:
        dirs, dir_wts = sides[:2]
        radii, rad_wts = radii.reshape(1, -1), rad_wts.reshape(1, -1)
    nodes = (dirs[:, None, :] * radii[:, :, None]).reshape(-1, measure.dim)
    weights = (dir_wts[:, None] * rad_wts).ravel()
    comp = np.broadcast_to(radii <= levy.compensation_radius(measure.alpha),
                           (len(dirs), radii.shape[1])).ravel()
    if isinstance(measure, levy.DensityKernel):
        weights = weights * measure._eval_a(nodes)
    return _NodeSet(r_min, r_max, nodes, weights, comp, sides)


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
    Dense cumulative Simpson up to U = TAIL_END, three-term
    integration-by-parts asymptotics beyond; linear interpolation is
    accurate to ~1e-6.
    """
    U = TAIL_END
    v = np.concatenate([
        np.exp(np.linspace(np.log(TAIL_LOG_START), 0.0, TAIL_LOG_POINTS,
                           endpoint=False)),
        np.arange(1.0, U + TAIL_STEP, TAIL_STEP)])
    g = np.exp(1j * v) * v ** (-1.0 - alpha)
    cum = (cumulative_simpson(g.real, x=v, initial=0.0)
           + 1j * cumulative_simpson(g.imag, x=v, initial=0.0))
    f_at_u = 1j * np.exp(1j * U) * U ** (-1.0 - alpha) * (
        1.0 - 1j * (1.0 + alpha) / U
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


def _tail_interval(v_tab, v_next, v):
    """Index i with v_tab[i] <= v < v_next[i] for v >= 0 (v_next: v_tab
    shifted by one, ending in inf), by index arithmetic on the layout of
    ``_oscillatory_tail_profile`` instead of a binary search.  Rounding can
    put v one interval off at an edge; one comparison each way corrects it."""
    pos = (v - 1.0) * (1.0 / TAIL_STEP) + (1 + TAIL_LOG_POINTS)
    low = v < 1.0
    pos[low] = 1.0 + np.log(np.maximum(v[low], TAIL_LOG_START) / TAIL_LOG_START) * (
        TAIL_LOG_POINTS / -math.log(TAIL_LOG_START))
    i = np.minimum(pos.astype(np.int64), len(v_tab) - 1)
    i -= v < v_tab[i]
    i += v >= v_next[i]
    return i


def _tail_multiplier(measure, r_max, sides, xi):
    """Analytic correction for jumps beyond the truncation radius R = r_max:
    per direction, int_R^inf (e^{i s r} - 1 - comp) r^{-1-alpha} dr with the
    density (if any) frozen at R theta, at frequencies xi (n, dim), over
    the directions and weights of ``sides`` (see ``_nodes``).  Diagonal in
    frequency.  A paired (symmetric) measure keeps the even part only;
    s = xi.theta (``levy.projections``, so a rounding residue where xi is
    normal to theta is 0) is formed TAIL_BLOCK (frequency, direction)
    entries at a time.  G and H are read by linear interpolation in the
    table, as np.interp would, with slope 0 past its end (the clamp)."""
    alpha = measure.alpha
    dirs, dir_wts, paired = sides
    if isinstance(measure, levy.DensityKernel):
        dir_wts = dir_wts * measure._eval_a(r_max * dirs)
    v_tab, g_tab, h_tab = _oscillatory_tail_profile(alpha)
    v_next = np.append(v_tab[1:], np.inf)
    g_slope, h_slope = (np.append(np.diff(f) / np.diff(v_tab), 0.0)
                        for f in (g_tab, h_tab))
    mult = np.empty(len(xi), dtype=float if paired else complex)
    per_block = max(1, TAIL_BLOCK // len(dirs))
    for k0 in range(0, len(xi), per_block):
        s = levy.projections(xi[k0:k0 + per_block], dirs)
        v = np.abs(s) * r_max
        i = _tail_interval(v_tab, v_next, v)
        dv = v - v_tab[i]
        # even part: int_R^inf (cos(s r) - 1) r^{-1-alpha} dr = |s|^a G(|s| R)
        # and odd part (compensated beyond R when alpha > 1), which cancels
        # in +/- pairs: |s|^a sign(s) H(|s| R)
        tail = g_slope[i] * dv + g_tab[i]
        if not paired:
            tail = tail + 1j * np.sign(s) * (h_slope[i] * dv + h_tab[i])
        mult[k0:k0 + per_block] = (np.abs(s) ** alpha * tail) @ dir_wts
    return mult


def _quadrature_multiplier(measure, grid, route, xi):
    """-psi_quadrature at lattice frequencies xi (n, dim), built from
    compensated node sums on the grid's scales (no closed-form symbol
    involved).  The nodes y = r theta, weights c and frequencies make the
    sum of c (e^{i xi.y} - 1 - i xi.y 1_comp) one type-1 NUFFT (at
    ``fieldgrid.NUFFT_EPS``), whose row for xi = 0, appended to the same call,
    gives the sum of c: psi(0) is then exactly 0, and the NUFFT error at
    frequencies near 0 cancels against it."""
    alpha = measure.alpha
    ns = _nodes(measure, grid, route)
    r_min = ns.r_min
    # symmetric: each +/- pair sums to 2 (cos(xi.y) - 1); the odd
    # compensation and Taylor orders cancel, so only the real part stays
    dirs, dir_wts, paired = ns.sides
    is_density = isinstance(measure, levy.DensityKernel)

    sums = nufft_type1(grid.side_length, ns.nodes, ns.weights,
                       np.vstack([xi, np.zeros(measure.dim)]))
    mult = sums[:-1] - sums[-1]
    mult -= 1j * (xi @ ((ns.weights * ns.comp) @ ns.nodes))

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
    if paired:
        mult = mult.real
    # jumps beyond the truncation radius (includes the alpha > 1
    # compensation tail), diagonal in frequency
    return mult + _tail_multiplier(measure, ns.r_max, ns.sides, xi)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MULTIPLIER_CACHE_SIZE)
def multiplier(measure, grid, route: OperatorRoute) -> np.ndarray:
    """The multiplier of L^nu at the grid's spectral_points by the requested
    route: -psi, or its quadrature counterpart.  Real (float64) for a
    symmetric measure, whose odd part vanishes, by either route; complex
    otherwise.  Cached per (measure, grid, route), read-only; the adjoint
    reads the same entry, and the heat and solver multipliers derive from
    the multiplier-route entry and keep its dtype."""
    if grid.dim != measure.dim:
        raise InvalidArgument(f"measure dim {measure.dim}, grid dim {grid.dim}")
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
    return apply_multiplier(field, multiplier(measure, field.grid, route))


def adjoint_apply(measure, field: GridField,
                  route: OperatorRoute = OperatorRoute.multiplier()) -> GridField:
    """L^{nu*} f, so that <L f, g> = <f, L* g> on the grid: L is real, so
    its adjoint's multiplier is the conjugate of the cached multiplier of
    L (the conjugation rule of ``fieldgrid``)."""
    mult = multiplier(measure, field.grid, route)
    return apply_multiplier(field, np.conj(mult))


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


def _both_sides(points, weights, paired):
    """Each point of a paired set as itself and its negative at half weight;
    an unpaired set as it is."""
    if not paired:
        return points, weights
    return (np.concatenate([points, -points]),
            np.concatenate([weights, weights]) * 0.5)


def _direct_commutator(measure, f, zeta, route):
    """Node-sum of [Delta_y f][Delta_y zeta] over the shared node set, both
    sides of each pair, with the singular region handled by the matching
    Taylor term 2 * (theta.grad f)(theta.grad zeta) * r_min^{2-alpha} /
    (2 (2-alpha)) on the Taylor rule."""
    g = f.grid
    alpha = measure.alpha
    ns = _nodes(measure, g, route)
    r_min = ns.r_min
    dirs, dir_wts, paired = ns.sides

    xi = spectral_points(g)
    f_hat = forward(f)
    z_hat = forward(zeta)

    def spatial(co, mult):
        return inverse(g, co * resolve(g, mult))

    out = np.zeros((1,) + g.shape)
    for y, w in zip(*_both_sides(ns.nodes, ns.weights, paired)):
        phase = np.exp(1j * (xi @ y))
        df = spatial(f_hat, phase) - f.values
        dz = spatial(z_hat, phase) - zeta.values
        out += w * df * dz
    is_density = isinstance(measure, levy.DensityKernel)
    for theta, wt in zip(*_both_sides(dirs, dir_wts, paired)):
        s = xi @ theta
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
    tail = _tail_multiplier(measure, ns.r_max, ns.sides, xi)
    p_hat = forward(f.values * zeta.values, g)
    t_p, t_f, t_z = (spatial(co, tail) for co in (p_hat, f_hat, z_hat))
    out += t_p - t_f * zeta.values - f.values * t_z
    return out
