"""Levy measures of stable type and their characteristic exponents.

Two measure families are modelled:

* ``StableSpectral`` -- product measure r^{-1-alpha} dr x Sigma(dtheta) with a
  finite spherical part Sigma (discrete atoms or isotropic),
* ``DensityKernel`` -- a(y) dy / |y|^{d+alpha} with bounded density a.

``DirectSumAxes`` builds the singular sum of one-dimensional stable measures
along the coordinate axes as a ``StableSpectral`` with atoms +/- e_i.

The exponent is

    psi(xi) = integral (1 + i xi.y^(a) - exp(i xi.y)) nu(dy),

where the first-order compensation y^(a) is full for alpha in (1,2),
restricted to the unit ball for alpha = 1, and absent for alpha in (0,1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gamma as Gamma

from .errors import InvalidArgument, QuadratureFailure

EULER_GAMMA = 0.5772156649015328606
DENSITY_FREQ_CHUNK = 64      # frequencies per block of the density quadrature


# ---------------------------------------------------------------------------
# radial constants of the one-dimensional stable kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def radial_cosine_constant(alpha: float) -> float:
    """integral_0^inf (1 - cos u) / u^{1+alpha} du = pi / (2 G(1+a) sin(pi a/2))."""
    if not 0.0 < alpha < 2.0:
        raise InvalidArgument(f"alpha must lie in (0,2), got {alpha}")
    return math.pi / (2.0 * Gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))


@lru_cache(maxsize=None)
def radial_sine_constant(alpha: float) -> float:
    """The odd-part radial integral away from the critical index.

    alpha in (0,1):  integral_0^inf sin(u) u^{-1-alpha} du  = -G(-a) sin(pi a/2)
    alpha in (1,2):  integral_0^inf (u - sin u) u^{-1-alpha} du = G(-a) sin(pi a/2)
    """
    if alpha == 1.0 or not 0.0 < alpha < 2.0:
        raise InvalidArgument("radial_sine_constant requires alpha in (0,1) or (1,2)")
    val = Gamma(-alpha) * math.sin(math.pi * alpha / 2.0)
    return -val if alpha < 1.0 else val


def radial_imag_part(s, alpha: float):
    """Odd radial integral int_0^inf (s r 1_comp(r) - sin(s r)) r^{-1-alpha} dr.

    Vectorized in the projection s = xi . theta.  At alpha = 1 the unit-ball
    compensation gives s (log|s| + gamma - 1), obtained from Si/Ci primitives.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    nz = s != 0.0
    if not np.any(nz):
        return out
    sn = s[nz]
    if alpha > 1.0:
        out[nz] = np.sign(sn) * np.abs(sn) ** alpha * radial_sine_constant(alpha)
    elif alpha < 1.0:
        out[nz] = -np.sign(sn) * np.abs(sn) ** alpha * radial_sine_constant(alpha)
    else:
        out[nz] = sn * (np.log(np.abs(sn)) + EULER_GAMMA - 1.0)
    return out


@lru_cache(maxsize=None)
def isotropic_projection_moment(dim: int, alpha: float) -> float:
    """Mean of |theta0 . theta|^alpha over the uniform unit sphere in R^dim."""
    if dim == 1:
        return 1.0
    return Gamma(dim / 2.0) * Gamma((alpha + 1.0) / 2.0) / (
        math.sqrt(math.pi) * Gamma((dim + alpha) / 2.0))


# ---------------------------------------------------------------------------
# spherical measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalMeasure:
    """Finite measure on the unit sphere: discrete atoms or isotropic.

    For ``dim == 1`` the sphere is the two-point set {-1, +1}; an isotropic
    measure of mass M is the pair of atoms with weight M/2 each.
    """

    dim: int
    total_mass: float | None = None          # isotropic variant
    atoms: tuple = ()                        # ((direction tuple, weight), ...)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidArgument(f"dim must be 1, 2 or 3, got {self.dim}")
        object.__setattr__(self, "atoms", tuple(          # hashable
            (tuple(d), w) for d, w in self.atoms))
        if (self.total_mass is None) == (not self.atoms):
            raise InvalidArgument("exactly one of total_mass / atoms must be given")
        if self.total_mass is not None and not self.total_mass > 0:
            raise InvalidArgument("total mass must be positive")
        for direction, weight in self.atoms:
            d = np.asarray(direction, dtype=float)
            if d.shape != (self.dim,):
                raise InvalidArgument("atom direction has wrong dimension")
            if abs(np.linalg.norm(d) - 1.0) > 1e-12:
                raise InvalidArgument(f"atom direction {direction} is not unit")
            if not weight > 0:
                raise InvalidArgument("atom weights must be strictly positive")

    @classmethod
    def isotropic(cls, dim: int, total_mass: float = 1.0) -> "SphericalMeasure":
        return cls(dim=dim, total_mass=float(total_mass))

    @classmethod
    def discrete(cls, atoms, dim: int | None = None) -> "SphericalMeasure":
        atoms = tuple((tuple(float(c) for c in np.atleast_1d(d)), float(w))
                      for d, w in atoms)
        if dim is None:
            dim = len(atoms[0][0])
        return cls(dim=dim, atoms=atoms)

    @property
    def is_isotropic(self) -> bool:
        return self.total_mass is not None

    @property
    def mass(self) -> float:
        if self.is_isotropic:
            return self.total_mass
        return sum(w for _, w in self.atoms)

    @property
    def is_symmetric(self) -> bool:
        """True if atoms come in +/- pairs of equal weight (or isotropic)."""
        return self.is_isotropic or antipodal_pairs(*self.atom_arrays()) is not None

    def atom_arrays(self):
        """Directions (n, dim) and weights (n,): the atoms, or for dim == 1
        the isotropic measure as the pair +/-1 with weight M/2 each."""
        if self.is_isotropic:
            if self.dim > 1:
                raise InvalidArgument("isotropic measure has no atoms")
            return np.array([[1.0], [-1.0]]), np.full(2, self.total_mass / 2.0)
        dirs = np.array([d for d, _ in self.atoms], dtype=float)
        wts = np.array([w for _, w in self.atoms], dtype=float)
        return dirs, wts

    def reflected(self) -> "SphericalMeasure":
        if self.is_isotropic:
            return self
        return SphericalMeasure.discrete(
            [(tuple(-c for c in d), w) for d, w in self.atoms], dim=self.dim)

    def projection_moment(self, theta0, alpha: float) -> float:
        """integral |theta0 . theta|^alpha Sigma(dtheta)."""
        if self.is_isotropic:
            return self.total_mass * isotropic_projection_moment(self.dim, alpha)
        theta0 = np.asarray(theta0, dtype=float)
        dirs, wts = self.atom_arrays()
        return float(np.sum(wts * np.abs(dirs @ theta0) ** alpha))


def antipodal_pairs(dirs, wts):
    """The one +/- pairing rule: pool repeated directions, then match each
    direction with its exact negative at equal weight (1e-12 relative).
    Returns (representatives (m, dim), one-sided weights (m,)), a pair's
    first-seen side representing it, or None if the set is not paired."""
    pool = {}
    for d, w in zip(dirs, wts):
        key = tuple(map(float, d))          # -0.0 == 0.0, with equal hashes
        pool[key] = pool.get(key, 0.0) + float(w)
    kept, kept_w, seen = [], [], set()
    for d, w in pool.items():
        if d in seen:
            continue
        neg = tuple(-c for c in d)
        w_neg = pool.get(neg)
        if w_neg is None or abs(w_neg - w) > 1e-12 * max(w, w_neg):
            return None
        seen.add(neg)
        kept.append(d)
        kept_w.append(0.5 * (w + w_neg))
    return np.array(kept), np.array(kept_w)


# ---------------------------------------------------------------------------
# Levy measures
# ---------------------------------------------------------------------------

def _check_alpha(alpha):
    if not 0.0 < alpha < 2.0:
        raise InvalidArgument(f"alpha must lie in (0,2), got {alpha}")


@dataclass(frozen=True)
class StableSpectral:
    """alpha-stable Levy measure r^{-1-alpha} dr x Sigma(dtheta)."""

    alpha: float
    sigma: SphericalMeasure

    def __post_init__(self):
        _check_alpha(self.alpha)

    @property
    def dim(self) -> int:
        return self.sigma.dim

    @property
    def is_symmetric(self) -> bool:
        return self.sigma.is_symmetric

    def reflected(self) -> "StableSpectral":
        return StableSpectral(self.alpha, self.sigma.reflected())


@dataclass(frozen=True)
class DensityKernel:
    """Levy measure a(y) dy / |y|^{d+alpha} with c1 <= a <= c2."""

    alpha: float
    dim: int
    a: object                       # callable y -> density value, vectorized ok
    c1: float
    c2: float
    symmetric: bool = True
    a_name: str = ""                # registry key for serialization, optional
    a_params: tuple = ()            # ((key, value), ...) for the registry entry
    n_dirs: int = 0                 # angular nodes (0 = per-dimension default);
                                    # angular error dominates for dim >= 2

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (0.0 < self.c1 <= self.c2):
            raise InvalidArgument("need 0 < c1 <= c2")
        # spot-check the bounds on a handful of sample points
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((32, self.dim))
        vals = np.array([float(self._eval_a(p)) for p in pts])
        if np.any(vals < self.c1 - 1e-9) or np.any(vals > self.c2 + 1e-9):
            raise InvalidArgument("density a(y) leaves [c1, c2] on sample points")

    def _eval_a(self, y):
        return self.a(np.asarray(y, dtype=float))

    @property
    def is_symmetric(self) -> bool:
        return self.symmetric

    def reflected(self) -> "DensityKernel":
        inner = self.a
        return DensityKernel(self.alpha, self.dim, lambda y: inner(-np.asarray(y)),
                             self.c1, self.c2, self.symmetric,
                             a_name=self.a_name + "(-)" if self.a_name else "")


def DirectSumAxes(alpha: float, weights) -> StableSpectral:
    """Sum of the 1-d stable measures w_i |y_i|^{-1-alpha} dy_i along the
    coordinate axes: atoms +e_1..+e_d, then -e_1..-e_d, of weight w_i."""
    weights = [float(w) for w in weights]
    if not weights or any(not w > 0 for w in weights):
        raise InvalidArgument("axis weights must be strictly positive")
    eye = np.eye(len(weights))
    return StableSpectral(alpha, SphericalMeasure.discrete(
        list(zip(eye, weights)) + list(zip(0.0 - eye, weights))))


def measure_digest(measure) -> str:
    """Short identifier used in run manifests."""
    try:
        return json.dumps(to_dict(measure), sort_keys=True)
    except InvalidArgument:
        # non-registry density: fall back to a structural description
        return (f"{type(measure).__name__}(alpha={measure.alpha},"
                f" dim={measure.dim}, c1={measure.c1}, c2={measure.c2})")


# ---------------------------------------------------------------------------
# symbol evaluation
# ---------------------------------------------------------------------------

def symbol(measure, xi):
    """Characteristic exponent psi_nu at a single frequency xi (complex)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (measure.dim,):
        raise InvalidArgument(f"xi must be a vector in R^{measure.dim}")
    if not np.all(np.isfinite(xi)):
        raise InvalidArgument("xi must be finite")
    return complex(symbol_array(measure, xi[None, :])[0])


def symbol_array(measure, xi):
    """Vectorized symbol: xi has shape (..., dim), result matches xi[..., 0]."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != measure.dim:
        raise InvalidArgument(f"xi must have last dimension {measure.dim}")
    if not np.all(np.isfinite(xi)):
        raise InvalidArgument("xi must be finite")
    if isinstance(measure, StableSpectral):
        return _symbol_stable(measure, xi)
    if isinstance(measure, DensityKernel):
        return _symbol_density(measure, xi)
    raise InvalidArgument(f"unknown measure type {type(measure)!r}")


def _symbol_stable(measure: StableSpectral, xi):
    alpha = measure.alpha
    c = radial_cosine_constant(alpha)
    sig = measure.sigma
    if sig.is_isotropic and sig.dim > 1:
        mom = sig.total_mass * isotropic_projection_moment(sig.dim, alpha)
        return (c * mom * np.linalg.norm(xi, axis=-1) ** alpha).astype(complex)
    dirs, wts = sig.atom_arrays()
    s = xi @ dirs.T                                    # (..., n_atoms)
    re = c * np.sum(wts * np.abs(s) ** alpha, axis=-1)
    if measure.is_symmetric:
        return re.astype(complex)
    im = np.sum(wts * radial_imag_part(s, alpha), axis=-1)
    return re + 1j * im


def _sphere_rule(dim: int, n: int):
    """Product quadrature rule on the unit sphere: directions and weights
    for the (unnormalized) surface measure."""
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        # half-circle midpoints mirrored so +/- pairs are exact bitwise
        m = max(1, n // 2)
        phi = (np.arange(m) + 0.5) * (math.pi / m)
        half = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        dirs = np.concatenate([half, -half], axis=0)
        return dirs, np.full(2 * m, math.pi / m)
    # dim == 3: Gauss-Legendre in cos(polar) x uniform azimuth, upper
    # hemisphere mirrored so +/- pairs are exact bitwise
    z, wz = np.polynomial.legendre.leggauss(2 * n)
    keep = z > 0
    z, wz = z[keep], wz[keep]
    phi = (np.arange(2 * n) + 0.5) * (math.pi / n)
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    rho = np.sqrt(1.0 - zz ** 2)
    half = np.stack([rho * np.cos(pp), rho * np.sin(pp), zz],
                    axis=-1).reshape(-1, 3)
    wts = np.broadcast_to(wz[:, None] * (math.pi / n), zz.shape).reshape(-1)
    dirs = np.concatenate([half, -half], axis=0)
    return dirs, np.concatenate([wts, wts])


def _symbol_density(measure: DensityKernel, xi, rel_tol: float = 1e-8):
    """Compensated polar quadrature of the symbol for a density kernel.

    Per direction theta the radial integral is rescaled by u = |xi.theta| r,
    so the oscillation has unit period; Gauss-Legendre panels in log u cover
    [u_min, U], the origin is handled by Taylor compensation and the tail
    beyond U by a two-term integration-by-parts asymptotic with a frozen at
    the last node.  Panels are refined until the relative change is < rel_tol.
    """
    alpha = measure.alpha
    flat = xi.reshape(-1, measure.dim)
    n_dirs = measure.n_dirs or {1: 2, 2: 64, 3: 16}[measure.dim]
    dirs, dir_wts = _sphere_rule(measure.dim, n_dirs)

    prev = None
    for panels_per_decade in (16, 32, 64, 128):
        val = _density_quad_once(measure, flat, dirs, dir_wts, panels_per_decade)
        if prev is not None:
            scale = np.maximum(np.abs(val), 1e-300)
            err = float(np.max(np.abs(val - prev) / scale))
            if err < rel_tol:
                return val.reshape(xi.shape[:-1])
        prev = val
    raise QuadratureFailure("density-kernel symbol quadrature did not converge",
                            error_estimate=err)


def _density_quad_once(measure, flat, dirs, dir_wts, panels_per_decade):
    if flat.shape[0] > DENSITY_FREQ_CHUNK:
        # blocks of frequencies bound the (frequencies x nodes) work arrays;
        # every sum runs per frequency, so blocking leaves psi unchanged
        return np.concatenate([
            _density_quad_once(measure, flat[k0:k0 + DENSITY_FREQ_CHUNK],
                               dirs, dir_wts, panels_per_decade)
            for k0 in range(0, flat.shape[0], DENSITY_FREQ_CHUNK)])
    alpha = measure.alpha
    u_min, u_max = 1e-6, 300.0
    # log-spaced panel edges with u = 1 always an edge (the alpha = 1
    # compensation has a jump there), 10-point Gauss-Legendre per panel
    n_lo = max(1, int(panels_per_decade * math.log10(1.0 / u_min)))
    n_hi = max(1, int(panels_per_decade * math.log10(u_max)))
    edges = np.concatenate([
        np.exp(np.linspace(math.log(u_min), 0.0, n_lo + 1)),
        np.exp(np.linspace(0.0, math.log(u_max), n_hi + 1))[1:]])
    gx, gw = np.polynomial.legendre.leggauss(10)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * gx[None, :]).ravel()     # (n_u,)
    wu = (half[:, None] * gw[None, :]).ravel()

    out = np.zeros(flat.shape[0], dtype=complex)
    comp_full = alpha > 1.0
    comp_ball = alpha == 1.0
    for theta, wt in zip(dirs, dir_wts):
        s = flat @ theta                                          # (n_xi,)
        mag = np.abs(s)
        sgn = np.sign(s)
        nz = mag > 0
        if not np.any(nz):
            continue
        m = mag[nz][:, None]                                      # (n_xi, 1)
        r = u[None, :] / m                                        # radius grid
        a_vals = measure._eval_a(r[..., None] * theta)            # (n_xi, n_u)
        ker = u[None, :] ** (-1.0 - alpha) * wu[None, :]
        cos_part = (1.0 - np.cos(u))[None, :]
        re = np.sum(a_vals * cos_part * ker, axis=1)
        # origin: 1 - cos u ~ u^2/2 below u_min, a frozen at the first node
        a0 = a_vals[:, 0]
        re += a0 * u_min ** (2.0 - alpha) / (2.0 * (2.0 - alpha))
        # tail: int_U^inf a (1 - cos u) u^{-1-a} du, a frozen at the last node
        a_inf = a_vals[:, -1]
        re += a_inf * (u_max ** (-alpha) / alpha
                       + math.sin(u_max) * u_max ** (-1.0 - alpha)
                       - (1.0 + alpha) * math.cos(u_max) * u_max ** (-2.0 - alpha))
        if measure.symmetric:
            out[nz] += wt * mag[nz] ** alpha * re
            continue
        # odd part with the sign of s factored out: sr 1_comp - sin(sr)
        # = sign(s) * (u 1_comp - sin u)
        if comp_full:
            odd = u[None, :] - np.sin(u)[None, :]
        elif comp_ball:
            # recast the cutoff r <= 1 (i.e. u <= |s|) as a fixed jump at
            # u = 1 plus the smooth correction int_1^|s| a(u theta/|s|)/u du
            odd = np.where(u <= 1.0, u, 0.0)[None, :] - np.sin(u)[None, :]
        else:
            odd = -np.sin(u)[None, :]
        im = np.sum(a_vals * odd * ker, axis=1)
        # origin: compensated integrand ~ u^3/6 (alpha >= 1, negligible) or
        # uncompensated -sin u ~ -u (alpha < 1)
        if comp_full or comp_ball:
            im += a0 * u_min ** (3.0 - alpha) / (6.0 * (3.0 - alpha))
        else:
            im -= a0 * u_min ** (1.0 - alpha) / (1.0 - alpha)
        # oscillatory tail of -sin u by integration by parts
        im += a_inf * (-math.cos(u_max) * u_max ** (-1.0 - alpha)
                       + (1.0 + alpha) * math.sin(u_max) * u_max ** (-2.0 - alpha))
        if comp_full:
            # compensation tail: int_U^inf u^{-a} du (converges, alpha > 1)
            im += a_inf * u_max ** (1.0 - alpha) / (alpha - 1.0)
        if comp_ball:
            # int_1^|s| a((u/|s|) theta) du/u via v = exp((w-1) log|s|)
            logm = np.log(m[:, 0])
            w_nodes = 0.5 * (gx + 1.0)
            v = np.exp((w_nodes[None, :] - 1.0) * logm[:, None])
            a_ray = measure._eval_a(v[..., None] * theta)
            im += logm * np.sum(a_ray * (0.5 * gw)[None, :], axis=1)
        out[nz] += wt * mag[nz] ** alpha * (re + sgn[nz] * 1j * im)
    return out


# ---------------------------------------------------------------------------
# nondegeneracy and upper constants
# ---------------------------------------------------------------------------

def nondegeneracy_constant(sigma: SphericalMeasure, alpha: float) -> float:
    """kappa_1 = c_alpha * min_{theta0} int |theta0.theta|^alpha Sigma(dtheta).

    The minimum over the sphere is taken on a dyadically refined grid (with a
    local polish in 2d and the cell vertices in 3d); a value below 1e-8 of
    the mass scale is reported as exactly 0 (degenerate measure).
    """
    _check_alpha(alpha)
    c = radial_cosine_constant(alpha)
    if sigma.is_isotropic:
        mom = sigma.total_mass * isotropic_projection_moment(sigma.dim, alpha)
        return c * mom
    dirs, wts = sigma.atom_arrays()
    if sigma.dim == 1:
        m = float(np.sum(wts))                  # |theta0 . (+/-1)| = 1
    elif sigma.dim == 2:
        m = _min_on_circle(dirs, wts, alpha)
    else:
        m = _min_on_sphere3(dirs, wts, alpha)
    if m < 1e-8 * sigma.mass:
        return 0.0
    return c * m


def _min_on_circle(dirs, wts, alpha):
    def f(phi):
        theta0 = np.array([math.cos(phi), math.sin(phi)])
        return float(np.sum(wts * np.abs(dirs @ theta0) ** alpha))

    n, prev = 64, None
    while True:
        phi = np.arange(n) * (math.pi / n)       # antipodal symmetry
        vals = [f(p) for p in phi]
        i = int(np.argmin(vals))
        lo, hi = phi[i] - math.pi / n, phi[i] + math.pi / n
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-10})
        m = min(min(vals), float(res.fun))
        if prev is not None and abs(m - prev) < 1e-6:
            return m
        prev, n = m, 2 * n
        if n > 16384:
            return m


def _min_on_sphere3(dirs, wts, alpha):
    """Minimum over Fibonacci grids and the vertices of the cells cut out by
    the great circles theta0 . theta_j = 0: the normalised cross products
    theta_i x theta_j, and one point with theta0 . theta_1 = 0 (the only
    candidate when every atom is +/- theta_1).  On each cell the moment is
    concave and homogeneous for alpha <= 1, so a vertex attains the minimum
    there and the result is exact."""
    def moments(pts):
        return np.sum(wts * np.abs(pts @ dirs.T) ** alpha, axis=-1)

    i, j = np.triu_indices(len(dirs), 1)
    normal = np.cross(dirs[0], np.eye(3)[np.argmin(np.abs(dirs[0]))])
    verts = np.concatenate([np.cross(dirs[i], dirs[j]), normal[None]])
    norms = np.linalg.norm(verts, axis=-1)
    keep = norms > 1e-12
    m_verts = float(np.min(moments(verts[keep] / norms[keep, None])))

    def vals_on(n):
        # Fibonacci sphere grid
        k = np.arange(n) + 0.5
        z = 1.0 - 2.0 * k / n
        phi = math.pi * (1.0 + math.sqrt(5.0)) * k
        rho = np.sqrt(1.0 - z ** 2)
        pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)
        return float(np.min(moments(pts)))

    # the grids refine until their own minimum settles
    n, prev = 512, None
    while True:
        m = vals_on(n)
        if (prev is not None and abs(m - prev) < 1e-6) or 4 * n > 600000:
            return min(m, m_verts)
        prev, n = m, 4 * n


def nondegeneracy_of(measure) -> float:
    """kappa_1 for the stable lower bound of a measure (0 if degenerate)."""
    if isinstance(measure, StableSpectral):
        return nondegeneracy_constant(measure.sigma, measure.alpha)
    if isinstance(measure, DensityKernel):
        # bounded below by c1 times the isotropic surface kernel
        iso = SphericalMeasure.isotropic(measure.dim, measure.c1 * _sphere_area(measure.dim))
        return nondegeneracy_constant(iso, measure.alpha)
    raise InvalidArgument(f"unknown measure type {type(measure)!r}")


def _sphere_area(dim):
    return {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]


def symbol_upper_constant(measure, alpha: float, xi_grid) -> float:
    """Empirical sup of |psi(xi)| / |xi|^alpha over a grid of frequencies.

    A lower estimate of the true kappa_0 (the sup over all of R^d).
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    if xi_grid.ndim == 1:
        xi_grid = xi_grid[:, None]
    if xi_grid.size == 0:
        raise InvalidArgument("xi grid is empty")
    norms = np.linalg.norm(xi_grid, axis=-1)
    if np.any(norms == 0.0):
        raise InvalidArgument("xi grid must exclude 0")
    psi = symbol_array(measure, xi_grid)
    return float(np.max(np.abs(psi) / norms ** alpha))


# ---------------------------------------------------------------------------
# serialization (documented in docs/formats.md)
# ---------------------------------------------------------------------------

def _constant_density(params):
    value = float(params["value"])
    return lambda y: np.full(np.asarray(y, dtype=float).shape[:-1], value)


DENSITY_REGISTRY = {
    "constant": _constant_density,
}


def to_dict(measure) -> dict:
    if isinstance(measure, StableSpectral):
        sig = measure.sigma
        d = {"variant": "stable_spectral", "alpha": measure.alpha, "dim": measure.dim}
        if sig.is_isotropic:
            d["total_mass"] = sig.total_mass
        else:
            d["atoms"] = [[*dd, w] for dd, w in sig.atoms]
        return d
    if isinstance(measure, DensityKernel):
        if not measure.a_name or measure.a_name not in DENSITY_REGISTRY:
            raise InvalidArgument("only registry densities can be serialized")
        return {"variant": "density_kernel", "alpha": measure.alpha,
                "dim": measure.dim, "a_name": measure.a_name,
                "a_params": dict(measure.a_params),
                "c1": measure.c1, "c2": measure.c2,
                "symmetric": measure.symmetric}
    raise InvalidArgument(f"unknown measure type {type(measure)!r}")


def from_dict(d: dict):
    variant = d["variant"]
    if variant == "stable_spectral":
        if "total_mass" in d:
            sig = SphericalMeasure.isotropic(d["dim"], d["total_mass"])
        else:
            sig = SphericalMeasure.discrete(
                [(row[:-1], row[-1]) for row in d["atoms"]], dim=d["dim"])
        return StableSpectral(d["alpha"], sig)
    if variant == "direct_sum_axes":
        return DirectSumAxes(d["alpha"], d["axes_weights"])
    if variant == "density_kernel":
        params = d.get("a_params", {})
        a = DENSITY_REGISTRY[d["a_name"]](params)
        return DensityKernel(d["alpha"], d["dim"], a, d["c1"], d["c2"],
                             d.get("symmetric", True), a_name=d["a_name"],
                             a_params=tuple(sorted(params.items())))
    raise InvalidArgument(f"unknown measure variant {variant!r}")


def save_measure(measure, path):
    with open(path, "w") as fh:
        json.dump(to_dict(measure), fh, indent=2)


def load_measure(path):
    with open(path) as fh:
        return from_dict(json.load(fh))
