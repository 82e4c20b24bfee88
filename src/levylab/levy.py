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
from scipy.optimize import minimize, minimize_scalar
from scipy.special import gamma as Gamma, jv, roots_jacobi, spherical_jn

from .errors import InvalidArgument, QuadratureFailure
from .fieldgrid import gauss_legendre

EULER_GAMMA = 0.5772156649015328606
DENSITY_BLOCK = 1 << 15      # (frequency, radial node) entries per block
DENSITY_TAIL_NODES = 20      # Gauss-Jacobi nodes of the alpha > 1 compensation tail
NONDEGENERACY_CACHE_SIZE = 16


# ---------------------------------------------------------------------------
# radial constants of the one-dimensional stable kernel
# ---------------------------------------------------------------------------

def radial_cosine_constant(alpha: float) -> float:
    """integral_0^inf (1 - cos u) / u^{1+alpha} du = pi / (2 G(1+a) sin(pi a/2))."""
    if not 0.0 < alpha < 2.0:
        raise InvalidArgument(f"alpha must lie in (0,2), got {alpha}")
    return math.pi / (2.0 * Gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))


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


def isotropic_projection_moment(dim: int, alpha: float) -> float:
    """Mean of |theta0 . theta|^alpha over the uniform unit sphere in R^dim."""
    if dim == 1:
        return 1.0
    return Gamma(dim / 2.0) * Gamma((alpha + 1.0) / 2.0) / (
        math.sqrt(math.pi) * Gamma((dim + alpha) / 2.0))


def compensation_radius(alpha: float) -> float:
    """Radius of the first-order compensation y 1_{|y| <= radius} in psi:
    every jump for alpha > 1, the unit ball at alpha = 1, none below."""
    return math.inf if alpha > 1.0 else (1.0 if alpha == 1.0 else 0.0)


def radial_rule(alpha: float, lo: float, hi: float, n_lo: int, n_hi: int):
    """Radii on [lo, hi] and weights that include the kernel r^{-1-alpha}:
    10-point Gauss-Legendre on panels equal in log r, n_lo on [lo, 1] and
    n_hi on [1, hi], so that r = 1, where the alpha = 1 compensation
    jumps, is a panel edge; n_lo + n_hi panels when 1 is outside (lo, hi)."""
    if lo < 1.0 < hi:
        edges = np.concatenate([
            np.exp(np.linspace(math.log(lo), 0.0, n_lo + 1)),
            np.exp(np.linspace(0.0, math.log(hi), n_hi + 1))[1:]])
    else:
        edges = np.exp(np.linspace(math.log(lo), math.log(hi), n_lo + n_hi + 1))
    gx, gw = gauss_legendre(10)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    r = (mid[:, None] + half[:, None] * gx).ravel()
    return r, (half[:, None] * gw).ravel() * r ** (-1.0 - alpha)


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


def projections(xi, dirs):
    """s = xi . theta for frequencies xi (..., dim) and directions dirs
    (n, dim), shape (..., n).  |s| up to 4 ulps of sum_i |xi_i theta_i|
    (the rounding bound of the product for dim <= 3) is taken as 0: where
    xi is normal to theta, |s|^alpha (alpha < 1) would turn a residue of
    1e-16, which depends on how the product was formed, into 1e-8.  Only
    the entries under the largest such bound are tested against their own,
    so no other temporary of the size of s is formed."""
    s = xi @ dirs.T
    flat = s.reshape(-1)
    tol = 4.0 * np.finfo(float).eps * np.abs(dirs)
    top = (max(xi.max(initial=0.0), -xi.min(initial=0.0))
           * tol.sum(axis=1).max(initial=0.0))
    near = np.flatnonzero((flat <= top) & (flat >= -top))
    bound = np.sum(np.abs(xi.reshape(-1, dirs.shape[1])[near // len(dirs)])
                   * tol[near % len(dirs)], axis=-1)
    flat[near[np.abs(flat[near]) <= bound]] = 0.0
    return s


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
        if self.symmetric and any(abs(float(self._eval_a(-p)) - v) > 1e-12 * self.c2
                                  for p, v in zip(pts, vals)):
            raise InvalidArgument("symmetric=True, but a(-y) != a(y) on sample points")

    def _eval_a(self, y):
        return self.a(np.asarray(y, dtype=float))

    @property
    def is_symmetric(self) -> bool:
        return self.symmetric


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
    return complex(symbol_array(measure, xi[None, :])[0])


def symbol_array(measure, xi):
    """Vectorized symbol: xi has shape (..., dim), result matches xi[..., 0];
    float64 for a symmetric measure, complex otherwise."""
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
    """psi of a stable measure: real (float64) for an isotropic or
    paired-atom measure, whose odd part vanishes, complex otherwise."""
    alpha = measure.alpha
    c = radial_cosine_constant(alpha)
    sig = measure.sigma
    if sig.is_isotropic and sig.dim > 1:
        mom = sig.total_mass * isotropic_projection_moment(sig.dim, alpha)
        return c * mom * np.linalg.norm(xi, axis=-1) ** alpha
    dirs, wts = sig.atom_arrays()
    s = projections(xi, dirs)                          # (..., n_atoms)
    re = c * (np.abs(s) ** alpha @ wts)
    if measure.is_symmetric:
        return re
    return re + 1j * (radial_imag_part(s, alpha) @ wts)


def sphere_area(dim: int) -> float:
    """|S^{dim-1}|, the counting measure of {-1, +1} for dim = 1."""
    return {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]


def sphere_rule(dim: int, n: int):
    """Product quadrature rule on the unit sphere: directions and weights
    for the (unnormalized) surface measure.  For dim >= 2 the first half of
    the directions is one side of each +/- pair, the second half its exact
    negative at equal weight."""
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
    z, wz = gauss_legendre(2 * n)
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


def sphere_rule_size(dim: int, z, eps: float) -> np.ndarray:
    """Per entry of z >= 0, the n of the smallest ``sphere_rule(dim, n)``
    (dim 2 or 3) whose first neglected term of the Jacobi-Anger expansion
    of the plane wave e^{i z xi.theta}, |xi| = 1, is below eps relative to
    the rule's total weight:

    * d = 2: the M = n equispaced directions alias degree M first, whose
      term 2 i^M J_M(z) cos(M phi) is at most 2 |J_M(z)|;
    * d = 3: the product rule is exact to degree 2n - 1, and the degree
      L = 2n term (2L + 1) i^L j_L(z) P_L(xi.theta) is at most
      (2L + 1) |j_L(z)|.

    Past degree z both terms fall monotonically, so each search starts at
    the first even degree >= z (where they are still of order z^{-1/3})."""
    if dim not in (2, 3) or not eps > 0.0:
        raise InvalidArgument(f"need dim 2 or 3 and eps > 0, got {dim}, {eps}")
    z = np.asarray(z, dtype=float)
    k = np.maximum(1.0, np.ceil(z / 2.0))             # degree 2k
    while True:
        deg = 2.0 * k
        if dim == 2:
            term = 2.0 * np.abs(jv(deg, z))
        else:
            term = (2.0 * deg + 1.0) * np.abs(spherical_jn(deg.astype(int), z))
        above = term >= eps
        if not above.any():
            return (deg if dim == 2 else k).astype(int)
        k[above] += 1.0


def _symbol_density(measure: DensityKernel, xi):
    """Compensated polar quadrature of the symbol for a density kernel.

    Per direction theta the radial integral is rescaled by u = |xi.theta| r,
    so the oscillation has unit period; Gauss-Legendre panels in log u cover
    [u_min, U], the origin is handled by Taylor compensation with a read at
    the centroid of each term, the tail beyond U by a three-term
    integration-by-parts asymptotic with a frozen at U, and for alpha > 1
    the compensation tail beyond U by Gauss-Jacobi.  Panels are refined
    until the relative change is < 1e-8.
    A symmetric density runs one side of each +/- pair of the sphere rule
    at doubled weight (``antipodal_pairs``): the two sides' real parts are
    equal and their odd parts cancel, so psi is real (float64); otherwise
    it is complex.  Per direction, blocks of about
    DENSITY_BLOCK (frequency, radial node) entries with xi.theta != 0 write
    their radii and points into two buffers that all reuse.
    """
    flat = xi.reshape(-1, measure.dim)
    # the angular error dominates for dim >= 2
    dirs, dir_wts = sphere_rule(measure.dim, {1: 2, 2: 64, 3: 16}[measure.dim])
    if measure.symmetric:
        dirs, dir_wts = antipodal_pairs(dirs, dir_wts)
        dir_wts = 2.0 * dir_wts

    prev = None
    for panels_per_decade in (16, 32, 64, 128):
        val = _density_quad_once(measure, flat, dirs, dir_wts, panels_per_decade)
        if prev is not None:
            scale = np.maximum(np.abs(val), 1e-300)
            err = float(np.max(np.abs(val - prev) / scale))
            if err < 1e-8:
                return val.reshape(xi.shape[:-1])
        prev = val
    raise QuadratureFailure("density-kernel symbol quadrature did not converge",
                            error_estimate=err)


def _u_minus_sin(u):
    """u - sin u, by its Taylor series below u = 1, where the difference
    cancels (truncation below 1e-16 relative)."""
    u2 = u * u
    series = 1.0
    for denom in (272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):
        series = 1.0 - u2 / denom * series
    return np.where(u < 1.0, u * u2 / 6.0 * series, u - np.sin(u))


def _density_quad_once(measure, flat, dirs, dir_wts, panels_per_decade):
    alpha = measure.alpha
    u_min, u_max = 1e-6, 300.0
    u, ker = radial_rule(alpha, u_min, u_max,
                         max(1, int(panels_per_decade * math.log10(1.0 / u_min))),
                         max(1, int(panels_per_decade * math.log10(u_max))))
    sin_u, cos_u = math.sin(u_max), math.cos(u_max)

    # even part 1 - cos u = 2 sin^2(u/2).  Odd part with the sign of s
    # factored out: sr 1_comp - sin(sr) = sign(s) * (u 1_comp - sin u); for
    # alpha = 1 the cutoff r <= 1 (i.e. u <= |s|) is recast as a fixed jump
    # at u = 1 plus the smooth correction int_1^|s| a(u theta/|s|)/u du
    even = 2.0 * np.sin(0.5 * u) ** 2 * ker
    odd = np.where(u <= compensation_radius(alpha), _u_minus_sin(u),
                   -np.sin(u)) * ker
    # origin [0, u_min]: 1 - cos u ~ u^2/2, and the odd integrand ~ u^3/6
    # compensated (alpha >= 1) or -sin u ~ -u; each such term, times the
    # kernel, is c u^q and reads a at its centroid u_min (q+1)/(q+2), which
    # is exact for a linear in u there
    q_even, q_odd = 1.0 - alpha, 2.0 - alpha if alpha >= 1.0 else -alpha
    origin_u = u_min * np.array([(q_even + 1.0) / (q_even + 2.0),
                                 (q_odd + 1.0) / (q_odd + 2.0)])
    even_origin = u_min ** (q_even + 1.0) / (2.0 * (q_even + 1.0))
    odd_origin = ((1.0 / 6.0 if alpha >= 1.0 else -1.0)
                  * u_min ** (q_odd + 1.0) / (q_odd + 1.0))
    # tail beyond u_max, a frozen there, by three integrations by parts
    b1, b2 = 1.0 + alpha, (1.0 + alpha) * (2.0 + alpha)
    even_tail = u_max ** (-alpha) * (
        1.0 / alpha + (sin_u - b1 * cos_u / u_max - b2 * sin_u / u_max ** 2)
        / u_max)
    odd_tail = -u_max ** (-1.0 - alpha) * (
        cos_u + b1 * sin_u / u_max - b2 * cos_u / u_max ** 2)
    # for alpha > 1 the compensation tail int_U^inf u^{-alpha} a du, which
    # is not small: U^{1-alpha} int_0^1 t^{alpha-2} a(U/t) dt, by
    # Gauss-Jacobi in t = (1 + z)/2
    z, z_wts = (roots_jacobi(DENSITY_TAIL_NODES, 0.0, alpha - 2.0)
                if alpha > 1.0 else (np.empty(0), np.empty(0)))
    # the origin and tail terms as the weights of more nodes, so that a is
    # read where each term needs it
    u = np.concatenate([origin_u, u, [u_max], 2.0 * u_max / (1.0 + z)])
    even = np.concatenate([[even_origin, 0.0], even, [even_tail],
                           np.zeros_like(z)])
    odd = np.concatenate([[0.0, odd_origin], odd, [odd_tail],
                          (2.0 * u_max) ** (1.0 - alpha) * z_wts])

    out = np.zeros(flat.shape[0], dtype=float if measure.symmetric else complex)
    rows = max(1, min(DENSITY_BLOCK // u.size, flat.shape[0]))
    r_buf, y_buf = np.empty((rows, u.size)), np.empty((rows, u.size, flat.shape[1]))
    for theta, wt in zip(dirs, dir_wts):
        s = flat @ theta                                          # (n_xi,)
        nz = np.flatnonzero(s)
        for k0 in range(0, nz.size, rows):
            blk = nz[k0:k0 + rows]
            mag = np.abs(s[blk])
            r = np.divide(u, mag[:, None], out=r_buf[:blk.size])  # radius grid
            a_vals = measure._eval_a(np.multiply(
                r[..., None], theta, out=y_buf[:blk.size]))       # (b, n_u)
            val = a_vals @ even
            if not measure.symmetric:
                im = a_vals @ odd
                if alpha == 1.0:
                    # int_1^|s| a((u/|s|) theta) du/u via v = exp((w-1) log|s|)
                    logm = np.log(mag)
                    gx, gw = gauss_legendre(10)
                    v = np.exp((0.5 * (gx + 1.0) - 1.0) * logm[:, None])
                    im += logm * (measure._eval_a(v[..., None] * theta)
                                  @ (0.5 * gw))
                val = val + np.sign(s[blk]) * 1j * im
            out[blk] += wt * mag ** alpha * val
    return out


# ---------------------------------------------------------------------------
# nondegeneracy constant
# ---------------------------------------------------------------------------

CIRCLE_GRID = 128             # half-circle angles of the d = 2 minimiser
SPHERE_GRID = 2048            # Fibonacci points of the d = 3 minimiser


def nondegeneracy_constant(sigma: SphericalMeasure, alpha: float) -> float:
    """kappa_1 = c_alpha * min_{|theta0|=1} int |theta0.theta|^alpha Sigma(dtheta).

    Closed form for isotropic Sigma and the mass in d = 1.  For atoms in
    d = 2, 3 the minimum is taken over the cell vertices of the great circles
    theta0 . theta_j = 0, which is exact for alpha <= 1, and for alpha > 1
    also over a local polish inside the cells (``_min_projection_moment``).
    A value below 1e-8 of the mass is reported as exactly 0 (degenerate
    measure).
    """
    _check_alpha(alpha)
    c = radial_cosine_constant(alpha)
    if sigma.is_isotropic:
        mom = sigma.total_mass * isotropic_projection_moment(sigma.dim, alpha)
        return c * mom
    dirs, wts = sigma.atom_arrays()
    if sigma.dim == 1:
        m = float(np.sum(wts))                  # |theta0 . (+/-1)| = 1
    else:
        m = _min_projection_moment(dirs, wts, alpha)
    if m < 1e-8 * sigma.mass:
        return 0.0
    return c * m


def _min_projection_moment(dirs, wts, alpha):
    """min over the unit sphere (d = 2, 3) of F(x) = sum_j w_j |x.theta_j|^alpha.

    F depends on the lines +/-theta_j only, so the atoms are pooled into
    lines l_k.  The great circles x . l_k = 0 cut the sphere into cells.  On
    each cell F is smooth, and for alpha <= 1 it is concave and homogeneous,
    so its least value there sits at a vertex and the vertex values are
    exact.  The vertices are l_k turned by 90 degrees (d = 2), or the
    normalised l_k x l_m and one point of the circle x . l_0 = 0 (d = 3);
    their projections onto the lines whose circles they lie on are exactly
    0.  A fixed grid adds interior points: half-circle angles (d = 2) or a
    Fibonacci sphere (d = 3).  For alpha > 1 the minimum may lie inside a
    cell, so the best point of every cell is polished (``_polish``) when it
    is also a local minimum of the candidates: no point within 1.5 grid
    steps is lower.
    """
    lead = dirs[np.arange(len(dirs)), np.argmax(dirs != 0.0, axis=1)]
    lines, inv = np.unique(dirs * np.sign(lead)[:, None] + 0.0, axis=0,
                           return_inverse=True)
    lw = np.bincount(inv.ravel(), weights=wts)
    if lines.shape[1] == 2:
        verts = lines @ np.array([[0.0, 1.0], [-1.0, 0.0]])
        on = np.arange(len(lines))[:, None]
        step = math.pi / CIRCLE_GRID
        phi = np.arange(CIRCLE_GRID) * step
        grid = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    else:
        i, j = np.triu_indices(len(lines), 1)
        normal = np.cross(lines[0], np.eye(3)[np.argmin(np.abs(lines[0]))])
        verts = np.concatenate([np.cross(lines[i], lines[j]), normal[None]])
        on = np.concatenate([np.stack([i, j], axis=-1), [[0, 0]]])
        norms = np.linalg.norm(verts, axis=-1)
        keep = norms > 1e-12
        verts, on = verts[keep] / norms[keep, None], on[keep]
        step = math.sqrt(4.0 * math.pi / SPHERE_GRID)   # mean point spacing
        k = np.arange(SPHERE_GRID) + 0.5
        z = 1.0 - 2.0 * k / SPHERE_GRID
        phi = math.pi * (1.0 + math.sqrt(5.0)) * k
        rho = np.sqrt(1.0 - z ** 2)
        grid = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)
    proj_verts = verts @ lines.T
    np.put_along_axis(proj_verts, on, 0.0, axis=1)
    pts = np.concatenate([verts, grid])
    proj = np.concatenate([proj_verts, grid @ lines.T])
    vals = np.abs(proj) ** alpha @ lw
    best = float(np.min(vals))
    if alpha <= 1.0:
        return best
    # a cell is keyed by the signs of the projections, taken on the side
    # x . l_0 >= 0 so that antipodal cells coincide; "near" counts the
    # antipodes too, since F(-x) = F(x)
    order = np.argsort(vals)
    side = np.where(proj[:, :1] < 0.0, -1.0, 1.0)
    _, first = np.unique((side * proj)[order, 1:] > 0.0, axis=0,
                         return_index=True)
    starts = order[first]
    near = np.abs(pts[starts] @ pts.T) > math.cos(1.5 * step)
    starts = starts[~np.any(near & (vals < vals[starts, None]), axis=1)]
    return min([best] + [_polish(p, lines, lw, alpha) for p in pts[starts]])


def _polish(p, lines, lw, alpha):
    """A local minimum of F near the unit vector p: a bounded search in the
    angle within one grid step (d = 2), or BFGS in the plane tangent at p
    (d = 3).  F is C^1 for alpha > 1."""
    if len(p) == 2:
        def value(t):
            return float(np.abs(lines @ (math.cos(t), math.sin(t))) ** alpha @ lw)

        phi0, h = math.atan2(p[1], p[0]), math.pi / CIRCLE_GRID
        return float(minimize_scalar(value, bounds=(phi0 - h, phi0 + h),
                                     method="bounded",
                                     options={"xatol": 1e-10}).fun)
    basis = np.linalg.svd(p[None])[2][1:]          # orthonormal, normal to p

    def value_and_gradient(t):
        v = p + t @ basis
        r = np.linalg.norm(v)
        x = v / r
        proj = lines @ x
        a = lw * np.abs(proj) ** (alpha - 1.0)
        grad = alpha * (a * np.sign(proj)) @ lines           # of F at x
        return float(a @ np.abs(proj)), basis @ (grad - (grad @ x) * x) / r

    return float(minimize(value_and_gradient, np.zeros(2), jac=True,
                          method="BFGS").fun)


@lru_cache(maxsize=NONDEGENERACY_CACHE_SIZE)
def nondegeneracy_of(measure) -> float:
    """kappa_1 for the stable lower bound of a measure (0 if degenerate),
    cached per (frozen) measure."""
    if isinstance(measure, StableSpectral):
        return nondegeneracy_constant(measure.sigma, measure.alpha)
    if isinstance(measure, DensityKernel):
        # bounded below by c1 times the isotropic surface kernel
        iso = SphericalMeasure.isotropic(measure.dim, measure.c1 * sphere_area(measure.dim))
        return nondegeneracy_constant(iso, measure.alpha)
    raise InvalidArgument(f"unknown measure type {type(measure)!r}")


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
