"""Reference values computed apart from levylab.

Every formula here is written from the standard closed forms for stable
laws, with the constants taken from ``scipy.special.gamma``; nothing is
imported from levylab, so agreement with levylab is evidence and not a
tautology.

Convention (the one levylab documents):

    psi(xi) = integral (1 + i xi.y 1_comp - e^{i xi.y}) nu(dy),
    E e^{i xi.X_t} = e^{-t psi(xi)},    L e^{i xi.x} = -psi(xi) e^{i xi.x}.

For nu = r^{-1-a} dr x (atom of weight w at theta) and s = xi.theta,

    a != 1:  psi = -w Gamma(-a) |s|^a exp(-i sign(s) pi a / 2),
    a == 1:  psi = w (pi/2) |s| + i w s (log|s| + gamma_E - 1)

(unit-ball compensation at a = 1), and an isotropic spherical part of
mass M in dimension d gives M c_a I_d(a) |xi|^a with
c_a = -Gamma(-a) cos(pi a / 2) (pi/2 at a = 1) and
I_d(a) = Gamma(d/2) Gamma((a+1)/2) / (sqrt(pi) Gamma((d+a)/2)).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma

SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def cosine_constant(alpha: float) -> float:
    """integral_0^inf (1 - cos u) u^{-1-alpha} du."""
    if alpha == 1.0:
        return math.pi / 2.0
    return -gamma(-alpha) * math.cos(math.pi * alpha / 2.0)


def isotropic_moment(dim: int, alpha: float) -> float:
    """Mean of |e_1 . theta|^alpha over the uniform unit sphere."""
    return (gamma(dim / 2.0) * gamma((alpha + 1.0) / 2.0)
            / (math.sqrt(math.pi) * gamma((dim + alpha) / 2.0)))


def psi_atoms(alpha: float, dirs, weights, xi) -> np.ndarray:
    """Symbol of r^{-1-a} dr x sum_j w_j delta_{theta_j}; xi has shape
    (..., d)."""
    s = np.asarray(xi, dtype=float) @ np.asarray(dirs, dtype=float).T
    w = np.asarray(weights, dtype=float)
    mag = np.abs(s)
    if alpha == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            odd = np.where(mag > 0, s * (np.log(mag) + np.euler_gamma - 1.0),
                           0.0)
        per_atom = 0.5 * math.pi * mag + 1j * odd
    else:
        per_atom = (-gamma(-alpha) * mag ** alpha
                    * np.exp(-1j * np.sign(s) * math.pi * alpha / 2.0))
    return per_atom @ w


def psi_isotropic(alpha: float, dim: int, mass: float, xi) -> np.ndarray:
    norm = np.linalg.norm(np.asarray(xi, dtype=float), axis=-1)
    return (mass * cosine_constant(alpha) * isotropic_moment(dim, alpha)
            * norm ** alpha).astype(complex)


def psi_axes(alpha: float, weights, xi) -> np.ndarray:
    """Sum over axes of w_i |y_i|^{-1-a} dy_i on the i-th axis."""
    xi = np.asarray(xi, dtype=float)
    return (2.0 * cosine_constant(alpha)
            * (np.abs(xi) ** alpha @ np.asarray(weights, dtype=float))
            ).astype(complex)


def psi_constant_density(alpha: float, dim: int, value: float, xi):
    """a(y) = value: the isotropic stable measure of mass value |S^{d-1}|."""
    return psi_isotropic(alpha, dim, value * SPHERE_AREA[dim], xi)


def lattice_frequency(side_length: float, k) -> np.ndarray:
    return 2.0 * math.pi * np.asarray(k, dtype=float) / side_length


def mode_ratio(before: np.ndarray, after: np.ndarray, k) -> complex:
    """DFT coefficient of ``after`` over that of ``before`` at lattice
    index k (a tuple, one entry per axis); both are real arrays on the
    same grid.  For a Fourier multiplier m this is m(xi_k)."""
    axes = tuple(range(before.ndim))
    idx = tuple(int(i) % n for i, n in zip(k, before.shape))
    return complex(np.fft.fftn(after, axes=axes)[idx]
                   / np.fft.fftn(before, axes=axes)[idx])


# ---------------------------------------------------------------------------
# Cauchy-process expectations (Monte Carlo references)
# ---------------------------------------------------------------------------

def cauchy_density(y, scale):
    return scale / (math.pi * (scale ** 2 + np.asarray(y) ** 2))


def cauchy_gaussian_expectation(offset: float, sigma: float, scale: float,
                                period: float, near_images: int = 2,
                                far_images: int = 200000) -> float:
    """E g(offset + Y) for Y Cauchy(scale) and g the period-L sum of
    exp(-z^2 / (2 sigma^2)).

    Images |n| <= near_images are integrated with scipy quad against the
    closed-form Cauchy density; farther images see the density as constant
    over the Gaussian's width, error O(sigma^2 / (nL)^2) relative."""
    total = 0.0
    for n in range(-near_images, near_images + 1):
        centre = -offset + n * period         # Gaussian centre in y
        val, _ = quad(lambda y: math.exp(-(y - centre) ** 2 / (2 * sigma ** 2))
                      * scale / (math.pi * (scale ** 2 + y ** 2)),
                      centre - 12 * sigma, centre + 12 * sigma,
                      points=[0.0] if abs(centre) < 12 * sigma else None,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        total += val
    n = np.arange(near_images + 1, far_images + 1, dtype=float)
    far = (cauchy_density(-offset + n * period, scale)
           + cauchy_density(-offset - n * period, scale))
    return total + sigma * math.sqrt(2 * math.pi) * float(np.sum(far))


def cauchy_interval_probability(radius: float, scale, period: float,
                                images: int = 20000):
    """P(Y mod L in [-r, r]) for Y Cauchy(scale); scale may be an array;
    scale 0 is the point mass at 0."""
    scale = np.atleast_1d(np.asarray(scale, dtype=float))
    out = np.ones_like(scale)
    pos = scale > 0
    s = scale[pos][:, None]
    n = np.arange(-images, images + 1, dtype=float)[None, :] * period
    out[pos] = np.sum(np.arctan((n + radius) / s) - np.arctan((n - radius) / s),
                      axis=1) / math.pi
    return out


def cauchy_density_slope_max(lo: float, hi: float, scale: float) -> float:
    """max |p'(y)| over y in [lo, hi] for the Cauchy(scale) density."""
    ys = np.linspace(lo, hi, 201)
    peak = scale / math.sqrt(3.0)          # |p'| is largest at |y| = s/sqrt 3
    if lo <= peak <= hi:
        ys = np.append(ys, peak)
    slope = 2 * np.abs(ys) * scale / (math.pi * (scale ** 2 + ys ** 2) ** 2)
    return float(np.max(slope))
