"""Heat kernel and semigroup tests: closed-form Cauchy comparison,
semigroup structure, drift schedules, and failure modes."""

import math

import numpy as np
import pytest
from scipy import special, stats

from levylab import heatkernel, levy
from levylab.errors import (InvalidArgument, PreconditionFailure,
                            ResolutionTooCoarse)
from levylab.fieldgrid import Grid, GridField, lp_norm
from levylab.heatkernel import DriftSchedule, kernel, semigroup_apply


def _iso1d(mass=2.0 / np.pi, alpha=1.0):
    return levy.StableSpectral(alpha,
                               levy.SphericalMeasure.isotropic(1, mass))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_computes_kappa_once_per_measure(monkeypatch):
    calls = []
    constant = levy.nondegeneracy_constant

    def counted(sigma, alpha):
        calls.append(alpha)
        return constant(sigma, alpha)

    monkeypatch.setattr(levy, "nondegeneracy_constant", counted)
    m = levy.StableSpectral(1.5, levy.SphericalMeasure.discrete(
        [((1.0, 0.0), 0.7), ((0.6, 0.8), 0.45), ((-0.28, -0.96), 0.9)]))
    g = Grid(2, 64, 40.0)
    first = kernel(m, 1.0, g)
    again = [kernel(m, 1.0, g) for _ in range(3)]
    assert len(calls) == 1
    for p in again:
        np.testing.assert_array_equal(p.values, first.values)
    assert levy.nondegeneracy_of(m) == levy.nondegeneracy_of.__wrapped__(m)
    assert len(calls) == 2                  # the uncached call above


def test_kernel_mass_and_positivity():
    g = Grid(1, 512, 100.0)
    p = kernel(_iso1d(), 1.0, g)
    mass = float(np.sum(p.values) * g.cell_volume)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert float(p.values.min()) > -1e-9


def test_kernel_matches_cauchy_density():
    # psi = |xi| gives the Cauchy density; compare against its
    # periodization over the grid length
    g = Grid(1, 1024, 200.0)
    x = g.coordinates()[..., 0]
    t = 1.0
    p = kernel(_iso1d(), t, g)
    xc = np.where(x > 100.0, x - 200.0, x)
    oracle = np.zeros_like(xc)
    for n in range(-50, 51):
        y = xc + 200.0 * n
        oracle += t / (np.pi * (t ** 2 + y ** 2))
    err = float(np.sum(np.abs(p.values[0] - oracle)) * g.cell_volume)
    assert err < 1e-3


SKEW_ATOMS = (((1.0,), 0.8), ((-1.0,), 0.2))
SKEW_WINDOW = 8.0           # probes lie in |x| <= SKEW_WINDOW
SKEW_IMAGES = 1             # periodic images summed by scipy's pdf; the
                            # farther ones by the tail t nu
PDF_TOL = 1e-9              # scipy's quadrature of the stable pdf


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_skewed_kernel_matches_scipy_levy_stable(alpha):
    # the d = 1 atoms (+1, 0.8), (-1, 0.2): kernel inverts e^{-t conj psi},
    # which is the law of X_t with E e^{i xi X_t} = e^{-t psi(xi)}.  In
    # scipy's S1 parameterisation that law has sigma^alpha = t Re psi(1)
    # and beta = -Im psi(1) / (Re psi(1) tan(pi alpha / 2)); this checks
    # the conj convention without going through psi's inverse transform.
    t, L = 1.0, 200.0
    g = Grid(1, 2048, L)
    m = levy.StableSpectral(alpha, levy.SphericalMeasure.discrete(
        [(d, w) for d, w in SKEW_ATOMS], dim=1))
    p = kernel(m, t, g).values[0]
    psi1 = levy.symbol(m, [1.0])
    sigma = (t * psi1.real) ** (1.0 / alpha)
    beta = -psi1.imag / (psi1.real * math.tan(math.pi * alpha / 2.0))
    assert beta == pytest.approx(0.6, rel=1e-12)

    x = g.axis_coordinates()
    x = np.where(x >= L / 2.0, x - L, x)
    probes = np.flatnonzero(np.abs(x) <= SKEW_WINDOW)[::3]
    y = x[probes]

    def pdf(z):
        return stats.levy_stable.pdf(z, alpha, beta, scale=sigma)

    # images |k| <= SKEW_IMAGES exactly; beyond them p_t(z) by its first
    # tail term t nu(z) = t w_{sign z} |z|^{-1-alpha}, summed over k by
    # the Hurwitz zeta function
    ref = sum(pdf(y + k * L) for k in range(-SKEW_IMAGES, SKEW_IMAGES + 1))
    q = SKEW_IMAGES + 1
    (_, w_plus), (_, w_minus) = SKEW_ATOMS
    ref += t * L ** (-1.0 - alpha) * (
        w_plus * special.zeta(1.0 + alpha, q + y / L)
        + w_minus * special.zeta(1.0 + alpha, q - y / L))
    # The tail bound, fixed before the comparison was run.  p_t(z) =
    # (1/pi) sum_n Re[(-c)^n e^{-i pi (n alpha + 1)/2}] Gamma(n alpha + 1)
    # / n! z^{-n alpha - 1} for z > 0 (c = t psi(1); conj for z < 0): the
    # n = 1 term is t nu, and twice the n = 2 term bounds the rest at
    # |z| >= q L - SKEW_WINDOW, summed over both sides.
    c = abs(t * psi1)
    tail_bound = 2.0 * (c ** 2 * special.gamma(2.0 * alpha + 1.0)
                        / (2.0 * math.pi)) * 2.0 * L ** (-1.0 - 2.0 * alpha) \
        * special.zeta(1.0 + 2.0 * alpha, q - SKEW_WINDOW / L)
    # the spectrum dropped beyond the Nyquist frequency:
    # (1/pi) int_{xi_max}^inf e^{-t Re psi(1) xi^alpha} dxi
    b, xi_max = t * psi1.real, math.pi / g.spacing
    spectral_tail = (special.gamma(1.0 / alpha) / (math.pi * alpha)
                     * b ** (-1.0 / alpha)
                     * special.gammaincc(1.0 / alpha, b * xi_max ** alpha))
    assert tail_bound < 1e-5 and spectral_tail < 1e-9
    err = float(np.max(np.abs(p[probes] - ref)))
    assert err <= tail_bound + spectral_tail + PDF_TOL


def test_kernel_self_similarity():
    # p_{ct}(x) = c^{-1} p_t(x/c) for alpha = 1: evaluate p_2 on a length-L
    # grid and p_1 on the length-L/2 grid
    m = _iso1d()
    g2 = Grid(1, 1024, 200.0)
    g1 = Grid(1, 1024, 100.0)
    p2 = kernel(m, 2.0, g2)
    p1 = kernel(m, 1.0, g1)
    np.testing.assert_allclose(p2.values, p1.values / 2.0, atol=1e-6)


def test_kernel_rejects_bad_inputs():
    with pytest.raises(InvalidArgument):
        kernel(_iso1d(), 0.0, Grid(1, 64, 10.0))
    # one-sided spherical measure in d=2 is degenerate
    degenerate = levy.StableSpectral(1.0, levy.SphericalMeasure.discrete(
        [((1.0, 0.0), 1.0), ((-1.0, 0.0), 1.0)]))
    with pytest.raises(PreconditionFailure):
        kernel(degenerate, 1.0, Grid(2, 32, 10.0))


@pytest.mark.parametrize("t", [np.inf, np.nan])
def test_kernel_needs_a_finite_time(t):
    # at t = inf, t psi(0) = inf * 0 made the kernel nan
    with pytest.raises(InvalidArgument, match="finite"):
        kernel(_iso1d(), t, Grid(1, 64, 10.0))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_kernel_rejects_single_axis_pair_in_3d(alpha):
    # jumps along +/- e_3 only: psi vanishes on the plane xi_3 = 0
    degenerate = levy.StableSpectral(alpha, levy.SphericalMeasure.discrete(
        [((0.0, 0.0, 1.0), 1.0), ((0.0, 0.0, -1.0), 1.0)]))
    with pytest.raises(PreconditionFailure):
        kernel(degenerate, 1.0, Grid(3, 8, 10.0))


def test_kernel_resolution_failure_carries_suggestions():
    # a light-tailed (alpha near 2) near-delta kernel on a coarse grid
    # rings below zero
    with pytest.raises(ResolutionTooCoarse) as exc:
        kernel(_iso1d(mass=1.0, alpha=1.9), 1e-3, Grid(1, 32, 100.0))
    assert (exc.value.suggested_points is not None
            or exc.value.suggested_length is not None)


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def _bump_field(g, center=50.0):
    x = g.coordinates()[..., 0]
    return GridField(g, np.exp(-0.5 * (x - center) ** 2)[None])


def test_semigroup_identity_and_composition():
    m = _iso1d()
    g = Grid(1, 512, 100.0)
    f = _bump_field(g)
    assert semigroup_apply(m, 0.0, f) is f
    once = semigroup_apply(m, 0.7, f)
    twice = semigroup_apply(m, 0.3, semigroup_apply(m, 0.4, f))
    np.testing.assert_allclose(once.values, twice.values, atol=1e-12)


def test_semigroup_is_kernel_convolution():
    m = _iso1d()
    g = Grid(1, 512, 100.0)
    f = _bump_field(g)
    p = kernel(m, 0.5, g)
    conv = np.real(np.fft.ifft(np.fft.fft(f.values[0])
                               * np.fft.fft(p.values[0]))) * g.cell_volume
    np.testing.assert_allclose(semigroup_apply(m, 0.5, f).values[0], conv,
                               atol=1e-10)


def test_semigroup_contracts_sup_norm():
    m = _iso1d(alpha=1.4)
    g = Grid(1, 512, 100.0)
    f = _bump_field(g)
    sups = [lp_norm(semigroup_apply(m, t, f), np.inf)
            for t in (0.0, 0.1, 0.5, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))


# ---------------------------------------------------------------------------
# drift schedules
# ---------------------------------------------------------------------------

def test_drift_schedule_validation():
    with pytest.raises(InvalidArgument):
        DriftSchedule((0.0,), ((1.0,),))            # wrong count
    with pytest.raises(InvalidArgument):
        DriftSchedule((1.0, 0.5), ((1.0,), (2.0,), (3.0,)))  # not increasing
