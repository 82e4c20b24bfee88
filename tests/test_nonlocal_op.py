"""Nonlocal operator tests: eigenfunction exactness, route agreement,
the NUFFT-assembled quadrature against a direct node sum, adjointness,
translation equivariance, and the commutator identity."""

import math
import tracemalloc

import numpy as np
import pytest

from levylab import levy, nonlocal_op
from levylab.errors import ConsistencyFailure, InvalidArgument
from levylab.fieldgrid import (Grid, GridField, forward, lp_norm, nufft_type1,
                               spectral_points)
from levylab.nonlocal_op import OperatorRoute, adjoint_apply, apply


def _iso1d(alpha=1.0, mass=2.0 / np.pi):
    return levy.StableSpectral(alpha,
                               levy.SphericalMeasure.isotropic(1, mass))


def _bump(grid, center, width=1.0):
    c = grid.coordinates()
    r2 = np.sum((c - np.asarray(center)) ** 2, axis=-1)
    return GridField(grid, np.exp(-r2 / width ** 2)[None])


# ---------------------------------------------------------------------------
# multiplier route
# ---------------------------------------------------------------------------

def test_single_mode_eigenfunction():
    # cos(kx) is mapped to Re psi(k) cos(kx) + Im psi(k) sin(kx); for the
    # symmetric alpha=1 measure with psi = |xi| this is -|k| cos(kx)
    m = _iso1d()
    g = Grid(1, 128, 2 * np.pi)
    x = g.coordinates()[..., 0]
    for k in (1, 3, 10):
        f = GridField(g, np.cos(k * x)[None])
        out = apply(m, f)
        np.testing.assert_allclose(out.values[0], -k * np.cos(k * x),
                                   atol=1e-10)


def test_asymmetric_single_mode_matches_symbol():
    m = levy.StableSpectral(0.6, levy.SphericalMeasure.discrete(
        [((1.0,), 0.7), ((-1.0,), 0.3)]))
    g = Grid(1, 128, 2 * np.pi)
    x = g.coordinates()[..., 0]
    k = 4
    psi = levy.symbol(m, np.array([float(k)]))
    f = GridField(g, np.cos(k * x)[None])
    out = apply(m, f)
    expected = -(psi.real * np.cos(k * x) - psi.imag * np.sin(k * x))
    np.testing.assert_allclose(out.values[0], expected, atol=1e-10)


def test_dimension_mismatch_rejected():
    m = _iso1d()
    g = Grid(2, 16, 1.0)
    with pytest.raises(InvalidArgument):
        apply(m, GridField(g, np.zeros((1,) + g.shape)))


def test_annihilates_constants():
    m = _iso1d(alpha=1.5)
    g = Grid(1, 64, 5.0)
    c = GridField(g, np.full((1, 64), 3.0))
    for route in (OperatorRoute.multiplier(), OperatorRoute.quadrature()):
        out = apply(m, c, route)
        assert lp_norm(out, np.inf) < 1e-10


# ---------------------------------------------------------------------------
# route equivalence (desk-scale version of the acceptance criterion)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_quadrature_matches_multiplier_1d(alpha):
    m = _iso1d(alpha=alpha, mass=1.0)
    g = Grid(1, 256, 40.0)
    f = _bump(g, [20.0])
    a = apply(m, f, OperatorRoute.multiplier())
    b = apply(m, f, OperatorRoute.quadrature())
    rel = lp_norm(GridField(g, a.values - b.values), 2) / lp_norm(a, 2)
    assert rel < 1e-3


def test_quadrature_matches_multiplier_asymmetric():
    m = levy.StableSpectral(1.5, levy.SphericalMeasure.discrete(
        [((1.0,), 0.8), ((-1.0,), 0.2)]))
    g = Grid(1, 256, 40.0)
    f = _bump(g, [20.0])
    a = apply(m, f, OperatorRoute.multiplier())
    b = apply(m, f, OperatorRoute.quadrature())
    rel = lp_norm(GridField(g, a.values - b.values), 2) / lp_norm(a, 2)
    # the odd part converges slower than the symmetric families
    assert rel < 2e-3


def test_quadrature_matches_multiplier_2d_axes():
    m = levy.DirectSumAxes(1.0, (0.7, 0.3))
    g = Grid(2, 64, 40.0)
    f = _bump(g, [20.0, 20.0], width=2.0)
    a = apply(m, f, OperatorRoute.multiplier())
    b = apply(m, f, OperatorRoute.quadrature())
    rel = lp_norm(GridField(g, a.values - b.values), 2) / lp_norm(a, 2)
    assert rel < 1e-3


# ---------------------------------------------------------------------------
# quadrature multiplier against the direct node sum
# ---------------------------------------------------------------------------

def _direct_quadrature(measure, grid, route, xi):
    """The quadrature multiplier as one cos/exp sum per direction, unpaired,
    and the tail beyond R = L/2 per direction, unpaired, with both the even
    (G) and the odd (H) table read.  s = xi.theta comes from the same matrix
    product as in the route: for alpha < 1 the tail's |s|^alpha turns a
    rounding of 1e-16 in an s that should be 0 (xi normal to (0.6, -0.8))
    into 1e-8."""
    alpha, r_min, r_max = measure.alpha, grid.spacing / 2.0, grid.side_length / 2.0
    dirs, wts = nonlocal_op._direction_rule(measure)
    radii, rad_w = nonlocal_op._radial_rule(alpha, r_min, r_max,
                                            route.radial_nodes)
    v_tab, g_tab, h_tab = nonlocal_op._oscillatory_tail_profile(alpha)
    comp = radii <= (np.inf if alpha > 1 else (1.0 if alpha == 1 else 0.0))
    density = isinstance(measure, levy.DensityKernel)
    out = np.zeros(len(xi), dtype=complex)
    for theta, wt, s in zip(dirs, wts, (xi @ dirs.T).T):
        sr = np.outer(s, radii)
        a = measure._eval_a(radii[:, None] * theta) if density else 1.0
        out += (np.exp(1j * sr) - 1.0 - 1j * sr * comp) @ (wt * rad_w * a)
        a0 = float(measure._eval_a(r_min * theta)) if density else 1.0
        for k in range(1 if alpha < 1 else 2, 5):
            out += wt * a0 * (1j * s) ** k * r_min ** (k - alpha) / (
                math.factorial(k) * (k - alpha))
        v = np.abs(s) * r_max
        a_inf = float(measure._eval_a(r_max * theta)) if density else 1.0
        out += wt * a_inf * np.abs(s) ** alpha * (
            np.interp(v, v_tab, g_tab) + 1j * np.sign(s) * np.interp(v, v_tab, h_tab))
    return out


def _skew_density(alpha):
    return levy.DensityKernel(alpha, 1, lambda y: 1.0 + 0.5 * np.tanh(y[..., 0]),
                              0.5, 1.5, symmetric=False)


_SKEW_ATOMS = {      # non-symmetric; in d = 2 one +/- pair of unequal weight
    1: [((1.0,), 0.7), ((-1.0,), 0.2)],
    2: [((1.0, 0.0), 0.7), ((0.6, -0.8), 0.4), ((-0.6, 0.8), 0.9)],
    3: [((1.0, 0.0, 0.0), 0.7), ((0.6, -0.8, 0.0), 0.4), ((-0.6, 0.0, 0.8), 0.9)],
}
_NUFFT_MEASURES = {
    "isotropic": lambda a, d: levy.StableSpectral(
        a, levy.SphericalMeasure.isotropic(d, 1.3)),
    "atoms": lambda a, d: levy.StableSpectral(
        a, levy.SphericalMeasure.discrete(_SKEW_ATOMS[d])),
    "axes": lambda a, d: levy.DirectSumAxes(a, (0.7, 0.3, 0.5)[:d]),
}
_NUFFT_CASES = [(fam, d) for fam in _NUFFT_MEASURES for d in (1, 2, 3)] + [
    ("density", 1)]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("family,dim", _NUFFT_CASES)
def test_quadrature_multiplier_matches_direct_sum(family, dim, alpha):
    measure = (_skew_density(alpha) if family == "density"
               else _NUFFT_MEASURES[family](alpha, dim))
    g = Grid(dim, {1: 64, 2: 16, 3: 8}[dim], 10.0)
    route = OperatorRoute.quadrature(512 if dim < 3 else 40)
    xi = spectral_points(g)
    got = nonlocal_op._quadrature_multiplier(measure, g, route, xi)
    want = _direct_quadrature(measure, g, route, xi)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_nufft_rejects_frequencies_off_the_lattice():
    nodes, weights = np.array([[0.3], [1.7]]), np.array([1.0, 2.0])
    xi = 2 * np.pi / 10.0 * np.array([[1.0], [2.0]])
    want = np.exp(1j * xi @ nodes.T) @ weights
    np.testing.assert_allclose(nufft_type1(10.0, nodes, weights, xi), want,
                               rtol=0, atol=1e-12)
    with pytest.raises(InvalidArgument):
        nufft_type1(10.0, nodes, weights, xi + 1e-6)


def test_quadrature_route_never_calls_the_symbol(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature route called the closed-form symbol")

    monkeypatch.setattr(levy, "symbol_array", refuse)
    g = Grid(2, 16, 10.0)
    for family in _NUFFT_MEASURES:
        measure = _NUFFT_MEASURES[family](1.5, 2)
        nonlocal_op._quadrature_multiplier(measure, g, OperatorRoute.quadrature(),
                                           spectral_points(g))


def test_quadrature_multiplier_memory_is_bounded():
    g = Grid(2, 64, 40.0)
    m = levy.StableSpectral(1.5, levy.SphericalMeasure.isotropic(2, 1.0))
    xi = spectral_points(g)
    nonlocal_op._oscillatory_tail_profile(1.5)            # cached table
    tracemalloc.start()
    try:
        nonlocal_op._quadrature_multiplier(m, g, OperatorRoute.quadrature(), xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_tail_profile_cache_is_bounded():
    bound = nonlocal_op.TAIL_PROFILE_CACHE_SIZE
    for alpha in np.linspace(0.2, 1.9, bound + 4):
        nonlocal_op._oscillatory_tail_profile(float(alpha))
        info = nonlocal_op._oscillatory_tail_profile.cache_info()
        assert info.currsize <= bound
    assert info.maxsize == bound


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def test_adjoint_pairing():
    # <L f, g> = <f, L* g> with L* the reflected-measure operator
    m = levy.StableSpectral(0.8, levy.SphericalMeasure.discrete(
        [((1.0,), 0.9), ((-1.0,), 0.1)]))
    g = Grid(1, 128, 10.0)
    rng = np.random.default_rng(5)
    f = _bump(g, [4.0])
    w = GridField(g, rng.normal(size=(1, 128)))
    lhs = np.sum(apply(m, f).values * w.values) * g.cell_volume
    rhs = np.sum(f.values * adjoint_apply(m, w).values) * g.cell_volume
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("measure", [
    levy.DensityKernel(1.5, 1, lambda y: np.full(np.asarray(y).shape[:-1], 1.0),
                       1.0, 1.0),
    levy.DirectSumAxes(1.5, (0.4, 1.1))], ids=["constant-density", "axes"])
def test_adjoint_of_symmetric_measure_is_apply(measure):
    # nu* = nu: the adjoint reuses the cached multiplier of nu itself
    g = Grid(measure.dim, 64, 10.0)
    f = _bump(g, [5.0] * measure.dim)
    out = apply(measure, f)
    misses = nonlocal_op.multiplier.cache_info().misses
    np.testing.assert_array_equal(adjoint_apply(measure, f).values, out.values)
    assert nonlocal_op.multiplier.cache_info().misses == misses


def test_adjoint_of_skew_density_reuses_its_multiplier():
    # the reflected density is one cache key however often it is built
    m = _skew_density(1.5)
    g = Grid(1, 64, 10.0)
    f = _bump(g, [5.0])
    misses = nonlocal_op.multiplier.cache_info().misses
    outs = [adjoint_apply(m, f).values for _ in range(3)]
    assert nonlocal_op.multiplier.cache_info().misses == misses + 1
    np.testing.assert_array_equal(outs[0], outs[2])
    assert m.reflected() == m.reflected()
    assert m.reflected().a(np.array([[0.7]])) == m.a(np.array([[-0.7]]))


def test_translation_equivariance():
    m = _iso1d(alpha=1.3)
    g = Grid(1, 128, 10.0)
    f = _bump(g, [4.0])
    shift = 17
    rolled_then_applied = apply(
        m, GridField(g, np.roll(f.values, shift, axis=1)))
    applied_then_rolled = np.roll(apply(m, f).values, shift, axis=1)
    np.testing.assert_allclose(rolled_then_applied.values,
                               applied_then_rolled, atol=1e-12)


def test_output_is_real_and_mean_free():
    m = _iso1d(alpha=0.7)
    g = Grid(1, 128, 10.0)
    f = _bump(g, [6.0])
    out = apply(m, f, OperatorRoute.quadrature())
    assert np.isrealobj(out.values)
    # psi(0) = 0: the operator preserves zero mean
    assert abs(np.sum(out.values)) * g.cell_volume < 1e-10


def test_commutator_defect_consistency():
    # the composed and direct evaluations must agree internally, and the
    # defect must be nonzero for genuinely overlapping smooth fields
    m = _iso1d(alpha=1.0, mass=1.0)
    g = Grid(1, 128, 20.0)
    f = _bump(g, [9.0], width=1.5)
    zeta = _bump(g, [11.0], width=2.0)
    defect = nonlocal_op.commutator_defect(m, f, zeta)
    assert defect.grid == g
    assert lp_norm(defect, 2) > 1e-6


def test_commutator_defect_consistency_2d_skew_atoms():
    m = _NUFFT_MEASURES["atoms"](1.5, 2)
    g = Grid(2, 16, 10.0)
    f = _bump(g, [4.5, 5.0], width=1.5)
    zeta = _bump(g, [5.5, 5.5], width=2.0)
    defect = nonlocal_op.commutator_defect(m, f, zeta, OperatorRoute.quadrature(40))
    assert defect.grid == g
    assert lp_norm(defect, 2) > 1e-6


def test_commutator_defect_requires_quadrature_route():
    m = _iso1d()
    g = Grid(1, 64, 10.0)
    f = _bump(g, [5.0])
    with pytest.raises(InvalidArgument):
        nonlocal_op.commutator_defect(m, f, f, OperatorRoute.multiplier())
