"""Nonlocal operator tests: eigenfunction exactness, route agreement,
adjointness, translation equivariance, and the commutator identity."""

import numpy as np
import pytest

from levylab import levy, nonlocal_op
from levylab.errors import ConsistencyFailure, InvalidArgument
from levylab.fieldgrid import Grid, GridField, forward, lp_norm
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


def test_commutator_defect_requires_quadrature_route():
    m = _iso1d()
    g = Grid(1, 64, 10.0)
    f = _bump(g, [5.0])
    with pytest.raises(InvalidArgument):
        nonlocal_op.commutator_defect(m, f, f, OperatorRoute.multiplier())
