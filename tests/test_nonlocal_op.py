"""Nonlocal operator tests: eigenfunction exactness, route agreement,
the NUFFT-assembled quadrature against a direct node sum, adjointness,
translation equivariance, and the commutator identity."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from levylab import fieldgrid, levy, nonlocal_op
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


@pytest.mark.parametrize("radial_nodes", [0, 10, 15, 45, 512])
def test_quadrature_route_rejects_partial_panels(radial_nodes):
    # 10 radii per panel and at least two panels; 45 used to run 40 radii
    # and 10 to run 20
    with pytest.raises(InvalidArgument):
        OperatorRoute.quadrature(radial_nodes)


def test_quadrature_route_runs_every_radial_node():
    m = levy.StableSpectral(1.5, levy.SphericalMeasure.discrete([((1.0, 0.0), 1.0)]))
    g = Grid(2, 16, 10.0)
    for radial_nodes in (20, 40, 510):
        ns = nonlocal_op._nodes(m, g, OperatorRoute.quadrature(radial_nodes))
        assert len(ns.nodes) == radial_nodes


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
    """The quadrature multiplier as one exp sum over the route's node set,
    read a block of nodes at a time, each node of a paired set as itself
    and its negative at half weight; the Taylor region and the tail beyond
    R = L/2 per direction of the unpaired ``_direction_rule``, with both the
    even (G) and the odd (H) table read.  In the tail s = xi.theta is one
    product per direction, taken as 0 within 4 ulps of
    sum_i |xi_i theta_i| as in the route: for alpha < 1 the tail's
    |s|^alpha would turn a rounding of 1e-16 in an s that should be 0 (xi
    normal to (0.6, -0.8)) into 1e-8."""
    alpha, r_min, r_max = measure.alpha, grid.spacing / 2.0, grid.side_length / 2.0
    ns = nonlocal_op._nodes(measure, grid, route)
    assert (ns.r_min, ns.r_max) == (r_min, r_max)
    nodes, weights = ns.nodes, ns.weights
    if ns.sides[2]:                                    # paired
        nodes = np.concatenate([nodes, -nodes])
        weights = np.concatenate([weights, weights]) / 2
    radii = np.linalg.norm(nodes, axis=1)
    assert r_min < radii.min() and radii.max() < r_max
    comp = radii <= (np.inf if alpha > 1 else (1.0 if alpha == 1 else 0.0))
    out = np.zeros(len(xi), dtype=complex)
    for k in range(0, len(nodes), 500):
        sy = xi @ nodes[k:k + 500].T
        out += (np.exp(1j * sy) - 1.0 - 1j * sy * comp[k:k + 500]) @ weights[k:k + 500]
    v_tab, g_tab, h_tab = nonlocal_op._oscillatory_tail_profile(alpha)
    density = isinstance(measure, levy.DensityKernel)
    for theta, wt in zip(*nonlocal_op._direction_rule(measure)):
        s = xi @ theta
        s[np.abs(s) <= 4 * np.finfo(float).eps * (np.abs(xi) @ np.abs(theta))] = 0
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
_NUFFT_CASES = [
    pytest.param(fam, d, a, {1: 64, 2: 16, 3: 8}[d], id=f"{fam}-{d}-{a}")
    for a in (0.5, 1.0, 1.5)
    for fam, d in [(fam, d) for fam in _NUFFT_MEASURES for d in (1, 2, 3)]
    + [("density", 1)]] + [
    # at 64^2 the outer panels need more than the fixed 128-direction rule,
    # so a route that ignored its panel rules would miss the direct sum
    pytest.param("isotropic", 2, 1.5, 64, id="isotropic-2-1.5-64x64")]


def _nufft_case(family, dim, alpha, n):
    """(measure, grid, route) of one _NUFFT_CASES entry."""
    measure = (_skew_density(alpha) if family == "density"
               else _NUFFT_MEASURES[family](alpha, dim))
    g = Grid(dim, n, 10.0)
    return measure, g, OperatorRoute.quadrature(510 if dim < 3 else 40)


@pytest.mark.parametrize("family,dim,alpha,n", _NUFFT_CASES)
def test_quadrature_multiplier_matches_direct_sum(family, dim, alpha, n,
                                                  monkeypatch):
    measure, g, route = _nufft_case(family, dim, alpha, n)
    xi = spectral_points(g)
    assert not np.any(xi[0])
    # at the route's NUFFT tolerance: psi(0) is the NUFFT's own xi = 0 value
    # subtracted from itself, so exactly 0 whatever its error
    route_eps = nonlocal_op._quadrature_multiplier(measure, g, route, xi)
    assert route_eps[0] == 0
    # the oracle checks how the route assembles its sums (pairing,
    # compensation, Taylor, tail), so the NUFFT runs at 1e-12, below its bound;
    # the node set stays the route's, its panel rules sized to nonlocal_op's
    # NUFFT_EPS = 1e-8
    monkeypatch.setattr(fieldgrid, "NUFFT_EPS", 1e-12)
    got = nonlocal_op._quadrature_multiplier(measure, g, route, xi)
    assert np.max(np.abs(route_eps - got)) <= 1e-8 * np.max(np.abs(got))
    want = _direct_quadrature(measure, g, route, xi)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("dim,n", [(2, 64), (2, 128), (3, 16)])
def test_panel_rules_resolve_the_plane_wave(dim, n):
    # each panel's rule against the angular mean of e^{i z xi.theta} at the
    # panel's largest z = r |xi|_max, from scipy: 2 pi J_0(z) in d = 2 and
    # 4 pi sin(z) / z in d = 3 (weights of total mass |S^{d-1}|)
    g = Grid(dim, n, 40.0)
    m = levy.StableSpectral(1.5, levy.SphericalMeasure.isotropic(
        dim, levy.sphere_area(dim)))
    _, _, radii, _ = nonlocal_op._radial_panels(m, g, OperatorRoute.quadrature())
    xi = spectral_points(g)
    xi_max = np.sqrt(np.max(np.sum(xi ** 2, axis=1)))
    xi_hats = [np.eye(dim)[0], np.ones(dim) / math.sqrt(dim), xi[-1] / np.linalg.norm(xi[-1]),
               np.random.default_rng(dim).normal(size=dim)]
    z = radii.max(axis=1) * xi_max
    rules = nonlocal_op._bandwidth_rules(m.sigma, g, radii.max(axis=1))
    assert len(rules) == len(radii) == 51
    for (dirs, wts), zp in zip(rules, z):
        total = np.sum(wts)               # one side of each pair, doubled
        assert total == pytest.approx(levy.sphere_area(dim), rel=1e-13)
        want = 2 * np.pi * j0(zp) if dim == 2 else 4 * np.pi * np.sin(zp) / zp
        for xi_hat in xi_hats:
            got = wts @ np.cos(zp * dirs @ (xi_hat / np.linalg.norm(xi_hat)))
            assert abs(got - want) <= fieldgrid.NUFFT_EPS * total
    # the small radii need far fewer directions than the fixed rule, R more
    fixed = len(nonlocal_op._direction_rule(m)[0]) // 2
    assert len(rules[0][0]) < fixed / 4 and len(rules[-1][0]) > fixed / 2


# per |xi| h band, [0, 1), [1, 2), [2, 3), [3, inf): the errors of the one
# fixed direction rule at every radius (64 pairs in d = 2, 1152 in d = 3)
# that the panel rules replaced, rounded up to two digits, written down
# before the panel rules were first run
_BAND_EDGES = (0.0, 1.0, 2.0, 3.0, np.inf)
_BAND_BOUNDS = {
    (2, 64, 0.5): (1.3e-3, 1.3e-3, 1.1e-2, 2.1e-2),
    (2, 64, 1.0): (1.8e-4, 2.4e-4, 1.8e-3, 2.0e-3),
    (2, 64, 1.5): (1.9e-5, 9.4e-5, 3.6e-4, 3.1e-3),
    (3, 16, 1.5): (1.6e-4, 2.0e-4, 4.9e-4, 5.6e-3),
}


@pytest.mark.parametrize("dim,n,alpha", list(_BAND_BOUNDS))
def test_quadrature_accuracy_per_band(dim, n, alpha):
    # per mode, relative to the closed-form psi, isotropic, L = 40
    g = Grid(dim, n, 40.0)
    m = levy.StableSpectral(alpha, levy.SphericalMeasure.isotropic(dim, 1.3))
    xi = spectral_points(g)[1:]
    got = nonlocal_op._quadrature_multiplier(m, g, OperatorRoute.quadrature(), xi)
    psi = levy.symbol_array(m, xi)
    rel = np.abs(got + psi) / np.abs(psi)
    kh = np.linalg.norm(xi, axis=1) * g.spacing
    for lo, hi, bound in zip(_BAND_EDGES, _BAND_EDGES[1:], _BAND_BOUNDS[dim, n, alpha]):
        assert rel[(kh >= lo) & (kh < hi)].max() <= bound


def test_tail_does_not_depend_on_how_xi_theta_is_formed():
    # xi = (4, 3) 2 pi / L is normal to (0.6, -0.8): the route's one matrix
    # product over all directions and a product per one-atom measure leave
    # different roundings of s = 0, which |s|^0.5 raised to ~1e-8
    g = Grid(2, 16, 10.0)
    xi = spectral_points(g)
    atoms = _SKEW_ATOMS[2]

    def tail(atoms):
        m = levy.StableSpectral(0.5, levy.SphericalMeasure.discrete(atoms))
        ns = nonlocal_op._nodes(m, g, OperatorRoute.quadrature())
        return nonlocal_op._tail_multiplier(m, ns.r_max, ns.sides, xi)

    got = tail(atoms)
    want = sum(tail([atom]) for atom in atoms)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-12])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nufft_is_within_eps_of_the_direct_sum(dim, eps, monkeypatch):
    monkeypatch.setattr(fieldgrid, "NUFFT_EPS", eps)
    rng = np.random.default_rng(dim)
    nodes = rng.uniform(-15.0, 15.0, size=(300, dim))     # taken modulo L = 10
    weights = rng.normal(size=300)
    k = np.stack(np.meshgrid(*[np.arange(-6, 7)] * dim, indexing="ij"),
                 axis=-1).reshape(-1, dim)
    xi = 2 * np.pi / 10.0 * k
    want = np.exp(1j * xi @ nodes.T) @ weights
    got = nufft_type1(10.0, nodes, weights, xi)
    assert np.max(np.abs(got - want)) <= eps * np.sum(np.abs(weights))


def test_tail_interval_is_the_binary_search():
    # every table point, its neighbours in floating point, the midpoints,
    # the piece edges 1e-4 and 1, and beyond the last entry (the clamp)
    v_tab = nonlocal_op._oscillatory_tail_profile(1.5)[0]
    v = np.concatenate([v_tab, np.nextafter(v_tab, -1.0),
                        np.nextafter(v_tab, np.inf), 0.5 * (v_tab[1:] + v_tab[:-1]),
                        [1e-4, 1.0, 60.0, 61.0, 1e3]])
    v = np.abs(v)[None, :]
    got = nonlocal_op._tail_interval(v_tab, np.append(v_tab[1:], np.inf), v)
    np.testing.assert_array_equal(got, np.searchsorted(v_tab, v, side="right") - 1)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_tail_profile_end_is_the_oscillatory_integral(alpha):
    # F(U) = int_U^inf e^{iu} u^{-1-alpha} du at U = TAIL_END, where the
    # table holds the asymptotic series alone, against QAWF quadrature
    U = nonlocal_op.TAIL_END
    v_tab, g_tab, h_tab = nonlocal_op._oscillatory_tail_profile(alpha)
    assert v_tab[-1] == pytest.approx(U)
    im_reg = U ** (1.0 - alpha) / (alpha - 1.0) if alpha > 1 else 0.0
    got = complex(g_tab[-1] + U ** -alpha / alpha, h_tab[-1] + im_reg)
    want = complex(*(quad(lambda u: u ** (-1.0 - alpha), U, np.inf,
                          weight=kind, wvar=1.0)[0] for kind in ("cos", "sin")))
    assert abs(got - want) <= 1e-3 * abs(want)


def test_nufft_rejects_frequencies_off_the_lattice(monkeypatch):
    monkeypatch.setattr(fieldgrid, "NUFFT_EPS", 1e-12)
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


def test_quadrature_multiplier_memory_is_bounded(traced_peak):
    g = Grid(2, 64, 40.0)
    m = levy.StableSpectral(1.5, levy.SphericalMeasure.isotropic(2, 1.0))
    xi = spectral_points(g)
    nonlocal_op._oscillatory_tail_profile(1.5)            # cached table
    _, peak = traced_peak(nonlocal_op._quadrature_multiplier, m, g,
                          OperatorRoute.quadrature(), xi)
    assert peak < 8 * 2 ** 20


def test_tail_profile_cache_is_bounded():
    bound = nonlocal_op.TAIL_PROFILE_CACHE_SIZE
    for alpha in np.linspace(0.2, 1.9, bound + 4):
        nonlocal_op._oscillatory_tail_profile(float(alpha))
        info = nonlocal_op._oscillatory_tail_profile.cache_info()
        assert info.currsize <= bound
    assert info.maxsize == bound


def test_gauss_legendre_cache_holds_a_3d_node_set():
    # a 16^3 node set reads 28 distinct rules, the 2n-point rule of each
    # panel's sphere_rule(3, n) and the radial rule: more than 16 entries
    m = levy.StableSpectral(1.5, levy.SphericalMeasure.isotropic(3, 1.0))
    g = Grid(3, 16, 40.0)
    nonlocal_op._nodes(m, g, OperatorRoute.quadrature())
    before = fieldgrid.gauss_legendre.cache_info()
    nonlocal_op._nodes(m, g, OperatorRoute.quadrature())
    after = fieldgrid.gauss_legendre.cache_info()
    assert after.hits > before.hits and after.misses == before.misses


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

_ADJOINT_MEASURES = {
    "atoms-1d": lambda: levy.StableSpectral(0.8, levy.SphericalMeasure.discrete(
        [((1.0,), 0.9), ((-1.0,), 0.1)])),
    "atoms-2d": lambda: levy.StableSpectral(1.3, levy.SphericalMeasure.discrete(
        _SKEW_ATOMS[2])),
    "density-1d": lambda: _skew_density(1.5),
}


@pytest.mark.parametrize("route", [OperatorRoute.multiplier(),
                                   OperatorRoute.quadrature()],
                         ids=["multiplier", "quadrature"])
@pytest.mark.parametrize("family", _ADJOINT_MEASURES)
def test_adjoint_pairing(family, route):
    # <L f, g> = <f, L* g>, L* reading the cache entry that L filled
    m = _ADJOINT_MEASURES[family]()
    g = Grid(m.dim, {1: 128, 2: 32}[m.dim], 10.0)
    rng = np.random.default_rng(5)
    f = _bump(g, [4.0] * m.dim)
    w = GridField(g, rng.normal(size=(1,) + g.shape))
    lhs = np.sum(apply(m, f, route).values * w.values) * g.cell_volume
    misses = nonlocal_op.multiplier.cache_info().misses
    rhs = np.sum(f.values * adjoint_apply(m, w, route).values) * g.cell_volume
    assert nonlocal_op.multiplier.cache_info().misses == misses
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
    # L* has the conjugate multiplier: no second density quadrature
    m = _skew_density(1.5)
    g = Grid(1, 64, 10.0)
    f = _bump(g, [5.0])
    for route in (OperatorRoute.multiplier(), OperatorRoute.quadrature(40)):
        apply(m, f, route)
        misses = nonlocal_op.multiplier.cache_info().misses
        outs = [adjoint_apply(m, f, route).values for _ in range(3)]
        assert nonlocal_op.multiplier.cache_info().misses == misses
        np.testing.assert_array_equal(outs[0], outs[2])


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


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_commutator_defect_consistency_2d_isotropic(alpha):
    # panel rules of bandwidth-sized size, paired: both sides of each node
    # in the direct sum
    m = _NUFFT_MEASURES["isotropic"](alpha, 2)
    g = Grid(2, 16, 10.0)
    f = _bump(g, [4.5, 5.0], width=1.5)
    zeta = _bump(g, [5.5, 5.5], width=2.0)
    defect = nonlocal_op.commutator_defect(m, f, zeta, OperatorRoute.quadrature(40))
    assert defect.grid == g
    assert lp_norm(defect, 2) > 1e-6


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_commutator_defect_consistency_skew_density(alpha):
    # the density branch of the direct commutator, under the defect's own
    # composed-vs-direct check
    g = Grid(1, 64, 10.0)
    f = _bump(g, [4.5], width=1.5)
    zeta = _bump(g, [5.5], width=2.0)
    defect = nonlocal_op.commutator_defect(_skew_density(alpha), f, zeta)
    assert defect.grid == g
    assert lp_norm(defect, 2) > 1e-6


def test_commutator_defect_requires_quadrature_route():
    m = _iso1d()
    g = Grid(1, 64, 10.0)
    f = _bump(g, [5.0])
    with pytest.raises(InvalidArgument):
        nonlocal_op.commutator_defect(m, f, f, OperatorRoute.multiplier())
