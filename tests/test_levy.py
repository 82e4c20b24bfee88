"""Symbol-level tests: radial constants against quadrature oracles,
structural properties of the characteristic exponent, serialization."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import gamma as Gamma, jv, spherical_jn

from levylab import levy
from levylab.errors import InvalidArgument
from levylab.fieldgrid import Grid, spectral_points

ALPHAS = [0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.9]


# ---------------------------------------------------------------------------
# radial constants vs independent mpmath quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ALPHAS)
def test_radial_cosine_constant_oracle(alpha):
    # [0,1]: termwise integral of the cosine Taylor series (alternating,
    # rapidly convergent); [1,10]: plain quadrature; [10,inf): power part
    # exactly plus the oscillatory remainder by quadosc
    head = sum((-1) ** (k + 1) /
               (mpmath.factorial(2 * k) * (2 * k - alpha))
               for k in range(1, 30))
    mid = mpmath.quad(
        lambda u: (1 - mpmath.cos(u)) / u ** (1 + alpha), [1, 10])
    tail = (mpmath.mpf(10) ** (-alpha) / alpha
            - mpmath.quadosc(lambda u: mpmath.cos(u) * u ** (-1 - alpha),
                             [10, mpmath.inf], period=2 * mpmath.pi))
    oracle = head + mid + tail
    assert levy.radial_cosine_constant(alpha) == pytest.approx(
        float(oracle), rel=1e-10)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_radial_sine_constant_oracle_subcritical(alpha):
    head = sum((-1) ** (k + 1) /
               (mpmath.factorial(2 * k - 1) * (2 * k - 1 - alpha))
               for k in range(1, 30))
    oracle = (head
              + mpmath.quad(
                  lambda u: mpmath.sin(u) * u ** (-1 - alpha), [1, 10])
              + mpmath.quadosc(lambda u: mpmath.sin(u) * u ** (-1 - alpha),
                               [10, mpmath.inf], period=2 * mpmath.pi))
    assert levy.radial_sine_constant(alpha) == pytest.approx(
        float(oracle), rel=1e-8)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_radial_sine_constant_oracle_supercritical(alpha):
    # u - sin u = sum_{k>=2} (-1)^k u^{2k-1}/(2k-1)! on [0,1]; the rest by
    # plain quadrature plus an exact power term and a quadosc remainder
    head = sum((-1) ** k /
               (mpmath.factorial(2 * k - 1) * (2 * k - 1 - alpha))
               for k in range(2, 30))
    mid = mpmath.quad(
        lambda u: (u - mpmath.sin(u)) / u ** (1 + alpha), [1, 10])
    tail = (mpmath.mpf(10) ** (1 - alpha) / (alpha - 1)
            - mpmath.quadosc(lambda u: mpmath.sin(u) * u ** (-1 - alpha),
                             [10, mpmath.inf], period=2 * mpmath.pi))
    oracle = head + mid + tail
    assert levy.radial_sine_constant(alpha) == pytest.approx(
        float(oracle), rel=1e-8)


def test_radial_sine_constant_rejects_critical_index():
    with pytest.raises(InvalidArgument):
        levy.radial_sine_constant(1.0)


@pytest.mark.parametrize("s", [0.25, 1.0, 3.0, -2.0])
def test_radial_imag_part_critical_oracle(s):
    # int_0^inf (s r 1_{r<1} - sin(s r)) r^{-2} dr = s (log|s| + gamma - 1)
    oracle = (mpmath.quad(
        lambda r: (s * r - mpmath.sin(s * r)) / r ** 2, [0, 1])
        - mpmath.quadosc(lambda r: mpmath.sin(s * r) / r ** 2,
                         [1, mpmath.inf], period=2 * mpmath.pi / abs(s)))
    got = float(levy.radial_imag_part(np.array([s]), 1.0)[0])
    assert got == pytest.approx(float(oracle), rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("dim,alpha", [(2, 0.5), (2, 1.0), (3, 1.0),
                                       (3, 1.7)])
def test_isotropic_projection_moment_oracle(dim, alpha):
    # mean of |cos t|^alpha over the sphere, as a 1-d weighted integral
    if dim == 2:
        oracle = mpmath.quad(
            lambda t: abs(mpmath.cos(t)) ** alpha,
            [0, mpmath.pi / 2, mpmath.pi]) / mpmath.pi
    else:
        oracle = mpmath.quad(
            lambda t: abs(mpmath.cos(t)) ** alpha * mpmath.sin(t) / 2,
            [0, mpmath.pi / 2, mpmath.pi])
    assert levy.isotropic_projection_moment(dim, alpha) == pytest.approx(
        float(oracle), rel=1e-10)


# ---------------------------------------------------------------------------
# symbol properties
# ---------------------------------------------------------------------------

def _sample_measures():
    return [pytest.param(m, id=name) for name, m in [
        ("StableSpectral1.0", levy.StableSpectral(
            1.0, levy.SphericalMeasure.isotropic(1, 1.0))),
        ("StableSpectral0.6", levy.StableSpectral(
            0.6, levy.SphericalMeasure.isotropic(2, 0.7))),
        ("StableSpectral1.4", levy.StableSpectral(
            1.4, levy.SphericalMeasure.discrete(
                [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5),
                 ((0.0, 1.0), 0.3), ((0.0, -1.0), 0.3)]))),
        ("StableSpectral0.7", levy.StableSpectral(
            0.7, levy.SphericalMeasure.discrete(
                [((1.0,), 0.8), ((-1.0,), 0.2)]))),       # asymmetric
        ("DirectSumAxes1.2", levy.DirectSumAxes(1.2, (0.5, 1.5))),
    ]]


@pytest.mark.parametrize("measure", _sample_measures())
def test_symbol_conjugate_symmetry_and_positivity(measure):
    rng = np.random.default_rng(0)
    xi = rng.normal(size=(40, measure.dim)) * 10
    psi = levy.symbol_array(measure, xi)
    psi_neg = levy.symbol_array(measure, -xi)
    np.testing.assert_allclose(psi_neg, np.conj(psi), rtol=1e-12, atol=1e-12)
    assert np.all(psi.real >= -1e-12)


@pytest.mark.parametrize("measure", _sample_measures())
def test_symbol_vanishes_at_origin(measure):
    assert levy.symbol(measure, np.zeros(measure.dim)) == 0.0


@given(c=st.floats(0.1, 20.0), xi0=st.floats(0.2, 5.0))
@settings(max_examples=30, deadline=None)
def test_symbol_homogeneity_symmetric(c, xi0):
    # symmetric measures: psi(c xi) = c^alpha psi(xi) for every alpha
    for alpha in (0.5, 1.0, 1.6):
        m = levy.StableSpectral(
            alpha, levy.SphericalMeasure.isotropic(1, 1.0))
        a = levy.symbol(m, np.array([c * xi0]))
        b = c ** alpha * levy.symbol(m, np.array([xi0]))
        assert a == pytest.approx(b, rel=1e-9)


@given(c=st.floats(0.1, 20.0), xi0=st.floats(0.2, 5.0))
@settings(max_examples=30, deadline=None)
def test_symbol_homogeneity_asymmetric_noncritical(c, xi0):
    m = levy.StableSpectral(
        1.5, levy.SphericalMeasure.discrete([((1.0,), 0.9), ((-1.0,), 0.1)]))
    a = levy.symbol(m, np.array([c * xi0]))
    b = c ** 1.5 * levy.symbol(m, np.array([xi0]))
    assert abs(a - b) <= 1e-9 * abs(b)


@pytest.mark.parametrize("measure", _sample_measures())
def test_symbol_nondegeneracy_sandwich(measure):
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(60, measure.dim))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    xi = dirs * rng.uniform(0.5, 30, size=(60, 1))
    norms = np.linalg.norm(xi, axis=-1)
    lower = levy.nondegeneracy_of(measure)
    # by homogeneity the sup of |psi| over unit frequencies bounds
    # |psi| / |xi|^alpha at every radius
    upper = float(np.max(np.abs(levy.symbol_array(measure, dirs))))
    assert lower > 0
    psi = levy.symbol_array(measure, xi)
    if measure.alpha != 1.0 or measure.is_symmetric:
        assert np.all(psi.real >= lower * norms ** measure.alpha - 1e-9)
    assert np.all(np.abs(psi) <= upper * norms ** measure.alpha + 1e-9)


def test_isotropic_alpha1_closed_form():
    m = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(1, 1.0))
    xi = np.linspace(-40, 40, 81)
    xi = xi[xi != 0][:, None]
    psi = levy.symbol_array(m, xi)
    np.testing.assert_allclose(psi.real,
                               (np.pi / 2) * np.abs(xi[:, 0]), rtol=1e-10)
    np.testing.assert_allclose(psi.imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
@pytest.mark.parametrize("symmetric", [True, False])
def test_density_kernel_matches_spectral(symmetric, alpha):
    # constant density a == 1 in d=1 equals the isotropic spectral measure
    # with total mass 2 (two unit atoms of weight 1).  75 frequencies, with
    # xi = 0, several blocks of DENSITY_BLOCK entries and a partial one;
    # symmetric=True runs the direction +1 at doubled weight, and
    # symmetric=False runs +/-1 with the odd part, which cancels between them
    dk = levy.DensityKernel(alpha, 1, lambda y: np.ones(y.shape[:-1]),
                            1.0, 1.0, symmetric, a_name="constant",
                            a_params=(("value", 1.0),))
    ss = levy.StableSpectral(alpha, levy.SphericalMeasure.isotropic(1, 2.0))
    freqs = np.fft.fftfreq(1024, 40 / 1024)
    xi = np.concatenate([freqs[:70], freqs[-5:]])[:, None]
    np.testing.assert_allclose(levy.symbol_array(dk, xi),
                               levy.symbol_array(ss, xi), rtol=1e-8, atol=0)


# the spectral points of Grid(1, 1024, 40), |xi| up to 80
GRID_XI = 2 * np.pi * np.fft.fftfreq(1024, d=40.0 / 1024)[:, None]


@pytest.mark.parametrize("symmetric", [True, False])
def test_density_symbol_near_alpha_2_matches_closed_form(symmetric):
    # 1 - cos u and u - sin u, formed as differences, lose their digits
    # below u ~ 1e-3, where the u^{-2.8} kernel weighs most: the refinement
    # stalled at a change of 1.5e-8 and raised
    dk = levy.DensityKernel(1.8, 1, lambda y: np.ones(y.shape[:-1]), 1.0, 1.0,
                            symmetric)
    want = 2 * levy.radial_cosine_constant(1.8) * np.abs(GRID_XI[:, 0]) ** 1.8
    np.testing.assert_allclose(levy.symbol_array(dk, GRID_XI), want,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.8])
def test_skew_step_density_matches_its_atoms(alpha):
    # a = 1 + sign(y)/2 is the stable measure with atoms +1 (weight 1.5) and
    # -1 (0.5), whose odd part is closed-form; the second term of the odd
    # tail beyond U had its sign wrong (3e-7 at alpha = 0.5)
    dk = levy.DensityKernel(alpha, 1, lambda y: 1 + 0.5 * np.sign(y[..., 0]),
                            0.5, 1.5, symmetric=False)
    atoms = levy.StableSpectral(alpha, levy.SphericalMeasure.discrete(
        [((1.0,), 1.5), ((-1.0,), 0.5)]))
    np.testing.assert_allclose(levy.symbol_array(dk, GRID_XI),
                               levy.symbol_array(atoms, GRID_XI),
                               rtol=1e-10, atol=0)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_skew_smooth_density_matches_closed_form(alpha):
    # a = 1 + sign(y) e^{-|y|}/2: a(y) + a(-y) = 2, and the odd part
    # int_0^inf (xi y - sin xi y) e^{-y} y^{-1-alpha} dy
    # = xi G(1-alpha) - G(-alpha) Im (1 - i xi)^alpha.  With a read at the
    # first and last Gauss node instead of the ends, the origin and tail
    # terms were first order in the panel width and the refinement stalled;
    # the alpha > 1 compensation tail int_U^inf u^{-alpha} a du also needs a
    # beyond U (1e-2 at alpha = 1.2, |xi| = 80 with a frozen at U)
    dk = levy.DensityKernel(
        alpha, 1, lambda y: 1 + 0.5 * np.sign(y[..., 0]) * np.exp(-np.abs(y[..., 0])),
        0.5, 1.5, symmetric=False)
    xi = GRID_XI[:, 0]
    want = (2 * levy.radial_cosine_constant(alpha) * np.abs(xi) ** alpha
            + 1j * (xi * Gamma(1 - alpha)
                    - Gamma(-alpha) * np.imag((1 - 1j * xi) ** alpha)))
    np.testing.assert_allclose(levy.symbol_array(dk, GRID_XI), want,
                               rtol=1e-9, atol=0)


def _even_density(dim, symmetric):
    # even and anisotropic: a(-y) = a(y) bit for bit, 1 <= a <= 1.5
    c = np.array([1.0, -2.0, 0.5][:dim])
    return levy.DensityKernel(
        1.0 if dim == 2 else 1.5, dim,
        lambda y: 1.0 + 0.5 * np.exp(-np.sum(y * c, axis=-1) ** 2),
        1.0, 1.5, symmetric)


@pytest.mark.parametrize("dim", [2, 3])
def test_density_pairing_equals_every_direction(dim):
    # symmetric=True integrates one side of each +/- pair of the sphere
    # rule at doubled weight; symmetric=False runs every direction and the
    # odd part (with the alpha = 1 log term in d = 2), which must cancel
    xi = np.array([[0.0] * dim, [0.7] + [0.0] * (dim - 1),
                   [1.3, -2.1, 0.4][:dim], [-3.0, 5.5, 2.0][:dim]])
    if dim == 3:
        xi = xi[:3]          # 1024 directions unpaired: about 2 s as it is
    paired = levy.symbol_array(_even_density(dim, True), xi)
    every = levy.symbol_array(_even_density(dim, False), xi)
    assert np.all(paired.imag == 0.0) and paired[0] == 0.0
    np.testing.assert_allclose(paired.real, every.real, rtol=1e-13, atol=0)
    assert np.all(np.abs(every.imag) <= 1e-13 * np.abs(every))


@pytest.mark.parametrize("a,c1,symmetric", [
    (lambda y: 1.0 + 0.5 * np.tanh(y[..., 0] ** 2), 1.0, True),
    (lambda y: 1.0 + 0.5 * np.tanh(y[..., 0]), 0.5, False),
], ids=["even", "skew"])
def test_density_symbol_does_not_depend_on_the_block(a, c1, symmetric,
                                                     monkeypatch):
    # one frequency per block, the default, and every frequency in one
    # block give the same psi up to the rounding of the row products
    dk = levy.DensityKernel(1.0, 1, a, c1, 1.5, symmetric)
    xi = GRID_XI[::9]
    default = levy.symbol_array(dk, xi)
    for block in (1, 10 ** 9):
        monkeypatch.setattr(levy, "DENSITY_BLOCK", block)
        np.testing.assert_allclose(levy.symbol_array(dk, xi), default,
                                   rtol=1e-14, atol=0)


def test_density_declared_symmetric_must_be_even():
    # with the default flag both routes returned a real psi(3) for this a,
    # whose odd part is 7.15i at alpha = 1.5
    a = lambda y: 1.0 + 0.5 * np.tanh(y[..., 0])
    with pytest.raises(InvalidArgument, match=r"a\(-y\) != a\(y\)"):
        levy.DensityKernel(1.5, 1, a, 0.5, 1.5)
    skew = levy.DensityKernel(1.5, 1, a, 0.5, 1.5, symmetric=False)
    assert levy.symbol(skew, [3.0]).imag > 7.0


@pytest.mark.parametrize("lo,hi,n_lo,n_hi", [
    (1e-3, 20.0, 12, 9), (2.0, 30.0, 3, 2), (0.01, 0.75, 5, 2)],
    ids=["one-inside", "one-below", "one-above"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_radial_rule_integrates_powers(lo, hi, n_lo, n_hi, alpha):
    r, w = levy.radial_rule(alpha, lo, hi, n_lo, n_hi)
    assert len(r) == 10 * (n_lo + n_hi) and np.all(np.diff(r) > 0)
    if lo < 1.0 < hi:
        assert np.count_nonzero(r < 1.0) == 10 * n_lo     # 1 is a panel edge
    for k in (1.25, 2.0, 3.5):
        p = k - alpha
        assert r ** k @ w == pytest.approx((hi ** p - lo ** p) / p, rel=1e-13)


def test_symbol_does_not_depend_on_how_xi_theta_is_formed():
    # xi = (4, 3) 2 pi / L is normal to (0.6, -0.8): one product over all
    # atoms and one per atom round s = 0 differently, and |s|^0.5 would
    # raise the residue to ~1e-9 relative
    atoms = [((1.0, 0.0), 0.7), ((0.6, -0.8), 0.4), ((-0.6, 0.8), 0.9)]
    xi = spectral_points(Grid(2, 16, 10.0))
    sm = levy.SphericalMeasure.discrete
    got = levy.symbol_array(levy.StableSpectral(0.5, sm(atoms)), xi)
    want = sum(levy.symbol_array(levy.StableSpectral(0.5, sm([atom])), xi)
               for atom in atoms)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_direct_sum_axes_additivity():
    weights = (0.4, 1.1)
    m = levy.DirectSumAxes(1.3, weights)
    parts = [levy.StableSpectral(1.3, levy.SphericalMeasure.discrete(
        [((1.0,), w), ((-1.0,), w)])) for w in weights]
    xi = np.array([2.0, -3.0])
    total = levy.symbol(m, xi)
    split = sum(levy.symbol(p, np.array([xi[i]]))
                for i, p in enumerate(parts) if xi[i] != 0)
    assert total == pytest.approx(split, rel=1e-10)


def test_direct_sum_axes_is_axis_atoms():
    m = levy.DirectSumAxes(0.9, (0.3, 0.7, 1.2))
    assert isinstance(m, levy.StableSpectral)
    assert m.sigma.atoms == (
        ((1.0, 0.0, 0.0), 0.3), ((0.0, 1.0, 0.0), 0.7), ((0.0, 0.0, 1.0), 1.2),
        ((-1.0, 0.0, 0.0), 0.3), ((0.0, -1.0, 0.0), 0.7),
        ((0.0, 0.0, -1.0), 1.2))
    assert m.is_symmetric
    for bad in ((), (0.5, 0.0)):
        with pytest.raises(InvalidArgument):
            levy.DirectSumAxes(1.0, bad)


def test_direct_sum_axes_variant_is_still_read():
    m = levy.from_dict({"variant": "direct_sum_axes", "alpha": 1.3,
                        "axes_weights": [0.4, 1.1]})
    assert m == levy.DirectSumAxes(1.3, (0.4, 1.1))
    assert levy.to_dict(m)["variant"] == "stable_spectral"


# ---------------------------------------------------------------------------
# nondegeneracy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_nondegeneracy_of_three_axes_is_exact(alpha):
    # Re psi = 2 c sum_i w_i |xi_i|^alpha, least on the axis of least weight
    m = levy.DirectSumAxes(alpha, (0.3, 0.7, 1.2))
    expected = 2.0 * levy.radial_cosine_constant(alpha) * 0.3
    assert levy.nondegeneracy_of(m) == pytest.approx(expected, rel=1e-12)
    equal = levy.DirectSumAxes(alpha, (1.0, 1.0, 1.0))
    assert levy.nondegeneracy_of(equal) == pytest.approx(
        2.0 * levy.radial_cosine_constant(alpha), rel=1e-12)


GENERIC_DIRS_3D = [[0.169, 0.969, -0.179], [-0.747, 0.471, 0.47],
                   [-0.255, -0.928, 0.272]]
GENERIC_WTS_3D = [0.69, 0.357, 0.344]


@pytest.mark.parametrize("alpha, rel", [(0.7, 1e-9), (1.5, 1e-8)])
def test_nondegeneracy_3d_against_local_minimisation(alpha, rel):
    # three generic +/- pairs: kappa_1 / c_alpha against the least
    # projection moment found from 8 Nelder-Mead starts
    d = np.array(GENERIC_DIRS_3D)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    sigma = levy.SphericalMeasure.discrete(
        [(tuple(s * x), w) for s in (1.0, -1.0)
         for x, w in zip(d, GENERIC_WTS_3D)])
    dirs, wts = sigma.atom_arrays()

    def moment(v):
        return np.sum(wts * np.abs(dirs @ (v / np.linalg.norm(v))) ** alpha)

    starts = np.random.default_rng(0).normal(size=(8, 3))
    best = min(minimize(moment, x0, method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 1e-15,
                                 "maxiter": 4000}).fun for x0 in starts)
    kappa = (levy.nondegeneracy_constant(sigma, alpha)
             / levy.radial_cosine_constant(alpha))
    assert best * (1 - 1e-9) <= kappa <= best * (1 + rel)


def _pairs(dirs, wts):
    """Lines (n, dim) with their weights, and the +/- atoms of weight w."""
    dirs = np.asarray(dirs, dtype=float)
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    atoms = [(tuple(s * d), w) for s in (1.0, -1.0) for d, w in zip(dirs, wts)]
    return dirs, 2.0 * np.asarray(wts), atoms


def _on_circle(angles):
    angles = np.asarray(angles, dtype=float)
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _kappa_cases():
    cases = {"3d-generic": _pairs(GENERIC_DIRS_3D, GENERIC_WTS_3D)}
    rng = np.random.default_rng(3)
    for k in range(5):
        cases[f"3d-random{k}"] = _pairs(rng.normal(size=(3, 3)),
                                        rng.uniform(0.2, 1.0, size=3))
    cases["2d-two-pairs"] = _pairs(_on_circle([0.3, 1.1]), (0.6, 0.4))
    cases["2d-three-pairs"] = _pairs(_on_circle([0.3, 1.1, 2.0]),
                                     (0.6, 0.4, 0.5))
    dirs = _on_circle(0.4 + np.arange(3) * (2.0 * np.pi / 3.0))
    wts = np.array([0.35, 0.6, 0.45])
    cases["2d-three-atoms"] = (dirs, wts, list(zip(map(tuple, dirs), wts)))
    return cases


KAPPA_CASES = _kappa_cases()


def _vertex_values(lines, weights, alpha):
    """The moment at each cell vertex, the lines through it left out."""
    if lines.shape[1] == 2:
        verts = [(np.array([-l[1], l[0]]), {k}) for k, l in enumerate(lines)]
    else:
        verts = []
        for a in range(len(lines)):
            for b in range(a + 1, len(lines)):
                v = np.cross(lines[a], lines[b])
                verts.append((v / np.linalg.norm(v), {a, b}))
    return [sum(w * abs(v @ l) ** alpha for k, (l, w)
                in enumerate(zip(lines, weights)) if k not in on)
            for v, on in verts]


def _nelder_mead_minimum(lines, weights, alpha, starts=32):
    """Least moment from Nelder-Mead in spherical angles."""
    def unit(t):
        if len(t) == 1:
            return np.array([np.cos(t[0]), np.sin(t[0])])
        return np.array([np.sin(t[0]) * np.cos(t[1]),
                         np.sin(t[0]) * np.sin(t[1]), np.cos(t[0])])

    def moment(t):
        return np.sum(weights * np.abs(lines @ unit(t)) ** alpha)

    x0s = np.random.default_rng(0).uniform(0.0, np.pi,
                                           size=(starts, lines.shape[1] - 1))
    return min(minimize(moment, x0, method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 1e-15}).fun
               for x0 in x0s)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("case", list(KAPPA_CASES))
def test_nondegeneracy_against_vertices_and_nelder_mead(case, alpha):
    # kappa_1 / c_alpha is the least projection moment: for alpha <= 1 a
    # cell vertex value, for alpha > 1 possibly inside a cell
    lines, weights, atoms = KAPPA_CASES[case]
    sigma = levy.SphericalMeasure.discrete(atoms)
    best = min(min(_vertex_values(lines, weights, alpha)),
               _nelder_mead_minimum(lines, weights, alpha))
    kappa = (levy.nondegeneracy_constant(sigma, alpha)
             / levy.radial_cosine_constant(alpha))
    assert kappa == pytest.approx(best, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_nondegeneracy_of_one_pair_in_3d_is_zero(alpha):
    sigma = levy.SphericalMeasure.discrete(
        [((0.0, 0.0, 1.0), 1.0), ((0.0, 0.0, -1.0), 1.0)])
    assert levy.nondegeneracy_constant(sigma, alpha) == 0.0


# ---------------------------------------------------------------------------
# spherical measure structure
# ---------------------------------------------------------------------------

def test_spherical_measure_validation():
    with pytest.raises(InvalidArgument):
        levy.SphericalMeasure(1)                      # neither variant
    with pytest.raises(InvalidArgument):
        levy.SphericalMeasure.isotropic(1, -1.0)
    with pytest.raises(InvalidArgument):
        levy.SphericalMeasure.discrete([((2.0,), 1.0)])   # not unit


def test_reflection_and_symmetry():
    # reflecting the atoms conjugates psi (the adjoint's symbol), and a
    # measure plus its reflection is symmetric
    atoms = [((1.0,), 0.8), ((-1.0,), 0.2)]
    reflected = [((-d[0],), w) for d, w in atoms]
    asym = levy.SphericalMeasure.discrete(atoms)
    assert not asym.is_symmetric
    assert levy.SphericalMeasure.discrete(atoms + reflected).is_symmetric
    xi = np.linspace(-3.0, 3.0, 13)[:, None]
    psi = levy.symbol_array(levy.StableSpectral(0.7, asym), xi)
    np.testing.assert_array_equal(levy.symbol_array(levy.StableSpectral(
        0.7, levy.SphericalMeasure.discrete(reflected)), xi), np.conj(psi))


def test_antipodal_pairs_pools_and_matches_negatives():
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, -0.0],
                     [0.0, -1.0]])
    wts = np.array([0.25, 0.4, 0.25, 0.5, 0.4])
    reps, one_side = levy.antipodal_pairs(dirs, wts)
    np.testing.assert_array_equal(reps, [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(one_side, [0.5, 0.4])
    assert levy.antipodal_pairs(dirs[:4], wts[:4]) is None      # 0,-1 missing
    unequal = wts * np.array([1, 1, 1, 1, 1 + 1e-9])
    assert levy.antipodal_pairs(dirs, unequal) is None


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 7), (2, 128), (3, 1), (3, 5), (3, 24)])
def test_sphere_rule_first_half_is_one_side_of_each_pair(dim, n):
    # the quadrature route's panel rules take the first half as the pairs
    dirs, wts = levy.sphere_rule(dim, n)
    half = len(dirs) // 2
    reps, one_side = levy.antipodal_pairs(dirs, wts)
    np.testing.assert_array_equal(reps, dirs[:half])
    np.testing.assert_array_equal(one_side, wts[:half])


def test_sphere_rule_size_steps_past_the_bandwidth():
    # 2 |J_M(z)| in d = 2 and (2L + 1) |j_L(z)| in d = 3, first below eps
    z = np.array([0.0, 1e-3, 0.7, 5.0, 40.0, 142.0])
    m = levy.sphere_rule_size(2, z, 1e-8)
    assert np.all(m % 2 == 0) and np.all(m >= np.maximum(2, z))
    assert np.all(2 * np.abs(jv(m, z)) < 1e-8)
    assert np.all(2 * np.abs(jv(m - 2, z)) >= 1e-8)
    n = levy.sphere_rule_size(3, z, 1e-8)
    assert np.all(n >= 1) and np.all(2 * n >= z)
    assert np.all((4 * n + 1) * np.abs(spherical_jn(2 * n, z)) < 1e-8)
    big = n > 1
    assert np.all((4 * n[big] - 3) * np.abs(spherical_jn(2 * n[big] - 2, z[big])) >= 1e-8)
    for dim, eps in ((1, 1e-8), (2, 0.0), (3, -1.0)):
        with pytest.raises(InvalidArgument):
            levy.sphere_rule_size(dim, z, eps)


def test_isotropic_1d_atoms_are_the_unit_pair():
    dirs, wts = levy.SphericalMeasure.isotropic(1, 3.0).atom_arrays()
    np.testing.assert_array_equal(dirs, [[1.0], [-1.0]])
    np.testing.assert_array_equal(wts, [1.5, 1.5])
    with pytest.raises(InvalidArgument):
        levy.SphericalMeasure.isotropic(2, 1.0).atom_arrays()


def test_alpha_validation():
    for bad in (0.0, 2.0, -0.3, 2.5):
        with pytest.raises(InvalidArgument):
            levy.StableSpectral(bad, levy.SphericalMeasure.isotropic(1, 1.0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("measure", _sample_measures())
def test_dict_round_trip(measure):
    back = levy.from_dict(levy.to_dict(measure))
    xi = np.full(measure.dim, 1.7)
    assert levy.symbol(back, xi) == pytest.approx(
        levy.symbol(measure, xi), rel=1e-12)
    assert levy.measure_digest(back) == levy.measure_digest(measure)


def test_file_round_trip(tmp_path):
    m = levy.StableSpectral(1.4, levy.SphericalMeasure.discrete(
        [((0.6, 0.8), 0.5), ((-0.6, -0.8), 0.5)]))
    path = tmp_path / "m.json"
    levy.save_measure(m, path)
    back = levy.load_measure(path)
    assert levy.measure_digest(back) == levy.measure_digest(m)


def test_unregistered_density_rejected():
    dk = levy.DensityKernel(0.5, 1, lambda y: np.ones(y.shape[:-1]),
                            1.0, 1.0, True)
    with pytest.raises(InvalidArgument):
        levy.to_dict(dk)


def test_density_symbol_memory_is_bounded(traced_peak):
    # one symbol call on the 1024 frequencies of Grid(1, 1024, 40) peaked at
    # 424 MiB when the quadrature held every (frequency, node) pair at once,
    # and at 21.6 MiB with blocks of 64 frequencies, whose buffers grow
    # with the node count of the refinement level; blocks of DENSITY_BLOCK
    # (frequency, node) entries do not
    measure = levy.from_dict({
        "variant": "density_kernel", "alpha": 0.5, "dim": 1,
        "a_name": "constant", "a_params": {"value": 1.0},
        "c1": 1.0, "c2": 1.0, "symmetric": True})
    xi = 2 * np.pi * np.fft.fftfreq(1024, d=40.0 / 1024)[:, None]
    psi, peak = traced_peak(levy.symbol_array, measure, xi)
    assert np.all(np.isfinite(psi))
    assert peak <= 4 * 2 ** 20
