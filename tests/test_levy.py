"""Symbol-level tests: radial constants against quadrature oracles,
structural properties of the characteristic exponent, serialization."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import levy
from levylab.errors import InvalidArgument

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
    return [
        levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(1, 1.0)),
        levy.StableSpectral(0.6, levy.SphericalMeasure.isotropic(2, 0.7)),
        levy.StableSpectral(1.4, levy.SphericalMeasure.discrete(
            [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5),
             ((0.0, 1.0), 0.3), ((0.0, -1.0), 0.3)])),
        levy.StableSpectral(0.7, levy.SphericalMeasure.discrete(
            [((1.0,), 0.8), ((-1.0,), 0.2)])),       # asymmetric
        levy.DirectSumAxes(1.2, (0.5, 1.5)),
    ]


@pytest.mark.parametrize("measure", _sample_measures(),
                         ids=lambda m: type(m).__name__ + str(m.alpha))
def test_symbol_conjugate_symmetry_and_positivity(measure):
    rng = np.random.default_rng(0)
    xi = rng.normal(size=(40, measure.dim)) * 10
    psi = levy.symbol_array(measure, xi)
    psi_neg = levy.symbol_array(measure, -xi)
    np.testing.assert_allclose(psi_neg, np.conj(psi), rtol=1e-12, atol=1e-12)
    assert np.all(psi.real >= -1e-12)


@pytest.mark.parametrize("measure", _sample_measures(),
                         ids=lambda m: type(m).__name__ + str(m.alpha))
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


@pytest.mark.parametrize("measure", _sample_measures(),
                         ids=lambda m: type(m).__name__ + str(m.alpha))
def test_symbol_nondegeneracy_sandwich(measure):
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(60, measure.dim))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    xi = dirs * rng.uniform(0.5, 30, size=(60, 1))
    norms = np.linalg.norm(xi, axis=-1)
    lower = levy.nondegeneracy_of(measure)
    # by homogeneity the upper constant fitted on unit frequencies bounds
    # |psi| at every radius
    upper = levy.symbol_upper_constant(measure, measure.alpha, dirs)
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


def test_density_kernel_matches_spectral():
    # constant density a == 1 in d=1 equals the isotropic spectral measure
    # with total mass 2 (two unit atoms of weight 1)
    alpha = 0.8
    dk = levy.DensityKernel(alpha, 1, lambda y: np.ones(y.shape[:-1]),
                            1.0, 1.0, True, a_name="constant",
                            a_params=(("value", 1.0),))
    ss = levy.StableSpectral(alpha, levy.SphericalMeasure.isotropic(1, 2.0))
    xi = np.array([[0.5], [3.0], [-7.0]])
    np.testing.assert_allclose(levy.symbol_array(dk, xi),
                               levy.symbol_array(ss, xi), rtol=1e-6)


def test_direct_sum_axes_additivity():
    m = levy.DirectSumAxes(1.3, (0.4, 1.1))
    parts = m.axis_measures()
    xi = np.array([2.0, -3.0])
    total = levy.symbol(m, xi)
    split = sum(levy.symbol(p, np.array([xi[i]]))
                for i, p in enumerate(parts) if xi[i] != 0)
    assert total == pytest.approx(split, rel=1e-10)


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
    asym = levy.SphericalMeasure.discrete([((1.0,), 0.8), ((-1.0,), 0.2)])
    assert not asym.is_symmetric
    refl = asym.reflected()
    (dirs, wts) = refl.atom_arrays()
    pairs = {(float(d[0]), float(w)) for d, w in zip(dirs, wts)}
    assert pairs == {(-1.0, 0.8), (1.0, 0.2)}
    assert asym.mass == pytest.approx(refl.mass)


def test_alpha_validation():
    for bad in (0.0, 2.0, -0.3, 2.5):
        with pytest.raises(InvalidArgument):
            levy.StableSpectral(bad, levy.SphericalMeasure.isotropic(1, 1.0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("measure", _sample_measures(),
                         ids=lambda m: type(m).__name__ + str(m.alpha))
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


def test_density_symbol_memory_is_bounded():
    # one symbol call on the 1024 frequencies of Grid(1, 1024, 40) peaked at
    # 424 MiB when the quadrature held every (frequency, node) pair at once
    measure = levy.from_dict({
        "variant": "density_kernel", "alpha": 0.5, "dim": 1,
        "a_name": "constant", "a_params": {"value": 1.0},
        "c1": 1.0, "c2": 1.0, "symmetric": True})
    xi = 2 * np.pi * np.fft.fftfreq(1024, d=40.0 / 1024)[:, None]
    tracemalloc.start()
    try:
        psi = levy.symbol_array(measure, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(psi))
    assert peak <= 64 * 2 ** 20
