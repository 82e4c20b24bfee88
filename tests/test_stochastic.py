"""Stable-process Monte Carlo: increment laws against transform oracles,
reproducibility, path ensembles, the probabilistic solution formula, and
the occupation-time estimator."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from levylab import heatkernel, levy, stochastic
from levylab.errors import (DomainExitWarning, DriftEvaluationFailure,
                            InvalidArgument, UnsupportedMeasure)
from levylab.fieldgrid import Grid, GridField, SpaceTimeField


def _philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def _iso1d(mass=2.0 / np.pi, alpha=1.0):
    return levy.StableSpectral(alpha,
                               levy.SphericalMeasure.isotropic(1, mass))


# ---------------------------------------------------------------------------
# increment laws against transform oracles
# ---------------------------------------------------------------------------

def test_cauchy_increment_char_function():
    # isotropic alpha=1 mass 2/pi: X_dt ~ Cauchy(scale dt); check the
    # characteristic function E cos(xi X) = e^{-dt |xi|}
    rng = _philox(7)
    sig = levy.SphericalMeasure.isotropic(1, 2.0 / np.pi)
    n = 200_000
    dt = 0.3
    x = stochastic.sample_stable_increment(sig, 1.0, dt, rng, size=n)[:, 0]
    for xi in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.cos(xi * x)))
        assert emp == pytest.approx(np.exp(-dt * xi),
                                    abs=4.0 / np.sqrt(n))


def test_atom_pair_increment_char_function():
    # one symmetric atom pair, alpha = 1.4: E e^{i xi X} = e^{-dt psi(xi)}
    alpha, w, dt = 1.4, 0.6, 0.25
    sig = levy.SphericalMeasure.discrete([((1.0,), w), ((-1.0,), w)])
    m = levy.StableSpectral(alpha, sig)
    rng = _philox(13)
    n = 200_000
    x = stochastic.sample_stable_increment(sig, alpha, dt, rng, size=n)[:, 0]
    for xi in (0.5, 1.5):
        psi = levy.symbol(m, np.array([xi])).real
        emp = float(np.mean(np.cos(xi * x)))
        assert emp == pytest.approx(np.exp(-dt * psi), abs=4.0 / np.sqrt(n))


def test_isotropic_2d_char_function():
    sig = levy.SphericalMeasure.isotropic(2, 1.0)
    m = levy.StableSpectral(1.0, sig)
    rng = _philox(21)
    n = 200_000
    x = stochastic.sample_stable_increment(sig, 1.0, 0.5, rng, size=n)
    xi = np.array([0.8, -0.6])
    psi = levy.symbol(m, xi).real
    emp = float(np.mean(np.cos(x @ xi)))
    assert emp == pytest.approx(np.exp(-0.5 * psi), abs=4.0 / np.sqrt(n))


def test_cauchy_law_kolmogorov_smirnov():
    rng = _philox([99, 5])
    sig = levy.SphericalMeasure.isotropic(1, 2.0 / np.pi)
    t = 0.7
    x = stochastic.sample_stable_increment(sig, 1.0, t, rng, size=50_000)
    stat = stats.kstest(x[:, 0], stats.cauchy(scale=t).cdf).statistic
    assert stat < 0.01


def test_asymmetric_measure_rejected():
    sig = levy.SphericalMeasure.discrete([((1.0,), 0.8), ((-1.0,), 0.2)])
    rng = _philox(0)
    with pytest.raises(UnsupportedMeasure):
        stochastic.sample_stable_increment(sig, 0.8, 0.1, rng)


def test_duplicate_atoms_sample_as_the_pooled_measure():
    dup = levy.SphericalMeasure.discrete(
        [((1.0,), 0.5), ((1.0,), 0.5), ((-1.0,), 1.0)])
    pooled = levy.SphericalMeasure.discrete([((1.0,), 1.0), ((-1.0,), 1.0)])
    a = stochastic.sample_stable_increment(dup, 1.2, 0.3, _philox(6), size=64)
    b = stochastic.sample_stable_increment(pooled, 1.2, 0.3, _philox(6),
                                           size=64)
    np.testing.assert_array_equal(a, b)


_E1, _E2 = (1.0, 0.0), (0.0, 1.0)
_M1, _M2 = (-1.0, 0.0), (0.0, -1.0)
_U, _MU = (0.6, 0.8), (-0.6, -0.8)


@pytest.mark.parametrize("atoms, symmetric", [
    ([(_M1, 0.4), (_E2, 0.7), (_E1, 0.4), (_M2, 0.7)], True),   # shuffled
    ([(_E1, 0.2), (_U, 0.5), (_M1, 0.2), (_E1, 0.3), (_MU, 0.5),
      (_M1, 0.3)], True),                                         # duplicated
    ([(_E1, 0.2), (_E1, 0.2), (_M1, 0.4)], True),                 # pooled
    ([(_U, 0.5), (_MU, 0.5 * (1 + 1e-13))], True),                # perturbed
    ([(_U, 0.5), (_MU, 0.5 * (1 + 1e-9))], False),
    ([(_E1, 0.4), (_E2, 0.7), (_M1, 0.4)], False),                # unpaired
    ([(_U, 0.5), (_MU, 0.5), (_E1, 0.1)], False),
    ([(_E1, 0.2), (_E1, 0.2), (_M1, 0.2)], False),
], ids=["shuffled", "duplicated", "pooled", "perturbed-1e-13",
        "perturbed-1e-9", "unpaired", "odd-atom", "duplicate-unpaired"])
def test_sampler_accepts_exactly_the_symmetric_atom_sets(atoms, symmetric):
    sigma = levy.SphericalMeasure.discrete(atoms)
    assert sigma.is_symmetric is symmetric
    if symmetric:
        x = stochastic.sample_stable_increment(sigma, 0.9, 0.1, _philox(2),
                                               size=8)
        assert x.shape == (8, 2) and np.all(np.isfinite(x))
    else:
        with pytest.raises(UnsupportedMeasure):
            stochastic.sample_stable_increment(sigma, 0.9, 0.1, _philox(2))


def _stacked_normals(u, d):
    """Box-Muller on every pair of uniforms, stacked, then cut to d."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    theta = 2.0 * np.pi * u[..., 1::2]
    z = np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1)
    return z.reshape(u.shape)[..., :d]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_isotropic_increments_match_stacked_box_muller(dim, monkeypatch):
    # the sampler computes only the d normals it returns; the increments
    # drawn from one stream stay equal, bit for bit
    sig = levy.SphericalMeasure.isotropic(dim, 1.7)
    got = stochastic.sample_stable_increment(sig, 1.3, 0.25, _philox(11),
                                             size=(512, 16))
    monkeypatch.setattr(stochastic, "_normals", _stacked_normals)
    want = stochastic.sample_stable_increment(sig, 1.3, 0.25, _philox(11),
                                              size=(512, 16))
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_ensemble_bit_exact_reproducibility():
    m = _iso1d()
    tg = np.linspace(0.0, 1.0, 17)
    a = stochastic.sample_ensemble(None, m, [0.0], tg, 50, seed=42)
    b = stochastic.sample_ensemble(None, m, [0.0], tg, 50, seed=42)
    np.testing.assert_array_equal(a.states, b.states)


def test_paths_are_stable_under_ensemble_growth():
    # counter-based streams: path i is the same regardless of n_paths
    m = _iso1d()
    tg = np.linspace(0.0, 1.0, 9)
    small = stochastic.sample_ensemble(None, m, [0.0], tg, 10, seed=3)
    large = stochastic.sample_ensemble(None, m, [0.0], tg, 40, seed=3)
    np.testing.assert_array_equal(small.states, large.states[:10])


def test_single_path_ensemble_shape_and_start():
    m = _iso1d()
    tg = np.linspace(0.0, 0.5, 11)
    ens = stochastic.sample_ensemble(lambda t, x: -x, m, [2.0], tg,
                                     n_paths=1, seed=1)
    assert ens.states.shape == (1, 11, 1)
    assert ens.states[0, 0, 0] == 2.0


def test_ensemble_is_one_blocked_draw_from_one_stream():
    # the blocks read the stream in order, so the ensemble equals one draw
    # of every increment at once, and path i does not depend on n_paths
    m = _iso1d()
    tg = np.linspace(0.0, 0.5, 5)
    n_paths = stochastic.PATH_BLOCK + 3
    ens = stochastic.sample_ensemble(None, m, [1.0], tg, n_paths, seed=11)
    incs = stochastic.sample_stable_increment(
        m.sigma, m.alpha, np.diff(tg), _philox(11), size=(n_paths, 4))
    np.testing.assert_array_equal(ens.states[:, 1:],
                                  1.0 + np.cumsum(incs, axis=1))
    small = stochastic.sample_ensemble(None, m, [1.0], tg, 10, seed=11)
    np.testing.assert_array_equal(small.states, ens.states[:10])


@pytest.mark.parametrize("sigma", [
    levy.SphericalMeasure.isotropic(3, 1.0),
    levy.SphericalMeasure.discrete([((1.0, 0.0), 0.4), ((-1.0, 0.0), 0.4),
                                    ((0.0, 1.0), 0.7), ((0.0, -1.0), 0.7)]),
], ids=["isotropic-3d", "atoms-2d"])
def test_nonuniform_steps_scale_the_unit_time_draw(sigma):
    # self-similarity: the time-dt_k increment is dt_k^{1/alpha} times the
    # unit-time increment read from the same uniforms
    alpha = 1.3
    tg = np.array([0.0, 0.1, 0.15, 0.4, 0.45, 1.0])
    dts = np.diff(tg)
    unit = stochastic.sample_stable_increment(sigma, alpha, 1.0, _philox(4),
                                              size=(6, dts.size))
    incs = stochastic.sample_stable_increment(sigma, alpha, dts, _philox(4),
                                              size=(6, dts.size))
    np.testing.assert_array_equal(incs, dts[:, None] ** (1 / alpha) * unit)
    x0 = np.zeros(sigma.dim)
    ens = stochastic.sample_ensemble(None, levy.StableSpectral(alpha, sigma),
                                     x0, tg, 6, seed=4)
    np.testing.assert_array_equal(ens.states[:, 1:], x0 + np.cumsum(incs,
                                                                    axis=1))


def test_ensemble_peak_memory_is_bounded():
    # blocks of PATH_BLOCK paths keep the uniforms (4 per increment here)
    # from being held for the whole ensemble at once
    tg = np.linspace(0.0, 0.5, 65)
    tracemalloc.start()
    try:
        stochastic.sample_ensemble(None, _iso1d(), [0.0], tg, 30_000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20


def test_ensemble_builds_one_bit_generator(monkeypatch):
    # one keyed stream per ensemble, never one per path
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    tg = np.linspace(0.0, 0.5, 5)
    stochastic.sample_ensemble(None, _iso1d(), [0.0], tg, 5000, seed=6)
    assert len(built) == 1


def test_drift_failure_reports_location():
    m = _iso1d()
    tg = np.linspace(0.0, 0.5, 6)
    bad = lambda t, x: np.full_like(np.atleast_2d(x), np.nan)
    with pytest.raises(DriftEvaluationFailure) as exc:
        stochastic.sample_ensemble(bad, m, [0.0], tg, 4, seed=0)
    assert exc.value.t is not None


def test_nonincreasing_time_grid_rejected():
    m = _iso1d()
    with pytest.raises(InvalidArgument):
        stochastic.sample_ensemble(None, m, [0.0], [0.0, 0.5, 0.5], 4, 0)


# ---------------------------------------------------------------------------
# probabilistic solution formula
# ---------------------------------------------------------------------------

def _terminal_setup():
    g = Grid(1, 1024, 120.0)
    x = g.coordinates()[..., 0]
    phi = GridField(g, np.exp(-0.5 * (x - 60.0) ** 2)[None])
    return g, phi


def test_feynman_kac_matches_semigroup():
    g, phi = _terminal_setup()
    m = _iso1d()
    t = 0.6
    exact = heatkernel.semigroup_apply(m, t, phi)
    probe_idx = 512
    x0 = probe_idx * g.spacing
    est, se = stochastic.feynman_kac(phi, None, None, m, t, [x0],
                                     n_paths=40_000, rng_seed=5, n_steps=4)
    assert abs(est - exact.values[0, probe_idx]) < max(4 * se, 5e-3)


def test_feynman_kac_matches_semigroup_for_axes_measure_2d():
    # the singular direct sum along the axes: Monte Carlo over its atom
    # pairs against the spectral semigroup e^{-t psi}
    g = Grid(2, 256, 32.0)
    x = g.coordinates()
    phi = GridField(g, np.exp(-0.5 * np.sum((x - 16.0) ** 2, axis=-1))[None])
    m = levy.DirectSumAxes(1.5, (0.5, 0.8))
    t = 0.25
    exact = heatkernel.semigroup_apply(m, t, phi).values[0, 128, 132]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DomainExitWarning)
        est, se = stochastic.feynman_kac(phi, None, None, m, t,
                                         [128 * g.spacing, 132 * g.spacing],
                                         n_paths=20_000, rng_seed=21,
                                         n_steps=4)
    assert abs(est - exact) < 4 * se


def test_feynman_kac_damping_factor():
    # with f = 0 the lam-damped estimate is exactly e^{-lam t} times the
    # undamped one for the same seed
    g, phi = _terminal_setup()
    m = _iso1d()
    t, lam = 0.4, 1.3
    est0, _ = stochastic.feynman_kac(phi, None, None, m, t, [60.0],
                                     n_paths=2000, rng_seed=8, n_steps=8)
    est1, _ = stochastic.feynman_kac(phi, None, None, m, t, [60.0],
                                     n_paths=2000, rng_seed=8, lam=lam,
                                     n_steps=8)
    assert est1 == pytest.approx(np.exp(-lam * t) * est0, rel=1e-12)


def test_feynman_kac_standard_error_decay():
    g, phi = _terminal_setup()
    m = _iso1d()
    _, se1 = stochastic.feynman_kac(phi, None, None, m, 0.5, [60.0],
                                    n_paths=2000, rng_seed=12, n_steps=4)
    _, se2 = stochastic.feynman_kac(phi, None, None, m, 0.5, [60.0],
                                    n_paths=32_000, rng_seed=12, n_steps=4)
    assert se2 == pytest.approx(se1 / 4.0, rel=0.3)


def test_domain_exit_warning():
    g = Grid(1, 64, 4.0)          # tiny torus: heavy-tailed paths escape
    x = g.coordinates()[..., 0]
    phi = GridField(g, np.exp(-(x - 2.0) ** 2)[None])
    m = _iso1d()
    with pytest.warns(DomainExitWarning):
        stochastic.feynman_kac(phi, None, None, m, 1.0, [2.0],
                               n_paths=500, rng_seed=1, n_steps=8)


def test_exit_fraction_zero_for_frozen_paths():
    tg = np.linspace(0.0, 1.0, 5)
    states = np.zeros((3, 5, 1))
    ens = stochastic.PathEnsemble(3, tg, states, 0)
    assert stochastic.exit_fraction(ens, [0.0], 10.0) == 0.0


# ---------------------------------------------------------------------------
# occupation-time functional
# ---------------------------------------------------------------------------

def _constant_forcing(value=1.0, T=0.5, n_frames=9):
    g = Grid(1, 256, 40.0)
    frames = tuple(GridField(g, np.full((1, 256), value))
                   for _ in range(n_frames))
    return SpaceTimeField(T / (n_frames - 1), frames)


def test_krylov_constant_forcing_is_exact():
    # f == c: the occupation functional is c*T for every path
    f = _constant_forcing(value=2.0, T=0.5)
    m = _iso1d()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainExitWarning)
        lhs, fnorm = stochastic.krylov_check(None, m, f, 3.0, 200, 1,
                                             x0=[20.0], n_steps=16)
    assert lhs == pytest.approx(2.0 * 0.5, rel=1e-12)
    # left-endpoint norm of a constant: (c^p L T)^{1/p}
    assert fnorm == pytest.approx((2.0 ** 3 * 40.0 * 0.5) ** (1 / 3.0),
                                  rel=1e-12)


def test_krylov_requires_supercritical_p():
    f = _constant_forcing()
    with pytest.raises(InvalidArgument):
        stochastic.krylov_check(None, _iso1d(), f, 2.0, 10, 0)


def test_krylov_rejects_negative_forcing():
    f = _constant_forcing(value=-1.0)
    with pytest.raises(InvalidArgument):
        stochastic.krylov_check(None, _iso1d(), f, 3.0, 10, 0)
