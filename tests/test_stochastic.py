"""Stable-process Monte Carlo: increment laws against transform oracles,
reproducibility, path ensembles, the probabilistic solution formula, and
the occupation-time estimator."""

import math
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


def test_cauchy_atom_pair_law_kolmogorov_smirnov():
    # the atom-pair branch at alpha = 1, where the CMS transform is tan: a
    # +/-1 pair of weight 1/pi each has the Cauchy law of scale t
    sig = levy.SphericalMeasure.discrete([((1.0,), 1 / np.pi),
                                          ((-1.0,), 1 / np.pi)])
    t = 0.7
    x = stochastic.sample_stable_increment(sig, 1.0, t, _philox([99, 6]),
                                           size=50_000)
    assert stats.kstest(x[:, 0], stats.cauchy(scale=t).cdf).statistic < 0.01


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


def test_kanter_closed_form_at_one_half_matches_the_general_formula():
    # at alpha/2 = 1/2 the sampler evaluates 1/(4 cos^2(pi U/2) E); the
    # general Kanter formula, written out here, must agree to rounding
    rng = _philox(17)
    u, w = rng.random(10 ** 6), rng.random(10 ** 6)
    a, v = 0.5, np.pi * u
    general = (np.sin(a * v) / np.sin(v) ** (1.0 / a)
               * (np.sin((1.0 - a) * v) / -np.log1p(-w)) ** ((1.0 - a) / a))
    got = stochastic._positive_stable(0.5, u, w)
    assert np.max(np.abs(got - general) / general) <= 1e-14


@pytest.mark.parametrize("sampler,alpha", [
    (stochastic._positive_stable, 0.5),
    (stochastic._positive_stable, 0.7),
    (stochastic._cms_symmetric, 0.7),
], ids=["kanter-0.5", "kanter-0.7", "cms-0.7"])
def test_zero_uniform_gives_a_finite_variable(sampler, alpha):
    # Generator.random returns W = 0 with probability 2^-53; its exponential
    # is floored at that of W = 2^-53, so both give the same finite value,
    # and W = 0.5 keeps the unfloored -log1p(-W)
    u = np.full(3, 0.3)
    w = np.array([0.0, 2.0 ** -53, 0.5])
    got = sampler(alpha, u, w)
    assert np.all(np.isfinite(got))
    assert got[0] == got[1]
    e = -np.log1p(-0.5)
    if sampler is stochastic._cms_symmetric:
        v = np.pi * (0.3 - 0.5)
        want = (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
                * (np.cos((1.0 - alpha) * v) / e) ** ((1.0 - alpha) / alpha))
    elif alpha == 0.5:
        want = 0.25 / (np.cos(np.pi / 2.0 * 0.3) ** 2 * e)
    else:
        v = np.pi * 0.3
        want = (np.sin(alpha * v) / np.sin(v) ** (1.0 / alpha)
                * (np.sin((1.0 - alpha) * v) / e) ** ((1.0 - alpha) / alpha))
    assert got[2] == want


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
    n_paths = stochastic._block_paths(4) + 3
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


def test_ensemble_peak_memory_is_bounded(traced_peak):
    # blocks of paths keep the uniforms (4 per increment here)
    # from being held for the whole ensemble at once
    tg = np.linspace(0.0, 0.5, 65)
    _, peak = traced_peak(stochastic.sample_ensemble, None, _iso1d(), [0.0],
                          tg, 30_000, seed=2)
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


def test_pairing_is_derived_once_per_estimate(monkeypatch):
    # the atom pairs and their scales are derived once per ensemble, not
    # once per block of paths
    pairs = levy.antipodal_pairs
    calls = []

    def counted(*args):
        calls.append(1)
        return pairs(*args)

    monkeypatch.setattr(levy, "antipodal_pairs", counted)
    m = levy.DirectSumAxes(1.2, [0.6, 0.9])
    g = Grid(2, 16, 8.0)
    phi = GridField(g, np.ones((1,) + g.shape))
    n_paths = 3 * stochastic._block_paths(8) + 5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainExitWarning)
        stochastic.feynman_kac(phi, None, None, m, 0.5, [4.0, 4.0], n_paths,
                               rng_seed=3, n_steps=8)
    assert len(calls) == 1


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
# the streamed estimators against the whole-ensemble formulas
# ---------------------------------------------------------------------------

def _oracle_feynman_kac(phi, f, b, measure, t, x, n_paths, seed, lam,
                        n_steps):
    """feynman_kac's estimate, standard error and exit fraction from the
    whole ensemble at once."""
    tg = np.linspace(0.0, t, n_steps + 1)
    drift = None if b is None else (lambda s, y: np.asarray(b(t - s, y)))
    ens = stochastic.sample_ensemble(drift, measure, x, tg, n_paths, seed)
    frac = stochastic.exit_fraction(ens, x, phi.grid.side_length)
    wrapped = np.mod(ens.states, phi.grid.side_length)
    per_path = math.exp(-lam * t) * stochastic._interp_field(
        phi, wrapped[:, -1, :])
    dt = t / n_steps
    for k in range(n_steps):
        frame = f.frames[stochastic._frame_index(f, t - tg[k])]
        per_path = per_path + (math.exp(-lam * tg[k]) * dt
                               * stochastic._interp_field(frame,
                                                          wrapped[:, k, :]))
    return (float(np.mean(per_path)),
            float(np.std(per_path, ddof=1) / math.sqrt(n_paths)), frac)


def _oracle_krylov(b, measure, f, x0, n_paths, seed, n_steps):
    T = f.time_step * (len(f.frames) - 1)
    tg = np.linspace(0.0, T, n_steps + 1)
    ens = stochastic.sample_ensemble(b, measure, x0, tg, n_paths, seed)
    wrapped = np.mod(ens.states, f.grid.side_length)
    per_path = np.zeros(n_paths)
    for k in range(n_steps):
        per_path += T / n_steps * stochastic._interp_field(
            f.frames[stochastic._frame_index(f, tg[k])], wrapped[:, k, :])
    return float(np.mean(per_path))


def _streaming_case(dim):
    """A measure, terminal value, positive forcing and start point in a box
    of side 8 that a few percent of the paths leave by t = 0.5."""
    g = Grid(dim, 256 if dim == 1 else 32, 8.0)
    x = g.coordinates()
    r2 = np.sum((x - 4.0) ** 2, axis=-1)
    phi = GridField(g, np.exp(-r2)[None])
    frames = tuple(GridField(g, (1.0 + k / 8 + np.cos(x[..., 0]) ** 2)[None])
                   for k in range(9))
    if dim == 1:
        measure = _iso1d()
    else:
        measure = levy.StableSpectral(1.5, levy.SphericalMeasure.discrete(
            [((1.0, 0.0), 0.4), ((-1.0, 0.0), 0.4),
             ((0.6, 0.8), 0.3), ((-0.6, -0.8), 0.3)]))
    return measure, phi, SpaceTimeField(0.5 / 8, frames), np.full(dim, 3.5)


@pytest.mark.parametrize("dim", [1, 2], ids=["isotropic-1d", "atoms-2d"])
@pytest.mark.parametrize("drifted", [False, True], ids=["b=0", "b(t,x)"])
def test_streamed_estimators_equal_the_whole_ensemble_formulas(dim, drifted):
    # 5000 paths end in a partial block; every value must be bit-identical
    measure, phi, f, x0 = _streaming_case(dim)
    b = (lambda t, y: 0.4 * np.sin(y[:, ::-1]) * (1.0 + t)) if drifted \
        else None
    n_paths = 5000
    assert n_paths % stochastic._block_paths(8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainExitWarning)
        got = stochastic._feynman_kac(phi, f, b, measure, 0.5, x0, n_paths,
                                      31, 0.7, 8)
        want = _oracle_feynman_kac(phi, f, b, measure, 0.5, x0, n_paths, 31,
                                   0.7, 8)
        lhs, _ = stochastic.krylov_check(b, measure, f, dim + 2.0, n_paths,
                                         32, x0=x0, n_steps=8)
        lhs_want = _oracle_krylov(b, measure, f, x0, n_paths, 32, 8)
    assert 0.0 < got[2] < 1.0
    assert got == want
    assert lhs == lhs_want


@pytest.mark.parametrize("n_steps", [0, 1, 3, 4, 7, 64, 100, 10 ** 5])
def test_blocks_are_whole_philox_counters_within_the_step_budget(n_steps):
    # block b starts at uniform b m n_steps k; Philox hands out four 64-bit
    # words per counter, so with m a multiple of 4 a block may start from
    # an advanced copy of the stream
    m = stochastic._block_paths(n_steps)
    assert m % 4 == 0 and m >= 4
    assert m == 4 or m * n_steps <= stochastic.PATH_STEP_BLOCK


@pytest.mark.parametrize("dim", [1, 2], ids=["isotropic-1d", "atoms-2d"])
@pytest.mark.parametrize("drifted", [False, True], ids=["b=0", "b(t,x)"])
def test_outputs_do_not_depend_on_the_path_block(dim, drifted, monkeypatch):
    # the stream is path-major, so the block size only regroups the draws;
    # at 8 steps the budgets give blocks of 4, 512 and 2048 paths
    measure, phi, f, x0 = _streaming_case(dim)
    b = (lambda t, y: 0.4 * np.sin(y[:, ::-1]) * (1.0 + t)) if drifted \
        else None
    tg = np.linspace(0.0, 0.5, 9)
    results = []
    for budget, block in ((32, 4), (4096, 512), (16384, 2048)):
        monkeypatch.setattr(stochastic, "PATH_STEP_BLOCK", budget)
        assert stochastic._block_paths(8) == block
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainExitWarning)
            results.append((
                stochastic.sample_ensemble(b, measure, x0, tg, 2100,
                                           seed=9).states,
                stochastic._feynman_kac(phi, f, b, measure, 0.5, x0, 2100,
                                        31, 0.7, 8),
                stochastic.krylov_check(b, measure, f, dim + 2.0, 2100, 32,
                                        x0=x0, n_steps=8)))
    for states, fk, kr in results[1:]:
        assert np.array_equal(states, results[0][0])
        assert fk == results[0][1] and kr == results[0][2]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_block_interpolation_equals_the_per_step_interpolation(dim):
    # the time integral finds the corners of all steps at once; it must add
    # exactly what interpolating np.mod-wrapped states step by step adds,
    # for paths inside the box, far outside it and on its edges; the
    # spacing 7/16 is not a power of two, so x / h rounds differently
    # for x and x mod L
    g = Grid(dim, 16, 7.0)
    rng = _philox(23)
    frames = [rng.standard_normal(g.shape) for _ in range(3)]
    states = rng.uniform(-20.0, 28.0, size=(40, 4, dim))
    states[0, :3] = 0.0
    states[1, :3] = -0.0
    states[2, :3] = 7.0
    states[3, :3] = -1e-300
    states[4, :3] = np.nextafter(7.0, 0.0)
    weights = np.array([0.3, 0.25, 0.7])
    v0 = rng.standard_normal(40)
    got = stochastic._time_integral(v0.copy(), g, [fr.ravel() for fr in frames],
                                    weights, states)
    want = v0.copy()
    for k, fr in enumerate(frames):
        field = GridField(g, fr[None])
        want += weights[k] * stochastic._interp_field(
            field, np.mod(states[:, k], g.side_length))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_wrap_is_np_mod_bit_for_bit():
    x = np.array([0.0, -0.0, 8.0, -8.0, 16.0, -1e-300, 1e-300, 7.999999,
                  np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), 3.5, -3.5,
                  1e17, -1e17])
    got = stochastic._wrap(x.copy(), 8.0)
    assert np.array_equal(got.view(np.int64), np.mod(x, 8.0).view(np.int64))


def test_estimator_peak_memory_is_bounded(traced_peak):
    # one block of paths at a time: the whole (30000, 65, 1) ensemble took
    # three arrays of 15 MiB
    m = _iso1d()
    f = _constant_forcing(T=0.5, n_frames=65)
    phi = f.frames[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainExitWarning)
        _, peak_kr = traced_peak(stochastic.krylov_check, None, m, f, 3.0,
                                 30_000, 2, x0=[20.0], n_steps=64)
        _, peak_fk = traced_peak(stochastic.feynman_kac, phi, None, None, m,
                                 0.5, [20.0], 30_000, 2, n_steps=64)
    assert peak_kr <= 16 * 2 ** 20
    assert peak_fk <= 16 * 2 ** 20


@pytest.mark.parametrize("n_paths", [0, 1])
def test_feynman_kac_needs_two_paths(n_paths):
    _, phi = _terminal_setup()
    with pytest.raises(InvalidArgument, match="at least 2 paths"):
        stochastic.feynman_kac(phi, None, None, _iso1d(), 0.5, [60.0],
                               n_paths, 0)


def test_krylov_needs_a_path():
    with pytest.raises(InvalidArgument, match="n_paths"):
        stochastic.krylov_check(None, _iso1d(), _constant_forcing(), 3.0, 0, 0)


def test_feynman_kac_needs_a_finite_time():
    # t = inf made a time grid of nans
    _, phi = _terminal_setup()
    with pytest.raises(InvalidArgument, match="finite"):
        stochastic.feynman_kac(phi, None, None, _iso1d(), np.inf, [60.0], 10,
                               0)


@pytest.mark.parametrize("n_steps", [0, -1])
def test_estimators_need_a_time_step(n_steps):
    # 0 divided by zero and -1 indexed an empty time grid
    _, phi = _terminal_setup()
    with pytest.raises(InvalidArgument, match="n_steps"):
        stochastic.feynman_kac(phi, None, None, _iso1d(), 0.5, [60.0], 10, 0,
                               n_steps=n_steps)
    with pytest.raises(InvalidArgument, match="n_steps"):
        stochastic.krylov_check(None, _iso1d(), _constant_forcing(), 3.0, 10,
                                0, n_steps=n_steps)


def test_start_point_must_match_the_grid():
    g, phi = _terminal_setup()
    m = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(2, 1.0))
    with pytest.raises(InvalidArgument):
        stochastic.feynman_kac(phi, None, None, m, 0.5, [60.0, 60.0], 10, 0)


def test_measure_must_match_the_start_point():
    # a 1-d grid and start point with a measure in R^2 crashed inside numpy
    g, phi = _terminal_setup()
    m = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(2, 1.0))
    f = SpaceTimeField(0.25, (GridField(g, np.ones((1,) + g.shape)),) * 3)
    with pytest.raises(InvalidArgument, match="R\\^2"):
        stochastic.feynman_kac(phi, None, None, m, 0.5, [1.0], 10, 0)
    with pytest.raises(InvalidArgument, match="R\\^2"):
        stochastic.krylov_check(None, m, f, 3.0, 10, 0)
    with pytest.raises(InvalidArgument, match="R\\^2"):
        stochastic.sample_ensemble(None, m, [1.0], [0.0, 0.5], 4, 0)


def test_estimators_need_scalar_data():
    # a 2-component phi or f was read as its component 0
    g, phi = _terminal_setup()
    two = GridField(g, np.concatenate([phi.values, phi.values]))
    f = SpaceTimeField(0.25, (two,) * 3)
    with pytest.raises(InvalidArgument, match="scalar"):
        stochastic.feynman_kac(two, None, None, _iso1d(), 0.5, [60.0], 10, 0)
    with pytest.raises(InvalidArgument, match="scalar"):
        stochastic.feynman_kac(phi, f, None, _iso1d(), 0.5, [60.0], 10, 0)
    with pytest.raises(InvalidArgument, match="scalar"):
        stochastic.krylov_check(None, _iso1d(), f, 3.0, 10, 0)


# ---------------------------------------------------------------------------
# occupation-time functional
# ---------------------------------------------------------------------------

def _constant_forcing(value=1.0, T=0.5, n_frames=9):
    g = Grid(1, 256, 40.0)
    frames = tuple(GridField(g, np.full((1, 256), value))
                   for _ in range(n_frames))
    return SpaceTimeField(T / (n_frames - 1), frames)


@pytest.mark.parametrize("grid,horizon,match", [
    (Grid(1, 64, 10.0), 0.2, "ends at"),        # 0.2 < t: last frame repeated
    (Grid(1, 64, 12.0), 0.8, "lives on"),       # read at positions mod 10
    (Grid(1, 32, 10.0), 0.8, "lives on"),
], ids=["short", "other-box", "other-points"])
def test_feynman_kac_rejects_a_short_or_foreign_forcing(grid, horizon, match):
    g = Grid(1, 64, 10.0)
    phi = GridField(g, np.ones((1, 64)))
    f = SpaceTimeField(0.1, tuple(GridField(grid, np.ones((1,) + grid.shape))
                                  for _ in range(round(horizon / 0.1) + 1)))
    with pytest.raises(InvalidArgument, match=match):
        stochastic.feynman_kac(phi, f, None, _iso1d(), 0.8, [5.0], 100, 0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_feynman_kac_rejects_a_lambda_that_is_not_finite(lam):
    g = Grid(1, 64, 10.0)
    phi = GridField(g, np.ones((1, 64)))
    with pytest.raises(InvalidArgument, match="lam"):
        stochastic.feynman_kac(phi, None, None, _iso1d(), 0.8, [5.0], 100, 0,
                               lam=lam)


def test_feynman_kac_accepts_a_forcing_of_horizon_t_to_rounding():
    g = Grid(1, 64, 200.0)
    phi = GridField(g, np.zeros((1, 64)))
    f = SpaceTimeField(0.1, tuple(GridField(g, np.ones((1, 64)))
                                  for _ in range(9)))
    est, _ = stochastic.feynman_kac(phi, f, None, _iso1d(), 0.8 * (1 + 1e-12),
                                    [100.0], 100, 0)
    assert est == pytest.approx(0.8, rel=1e-9)


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
