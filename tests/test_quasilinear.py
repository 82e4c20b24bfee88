"""Quasi-linear critical solvers: the ETD2 march with a fixed point per
step, Burgers structure in d = 1 and d = 3, and the gradient-augmented
Hamilton-Jacobi route."""

import numpy as np
import pytest

from levylab import levy, quasilinear
from levylab.errors import (InvalidArgument, IterationFailure,
                            PreconditionFailure)
from levylab.fieldgrid import (Grid, GridField, forward, gradient, inverse,
                               lp_norm, spectral_l2)
from levylab.linear_solver import (LinearProblem, SolverConfig, advection,
                                   drift_solve, etd2_march)
from levylab.heatkernel import DriftSchedule
from levylab.quasilinear import (HAMILTONIANS, QuasilinearProblem,
                                 burgers_solve, hamilton_jacobi_solve,
                                 picard_solve)


def _iso1d(mass=2.0 / np.pi):
    return levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(1, mass))


G = Grid(1, 128, 2 * np.pi)
X = G.coordinates()[..., 0]


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_requires_critical_index():
    phi = GridField(G, np.sin(X)[None])
    m = levy.StableSpectral(1.5, levy.SphericalMeasure.isotropic(1, 1.0))
    with pytest.raises(InvalidArgument):
        QuasilinearProblem(m, 1, None, None, phi, 0.5)


def test_horizon_restricted_to_unit_interval():
    phi = GridField(G, np.sin(X)[None])
    with pytest.raises(InvalidArgument):
        QuasilinearProblem(_iso1d(), 1, None, None, phi, 1.5)
    with pytest.raises(InvalidArgument):
        QuasilinearProblem(_iso1d(), 1, None, None, phi, 0.0)


def test_component_count_must_match():
    phi = GridField(G, np.sin(X)[None])
    with pytest.raises(InvalidArgument):
        QuasilinearProblem(_iso1d(), 2, None, None, phi, 0.5)


def test_quasilinear_solvers_do_not_mollify():
    phi = GridField(G, np.sin(X)[None])
    config = SolverConfig(time_step=0.125, mollifier_width=0.3)
    with pytest.raises(InvalidArgument, match="mollifier_width"):
        picard_solve(QuasilinearProblem(_iso1d(), 1, None, None, phi, 0.5),
                     config)
    with pytest.raises(InvalidArgument, match="mollifier_width"):
        burgers_solve(phi, _iso1d(), 0.5, config)


def test_degenerate_measure_is_a_precondition_failure():
    # the single atom (1, 0) in d = 2 has no diffusion along x_2
    g = Grid(2, 16, 2 * np.pi)
    atom = levy.StableSpectral(1.0, levy.SphericalMeasure.discrete(
        [((1.0, 0.0), 1.0)]))
    problem = QuasilinearProblem(atom, 1, None, None,
                                 GridField.zeros(g), 0.5)
    with pytest.raises(PreconditionFailure):
        picard_solve(problem, SolverConfig(time_step=1 / 64))


@pytest.mark.parametrize("dim,shape", [
    (1, (64,)), (1, (64, 1)), (1, (2, 64)), (2, (64, 64)),
], ids=["N", "N-1", "2-N", "N-N-in-2d"])
def test_drift_of_the_wrong_shape_is_rejected(dim, shape):
    # the advection sum b . grad u stops at the shorter of b and grad u, so
    # a drift not of shape (d, *grid) would be truncated
    g = Grid(dim, 64, 2 * np.pi)
    phi = GridField(g, np.sin(g.coordinates()[..., 0])[None])
    m = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(dim, 1.0))
    problem = QuasilinearProblem(m, 1, lambda t, x, u: np.full(shape, 0.5),
                                 None, phi, 0.25)
    with pytest.raises(InvalidArgument, match="drift has shape"):
        picard_solve(problem, SolverConfig(time_step=1 / 64))


@pytest.mark.parametrize("dim,m,shape", [
    (1, 2, (32,)), (1, 2, (1, 32)), (2, 1, (32, 32)),
], ids=["N", "1-N", "N-N-in-2d"])
def test_forcing_of_the_wrong_shape_is_rejected(dim, m, shape):
    # a forcing that only broadcasts to (m, *grid) would be added to every
    # component alike
    g = Grid(dim, 32, 2 * np.pi)
    phi = GridField(g, np.ones((m,) + g.shape))
    problem = QuasilinearProblem(
        levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(dim, 1.0)),
        m, None, lambda t, x, u: np.full(shape, 0.5), phi, 0.25)
    with pytest.raises(InvalidArgument, match="forcing has shape"):
        picard_solve(problem, SolverConfig(time_step=1 / 16))


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def test_picard_reduces_to_linear_solver():
    # u-independent coefficients: one Picard pass already solves the
    # linear problem, so the fixed point equals drift_solve
    phi = GridField(G, np.sin(X)[None])
    T = 0.25
    config = SolverConfig(time_step=T / 64)
    b_fn = lambda t, x, u: (0.4 * np.cos(x[..., 0]))[None]
    problem = QuasilinearProblem(_iso1d(), 1, b_fn, None, phi, T)
    picard = picard_solve(problem, config)

    lin_b = lambda t, x: (0.4 * np.cos(x[..., 0]))[..., None]
    lin = drift_solve(LinearProblem(_iso1d(), lin_b, 0.0, None, phi, T),
                      config)
    diff = max(lp_norm(GridField(G, a.values - b.values), 2)
               for a, b in zip(picard.frames, lin.frames))
    assert diff < 1e-9


G256 = Grid(1, 256, 2 * np.pi)
X256 = G256.coordinates()[..., 0]


def test_march_steps_satisfy_trapezoidal_etd2_relation():
    # u_{n+1} = e^{-z} u_n + dt (phi1 - phi2)(z) G(u_n) + dt phi2(z) G(u_{n+1})
    # with z = dt |k| and G(u) = -u u_x under the 2/3 rule, built here
    # from numpy's real FFT and checked on every returned step
    dt, tol = 1 / 256, 1e-10
    traj = burgers_solve(GridField(G256, np.sin(X256)[None]), _iso1d(), 0.5,
                         SolverConfig(time_step=dt, picard_tol=tol))
    n = G256.points_per_axis
    k = np.arange(n // 2 + 1, dtype=float)
    z = dt * k
    zs = np.where(z == 0, 1.0, z)
    phi1 = np.where(z == 0, 1.0, -np.expm1(-zs) / zs)
    phi2 = np.where(z == 0, 0.5, (np.expm1(-zs) + zs) / zs ** 2)
    keep = k <= n / 3
    ik = 1j * k
    ik[-1] = 0.0                 # the derivative's Nyquist mode is zero

    def g_hat(u):
        u_x = np.fft.irfft(ik * np.fft.rfft(u), n)
        return np.fft.rfft(-u * u_x) * keep

    worst = 0.0
    for a, b in zip(traj.frames, traj.frames[1:]):
        u0, u1 = a.values[0], b.values[0]
        rhs = (np.exp(-z) * np.fft.rfft(u0) + dt * (phi1 - phi2) * g_hat(u0)
               + dt * phi2 * g_hat(u1))
        defect = u1 - np.fft.irfft(rhs, n)
        worst = max(worst, float(np.sqrt(np.sum(defect ** 2)
                                         * G256.cell_volume)))
    assert len(traj.frames) == 129
    assert worst < tol


def test_march_evaluates_the_drift_a_few_times_per_step():
    # burgers_solve's problem with a drift that counts its calls: one per
    # evaluation of b . grad u, of which the whole-trajectory Picard
    # nesting made over 5000 on this run
    calls = [0]

    def drift(t, x, u):
        calls[0] += 1
        return -u

    phi = GridField(G256, np.sin(X256)[None])
    problem = QuasilinearProblem(_iso1d(), 1, drift, None, phi, 0.5)
    traj = picard_solve(problem, SolverConfig(time_step=1 / 256),
                        dealias=True)
    assert len(traj.frames) == 129
    assert calls[0] <= 5195 // 5


def test_march_evaluates_once_per_iteration_plus_the_initial_state():
    # a counting G = -u u_x called by etd2_march directly; a step's
    # iterations are the evaluations at frame n + 1 up to the first whose
    # argument lies within picard_tol of the next argument (or, for the
    # last one, of the accepted state), as the stopping rule says
    g = Grid(1, 64, 2 * np.pi)
    x = g.coordinates()[..., 0]
    calls = []

    def nonlinearity(n, u_hat):
        calls.append((n, u_hat.copy()))
        return advection(-inverse(g, u_hat), u_hat, g)

    config = SolverConfig(time_step=1 / 64)
    n_steps = 16
    traj = etd2_march(GridField(g, np.sin(x)[None]), _iso1d(), 0.0,
                      config.time_step, n_steps, nonlinearity, config,
                      dealias=True)
    iterations = 0
    for n in range(n_steps):
        args = [a for m, a in calls if m == n + 1]
        args.append(forward(traj.frames[n + 1]))
        k = next(j for j in range(len(args) - 1)
                 if spectral_l2(g, args[j + 1] - args[j]) < config.picard_tol)
        iterations += k + 1
    assert iterations > n_steps
    assert len(calls) == 1 + iterations


def _march_tolerance_gap(solve):
    # max over frames of the L2 distance between marches at picard_tol
    # 1e-10 and 1e-13
    coarse = solve(SolverConfig(time_step=1 / 128, picard_tol=1e-10))
    fine = solve(SolverConfig(time_step=1 / 128, picard_tol=1e-13))
    return max(lp_norm(GridField(a.grid, a.values - b.values), 2)
               for a, b in zip(coarse.frames, fine.frames))


def test_burgers_march_is_within_picard_tol_of_a_tighter_march():
    phi = GridField(G, (np.sin(X) + 0.3 * np.cos(2 * X))[None])
    gap = _march_tolerance_gap(
        lambda config: burgers_solve(phi, _iso1d(), 0.25, config))
    assert gap <= 1e-10


def test_hj_march_is_within_picard_tol_of_a_tighter_march():
    mass = 1.0 / (levy.radial_cosine_constant(1.0)
                  * levy.isotropic_projection_moment(2, 1.0))
    m2 = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(2, mass))
    g2 = Grid(2, 32, 2 * np.pi)
    x = g2.coordinates()
    phi = GridField(g2, (0.6 * np.cos(x[..., 0])
                         + 0.4 * np.sin(x[..., 1] + x[..., 0]))[None])
    gap = _march_tolerance_gap(
        lambda config: hamilton_jacobi_solve(HAMILTONIANS["quadratic"](),
                                             phi, m2, 0.25, config))
    assert gap <= 1e-10


def test_march_reports_the_residuals_of_the_failing_step():
    config = SolverConfig(time_step=1 / 256, max_iterations=1)
    with pytest.raises(IterationFailure, match="step 0 ") as info:
        burgers_solve(GridField(G256, np.sin(X256)[None]), _iso1d(), 0.5,
                      config)
    assert len(info.value.residuals) == 1
    assert info.value.residuals[0] >= config.picard_tol


# ---------------------------------------------------------------------------
# Burgers
# ---------------------------------------------------------------------------

def test_burgers_needs_matching_components():
    phi = GridField(G, np.stack([np.sin(X), np.cos(X)]))
    with pytest.raises(InvalidArgument):
        burgers_solve(phi, _iso1d(), 0.5, SolverConfig(time_step=1 / 64))


def test_burgers_constant_state_is_invariant():
    phi = GridField(G, np.full((1, 128), 0.8))
    traj = burgers_solve(phi, _iso1d(), 0.5, SolverConfig(time_step=1 / 64))
    np.testing.assert_allclose(traj.final().values, 0.8, atol=1e-10)


def test_burgers_maximum_principle_and_mass():
    phi = GridField(G, np.sin(X)[None])
    traj = burgers_solve(phi, _iso1d(), 0.5,
                         SolverConfig(time_step=1 / 128))
    sup0 = lp_norm(phi, np.inf)
    assert all(lp_norm(fr, np.inf) <= sup0 + 1e-6 for fr in traj.frames)
    masses = [float(np.sum(fr.values)) * G.cell_volume
              for fr in traj.frames]
    assert max(abs(mv - masses[0]) for mv in masses) < 1e-10


def test_burgers_dissipates_energy():
    phi = GridField(G, (np.sin(X) + 0.4 * np.cos(3 * X))[None])
    traj = burgers_solve(phi, _iso1d(), 0.5,
                         SolverConfig(time_step=1 / 128))
    energies = [lp_norm(fr, 2) for fr in traj.frames]
    assert all(a >= b - 1e-10 for a, b in zip(energies, energies[1:]))


# ---------------------------------------------------------------------------
# Hamilton-Jacobi
# ---------------------------------------------------------------------------

def test_hamiltonian_registry_contents():
    assert set(HAMILTONIANS) == {"quadratic", "anisotropic-quadratic",
                                 "smooth-bounded"}


def test_quadratic_hamiltonian_is_half_the_squared_norm():
    q = np.random.default_rng(0).standard_normal((2, 8, 8))
    H = HAMILTONIANS["quadratic"]()
    np.testing.assert_array_equal(H.value(0.0, None, q[0], q),
                                  0.5 * np.sum(q ** 2, axis=0))
    np.testing.assert_array_equal(H.dq(0.0, None, q[0], q), q)


def test_hj_requires_scalar_data():
    phi = GridField(G, np.stack([np.sin(X), np.cos(X)]))
    with pytest.raises(InvalidArgument):
        hamilton_jacobi_solve(HAMILTONIANS["quadratic"](), phi, _iso1d(),
                              0.5, SolverConfig(time_step=1 / 64))


def test_hj_gradient_matches_burgers():
    # for H = |q|^2/2 in d=1 the gradient q = du/dx solves critical
    # Burgers with initial data phi'
    phi = GridField(G, (np.cos(X) + 0.3 * np.sin(2 * X))[None])
    T = 0.25
    config = SolverConfig(time_step=T / 64)
    aug = hamilton_jacobi_solve(HAMILTONIANS["quadratic"](), phi, _iso1d(),
                                T, config, return_augmented=True)
    q_traj = burgers_solve(GridField(G, gradient(phi)[0]), _iso1d(), T,
                           config)
    diff = max(lp_norm(GridField(G, a.values[1:] - b.values), 2)
               for a, b in zip(aug.frames, q_traj.frames))
    assert diff < 1e-8


def test_hj_scalar_output_and_internal_consistency():
    phi = GridField(G, (0.5 * np.cos(X))[None])
    T = 0.25
    traj = hamilton_jacobi_solve(HAMILTONIANS["smooth-bounded"](), phi,
                                 _iso1d(), T,
                                 SolverConfig(time_step=T / 64))
    assert traj.final().components == 1
    # the gradient of the returned scalar agrees with a direct spectral
    # gradient at the final time (the solver enforces this internally)
    final = traj.final()
    g1 = gradient(final)[0]
    assert np.all(np.isfinite(g1))


def test_hj_quadratic_decreases_along_constants():
    # constant initial data: H(q=0) = 0 for the quadratic Hamiltonian,
    # so constants are stationary
    phi = GridField(G, np.full((1, 128), 1.2))
    traj = hamilton_jacobi_solve(HAMILTONIANS["quadratic"](), phi,
                                 _iso1d(), 0.5,
                                 SolverConfig(time_step=1 / 64))
    np.testing.assert_allclose(traj.final().values, 1.2, atol=1e-10)


def _x1_data(x1):
    return -0.1 + 0.6 * np.sin(x1) + 0.3 * np.sin(2 * x1 + 0.7)


def test_burgers_3d_x1_only_data():
    # the paper's multidimensional critical Burgers in d = 3: data
    # (f(x1), 0, 0) stays x1-only, so every (x2, x3) column is the d = 1 run
    mass = 1.0 / (levy.radial_cosine_constant(1.0)
                  * levy.isotropic_projection_moment(3, 1.0))
    m3 = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(3, mass))
    g3, g1 = Grid(3, 32, 2 * np.pi), Grid(1, 32, 2 * np.pi)
    config = SolverConfig(time_step=1 / 128)
    x1 = g3.coordinates()[..., 0]
    phi = GridField(g3, np.stack([_x1_data(x1), np.zeros(g3.shape),
                                  np.zeros(g3.shape)]))
    traj = burgers_solve(phi, m3, 0.25, config)
    line = burgers_solve(GridField(g1, _x1_data(g1.coordinates()[..., 0])),
                         _iso1d(), 0.25, config)
    frames = np.stack([fr.values for fr in traj.frames])
    ref = np.stack([fr.values[0] for fr in line.frames])
    assert frames.shape == (33, 3, 32, 32, 32)

    means = frames.mean(axis=(2, 3, 4))
    assert np.max(np.abs(means - means[0])) <= 1e-9
    sup_phi = np.max(np.abs(_x1_data(np.linspace(0, 2 * np.pi, 1 << 16))))
    assert np.max(np.abs(frames)) <= sup_phi
    assert np.max(np.abs(frames[:, 0] - ref[:, :, None, None])) <= 1e-9
    assert np.max(np.abs(frames[:, 1:])) <= 1e-9
