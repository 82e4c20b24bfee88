"""Linear Cauchy-problem solvers: exact single-mode decay, agreement of
the two solver routes, stationary states, maximum principle, mollifier
properties, and the maximal-regularity probe."""

import numpy as np
import pytest

from levylab import fieldgrid, levy
from levylab.errors import InvalidArgument, PreconditionFailure
from levylab.fieldgrid import Grid, GridField, SpaceTimeField, lp_norm
from levylab.heatkernel import DriftSchedule
from levylab.linear_solver import (LinearProblem, SolverConfig,
                                   drift_solve, duhamel_solve, mollify,
                                   regularity_ratio)
from levylab.quasilinear import QuasilinearProblem, picard_solve


def _iso1d(mass=2.0 / np.pi, alpha=1.0):
    return levy.StableSpectral(alpha,
                               levy.SphericalMeasure.isotropic(1, mass))


G = Grid(1, 256, 2 * np.pi)
X = G.coordinates()[..., 0]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_problem_validation():
    phi = GridField(G, np.sin(X)[None])
    with pytest.raises(InvalidArgument):
        LinearProblem(_iso1d(), DriftSchedule.zero(1), -1.0, None, phi, 1.0)
    with pytest.raises(InvalidArgument):
        LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.0, None, phi, 0.0)
    with pytest.raises(InvalidArgument):
        SolverConfig(time_step=0.0)
    with pytest.raises(InvalidArgument):
        SolverConfig(time_step=0.1, mollifier_width=-1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_lambda_must_be_finite(lam):
    phi = GridField(G, np.sin(X)[None])
    with pytest.raises(InvalidArgument, match="lambda"):
        LinearProblem(_iso1d(), DriftSchedule.zero(1), lam, None, phi, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [duhamel_solve, drift_solve])
def test_non_finite_forcing_callable_is_rejected(solve, bad):
    phi = GridField(G, np.sin(X)[None])
    problem = LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.0,
                            lambda t, x: np.full(x.shape[:-1],
                                                 bad if t > 0.2 else 0.0),
                            phi, 0.5)
    with pytest.raises(InvalidArgument):
        solve(problem, SolverConfig(time_step=0.125))


def test_solver_trajectory_is_one_read_only_array():
    phi = GridField(G, np.sin(X)[None])
    problem = LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.5, None, phi,
                            0.5)
    for solve in (duhamel_solve, drift_solve):
        traj = solve(problem, SolverConfig(time_step=0.125))
        assert traj.values.shape == (5, 1, 256)
        assert not traj.values.flags.writeable
        with pytest.raises(ValueError):
            traj.values[1, 0, 0] = 0.0
        for j, fr in enumerate(traj.frames):
            assert np.shares_memory(fr.values, traj.values)
            assert not fr.values.flags.writeable
            np.testing.assert_array_equal(fr.values, traj.values[j])
        assert np.shares_memory(traj.final().values, traj.values[-1])


@pytest.mark.parametrize("n_steps", [4, 32])
def test_regularity_ratio_transforms_all_frames_at_once(n_steps, monkeypatch):
    # one forward and one inverse transform apply nu2 to every kept frame;
    # the patch does not see duhamel_solve's transforms, which call the
    # names linear_solver imported
    calls = {"forward": 0, "inverse": 0}

    def counted(name):
        real = getattr(fieldgrid, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    f = SpaceTimeField(0.5 / n_steps,
                       (GridField(G, np.cos(3 * X)[None]),) * (n_steps + 1))
    for name in calls:
        monkeypatch.setattr(fieldgrid, name, counted(name))
    assert regularity_ratio(_iso1d(), _iso1d(), 1.0, f, 2, 2) > 0
    assert calls == {"forward": 1, "inverse": 1}


@pytest.mark.parametrize("horizon", [0.5, 0.1])
def test_horizon_must_be_whole_number_of_steps(horizon):
    # 0.5 / 0.3 would silently run to t = 0.6, 0.1 / 0.3 would return
    # only the initial frame
    phi = GridField(G, np.sin(X)[None])
    config = SolverConfig(time_step=0.3)
    problem = LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.0, None, phi,
                            horizon)
    for solve in (duhamel_solve, drift_solve):
        with pytest.raises(InvalidArgument):
            solve(problem, config)
    qproblem = QuasilinearProblem(_iso1d(), 1, None, None, phi, horizon)
    with pytest.raises(InvalidArgument):
        picard_solve(qproblem, config)


def test_regularity_ratio_accepts_floating_point_horizon():
    # horizon = 0.1 * 6 is 0.6000000000000001 in floating point
    frames = tuple(GridField(G, np.cos(3 * X)[None]) for _ in range(7))
    f = SpaceTimeField(0.1, frames)
    assert f.time_step * (len(frames) - 1) != 0.6
    assert np.isfinite(regularity_ratio(_iso1d(), _iso1d(), 1.0, f, 2, 2))


# ---------------------------------------------------------------------------
# exactness on simple data
# ---------------------------------------------------------------------------

def test_constants_are_stationary():
    phi = GridField(G, np.full((1, 256), 1.7))
    problem = LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.0, None, phi, 0.5)
    config = SolverConfig(time_step=0.5 / 32)
    for solve in (duhamel_solve, drift_solve):
        traj = solve(problem, config)
        np.testing.assert_allclose(traj.final().values, phi.values,
                                   atol=1e-12)


def test_single_mode_exact_decay():
    # u(t) = e^{-t psi(k)} cos(kx) for psi(k) = |k|
    k = 3
    phi = GridField(G, np.cos(k * X)[None])
    T = 0.5
    problem = LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.0, None, phi, T)
    traj = duhamel_solve(problem, SolverConfig(time_step=T / 64))
    np.testing.assert_allclose(traj.final().values[0],
                               np.exp(-k * T) * np.cos(k * X), atol=1e-12)


def test_damping_term_exact():
    lam = 2.5
    phi = GridField(G, np.full((1, 256), 1.0))
    T = 0.4
    problem = LinearProblem(_iso1d(), DriftSchedule.zero(1), lam, None, phi, T)
    traj = duhamel_solve(problem, SolverConfig(time_step=T / 32))
    np.testing.assert_allclose(traj.final().values,
                               np.exp(-lam * T) * phi.values, atol=1e-12)


def test_constant_drift_transports_exactly():
    # pure transport of a single mode: u(t,x) = e^{-t|k|} cos(k(x + t b))
    # for the model convention du/dt = L u + b du/dx
    b0 = 0.7
    k = 2
    T = 0.5
    phi = GridField(G, np.cos(k * X)[None])
    problem = LinearProblem(_iso1d(), DriftSchedule.constant([b0]), 0.0,
                            None, phi, T)
    traj = duhamel_solve(problem, SolverConfig(time_step=T / 64))
    np.testing.assert_allclose(traj.final().values[0],
                               np.exp(-k * T) * np.cos(k * (X + b0 * T)),
                               atol=1e-10)


def test_forced_stationary_state():
    # f = psi(k) u_star keeps u_star = cos(kx) stationary
    k = 4
    u_star = np.cos(k * X)
    phi = GridField(G, u_star[None])
    forcing = lambda t, x: float(k) * u_star
    T = 0.5
    problem = LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.0, forcing, phi, T)
    traj = duhamel_solve(problem, SolverConfig(time_step=T / 128))
    np.testing.assert_allclose(traj.final().values[0], u_star, atol=1e-9)


# ---------------------------------------------------------------------------
# cross-route agreement
# ---------------------------------------------------------------------------

def _route_gap(mollifier_width):
    """Largest L^2 gap between the frames of the two solvers on an
    x-independent drift, which both routes can solve."""
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=5) / np.arange(1, 6)
    phi_vals = sum(c * np.cos((j + 1) * X) for j, c in enumerate(coeffs))
    phi = GridField(G, phi_vals[None])
    forcing = lambda t, x: np.cos(t) * np.sin(2 * x[..., 0])
    T = 0.25
    problem = LinearProblem(_iso1d(), DriftSchedule.constant([0.6]), 0.3,
                            forcing, phi, T)
    config = SolverConfig(time_step=T / 256, mollifier_width=mollifier_width)
    a = duhamel_solve(problem, config)
    b = drift_solve(problem, config)
    return max(lp_norm(GridField(G, fa.values - fb.values), 2)
               for fa, fb in zip(a.frames, b.frames))


def test_drift_solve_matches_duhamel():
    assert _route_gap(0.0) < 1e-6


def test_drift_solve_matches_duhamel_with_mollifier():
    # both solvers mollify the initial data and the forcing
    assert _route_gap(0.2) < 1e-6


@pytest.mark.parametrize("kind", ["schedule", "trajectory"])
def test_drift_of_wrong_dimension_rejected(kind):
    phi = GridField(G, np.sin(X)[None])
    if kind == "schedule":
        drift = DriftSchedule.constant([0.3, 0.4])
    else:
        frames = tuple(GridField(G, np.ones((2, 256))) for _ in range(5))
        drift = SpaceTimeField(0.0625, frames)
    with pytest.raises(InvalidArgument, match="drift dimension"):
        LinearProblem(_iso1d(), drift, 0.0, None, phi, 0.25)


@pytest.mark.parametrize("other", [Grid(1, 256, 10.0), Grid(1, 128, 2 * np.pi)],
                         ids=["other-box", "other-points"])
@pytest.mark.parametrize("name", ["drift", "forcing"])
def test_trajectory_on_another_grid_rejected(name, other):
    # a forcing on another box ran as if it lived on phi's; one with other
    # points died in numpy broadcasting
    phi = GridField(G, np.sin(X)[None])
    traj = SpaceTimeField(0.0625, tuple(GridField(other, np.ones((1,) + other.shape))
                                        for _ in range(5)))
    data = {"drift": DriftSchedule.zero(1), "forcing": None, name: traj}
    with pytest.raises(InvalidArgument, match=f"{name} lives on"):
        LinearProblem(_iso1d(), data["drift"], 0.0, data["forcing"], phi, 0.25)


def test_maximum_principle_with_space_dependent_drift():
    rng = np.random.default_rng(4)
    phi = GridField(G, rng.normal(size=(1, 256)))
    phi = mollify(phi, 0.3)
    b = lambda t, x: (0.5 * np.sin(x[..., 0]) * np.cos(3 * t))[..., None]
    T = 0.3
    problem = LinearProblem(_iso1d(), b, 0.0, None, phi, T)
    traj = drift_solve(problem, SolverConfig(time_step=T / 64))
    sup0 = lp_norm(phi, np.inf)
    assert all(lp_norm(fr, np.inf) <= sup0 + 1e-6 for fr in traj.frames)


def test_forcing_of_another_component_count_rejected():
    # both solvers ran the whole march before the trajectory raised
    phi = GridField(G, np.sin(X)[None])
    two = GridField(G, np.stack([np.sin(X), np.cos(X)]))
    traj = SpaceTimeField(0.1, (two,) * 3)
    with pytest.raises(InvalidArgument, match="components"):
        LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.0, traj, phi, 0.2)
    problem = LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.0,
                            lambda t, x: two.values, phi, 0.2)
    for solve in (duhamel_solve, drift_solve):
        with pytest.raises(InvalidArgument, match="forcing callable"):
            solve(problem, SolverConfig(time_step=0.1))


def test_forcing_time_step_mismatch_rejected():
    phi = GridField(G, np.sin(X)[None])
    frames = tuple(GridField(G, np.zeros((1, 256))) for _ in range(9))
    forcing = SpaceTimeField(0.1, frames)
    problem = LinearProblem(_iso1d(), DriftSchedule.zero(1), 0.0, forcing, phi, 0.8)
    with pytest.raises(InvalidArgument):
        duhamel_solve(problem, SolverConfig(time_step=0.05))


def test_drift_time_step_mismatch_rejected():
    # a 5-frame drift sampled every 0.5 covers a solver run of 4 steps of
    # 1/16 by frame count, but its frame j is at t = j/2, not j/16
    phi = GridField(G, np.sin(X)[None])
    frames = tuple(GridField(G, np.ones((1, 256))) for _ in range(5))
    drift = SpaceTimeField(0.5, frames)
    problem = LinearProblem(_iso1d(), drift, 0.0, None, phi, 0.25)
    with pytest.raises(InvalidArgument, match="drift time step"):
        drift_solve(problem, SolverConfig(time_step=1.0 / 16))


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

def test_mollify_preserves_mass_and_constants():
    rng = np.random.default_rng(2)
    u = GridField(G, rng.normal(size=(1, 256)))
    out = mollify(u, 0.4)
    assert float(np.sum(out.values)) == pytest.approx(
        float(np.sum(u.values)), rel=1e-10)
    c = GridField(G, np.full((1, 256), 3.0))
    np.testing.assert_allclose(mollify(c, 0.4).values, 3.0, atol=1e-10)


def test_mollify_zero_width_is_identity():
    u = GridField(G, np.sin(X)[None])
    assert mollify(u, 0.0) is u


@pytest.mark.parametrize("dim", [1, 2])
def test_mollify_below_grid_resolution_is_rejected(dim):
    # the origin is always inside the bump; a width up to the spacing h
    # holds no other grid point and would be the identity, so it raises,
    # while a width just above h takes in the neighbours along the axes
    g = Grid(dim, 64, 2 * np.pi)
    u = GridField(g, np.ones((1,) + g.shape))
    for eps in (1e-3, 0.5 * g.spacing, g.spacing):
        with pytest.raises(InvalidArgument, match="below grid resolution"):
            mollify(u, eps)
    np.testing.assert_allclose(mollify(u, 1.01 * g.spacing).values, 1.0,
                               atol=1e-12)


def test_mollify_does_not_increase_sup():
    rng = np.random.default_rng(6)
    u = GridField(G, rng.normal(size=(1, 256)))
    assert lp_norm(mollify(u, 0.5), np.inf) <= lp_norm(u, np.inf) + 1e-10


# ---------------------------------------------------------------------------
# inequality probes
# ---------------------------------------------------------------------------

def test_regularity_ratio_single_mode_closed_form():
    # single-frequency forcing f = cos(kx) cos(om t): after burn-in the
    # response is the stationary oscillation and the ratio reduces to
    # |psi2(k)| / |psi1(k) + i om + lam|
    k, om, lam = 6, 2 * np.pi, 1.0
    nu1 = _iso1d()
    nu2 = _iso1d(mass=1.0)
    dt = 1.0 / 512
    times = np.arange(int(round(3.0 / dt)) + 1) * dt
    frames = tuple(GridField(G, (np.cos(k * X) * np.cos(om * t))[None])
                   for t in times)
    f = SpaceTimeField(dt, frames)
    got = regularity_ratio(nu1, nu2, lam, f, 2, 2, burn_in=2.0)
    psi1 = levy.symbol(nu1, np.array([float(k)]))
    psi2 = levy.symbol(nu2, np.array([float(k)]))
    expected = abs(psi2) / abs(psi1 + 1j * om + lam)
    assert got == pytest.approx(expected, rel=1e-4)


def test_regularity_ratio_rejects_zero_forcing():
    frames = tuple(GridField(G, np.zeros((1, 256))) for _ in range(5))
    f = SpaceTimeField(0.1, frames)
    with pytest.raises(InvalidArgument):
        regularity_ratio(_iso1d(), _iso1d(), 0.0, f, 2, 2)


@pytest.mark.parametrize("burn_in", [0.5, 0.15], ids=["past-horizon",
                                                      "zero-after-burn-in"])
def test_regularity_ratio_rejects_zero_kept_forcing(burn_in):
    # forcing only at t = 0 and 0.1 of a horizon of 0.4: after burn_in
    # there is no frame left, or only zero frames
    frames = tuple(GridField(G, (np.cos(X) if k < 2 else 0 * X)[None])
                   for k in range(5))
    f = SpaceTimeField(0.1, frames)
    with pytest.raises(InvalidArgument, match="burn_in"):
        regularity_ratio(_iso1d(), _iso1d(), 0.0, f, 2, 2, burn_in=burn_in)


def test_regularity_ratio_degenerate_measure_is_a_precondition_failure():
    g = Grid(2, 16, 2 * np.pi)
    f = SpaceTimeField(0.1, tuple(GridField(g, np.ones((1, 16, 16)))
                                  for _ in range(3)))
    atom = levy.StableSpectral(1.0, levy.SphericalMeasure.discrete(
        [((1.0, 0.0), 1.0)]))
    with pytest.raises(PreconditionFailure):
        regularity_ratio(atom, atom, 0.0, f, 2, 2)
