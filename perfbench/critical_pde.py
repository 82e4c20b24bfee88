"""critical-pde: critical Burgers and Hamilton-Jacobi solves at alpha = 1.

Nearly all the time goes to Picard iteration over whole trajectories
(``drift_solve``) and complex FFT round trips; the workload does no
quadrature and no sampling.  Amplitudes and grids are fixed and the seed
draws phases (translations), so the Picard iteration counts, and with them
the work, do not depend on the seed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

import closed_forms as cf
from common import Finding, Op, Workload, rng_for
from levylab import levy, quasilinear
from levylab.fieldgrid import Grid, GridField
from levylab.linear_solver import SolverConfig
from levylab.quasilinear import QuasilinearProblem

HORIZON = 0.25
DT = 1.0 / 128
BIG_N, BIG_HORIZON, BIG_DT = 128, 1.0 / 16, 1.0 / 128
LINEAR_AMPLITUDE = 1e-4
MEAN_TOL = 1e-9            # conservation of each component's spatial mean
SUP_TOL = 1e-6             # sup|u(t)| <= sup|phi| (continuous sup)
REDUCTION_TOL = 1e-9       # x1-only d=2 run against the d=1 run
HJ_TOL = 1e-9              # q of Hamilton-Jacobi against Burgers from grad phi
TWO_PI = 2.0 * math.pi


def unit_speed_measure(dim: int) -> levy.StableSpectral:
    """Isotropic alpha = 1 measure with psi(xi) = |xi| (mass from the
    closed-form constants)."""
    mass = 1.0 / (cf.cosine_constant(1.0) * cf.isotropic_moment(dim, 1.0))
    return levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(dim, mass))


def _trig_1d(rng, mean: float):
    """u(x) = mean + 0.6 sin(y) + 0.3 sin(2y + 0.7), y = x - s, with the
    translation s drawn from rng."""
    s = rng.uniform(0.0, TWO_PI)
    return lambda x: (mean + 0.6 * np.sin(x - s)
                      + 0.3 * np.sin(2 * (x - s) + 0.7))


# potential Phi(x) = sum_j a_j cos(k_j . (x - s) + p_j); Burgers data
# c + grad Phi is curl-free, so each component's mean is conserved in d = 2
# as well
_POTENTIAL_MODES = (((1, 0), 0.35, 0.0), ((0, 1), 0.3, 1.1),
                    ((1, 1), 0.15, 2.3), ((2, -1), 0.05, 0.4))


def _potential(rng):
    """Phi and grad Phi as callables, translated by s drawn from rng."""
    s = rng.uniform(0.0, TWO_PI, size=2)

    def value(x):
        y = x - s
        return sum(a * np.cos(k[0] * y[..., 0] + k[1] * y[..., 1] + p)
                   for k, a, p in _POTENTIAL_MODES)

    def grad(x):
        y = x - s
        out = np.zeros((2,) + x.shape[:-1])
        for k, a, p in _POTENTIAL_MODES:
            v = -a * np.sin(k[0] * y[..., 0] + k[1] * y[..., 1] + p)
            out[0] += k[0] * v
            out[1] += k[1] * v
        return out

    return value, grad


def _continuous_sup(fn, dim: int) -> np.ndarray:
    """Per-component sup over the torus of |fn| (fn maps points (..., d)
    to (m, ...) values): the best of a fine sample, polished by a local
    maximisation, so it is the continuous sup the maximum principle bounds
    and not a grid sample of it."""
    g = Grid(dim, 4096 if dim == 1 else 256, TWO_PI)
    pts = g.coordinates()
    vals = np.asarray(fn(pts))
    if vals.ndim == dim:
        vals = vals[None]
    flat = np.abs(vals.reshape(vals.shape[0], -1))
    sups = []
    for i, row in enumerate(flat):
        start = pts.reshape(-1, dim)[int(np.argmax(row))]

        def neg(p, i=i):
            v = np.asarray(fn(np.asarray(p, dtype=float)[None]))
            return -abs(float(v.reshape(-1)[i]))

        res = minimize(neg, start, method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-15})
        sups.append(max(float(row.max()), -float(res.fun)))
    return np.array(sups)


def frames_of(traj) -> np.ndarray:
    """(n_frames, m, *grid) array of a SpaceTimeField."""
    return np.stack([fr.values for fr in traj.frames])


def build(seed: int) -> Workload:
    m1, m2 = unit_speed_measure(1), unit_speed_measure(2)
    cfg = SolverConfig(time_step=DT)
    g1 = Grid(1, 1024, TWO_PI)
    g1s = Grid(1, 32, TWO_PI)
    g1p = Grid(1, 128, TWO_PI)
    g2 = Grid(2, 32, TWO_PI)
    g2s = Grid(2, 32, TWO_PI)
    g2b = Grid(2, BIG_N, TWO_PI)

    def coords1(g):
        return g.coordinates()[..., 0]

    # d = 1 Burgers with a mean
    rng = rng_for(seed, "burgers-1d")
    f1 = _trig_1d(rng, 0.2)
    phi1 = GridField(g1, f1(coords1(g1))[None])

    # single small mode, d = 1 and d = 2 (curl-free: u = A k/|k| cos)
    rng = rng_for(seed, "linear")
    k_lin1 = int(rng.integers(1, 4))
    p_lin1 = float(rng.uniform(0.0, TWO_PI))
    x = coords1(g1)
    phi_lin1 = GridField(g1, LINEAR_AMPLITUDE * np.cos(k_lin1 * x + p_lin1)[None])
    k_lin2 = np.array([(1, 1), (2, 1), (1, 2), (2, -1)][int(rng.integers(4))])
    p_lin2 = float(rng.uniform(0.0, TWO_PI))
    X = g2s.coordinates()
    wave = np.cos(X @ k_lin2 + p_lin2)
    unit_k = k_lin2 / np.linalg.norm(k_lin2)
    phi_lin2 = GridField(g2s, LINEAR_AMPLITUDE * unit_k[:, None, None] * wave)

    # large d = 2 grid: c + grad Phi
    rng = rng_for(seed, "burgers-2d-big")
    shift = np.array([0.15, -0.1])
    _, grad_big = _potential(rng)

    def f_big(x):
        return shift.reshape((2,) + (1,) * (x.ndim - 1)) + grad_big(x)

    phi_big = GridField(g2b, f_big(g2b.coordinates()))

    # x1-only data: d = 2 (f(x1), 0) and d = 1 f
    rng = rng_for(seed, "reduction")
    f_red = _trig_1d(rng, -0.1)
    X = g2.coordinates()
    phi_red2 = GridField(g2, np.stack([f_red(X[..., 0]), np.zeros(g2.shape)]))
    phi_red1 = GridField(g1s, f_red(coords1(g1s))[None])

    # Hamilton-Jacobi with H = |q|^2 / 2 and Burgers from grad phi
    rng = rng_for(seed, "hamilton-jacobi")
    pot, grad_pot = _potential(rng)
    phi_hj = GridField(g2, pot(X)[None])
    phi_grad = GridField(g2, grad_pot(X))
    quadratic = quasilinear.HAMILTONIANS["quadratic"]()

    # Burgers-form problem built here, drift counting its own calls
    rng = rng_for(seed, "picard")
    f_pic = _trig_1d(rng, 0.1)
    phi_pic = GridField(g1p, f_pic(coords1(g1p))[None])
    drift_calls = [0]

    def burgers_drift(t, x, u):
        drift_calls[0] += 1
        return -u

    problem = QuasilinearProblem(m1, 1, drift_b=burgers_drift, forcing_f=None,
                                 phi=phi_pic, horizon=HORIZON)

    def picard(_):
        drift_calls[0] = 0
        traj = quasilinear.picard_solve(problem, cfg)
        return traj, drift_calls[0]

    big_cfg = SolverConfig(time_step=BIG_DT)
    ops = (
        Op("burgers-1d", lambda _: quasilinear.burgers_solve(phi1, m1, HORIZON, cfg)),
        Op("burgers-1d-linear",
           lambda _: quasilinear.burgers_solve(phi_lin1, m1, HORIZON, cfg)),
        Op("burgers-2d-linear",
           lambda _: quasilinear.burgers_solve(phi_lin2, m2, HORIZON, cfg)),
        Op("burgers-2d-128",
           lambda _: quasilinear.burgers_solve(phi_big, m2, BIG_HORIZON, big_cfg)),
        Op("burgers-2d-x1only",
           lambda _: quasilinear.burgers_solve(phi_red2, m2, HORIZON, cfg)),
        Op("burgers-1d-x1only",
           lambda _: quasilinear.burgers_solve(phi_red1, m1, HORIZON, cfg)),
        Op("hamilton-jacobi-2d",
           lambda _: quasilinear.hamilton_jacobi_solve(
               quadratic, phi_hj, m2, HORIZON, cfg, return_augmented=True)),
        Op("burgers-2d-from-grad",
           lambda _: quasilinear.burgers_solve(phi_grad, m2, HORIZON, cfg)),
        Op("picard-1d", picard),
    )

    linear_refs = {
        "burgers-1d-linear": (lambda t: LINEAR_AMPLITUDE * np.exp(-t * k_lin1)
                              * np.cos(k_lin1 * coords1(g1) + p_lin1)[None],
                              float(k_lin1)),
        "burgers-2d-linear": (lambda t: LINEAR_AMPLITUDE
                              * np.exp(-t * np.linalg.norm(k_lin2))
                              * unit_k[:, None, None] * wave,
                              float(np.linalg.norm(k_lin2))),
    }

    def check(outputs: dict) -> list:
        sup_refs = {
            "burgers-1d": _continuous_sup(lambda x: f1(x[..., 0]), 1),
            "burgers-2d-128": _continuous_sup(f_big, 2),
            "burgers-2d-x1only": np.append(
                _continuous_sup(lambda x: f_red(x[..., 0]), 1), 0.0),
            "burgers-1d-x1only": _continuous_sup(lambda x: f_red(x[..., 0]), 1),
            "burgers-2d-from-grad": _continuous_sup(grad_pot, 2),
            "picard-1d": _continuous_sup(lambda x: f_pic(x[..., 0]), 1),
        }
        frames = {}
        for name, out in outputs.items():
            traj = out[0] if name == "picard-1d" else out
            frames[name] = frames_of(traj)
        findings = []
        for name, ref_sup in sup_refs.items():
            findings.append(check_mean(name, frames[name]))
            findings.append(check_sup(name, frames[name], ref_sup))
        findings.append(check_mean("hamilton-jacobi-2d",
                                   frames["hamilton-jacobi-2d"][:, 1:]))
        for name, (ref, speed) in linear_refs.items():
            findings.append(check_linear_mode(name, frames[name], ref, speed,
                                              DT))
        findings.append(check_reduction(frames["burgers-2d-x1only"],
                                        frames["burgers-1d-x1only"]))
        findings.append(check_hamilton_jacobi(frames["hamilton-jacobi-2d"],
                                              frames["burgers-2d-from-grad"]))
        calls = outputs["picard-1d"][1]
        n_frames = len(frames["picard-1d"])
        findings.append(Finding("picard-1d", calls >= n_frames,
                                f"drift evaluated {calls} times for "
                                f"{n_frames} frames"))
        return findings

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# checks: each takes arrays, so a test can hand it a wrong answer
# ---------------------------------------------------------------------------

def check_mean(op: str, frames: np.ndarray) -> Finding:
    """Each component's spatial mean stays at its initial value."""
    spatial = tuple(range(2, frames.ndim))
    means = frames.mean(axis=spatial)                      # (frames, m)
    drift = float(np.max(np.abs(means - means[0])))
    return Finding(op, drift <= MEAN_TOL,
                   f"mean drift {drift:.2e} (tol {MEAN_TOL:.0e})")


def check_sup(op: str, frames: np.ndarray, phi_sup: np.ndarray) -> Finding:
    """Maximum principle per component: sup_x |u_i(t)| <= sup |phi_i|."""
    spatial = tuple(range(2, frames.ndim))
    sups = np.max(np.abs(frames), axis=(0,) + spatial)
    excess = float(np.max(sups - phi_sup))
    return Finding(op, excess <= SUP_TOL,
                   f"max over t of sup|u| - sup|phi| = {excess:.2e} "
                   f"(tol {SUP_TOL:.0e})")


def check_linear_mode(op: str, frames: np.ndarray, reference, speed: float,
                      dt: float) -> Finding:
    """A 1e-4 single mode decays as e^{-t|k|}; the quadratic term moves it
    by at most A |k| t relative."""
    worst = 0.0
    for n, fr in enumerate(frames):
        worst = max(worst, float(np.max(np.abs(fr - reference(n * dt)))))
    rel = worst / LINEAR_AMPLITUDE
    tol = LINEAR_AMPLITUDE * speed * dt * (len(frames) - 1)
    return Finding(op, rel <= tol,
                   f"relative deviation from e^(-t|k|) {rel:.2e} "
                   f"(tol A|k|T = {tol:.1e})")


def check_reduction(frames_2d: np.ndarray, frames_1d: np.ndarray) -> Finding:
    """(f(x1), 0) in d = 2 is the d = 1 run in every x2 column."""
    diff = float(np.max(np.abs(frames_2d[:, 0] - frames_1d[:, 0][:, :, None])))
    second = float(np.max(np.abs(frames_2d[:, 1])))
    worst = max(diff, second)
    return Finding("burgers-2d-x1only", worst <= REDUCTION_TOL,
                   f"d=2 x1-only minus d=1 {diff:.2e}, second component "
                   f"{second:.2e} (tol {REDUCTION_TOL:.0e})")


def check_hamilton_jacobi(augmented: np.ndarray, burgers: np.ndarray) -> Finding:
    """For H = |q|^2/2 the gradient q = grad u solves Burgers from grad phi."""
    diff = float(np.max(np.abs(augmented[:, 1:] - burgers)))
    return Finding("hamilton-jacobi-2d", diff <= HJ_TOL,
                   f"max |q - u_Burgers| {diff:.2e} (tol {HJ_TOL:.0e})")
