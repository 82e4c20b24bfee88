"""monte-carlo: Feynman-Kac and occupation-time estimates from tens of
thousands of alpha = 1 stable paths.

All the time goes to ``path_rng``, ``sample_stable_increment`` and the
estimators; there is no FFT in the timed section.  Each estimate is
compared with a value computed apart from levylab, within Z_TOL standard
errors plus a budget for the bias of the estimator's linear interpolation
on the grid, so the check holds at any seed while an estimate moved by 6
standard errors fails.
"""

from __future__ import annotations

import math

import numpy as np

import closed_forms as cf
from common import Finding, Op, Workload, rng_for
from levylab import levy, stochastic
from levylab.fieldgrid import Grid, GridField, SpaceTimeField

Z_TOL = 5.0
N_PATHS = 20000
# more paths for the occupation time keep its cost well apart from the
# Feynman-Kac estimates', so the median operation is the same one every run
KRYLOV_PATHS = 30000
KRYLOV_P = 3.0              # any p > d + 1


def _gaussian(grid: Grid, sigma: float) -> GridField:
    x = grid.coordinates()
    c = grid.side_length / 2.0
    return GridField(grid, np.exp(-np.sum((x - c) ** 2, axis=-1)
                                  / (2 * sigma ** 2))[None])


def build(seed: int) -> Workload:
    ops, checks = [], {}

    # E phi(x + X_t), d = 1 Cauchy process (psi = |xi|)
    rng = rng_for(seed, "fk-1d")
    g1 = Grid(1, 4096, 120.0)
    sigma1 = 1.0
    phi1 = _gaussian(g1, sigma1)
    cauchy = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(
        1, 1.0 / cf.cosine_constant(1.0)))
    t1 = float(rng.uniform(0.5, 1.0))
    x1 = g1.side_length / 2.0 + float(rng.uniform(-1.0, 1.0))
    seed1 = int(rng.integers(2 ** 31))
    ops.append(Op("fk-1d-cauchy", lambda _: stochastic.feynman_kac(
        phi1, None, None, cauchy, t1, [x1], N_PATHS, seed1, n_steps=4)))

    def ref_fk1():
        value = cf.cauchy_gaussian_expectation(x1 - g1.side_length / 2.0,
                                               sigma1, t1, g1.side_length)
        # linear interpolation of phi: |error| <= h^2/8 max|phi''|
        return value, g1.spacing ** 2 / (8 * sigma1 ** 2)

    checks["fk-1d-cauchy"] = ref_fk1

    # d = 2, symmetric atoms on the axes: independent Cauchy coordinates
    rng = rng_for(seed, "fk-2d")
    g2 = Grid(2, 1024, 60.0)
    sigma2 = 2.0
    phi2 = _gaussian(g2, sigma2)
    weights = rng.uniform(0.3, 0.7, size=2)
    dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    wts = np.repeat(weights, 2)
    axes = levy.StableSpectral(1.0, levy.SphericalMeasure.discrete(
        [(tuple(d), float(w)) for d, w in zip(dirs, wts)], dim=2))
    t2 = float(rng.uniform(0.3, 0.6))
    x2 = g2.side_length / 2.0 + rng.uniform(-1.0, 1.0, size=2)
    seed2 = int(rng.integers(2 ** 31))
    ops.append(Op("fk-2d-axes", lambda _: stochastic.feynman_kac(
        phi2, None, None, axes, t2, x2, N_PATHS, seed2, n_steps=4)))

    def ref_fk2():
        value = 1.0
        for i in range(2):
            # Cauchy scale of coordinate i: t Re psi(e_i) from the closed form
            scale = t2 * float(cf.psi_atoms(1.0, dirs, wts, np.eye(2)[i]).real)
            value *= cf.cauchy_gaussian_expectation(
                x2[i] - g2.side_length / 2.0, sigma2, scale, g2.side_length)
        h2 = g2.spacing ** 2 / sigma2 ** 2
        # bilinear interpolation of a product of two Gaussians
        return value, h2 / 4 + h2 ** 2 / 64

    checks["fk-2d-axes"] = ref_fk2

    # occupation time of [c - r, c + r] by the d = 1 Cauchy process from c,
    # with r half-way between grid points so the interpolated indicator is
    # symmetric about each edge and its bias is second order in h
    rng = rng_for(seed, "krylov")
    gk = Grid(1, 2048, 80.0)
    horizon, n_steps = 0.5, 64
    dt = horizon / n_steps
    r = (int(rng.integers(12, 41)) + 0.5) * gk.spacing
    c = gk.side_length / 2.0
    xk = gk.coordinates()[..., 0]
    indicator = GridField(gk, (np.abs(xk - c) <= r).astype(float)[None])
    forcing = SpaceTimeField(dt, tuple(indicator for _ in range(n_steps + 1)))
    seed3 = int(rng.integers(2 ** 31))
    ops.append(Op("krylov-indicator", lambda _: stochastic.krylov_check(
        None, cauchy, forcing, KRYLOV_P, KRYLOV_PATHS, seed3, x0=[c],
        n_steps=n_steps)))
    checks["krylov-indicator"] = lambda: krylov_reference(
        r, gk.spacing, gk.side_length, dt, n_steps)
    width = float(np.sum(indicator.values)) * gk.spacing

    def check(outputs: dict) -> list:
        findings = []
        for name in ("fk-1d-cauchy", "fk-2d-axes"):
            est, se = outputs[name]
            value, bias = checks[name]()
            findings.append(check_estimate(name, est, se, value, bias))
        lhs, fnorm = outputs["krylov-indicator"]
        value, bias = checks["krylov-indicator"]()
        # each path's occupation time lies in [0, T]: sd <= T/2
        se_bound = horizon / (2 * math.sqrt(KRYLOV_PATHS))
        findings.append(check_estimate("krylov-indicator", lhs, se_bound,
                                       value, bias))
        want = (horizon * width) ** (1.0 / KRYLOV_P)
        rel = abs(fnorm - want) / want
        findings.append(Finding("krylov-indicator", rel <= 1e-12,
                                f"space-time L^p norm {fnorm:.6f} vs "
                                f"(T |support|)^(1/p) {want:.6f}", "norm"))
        return findings

    return Workload(tuple(ops), check)


def krylov_reference(radius, spacing, period, dt, n_steps):
    """sum_k dt P(|Y_{s_k}| <= r) for Y Cauchy(s_k), s_k = k dt, with the
    periodic images, and the bias budget of the interpolated indicator:
    per edge |bias| <= max|p'| h^2 / 24 over [r - h/2, r + h/2]."""
    scales = np.arange(n_steps) * dt
    value = dt * float(np.sum(cf.cauchy_interval_probability(radius, scales,
                                                             period)))
    bias = sum(dt * spacing ** 2 / 12 * cf.cauchy_density_slope_max(
        radius - spacing / 2, radius + spacing / 2, s) for s in scales[1:])
    return value, bias


def check_estimate(op, est, se, value, bias):
    tol = Z_TOL * se + bias
    err = abs(est - value)
    return Finding(op, err <= tol,
                   f"estimate {est:.6f} vs reference {value:.6f}: |diff| "
                   f"{err:.2e} = {err / se:.2f} se (tol {Z_TOL:g} se "
                   f"{Z_TOL * se:.2e} + bias {bias:.1e})", "estimate")
