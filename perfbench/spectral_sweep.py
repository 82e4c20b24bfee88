"""spectral-sweep: semigroup, operator, heat-kernel and Duhamel evaluations
on fixed (measure, grid) pairs.

Every operation reuses a multiplier that levylab today recomputes on each
call, and the time goes to FFTs and psi -- above all the constant-density
``DensityKernel`` psi (about 0.5 s per evaluation at N = 1024).  Kernels
are taken each at its own t (shifted by a part in 1e6 per round), so a
result cache holds entries but never returns one.  The non-symmetric
constant-density cases are left out: their psi quadrature does not
converge today (see CHANGES.md).
"""

from __future__ import annotations

import math

import numpy as np

import closed_forms as cf
from common import Finding, Op, Workload, rel_l2, rng_for
from levylab import heatkernel, levy, linear_solver, nonlocal_op
from levylab.fieldgrid import Grid, GridField
from levylab.heatkernel import DriftSchedule
from levylab.linear_solver import LinearProblem, SolverConfig

SWEEP_STEPS = 6
MULTIPLIER_TOL = 1e-9       # relative, exact closed forms
DENSITY_TOL = 1e-7          # relative, psi by quadrature to 1e-8
SEMIGROUP_TOL = 1e-10       # P_s P_t f against P_{s+t} f, relative L2
CAUCHY_TOL = 1e-6           # kernel against the periodised density, rel L1
MASS_TOL = 1e-9
TWO_PI = 2.0 * math.pi


def _bump(grid: Grid, width: float) -> np.ndarray:
    x = grid.coordinates()
    centre = grid.side_length / 2.0
    return np.exp(-np.sum((x - centre) ** 2, axis=-1) / (2 * width ** 2))[None]


def per_round(t: float, rnd: int) -> float:
    """t shifted by a part in 1e6 per round: the same work, a new cache key."""
    return t * (1.0 + 1e-6 * rnd)


def build(seed: int) -> Workload:
    ops, refs = [], {}

    # t-sweep of P_t f and t |L P_t f| / |f| on a d = 3 grid
    rng = rng_for(seed, "sweep-3d")
    g3 = Grid(3, 64, 20.0)
    mass3 = float(rng.uniform(0.5, 1.5))
    iso3 = levy.StableSpectral(1.5, levy.SphericalMeasure.isotropic(3, mass3))
    f3 = GridField(g3, _bump(g3, float(rng.uniform(0.8, 1.2))))
    step = float(rng.uniform(0.05, 0.1))
    modes3 = [tuple(int(c) for c in rng.integers(1, 4, size=3)) for _ in range(2)]
    psi3 = lambda xi: cf.psi_isotropic(1.5, 3, mass3, xi)           # noqa: E731

    def sweep(t):
        def fn(_):
            p = heatkernel.semigroup_apply(iso3, t, f3)
            lp = nonlocal_op.apply(iso3, p)
            return p.values[0], lp.values[0]
        return fn

    for j in range(1, SWEEP_STEPS + 1):
        ops.append(Op(f"sweep-3d-t{j}", sweep(j * step)))
        refs[f"sweep-3d-t{j}"] = j * step

    # heat kernels of a non-symmetric 2-d atomic measure, each at its own t
    rng = rng_for(seed, "kernel-atoms")
    theta0 = float(rng.uniform(0.0, TWO_PI))
    dirs = np.array([[math.cos(theta0 + k * TWO_PI / 3),
                      math.sin(theta0 + k * TWO_PI / 3)] for k in range(3)])
    wts = rng.uniform(0.3, 0.7, size=3)
    atoms = levy.StableSpectral(1.5, levy.SphericalMeasure.discrete(
        [(tuple(d), float(w)) for d, w in zip(dirs, wts)], dim=2))
    psi_atoms = lambda xi: cf.psi_atoms(1.5, dirs, wts, xi)          # noqa: E731
    g2k = Grid(2, 256, 40.0)
    base = float(rng.uniform(0.3, 0.5))
    for i, factor in enumerate((1.0, 1.5, 2.0, 3.0)):
        t = base * factor
        ops.append(Op(f"kernel-atoms-{i}", lambda r, t=t: heatkernel.kernel(
            atoms, per_round(t, r), g2k).values[0]))
        refs[f"kernel-atoms-{i}"] = t

    # Cauchy kernels (psi = |xi|), each at its own t
    rng = rng_for(seed, "kernel-cauchy")
    cauchy = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(
        1, 1.0 / cf.cosine_constant(1.0)))
    g1c = Grid(1, 1024, 200.0)
    base = float(rng.uniform(1.0, 1.5))
    for i, factor in enumerate((1.0, 1.7)):
        t = base * factor
        ops.append(Op(f"kernel-cauchy-{i}", lambda r, t=t: heatkernel.kernel(
            cauchy, per_round(t, r), g1c).values[0]))
        refs[f"kernel-cauchy-{i}"] = t

    # Duhamel with constant drift and damping, d = 2, the atomic measure
    rng = rng_for(seed, "duhamel")
    g2d = Grid(2, 128, TWO_PI)
    x = g2d.coordinates()
    modes2 = [tuple(int(c) for c in rng.integers(1, 4, size=2)) for _ in range(2)]
    phi = sum(np.cos(x @ np.array(k) + p)
              for k, p in zip(modes2, rng.uniform(0, TWO_PI, size=2)))
    phi2 = GridField(g2d, phi[None])
    cfg = SolverConfig(time_step=1.0 / 64)
    for i in range(2):
        theta = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        lam = float(rng.uniform(0.1, 1.0))
        problem = LinearProblem(atoms, DriftSchedule.constant(theta), lam,
                                None, phi2, horizon=0.5)
        ops.append(Op(f"duhamel-2d-{i}", lambda _, pr=problem:
                      linear_solver.duhamel_solve(pr, cfg)))
        refs[f"duhamel-2d-{i}"] = (np.array(theta), lam)

    # repeated semigroup applications, d = 1 constant-density DensityKernel
    rng = rng_for(seed, "density")
    value = float(rng.uniform(0.5, 1.5))
    density = levy.from_dict({
        "variant": "density_kernel", "alpha": 1.5, "dim": 1,
        "a_name": "constant", "a_params": {"value": value},
        "c1": value, "c2": value, "symmetric": True})
    g1d = Grid(1, 1024, 40.0)
    f1 = GridField(g1d, _bump(g1d, 1.0))
    modes1 = [(int(k),) for k in rng.choice(np.arange(1, 8), 2, replace=False)]
    for i, t in enumerate(rng.uniform(0.1, 0.5, size=3)):
        ops.append(Op(f"density-1d-{i}", lambda _, t=float(t): heatkernel.semigroup_apply(
            density, t, f1).values[0]))
        refs[f"density-1d-{i}"] = float(t)

    def check(outputs: dict) -> list:
        findings = []
        for j in range(1, SWEEP_STEPS + 1):
            name = f"sweep-3d-t{j}"
            t = refs[name]
            p, lp = outputs[name]
            findings.append(check_multiplier(
                name, g3, f3.values[0], p, modes3,
                lambda xi, t=t: np.exp(-t * psi3(xi)), MULTIPLIER_TOL))
            findings.append(check_multiplier(
                name, g3, p, lp, modes3, lambda xi: -psi3(xi), MULTIPLIER_TOL))
            findings.append(check_analytic_bound(name, t, f3.values[0], lp))
            if j > 1:
                first = GridField(g3, outputs[f"sweep-3d-t{j - 1}"][0])
                composed = heatkernel.semigroup_apply(iso3, step, first).values[0]
                findings.append(check_semigroup(name, composed, p))
        for i in range(4):
            name = f"kernel-atoms-{i}"
            findings.append(check_kernel_modes(name, g2k, outputs[name],
                                               refs[name], psi_atoms))
        for i in range(2):
            name = f"kernel-cauchy-{i}"
            findings.append(check_cauchy(name, g1c, outputs[name], refs[name]))
        for i in range(2):
            name = f"duhamel-2d-{i}"
            theta, lam = refs[name]
            frames = np.stack([fr.values[0] for fr in outputs[name].frames])
            findings.append(check_duhamel(name, g2d, frames, modes2,
                                          psi_atoms, theta, lam, cfg.time_step))
        for i in range(3):
            name = f"density-1d-{i}"
            t = refs[name]
            findings.append(check_multiplier(
                name, g1d, f1.values[0], outputs[name], modes1,
                lambda xi, t=t: np.exp(
                    -t * cf.psi_constant_density(1.5, 1, value, xi)),
                DENSITY_TOL))
        return findings

    return Workload(tuple(ops), check)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_multiplier(op, grid, before, after, modes, multiplier, tol):
    """after = m(D) before on each listed Fourier mode, m from the closed
    form."""
    worst = 0.0
    for k in modes:
        xi = cf.lattice_frequency(grid.side_length, k)
        want = complex(multiplier(xi[None])[0])
        worst = max(worst, abs(cf.mode_ratio(before, after, k) - want) / abs(want))
    return Finding(op, worst <= tol,
                   f"multiplier on modes {modes} vs closed form: {worst:.2e} "
                   f"relative (tol {tol:.0e})", "multiplier")


def check_analytic_bound(op, t, f, lp):
    """t |L P_t f| <= |f| / e for a real nonnegative symbol."""
    ratio = t * float(np.linalg.norm(lp)) / float(np.linalg.norm(f))
    return Finding(op, ratio <= 1.0 / math.e,
                   f"t|L P_t f|/|f| = {ratio:.4f} (bound 1/e)", "analytic")


def check_semigroup(op, composed, direct):
    rel = rel_l2(direct, composed)
    return Finding(op, rel <= SEMIGROUP_TOL,
                   f"P_s P_t f vs P_(s+t) f: {rel:.2e} relative L2 "
                   f"(tol {SEMIGROUP_TOL:.0e})", "semigroup")


def check_kernel_modes(op, grid, p, t, psi):
    """h^d sum_x p(x) e^{i xi.x} = E e^{i xi.X_t} = e^{-t psi(xi)}; mode 0
    is the unit mass."""
    co = np.fft.fftn(p) * grid.cell_volume           # sum p e^{-i xi x}
    worst = abs(co.flat[0] - 1.0)
    for k in ((1, 0), (0, 1), (2, 1), (-1, 3)):
        xi = cf.lattice_frequency(grid.side_length, k)
        want = np.conj(np.exp(-t * psi(xi[None])[0]))
        worst = max(worst, abs(co[k[0] % grid.points_per_axis,
                                  k[1] % grid.points_per_axis] - want))
    return Finding(op, worst <= MULTIPLIER_TOL,
                   f"characteristic function vs e^(-t psi): {worst:.2e} "
                   f"(tol {MULTIPLIER_TOL:.0e})", "kernel")


def check_cauchy(op, grid, p, t):
    """The Cauchy density t / (pi (t^2 + x^2)) summed over periodic images,
    i.e. the wrapped Cauchy density sinh(a) / (L (cosh(a) - cos(2 pi x/L)))
    with a = 2 pi t / L."""
    x = grid.coordinates()[..., 0]
    a = TWO_PI * t / grid.side_length
    per = math.sinh(a) / (grid.side_length
                          * (math.cosh(a) - np.cos(TWO_PI * x / grid.side_length)))
    l1 = float(np.sum(np.abs(p - per)) / np.sum(per))
    mass = abs(float(np.sum(p)) * grid.spacing - 1.0)
    ok = l1 <= CAUCHY_TOL and mass <= MASS_TOL
    return Finding(op, ok,
                   f"relative L1 vs periodised Cauchy {l1:.2e} (tol "
                   f"{CAUCHY_TOL:.0e}), mass - 1 {mass:.1e} (tol "
                   f"{MASS_TOL:.0e})", "kernel")


def check_duhamel(op, grid, frames, modes, psi, theta, lam, dt):
    """Each mode decays as e^{-t (psi(k) - i k.theta + lambda)}."""
    worst = 0.0
    for k in modes:
        xi = cf.lattice_frequency(grid.side_length, k)
        rate = complex(psi(xi[None])[0]) - 1j * float(xi @ theta) + lam
        for n in range(1, len(frames)):
            got = cf.mode_ratio(frames[0], frames[n], k)
            want = np.exp(-n * dt * rate)
            worst = max(worst, abs(got - want) / abs(want))
    return Finding(op, worst <= MULTIPLIER_TOL,
                   f"modes {modes} vs e^(-t(psi - ik.theta + lambda)): "
                   f"{worst:.2e} relative (tol {MULTIPLIER_TOL:.0e})",
                   "multiplier")
