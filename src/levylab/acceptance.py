"""Named acceptance checks.

Each check is a zero-argument callable returning a CheckResult; the pytest
acceptance suite and the ``levylab verify`` subcommand both run these.
Every check is deterministic (fixed seeds) and sized to run on a desktop.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import levy, stochastic
from .fieldgrid import (Grid, GridField, SpaceTimeField, gradient, inverse,
                        lp_norm, thread_count)
from .heatkernel import kernel, semigroup_apply
from .linear_solver import (LinearProblem, SolverConfig, drift_solve,
                            mollify, regularity_ratio)
from .nonlocal_op import OperatorRoute, apply as op_apply
from .quasilinear import HAMILTONIANS, burgers_solve, hamilton_jacobi_solve


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _iso1(mass: float = 1.0) -> levy.StableSpectral:
    return levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(1, mass))


# ---------------------------------------------------------------------------
# 1. symbol correctness
# ---------------------------------------------------------------------------

def check_symbol_stable() -> CheckResult:
    """d=1, alpha=1, isotropic mass 1: psi(xi) = (pi/2)|xi| to 1e-8 relative."""
    xi = np.linspace(-50.0, 50.0, 401)
    xi = xi[xi != 0.0][:, None]
    psi = levy.symbol_array(_iso1(), xi)
    target = 0.5 * np.pi * np.abs(xi[:, 0])
    rel = float(np.max(np.abs(psi - target) / target))
    return CheckResult("symbol-stable", rel < 1e-8,
                       f"max relative error {rel:.3e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 2. route equivalence
# ---------------------------------------------------------------------------

def _route_families(d: int):
    if d == 1:
        return {
            "isotropic": lambda a: levy.StableSpectral(
                a, levy.SphericalMeasure.isotropic(1, 1.0)),
            "two-atom": lambda a: levy.StableSpectral(
                a, levy.SphericalMeasure.discrete(
                    [((1.0,), 0.5), ((-1.0,), 0.5)])),
            "axes": lambda a: levy.DirectSumAxes(a, (0.5,)),
        }
    return {
        "isotropic": lambda a: levy.StableSpectral(
            a, levy.SphericalMeasure.isotropic(2, 1.0)),
        "two-atom": lambda a: levy.StableSpectral(
            a, levy.SphericalMeasure.discrete(
                [((0.6, 0.8), 0.5), ((-0.6, -0.8), 0.5)])),
        "axes": lambda a: levy.DirectSumAxes(a, (0.5, 0.8)),
    }


def check_route_equivalence() -> CheckResult:
    worst = 0.0
    worst_case = ""
    for d, n in ((1, 256), (2, 64)):
        g = Grid(d, n, 40.0)
        x = g.coordinates()
        c = 20.0
        bump = np.exp(-np.sum((x - c) ** 2, axis=-1))[None]
        f = GridField(g, bump)
        for fam, make in _route_families(d).items():
            for a in (0.5, 1.0, 1.5):
                m = make(a)
                um = op_apply(m, f, OperatorRoute.multiplier())
                uq = op_apply(m, f, OperatorRoute.quadrature())
                rel = (lp_norm(GridField(g, um.values - uq.values), 2)
                       / lp_norm(um, 2))
                if rel > worst:
                    worst, worst_case = rel, f"d={d} {fam} alpha={a}"
    return CheckResult("route-equivalence", worst < 1e-3,
                       f"worst relative L2 {worst:.3e} at {worst_case} "
                       f"(tol 1e-3)")


# ---------------------------------------------------------------------------
# 3. Cauchy kernel
# ---------------------------------------------------------------------------

def check_kernel_cauchy() -> CheckResult:
    m = _iso1(2.0 / np.pi)               # psi(xi) = |xi|
    g = Grid(1, 1024, 200.0)
    x = g.coordinates()[..., 0]
    details = []
    ok = True
    for t in (0.5, 1.0, 2.0):
        p = kernel(m, t, g)
        per = np.zeros_like(x)
        for n_img in range(-64, 65):
            per += t / (np.pi * (t ** 2 + (x + n_img * g.side_length) ** 2))
        l1 = float(np.sum(np.abs(p.values[0] - per)) * g.spacing)
        mass = float(np.sum(p.values[0]) * g.spacing)
        ok &= l1 < 1e-3 and abs(mass - 1.0) < 1e-6
        details.append(f"t={t}: L1 {l1:.2e}, mass-1 {mass - 1:.1e}")
    # scaling identity p_t(x) = lam * p_{lam t}(lam x) at lam = 2
    p1 = kernel(m, 1.0, g)
    g2 = Grid(1, 1024, 400.0)
    p2 = kernel(m, 2.0, g2)
    l1s = float(np.sum(np.abs(p1.values[0] - 2.0 * p2.values[0])) * g.spacing)
    ok &= l1s < 1e-4
    details.append(f"scaling L1 {l1s:.2e}")
    return CheckResult("kernel-cauchy", ok,
                       "; ".join(details) + " (tols 1e-3 / 1e-6 / 1e-4)")


# ---------------------------------------------------------------------------
# 4. maximum principle
# ---------------------------------------------------------------------------

def check_max_principle() -> CheckResult:
    g = Grid(1, 128, 2 * np.pi)
    x = g.coordinates()[..., 0]
    m = _iso1(2.0 / np.pi)
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(10):
        c = rng.normal(size=5)

        def b(t, X, c=c):
            return (c[0] * np.sin(X) + c[1] * np.cos(2 * X)
                    + c[2] * np.sin(3 * X + c[3]) + 0.2 * c[4] * np.cos(t))

        phi = mollify(GridField(g, rng.normal(size=(1,) + g.shape)), 0.5)
        n_steps = 64
        dt = 0.3 / n_steps
        fneg = -np.abs(rng.normal(size=(n_steps + 1, 1) + g.shape))
        pr = LinearProblem(m, b, 0.0, SpaceTimeField.from_array(dt, g, fneg),
                           phi, 0.3)
        u = drift_solve(pr, SolverConfig(time_step=dt, mollifier_width=0.2))
        sup_u = float(u.values.max())
        sup_phi = float(mollify(phi, 0.2).values.max())
        worst = max(worst, sup_u - sup_phi)
    return CheckResult("max-principle", worst <= 1e-6,
                       f"worst sup u - sup phi = {worst:.3e} over 10 random "
                       f"problems (tol 1e-6)")


# ---------------------------------------------------------------------------
# 5. maximal-regularity stability
# ---------------------------------------------------------------------------

def check_regularity_stability() -> CheckResult:
    g = Grid(1, 256, 2 * np.pi)
    two_atom = levy.StableSpectral(1.0, levy.SphericalMeasure.discrete(
        [((1.0,), 0.5), ((-1.0,), 0.5)]))
    pairs = [
        (_iso1(), _iso1()),
        (_iso1(), levy.StableSpectral(1.0, levy.SphericalMeasure.discrete(
            [((1.0,), 0.35), ((-1.0,), 0.35)]))),
        (two_atom, levy.DirectSumAxes(1.0, (0.6,))),
    ]
    rng = np.random.default_rng(7)
    forcings = []
    n = g.points_per_axis
    for _ in range(5):
        coeff = np.zeros(n // 2 + 1, dtype=complex)
        band = np.arange(96, 128)
        coeff[band] = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
        vals = inverse(g, coeff)
        n_steps = 64
        forcings.append(SpaceTimeField.from_array(
            0.5 / n_steps, g, np.broadcast_to(vals, (n_steps + 1, 1, n))))

    lambdas = (0.0, 1.0, 10.0, 100.0)
    jobs = [(i, j, lam) for i in range(len(pairs))
            for j in range(len(forcings)) for lam in lambdas]

    def one(job):
        i, j, lam = job
        nu1, nu2 = pairs[i]
        return regularity_ratio(nu1, nu2, lam, forcings[j], 2.0, 2.0)

    with ThreadPoolExecutor(max_workers=thread_count()) as ex:
        ratios = list(ex.map(one, jobs))
    table = {}
    for (i, j, lam), r in zip(jobs, ratios):
        table.setdefault((i, j), []).append(r)
    spread = max(max(v) / min(v) for v in table.values())

    # per-mode closed form
    mode_err = 0.0
    dt = 1.0 / 2048
    n_frames = int(round(4.0 / dt)) + 1
    x = g.coordinates()[..., 0]
    omega = 2 * np.pi
    k = np.arange(n_frames)[:, None, None]
    fst = SpaceTimeField.from_array(dt, g, np.cos(omega * k * dt - 8 * x))
    for lam in (0.0, 1.0):
        r = regularity_ratio(_iso1(2 / np.pi), _iso1(2 / np.pi), lam, fst,
                             2.0, 2.0, burn_in=2.0)
        psi_k = levy.symbol(_iso1(2 / np.pi), np.array([8.0]))
        exact = abs(psi_k) / abs(psi_k + 1j * omega + lam)
        mode_err = max(mode_err, abs(r - exact))
    ok = spread < 2.0 and mode_err < 1e-6
    return CheckResult("regularity-stability", ok,
                       f"lambda-sweep max/min {spread:.3f} (tol 2), per-mode "
                       f"closed-form error {mode_err:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 6. Riesz / domain equivalence
# ---------------------------------------------------------------------------

def _band_limited_fields(g: Grid, count: int, seed: int, kmax: int = 10):
    rng = np.random.default_rng(seed)
    n = g.points_per_axis
    out = []
    for _ in range(count):
        coeff = np.zeros(g.shape, dtype=complex)
        for _ in range(12):
            k = rng.integers(-kmax, kmax + 1, size=g.dim)
            if not np.any(k):
                continue
            amp = rng.normal() + 1j * rng.normal()
            coeff[tuple(k % n)] += amp
            coeff[tuple((-k) % n)] += np.conj(amp)
        half = np.ascontiguousarray(coeff[None, ..., :n // 2 + 1])
        field = GridField._adopt(g, inverse(g, half), half)
        if np.max(np.abs(field.values)) > 0:
            out.append(field)
    return out


def check_riesz() -> CheckResult:
    g = Grid(2, 64, 2 * np.pi)
    m = levy.StableSpectral(1.0, levy.SphericalMeasure.discrete([
        ((1.0, 0.0), 0.6), ((-1.0, 0.0), 0.6),
        ((0.0, 1.0), 0.25), ((0.0, -1.0), 0.25),
        ((np.sqrt(0.5), np.sqrt(0.5)), 0.35),
        ((-np.sqrt(0.5), -np.sqrt(0.5)), 0.35)]))

    def ratio(f):
        num = lp_norm(op_apply(m, f), 2)
        return num / lp_norm(GridField(g, gradient(f)[0]), 2)

    # calibration family: 12 single-mode fields at spread directions (the
    # ratio of a mixed field is a weighted mean of single-mode ratios, so
    # anchoring the directional extremes makes the band representative)
    # plus 8 random mixed fields
    x = g.coordinates()
    singles = []
    for (p, q) in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1),
                   (1, 3), (3, 2), (2, 3), (5, 3), (4, 1), (1, 4)):
        singles.append(GridField(
            g, np.cos(p * x[..., 0] + q * x[..., 1])[None]))
    calib = [ratio(f) for f in
             singles + _band_limited_fields(g, 8, seed=1)]
    fresh = [ratio(f) for f in _band_limited_fields(g, 20, seed=2)]
    lo, hi = min(calib), max(calib)
    ok = all(lo / 1.1 <= r <= hi * 1.1 for r in fresh)
    return CheckResult("riesz", ok,
                       f"fitted ratio band [{lo:.4f}, {hi:.4f}], fresh family "
                       f"range [{min(fresh):.4f}, {max(fresh):.4f}] "
                       f"(10% slack)")


# ---------------------------------------------------------------------------
# 7. analytic-semigroup decay
# ---------------------------------------------------------------------------

def check_semigroup_decay() -> CheckResult:
    m = _iso1(2.0 / np.pi)
    ts = np.geomspace(1e-2, 1.0, 15)
    sups = {}
    for n in (256, 512):
        g = Grid(1, n, 40.0)
        x = g.coordinates()[..., 0]
        vals = []
        for width in (0.4, 0.8, 1.6):
            f = GridField(g, np.exp(-((x - 20.0) / width) ** 2)[None])
            best = 0.0
            for t in ts:
                pf = semigroup_apply(m, float(t), f)
                best = max(best, float(t) * lp_norm(op_apply(m, pf), 2)
                           / lp_norm(f, 2))
            vals.append(best)
        sups[n] = vals
    drift = max(abs(a - b) / b for a, b in zip(sups[256], sups[512]))
    finite = all(np.isfinite(v) for v in sups[256] + sups[512])
    return CheckResult("semigroup-decay", finite and drift < 0.2,
                       f"sup_t t|L P_t f|/|f| = "
                       f"{[f'{v:.3f}' for v in sups[512]]}, refinement drift "
                       f"{drift:.3%} (tol 20%)")


# ---------------------------------------------------------------------------
# 8. Feynman-Kac cross-validation
# ---------------------------------------------------------------------------

def check_feynman_kac() -> CheckResult:
    L = 120.0
    g = Grid(1, 1024, L)
    x = g.coordinates()[..., 0]
    m = _iso1(2.0 / np.pi)
    phi = GridField(g, np.exp(-0.5 * (x - L / 2) ** 2)[None])
    t = 0.8
    ref = semigroup_apply(m, t, phi)
    probes = (512, 520, 490, 555, 509)
    zmax = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stochastic.DomainExitWarning)
        for idx in probes:
            est, se = stochastic.feynman_kac(
                phi, None, None, m, t, [idx * g.spacing], 100000, 123,
                n_steps=4)
            zmax = max(zmax, abs(est - ref.values[0][idx]) / se)

        def b_grid(tt, X):
            return 0.5 * np.sin(2 * np.pi * X / L) * np.cos(tt)

        n_steps = 256
        dt = t / n_steps
        fvals = (np.sin(2 * np.pi * (x - L / 2) / L) ** 2
                 * np.exp(-0.1 * (x - L / 2) ** 2))[None]
        fst = SpaceTimeField.from_array(
            dt, g, np.broadcast_to(fvals, (n_steps + 1,) + fvals.shape))
        u = drift_solve(LinearProblem(m, b_grid, 0.0, fst, phi, t),
                        SolverConfig(time_step=dt))
        drift_worst = 0.0
        drift_ok = True
        for idx in probes[:3]:
            est, se = stochastic.feynman_kac(
                phi, fst, b_grid, m, t, [idx * g.spacing], 100000, 321,
                n_steps=64)
            diff = abs(est - u.final().values[0][idx])
            drift_worst = max(drift_worst, diff)
            drift_ok &= diff < max(3 * se, 1e-2)
    ok = zmax < 3.0 and drift_ok
    return CheckResult("feynman-kac", ok,
                       f"b=0 worst |z| {zmax:.2f} (tol 3); drifted worst "
                       f"|diff| {drift_worst:.4f} (tol max(3se, 1e-2))")


# ---------------------------------------------------------------------------
# 9. stable sampling law
# ---------------------------------------------------------------------------

def check_sampling_law() -> CheckResult:
    from scipy import stats
    rng = np.random.Generator(np.random.Philox(key=99))
    iso = levy.SphericalMeasure.isotropic(1, 2 / np.pi)
    inc = stochastic.sample_stable_increment(iso, 1.0, 1.0, rng,
                                             size=100000)[:, 0]
    ks_cauchy = float(stats.kstest(inc, stats.cauchy.cdf).statistic)
    at1 = levy.SphericalMeasure.discrete([((1.0,), 0.5), ((-1.0,), 0.5)])
    a = 1.3
    i1 = stochastic.sample_stable_increment(at1, a, 0.2, rng,
                                            size=100000)[:, 0]
    i2 = 0.2 ** (1 / a) * stochastic.sample_stable_increment(
        at1, a, 1.0, rng, size=100000)[:, 0]
    ks_scale = float(stats.ks_2samp(i1, i2).statistic)
    ok = ks_cauchy < 0.02 and ks_scale < 0.02
    return CheckResult("sampling-law", ok,
                       f"Cauchy KS {ks_cauchy:.4f}, self-similarity KS "
                       f"{ks_scale:.4f} (tol 0.02)")


# ---------------------------------------------------------------------------
# 10. Krylov boundedness
# ---------------------------------------------------------------------------

def check_krylov() -> CheckResult:
    L = 80.0
    g = Grid(1, 1024, L)
    x = g.coordinates()[..., 0]
    m = _iso1(2.0 / np.pi)
    T = 0.5
    n_steps = 64
    dt = T / n_steps
    ratios = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stochastic.DomainExitWarning)
        for r in (2.0, 1.0, 0.5, 0.25):
            ind = (np.abs(x - L / 2) <= r).astype(float)[None]
            fst = SpaceTimeField.from_array(
                dt, g, np.broadcast_to(ind, (n_steps + 1,) + ind.shape))
            lhs, fnorm = stochastic.krylov_check(
                None, m, fst, 3.0, 100000, 17, x0=[L / 2], n_steps=n_steps)
            ratios.append(lhs / fnorm)
    spread = max(ratios) / min(ratios)
    return CheckResult("krylov", spread < 3.0,
                       f"occupation/|f|_Lp ratios "
                       f"{[f'{v:.3f}' for v in ratios]}, max/min "
                       f"{spread:.2f} (tol 3)")


# ---------------------------------------------------------------------------
# 11. Burgers
# ---------------------------------------------------------------------------

def check_burgers() -> CheckResult:
    m = _iso1(2.0 / np.pi)
    g = Grid(1, 256, 2 * np.pi)
    x = g.coordinates()[..., 0]
    const = burgers_solve(GridField(g, np.full((1,) + g.shape, 0.7)), m, 0.5,
                          SolverConfig(time_step=1 / 64))
    const_dev = float(np.abs(const.values - 0.7).max())
    u = burgers_solve(GridField(g, np.sin(x)[None]), m, 0.5,
                      SolverConfig(time_step=1 / 256, picard_tol=1e-9))
    sup = float(np.abs(u.values).max())
    masses = u.values.sum(axis=(1, 2)) * g.cell_volume
    mass_dev = float(np.abs(masses - masses[0]).max()) / max(
        1.0, abs(float(masses[0])))
    g4 = Grid(1, 1024, 2 * np.pi)
    x4 = g4.coordinates()[..., 0]
    u4 = burgers_solve(GridField(g4, np.sin(x4)[None]), m, 0.5,
                       SolverConfig(time_step=1 / 512, picard_tol=1e-9))
    fine = u4.final().values[0][::4]
    coarse = u.final().values[0]
    rel = lp_norm(GridField(g, fine - coarse), 2) / lp_norm(
        GridField(g, fine), 2)
    ok = (const_dev <= 1e-10 and sup <= 1.0 + 1e-6 and mass_dev <= 1e-6
          and rel < 1e-3)
    return CheckResult("burgers", ok,
                       f"const dev {const_dev:.1e} (1e-10), sup ratio "
                       f"{sup:.6f} (<=1+1e-6), mass dev {mass_dev:.1e} "
                       f"(1e-6), self-convergence {rel:.2e} (1e-3)")


# ---------------------------------------------------------------------------
# 12. Hamilton-Jacobi
# ---------------------------------------------------------------------------

def check_hamilton_jacobi() -> CheckResult:
    m = _iso1(2.0 / np.pi)
    g = Grid(1, 256, 2 * np.pi)
    x = g.coordinates()[..., 0]
    phi = GridField(g, (np.cos(x) + 0.3 * np.sin(2 * x))[None])
    cfg = SolverConfig(time_step=1 / 256, picard_tol=1e-9)
    traj = hamilton_jacobi_solve(HAMILTONIANS["quadratic"](), phi, m, 0.5,
                                 cfg, return_augmented=True)
    final = traj.final()
    grad_u = gradient(GridField(g, final.values[:1]))[0]
    defect = lp_norm(GridField(g, grad_u - final.values[1:]), 2)
    q0 = GridField(g, gradient(phi)[0])
    ub = burgers_solve(q0, m, 0.5, cfg)
    cross = lp_norm(GridField(g, final.values[1] - ub.final().values[0]), 2)
    ok = defect < 1e-3 and cross < 1e-3
    return CheckResult("hamilton-jacobi", ok,
                       f"gradient-augmentation defect {defect:.2e}, 1D "
                       f"Burgers cross-check {cross:.2e} (tols 1e-3)")


CHECKS = {
    "symbol-stable": check_symbol_stable,
    "route-equivalence": check_route_equivalence,
    "kernel-cauchy": check_kernel_cauchy,
    "max-principle": check_max_principle,
    "regularity-stability": check_regularity_stability,
    "riesz": check_riesz,
    "semigroup-decay": check_semigroup_decay,
    "feynman-kac": check_feynman_kac,
    "sampling-law": check_sampling_law,
    "krylov": check_krylov,
    "burgers": check_burgers,
    "hamilton-jacobi": check_hamilton_jacobi,
}
