"""Every workload check accepts levylab's answer and rejects a deliberately
wrong one; the closed-form references agree with direct quadrature of
their defining integrals.

    python3 -m pytest -q perfbench/tests
"""

import math
import os

os.environ.update({"LEVYLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "OMP_NUM_THREADS": "1"})

import numpy as np                                          # noqa: E402
import pytest                                               # noqa: E402
from scipy.integrate import quad                            # noqa: E402

import closed_forms as cf                                   # noqa: E402
import critical_pde                                         # noqa: E402
import monte_carlo                                          # noqa: E402
import operator_routes                                      # noqa: E402
import spectral_sweep                                       # noqa: E402
from levylab.fieldgrid import GridField                     # noqa: E402
from worker import tally                                    # noqa: E402

SEED = 11


def run_ops(workload, keep=None):
    return {op.name: op.fn(0) for op in workload.ops
            if keep is None or keep(op.name)}


def by_check(findings, op, check=None):
    return [f for f in findings if f.op == op and (check is None or f.check == check)]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("s", [-2.3, 0.7])
def test_psi_atoms_matches_defining_integral(alpha, s):
    """psi = int_0^inf (1 + i s r 1_comp - e^{i s r}) r^{-1-a} dr."""
    comp = (lambda r: 1.0) if alpha > 1 else (
        (lambda r: float(r <= 1.0)) if alpha == 1 else (lambda r: 0.0))
    # split at r = 1; the oscillatory tails use quad's Fourier weights
    re = (quad(lambda r: (1 - math.cos(s * r)) * r ** (-1 - alpha), 0, 1,
               limit=500)[0]
          + 1 / alpha
          - quad(lambda r: r ** (-1 - alpha), 1, np.inf, weight="cos",
                 wvar=s)[0])
    head = quad(lambda r: (s * r * comp(r) - math.sin(s * r)) * r ** (-1 - alpha),
                0, 1, limit=500)[0]
    tail = -quad(lambda r: r ** (-1 - alpha), 1, np.inf, weight="sin",
                 wvar=s)[0]
    if alpha > 1:
        tail += s / (alpha - 1)            # int_1^inf s r^{-a} dr
    want = re + 1j * (head + tail)
    got = cf.psi_atoms(alpha, [[1.0]], [1.0], np.array([[s]]))[0]
    assert abs(got - want) < 1e-6 * abs(want)


def test_isotropic_constant_matches_sphere_average():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal((400000, 3))
    theta /= np.linalg.norm(theta, axis=1)[:, None]
    mc = np.mean(np.abs(theta[:, 0]) ** 1.5)
    assert abs(cf.isotropic_moment(3, 1.5) - mc) < 5e-3


def test_gaussian_cauchy_expectation_matches_voigt():
    from scipy.special import voigt_profile
    offset, sigma, scale, period = 0.4, 1.0, 0.8, 120.0
    n = np.arange(-200000, 200001) * period
    want = sigma * math.sqrt(2 * math.pi) * float(np.sum(
        voigt_profile(offset + n, sigma, scale)))
    got = cf.cauchy_gaussian_expectation(offset, sigma, scale, period)
    assert abs(got - want) < 1e-9


# ---------------------------------------------------------------------------
# critical-pde
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pde():
    wl = critical_pde.build(SEED)
    return wl, run_ops(wl)


def test_pde_checks_pass(pde):
    wl, out = pde
    findings = wl.check(out)
    assert all(f.ok for f in findings), [f for f in findings if not f.ok]


def test_pde_mean_moved_by_1e5_is_rejected(pde):
    frames = critical_pde.frames_of(pde[1]["burgers-1d"])
    assert critical_pde.check_mean("x", frames).ok
    frames[-1] += 1e-5
    assert not critical_pde.check_mean("x", frames).ok


def test_pde_sup_overshoot_is_rejected(pde):
    frames = critical_pde.frames_of(pde[1]["burgers-1d-x1only"])
    sup = np.max(np.abs(frames[0]), axis=-1)
    assert not critical_pde.check_sup("x", frames, sup - 1e-5).ok


def test_pde_linear_mode_with_psi_scaled_is_rejected():
    g_k, amp, dt, n = 2, critical_pde.LINEAR_AMPLITUDE, critical_pde.DT, 33
    x = np.linspace(0, 2 * math.pi, 64, endpoint=False)

    def ref(t, speed=g_k):
        return amp * np.exp(-t * speed) * np.cos(g_k * x)[None]

    wrong = np.stack([ref(i * dt, 1.01 * g_k) for i in range(n)])
    assert critical_pde.check_linear_mode("x", np.stack(
        [ref(i * dt) for i in range(n)]), ref, g_k, dt).ok
    assert not critical_pde.check_linear_mode("x", wrong, ref, g_k, dt).ok


def test_pde_reduction_and_hamilton_jacobi_reject_offsets(pde):
    out = pde[1]
    two = critical_pde.frames_of(out["burgers-2d-x1only"])
    one = critical_pde.frames_of(out["burgers-1d-x1only"])
    two[:, 0] += 1e-8
    assert not critical_pde.check_reduction(two, one).ok
    hj = critical_pde.frames_of(out["hamilton-jacobi-2d"])
    bu = critical_pde.frames_of(out["burgers-2d-from-grad"])
    assert not critical_pde.check_hamilton_jacobi(hj, bu * (1 + 1e-6)).ok


# ---------------------------------------------------------------------------
# operator-routes (d = 1 stable families; the d = 2 quadrature takes
# seconds per case and runs in the benchmark itself)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def routes():
    wl = operator_routes.build(SEED)
    keep = (lambda name: name.startswith("1d-")
            and "density" not in name)
    return wl, run_ops(wl, keep)


def test_routes_only_the_tail_clamp_cases_fail(routes):
    wl, out = routes
    findings = wl.check(out)
    bad = {f.op for f in findings if not f.ok}
    assert bad == {"1d-one-atom-a1.5", "1d-skew-a1.5"}
    correct, attempted, failed = tally(wl, findings, rounds=3)
    assert correct and attempted == 3 * len(wl.ops) and failed == 6


def test_routes_reject_psi_scaled_by_1_01(routes):
    wl, out = routes
    name = "1d-isotropic-a1.0"
    f, um, uq = out[name]
    assert operator_routes.check_routes(name, um, uq).ok
    assert not operator_routes.check_routes(name, 1.01 * um, uq).ok
    wrong = dict(out)
    wrong[name] = (f, 1.01 * um, uq)
    symbol = by_check(wl.check(wrong), name, "symbol")[0]
    assert not symbol.ok
    correct, _, _ = tally(wl, wl.check(wrong), rounds=1)
    assert not correct


# ---------------------------------------------------------------------------
# spectral-sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    wl = spectral_sweep.build(SEED)
    return wl, run_ops(wl)


def test_sweep_checks_pass(sweep):
    wl, out = sweep
    findings = wl.check(out)
    assert all(f.ok for f in findings), [f for f in findings if not f.ok]


def _stretch(p, scale):
    """A kernel whose symbol is scaled by ``scale``: its discrete
    characteristic function raised to the power ``scale``."""
    co = np.fft.fftn(p)
    return np.fft.ifftn(co.flat[0] * (co / co.flat[0]) ** scale).real


def test_sweep_rejects_wrong_answers(sweep):
    wl, out = sweep

    def rejected(name, value):
        return not all(f.ok for f in wl.check(dict(out, **{name: value}))
                       if f.op == name)

    p, lp = out["sweep-3d-t2"]
    assert rejected("sweep-3d-t2", (p, 1.01 * lp))        # L with 1.01 psi
    assert rejected("sweep-3d-t2", (1.001 * p, lp))
    for name in ("kernel-atoms-1", "kernel-cauchy-0"):
        assert np.allclose(_stretch(out[name], 1.0), out[name], atol=1e-14)
        assert rejected(name, _stretch(out[name], 1.01)), name
    assert rejected("density-1d-0", 1.001 * out["density-1d-0"])
    traj = out["duhamel-2d-0"]
    scaled = [GridField(fr.grid, 1.001 * fr.values) for fr in traj.frames[1:]]
    assert rejected("duhamel-2d-0",
                    type(traj)(traj.time_step, (traj.frames[0], *scaled)))


def test_semigroup_check_rejects_wrong_composition(sweep):
    wl, out = sweep
    p2 = out["sweep-3d-t2"][0]
    assert not spectral_sweep.check_semigroup("x", p2, p2 * (1 + 1e-6)).ok


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mc():
    import warnings
    wl = monte_carlo.build(SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wl, run_ops(wl)


def test_mc_checks_pass(mc):
    wl, out = mc
    findings = wl.check(out)
    assert all(f.ok for f in findings), [f for f in findings if not f.ok]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_mc_estimate_six_standard_errors_off_is_rejected(mc, sign):
    wl, out = mc
    for name in ("fk-1d-cauchy", "fk-2d-axes", "krylov-indicator"):
        findings = by_check(wl.check(out), name, "estimate")
        assert findings[0].ok
        detail = findings[0].detail
        ref = float(detail.split("reference ")[1].split(":")[0])
        if name == "krylov-indicator":
            se = 0.5 / (2 * math.sqrt(monte_carlo.KRYLOV_PATHS))
            wrong = dict(out, **{name: (ref + sign * 6 * se, out[name][1])})
        else:
            se = out[name][1]
            wrong = dict(out, **{name: (ref + sign * 6 * se, se)})
        assert not by_check(wl.check(wrong), name, "estimate")[0].ok, name
