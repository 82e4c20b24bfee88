"""The real-to-complex spectral core: every single-application routine
against a complex-FFT reference on white noise, the multiplier cache, real
multipliers for symmetric measures, and the rule that only ``fieldgrid``
runs transforms."""

import ast
import importlib
import inspect
import pkgutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import levylab
from levylab import fieldgrid as fg
from levylab import heatkernel, levy, linear_solver, nonlocal_op
from levylab.errors import InvalidArgument
from levylab.fieldgrid import Grid, GridField
from levylab.heatkernel import DriftSchedule
from levylab.nonlocal_op import OperatorRoute

CASES = [(d, n) for d in (1, 2, 3) for n in (8, 16)]


# ---------------------------------------------------------------------------
# complex-FFT reference: Re(ifftn(H(m) fftn f)) with H the Hermitian part
# ---------------------------------------------------------------------------

def _hermitian_part(mult):
    rev = mult
    for ax in range(mult.ndim):
        rev = np.roll(np.flip(rev, axis=ax), 1, axis=ax)
    return 0.5 * (mult + np.conj(rev))


def _full_frequencies(g):
    xi = g.axis_frequencies()
    return np.stack(np.meshgrid(*([xi] * g.dim), indexing="ij"), axis=-1)


def _reference(g, values, mult):
    axes = tuple(range(1, g.dim + 1))
    co = np.fft.fftn(values, axes=axes) * _hermitian_part(mult)
    return np.fft.ifftn(co, axes=axes).real


def _atoms(d, alpha=1.3):
    """Three non-symmetric atoms: psi has an odd imaginary part."""
    rng = np.random.default_rng(10 + d)
    dirs = rng.normal(size=(3, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return levy.StableSpectral(alpha, levy.SphericalMeasure.discrete(
        [(tuple(v), w) for v, w in zip(dirs, (0.3, 0.5, 0.7))], dim=d))


def _noise(g, seed=0):
    rng = np.random.default_rng(seed)
    return GridField(g, rng.normal(size=(1,) + g.shape))


def _close(got, want):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("d,n", CASES)
def test_operator_routes_match_reference(d, n):
    g = Grid(d, n, 6.0)
    f = _noise(g)
    m = _atoms(d)
    xi = _full_frequencies(g)
    psi = levy.symbol_array(m, xi)
    _close(nonlocal_op.apply(m, f).values, _reference(g, f.values, -psi))
    route = OperatorRoute.quadrature(40)
    quad = nonlocal_op._quadrature_multiplier(
        m, g, route, xi.reshape(-1, d)).reshape(g.shape)
    _close(nonlocal_op.apply(m, f, route).values,
           _reference(g, f.values, quad))
    # the adjoint is the operator of the reflected atoms, built here so that
    # the reference shares nothing with the conjugation in adjoint_apply
    dirs, wts = m.sigma.atom_arrays()
    reflected = levy.StableSpectral(m.alpha, levy.SphericalMeasure.discrete(
        [(tuple(-v), w) for v, w in zip(dirs, wts)], dim=d))
    psi_adj = levy.symbol_array(reflected, xi)
    _close(nonlocal_op.adjoint_apply(m, f).values,
           _reference(g, f.values, -psi_adj))


@pytest.mark.parametrize("d,n", CASES)
def test_heat_routines_match_reference(d, n):
    g = Grid(d, n, 6.0)
    f = _noise(g, 1)
    m = _atoms(d)
    xi = _full_frequencies(g)
    psi = levy.symbol_array(m, xi)
    _close(heatkernel.semigroup_apply(m, 0.3, f).values,
           _reference(g, f.values, np.exp(-0.3 * psi)))
    # Duhamel steps of 0.05 with the breakpoint 0.1 on a step edge; the
    # Nyquist rule acts on each step's multiplier
    drift = DriftSchedule((0.1,), ((0.4,) * d, (-0.7,) * d))
    problem = linear_solver.LinearProblem(m, drift, 0.3, None, f, 0.4)
    traj = linear_solver.duhamel_solve(
        problem, linear_solver.SolverConfig(time_step=0.05))
    want = f.values
    for step, frame in enumerate(traj.frames[1:]):
        theta = np.full(d, 0.4 if step < 2 else -0.7)
        want = _reference(g, want, np.exp(
            -0.05 * (psi - 1j * (xi @ theta) + 0.3)))
        _close(frame.values, want)
    gk = Grid(d, n, 3.0)
    mult = _hermitian_part(np.exp(-2.0 * np.conj(
        levy.symbol_array(m, _full_frequencies(gk)))))
    want = np.fft.ifftn(mult).real / gk.cell_volume
    _close(heatkernel.kernel(m, 2.0, gk).values[0], want)


@pytest.mark.parametrize("d,n", CASES)
def test_field_routines_match_reference(d, n):
    g = Grid(d, n, 6.0)
    f = _noise(g, 2)
    xi = _full_frequencies(g)
    grad = fg.gradient(f)
    for j in range(d):
        _close(grad[:, j], _reference(g, f.values, 1j * xi[..., j]))
    bessel = _reference(g, f.values, (1.0 + np.sum(xi ** 2, axis=-1)) ** 0.65)
    assert fg.bessel_norm(f, 1.3, 2) == pytest.approx(
        fg.lp_norm(GridField(g, bessel), 2), rel=1e-12)
    # refinement: zero-pad the centred complex spectrum, keep the real part
    axes = tuple(range(1, d + 1))
    co = np.fft.fftshift(np.fft.fftn(f.values, axes=axes), axes=axes)
    co = np.fft.ifftshift(np.pad(co, [(0, 0)] + [(n // 2, n // 2)] * d),
                          axes=axes)
    _close(fg.refine(f, 2).values,
           np.fft.ifftn(co, axes=axes).real * 2 ** d)
    # mollifier: the bump rho_eps centred at the origin, unit discrete mass
    eps = 1.7
    x = g.coordinates()
    centred = np.where(x > g.side_length / 2, x - g.side_length, x)
    r2 = np.sum(centred ** 2, axis=-1) / eps ** 2
    with np.errstate(divide="ignore"):
        rho = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - r2)),
                       0.0)
    rho /= rho.sum() * g.cell_volume
    _close(linear_solver.mollify(f, eps).values,
           _reference(g, f.values, np.fft.fftn(rho) * g.cell_volume))


# ---------------------------------------------------------------------------
# multiplier cache
# ---------------------------------------------------------------------------

_ENTRY_POINTS = {
    "adjoint": nonlocal_op.adjoint_apply,
    "kernel": lambda m, f: heatkernel.kernel(m, 1.0, f.grid),
    "semigroup": lambda m, f: heatkernel.semigroup_apply(m, 0.5, f),
    "duhamel": lambda m, f: linear_solver.duhamel_solve(
        linear_solver.LinearProblem(m, DriftSchedule.zero(1), 0.0, None, f,
                                    0.5),
        linear_solver.SolverConfig(time_step=0.25)),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS.values(),
                         ids=_ENTRY_POINTS.keys())
def test_measure_of_another_dimension_is_rejected(entry):
    # the check sits in multiplier, which every spectral entry point calls
    m = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(2, 1.0))
    with pytest.raises(InvalidArgument, match="measure dim 2, grid dim 1"):
        entry(m, _noise(Grid(1, 16, 6.0)))


def _constant_density(value):
    return levy.DensityKernel(
        1.0, 1, lambda y: np.full(np.asarray(y).shape[:-1], value), 0.5, 2.0)


def test_distinct_densities_get_distinct_kernels():
    # the same (alpha, dim, c1, c2) but densities 1 and 2
    g = Grid(1, 256, 60.0)
    p1 = heatkernel.kernel(_constant_density(1.0), 1.0, g).values
    p2 = heatkernel.kernel(_constant_density(2.0), 1.0, g).values
    assert np.max(np.abs(p1 - p2)) > 0.04


def test_cached_multiplier_is_read_only_and_reused():
    g = Grid(2, 16, 4.0)
    route = OperatorRoute.multiplier()
    mult = nonlocal_op.multiplier(_atoms(2), g, route)
    assert nonlocal_op.multiplier(_atoms(2), g, route) is mult
    # the half spectrum and xi' for each of its 16 + 9 - 1 Nyquist entries
    assert mult.shape == (16 * 9 + 24,)
    assert not mult.flags.writeable
    with pytest.raises(ValueError):
        mult[...] = 0.0


def test_multiplier_cache_is_bounded():
    g = Grid(1, 16, 4.0)
    route = OperatorRoute.multiplier()
    for k in range(nonlocal_op.MULTIPLIER_CACHE_SIZE + 5):
        m = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(
            1, 1.0 + k))
        nonlocal_op.multiplier(m, g, route)
        info = nonlocal_op.multiplier.cache_info()
        assert info.currsize <= nonlocal_op.MULTIPLIER_CACHE_SIZE
    assert info.maxsize == nonlocal_op.MULTIPLIER_CACHE_SIZE


def test_every_parameterised_cache_is_bounded():
    # an lru_cache without maxsize keeps every argument it has seen for the
    # life of the process; one of a function without parameters holds one
    sizes = {}
    for info in pkgutil.iter_modules(levylab.__path__):
        module = importlib.import_module(f"levylab.{info.name}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_parameters")
                    and obj.__module__ == module.__name__
                    and inspect.signature(obj).parameters):
                sizes[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert "nonlocal_op.multiplier" in sizes
    assert [name for name, size in sizes.items() if size is None] == []


def test_multiplier_cache_under_threads():
    # more threads than cores and more measures than cache entries, so
    # that entries are evicted while other threads read them
    g = Grid(1, 64, 4.0)
    f = _noise(g, 3)
    measures = [levy.StableSpectral(1.0 + 0.02 * k, levy.SphericalMeasure
                                    .isotropic(1, 1.0))
                for k in range(nonlocal_op.MULTIPLIER_CACHE_SIZE + 8)]
    want = [nonlocal_op.apply(m, f).values for m in measures]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(nonlocal_op.apply, m, f)
                       for m in measures * 4]
            got = [fut.result(timeout=60).values for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, values in enumerate(got):
        np.testing.assert_array_equal(values, want[k % len(measures)])
    info = nonlocal_op.multiplier.cache_info()
    assert info.currsize <= nonlocal_op.MULTIPLIER_CACHE_SIZE


# ---------------------------------------------------------------------------
# real multipliers for symmetric measures
# ---------------------------------------------------------------------------

def _paired_atoms(d, alpha=1.3):
    """d +/- atom pairs of unequal weights in general position."""
    rng = np.random.default_rng(20 + d)
    dirs = rng.normal(size=(d, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    atoms = [(tuple(s * v), w) for v, w in zip(dirs, (0.4, 0.9, 0.6))
             for s in (1.0, -1.0)]
    return levy.StableSpectral(alpha, levy.SphericalMeasure.discrete(atoms,
                                                                     dim=d))


def _symmetric_measures(d):
    return {"isotropic": levy.StableSpectral(1.5, levy.SphericalMeasure
                                             .isotropic(d, 1.2)),
            "paired-atoms": _paired_atoms(d),
            "axes": levy.DirectSumAxes(0.8, [0.5 + 0.3 * j for j in range(d)])}


def _skewed_density():
    return levy.DensityKernel(
        1.5, 1, lambda y: 1.0 + 0.5 * np.tanh(np.asarray(y)[..., 0]),
        0.5, 1.5, symmetric=False)


@pytest.mark.parametrize("route", [OperatorRoute.multiplier(),
                                   OperatorRoute.quadrature(40)],
                         ids=["multiplier", "quadrature"])
@pytest.mark.parametrize("d", [1, 2])
def test_multiplier_dtype_follows_symmetry(d, route):
    g = Grid(d, 16, 6.0)
    for name, m in _symmetric_measures(d).items():
        assert nonlocal_op.multiplier(m, g, route).dtype == np.float64, name
    assert nonlocal_op.multiplier(_atoms(d), g, route).dtype == np.complex128
    if d == 1:
        assert nonlocal_op.multiplier(_constant_density(1.3), g,
                                      route).dtype == np.float64
        assert nonlocal_op.multiplier(_skewed_density(), g,
                                      route).dtype == np.complex128


def _complex_multiplier(monkeypatch):
    """Hand every consumer the cached multiplier cast to complex."""
    real = nonlocal_op.multiplier

    def as_complex(measure, grid, route):
        return real(measure, grid, route).astype(complex)

    for module in (nonlocal_op, heatkernel, linear_solver):
        monkeypatch.setattr(module, "multiplier", as_complex)


def _spectral_outputs(m, g):
    """apply, semigroup_apply, kernel, etd2_march (through drift_solve) and
    duhamel_solve without and with drift, each as one array."""
    f = _noise(g, 4)
    forcing = lambda t, y: np.cos(np.sum(y, axis=-1)) * (1.0 + t)  # noqa: E731
    drift = lambda t, y: 0.3 * np.sin(y + t)                        # noqa: E731
    cfg = linear_solver.SolverConfig(time_step=0.05)
    out = {"apply": nonlocal_op.apply(m, f).values,
           "semigroup": heatkernel.semigroup_apply(m, 0.3, f).values,
           "kernel": heatkernel.kernel(m, 2.0, Grid(g.dim, 32, 20.0)).values}
    for name, b in (("etd2", drift), ("duhamel", DriftSchedule.zero(g.dim)),
                    ("duhamel-drift", DriftSchedule.constant([0.4] * g.dim))):
        problem = linear_solver.LinearProblem(m, b, 0.3, forcing, f, 0.2)
        solve = (linear_solver.drift_solve if name == "etd2"
                 else linear_solver.duhamel_solve)
        out[name] = np.stack([fr.values for fr in solve(problem, cfg).frames])
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_real_multiplier_matches_its_complex_cast(d, monkeypatch):
    g = Grid(d, 8, 6.0)
    for name, m in _symmetric_measures(d).items():
        real = _spectral_outputs(m, g)
        with monkeypatch.context() as patch:
            _complex_multiplier(patch)
            cast = _spectral_outputs(m, g)
        for op, want in cast.items():
            err = np.max(np.abs(real[op] - want))
            assert err <= 1e-14 * np.max(np.abs(want)), (name, op, err)


def _duhamel(m, drift, forcing, f):
    problem = linear_solver.LinearProblem(m, drift, 0.3, forcing, f, 0.25)
    return linear_solver.duhamel_solve(
        problem, linear_solver.SolverConfig(time_step=0.05))


@pytest.mark.parametrize("skewed", [False, True], ids=["symmetric", "skewed"])
def test_duhamel_without_forcing_is_the_zero_forcing_run(skewed, monkeypatch):
    # the same frames bit for bit, from one forward transform (of phi)
    g = Grid(2, 16, 6.0)
    f = _noise(g, 5)
    m = _atoms(2) if skewed else _paired_atoms(2)
    drift = (DriftSchedule((0.1,), ((0.4, -0.2), (0.0, 0.0))) if skewed
             else DriftSchedule.zero(2))
    zero = fg.SpaceTimeField(0.05, tuple(GridField.zeros(g) for _ in range(6)))
    want = _duhamel(m, drift, zero, f)
    calls = []
    forward = linear_solver.forward

    def counted(*args):
        calls.append(1)
        return forward(*args)

    monkeypatch.setattr(linear_solver, "forward", counted)
    got = _duhamel(m, drift, None, f)
    assert len(calls) == 1
    for a, b in zip(got.frames, want.frames, strict=True):
        np.testing.assert_array_equal(a.values, b.values)


def test_drift_solve_without_forcing_is_the_zero_forcing_run():
    g = Grid(1, 32, 6.0)
    f = _noise(g, 6)
    drift = lambda t, y: 0.5 * np.cos(y)                            # noqa: E731
    cfg = linear_solver.SolverConfig(time_step=0.05)
    zero = fg.SpaceTimeField(0.05, tuple(GridField.zeros(g) for _ in range(5)))
    runs = [linear_solver.drift_solve(linear_solver.LinearProblem(
        _paired_atoms(1), drift, 0.2, forcing, f, 0.2), cfg)
        for forcing in (None, zero)]
    for a, b in zip(*(r.frames for r in runs), strict=True):
        np.testing.assert_array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# only fieldgrid runs transforms
# ---------------------------------------------------------------------------

TRANSFORMS = {
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft", "hfft2", "ihfft2",
    "hfftn", "ihfftn", "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn",
    "idstn", "fht", "ifht", "r2c", "c2r", "c2c"}
FFT_MODULES = ("numpy.fft", "scipy.fft", "scipy.fft._pocketfft.pypocketfft")


def _transform_calls(source: str) -> list:
    """Names of numpy.fft / scipy.fft transforms the source refers to."""
    tree = ast.parse(source)
    alias = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                alias[(a.asname or a.name).split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                full = f"{node.module}.{a.name}"
                alias[a.asname or a.name] = full
                if node.module in FFT_MODULES and a.name in TRANSFORMS:
                    found.append(full)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parts = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name) or cur.id not in alias:
            continue
        dotted = ".".join([alias[cur.id]] + parts[::-1])
        head, _, name = dotted.rpartition(".")
        if head in FFT_MODULES and name in TRANSFORMS:
            found.append(dotted)
    return found


def test_transform_guard_detects_calls():
    assert _transform_calls("import numpy as np\nnp.fft.ifftn(x)")
    assert _transform_calls("import scipy.fft\nscipy.fft.rfftn(x)")
    assert _transform_calls("from scipy import fft\nfft.irfftn(x)")
    assert _transform_calls("from numpy.fft import fft2")
    assert _transform_calls(
        "from scipy.fft._pocketfft.pypocketfft import c2r, r2c")
    assert not _transform_calls("import numpy as np\nnp.fft.fftfreq(8)")


def test_only_fieldgrid_runs_transforms():
    package = Path(nonlocal_op.__file__).parent
    offenders = {p.name: calls for p in sorted(package.glob("*.py"))
                 if p.name != "fieldgrid.py"
                 and (calls := _transform_calls(p.read_text()))}
    assert offenders == {}
