"""CLI contract tests: output formats, exit codes, file schemas."""

import ast
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from levylab import cli, levy, stochastic
from levylab.errors import DomainExitWarning, InvalidArgument
from levylab.fieldgrid import (Grid, GridField, SpaceTimeField, load_field,
                               load_field_csv, load_trajectory, save_field,
                               save_trajectory)


@pytest.fixture()
def measure_file(tmp_path):
    m = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(1, 2 / np.pi))
    path = tmp_path / "m.json"
    levy.save_measure(m, path)
    return str(path)


@pytest.fixture()
def phi_file(tmp_path):
    g = Grid(1, 128, 2 * np.pi)
    x = g.coordinates()[..., 0]
    path = tmp_path / "phi.bin"
    save_field(GridField(g, np.sin(x)[None]), path)
    return str(path)


# ---------------------------------------------------------------------------
# symbol
# ---------------------------------------------------------------------------

def test_symbol_zero_frequency(measure_file, capsys):
    assert cli.main(["symbol", "--measure", measure_file, "--xi", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0+0i"


def test_symbol_value(measure_file, capsys):
    assert cli.main(["symbol", "--measure", measure_file, "--xi", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "3+0i"


def test_symbol_dimension_mismatch(measure_file, capsys):
    assert cli.main(["symbol", "--measure", measure_file,
                     "--xi", "1,2"]) == 2


def test_symbol_malformed_xi(measure_file):
    assert cli.main(["symbol", "--measure", measure_file,
                     "--xi", "abc"]) == 2


def test_missing_required_flag_exits_2(measure_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["symbol", "--measure", measure_file])
    assert exc.value.code == 2
    assert "--xi" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_measure_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["symbol", "--measure", str(bad), "--xi", "1"]) == 2
    assert cli.main(["symbol", "--measure", str(tmp_path / "missing.json"),
                     "--xi", "1"]) == 2


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_writes_valid_field_and_manifest(measure_file, tmp_path,
                                                capsys):
    out = tmp_path / "p.bin"
    assert cli.main(["kernel", "--measure", measure_file, "--t", "1.0",
                     "--grid", "512,100", "--out", str(out)]) == 0
    # binary schema: <qqdq header then float64 values
    raw = out.read_bytes()
    dim, n, length, m = struct.unpack_from("<qqdq", raw)
    assert (dim, n, length, m) == (1, 512, 100.0, 1)
    field = load_field(out)
    assert float(np.sum(field.values)) * field.grid.cell_volume == \
        pytest.approx(1.0, abs=1e-9)
    manifest = (tmp_path / "p.bin.manifest").read_text()
    assert "command:" in manifest and "artifact:" in manifest


def test_kernel_grid_dimension_mismatch(measure_file, tmp_path):
    assert cli.main(["kernel", "--measure", measure_file, "--t", "1.0",
                     "--grid", "2,64,10", "--out",
                     str(tmp_path / "x.bin")]) == 2


def test_kernel_failure_exits_1(measure_file, tmp_path):
    # resolution failure inside the library maps to exit 1
    m = levy.StableSpectral(1.9, levy.SphericalMeasure.isotropic(1, 1.0))
    path = tmp_path / "m19.json"
    levy.save_measure(m, path)
    assert cli.main(["kernel", "--measure", str(path), "--t", "0.001",
                     "--grid", "32,100", "--out",
                     str(tmp_path / "x.bin")]) == 1


# ---------------------------------------------------------------------------
# evolve / burgers / hj / sde
# ---------------------------------------------------------------------------

def test_evolve_round_trip(measure_file, phi_file, tmp_path):
    prob = tmp_path / "prob.json"
    cfg = tmp_path / "cfg.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": phi_file, "horizon": 0.25, "lam": 0.0,
        "drift": {"type": "constant", "value": [0.5]}}))
    cfg.write_text(json.dumps({"time_step": 0.25 / 32}))
    out = tmp_path / "run"
    assert cli.main(["evolve", "--problem", str(prob), "--config", str(cfg),
                     "--out", str(out)]) == 0
    traj = load_trajectory(out / "solution.traj")
    assert len(traj.frames) == 33
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("solver", ["duhamel", "drift"])
@pytest.mark.parametrize("drift", [None, "missing"])
def test_evolve_without_drift(measure_file, phi_file, tmp_path, solver,
                              drift):
    # "drift": null and no "drift" both mean zero drift
    spec = {"measure": levy.to_dict(levy.load_measure(measure_file)),
            "phi": phi_file, "horizon": 0.25}
    if drift is None:
        spec["drift"] = None
    prob = tmp_path / "prob.json"
    cfg = tmp_path / "cfg.json"
    prob.write_text(json.dumps(spec))
    cfg.write_text(json.dumps({"time_step": 0.0625, "solver": solver}))
    out = tmp_path / "run"
    assert cli.main(["evolve", "--problem", str(prob), "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert len(load_trajectory(out / "solution.traj").frames) == 5


def _evolve(tmp_path, measure_file, phi_file, cfg, **problem):
    prob = tmp_path / "prob.json"
    cfg_path = tmp_path / "cfg.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": phi_file, "horizon": 0.25, **problem}))
    cfg_path.write_text(json.dumps(cfg))
    return cli.main(["evolve", "--problem", str(prob), "--config",
                     str(cfg_path), "--out", str(tmp_path / "run")])


def test_evolve_drift_of_wrong_dimension_exits_2(measure_file, phi_file,
                                                 tmp_path, capsys):
    assert _evolve(tmp_path, measure_file, phi_file, {"time_step": 0.0625},
                   drift={"type": "constant", "value": [0.3, 0.4]}) == 2
    assert "drift has 2 components" in capsys.readouterr().err


def test_evolve_forcing_on_another_grid_exits_2(measure_file, phi_file,
                                                tmp_path, capsys):
    g = Grid(1, 128, 10.0)                     # phi lives on L = 2 pi
    forcing = tmp_path / "f.traj"
    save_trajectory(SpaceTimeField(0.0625, tuple(
        GridField(g, np.ones((1, 128))) for _ in range(5))), forcing)
    assert _evolve(tmp_path, measure_file, phi_file, {"time_step": 0.0625},
                   forcing=str(forcing)) == 2
    assert "forcing lives on" in capsys.readouterr().err


@pytest.mark.parametrize("step,n_frames,message", [
    (0.1, 5, "forcing time step must match solver time step"),
    (0.0625, 3, "forcing has fewer frames than time steps"),
], ids=["other-step", "few-frames"])
def test_evolve_forcing_off_the_solver_steps_exits_2(
        measure_file, phi_file, tmp_path, capsys, step, n_frames, message):
    g = Grid(1, 128, 2 * np.pi)
    forcing = tmp_path / "f.traj"
    save_trajectory(SpaceTimeField(step, tuple(
        GridField(g, np.ones((1, 128))) for _ in range(n_frames))), forcing)
    assert _evolve(tmp_path, measure_file, phi_file, {"time_step": 0.0625},
                   forcing=str(forcing)) == 2
    assert message in capsys.readouterr().err


@pytest.fixture()
def measure_2d_file(tmp_path):
    m2 = levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(2, 1.0))
    path = tmp_path / "m2.json"
    levy.save_measure(m2, path)
    return str(path)


def test_evolve_measure_and_phi_of_different_dimension_exit_2(
        measure_2d_file, phi_file, tmp_path, capsys):
    assert _evolve(tmp_path, measure_2d_file, phi_file,
                   {"time_step": 0.0625}) == 2
    assert ("field 'phi' is on a 1-dimensional grid but the measure lives "
            "in R^2") in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["burgers", "hj"])
def test_quasilinear_measure_and_phi_of_different_dimension_exit_2(
        measure_2d_file, phi_file, tmp_path, capsys, subcommand):
    extra = ["--hamiltonian", "quadratic"] if subcommand == "hj" else []
    assert cli.main([subcommand, *extra, "--phi", phi_file, "--measure",
                     measure_2d_file, "--T", "0.25", "--dt", "0.0625",
                     "--out", str(tmp_path / "run")]) == 2
    assert ("field '--phi' is on a 1-dimensional grid but the measure "
            "lives in R^2") in capsys.readouterr().err


@pytest.mark.parametrize("cfg,key", [
    ({"time_step": 0.0625, "mollifer_width": 0.1}, "mollifer_width"),
    ({"time_step": 0.0625, "dealias": True}, "dealias"),
    ({"time_step": 0.0625, "solver": "duhamel", "dealias": False}, "dealias"),
], ids=["misspelt-key", "dealias-default-solver", "dealias-duhamel"])
def test_evolve_config_keys_it_would_ignore_exit_2(measure_file, phi_file,
                                                   tmp_path, capsys, cfg,
                                                   key):
    assert _evolve(tmp_path, measure_file, phi_file, cfg) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["duhamel", "drift"])
def test_evolve_mollifier_below_grid_resolution_exits_2(
        measure_file, phi_file, tmp_path, capsys, solver):
    # phi lives on 2 pi / 128 = 0.049: a width of 0.001 would mollify nothing
    assert _evolve(tmp_path, measure_file, phi_file,
                   {"time_step": 0.0625, "mollifier_width": 0.001,
                    "solver": solver}) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "below grid resolution" in err


def test_evolve_unknown_problem_key_exits_2(measure_file, phi_file, tmp_path,
                                           capsys):
    assert _evolve(tmp_path, measure_file, phi_file, {"time_step": 0.0625},
                   forcng="f.traj") == 2
    assert "'forcng'" in capsys.readouterr().err


def test_evolve_dealias_with_drift_solver(measure_file, phi_file, tmp_path):
    assert _evolve(tmp_path, measure_file, phi_file,
                   {"time_step": 0.0625, "solver": "drift",
                    "dealias": True}) == 0


@pytest.mark.parametrize("subcommand", ["evolve", "burgers", "hj"])
def test_trajectory_run_manifest(measure_file, phi_file, tmp_path,
                                 subcommand):
    out = tmp_path / "run"
    if subcommand == "evolve":
        assert _evolve(tmp_path, measure_file, phi_file,
                       {"time_step": 0.03125, "picard_tol": 1e-9}) == 0
        measure = levy.load_measure(measure_file)
    else:
        extra = ["--hamiltonian", "quadratic"] if subcommand == "hj" else []
        assert cli.main([subcommand, *extra, "--phi", phi_file, "--T", "0.25",
                         "--dt", "0.03125", "--picard-tol", "1e-9",
                         "--out", str(out)]) == 0
        # the default measure, psi(xi) = |xi| in d = 1
        measure = levy.StableSpectral(
            1.0, levy.SphericalMeasure.isotropic(1, 2 / np.pi))
    lines = (out / "manifest.txt").read_text().splitlines()
    traj = load_trajectory(out / "solution.traj")
    final_sup = float(np.max(np.abs(traj.final().values)))
    for want in ("grid.dim: 1", "grid.points_per_axis: 128",
                 f"grid.side_length: {2 * np.pi}",
                 f"measure-digest: {cli._digest(levy.measure_digest(measure))}",
                 "tolerance.picard_tol: 1e-09",
                 f"constant.final_sup: {final_sup!r}",
                 f"artifact: {out}/solution.traj"):
        assert want in lines
    assert any(line.startswith(f"seconds.{subcommand}: ") for line in lines)


def test_evolve_unknown_solver(measure_file, phi_file, tmp_path):
    prob = tmp_path / "prob.json"
    cfg = tmp_path / "cfg.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": phi_file, "horizon": 0.25}))
    cfg.write_text(json.dumps({"time_step": 0.01, "solver": "magic"}))
    assert cli.main(["evolve", "--problem", str(prob), "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2


def test_burgers_subcommand(phi_file, tmp_path):
    out = tmp_path / "burg"
    assert cli.main(["burgers", "--phi", phi_file, "--T", "0.25",
                     "--dt", str(0.25 / 32), "--out", str(out)]) == 0
    traj = load_trajectory(out / "solution.traj")
    assert max(abs(float(fr.values.max())) for fr in traj.frames) <= 1 + 1e-6


@pytest.mark.parametrize("dt", ["0.3", "0", "-0.125"])
def test_burgers_horizon_not_whole_steps_exits_2(phi_file, tmp_path, dt):
    assert cli.main(["burgers", "--phi", phi_file, "--T", "0.25",
                     "--dt", dt, "--out", str(tmp_path / "run")]) == 2


def test_evolve_horizon_not_whole_steps_exits_2(measure_file, phi_file,
                                                tmp_path):
    prob = tmp_path / "prob.json"
    cfg = tmp_path / "cfg.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": phi_file, "horizon": 0.25}))
    cfg.write_text(json.dumps({"time_step": 0.3}))
    assert cli.main(["evolve", "--problem", str(prob), "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2


def test_hj_unknown_hamiltonian(phi_file, tmp_path):
    assert cli.main(["hj", "--hamiltonian", "nope", "--phi", phi_file,
                     "--T", "0.25", "--dt", "0.01",
                     "--out", str(tmp_path / "x")]) == 2


def test_hj_anisotropic_quadratic_2d(tmp_path):
    g = Grid(2, 32, 2 * np.pi)
    x = g.coordinates()
    phi = GridField(g, (np.sin(x[..., 0]) + 0.5 * np.cos(x[..., 1]))[None])
    save_field(phi, tmp_path / "phi.bin")
    out = tmp_path / "hj"
    assert cli.main(["hj", "--hamiltonian", "anisotropic-quadratic",
                     "--phi", str(tmp_path / "phi.bin"), "--T", "0.125",
                     "--dt", str(1 / 64), "--out", str(out)]) == 0
    traj = load_trajectory(out / "solution.traj")
    assert traj.grid == g and len(traj.frames) == 9
    # H >= 0 only lowers u
    assert max(float(fr.values.max()) for fr in traj.frames) <= (
        float(phi.values.max()) + 1e-9)


def test_registry_density_file_round_trip_and_symbol(tmp_path, capsys):
    # a constant density v in d = 1 is the atom pair +/-1 of weight v each
    dk = levy.from_dict({"variant": "density_kernel", "alpha": 1.5, "dim": 1,
                         "a_name": "constant", "a_params": {"value": 2.0},
                         "c1": 2.0, "c2": 2.0})
    path = tmp_path / "dk.json"
    levy.save_measure(dk, path)
    assert levy.to_dict(levy.load_measure(path)) == levy.to_dict(dk)
    assert cli.main(["symbol", "--measure", str(path), "--xi", "3"]) == 0
    real, imag = capsys.readouterr().out.strip().rstrip("i").split("+")
    want = 2 * 2.0 * levy.radial_cosine_constant(1.5) * 3 ** 1.5
    assert float(real) == pytest.approx(want, rel=1e-8) and float(imag) == 0


def test_sde_summary_schema(measure_file, tmp_path):
    g = Grid(1, 512, 120.0)
    x = g.coordinates()[..., 0]
    phi_path = tmp_path / "phi.bin"
    save_field(GridField(g, np.exp(-0.5 * (x - 60.0) ** 2)[None]), phi_path)
    prob = tmp_path / "sde.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": str(phi_path), "t": 0.3, "x": [60.0], "n_steps": 8}))
    out = tmp_path / "summary.txt"
    assert cli.main(["sde", "--problem", str(prob), "--paths", "2000",
                     "--seed", "7", "--out", str(out)]) == 0
    text = out.read_text()
    for key in ("estimate:", "std-error:", "paths: 2000",
                "exit-fraction:", "seconds:"):
        assert key in text
    assert (tmp_path / "summary.txt.manifest").exists()


def test_sde_unknown_problem_key_exits_2(measure_file, tmp_path, capsys):
    g = Grid(1, 64, 8.0)
    phi_path = tmp_path / "phi.bin"
    save_field(GridField(g, np.ones((1, 64))), phi_path)
    prob = tmp_path / "sde.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": str(phi_path), "t": 0.5, "x": [4.0], "nsteps": 8}))
    assert cli.main(["sde", "--problem", str(prob), "--paths", "10",
                     "--seed", "1", "--out", str(tmp_path / "s.txt")]) == 2
    assert "'nsteps'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("drift", {"type": "constant", "value": [0.2, 0.1]},
     "drift has 2 components but the measure lives in R^1"),
    ("x", [4.0, 1.0], "key 'x' has 2 components but the measure lives in "
                      "R^1"),
], ids=["drift", "x"])
def test_sde_input_of_wrong_dimension_exits_2(measure_file, tmp_path, capsys,
                                              key, value, message):
    g = Grid(1, 64, 8.0)
    phi_path = tmp_path / "phi.bin"
    save_field(GridField(g, np.ones((1, 64))), phi_path)
    prob = tmp_path / "sde.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": str(phi_path), "t": 0.5, "x": [4.0], "n_steps": 8,
        key: value}))
    assert cli.main(["sde", "--problem", str(prob), "--paths", "10",
                     "--seed", "1", "--out", str(tmp_path / "s.txt")]) == 2
    assert message in capsys.readouterr().err


def test_sde_single_path_exits_2(measure_file, tmp_path, capsys):
    # one path has no standard error
    g = Grid(1, 64, 8.0)
    phi_path = tmp_path / "phi.bin"
    save_field(GridField(g, np.ones((1, 64))), phi_path)
    prob = tmp_path / "sde.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": str(phi_path), "t": 0.5, "x": [4.0], "n_steps": 8}))
    out = tmp_path / "s.txt"
    assert cli.main(["sde", "--problem", str(prob), "--paths", "1",
                     "--seed", "1", "--out", str(out)]) == 2
    assert "--paths 1" in capsys.readouterr().err
    assert not out.exists()


def _sde_run(measure_file, tmp_path, name, drift):
    """Summary lines without the timing, and the manifest, of a 3000-path
    sde run from x = 4 on the cosine field of Grid(1, 64, 8)."""
    g = Grid(1, 64, 8.0)
    x = g.coordinates()[..., 0]
    phi_path = tmp_path / "phi.bin"
    save_field(GridField(g, np.cos(np.pi * x / 4.0)[None]), phi_path)
    prob = tmp_path / f"{name}.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": str(phi_path), "t": 0.5, "x": [4.0], "n_steps": 8,
        "drift": drift}))
    out = tmp_path / f"{name}.txt"
    with pytest.warns(DomainExitWarning):
        assert cli.main(["sde", "--problem", str(prob), "--paths", "3000",
                         "--seed", "7", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("seconds:")]
    return lines, (tmp_path / f"{name}.txt.manifest").read_text()


def test_sde_one_value_schedule_is_the_constant_drift(measure_file, tmp_path):
    constant, _ = _sde_run(measure_file, tmp_path, "constant",
                           {"type": "constant", "value": [0.2]})
    schedule, _ = _sde_run(measure_file, tmp_path, "schedule",
                           {"type": "schedule", "breakpoints": [],
                            "values": [[0.2]]})
    assert schedule == constant


def test_sde_schedule_is_the_feynman_kac_drift(measure_file, tmp_path):
    # the paths run in reversed time s, with drift theta(t - s)
    _, manifest = _sde_run(measure_file, tmp_path, "schedule",
                           {"type": "schedule", "breakpoints": [0.2],
                            "values": [[0.5], [-0.3]]})
    g = Grid(1, 64, 8.0)
    phi = GridField(g, np.cos(np.pi * g.coordinates()[..., 0] / 4.0)[None])
    with pytest.warns(DomainExitWarning):
        estimate, std_error = stochastic.feynman_kac(
            phi, None, lambda t, y: np.full_like(y, 0.5 if t < 0.2 else -0.3),
            levy.load_measure(measure_file), 0.5, [4.0], 3000, 7, n_steps=8)
    assert f"constant.estimate: {estimate!r}" in manifest
    assert f"constant.std_error: {std_error!r}" in manifest


def test_sde_dump_and_exit_fraction_are_the_estimators(measure_file, tmp_path):
    # a box of half-width 4 that about a tenth of the Cauchy paths leave;
    # the dump redraws the estimator's first 2000 paths from the same seed
    g = Grid(1, 64, 8.0)
    x = g.coordinates()[..., 0]
    phi_path = tmp_path / "phi.bin"
    save_field(GridField(g, np.cos(np.pi * x / 4.0)[None]), phi_path)
    prob = tmp_path / "sde.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": str(phi_path), "t": 0.5, "x": [4.0], "n_steps": 8}))
    out = tmp_path / "summary.txt"
    dump = tmp_path / "paths.npy"
    with pytest.warns(DomainExitWarning):
        assert cli.main(["sde", "--problem", str(prob), "--paths", "3000",
                         "--seed", "7", "--out", str(out),
                         "--dump-paths", str(dump)]) == 0
    # the zero drift of a problem without one, in reversed time
    zero = lambda s, y: np.zeros(1)
    tg = np.linspace(0.0, 0.5, 9)
    measure = levy.load_measure(measure_file)
    ens = stochastic.sample_ensemble(zero, measure, [4.0], tg, 3000, 7)
    first = stochastic.sample_ensemble(zero, measure, [4.0], tg, 2000, 7)
    np.testing.assert_array_equal(first.states, ens.states[:2000])
    np.testing.assert_array_equal(np.load(dump), first.states)
    frac = stochastic.exit_fraction(ens, [4.0], 8.0)
    assert 0.0 < frac < 1.0
    assert f"exit-fraction: {frac:.4f}" in out.read_text()
    manifest = (tmp_path / "summary.txt.manifest").read_text()
    assert f"constant.exit_fraction: {frac!r}" in manifest


# ---------------------------------------------------------------------------
# exit-code contract: a value the library rejects as a precondition exits 2
# ---------------------------------------------------------------------------

@pytest.fixture()
def contract_files(tmp_path, measure_file, phi_file):
    """The input files of the exit-code cases, by placeholder name."""
    files = {"m": measure_file, "phi": phi_file,
             "m15": str(tmp_path / "m15.json"),
             "phi2": str(tmp_path / "phi2.bin"),
             "out": str(tmp_path / "out")}
    levy.save_measure(levy.StableSpectral(
        1.5, levy.SphericalMeasure.isotropic(1, 1.0)), files["m15"])
    g = Grid(1, 128, 2 * np.pi)
    x = g.coordinates()[..., 0]
    save_field(GridField(g, np.stack([np.sin(x), np.cos(x)])), files["phi2"])
    for name, key, value in (("t0", "t", 0), ("n0", "n_steps", 0),
                             ("sde2", "phi", files["phi2"]),
                             ("lamnan", "lam", float("nan"))):
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w") as fh:
            json.dump({"measure": levy.to_dict(levy.load_measure(measure_file)),
                       "phi": phi_file, "t": 0.5, "x": [4.0], "n_steps": 8,
                       key: value}, fh)
    files["laminf"] = str(tmp_path / "laminf.json")
    files["cfg"] = str(tmp_path / "cfg.json")
    with open(files["laminf"], "w") as fh:      # json writes Infinity
        json.dump({"measure": levy.to_dict(levy.load_measure(measure_file)),
                   "phi": phi_file, "horizon": 0.25, "lam": float("inf")}, fh)
    with open(files["cfg"], "w") as fh:
        json.dump({"time_step": 0.0625}, fh)
    return files


_STEPS = ["--T", "0.25", "--dt", "0.0625", "--out", "{out}"]
_SDE = ["--paths", "10", "--seed", "1", "--out", "{out}"]
PRECONDITION_VIOLATIONS = {
    "kernel-t": ["kernel", "--measure", "{m}", "--t", "-1", "--grid", "64,10",
                 "--out", "{out}"],
    "kernel-N": ["kernel", "--measure", "{m}", "--t", "1", "--grid", "100,10",
                 "--out", "{out}"],
    "kernel-L": ["kernel", "--measure", "{m}", "--t", "1", "--grid", "64,-10",
                 "--out", "{out}"],
    "burgers-T": ["burgers", "--phi", "{phi}", "--T", "2", "--dt", "0.25",
                  "--out", "{out}"],
    "burgers-alpha": ["burgers", "--phi", "{phi}", "--measure", "{m15}",
                      *_STEPS],
    "hj-alpha": ["hj", "--hamiltonian", "quadratic", "--phi", "{phi}",
                 "--measure", "{m15}", *_STEPS],
    "burgers-phi-components": ["burgers", "--phi", "{phi2}", *_STEPS],
    "hj-phi-components": ["hj", "--hamiltonian", "quadratic", "--phi",
                          "{phi2}", *_STEPS],
    "sde-t": ["sde", "--problem", "{t0}", *_SDE],
    "sde-n_steps": ["sde", "--problem", "{n0}", *_SDE],
    "sde-phi-components": ["sde", "--problem", "{sde2}", *_SDE],
    "sde-lam-nan": ["sde", "--problem", "{lamnan}", *_SDE],
    "evolve-lam-inf": ["evolve", "--problem", "{laminf}", "--config", "{cfg}",
                       "--out", "{out}"],
}


@pytest.mark.parametrize("argv", PRECONDITION_VIOLATIONS.values(),
                         ids=PRECONDITION_VIOLATIONS.keys())
def test_precondition_violation_exits_2(contract_files, capsys, argv):
    assert cli.main([a.format(**contract_files) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# exit-code contract: malformed flag values and file contents exit 2
# ---------------------------------------------------------------------------

@pytest.fixture()
def malformed_files(tmp_path, measure_file, phi_file):
    """The malformed input files, by placeholder name, and a valid config."""
    measure = levy.to_dict(levy.load_measure(measure_file))
    evolve = {"measure": measure, "phi": phi_file, "horizon": 0.25}
    sde = {"measure": measure, "phi": phi_file, "t": 0.5, "x": [3.0],
           "n_steps": 8}
    specs = {
        "alpha-text": {**measure, "alpha": "1.0"},
        "measure-list": [measure],
        "mass-null": {**measure, "total_mass": None},
        "axes-weights": {"variant": "direct_sum_axes", "alpha": 1.0,
                         "axes_weights": 3},
        "evolve": evolve,
        "cfg": {"time_step": 0.0625},
        "step-null": {"time_step": None},
        "horizon-null": {**evolve, "horizon": None},
        "evolve-alpha-text": {**evolve, "measure": {**measure, "alpha": "1"}},
        "number": 3,
        "empty-list": [],
        "drift-text": {**evolve, "drift": {"type": "constant", "value": "x"}},
        "n_steps-null": {**sde, "n_steps": None},
        "t-null": {**sde, "t": None},
    }
    files = {"out": str(tmp_path / "out")}
    for name, spec in specs.items():
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(spec))
    files["n_steps-huge"] = str(tmp_path / "n_steps-huge.json")
    Path(files["n_steps-huge"]).write_text(
        json.dumps({**sde, "n_steps": "N"}).replace('"N"', "1e400"))
    for name, content in (("empty.csv", b""), ("short-header.csv", b"1,8\n"),
                          ("huge-header.bin", struct.pack(
                              "<qqdq", 3, 2 ** 20, 2 * np.pi, 1))):
        files[name.replace(".", "-")] = str(tmp_path / name)
        (tmp_path / name).write_bytes(content)
    return files


def _evolve_argv(problem, config="{cfg}"):
    return ["evolve", "--problem", problem, "--config", config,
            "--out", "{out}"]


MALFORMED_INPUTS = {
    "symbol-alpha-text": ["symbol", "--measure", "{alpha-text}", "--xi", "1"],
    "symbol-measure-list": ["symbol", "--measure", "{measure-list}",
                            "--xi", "1"],
    "symbol-mass-null": ["symbol", "--measure", "{mass-null}", "--xi", "1"],
    "symbol-axes-weights": ["symbol", "--measure", "{axes-weights}",
                            "--xi", "1"],
    "burgers-empty-csv": ["burgers", "--phi", "{empty-csv}", *_STEPS],
    "burgers-short-csv-header": ["burgers", "--phi", "{short-header-csv}",
                                 *_STEPS],
    "burgers-huge-binary-header": ["burgers", "--phi", "{huge-header-bin}",
                                   *_STEPS],
    "evolve-horizon-null": _evolve_argv("{horizon-null}"),
    "evolve-time_step-null": _evolve_argv("{evolve}", "{step-null}"),
    "evolve-alpha-text": _evolve_argv("{evolve-alpha-text}"),
    "evolve-problem-number": _evolve_argv("{number}"),
    "evolve-problem-list": _evolve_argv("{empty-list}"),
    "evolve-config-list": _evolve_argv("{evolve}", "{empty-list}"),
    "evolve-drift-text": _evolve_argv("{drift-text}"),
    "sde-n_steps-null": ["sde", "--problem", "{n_steps-null}", *_SDE],
    "sde-t-null": ["sde", "--problem", "{t-null}", *_SDE],
    "sde-n_steps-huge": ["sde", "--problem", "{n_steps-huge}", *_SDE],
}


@pytest.mark.parametrize("argv", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exits_2(malformed_files, capsys, argv):
    assert cli.main([a.format(**malformed_files) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["phi", "forcing"])
def test_a_number_is_not_a_file_name(measure_file, phi_file, tmp_path, key):
    # open() reads an int as a file descriptor: "phi": 3 would read, and
    # then close, whatever file the process has open as descriptor 3
    fd = os.open(phi_file, os.O_RDONLY)
    try:
        assert _evolve(tmp_path, measure_file, phi_file,
                       {"time_step": 0.0625}, **{key: fd}) == 2
        os.fstat(fd)                        # raises if the run closed it
    finally:
        os.close(fd)


def _handler_scopes(source: str) -> list:
    """The function around each except clause of source, in order;
    '<module>' outside every function."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                scopes.append(scope)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(source), "<module>")
    return scopes


def test_handler_guard_finds_every_scope():
    source = ("try:\n    pass\nexcept ValueError:\n    pass\n"
              "class C:\n    def m(self):\n        def inner():\n"
              "            try:\n                pass\n"
              "            except (KeyError, OSError):\n                pass\n"
              "        try:\n            inner()\n"
              "        except Exception:\n            pass\n")
    assert _handler_scopes(source) == ["<module>", "inner", "m"]


def test_only_reading_and_main_handle_exceptions():
    # a loader with its own except clause would bring back its own idea of
    # malformed input; it reads through _reading instead
    scopes = _handler_scopes(Path(cli.__file__).read_text())
    assert scopes.count("_reading") == 1
    assert set(scopes) == {"_reading", "main"}


def test_degenerate_measure_exits_1(tmp_path, capsys):
    # a computation failure, not a usage error: the single atom (1, 0) in
    # d = 2 has no diffusion along x_2
    g = Grid(2, 32, 2 * np.pi)
    x = g.coordinates()
    save_field(GridField(g, np.stack([np.sin(x[..., 0]), np.cos(x[..., 1])])),
               tmp_path / "phi.bin")
    levy.save_measure(levy.StableSpectral(1.0, levy.SphericalMeasure.discrete(
        [((1.0, 0.0), 1.0)])), tmp_path / "atom.json")
    assert cli.main(["burgers", "--phi", str(tmp_path / "phi.bin"),
                     "--measure", str(tmp_path / "atom.json"),
                     "--T", "0.25", "--dt", "0.0625",
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_check(capsys):
    assert cli.main(["verify", "--check", "symbol-stable"]) == 0
    assert "[PASS] symbol-stable" in capsys.readouterr().out


def test_verify_unknown_check():
    assert cli.main(["verify", "--check", "not-a-check"]) == 2


def test_verify_without_selection():
    assert cli.main(["verify"]) == 2


# ---------------------------------------------------------------------------
# CSV field validation
# ---------------------------------------------------------------------------

def _csv_phi(tmp_path, rows):
    path = tmp_path / "phi.csv"
    path.write_text("1,4,6.283185307179586,1\n"
                    + "".join(f"0,{i},{v}\n" for i, v in rows))
    return str(path)


@pytest.mark.parametrize("rows", [
    [(0, 0.1), (1, 0.2), (2, 0.3)],                 # a row missing
    [(0, 0.1), (1, 0.2), (2, 0.3), (2, 0.4)],       # index 2 twice
    [(0, 0.1), (1, 0.2), (2, 0.3), (-1, 0.4)],      # would wrap to 3
    [(0, 0.1), (1, 0.2), (2, 0.3), (4, 0.4)],       # beyond N - 1
], ids=["row-count", "duplicate", "negative-index", "index-beyond-grid"])
def test_malformed_csv_field_exits_2(tmp_path, rows):
    path = _csv_phi(tmp_path, rows)
    with pytest.raises(InvalidArgument):
        load_field_csv(path)
    assert cli.main(["burgers", "--phi", path, "--T", "0.25", "--dt",
                     "0.125", "--out", str(tmp_path / "run")]) == 2


# ---------------------------------------------------------------------------
# truncated binary files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("keep", [10, 32 + 8 * 64],
                         ids=["inside-header", "inside-values"])
def test_truncated_field_exits_2(phi_file, tmp_path, keep):
    path = tmp_path / "trunc.bin"
    with open(phi_file, "rb") as fh:
        path.write_bytes(fh.read()[:keep])
    with pytest.raises(InvalidArgument):
        load_field(path)
    assert cli.main(["burgers", "--phi", str(path), "--T", "0.25", "--dt",
                     "0.125", "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("keep", [10, 16 + 32 + 8 * 128 + 40],
                         ids=["inside-count", "inside-second-frame"])
def test_truncated_forcing_trajectory_exits_2(measure_file, phi_file,
                                              tmp_path, keep):
    g = Grid(1, 128, 2 * np.pi)
    frames = tuple(GridField(g, np.full((1, 128), float(k))) for k in range(3))
    full = tmp_path / "full.traj"
    save_trajectory(SpaceTimeField(0.125, frames), full)
    forcing = tmp_path / "forcing.traj"
    forcing.write_bytes(full.read_bytes()[:keep])
    with pytest.raises(InvalidArgument):
        load_trajectory(forcing)
    prob = tmp_path / "prob.json"
    cfg = tmp_path / "cfg.json"
    prob.write_text(json.dumps({
        "measure": levy.to_dict(levy.load_measure(measure_file)),
        "phi": phi_file, "horizon": 0.25, "forcing": str(forcing)}))
    cfg.write_text(json.dumps({"time_step": 0.125}))
    assert cli.main(["evolve", "--problem", str(prob), "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
