"""Command-line experiment harness.

Subcommands: ``symbol``, ``kernel``, ``evolve``, ``burgers``, ``hj``,
``sde``, ``verify``.  Each run that produces files also writes a
structured-text manifest recording the command line, configuration and
measure digests, grid parameters, seeds, timings and artifact list, so a
run can be reproduced bit-exactly.  Flag reference and file schemas live
in ``docs/cli.md``.

Exit codes: 0 success, 1 computation or check failure, 2 usage error
(unknown flags, malformed input files, or any value the library rejects
with ``InvalidArgument``).  ``main`` alone maps exceptions to exit codes,
and ``_reading`` alone decides what counts as malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import acceptance, heatkernel, levy, quasilinear, stochastic
from .errors import InvalidArgument, LevylabError
from .fieldgrid import (Grid, GridField, SpaceTimeField, load_field,
                        load_field_csv, load_trajectory, save_field,
                        save_field_csv, save_trajectory)
from .heatkernel import DriftSchedule
from .linear_solver import (LinearProblem, SolverConfig, drift_solve,
                            duhamel_solve)

USAGE_ERROR = 2


class UsageError(Exception):
    """Malformed flag values or input files; maps to exit code 2, as the
    library's InvalidArgument does."""


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Reproducibility record written next to every artifact set."""

    command_line: str
    config_digest: str = ""
    measure_digests: tuple = ()
    grid_parameters: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    fitted_constants: dict = field(default_factory=dict)
    rng_seeds: tuple = ()
    timings: dict = field(default_factory=dict)
    artifacts: tuple = ()

    def render(self) -> str:
        lines = ["# levylab run manifest",
                 f"command: {self.command_line}",
                 f"config-digest: {self.config_digest or '-'}"]
        for d in self.measure_digests:
            lines.append(f"measure-digest: {d}")
        for key, val in sorted(self.grid_parameters.items()):
            lines.append(f"grid.{key}: {val}")
        for key, val in sorted(self.tolerances.items()):
            lines.append(f"tolerance.{key}: {val}")
        for key, val in sorted(self.fitted_constants.items()):
            lines.append(f"constant.{key}: {val!r}")
        for s in self.rng_seeds:
            lines.append(f"seed: {s}")
        for key, val in sorted(self.timings.items()):
            lines.append(f"seconds.{key}: {val:.3f}")
        for a in self.artifacts:
            lines.append(f"artifact: {a}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.render())


def _digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _manifest(measure, grid: Grid, **fields) -> RunManifest:
    """A run's manifest with its command line, measure digest and grid."""
    return RunManifest(
        command_line=" ".join(sys.argv),
        measure_digests=(_digest(levy.measure_digest(measure)),),
        grid_parameters={"dim": grid.dim,
                         "points_per_axis": grid.points_per_axis,
                         "side_length": grid.side_length},
        **fields)


# ---------------------------------------------------------------------------
# input parsing helpers (all schema violations become UsageError -> exit 2)
# ---------------------------------------------------------------------------

@contextmanager
def _reading(what: str):
    """Read outside input: any malformed-input exception raised inside
    becomes UsageError("bad <what>: <reason>").  An explicit UsageError
    passes through unchanged."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, OverflowError,
            OSError, LevylabError) as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def _parse_vector(text: str) -> np.ndarray:
    with _reading(f"vector {text!r}"):
        return np.array([float(p) for p in text.split(",")], dtype=float)


def _parse_grid(text: str) -> tuple:
    """'N,L' or 'd,N,L' -> (dim, points_per_axis, side_length)."""
    parts = text.split(",")
    with _reading(f"grid spec {text!r}"):
        if len(parts) not in (2, 3):
            raise ValueError("expected 'N,L' or 'd,N,L'")
        return (int(parts[0]) if len(parts) == 3 else 1, int(parts[-2]),
                float(parts[-1]))


def _load_json(path) -> dict:
    """A JSON file whose top level is an object."""
    with _reading(f"JSON file {path}"), open(path) as fh:
        spec = json.load(fh)
        if not isinstance(spec, dict):
            raise TypeError(f"top level must be an object, not "
                            f"{type(spec).__name__}")
    return spec


def _load_measure(path):
    spec = _load_json(path)
    with _reading(f"measure file {path}"):
        return levy.from_dict(spec)


def _load_any_field(path) -> GridField:
    with _reading(f"field file {path}"):
        if os.fspath(path).endswith(".csv"):
            return load_field_csv(path)
        return load_field(path)


def _save_any_field(fieldv: GridField, path) -> None:
    if str(path).endswith(".csv"):
        save_field_csv(fieldv, path)
    else:
        save_field(fieldv, path)


def _reject_unknown_keys(spec: dict, allowed, path) -> None:
    for key in spec:
        if key not in allowed:
            raise UsageError(f"unknown key {key!r} in {path}")


def _check_field_dim(phi: GridField, measure, key: str) -> None:
    if phi.grid.dim != measure.dim:
        raise UsageError(f"field {key!r} is on a {phi.grid.dim}-dimensional "
                         f"grid but the measure lives in R^{measure.dim}")


def _drift_from_dict(spec, dim: int):
    if spec is None:
        return DriftSchedule.zero(dim)
    with _reading("drift specification"):
        kind = spec["type"]
        if kind == "constant":
            drift = DriftSchedule.constant(np.asarray(spec["value"], float))
        elif kind == "schedule":
            drift = DriftSchedule(tuple(spec["breakpoints"]),
                                  tuple(tuple(v) for v in spec["values"]))
        else:
            raise UsageError(f"unknown drift type {kind!r}")
    if drift.dim != dim:
        raise UsageError(f"drift has {drift.dim} components but the measure "
                         f"lives in R^{dim}")
    return drift


def _solver_config(cfg: dict) -> SolverConfig:
    with _reading("solver config"):
        return SolverConfig(
            time_step=float(cfg["time_step"]),
            mollifier_width=float(cfg.get("mollifier_width", 0.0)),
            picard_tol=float(cfg.get("picard_tol", 1e-10)),
            max_iterations=int(cfg.get("max_iterations", 50)))


def _write_trajectory_run(out, traj: SpaceTimeField, measure, cfg: dict,
                          config: SolverConfig, label: str, t0: float) -> int:
    """DIR/solution.traj and DIR/manifest.txt of an evolve, burgers or hj
    run started at perf_counter() time t0."""
    os.makedirs(out, exist_ok=True)
    traj_path = f"{out}/solution.traj"
    save_trajectory(traj, traj_path)
    manifest = _manifest(
        measure, traj.grid,
        config_digest=_digest(cfg),
        tolerances={"picard_tol": config.picard_tol},
        fitted_constants={
            "final_sup": float(np.max(np.abs(traj.final().values)))},
        timings={label: time.perf_counter() - t0},
        artifacts=(traj_path,))
    manifest.write(f"{out}/manifest.txt")
    print(f"wrote {traj_path} ({len(traj.frames)} frames)")
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_symbol(args) -> int:
    measure = _load_measure(args.measure)
    value = levy.symbol(measure, _parse_vector(args.xi))
    print(f"{value.real:.12g}{value.imag:+.12g}i")
    return 0


def _cmd_kernel(args) -> int:
    t0 = time.perf_counter()
    measure = _load_measure(args.measure)
    dim, n, length = _parse_grid(args.grid)
    if dim != measure.dim:
        raise UsageError("grid dimension does not match the measure")
    g = Grid(dim, n, length)
    p_t = heatkernel.kernel(measure, args.t, g)
    _save_any_field(p_t, args.out)
    manifest = _manifest(
        measure, g,
        config_digest=_digest({"t": args.t, "grid": args.grid}),
        timings={"kernel": time.perf_counter() - t0},
        artifacts=(str(args.out),))
    manifest.write(str(args.out) + ".manifest")
    print(f"wrote {args.out} (mass "
          f"{float(np.sum(p_t.values) * g.cell_volume):.6f})")
    return 0


def _cmd_evolve(args) -> int:
    t0 = time.perf_counter()
    spec = _load_json(args.problem)
    cfg = _load_json(args.config)
    _reject_unknown_keys(spec, ("measure", "phi", "horizon", "lam", "drift",
                                "forcing"), args.problem)
    _reject_unknown_keys(cfg, ("time_step", "mollifier_width", "picard_tol",
                               "max_iterations", "solver", "dealias"),
                         args.config)
    with _reading(f"problem file {args.problem}"):
        measure = levy.from_dict(spec["measure"])
        phi = _load_any_field(spec["phi"])
        lam = float(spec.get("lam", 0.0))
        horizon = float(spec["horizon"])
        forcing = (load_trajectory(os.fspath(spec["forcing"]))
                   if spec.get("forcing") else None)
    _check_field_dim(phi, measure, "phi")
    drift = _drift_from_dict(spec.get("drift"), measure.dim)
    config = _solver_config(cfg)
    solver = cfg.get("solver", "duhamel")
    if "dealias" in cfg and solver != "drift":
        raise UsageError(f"key 'dealias' in {args.config} needs solver "
                         f"'drift'")
    problem = LinearProblem(measure, drift, lam, forcing, phi, horizon)
    if solver == "duhamel":
        traj = duhamel_solve(problem, config)
    elif solver == "drift":
        traj = drift_solve(problem, config,
                           dealias=bool(cfg.get("dealias", False)))
    else:
        raise UsageError(f"unknown solver {solver!r} (duhamel or drift)")
    return _write_trajectory_run(args.out, traj, measure, cfg, config,
                                 "evolve", t0)


def _cmd_quasilinear(args) -> int:
    """The burgers and hj subcommands."""
    t0 = time.perf_counter()
    if (args.subcommand == "hj"
            and args.hamiltonian not in quasilinear.HAMILTONIANS):
        raise UsageError(
            f"unknown hamiltonian {args.hamiltonian!r}; choices: "
            + ", ".join(sorted(quasilinear.HAMILTONIANS)))
    phi = _load_any_field(args.phi)
    measure = (_load_measure(args.measure) if args.measure else
               levy.StableSpectral(1.0, levy.SphericalMeasure.isotropic(
                   phi.grid.dim, _iso_mass(phi.grid.dim))))
    _check_field_dim(phi, measure, "--phi")
    config = _solver_config({"time_step": args.dt,
                             "picard_tol": args.picard_tol})
    if args.subcommand == "burgers":
        traj = quasilinear.burgers_solve(phi, measure, args.T, config)
    else:
        H = quasilinear.HAMILTONIANS[args.hamiltonian]()
        traj = quasilinear.hamilton_jacobi_solve(H, phi, measure, args.T,
                                                 config)
    return _write_trajectory_run(
        args.out, traj, measure,
        {"dt": args.dt, "T": args.T, "picard_tol": args.picard_tol},
        config, args.subcommand, t0)


def _iso_mass(dim: int) -> float:
    """Isotropic mass making psi(xi) = |xi| at alpha = 1."""
    c1 = levy.radial_cosine_constant(1.0)
    return 1.0 / (c1 * levy.isotropic_projection_moment(dim, 1.0))


def _cmd_sde(args) -> int:
    t0 = time.perf_counter()
    spec = _load_json(args.problem)
    _reject_unknown_keys(spec, ("measure", "phi", "t", "x", "lam", "n_steps",
                                "drift"), args.problem)
    with _reading(f"problem file {args.problem}"):
        measure = levy.from_dict(spec["measure"])
        phi = _load_any_field(spec["phi"])
        t_final = float(spec["t"])
        x = np.asarray(spec["x"], dtype=float)
        lam = float(spec.get("lam", 0.0))
        n_steps = int(spec.get("n_steps", 64))
    _check_field_dim(phi, measure, "phi")
    if args.paths < 2:
        raise UsageError(f"--paths {args.paths}: a standard error needs at "
                         f"least 2 paths")
    if x.size != measure.dim:
        raise UsageError(f"key 'x' has {x.size} components but the measure "
                         f"lives in R^{measure.dim}")
    drift = _drift_from_dict(spec.get("drift"), measure.dim)

    estimate, std_error, exits = stochastic._feynman_kac(
        phi, None, lambda t, y: drift.theta(t), measure, t_final, x,
        args.paths, args.seed, lam, n_steps)
    elapsed = time.perf_counter() - t0

    lines = [f"estimate: {estimate:.10g}",
             f"std-error: {std_error:.4g}",
             f"paths: {args.paths}",
             f"steps: {n_steps}",
             f"exit-fraction: {exits:.4f}",
             f"seconds: {elapsed:.3f}"]
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if args.dump_paths:
        # the estimator's first paths, redrawn: path i's stream does not
        # depend on the path count; the paths run in reversed time s
        paths = stochastic.sample_ensemble(
            lambda s, y: drift.theta(t_final - s), measure, x,
            np.linspace(0.0, t_final, n_steps + 1), min(args.paths, 2000),
            args.seed)
        np.save(args.dump_paths, paths.states)
    manifest = _manifest(
        measure, phi.grid,
        config_digest=_digest(spec),
        fitted_constants={"estimate": estimate, "std_error": std_error,
                          "exit_fraction": exits},
        rng_seeds=(args.seed,),
        timings={"sde": elapsed},
        artifacts=tuple(p for p in (str(args.out), args.dump_paths) if p))
    manifest.write(str(args.out) + ".manifest")
    print(f"estimate {estimate:.6g} +/- {std_error:.2g} "
          f"(exit fraction {exits:.2%})")
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        names = list(acceptance.CHECKS)
    elif args.check:
        if args.check not in acceptance.CHECKS:
            raise UsageError(
                f"unknown check {args.check!r}; choices: "
                + ", ".join(acceptance.CHECKS))
        names = [args.check]
    else:
        raise UsageError("verify needs --check NAME or --all")
    all_ok = True
    for name in names:
        result = acceptance.CHECKS[name]()
        print(result.line)
        all_ok = all_ok and result.passed
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Numerical laboratory for Levy-type nonlocal operators.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("symbol", help="evaluate a characteristic exponent")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--xi", required=True,
                   help="frequency, comma-separated floats")
    p.set_defaults(run=_cmd_symbol)

    p = sub.add_parser("kernel", help="tabulate a heat kernel on a grid")
    p.add_argument("--measure", required=True)
    p.add_argument("--t", type=float, required=True, help="time > 0")
    p.add_argument("--grid", required=True, help="'N,L' or 'd,N,L'")
    p.add_argument("--out", required=True,
                   help="output field (.csv for text, else binary)")
    p.set_defaults(run=_cmd_kernel)

    p = sub.add_parser("evolve", help="solve a linear Cauchy problem")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--config", required=True, help="solver-config JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=_cmd_evolve)

    for name, helptext in (("burgers", "critical Burgers evolution"),
                           ("hj", "critical Hamilton-Jacobi evolution")):
        p = sub.add_parser(name, help=helptext)
        if name == "hj":
            p.add_argument("--hamiltonian", required=True,
                           help="|".join(sorted(quasilinear.HAMILTONIANS)))
        p.add_argument("--phi", required=True, help="initial field file")
        p.add_argument("--measure", default=None,
                       help="alpha=1 measure JSON (default: isotropic "
                            "with psi(xi) = |xi|)")
        p.add_argument("--T", type=float, required=True, help="horizon")
        p.add_argument("--dt", type=float, required=True, help="time step")
        p.add_argument("--picard-tol", type=float, default=1e-10)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(run=_cmd_quasilinear)

    p = sub.add_parser("sde", help="Monte Carlo probabilistic solution")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="summary text file")
    p.add_argument("--dump-paths", default=None,
                   help="optional .npy dump of sampled paths")
    p.set_defaults(run=_cmd_sde)

    p = sub.add_parser("verify", help="run acceptance checks")
    p.add_argument("--check", default=None, help="check name")
    p.add_argument("--all", action="store_true", help="run every check")
    p.set_defaults(run=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, InvalidArgument) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except LevylabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
