"""levylab benchmark: one workload at a time, each in fresh processes.

    python3 perfbench/run.py --workload critical-pde --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1

For a workload, SETUP_PROBES fresh processes import levylab and generate
the inputs (each is one ``setup_s`` sample), then one more fresh process
does the same and runs whole rounds of the workload's operations for
``--seconds`` seconds and checks the outputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the process records spans and the metrics are the per-layer
ones (see README.md).  Exits 1 without a result if a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import THREAD_SETTINGS, WORKLOADS  # noqa: E402

SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170
OUT_DIR = HERE / "runs"


def spawn(args: list) -> dict:
    env = dict(os.environ, **THREAD_SETTINGS)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
        stdout=subprocess.PIPE, env=env, timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    probes = [spawn(common + ["--setup-only"])["setup_s"]
              for _ in range(SETUP_PROBES)]
    extra = []
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        extra = ["--trace-out", str(OUT_DIR / f"trace-{name}-seed{seed}.json.gz")]
    res = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)]
                + extra)
    res["setup_samples"] = probes + [res["setup_s"]]
    return res


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": {"value": statistics.median(res["setup_samples"]), "unit": "s"},
        "wall_s": {"value": statistics.median(res["round_s"]), "unit": "s"},
        "op_s.p50": {"value": statistics.median(res["op_s"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
    }


def per_layer(res: dict) -> dict:
    from spans import metric_units
    units = metric_units()
    return {k: {"value": v, "unit": units[k]}
            for k, v in res["per_layer"].items()}


def report(res: dict, metrics: dict) -> None:
    print(f"== {res['workload']} (seed {res['seed']}): "
          f"{len(res['round_s'])} rounds, attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}")
    for op, ok, detail in res["findings"]:
        print(f"   [{'ok' if ok else 'FAIL'}] {op}: {detail}")
    for key, m in metrics.items():
        print(f"   {key} = {m['value']:.6g} {m['unit']}")
    if "per_layer" in res:
        print(f"   traced wall_s = {statistics.median(res['round_s']):.6g} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        metrics = per_layer(res) if args.trace else end_to_end(res)
        report(res, metrics)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        if len(names) == 1:
            total["metrics"] = metrics
        else:
            total["metrics"].update({f"{name}/{k}": v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
