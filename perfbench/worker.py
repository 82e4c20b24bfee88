"""One workload in a process of its own: set-up, timed rounds, checks.

Run by ``run.py``; prints one JSON object as its last line.  The clock for
``setup_s`` starts at ``--t0``, the parent's CLOCK_MONOTONIC reading just
before it started this process, so interpreter start-up and imports count.
"""

from __future__ import annotations

import os

# fixed before numpy is imported; run.py sets the same values
THREAD_SETTINGS = {"LEVYLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse                                            # noqa: E402
import importlib                                           # noqa: E402
import json                                                # noqa: E402
import resource                                            # noqa: E402
import sys                                                 # noqa: E402
import time                                                # noqa: E402
import traceback                                           # noqa: E402
import warnings                                            # noqa: E402
from pathlib import Path                                   # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"critical-pde": "critical_pde",
             "operator-routes": "operator_routes",
             "spectral-sweep": "spectral_sweep",
             "monte-carlo": "monte_carlo"}


def import_levylab():
    """levylab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import levylab
    if not Path(levylab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"levylab imported from {levylab.__file__}, "
                          f"not from {src}")
    return levylab


def run_rounds(workload, seconds: float, tracer=None):
    """Whole rounds of the workload's ops until ``seconds`` have passed.
    Returns (outputs of round 0, per-round times, per-op times)."""
    outputs, round_times, op_times = {}, [], []
    begin = time.perf_counter()
    rnd = 0
    while True:
        if tracer is not None:
            tracer.round = rnd
        start = time.perf_counter()
        for op in workload.ops:
            t0 = time.perf_counter()
            out = (op.fn(rnd) if tracer is None
                   else tracer.call(f"op.{op.name}", op.fn, rnd))
            op_times.append(time.perf_counter() - t0)
            if rnd == 0:
                outputs[op.name] = out
        end = time.perf_counter()
        round_times.append(end - start)
        rnd += 1
        if end - begin >= seconds:
            return outputs, round_times, op_times


def tally(workload, findings, rounds: int):
    """(correct, attempted, failed): the check an op's known fault breaks
    failing counts that op as failed in every round (all rounds repeat the
    same inputs); any other failed check makes the run incorrect."""
    known = {op.name: op.known_fault for op in workload.ops if op.known_fault}
    failed_ops, correct = set(), True
    for f in findings:
        if f.ok:
            continue
        if known.get(f.op) == f.check:
            failed_ops.add(f.op)
        else:
            correct = False
    return correct, rounds * len(workload.ops), rounds * len(failed_ops)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default="")
    args = p.parse_args(argv)

    import_levylab()
    sys.path.insert(0, str(HERE))
    module = importlib.import_module(WORKLOADS[args.workload])
    workload = module.build(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    with warnings.catch_warnings():
        # the Monte Carlo references account for paths that leave the
        # half-period box, so the estimators' exit warning is not a failure
        from levylab.errors import DomainExitWarning
        warnings.simplefilter("ignore", DomainExitWarning)
        outputs, round_times, op_times = run_rounds(workload, args.seconds,
                                                    tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()

    findings = workload.check(outputs)
    correct, attempted, failed = tally(workload, findings, len(round_times))
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": setup_s, "round_s": round_times, "op_s": op_times,
              "peak_rss_mb": peak_rss_mb, "correct": correct,
              "attempted": attempted, "failed": failed,
              "findings": [[f.op, bool(f.ok), f.detail] for f in findings]}
    if tracer is not None:
        result["per_layer"] = tracer.layer_metrics(len(round_times))
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
