"""Span recorder for the traced run.

For the duration of a traced run, ``Tracer.install`` wraps each public
levylab function named in ``LAYERS`` -- in its defining module and in every
levylab module that imported the name directly -- and the transform
functions of ``numpy.fft`` and ``scipy.fft``, so the FFT layer is measured
whichever library the program calls.  Spans (name, start, end, parent,
round) are kept in memory and written out at the end; only calls made while
``active`` is set, i.e. inside the timed section, are recorded.  A function
that a later change removes is skipped and its metrics read zero.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter

import numpy as np

# (module, function, span name); apply's span name gets the route variant
LAYERS = (
    ("levylab.levy", "symbol_array", "levy.symbol_array"),
    ("levylab.nonlocal_op", "apply", "nonlocal_op.apply"),
    ("levylab.heatkernel", "kernel", "heatkernel.kernel"),
    ("levylab.heatkernel", "semigroup_apply", "heatkernel.semigroup_apply"),
    ("levylab.linear_solver", "drift_solve", "linear_solver.drift_solve"),
    ("levylab.linear_solver", "duhamel_solve", "linear_solver.duhamel_solve"),
    ("levylab.quasilinear", "picard_solve", "quasilinear.solve"),
    ("levylab.quasilinear", "burgers_solve", "quasilinear.solve"),
    ("levylab.quasilinear", "hamilton_jacobi_solve", "quasilinear.solve"),
    ("levylab.stochastic", "path_rng", "stochastic.path_rng"),
    ("levylab.stochastic", "sample_stable_increment",
     "stochastic.sample_stable_increment"),
    ("levylab.stochastic", "sample_ensemble", "stochastic.sample_ensemble"),
    ("levylab.stochastic", "feynman_kac", "stochastic.estimator"),
    ("levylab.stochastic", "krylov_check", "stochastic.estimator"),
)

FFT_FUNCTIONS = {
    "numpy.fft": ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                  "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft",
                  "ihfft"),
    "scipy.fft": ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                  "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft",
                  "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn", "dct",
                  "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn"),
}

# per-layer count metrics: metric -> the span names whose calls it counts
COUNT_METRICS = {
    "levy.symbol_array.calls": ("levy.symbol_array",),
    "fft.calls": ("fft",),
    "nonlocal_op.apply.calls": ("nonlocal_op.apply.multiplier",
                                "nonlocal_op.apply.quadrature"),
    "linear_solver.drift_solve.calls": ("linear_solver.drift_solve",),
    "stochastic.path_rng.calls": ("stochastic.path_rng",),
    "stochastic.sample_stable_increment.calls":
        ("stochastic.sample_stable_increment",),
}
SELF_TIME_METRICS = (
    "levy.symbol_array", "fft", "nonlocal_op.apply.quadrature",
    "nonlocal_op.apply.multiplier", "heatkernel.kernel",
    "heatkernel.semigroup_apply", "linear_solver.drift_solve",
    "linear_solver.duhamel_solve", "quasilinear.solve", "stochastic.path_rng",
    "stochastic.sample_stable_increment", "stochastic.sample_ensemble",
    "stochastic.estimator",
)
COUNTERS = ("fft.points", "quasilinear.coefficient_evals")
RATE_METRICS = {
    # path steps simulated per second of estimator time (inclusive)
    "stochastic.path_steps_per_s": ("stochastic.path_steps",
                                    "stochastic.estimator"),
}


def metric_units() -> dict:
    units = {name: "count" for name in COUNT_METRICS}
    units.update({f"{name}.s": "s" for name in SELF_TIME_METRICS})
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "1/s" for name in RATE_METRICS})
    return units


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, round]
        self.counters = {}         # (name, round) -> value
        self.active = False
        self.round = 0
        self._stack = []
        self._patched = []         # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.round]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name, value):
        if self.active:
            key = (name, self.round)
            self.counters[key] = self.counters.get(key, 0) + value

    def _inside(self, name) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    # -- wrapping ----------------------------------------------------------

    def install(self):
        for mod_name, attr, span_name in LAYERS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._replace(original, self._layer_wrapper(attr, span_name, original),
                          [module])
        for mod_name, names in FFT_FUNCTIONS.items():
            module = importlib.import_module(mod_name)
            for attr in names:
                original = getattr(module, attr, None)
                if original is not None:
                    self._replace(original, self._fft_wrapper(original), [module])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, original, wrapper, modules):
        """Rebind every name bound to ``original`` in ``modules`` and in the
        levylab modules."""
        targets = list(modules) + [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "levylab" or n.startswith("levylab."))]
        for module in targets:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _fft_wrapper(self, fn):
        def wrapper(a, *args, **kwargs):
            if not self.active or self._inside("fft"):
                return fn(a, *args, **kwargs)
            out = self.call("fft", fn, a, *args, **kwargs)
            self.count("fft.points", max(int(np.size(a)), int(np.size(out))))
            return out
        return wrapper

    def _layer_wrapper(self, attr, span_name, fn):
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if attr == "apply":
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                route = bound(args, kwargs).get("route")
                variant = getattr(route, "variant", "multiplier")
                return self.call(f"{span_name}.{variant}", fn, *args, **kwargs)
        elif attr == "picard_solve":
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                b = bound(args, kwargs)
                b["problem"] = self._counting_problem(b["problem"])
                return self.call(span_name, fn, **b)
        elif span_name == "stochastic.estimator":
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                b = bound(args, kwargs)
                self.count("stochastic.path_steps",
                           int(b["n_paths"]) * int(b["n_steps"]))
                return self.call(span_name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.call(span_name, fn, *args, **kwargs)
        return wrapper

    def _counting_problem(self, problem):
        """The problem with drift and forcing callables that count their
        evaluations as quasilinear.coefficient_evals."""
        def counted(f):
            if f is None:
                return None

            def inner(*args, **kwargs):
                self.count("quasilinear.coefficient_evals", 1)
                return f(*args, **kwargs)
            return inner
        try:
            return dataclasses.replace(problem,
                                       drift_b=counted(problem.drift_b),
                                       forcing_f=counted(problem.forcing_f))
        except (TypeError, AttributeError):
            return problem

    # -- results -----------------------------------------------------------

    def round_tables(self):
        """Per round: {span name: (calls, self time, inclusive time)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        tables = {}
        for i, (name, start, end, _, rnd) in enumerate(self.spans):
            calls, self_s, incl = tables.setdefault(rnd, {}).get(name, (0, 0.0, 0.0))
            dur = end - start
            tables[rnd][name] = (calls + 1, self_s + dur - child[i], incl + dur)
        return tables

    def layer_metrics(self, rounds: int) -> dict:
        """Each per-layer metric as the median over rounds of its per-round
        value, so a warm-up round does not set it."""
        tables = self.round_tables()
        per_round = []
        for rnd in range(rounds):
            t = tables.get(rnd, {})
            row = {}
            for metric, names in COUNT_METRICS.items():
                row[metric] = sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)
            for name in SELF_TIME_METRICS:
                row[f"{name}.s"] = t.get(name, (0, 0.0, 0.0))[1]
            for name in COUNTERS:
                row[name] = self.counters.get((name, rnd), 0)
            for metric, (counter, span) in RATE_METRICS.items():
                busy = t.get(span, (0, 0.0, 0.0))[2]
                work = self.counters.get((counter, rnd), 0)
                row[metric] = work / busy if busy > 0 else 0.0
            per_round.append(row)
        return {k: statistics.median(r[k] for r in per_round)
                for k in per_round[0]}

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "columns": ["name", "start", "end", "parent", "round"],
               "spans": [[ids[s[0]], s[1], s[2], s[3], s[4]]
                         for s in self.spans],
               "counters": [[n, r, v] for (n, r), v in self.counters.items()]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
